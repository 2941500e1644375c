"""Bigram collocation PMI over document tokens — the unbounded-vocabulary
complement to the gazetteer-bounded entity PMI (``__ray_entry__``'s
``transcripts_entity_pmi``): there the count table is ~60 rows and
BROADCASTS; here the vocabulary grows with the corpus, so unigram counts
attach through two keyed LOOKUP JOINS — the join-based scale path.

Shape (all exchanges pre-combined; nothing vocabulary-sized on the driver):

1. **bigram emission, in-batch**: documents are whole inside their rows,
   so adjacent-token pairs come out of one vectorized pass (polars token
   extraction, numpy adjacency mask over the exploded flat array).
2. **counts**: one hash aggregate for bigrams, one for unigrams; the two
   scalar totals (token mass, bigram mass) are ``sum`` reductions.
3. **score**: unigram counts join onto the bigram table by each endpoint,
   then PMI = ln((c12/B) / ((c1/T)(c2/T))) vectorized per batch, rounded
   half-away-from-zero so the DuckDB mirror hashes bit-for-bit.

``min_count`` drops the long tail BEFORE the joins — at web scale the
count-1 bigram tail dominates the table, and pruning it first keeps the
join input proportional to the reusable signal, not the corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .tfidf import _term_freqs  # noqa: F401  (shared tokenizer contract)
from .textstats import TOKEN_RE_PORTABLE


def _bigram_rows(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    import polars as pl

    schema = pa.schema([("w1", pa.string()), ("w2", pa.string()),
                        ("n", pa.int64())])
    if batch.num_rows == 0:
        return schema.empty_table()
    toks = pl.from_arrow(
        pa.compute.fill_null(batch.column(text_col), "")
        .combine_chunks()).str.extract_all(TOKEN_RE_PORTABLE)
    lens = toks.list.len().to_numpy().astype(np.int64)
    ex = toks.explode()
    # polars explode emits ONE NULL row per empty list — repeat with the
    # padded lengths, then drop the null positions to realign.
    doc_idx = np.repeat(np.arange(len(lens)), np.maximum(lens, 1))
    nulls = ex.is_null().to_numpy()
    flat, doc_idx = ex.to_numpy()[~nulls], doc_idx[~nulls]
    if flat.shape[0] < 2:
        return schema.empty_table()
    adj = doc_idx[:-1] == doc_idx[1:]
    w1, w2 = flat[:-1][adj], flat[1:][adj]
    return pa.Table.from_arrays(
        [pa.array(w1, pa.string()), pa.array(w2, pa.string()),
         pa.array(np.ones(len(w1), dtype=np.int64))],
        names=["w1", "w2", "n"])


def bigram_pmi(docs_ds, *, min_count: int = 5, id_col: str = "doc_id",
               text_col: str = "text", round_digits: int = 4):
    """documents -> (w1, w2, n, pmi) for adjacent-token bigrams with
    count >= ``min_count``."""
    from ..functions.fputil import np_round_away
    from .groupagg import auto_hash_aggregate
    from .joins import lookup_join

    def uni_rows(batch: pa.Table) -> pa.Table:
        t = _term_freqs(batch, id_col, text_col)
        return pa.Table.from_arrays([t.column("term"), t.column("tf")],
                                    names=["w", "c"])

    uni = auto_hash_aggregate(
        docs_ds.map_batches(uni_rows, batch_format="pyarrow"),
        ["w"], [("c", "sum")])
    total_tokens = float(uni.sum("c") or 0.0)

    big = auto_hash_aggregate(
        docs_ds.map_batches(
            lambda b: _bigram_rows(b, id_col, text_col),
            batch_format="pyarrow"),
        ["w1", "w2"], [("n", "sum")])
    total_bigrams = float(big.sum("n") or 0.0)

    kept = big.map_batches(
        lambda t: t.filter(
            pa.compute.greater_equal(t.column("n"), min_count)),
        batch_format="pyarrow")
    j1 = lookup_join(kept, uni, left_key="w1", right_key="w",
                     payload=["c"], suffix="1")
    j2 = lookup_join(j1, uni, left_key="w2", right_key="w",
                     payload=["c"], suffix="2")

    def score(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema([("w1", pa.string()), ("w2", pa.string()),
                              ("n", pa.int64()),
                              ("pmi", pa.float64())]).empty_table()
        n = t.column("n").to_numpy().astype(np.float64)
        c1 = t.column("c1").to_numpy().astype(np.float64)
        c2 = t.column("c2").to_numpy().astype(np.float64)
        # expression tree mirrors the SQL oracle exactly:
        # ln((n/B) / ((c1/T) * (c2/T)))
        pmi = np_round_away(
            np.log((n / total_bigrams)
                   / ((c1 / total_tokens) * (c2 / total_tokens))),
            round_digits)
        return pa.Table.from_arrays(
            [t.column("w1"), t.column("w2"), t.column("n"),
             pa.array(pmi, pa.float64())],
            names=["w1", "w2", "n", "pmi"])

    return j2.map_batches(score, batch_format="pyarrow")
