"""Parses -> triples (the extraction-cascade stage).

Stateless ``map_batches`` over Arrow batches: per distinct parse, run the pure
rule cascade (``functions/cascade.process_sentence`` — extraction, amendments,
filters, negation, coarsification; reference post_processing
/root/reference/dudepparse.py:1718-1786) and explode the five relation streams
into one row per triple, entity-linked (``canonicalize.link_surface``); equal
parses of a batch share one block, expanded to their rows by a vectorized
take.  The stage keeps no worker state: behind the dedup sort
(``pipelines/kg.py``) equal sentence texts share one batch, so a batch's
distinct parses are the only repeats left to collapse.

The POS map is derived from the static gazetteer (the analog of
corenlp_pos_tags, reference main_ner.py:36-40) — module-constant state shipped
with the code, so no broadcast is needed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.cascade import DEFAULT_CONFIG, ExtractionConfig, process_sentence
from ..functions.lexicon import pos_map_for_words
from .canonicalize import link_surface

TRIPLES_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("sent_idx", pa.int32()),
    ("rel_kind", pa.string()),       # fine | coarse | amend_fine | amend_coarse | possible
    ("subj", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("subj_idx", pa.int32()),
    ("pred_idx", pa.int32()),
    ("obj_idx", pa.int32()),
    ("negated", pa.bool_()),
])


ENTITY_COLUMNS = ["subj_ent", "obj_ent"]
LINKED_TRIPLES_SCHEMA = pa.schema(
    list(TRIPLES_SCHEMA) + [pa.field(c, pa.string()) for c in ENTITY_COLUMNS])
_PROVENANCE = ["conv_id", "turn_idx", "sent_idx"]
_BLOCK_FIELDS = list(LINKED_TRIPLES_SCHEMA)[len(_PROVENANCE):]


def _linked_rows(words, heads, deprels, config: ExtractionConfig) -> list[tuple]:
    """One parse -> its linked triples in stream order, one tuple per triple
    in ``LINKED_TRIPLES_SCHEMA`` order minus the provenance columns."""
    streams = process_sentence({"word": words, "head": heads, "deprel": deprels},
                               pos_map_for_words(words), config=config)
    return [(kind, names[0], names[1], names[2], idxs[0], idxs[1], idxs[2],
             bool(names[1] and names[1].startswith("否·")),
             link_surface(names[0]), link_surface(names[2]))
            for kind, rels in streams.items() for (names, _, idxs) in rels]


def _parse_keys(batch: pa.Table) -> pa.Array:
    """Per-row parse key: words | heads | deprels, each list joined (sentence
    splitting strips NUL, so it cannot occur inside a word)."""
    heads = pc.cast(batch.column("heads").combine_chunks(),
                    pa.list_(pa.string()))
    return pc.binary_join_element_wise(
        pc.binary_join(batch.column("words").combine_chunks(), "\x00"),
        pc.binary_join(heads, ","),
        pc.binary_join(batch.column("deprels").combine_chunks(), ","), "|")


def _distinct_parses(batch: pa.Table) -> tuple[np.ndarray, list[tuple]]:
    """The batch's distinct parses as ``(words, heads, deprels)`` in
    first-seen order, and each row's index into them."""
    codes = pc.dictionary_encode(_parse_keys(batch)).indices \
              .to_numpy(zero_copy_only=False).astype(np.int64)
    _, first_row = np.unique(codes, return_index=True)
    parses = batch.take(pa.array(first_row))
    return codes, list(zip(*(_pylists(parses.column(c))
                             for c in ("words", "heads", "deprels"))))


def _pylists(col: pa.ChunkedArray) -> list[list]:
    """A list column as Python lists: the flat values converted once and
    sliced by the offsets (``to_pylist`` builds a scalar per element)."""
    arr = col.combine_chunks()
    if arr.null_count:
        return arr.to_pylist()
    flat = arr.values.to_numpy(zero_copy_only=False).tolist()
    ends = arr.offsets.to_numpy().tolist()
    return [flat[a:b] for a, b in zip(ends, ends[1:])]


def extract_linked(batch: pa.Table, config: ExtractionConfig = DEFAULT_CONFIG
                   ) -> tuple[pa.Table, dict]:
    """Parses -> linked triples (``LINKED_TRIPLES_SCHEMA``) plus the batch's
    sentence, distinct-parse and one-word-parse counters.

    Runs the cascade and entity linking once per distinct parse key of the
    batch, then expands the per-key blocks to rows with one vectorized
    take: row order is the batch's, triples within a row keep stream order.
    """
    n = batch.num_rows
    codes, parses = _distinct_parses(batch)
    blocks = [_linked_rows(words, heads, deprels, config)
              for words, heads, deprels in parses]
    # n_one_word_parses: rows whose parse is one word, the template parser's
    # single-HED fallback (stages/parse.py), which yields no triple
    stats = {"n_sentences": n, "n_distinct_parses": len(blocks),
             "n_one_word_parses": pc.sum(pc.equal(pc.list_value_length(
                 batch.column("words")), 1)).as_py() or 0}

    sizes = np.fromiter(map(len, blocks), np.int64, len(blocks))
    per_row = sizes[codes]
    row_ids = np.repeat(np.arange(n), per_row)
    row_starts = np.cumsum(per_row) - per_row
    take = (np.repeat((np.cumsum(sizes) - sizes)[codes] - row_starts, per_row)
            + np.arange(int(per_row.sum())))
    cols = (list(zip(*(row for blk in blocks for row in blk)))
            or [()] * len(_BLOCK_FIELDS))
    prov = batch.select(_PROVENANCE).take(pa.array(row_ids))
    arrays = prov.columns + [pa.array(col, f.type).take(pa.array(take))
                             for col, f in zip(cols, _BLOCK_FIELDS)]
    return pa.Table.from_arrays(arrays, schema=LINKED_TRIPLES_SCHEMA), stats


# reference bucket names (merge_parsed_results.py:82-90) keyed by the
# counter-prefix process_sentence emits
_HIST_BUCKETS = {
    "fine_stop::": "fine_stop_word_count_bucket",
    "coarse_stop::": "coarse_stop_word_count_bucket",
    "vcmp::": "vcmp_bucket",
}


def filter_histograms(parses_ds, config: ExtractionConfig = DEFAULT_CONFIG):
    """The reference's sorted stop-word / V_CMP-complement histograms
    (fine/coarse_stop_word_count_bucket + vcmp_bucket filled per slice,
    dudepparse.py:296-309,1724-1725, merged and count-sorted in
    merge_parsed_results.py:100-106,133-135) as a distributed view:
    per-batch counter rows -> grouped sum -> count-desc sort per bucket.
    Returns (bucket, token, n) rows."""
    from .groupagg import auto_hash_aggregate

    def batch_counts(batch: pa.Table) -> pa.Table:
        # counters are a pure function of the parse: run the cascade once per
        # distinct parse of the batch, scaled by its occurrence count
        codes, parses = _distinct_parses(batch)
        agg: dict[tuple, int] = {}
        for times, (words, heads, deprels) in zip(
                np.bincount(codes, minlength=len(parses)).tolist(), parses):
            counters: dict = {}
            process_sentence({"word": words, "head": heads,
                              "deprel": deprels},
                             pos_map_for_words(words), counters, config=config)
            for ck, n in counters.items():
                for prefix, bucket in _HIST_BUCKETS.items():
                    if ck.startswith(prefix):
                        key = (bucket, ck[len(prefix):])
                        agg[key] = agg.get(key, 0) + n * times
                        break
        keys = list(agg)
        return pa.Table.from_arrays(
            [pa.array([k[0] for k in keys], pa.string()),
             pa.array([k[1] for k in keys], pa.string()),
             pa.array([agg[k] for k in keys], pa.int64())],
            names=["bucket", "token", "n"])

    # (bucket, token) cardinality is vocabulary-bound, so the combiner
    # leaves the exchange few rows
    return (auto_hash_aggregate(
                parses_ds.map_batches(batch_counts, batch_format="pyarrow"),
                ["bucket", "token"], [("n", "sum")])
            .sort(["bucket", "n", "token"], descending=[False, True, False]))


def extract_triples(batch: pa.Table,
                    config: ExtractionConfig = DEFAULT_CONFIG) -> pa.Table:
    """Parses -> triples (``TRIPLES_SCHEMA``): :func:`extract_linked` without
    the entity columns."""
    return extract_linked(batch, config)[0].drop_columns(ENTITY_COLUMNS)
