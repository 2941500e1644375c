"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Shuffle shapes (the part that must hold at 100 TB):
- exact: content-hash column in map_batches -> groupby(hash) keep-first.
  One exchange, keyed on a uniform hash — no skew.
- MinHash-LSH: per-batch vectorized signature computation (numpy, no Python
  per-shingle loops over rows) -> explode to (band, band_hash, doc_id) rows ->
  one sort by bucket (``blockgroup.sorted_map_groups``) -> candidate pairs
  emitted per bucket -> Jaccard-verified.  Buckets are tiny by construction;
  a pathological bucket is capped (MAX_BUCKET) and logged rather than
  exploding quadratically.
- SimHash: 64-bit signature per doc; 4x16-bit band buckets -> same
  exchange; Hamming-verified.

All hashing is seed-stable (md5/crc-based), never Python ``hash``.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pyarrow as pa

from .blockgroup import bucket_members, sorted_map_groups
from .textstats import re2_tokens

logger = logging.getLogger(__name__)


def _log_bucket_caps(truncated: list[int]) -> None:
    """No-silent-caps contract: a pathological LSH bucket larger than
    MAX_BUCKET is capped — say so, with the sizes, instead of silently
    dropping pairs."""
    if truncated:
        logger.warning(
            "MinHash-LSH capped %d bucket(s) at MAX_BUCKET=%d "
            "(original sizes: %s) — pairs beyond the cap were dropped",
            len(truncated), MAX_BUCKET, sorted(truncated, reverse=True)[:10])

NUM_PERM = 64
BANDS = 16          # 16 bands x 4 rows => catches ~0.6+ Jaccard
ROWS_PER_BAND = NUM_PERM // BANDS
SHINGLE_K = 5       # word 5-shingles? char shingles below use words
MAX_BUCKET = 64

_MERSENNE = (1 << 61) - 1
_rng = np.random.RandomState(0xC0FFEE)
_PERM_A = _rng.randint(1, _MERSENNE, size=NUM_PERM, dtype=np.int64)
_PERM_B = _rng.randint(0, _MERSENNE, size=NUM_PERM, dtype=np.int64)


def _stable64(token: str) -> int:
    return int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[:8],
                          "big") & ((1 << 61) - 1)


def content_md5_keys(texts: list) -> list[str]:
    """The content-hash keying convention shared by :func:`exact_dedup`
    and :func:`bottomk_sample` — MUST stay ``md5(utf8(coalesce(text, '')))``
    hex so the DuckDB oracles' ``md5(coalesce(text, ''))`` mirror it
    byte-for-byte (one definition, so the two ops cannot drift apart)."""
    return [hashlib.md5((t or "").encode("utf-8")).hexdigest()
            for t in texts]


# Per-process memo of token -> stable hash.  Texts in a corpus share a
# vocabulary, so hashing each distinct token once per worker removes the md5
# call from the per-shingle hot path.  Bounded so a pathological vocabulary
# cannot grow the worker heap without limit.
_TOKEN_HASH_CACHE: dict[str, int] = {}
_TOKEN_HASH_CACHE_MAX = 1 << 20


def _token_hashes(toks: list[str]) -> np.ndarray:
    cache = _TOKEN_HASH_CACHE
    out = np.empty(len(toks), dtype=np.int64)
    for i, t in enumerate(toks):
        h = cache.get(t)
        if h is None:
            h = _stable64(t)
            if len(cache) < _TOKEN_HASH_CACHE_MAX:
                cache[t] = h
        out[i] = h
    return out


def word_shingles(text: str, k: int = 3) -> set[str]:
    toks = re2_tokens(text)
    if len(toks) < k:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)}


# Shingle hash = positional mix of the k token hashes (vectorized over the
# whole token array).  Equivalent role to hashing the joined shingle string,
# at numpy speed; matches word_shingles(k=3) membership semantics because the
# mix is injective enough at 61 bits.
_SHINGLE_MIX = _rng.randint(1, _MERSENNE, size=8, dtype=np.int64)


def minhash_signature(text: str) -> np.ndarray:
    """NUM_PERM-wide MinHash over word 3-shingles (fully vectorized)."""
    toks = re2_tokens(text or "")
    if not toks:
        return np.full(NUM_PERM, _MERSENNE, dtype=np.int64)
    h = _token_hashes(toks)
    k = 3
    if len(h) < k:
        base = np.array([h.sum() % _MERSENNE], dtype=np.int64)
    else:
        base = np.zeros(len(h) - k + 1, dtype=np.int64)
        for j in range(k):
            base = (base + h[j:len(h) - k + 1 + j] * _SHINGLE_MIX[j]) % _MERSENNE
        base = np.unique(base)
    # (num_shingles, num_perm) permuted hashes -> column-min
    permed = (base[:, None] * _PERM_A[None, :] + _PERM_B[None, :]) % _MERSENNE
    return permed.min(axis=0)


# per-slot mixing constants for the vectorized band hash (an int64-wrapping
# polynomial over the band's signature slots — deterministic, and a
# collision only costs one false-positive candidate pair, later verified)
_BAND_SLOT_MIX = _rng.randint(1, _MERSENNE, size=ROWS_PER_BAND,
                              dtype=np.int64) | 1


def add_minhash_bands(batch: pa.Table) -> pa.Table:
    """docs -> exploded (band, band_hash, doc_id) rows for the LSH groupby.

    Band hashes are computed for the WHOLE batch with one numpy pass per
    band (wrapping int64 polynomial over the band's signature slots) —
    no per-row digest calls; band_hash is int64, so the downstream bucket
    sort exchanges fixed-width keys instead of strings."""
    doc_ids = batch.column("doc_id").to_numpy()
    texts = batch.column("text").to_pylist()
    n = len(texts)
    sigs = np.empty((n, NUM_PERM), dtype=np.int64)
    for i, t in enumerate(texts):
        sigs[i] = minhash_signature(t or "")
    with np.errstate(over="ignore"):
        band_cols = []
        for b in range(BANDS):
            chunk = sigs[:, b * ROWS_PER_BAND:(b + 1) * ROWS_PER_BAND]
            band_cols.append(
                (chunk * _BAND_SLOT_MIX[None, :]).sum(axis=1,
                                                      dtype=np.int64))
    return pa.Table.from_arrays(
        [pa.array(np.repeat(np.arange(BANDS, dtype=np.int32), n)),
         pa.array(np.concatenate(band_cols)),
         pa.array(np.tile(doc_ids, BANDS))],
        names=["band", "band_hash", "doc_id"])


def jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    sa, sb = word_shingles(text_a, k), word_shingles(text_b, k)
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    union = len(sa) + len(sb) - inter
    return inter / union if union else 0.0


# --- SimHash -----------------------------------------------------------------

def simhash64(text: str) -> int:
    toks = list(set(re2_tokens(text)))
    if not toks:
        return 0
    h = _token_hashes(toks)                                   # (n,)
    bits = (h[:, None] >> np.arange(64)[None, :]) & 1         # (n, 64)
    acc = (2 * bits - 1).sum(axis=0)
    return int("".join("1" if v > 0 else "0" for v in acc), 2)


def add_simhash(batch: pa.Table) -> pa.Table:
    texts = batch.column("text").to_pylist()
    # two's-complement wrap: a signature with bit 63 set must still fit the
    # int64 column; hamming64 masks back to 64 unsigned bits
    sigs = [s - (1 << 64) if s >= (1 << 63) else s
            for s in (simhash64(t or "") for t in texts)]
    bands = []
    for s in sigs:
        bands.append([(s >> (16 * b)) & 0xFFFF for b in range(4)])
    tbl = pa.Table.from_arrays(
        [batch.column("doc_id"), pa.array(sigs, pa.int64())],
        names=["doc_id", "simhash"])
    for b in range(4):
        tbl = tbl.append_column(f"band{b}",
                                pa.array([r[b] for r in bands], pa.int32()))
    return tbl


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & ((1 << 64) - 1)).count("1")


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def hamming64_matrix(sigs: np.ndarray) -> np.ndarray:
    """(m, m) pairwise Hamming distances over int64/uint64 signatures —
    byte-table popcount (numpy<2 has no bitwise_count), no Python per
    pair."""
    m = len(sigs)
    x = np.ascontiguousarray(sigs[:, None] ^ sigs[None, :])
    return _POP8[x.view(np.uint8)].reshape(m, m, 8).sum(
        axis=2, dtype=np.int32)


# --- driver-facing composite ops (Dataset -> Dataset) ------------------------

def exact_dedup(docs_ds):
    """Keep the min-doc_id representative per identical text.  Key = md5 so
    the exchange is uniform regardless of text length.  Aggregated via the
    sorted-block hash aggregate — the builtin groupby reduce pays ~ms per
    group, and here groups ~= distinct documents."""
    from .groupagg import sorted_hash_aggregate

    def add_cols(batch: pa.Table) -> pa.Table:
        md5s = content_md5_keys(batch.column("text").to_pylist())
        n = batch.num_rows
        return pa.Table.from_arrays(
            [pa.array(md5s, pa.string()),
             batch.column("doc_id").cast(pa.int64()),
             pa.array(np.ones(n, dtype=np.int64))],
            names=["md5", "keep_doc_id", "dup_count"])

    return sorted_hash_aggregate(
        docs_ds.map_batches(add_cols, batch_format="pyarrow"),
        ["md5"], [("keep_doc_id", "min"), ("dup_count", "sum")])


def bottomk_sample(docs_ds, k: int = 25):
    """Fixed-size deterministic sample: the ``k`` documents with the
    smallest ``(md5(text), doc_id)`` key — the distributed analog of
    reservoir sampling (bottom-k over a uniform content hash IS a uniform
    without-replacement sample, and unlike a reservoir it is deterministic
    and mergeable).  Complements the Bernoulli content-hash sample
    (``docs_deterministic_sample``), whose size varies with the corpus.

    100-TB shape: each block prunes locally to its own bottom-k before the
    exchange (k rows per block, never the corpus), then one global
    sort+limit over <= k x n_blocks pruned rows; ``sample_rank`` is
    assigned on the final k-row table.  Returns an Arrow table
    (doc_id, md5, sample_rank) — output bounded at k rows by construction.
    """
    def key_rows(batch: pa.Table) -> pa.Table:
        md5s = content_md5_keys(batch.column("text").to_pylist())
        t = pa.Table.from_arrays(
            [batch.column("doc_id").cast(pa.int64()),
             pa.array(md5s, pa.string())],
            names=["doc_id", "md5"])
        # local bottom-k prune: the exchange carries k rows per block
        import pyarrow.compute as pc

        idx = pc.sort_indices(
            t, sort_keys=[("md5", "ascending"), ("doc_id", "ascending")])
        return t.take(idx[:k])

    pruned = docs_ds.map_batches(key_rows, batch_format="pyarrow")
    rows = pruned.sort(["md5", "doc_id"]).limit(k).take_all()  # k rows
    return pa.Table.from_arrays(
        [pa.array([r["doc_id"] for r in rows], pa.int64()),
         pa.array([r["md5"] for r in rows], pa.string()),
         pa.array(np.arange(1, len(rows) + 1), pa.int64())],
        names=["doc_id", "md5", "sample_rank"])


def ngram_novelty(docs_ds, k: int = 3):
    """Per-document n-gram novelty: the fraction of the doc's DISTINCT
    word-``k``-shingles (:func:`word_shingles` semantics) that appear in NO
    other document (corpus document-frequency == 1) — high novelty marks
    genuinely fresh content, low novelty marks near-boilerplate whose
    vocabulary the corpus already covers (the memorization-risk signal
    complementary to pairwise near-dup detection, which only fires on
    concentrated overlap with ONE partner).

    Engine shape: ONE explode pass emits both the (shingle, doc_id) index
    rows and a per-doc size row (the kind=0/1 trick of
    :func:`similar_pairs_exact` — the size rows make the final per-doc
    aggregate total without a join back to the doc list, so zero-shingle
    docs still score 0.0); shingle df through the cardinality-dispatching
    aggregate; the df==1 set filters the index rows via ``semi_join``
    (broadcast membership while the novel set fits
    ``BROADCAST_KEYS_THRESHOLD``, the sorted-block exchange beyond — at
    100 TB MOST shingles are novel, so the sort path is the expected
    regime); one grouped sum per doc_id finishes.  The exchange key is
    the shingle STRING so the DuckDB oracle replays it verbatim; at
    100 TB swap in the 128-bit shingle hash of :func:`similar_pairs_exact`
    (same topology, collision odds ~2^-64).
    Returns (doc_id, n_shingles, n_novel, novelty_frac).
    """
    from ..functions.fputil import np_round_away
    from .groupagg import auto_hash_aggregate

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_ids: list[int] = []
        out_sh: list[str] = []
        sizes: list[int] = []
        for i, t in zip(ids, texts):
            sh = word_shingles(t or "", k)
            sizes.append(len(sh))
            out_ids.extend([i] * len(sh))
            out_sh.extend(sh)
        n, m = len(out_ids), len(ids)
        return pa.Table.from_arrays(
            [pa.array([0] * n + [1] * m, pa.int8()),
             pa.array(out_sh + [""] * m, pa.string()),
             pa.array(out_ids + ids, pa.int64()),
             pa.array(np.concatenate(
                 [np.ones(n, dtype=np.int64),
                  np.asarray(sizes, dtype=np.int64)]))],
            names=["kind", "s", "doc_id", "cnt"])

    both = docs_ds.map_batches(explode, batch_format="pyarrow").materialize()
    index = both.filter(expr="kind == 0")
    novel_set = auto_hash_aggregate(
        index.map_batches(lambda b: b.select(["s", "cnt"]),
                          batch_format="pyarrow"),
        ["s"], [("cnt", "sum")]) \
        .filter(expr="cnt == 1").select_columns(["s"]).materialize()

    from .joins import semi_join

    def novel_rows(b: pa.Table) -> pa.Table:
        z = np.zeros(b.num_rows, dtype=np.int64)
        return pa.Table.from_arrays(
            [b.column("doc_id"), pa.array(z),
             pa.array(np.ones(b.num_rows, dtype=np.int64))],
            names=["doc_id", "n_shingles", "n_novel"])

    def size_rows(b: pa.Table) -> pa.Table:
        z = np.zeros(b.num_rows, dtype=np.int64)
        return pa.Table.from_arrays(
            [b.column("doc_id"), b.column("cnt"), pa.array(z)],
            names=["doc_id", "n_shingles", "n_novel"])

    merged = (semi_join(index, novel_set, left_key="s", right_key="s",
                        left_key_nullable=False)
              .map_batches(novel_rows, batch_format="pyarrow")
              .union(both.filter(expr="kind == 1")
                     .map_batches(size_rows, batch_format="pyarrow")))
    per_doc = auto_hash_aggregate(
        merged, ["doc_id"], [("n_shingles", "sum"), ("n_novel", "sum")])

    def finish(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch.column("n_shingles"), dtype=np.int64)
        nov = np.asarray(batch.column("n_novel"), dtype=np.int64)
        frac = np.where(n > 0, nov / np.maximum(n, 1).astype(np.float64),
                        0.0)
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(n, pa.int64()),
             pa.array(nov, pa.int64()),
             pa.array(np_round_away(frac, 6), pa.float64())],
            names=["doc_id", "n_shingles", "n_novel", "novelty_frac"])

    return per_doc.map_batches(finish, batch_format="pyarrow")


def _minhash_bucket_pairs(batch: pa.Table) -> pa.Table:
    """Whole LSH buckets, contiguous by (band, band_hash) -> one (a, b,
    n_bands=1) row per candidate pair of every bucket (a <= b), each bucket
    capped at its first MAX_BUCKET doc_ids — the cap logged, never
    silent."""
    doc = batch.column("doc_id").to_numpy()
    members, truncated = bucket_members(batch, ["band", "band_hash"],
                                        "doc_id", MAX_BUCKET)
    _log_bucket_caps(truncated)
    out_a, out_b = [], []
    for idx in members:
        iu, ju = np.triu_indices(len(idx), 1)   # vectorized pair emit
        out_a.append(doc[idx[iu]])
        out_b.append(doc[idx[ju]])
    a = np.concatenate(out_a) if out_a else np.array([], np.int64)
    b = np.concatenate(out_b) if out_b else np.array([], np.int64)
    return pa.table({"a": a, "b": b,
                     "n_bands": np.ones(len(a), dtype=np.int64)})


def minhash_candidate_pairs(docs_ds):
    """docs -> verified-unique candidate pairs (a < b) from MinHash-LSH.

    Shuffle plan: signatures -> exploded band rows -> ONE sort by bucket
    (:func:`stages.blockgroup.sorted_map_groups`) -> vectorized pair
    generation per block of whole buckets, with no per-group Python call
    for the (mostly singleton) LSH buckets.
    """
    from .groupagg import auto_hash_aggregate

    pairs = sorted_map_groups(
        docs_ds.map_batches(add_minhash_bands, batch_format="pyarrow"),
        ["band", "band_hash"], block_fn=_minhash_bucket_pairs,
        schema=pa.schema([("a", pa.int64()), ("b", pa.int64()),
                          ("n_bands", pa.int64())]),
        arrow_blocks=True)
    # final pair dedupe: a pair is emitted once per agreeing band (up to
    # BANDS x), so the pre-combine of auto_hash_aggregate collapses the
    # duplication BEFORE any exchange
    return auto_hash_aggregate(pairs, ["a", "b"], [("n_bands", "sum")])


def simhash_near_dups(docs_ds, max_hamming: int = 3):
    """SimHash near-dup pairs: 64-bit signatures, 4x16-bit banded LSH (a
    pair within hamming distance 3 must agree exactly on >=1 of the 4
    bands — complete by pigeonhole EXCEPT where a band bucket exceeds
    MAX_BUCKET and is deterministically capped to its first MAX_BUCKET
    doc_ids, the logged scale guard; the SQL oracle mirrors the cap
    exactly), verified by exact Hamming distance — the same sorted-block
    pair generation as the MinHash path, with signatures riding along so
    verification needs no extra join.  Returns (a, b, hamming) rows."""

    def explode_bands(batch: pa.Table) -> pa.Table:
        sigs = add_simhash(batch)
        parts = []
        for b in range(4):
            parts.append(pa.Table.from_arrays(
                [pa.array([b] * sigs.num_rows, pa.int32()),
                 sigs.column(f"band{b}"),
                 sigs.column("doc_id"), sigs.column("simhash")],
                names=["band", "band_hash", "doc_id", "sig"]))
        return pa.concat_tables(parts)

    def bucket_pairs(batch: pa.Table) -> pa.Table:
        """Whole band buckets -> (a, b, hamming) for every in-bucket pair
        within ``max_hamming``; buckets capped at their first MAX_BUCKET
        doc_ids (logged)."""
        doc = batch.column("doc_id").to_numpy()
        sig = batch.column("sig").to_numpy()
        members, truncated = bucket_members(batch, ["band", "band_hash"],
                                            "doc_id", MAX_BUCKET)
        _log_bucket_caps(truncated)
        out_a, out_b, out_h = [], [], []
        for idx in members:
            d = doc[idx]
            h_mat = hamming64_matrix(sig[idx])   # vectorized
            iu, ju = np.triu_indices(len(d), 1)
            keep = h_mat[iu, ju] <= max_hamming
            out_a.append(d[iu[keep]])
            out_b.append(d[ju[keep]])
            out_h.append(h_mat[iu, ju][keep])
        return pa.table({
            "a": np.concatenate(out_a) if out_a else np.array([], np.int64),
            "b": np.concatenate(out_b) if out_b else np.array([], np.int64),
            "hamming": (np.concatenate(out_h) if out_h
                        else np.array([], np.int32))})

    from .groupagg import auto_hash_aggregate

    pairs = sorted_map_groups(
        docs_ds.map_batches(explode_bands, batch_format="pyarrow"),
        ["band", "band_hash"], block_fn=bucket_pairs,
        schema=pa.schema([("a", pa.int64()), ("b", pa.int64()),
                          ("hamming", pa.int32())]),
        arrow_blocks=True)
    # same shape as the MinHash pair dedupe: up to 4x banded duplication
    # collapsed by the pre-combine, sort skipped at small pair counts
    return auto_hash_aggregate(pairs, ["a", "b"], [("hamming", "min")])


def jaccard_near_dups(docs_ds, threshold: float = 0.5, k: int = 3,
                      prefilter_candidates: bool = False):
    """MinHash-LSH candidates verified by exact word-k-shingle Jaccard —
    fully distributed.

    The candidate texts are attached to the pair rows via two keyed
    sorted-block lookup joins (pair.a -> text, then pair.b -> text;
    ``stages/joins.lookup_join``), so NOTHING corpus- or
    candidate-proportional is ever collected to the driver — at 100 TB the
    near-dup candidate set is a double-digit fraction of the corpus, which
    ruled out the classic collect+broadcast shape.

    ``prefilter_candidates=True`` first semi-joins the corpus down to the
    candidate doc ids so the full corpus is exchanged ONCE instead of
    twice — the knob for when corpus bytes >> candidate set.  Measured at
    500k docs / 126k pairs on this single node the direct two-lookup plan
    wins (13.4 s vs 40.1 s — per-op fixed costs dominate), so the default
    is off; flip it when the corpus-sort volume is the bottleneck."""
    pairs = (minhash_candidate_pairs(docs_ds)
             .map_batches(lambda b: b.select(["a", "b"]),
                          batch_format="pyarrow")
             .materialize())   # small vs corpus; avoids schema() re-execution

    from .joins import lookup_join, semi_join

    docs = docs_ds.map_batches(lambda b: b.select(["doc_id", "text"]),
                               batch_format="pyarrow")
    if prefilter_candidates:
        cand_ids = pairs.map_batches(
            lambda b: pa.Table.from_arrays(
                [pa.concat_arrays([b.column("a").combine_chunks(),
                                   b.column("b").combine_chunks()])],
                names=["id"]),
            batch_format="pyarrow")
        docs = semi_join(docs, cand_ids, left_key="doc_id",
                         right_key="id").materialize()
    with_a = lookup_join(pairs, docs, left_key="a", right_key="doc_id",
                         payload=["text"], suffix="_a", how="inner")
    with_ab = lookup_join(with_a, docs, left_key="b", right_key="doc_id",
                          payload=["text"], suffix="_b", how="inner")

    def verify(batch: pa.Table) -> pa.Table:
        from ..functions.fputil import np_round_away

        out_a, out_b, out_j = [], [], []
        for a, b, ta, tb in zip(batch.column("a").to_pylist(),
                                batch.column("b").to_pylist(),
                                batch.column("text_a").to_pylist(),
                                batch.column("text_b").to_pylist()):
            j = jaccard(ta or "", tb or "", k)
            if j >= threshold:
                out_a.append(a)
                out_b.append(b)
                # away-from-zero rounding = DuckDB round() semantics (the
                # SQL oracle compares these values bit-for-bit; Python's
                # round() is banker's and can differ in the last digit)
                out_j.append(float(np_round_away(np.array([j]), 4)[0]))
        return pa.Table.from_arrays(
            [pa.array(out_a, pa.int64()), pa.array(out_b, pa.int64()),
             pa.array(out_j, pa.float64())],
            names=["a", "b", "jaccard"])

    return with_ab.map_batches(verify, batch_format="pyarrow")


# --- exact all-pairs similarity join (inverted shingle index) ----------------

def _shingle_strings(text: str, k: int = 3) -> list[str]:
    """Distinct word-k-shingles as strings — same membership semantics as
    :func:`word_shingles` (list form for vectorized hashing)."""
    return list(word_shingles(text, k))


def shingle_intersections(docs_ds, k: int = 3,
                          max_df: int | None = None):
    """EXACT per-pair shingle-intersection counts — the shared substrate
    of :func:`similar_pairs_exact` (Jaccard) and
    :func:`containment_pairs_exact` (asymmetric overlap), via the classic
    distributed inverted-index join:

        docs -> distinct (shingle_hash128, doc_id) index rows
             -> ONE sort by shingle -> per-bucket pair emission (RLE scan
                over blocks of whole buckets, ``sorted_map_groups``)
             -> sorted-block count per (a, b)  == |shingle intersection|
             -> two keyed lookups attach |A| and |B|

    Returns (a, b, n_shared, n_shingles_a, n_shingles_b), one row per
    pair sharing >= 1 indexed shingle (a pair of zero-shingle docs has no
    index rows and is NOT emitted — its consumers mirror that).

    100-TB shape: the only quadratic danger is a shingle shared by many
    documents (bucket of size d emits d^2/2 pairs).  ``max_df`` drops
    shingles with document frequency above the cap before pair emission
    (the standard prefix-filter; a pair sharing ONLY ubiquitous shingles is
    then missed — the oracle must apply the same cap).  Capped buckets are
    logged, never silent.  Shingle identity is a 128-bit polars hash —
    collisions (~2^-64 per pair) could only inflate one intersection count.
    """
    import polars as pl

    def explode_index(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_ids: list[int] = []
        shingles: list[str] = []
        sizes = []
        for i, t in zip(ids, texts):
            sh = _shingle_strings(t or "", k)
            sizes.append(len(sh))
            out_ids.extend([i] * len(sh))
            shingles.extend(sh)
        if shingles:
            ser = pl.Series(shingles)
            h1 = ser.hash(seed=101).to_numpy().view(np.int64)
            h2 = ser.hash(seed=202).to_numpy().view(np.int64)
        else:
            h1 = h2 = np.array([], dtype=np.int64)
        n = len(out_ids)
        m = len(ids)
        # kind=0 rows: index entries; kind=1 rows: per-doc set sizes
        return pa.Table.from_arrays(
            [pa.array([0] * n + [1] * m, pa.int8()),
             pa.array(np.concatenate([h1, np.zeros(m, dtype=np.int64)])),
             pa.array(np.concatenate([h2, np.zeros(m, dtype=np.int64)])),
             pa.array(out_ids + ids, pa.int64()),
             pa.array([0] * n + sizes, pa.int64())],
            names=["kind", "h1", "h2", "doc_id", "n_shingles"])

    both = docs_ds.map_batches(explode_index,
                               batch_format="pyarrow").materialize()
    index = both.filter(expr="kind == 0").map_batches(
        lambda b: b.select(["h1", "h2", "doc_id"]), batch_format="pyarrow")
    sizes = both.filter(expr="kind == 1").map_batches(
        lambda b: b.select(["doc_id", "n_shingles"]), batch_format="pyarrow")

    if max_df is not None:
        from .groupagg import sorted_hash_aggregate as _sha
        from .joins import semi_join

        def ones(b: pa.Table) -> pa.Table:
            return b.append_column(
                "df", pa.array(np.ones(b.num_rows, dtype=np.int64)))

        df_tbl = _sha(index.map_batches(ones, batch_format="pyarrow"),
                      ["h1", "h2"], [("df", "sum")])
        # read twice: the semi-join fetches its schema, then joins it
        rare = df_tbl.filter(expr=f"df <= {int(max_df)}").map_batches(
            lambda b: pa.Table.from_arrays(
                [b.column("h1")], names=["h1k"]),
            batch_format="pyarrow").materialize()
        # NOTE: the semi-join key is h1 only (the 64-bit half) — collisions
        # there merely keep a few extra shingles, never drop one
        index = semi_join(index, rare, left_key="h1", right_key="h1k")

    def bucket_pairs(batch: pa.Table) -> pa.Table:
        """Whole shingle buckets -> one (a, b, n_shared=1) row per pair of
        docs sharing the shingle (a <= b)."""
        doc = batch.column("doc_id").to_numpy()
        members, _ = bucket_members(batch, ["h1", "h2"], "doc_id")
        out_a, out_b, big = [], [], []
        for idx in members:
            if len(idx) > 4096:
                big.append(len(idx))
            iu, ju = np.triu_indices(len(idx), 1)
            out_a.append(doc[idx[iu]])
            out_b.append(doc[idx[ju]])
        if big:
            logger.warning(
                "similar_pairs_exact: %d shingle bucket(s) over 4096 "
                "docs (sizes %s) — quadratic pair emission; consider "
                "max_df", len(big), sorted(big, reverse=True)[:5])
        a = np.concatenate(out_a) if out_a else np.array([], np.int64)
        b = np.concatenate(out_b) if out_b else np.array([], np.int64)
        return pa.table({"a": a, "b": b,
                         "n_shared": np.ones(len(a), dtype=np.int64)})

    from .groupagg import auto_hash_aggregate
    from .joins import lookup_join

    # the pair stream carries one row per SHARED SHINGLE (multiplicity is
    # the intersection count) — the per-block pre-combine turns that into
    # one (pair, partial-count) row per block before any exchange
    pairs = sorted_map_groups(
        index, ["h1", "h2"], block_fn=bucket_pairs,
        schema=pa.schema([("a", pa.int64()), ("b", pa.int64()),
                          ("n_shared", pa.int64())]),
        arrow_blocks=True)
    inter = auto_hash_aggregate(pairs, ["a", "b"], [("n_shared", "sum")])
    with_a = lookup_join(inter, sizes, left_key="a", right_key="doc_id",
                         payload=["n_shingles"], suffix="_a", how="inner")
    return lookup_join(with_a, sizes, left_key="b", right_key="doc_id",
                       payload=["n_shingles"], suffix="_b", how="inner")


def similar_pairs_exact(docs_ds, threshold: float = 0.5, k: int = 3,
                        max_df: int | None = None, *, intersections=None):
    """EXACT all-pairs word-k-shingle Jaccard >= ``threshold`` over the
    :func:`shingle_intersections` substrate — the deterministic complement
    to :func:`jaccard_near_dups` (whose recall is the LSH's): exactly
    every pair with J > 0 over the threshold, no recall probability
    anywhere.  SQL-mirrorable (the DuckDB oracle runs the same join over
    unnested shingle lists, missing the same zero-shingle degenerate
    pairs by construction).  Pass ``intersections`` (a prior
    :func:`shingle_intersections` result) to share the expensive substrate
    with a sibling finisher."""
    from ..functions.fputil import np_round_away

    def finish(batch: pa.Table) -> pa.Table:
        inter_n = batch.column("n_shared").to_numpy().astype(np.float64)
        na = batch.column("n_shingles_a").to_numpy().astype(np.float64)
        nb = batch.column("n_shingles_b").to_numpy().astype(np.float64)
        union = na + nb - inter_n
        j = np.where(union > 0, inter_n / np.maximum(union, 1.0), 1.0)
        keep = j >= threshold
        return pa.Table.from_arrays(
            [batch.column("a").combine_chunks().filter(pa.array(keep)),
             batch.column("b").combine_chunks().filter(pa.array(keep)),
             pa.array(np_round_away(j[keep], 4), pa.float64())],
            names=["a", "b", "jaccard"])

    if intersections is None:
        intersections = shingle_intersections(docs_ds, k=k, max_df=max_df)
    return intersections.map_batches(finish, batch_format="pyarrow")


def containment_pairs_exact(docs_ds, threshold: float = 0.6, k: int = 3,
                            max_df: int | None = None, *,
                            intersections=None):
    """EXACT asymmetric containment pairs — C(A|B) = |A∩B| / |A| per
    direction over the :func:`shingle_intersections` substrate, kept when
    EITHER direction clears ``threshold``.  The superset/subset detector
    Jaccard structurally misses: a short doc fully embedded in a long one
    scores J ≈ |A|/|B| (arbitrarily low) but containment_a = 1.0 — the
    quote/boilerplate/excerpt case of corpus dedup (cf. Broder 1997's
    resemblance-vs-containment distinction).  Same exactness and
    zero-shingle conventions as :func:`similar_pairs_exact`."""
    from ..functions.fputil import np_round_away

    def finish(batch: pa.Table) -> pa.Table:
        inter_n = batch.column("n_shared").to_numpy().astype(np.float64)
        na = batch.column("n_shingles_a").to_numpy().astype(np.float64)
        nb = batch.column("n_shingles_b").to_numpy().astype(np.float64)
        ca = inter_n / na           # index rows exist => na, nb >= 1
        cb = inter_n / nb
        keep = np.maximum(ca, cb) >= threshold
        return pa.Table.from_arrays(
            [batch.column("a").combine_chunks().filter(pa.array(keep)),
             batch.column("b").combine_chunks().filter(pa.array(keep)),
             pa.array(np_round_away(ca[keep], 4), pa.float64()),
             pa.array(np_round_away(cb[keep], 4), pa.float64())],
            names=["a", "b", "containment_a", "containment_b"])

    if intersections is None:
        intersections = shingle_intersections(docs_ds, k=k, max_df=max_df)
    return intersections.map_batches(finish, batch_format="pyarrow")
