"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — the query matrix is broadcast once
(``ray.put`` when large; literal capture here), each batch does one numpy
matmul, and per-batch top-k candidates are reduced by a final sort+limit over
the (tiny) candidate stream.  Scale path: LSH bucketing via random
hyperplanes, the same sorted-block bucket exchange as MinHash — per-bucket
exact rerank.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.fputil import np_round_away
from .blockgroup import bucket_members, sorted_map_groups


def _embedding_matrix(batch: pa.Table) -> np.ndarray:
    """(n, dim) float64 matrix from the embedding column — via the Arrow
    buffer (flatten() respects offsets/slices), not to_pylist(): the
    Python-object round-trip was the dominant per-batch cost of every
    similarity kernel at scale."""
    col = batch.column("embedding").combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), dtype=np.float64)
    if col.null_count == 0:
        if pa.types.is_fixed_size_list(col.type):
            flat = col.flatten()
            if flat.null_count == 0:
                return np.asarray(flat, dtype=np.float64).reshape(
                    n, col.type.list_size)
        elif pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
            lens = np.diff(np.asarray(col.offsets))
            flat = col.flatten()
            if len(lens) and (lens == lens[0]).all() and lens[0] > 0 \
                    and flat.null_count == 0:
                return np.asarray(flat, dtype=np.float64).reshape(
                    n, int(lens[0]))
    # ragged/null rows — correctness fallback (never hit by valid input)
    return np.asarray(col.to_pylist(), dtype=np.float64)


def normalize(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    n[n == 0] = 1.0
    return v / n


class CosineTopK:
    """Per-batch brute-force scorer against a fixed query vector (held per
    actor; with many queries this would be a matrix and one GEMM per batch)."""

    def __init__(self, query_vec: np.ndarray, round_digits: int = 6):
        q = np.asarray(query_vec, dtype=np.float64)
        self.q = q / (np.linalg.norm(q) or 1.0)
        self.round_digits = round_digits

    def __call__(self, batch: pa.Table) -> pa.Table:
        emb = normalize(_embedding_matrix(batch))
        sims = np_round_away(emb @ self.q, self.round_digits)
        return pa.Table.from_arrays(
            [batch.column("vec_id"), pa.array(sims, pa.float64())],
            names=["vec_id", "cosine_sim"])


def brute_force_top_k(embeddings_ds, query_vec, k: int = 10):
    """Top-k most-similar vec_ids (ties broken by vec_id asc, like the SQL
    oracle's ORDER BY sim DESC, vec_id ASC)."""
    scored = embeddings_ds.map_batches(
        CosineTopK(query_vec), batch_format="pyarrow", batch_size=4096)
    # per-batch prune to k candidates before the global sort
    def local_topk(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        order = pc.sort_indices(batch, sort_keys=[("cosine_sim", "descending"),
                                                  ("vec_id", "ascending")])
        return batch.take(order[:k])

    pruned = scored.map_batches(local_topk, batch_format="pyarrow")
    return pruned.sort(["cosine_sim", "vec_id"], descending=[True, False]).limit(k)


# --- multi-band hyperplane LSH (near-dup recall path) ------------------------
# One 12-bit table keeps cos>=0.8 pairs together with prob (1-θ/π)^12 ≈ 6% —
# useless recall.  N_TABLES independent 8-bit tables raise that to
# 1-(1-p^8)^N ≈ 75% at cos 0.8 and ≈ 99% at cos 0.95 (true near-dups).
# N_TABLES / BITS_PER_TABLE are the small-corpus FLOORS: ``lsh_params``
# widens the tables with corpus size so expected bucket membership stays
# ~TARGET_BUCKET_ROWS instead of growing O(n) at a fixed width, and scales
# the table count to hold pair recall at the threshold.
N_TABLES = 8
BITS_PER_TABLE = 8
MAX_TABLES = 32
MAX_BITS = 24
TARGET_BUCKET_ROWS = 256    # expected rows per (table, bucket) at scale
MAX_EMB_BUCKET = 1024       # hard in-bucket cap — logged, never silent
_TABLE_PLANES: dict[tuple, np.ndarray] = {}

import logging

logger = logging.getLogger(__name__)


def lsh_params(n_vectors: int, threshold: float = 0.8,
               recall_target: float = 0.75) -> tuple[int, int]:
    """(bits, tables) for the multi-band hyperplane LSH, scaled to corpus
    size.  bits grows with log2(n / TARGET_BUCKET_ROWS) so the expected
    bucket membership — and therefore the in-bucket O(m^2) exact-cosine
    cost and the size of the single task a bucket lands in — stays bounded
    as n grows (the fixed-width failure mode: 2^8 buckets forever means
    O(n) members per bucket).  tables then compensates for the per-table
    recall loss p^bits (p = 1 - acos(threshold)/pi) so
    1-(1-p^bits)^tables >= recall_target, capped at MAX_TABLES with a
    logged warning giving the achieved recall estimate."""
    bits = max(BITS_PER_TABLE, int(np.ceil(np.log2(
        max(n_vectors, 1) / TARGET_BUCKET_ROWS))) if n_vectors > 0 else 0)
    bits = min(bits, MAX_BITS)
    p = 1.0 - np.arccos(min(max(threshold, -1.0), 1.0)) / np.pi
    p_table = p ** bits
    if p_table >= 1.0:
        tables = 1
    else:
        tables = int(np.ceil(np.log(max(1e-12, 1.0 - recall_target))
                             / np.log(1.0 - p_table)))
    tables = max(N_TABLES, tables)
    if tables > MAX_TABLES:
        achieved = 1.0 - (1.0 - p_table) ** MAX_TABLES
        logger.warning(
            "embedding LSH: recall target %.2f at threshold %.2f needs %d "
            "%d-bit tables; capped at MAX_TABLES=%d (estimated recall %.2f)",
            recall_target, threshold, tables, bits, MAX_TABLES, achieved)
        tables = MAX_TABLES
    return bits, tables


def _table_planes(dim: int, tables: int = N_TABLES,
                  bits: int = BITS_PER_TABLE,
                  plane_mode: str = "seeded") -> np.ndarray:
    """``seeded``: RandomState gaussian planes (the production default —
    the 1-theta/pi collision math is exact for spherical directions).
    ``md5``: coordinate (t, b, i) = md5-uniform in [-1, 1) — slightly
    non-spherical, but a pure function of the key string that the DuckDB
    oracle of ``embedding_near_dups_explicit`` recomputes bit-for-bit
    (sign-LSH only consumes projection signs, so the recall loss is
    marginal; the in-bucket check is exact cosine either way)."""
    key = (dim, tables, bits, plane_mode)
    if key not in _TABLE_PLANES:
        if plane_mode == "md5":
            import hashlib

            flat = np.empty(tables * bits * dim, dtype=np.float64)
            pos = 0
            for t in range(tables):
                for b in range(bits):
                    for i in range(dim):
                        h = int.from_bytes(hashlib.md5(
                            f"lsh:{t}:{b}:{i}".encode()).digest()[:8],
                            "big")
                        flat[pos] = (h / (1 << 64)) * 2.0 - 1.0
                        pos += 1
            _TABLE_PLANES[key] = flat.reshape(tables, bits, dim)
        else:
            _TABLE_PLANES[key] = np.random.RandomState(
                0xD00D).standard_normal((tables, bits, dim))
    return _TABLE_PLANES[key]


def add_lsh_bands(batch: pa.Table, tables: int = N_TABLES,
                  bits: int = BITS_PER_TABLE,
                  plane_mode: str = "seeded") -> pa.Table:
    """Explode each vector to `tables` (table, bucket) rows, embedding
    carried along for in-bucket exact verification."""
    emb = _embedding_matrix(batch)
    if emb.size == 0:
        return pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.int32()),
             pa.array([], pa.int32()),
             pa.array([], batch.schema.field("embedding").type)],
            names=["vec_id", "table", "bucket", "embedding"])
    planes = _table_planes(emb.shape[1], tables, bits, plane_mode)
    vec_ids = batch.column("vec_id")
    out_vid, out_tbl, out_bkt, out_emb = [], [], [], []
    weights = 1 << np.arange(bits, dtype=np.int64)
    proj = np.einsum("nd,tbd->tnb", emb, planes)      # (T, n, B)
    buckets = (proj > 0) @ weights                     # (T, n)
    emb_col = batch.column("embedding")
    n = emb.shape[0]
    for t in range(tables):
        out_vid.append(vec_ids)
        out_tbl.append(pa.array(np.full(n, t, dtype=np.int32), pa.int32()))
        out_bkt.append(pa.array(buckets[t].astype(np.int32), pa.int32()))
        out_emb.append(emb_col)
    return pa.Table.from_arrays(
        [pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray)
                           else a for a in out_vid]),
         pa.concat_arrays(out_tbl),
         pa.concat_arrays(out_bkt),
         pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray)
                           else a for a in out_emb])],
        names=["vec_id", "table", "bucket", "embedding"])


#: schema of the exact-verified embedding pair stream
_EMB_PAIRS = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                        ("cosine_sim", pa.float64())])


def _emb_block_pairs(batch: pa.Table, threshold: float) -> pa.Table:
    """Whole (table, bucket) buckets -> every in-bucket pair (a < b by
    vec_id) with cosine >= ``threshold``.  The block's embedding matrix is
    read ONCE zero-copy and normalized ONCE; each bucket's exact-cosine
    check is a sliced GEMM + triu threshold mask (no per-pair Python).
    Buckets beyond MAX_EMB_BUCKET are capped to their first vec_ids and
    logged."""
    ids = batch.column("vec_id").to_numpy()
    emb = normalize(_embedding_matrix(batch))
    members, truncated = bucket_members(batch, ["table", "bucket"],
                                        "vec_id", MAX_EMB_BUCKET)
    if truncated:
        logger.warning(
            "embedding LSH capped %d bucket(s) at MAX_EMB_BUCKET=%d "
            "(original sizes: %s) — pairs beyond the cap were dropped",
            len(truncated), MAX_EMB_BUCKET,
            sorted(truncated, reverse=True)[:10])
    out_a, out_b, out_s = [], [], []
    for idx in members:
        g_ids = ids[idx]
        g_emb = emb[idx]
        sims = g_emb @ g_emb.T
        iu, ju = np.triu_indices(len(g_ids), 1)
        keep = sims[iu, ju] >= threshold
        out_a.append(g_ids[iu[keep]])
        out_b.append(g_ids[ju[keep]])
        out_s.append(np_round_away(sims[iu[keep], ju[keep]], 4))
    return pa.Table.from_arrays(
        [np.concatenate(out_a) if out_a else np.array([], np.int64),
         np.concatenate(out_b) if out_b else np.array([], np.int64),
         np.concatenate(out_s) if out_s else np.array([], np.float64)],
        schema=_EMB_PAIRS)


def embedding_near_dups(embeddings_ds, threshold: float = 0.8,
                        n_vectors: int | None = None,
                        bits: int | None = None, tables: int | None = None,
                        plane_mode: str = "seeded"):
    """Exact-verified near-dup pairs (a < b, cosine >= threshold) via
    multi-band hyperplane LSH: explode to (table, bucket) rows -> ONE sort
    by bucket -> vectorized per-block pair generation (sliced GEMM + triu
    mask over a zero-copy embedding matrix) -> dedup pairs across tables.

    Scale shape: table width comes from ``lsh_params`` — bits grows with
    corpus size so expected bucket membership stays ~TARGET_BUCKET_ROWS
    (not O(n) as with a fixed 2^8 table), buckets beyond MAX_EMB_BUCKET
    are capped and logged, and the bucket exchange is the one
    ``blockgroup.sorted_map_groups``."""
    if bits is None or tables is None:
        n = n_vectors if n_vectors is not None else embeddings_ds.count()
        abits, atables = lsh_params(n, threshold)
        bits = abits if bits is None else bits
        tables = atables if tables is None else tables

    def _bands(batch: pa.Table) -> pa.Table:
        return add_lsh_bands(batch, tables=tables, bits=bits,
                             plane_mode=plane_mode)

    def _pairs(batch: pa.Table) -> pa.Table:
        return _emb_block_pairs(batch, threshold)

    from .groupagg import auto_hash_aggregate

    pairs = sorted_map_groups(
        embeddings_ds.map_batches(_bands, batch_format="pyarrow"),
        ["table", "bucket"], block_fn=_pairs, schema=_EMB_PAIRS,
        arrow_blocks=True)
    # cross-table pair dedup: up to `tables`x duplication collapsed by the
    # per-block pre-combine; sort skipped at small observed pair counts
    return auto_hash_aggregate(pairs, ["a", "b"], [("cosine_sim", "max")])


# --- IVF (inverted-file) approximate top-k -----------------------------------

IVF_NLIST = 64       # centroids
IVF_NPROBE = 8       # probed cells per query
IVF_KMEANS_ITERS = 5


def train_centroids(sample: np.ndarray, nlist: int = IVF_NLIST,
                    iters: int = IVF_KMEANS_ITERS) -> np.ndarray:
    """Deterministic mini k-means on a driver-side sample (the classic IVF
    training step: sample is small; the full assign/search stays
    distributed).  Seeded init, normalized centroids (spherical k-means,
    cosine metric)."""
    sample = normalize(np.asarray(sample, dtype=np.float64))
    rng = np.random.RandomState(0x5EED)
    nlist = min(nlist, len(sample))
    centroids = sample[rng.choice(len(sample), size=nlist, replace=False)]
    for _ in range(iters):
        assign = (sample @ centroids.T).argmax(axis=1)
        for c in range(nlist):
            members = sample[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        centroids = normalize(centroids)
    return centroids


def ivf_top_k(embeddings_ds, query_vec, k: int = 10,
              nlist: int = IVF_NLIST, nprobe: int = IVF_NPROBE,
              train_sample: int = 4096):
    """Approximate top-k: assign every vector to its nearest centroid inside
    map_batches (centroids broadcast via closure — ``ray.put`` for large
    codebooks), score only vectors whose cell is among the query's nprobe
    nearest cells, then exact cosine + global top-k on the surviving ~nprobe/
    nlist fraction.  The scale path for similarity_topk's brute force."""
    sample_rows = embeddings_ds.limit(train_sample).take_all()
    sample = np.asarray([r["embedding"] for r in sample_rows], dtype=np.float64)
    centroids = train_centroids(sample, nlist)
    q = np.asarray(query_vec, dtype=np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    probe_cells = set(np.argsort(-(centroids @ q))[:nprobe].tolist())

    from ..functions.fputil import np_round_away

    def probe_and_score(batch: pa.Table) -> pa.Table:
        emb = normalize(_embedding_matrix(batch))
        if emb.size == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.float64())],
                names=["vec_id", "cosine_sim"])
        cells = (emb @ centroids.T).argmax(axis=1)
        mask = np.isin(cells, list(probe_cells))
        sims = np_round_away(emb[mask] @ q, 6)
        vec_ids = np.asarray(batch.column("vec_id").to_pylist())[mask]
        return pa.Table.from_arrays(
            [pa.array(vec_ids, pa.int64()), pa.array(sims, pa.float64())],
            names=["vec_id", "cosine_sim"])

    def local_topk(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        order = pc.sort_indices(batch, sort_keys=[("cosine_sim", "descending"),
                                                  ("vec_id", "ascending")])
        return batch.take(order[:k])

    return (embeddings_ds.map_batches(probe_and_score, batch_format="pyarrow")
            .map_batches(local_topk, batch_format="pyarrow")
            .sort(["cosine_sim", "vec_id"], descending=[True, False]).limit(k))


def embedding_norms(batch: pa.Table) -> pa.Table:
    emb = _embedding_matrix(batch)
    norms = np_round_away(np.linalg.norm(emb, axis=1), 6)
    return pa.Table.from_arrays(
        [batch.column("vec_id"), batch.column("label"),
         pa.array(norms, pa.float64())],
        names=["vec_id", "label", "l2_norm"])


# ---------------------------------------------------------------------------
# Exact all-pairs cosine — the recall-proof complement to embedding_near_dups
# (LSH), mirroring what dedup.similar_pairs_exact is to the MinHash path.

# Broadcast bound: ids (8 B) + 64-dim float64 (512 B) per vector -> ~1 GB at
# the cap.  Beyond it this op is the WRONG tool (O(n^2) FLOPs by definition);
# the scale paths are embedding_near_dups (hyperplane LSH) and semdedup
# (cluster-then-compare) — refuse loudly rather than degrade silently.
MAX_EXACT_VECTORS = 2_000_000


def _broadcast_normalized(embeddings_ds):
    """One (sorted ids, row-normalized float64 matrix) pair for the whole
    dataset, shipped via ``ray.put`` (broadcast once into the object store,
    zero-copy read in every task) — the decontaminate.py small-side pattern."""
    import ray

    ids_parts: list[np.ndarray] = []
    emb_parts: list[np.ndarray] = []
    total = 0
    for batch in embeddings_ds.iter_batches(batch_format="pyarrow",
                                            batch_size=None):
        if batch.num_rows == 0:
            continue
        total += batch.num_rows
        if total > MAX_EXACT_VECTORS:
            raise ValueError(
                f"cosine_pairs_exact: >{MAX_EXACT_VECTORS} vectors — the "
                "exact all-pairs matrix no longer fits a broadcast; use "
                "embedding_near_dups (LSH) or semdedup instead")
        ids_parts.append(np.asarray(batch.column("vec_id"), dtype=np.int64))
        emb_parts.append(normalize(_embedding_matrix(batch)))
    if not ids_parts:
        return ray.put((np.zeros(0, dtype=np.int64),
                        np.zeros((0, 0), dtype=np.float64)))
    ids = np.concatenate(ids_parts)
    mat = np.vstack(emb_parts)
    order = np.argsort(ids)    # deterministic layout regardless of block order
    return ray.put((ids[order], np.ascontiguousarray(mat[order])))


def cosine_pairs_exact(embeddings_ds, threshold: float = 0.45,
                       round_digits: int = 6):
    """EXACT cosine-similarity pairs (id_a < id_b, cos >= threshold) over the
    full embedding table: the whole normalized matrix is broadcast once, and
    each batch does ONE float64 GEMM against it plus a vectorized
    threshold-and-strict-upper-triangle mask — no per-pair Python, no
    shuffle.  Deliberately quadratic (it is the exactness oracle for the LSH
    path); MAX_EXACT_VECTORS bounds the broadcast loudly.  Cosines are
    computed on individually normalized float64 rows, matching DuckDB's
    ``list_cosine_similarity`` on DOUBLE[] to ~1e-15."""
    import ray

    # materialize once: the broadcast pass and the pair pass both consume the
    # input, and a nondeterministic upstream must not make them disagree
    # (same rationale as joins.py's left-side materialization)
    src = embeddings_ds.materialize()
    ref = _broadcast_normalized(src)

    def pairs(batch: pa.Table) -> pa.Table:
        ids_all, mat = ray.get(ref)    # zero-copy object-store read
        ids_b = np.asarray(batch.column("vec_id"), dtype=np.int64)
        emb = normalize(_embedding_matrix(batch))
        if len(ids_b) == 0 or len(ids_all) == 0:
            cos = np.zeros((len(ids_b), len(ids_all)))
        else:
            cos = emb @ mat.T
        keep = (cos >= threshold) & (ids_b[:, None] < ids_all[None, :])
        r, c = np.nonzero(keep)
        return pa.Table.from_arrays(
            [pa.array(ids_b[r], pa.int64()),
             pa.array(ids_all[c], pa.int64()),
             pa.array(np_round_away(cos[r, c], round_digits), pa.float64())],
            names=["id_a", "id_b", "cos"])

    return src.map_batches(pairs, batch_format="pyarrow")


def knn_graph(embeddings_ds, k: int = 5, round_digits: int = 4):
    """k-nearest-neighbor graph by cosine over the whole embedding table —
    the all-pairs companion to brute_force_top_k (one query) and the
    substrate for graph-based curation (SemDeDup-style cluster pruning,
    kNN-LM retrieval, label propagation over the corpus).

    Brute-force baseline shape: the sorted, normalized corpus matrix is
    broadcast ONCE (``ray.put``, zero-copy read per task), each batch does
    ONE float64 GEMM against it, and the per-row top-k is a fully
    vectorized composite-integer argsort — ranking happens on the ROUNDED
    similarity (tfidf convention) with dst-id ascending tie-break, so a
    row_number() SQL oracle matches bit-for-bit.  Deliberately quadratic:
    MAX_EXACT_VECTORS refuses loudly beyond the broadcast bound, where the
    scale paths are IVF cells (ivf_top_k per centroid cell) or hyperplane
    LSH buckets (embedding_near_dups) with in-bucket exact rerank.

    Output: (src, dst, rank 1..k, cosine_sim) — n*k rows.
    """
    import ray

    src_ds = embeddings_ds.materialize()
    ref = _broadcast_normalized(src_ds)
    scale = 10 ** round_digits

    def topk(batch: pa.Table) -> pa.Table:
        empty = pa.schema([("src", pa.int64()), ("dst", pa.int64()),
                           ("rank", pa.int64()),
                           ("cosine_sim", pa.float64())]).empty_table()
        ids_all, mat = ray.get(ref)    # zero-copy object-store read
        n = len(ids_all)
        ids_b = np.asarray(batch.column("vec_id"), dtype=np.int64)
        if len(ids_b) == 0 or n <= 1:
            return empty
        emb = normalize(_embedding_matrix(batch))
        cos = np_round_away(emb @ mat.T, round_digits)
        # composite int64 sort key: (scaled -sim) major, dst position minor
        # (ids_all is sorted ascending, so position order == id order);
        # self-pairs get the max key and can never enter the top-k.
        sim_i = np.rint(cos * scale).astype(np.int64)
        key = (np.int64(scale) - sim_i) * np.int64(n) \
            + np.arange(n, dtype=np.int64)[None, :]
        key[ids_b[:, None] == ids_all[None, :]] = np.iinfo(np.int64).max
        kk = min(k, n - 1)
        nbr = np.argsort(key, axis=1, kind="stable")[:, :kk]
        rows = np.repeat(ids_b, kk)
        cols = nbr.ravel()
        return pa.Table.from_arrays(
            [pa.array(rows, pa.int64()),
             pa.array(ids_all[cols], pa.int64()),
             pa.array(np.tile(np.arange(1, kk + 1, dtype=np.int64),
                              len(ids_b))),
             pa.array(cos[np.repeat(np.arange(len(ids_b)), kk), cols],
                      pa.float64())],
            names=["src", "dst", "rank", "cosine_sim"])

    return src_ds.map_batches(topk, batch_format="pyarrow")


# --- triplet mining (metric-learning training data) --------------------------

def hard_negative_mining(embeddings_ds, *, anchor_mod: int = 100,
                         round_digits: int = 6):
    """Hard positive/negative mining over a labeled embedding table — the
    step that turns raw (vector, label) data into triplet/contrastive
    training examples (Schroff et al. 2015's semi-hard mining, batch-all
    variant): for every ANCHOR (``vec_id % anchor_mod == 0``, a small
    deterministic probe set), find among all OTHER vectors

    - the **hardest positive**: same label, MINIMUM cosine (the pair a
      metric-learning loss must pull together hardest), and
    - the **hardest negative**: different label, MAXIMUM cosine (the pair
      it must push apart hardest),

    plus ``margin = hard_pos_sim - hard_neg_sim`` (negative margin =
    an active triplet).

    Engine shape: anchors are materialized once (|corpus| / anchor_mod
    rows) and broadcast via ``ray.put``; each batch does ONE float64 GEMM
    (n x A) and emits at most TWO candidate rows per anchor (its block-
    local best positive and best negative) — lexicographic (sim, id) min
    is associative, so the per-block prune composes exactly with the final
    per-anchor reduce; the exchange carries ``2 x A x n_blocks`` rows,
    never pairs.  Cosines are rounded half-away to ``round_digits`` BEFORE
    selection so the DuckDB mirror (``round(list_cosine_similarity(..),
    6)`` + ``row_number`` tie-broken by cand_id) replays the argmin/argmax
    decisions exactly.

    Returns a Dataset (anchor_id, anchor_label, hard_pos_id,
    hard_pos_sim, hard_neg_id, hard_neg_sim, margin) with one row per
    anchor that has at least one positive AND one negative candidate.
    """
    import pandas as pd
    import ray

    from ..functions.fputil import np_round_away as _rnd

    src = embeddings_ds.materialize()

    def pick_anchor(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("vec_id"), dtype=np.int64)
        return batch.filter(pa.array(ids % anchor_mod == 0))

    anch_parts = list(src.map_batches(pick_anchor, batch_format="pyarrow")
                      .iter_batches(batch_format="pyarrow"))
    anch = pa.concat_tables(anch_parts) if anch_parts else None
    if anch is None or anch.num_rows == 0:
        raise ValueError(
            f"hard_negative_mining: no anchors (vec_id % {anchor_mod} == 0)")
    order = np.argsort(np.asarray(anch.column("vec_id"), dtype=np.int64))
    anch = anch.take(pa.array(order))
    a_ids = np.asarray(anch.column("vec_id"), dtype=np.int64)
    a_labels = np.asarray(anch.column("label")).astype(np.int64)
    q_mat = normalize(_embedding_matrix(anch))
    ref = ray.put((a_ids, a_labels, q_mat))

    cand_schema = pa.schema([("anchor_id", pa.int64()),
                             ("anchor_label", pa.int64()),
                             ("kind", pa.string()),
                             ("cand_id", pa.int64()),
                             ("sim", pa.float64())])

    def block_candidates(batch: pa.Table) -> pa.Table:
        a_ids, a_labels, q_mat = ray.get(ref)
        c_ids = np.asarray(batch.column("vec_id"), dtype=np.int64)
        if len(c_ids) == 0:
            return cand_schema.empty_table()
        c_lab = np.asarray(batch.column("label")).astype(np.int64)
        sims = _rnd(normalize(_embedding_matrix(batch)) @ q_mat.T,
                    round_digits)                       # n x A
        out: dict[str, list] = {k: [] for k in
                                ("anchor_id", "anchor_label", "kind",
                                 "cand_id", "sim")}
        for a in range(len(a_ids)):
            s = sims[:, a]
            not_self = c_ids != a_ids[a]
            for kind, mask, major in (
                    ("pos", not_self & (c_lab == a_labels[a]), s),
                    ("neg", not_self & (c_lab != a_labels[a]), -s)):
                if mask.any():
                    mi = np.flatnonzero(mask)
                    best = mi[np.lexsort((c_ids[mi], major[mi]))[0]]
                    out["anchor_id"].append(a_ids[a])
                    out["anchor_label"].append(a_labels[a])
                    out["kind"].append(kind)
                    out["cand_id"].append(c_ids[best])
                    out["sim"].append(s[best])
        return pa.Table.from_arrays(
            [pa.array(out["anchor_id"], pa.int64()),
             pa.array(out["anchor_label"], pa.int64()),
             pa.array(out["kind"], pa.string()),
             pa.array(out["cand_id"], pa.int64()),
             pa.array(out["sim"], pa.float64())],
            names=[f.name for f in cand_schema])

    cands = src.map_batches(block_candidates, batch_format="pyarrow")

    out_schema = pa.schema([("anchor_id", pa.int64()),
                            ("anchor_label", pa.int64()),
                            ("hard_pos_id", pa.int64()),
                            ("hard_pos_sim", pa.float64()),
                            ("hard_neg_id", pa.int64()),
                            ("hard_neg_sim", pa.float64()),
                            ("margin", pa.float64())])

    def reduce_anchor(df: pd.DataFrame) -> pd.DataFrame:
        pos = df[df["kind"] == "pos"]
        neg = df[df["kind"] == "neg"]
        if pos.empty or neg.empty:
            return pd.DataFrame({f.name: [] for f in out_schema})
        p = pos.sort_values(["sim", "cand_id"],
                            ascending=[True, True]).iloc[0]
        n = neg.sort_values(["sim", "cand_id"],
                            ascending=[False, True]).iloc[0]
        margin = float(_rnd(np.array([p["sim"] - n["sim"]]),
                            round_digits)[0])
        return pd.DataFrame({
            "anchor_id": [int(df["anchor_id"].iloc[0])],
            "anchor_label": [int(df["anchor_label"].iloc[0])],
            "hard_pos_id": [int(p["cand_id"])],
            "hard_pos_sim": [float(p["sim"])],
            "hard_neg_id": [int(n["cand_id"])],
            "hard_neg_sim": [float(n["sim"])],
            "margin": [margin]})

    return sorted_map_groups(cands, ["anchor_id"], reduce_anchor,
                             schema=out_schema)


def neighborhood_mean_features(embeddings_ds, k: int = 5, hops: int = 2,
                               round_digits: int = 6):
    """GraphSAGE-style mean aggregation over the kNN graph — the feature-
    engineering step of graph-ML training data: hop 1 replaces every
    node's feature vector with the mean of its k nearest neighbors'
    embeddings, hop 2 with the mean of THEIR hop-1 features, etc.

    Distributed shape (the standard GNN gather/scatter): features live as
    (vec_id, dim, val) rows; each hop is ONE keyed join (edge.dst ->
    feature rows, the gather — duplicate-key multiplication IS the
    semantics) followed by ONE grouped mean per (src, dim) (the scatter),
    both on the audited exchange primitives.  Each hop's output is rounded
    to ``round_digits`` so a fixed-round SQL mirror matches bit-for-bit.

    Output: (vec_id, dim, feat) — dim 0-based; nodes with no outgoing kNN
    edge (impossible for k >= 1 on a 2+-node table) would simply be absent.
    """
    import pyarrow.compute as pc

    from .groupagg import auto_hash_aggregate
    from .joins import lookup_join

    edges = (knn_graph(embeddings_ds, k=k)
             .select_columns(["src", "dst"]).materialize())

    def explode(batch: pa.Table) -> pa.Table:
        mat = _embedding_matrix(batch)
        ids = np.asarray(batch.column("vec_id"), dtype=np.int64)
        n, dim = mat.shape if mat.size else (0, 0)
        return pa.Table.from_arrays(
            [pa.array(np.repeat(ids, dim), pa.int64()),
             pa.array(np.tile(np.arange(dim, dtype=np.int64), n)),
             pa.array(mat.ravel(), pa.float64())],
            names=["vec_id", "dim", "val"])

    # materialized so lookup_join's observed-size dispatch can broadcast
    # the (n_vectors x dim) feature rows when they fit (they did not as a
    # lazy dataset, forcing the sorted-exchange path every hop — measured
    # 10.6 s -> 4.6 s at sf0.1); beyond the bound the sorted path engages
    # automatically
    feats = embeddings_ds.map_batches(
        explode, batch_format="pyarrow").materialize()
    for _ in range(hops):
        gathered = lookup_join(edges, feats, left_key="dst",
                               right_key="vec_id", payload=["dim", "val"],
                               suffix="_f", how="inner")

        def with_count(batch: pa.Table) -> pa.Table:
            return pa.Table.from_arrays(
                [batch.column("src"), batch.column("dim_f"),
                 batch.column("val_f"),
                 pa.array(np.ones(batch.num_rows, dtype=np.int64))],
                names=["vec_id", "dim", "val", "n"])

        summed = auto_hash_aggregate(
            gathered.map_batches(with_count, batch_format="pyarrow"),
            ["vec_id", "dim"], [("val", "sum"), ("n", "sum")])

        def mean_round(batch: pa.Table) -> pa.Table:
            m = (batch.column("val").to_numpy(zero_copy_only=False)
                 / batch.column("n").to_numpy(zero_copy_only=False))
            return pa.Table.from_arrays(
                [batch.column("vec_id"), batch.column("dim"),
                 pa.array(np_round_away(m, round_digits), pa.float64())],
                names=["vec_id", "dim", "val"])

        feats = summed.map_batches(
            mean_round, batch_format="pyarrow").materialize()

    return feats.map_batches(
        lambda b: b.rename_columns(["vec_id", "dim", "feat"]),
        batch_format="pyarrow")
