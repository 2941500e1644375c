"""SemDeDup-style semantic deduplication over an embedding column.

Pipeline (Abbas et al. 2023, "SemDeDup: Data-efficient learning at
web-scale through semantic deduplication" — public arXiv method):

1. cluster the corpus with spherical k-means (``stages/kmeans.py`` —
   per-round exchange O(blocks x k), centroids the only driver state),
2. WITHIN each cluster, find exact-cosine pairs >= threshold and keep
   one representative per greedy min-id rule (a vector is dropped iff it
   has cosine >= threshold with a LOWER-id vector in its cluster).

Step 2 reuses the embedding-LSH pair generator
(``similarity._emb_block_pairs``): cluster ids play the bucket role —
one sort by cluster (``blockgroup.sorted_map_groups``), vectorized
sliced-GEMM pair generation per block of whole clusters, oversize
clusters capped at MAX_EMB_BUCKET and LOGGED.

Scale shape: cluster population is O(n / n_clusters), so like the
original paper n_clusters must GROW with the corpus (they use 50k
clusters for LAION-440M); ``semdedup`` scales it as
n / TARGET_CLUSTER_ROWS by default, mirroring ``lsh_params``.  Unlike
LSH near-dup (recall-bounded candidate generation), SemDeDup is
RECALL-LOSSY BY DESIGN across cluster boundaries — that is the method's
documented trade (near-dups split by the partition are missed), which
is why it is registered as a separate operator beside
``embedding_near_dups`` rather than replacing it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

TARGET_CLUSTER_ROWS = 256   # expected rows per cluster at scale


def semdedup(embeddings_ds, *, threshold: float = 0.95,
             n_clusters: int | None = None, n_vectors: int | None = None,
             kmeans_iters: int = 4, id_col: str = "vec_id"):
    """embeddings -> (vec_id, cluster, keep) rows; keep=False iff the
    vector has cosine >= threshold with a lower-id vector in the same
    k-means cluster (the greedy min-id survivor rule).

    ``n_clusters`` defaults to n / TARGET_CLUSTER_ROWS (>= 16) so the
    in-cluster O(m^2) exact-cosine stays bounded as the corpus grows.
    """
    from .blockgroup import sorted_map_groups
    from .groupagg import auto_hash_aggregate
    from .joins import lookup_join
    from .kmeans import kmeans_embeddings
    from .similarity import _EMB_PAIRS, _emb_block_pairs

    if n_clusters is None:
        n = n_vectors if n_vectors is not None else embeddings_ds.count()
        n_clusters = max(16, int(np.ceil(n / TARGET_CLUSTER_ROWS)))

    assigned, centroids = kmeans_embeddings(
        embeddings_ds, n_clusters=n_clusters, iters=kmeans_iters,
        id_col=id_col)
    assigned = assigned.materialize()   # (id, cluster, cosine) — one row/vec
    if centroids.size == 0:
        return assigned.map_batches(
            lambda t: pa.table({id_col: pa.array([], pa.int64()),
                                "cluster": pa.array([], pa.int64()),
                                "keep": pa.array([], pa.bool_())}),
            batch_format="pyarrow")

    # reuse the (table, bucket)-sorted pair generator with cluster as the
    # bucket: assignment recomputed inline from the broadcast centroids
    # (cheap GEMM) — no embedding-carrying join needed.
    final = centroids

    def to_bucket_rows(batch: pa.Table) -> pa.Table:
        from .similarity import _embedding_matrix, normalize

        if batch.num_rows == 0:
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "table": pa.array([], pa.int32()),
                "bucket": pa.array([], pa.int32()),
                "embedding": pa.array(
                    [], batch.schema.field("embedding").type)})
        emb = normalize(_embedding_matrix(batch))
        assign = (emb @ final.T).argmax(axis=1).astype(np.int32)
        return pa.Table.from_arrays(
            [batch.column(id_col).cast(pa.int64()).combine_chunks(),
             pa.array(np.zeros(len(assign), np.int32), pa.int32()),
             pa.array(assign, pa.int32()),
             batch.column("embedding").combine_chunks()],
            names=["vec_id", "table", "bucket", "embedding"])

    def _pairs(batch: pa.Table) -> pa.Table:
        return _emb_block_pairs(batch, threshold)

    pairs = sorted_map_groups(
        embeddings_ds.map_batches(to_bucket_rows, batch_format="pyarrow"),
        ["table", "bucket"], block_fn=_pairs, schema=_EMB_PAIRS,
        arrow_blocks=True)
    # drop set = distinct b over pairs (a < b by construction): exactly
    # the vectors with a lower-id near-dup in their cluster
    drops = auto_hash_aggregate(
        pairs.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("b"), t.column("a")], names=["b", "a"]),
            batch_format="pyarrow"),
        ["b"], [("a", "min")])

    if drops.count() == 0:
        # no in-cluster near-dups at this threshold: everything survives
        # (an all-empty Dataset can lose its schema, which the equijoin
        # rejects — short-circuit instead)
        def keep_all(t: pa.Table) -> pa.Table:
            return pa.Table.from_arrays(
                [t.column(id_col),
                 t.column("cluster").cast(pa.int64()).combine_chunks(),
                 pa.array(np.ones(len(t), dtype=bool))],
                names=[id_col, "cluster", "keep"])

        return assigned.map_batches(keep_all, batch_format="pyarrow")

    marked = lookup_join(assigned, drops, left_key=id_col, right_key="b",
                         payload=["a"], suffix="_dup", how="left")

    def mark(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.Table.from_arrays(
            [t.column(id_col),
             t.column("cluster").cast(pa.int64()).combine_chunks(),
             pc.is_null(t.column("a_dup"))],
            names=[id_col, "cluster", "keep"])

    return marked.map_batches(mark, batch_format="pyarrow")
