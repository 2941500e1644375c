"""Connected components over a pair stream — duplicate-CLUSTER resolution.

Pairwise near-dup output (``jaccard_near_dups`` / ``simhash_near_dups`` /
``embedding_near_dups``) is not what a curation job keeps: transitive
duplicates (a~b, b~c) must collapse to ONE representative per connected
component, or chained duplicates survive pairwise dropping.  The reference
has no analog (it never dedups); this is the standard web-scale dedup
closer (the union-find pass of MinHash dedup pipelines), expressed in
Dataset operators.

Algorithm: minimum-label propagation with pointer jumping —

    labels(v)   = min(v, neighbors(v))            seed
    per round:  labels(v) = min( labels(v),
                                 min_{u in N(v)} labels(u),   # neighbor hop
                                 labels(labels(v)) )          # pointer jump

The neighbor hop alone converges in O(diameter) rounds; the pointer jump
(label of my label) shortcuts chains exponentially, giving O(log n) rounds
on paths — both are keyed lookup joins + ONE grouped min per round.
Convergence is detected by the scalar sum of labels (labels only ever
decrease, so an unchanged sum is a fixpoint) — no driver-side collection.

Partitioning assumption: like any hash aggregate — a single vertex's
incident edges fit in a worker.
"""

from __future__ import annotations

import logging

import pyarrow as pa

logger = logging.getLogger(__name__)


#: Pair count at or below which the closure runs as a LOCAL union-find on
#: the collected pairs instead of iterative distributed rounds.  The pair
#: stream is already bounded by VERIFIED duplicate pairs (the callers
#: materialize and anti-join it on the same grounds), so collecting it is
#: the standard broadcast-small-side trade — while each distributed round
#: costs a fixed ~10 Dataset ops regardless of size.  Identical outputs
#: are pinned by an A/B pytest.  At 64 B/pair this is ~64 MB of driver
#: heap; read at call time, so setting it to 0 forces the distributed
#: path.
LOCAL_CC_THRESHOLD = 1_000_000


def _local_components(pairs_ds, a: str, b: str):
    """Vectorized min-label propagation over the collected pair set (the
    small-side path): the SAME update rule as the distributed rounds
    (neighbor min + pointer jump), run as numpy passes — returns the same
    (node, component=min-id) Dataset.  Labels only decrease and the
    fixpoint forces every edge's endpoints equal, so the converged label
    is exactly the component's minimum node id."""
    import numpy as np
    import ray.data as rd

    parts = [pa.table({"a": t.column(a).cast(pa.int64()),
                       "b": t.column(b).cast(pa.int64())})
             for t in pairs_ds.iter_batches(batch_format="pyarrow")]
    empty = pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64())})
    tbl = pa.concat_tables(parts or [empty], promote_options="default")
    av = tbl.column("a").to_numpy(zero_copy_only=False)
    bv = tbl.column("b").to_numpy(zero_copy_only=False)
    nodes, inv = np.unique(np.concatenate([av, bv]), return_inverse=True)
    ia, ib = inv[:len(av)], inv[len(av):]
    labels = np.arange(len(nodes))
    while True:
        prev = labels.copy()
        np.minimum.at(labels, ia, prev[ib])   # neighbor hop (both ways)
        np.minimum.at(labels, ib, prev[ia])
        labels = np.minimum(labels, labels[labels])   # pointer jump
        if np.array_equal(labels, prev):
            break
    return rd.from_arrow(pa.table({"node": nodes,
                                   "component": nodes[labels]}))


def _exact_label_sum(labels_ds) -> int:
    """Exact (arbitrary-precision) sum of the int64 ``label`` column — the
    convergence fingerprint of the min-label rounds.  Labels only ever
    DECREASE, so an unchanged exact sum == fixpoint; a plain int64
    ``Dataset.sum`` silently wraps when ids are full-range 63-bit hashes
    (sum(node_ids) >= 2^63 already at 2 nodes), which can terminate the
    rounds early and fragment components.  Splitting each label into three
    22-bit limbs keeps every distributed partial sum exact in int64 up to
    ~2^41 nodes, and the limb sums recombine into one Python int."""
    import numpy as np

    def limbs(t: pa.Table) -> pa.Table:
        v = t.column("label").to_numpy().astype(np.uint64)
        return pa.table({
            "lo": pa.array([int((v & 0x3F_FFFF).sum(dtype=np.uint64))]),
            "mid": pa.array([int(((v >> 22) & 0x3F_FFFF)
                                 .sum(dtype=np.uint64))]),
            "hi": pa.array([int((v >> 44).sum(dtype=np.uint64))])})

    s = labels_ds.map_batches(limbs, batch_format="pyarrow").sum(
        ["hi", "mid", "lo"])
    return (s["sum(hi)"] << 44) + (s["sum(mid)"] << 22) + s["sum(lo)"]


def connected_components(pairs_ds, *, a: str = "a", b: str = "b",
                         max_iters: int = 20):
    """(a, b) pair Dataset -> (node, component) Dataset, component = the
    minimum node id in the node's connected component.

    Only nodes that appear in at least one pair are returned (isolated
    nodes have no duplicate to resolve).  Pair sets at or below
    ``LOCAL_CC_THRESHOLD`` take the local union-find path; larger ones
    run the distributed min-label + pointer-jumping rounds.  Raises RuntimeError if ``max_iters`` rounds
    don't converge (pointer jumping makes that ~2^max_iters-long chains —
    unreachable in practice)."""
    from .groupagg import auto_hash_aggregate
    from .joins import lookup_join

    if LOCAL_CC_THRESHOLD and pairs_ds.count() <= LOCAL_CC_THRESHOLD:
        return _local_components(pairs_ds, a, b)

    # symmetric neighbor stream (src, dst): each edge in both directions
    def sym(batch: pa.Table) -> pa.Table:
        av = batch.column(a).cast(pa.int64()).combine_chunks()
        bv = batch.column(b).cast(pa.int64()).combine_chunks()
        return pa.Table.from_arrays(
            [pa.concat_arrays([av, bv]), pa.concat_arrays([bv, av])],
            names=["src", "dst"])

    endpoints = pairs_ds.map_batches(sym,
                                     batch_format="pyarrow").materialize()

    def _grouped_min(ds):
        """node-keyed min — node cardinality ~ corpus size, so this runs
        through the pre-combined sorted aggregate (the builtin groupby
        reduce is linear in group count)."""
        return auto_hash_aggregate(
            ds.map_batches(lambda t: t.rename_columns(["node", "label"]),
                           batch_format="pyarrow"),
            ["node"], [("label", "min")])

    # seed: labels(v) = min(v, N(v)) — one grouped min over (src, dst) +
    # self rows
    labels = _grouped_min(endpoints.union(endpoints.map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("src"), t.column("src")], names=["src", "dst"]),
        batch_format="pyarrow"))).materialize()

    if labels.count() == 0:
        # explicit empty-input short-circuit (sum() on an empty Dataset
        # returns None; relying on None == None to converge was implicit)
        return labels.map_batches(
            lambda t: t.rename_columns(["node", "component"]),
            batch_format="pyarrow")
    prev_sum = _exact_label_sum(labels)
    for it in range(max_iters):
        # ONE lookup per round answers both rules: a query row (src, dst)
        # asks "attach labels(src), deliver it to dst".
        #   neighbor hop:  (u, v) for every directed edge   -> labels(u) to v
        #   pointer jump:  (labels(v), v) for every node    -> labels(labels(v)) to v
        queries = endpoints.union(labels.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("label"), t.column("node")],
                names=["src", "dst"]), batch_format="pyarrow"))
        cand = lookup_join(queries, labels, left_key="src",
                           right_key="node", payload=["label"],
                           suffix="_q", how="inner") \
            .map_batches(lambda t: pa.Table.from_arrays(
                [t.column("dst"), t.column("label_q")],
                names=["node", "label"]), batch_format="pyarrow")
        labels = _grouped_min(labels.union(cand)).materialize()
        cur_sum = _exact_label_sum(labels)
        if cur_sum == prev_sum:      # labels only decrease -> fixpoint
            logger.info("connected_components converged in %d rounds",
                        it + 1)
            break
        prev_sum = cur_sum
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} rounds")
    return labels.map_batches(
        lambda t: t.rename_columns(["node", "component"]),
        batch_format="pyarrow")


def connected_components_str(pairs_ds, *, a: str = "a", b: str = "b"):
    """Connected components over STRING-keyed pairs (predicates, URLs,
    entity surfaces): ``(a, b)`` string pair Dataset -> ``(node,
    component)`` Dataset where ``component`` is the lexicographically
    MINIMUM string in the node's component — hash-free output, so a SQL
    recursive-CTE oracle mirrors it exactly.

    Internally the rounds run on int64 ids: endpoints are hashed with the
    engine's polars 64-bit key convention (same trade as the semi-join
    fkeys — collision odds ~ n^2 / 2^64 over the VERIFIED pair set, which
    is output-sized), :func:`connected_components` propagates min-hash
    labels, and two output-sized keyed passes map the hash labels back to
    min-string representatives (a grouped min per component + one lookup
    join).  All extra work is O(pairs) — the quadratic part stays inside
    the int rounds."""
    import numpy as np

    from .groupagg import auto_hash_aggregate
    from .joins import lookup_join

    def add_hashes(batch: pa.Table) -> pa.Table:
        import polars as pl

        ha = (pl.from_arrow(batch.column(a).combine_chunks())
              .hash(seed=311).to_numpy().view(np.int64))
        hb = (pl.from_arrow(batch.column(b).combine_chunks())
              .hash(seed=311).to_numpy().view(np.int64))
        # clear the sign bit: the sum-based convergence test needs
        # same-sign ids, and the min-label semantics don't care
        return pa.Table.from_arrays(
            [batch.column(a), batch.column(b),
             pa.array(ha & 0x7FFF_FFFF_FFFF_FFFF, pa.int64()),
             pa.array(hb & 0x7FFF_FFFF_FFFF_FFFF, pa.int64())],
            names=["str_a", "str_b", "ha", "hb"])

    hashed = pairs_ds.map_batches(add_hashes,
                                  batch_format="pyarrow").materialize()
    if hashed.count() == 0:
        import ray.data as rd

        return rd.from_arrow(pa.schema([("node", pa.string()),
                                        ("component", pa.string())])
                             .empty_table())
    comp = connected_components(hashed.select_columns(["ha", "hb"]),
                                a="ha", b="hb")

    # (node_hash, node_str) vocabulary from both endpoint columns
    def endpoints(batch: pa.Table) -> pa.Table:
        sa = batch.column("str_a").combine_chunks()
        sb = batch.column("str_b").combine_chunks()
        return pa.Table.from_arrays(
            [pa.concat_arrays([batch.column("ha").combine_chunks(),
                               batch.column("hb").combine_chunks()]),
             pa.concat_arrays([sa, sb])],
            names=["node", "node_str"])

    vocab = auto_hash_aggregate(
        hashed.map_batches(endpoints, batch_format="pyarrow"),
        ["node"], [("node_str", "min")])

    # read twice (the per-component min, then the join back onto it)
    named = lookup_join(comp, vocab, left_key="node", right_key="node",
                        payload=["node_str"], suffix="_v").materialize()
    reprs = auto_hash_aggregate(
        named.select_columns(["component", "node_str_v"]),
        ["component"], [("node_str_v", "min")])

    out = lookup_join(named, reprs, left_key="component",
                      right_key="component", payload=["node_str_v"],
                      suffix="_r")

    def finish(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch.column("node_str_v"), batch.column("node_str_v_r")],
            names=["node", "component"])

    return out.map_batches(finish, batch_format="pyarrow")


def dedup_cluster_representatives(pairs_ds, *, a: str = "a", b: str = "b"):
    """Pairs -> (node, component, keep) rows: keep=True for the component's
    minimum node id (the survivor), False for every other member — the
    cluster-level drop set pairwise dropping gets wrong on chains."""
    import pyarrow.compute as pc

    comp = connected_components(pairs_ds, a=a, b=b)

    def mark(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch.column("node"), batch.column("component"))
        return batch.append_column("keep", keep)

    return comp.map_batches(mark, batch_format="pyarrow")
