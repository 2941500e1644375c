"""Distributed graph analytics over an edge stream — the KG-consumer
family (the EntGraph-style downstream of this engine's canonical edges;
the reference itself stops at edge extraction, so these are
downstream-capability operators, not ports): PageRank, personalized
(weighted) PageRank, HITS hubs/authorities, k-core / k-truss
decomposition, triangle enumeration, seeded label propagation, and
multi-source BFS distances.  PageRank's join path, documented below, is
the template the others follow.

Per iteration (all Dataset operators — no driver-side graph state):

    contrib(v) = sum over edges (u -> v) of rank(u) * w / outdeg(u)
    rank'(v)   = (1-d)/N + d * (contrib(v) + dangling_mass / N)

- the edge->rank attach is ONE keyed lookup join (``stages/joins``),
- the contrib sum is ONE sorted-block hash aggregate,
- ranks rejoin the full node list with a left lookup (no-in-edge nodes
  keep the base term),
- dangling mass (rank parked on nodes with no out-edges) is a scalar
  aggregate per round.

Convergence: scalar L1 delta between successive rank vectors (computed as
an aggregate, never collected).  Out-degrees are attached once up front.
Partitioning assumption: like any keyed aggregate — one node's incident
edges fit in a worker.

Dispatch: every link-analysis operator here (``pagerank``,
``personalized_pagerank``, ``label_propagation``, ``hits``) has two tiers.
When the materialized edges (plus the seeds) fit ``LOCAL_MAX_BYTES``, the
LOCAL tier (``_local_graph``) pulls them to the driver ONCE, indexes the
nodes with Arrow kernels and runs every round as numpy ``bincount`` passes:
no per-round Ray execution, and one fixed summation order, so the result
is bit-identical across block layouts.  Larger graphs take the join
path above, which pays ~6 executions per round but holds no graph
state on the driver.  On 4 CPUs the local tier beat the old per-round
broadcast tier at every size from 15k to 5M edges (BASELINE.md "One
small-graph tier").
"""

from __future__ import annotations

import pyarrow as pa

#: Byte bound of the local tier: the materialized edges (plus seeds) of a
#: link-analysis operator are pulled to the driver when they fit, else the
#: join path runs.  Read at call time; 0 forces the join path.
LOCAL_MAX_BYTES = 256 * 1024 * 1024
#: Column types of a pulled Dataset that has no block to read them from.
_EMPTY_COLUMNS = {"src": pa.string(), "dst": pa.string(),
                  "w": pa.float64(), "node": pa.string(),
                  "label": pa.int64()}


def _local_graph(edges, seeds=None):
    """The local tier's one pull.  ``None`` when the materialized ``edges``
    (columns ``src``, ``dst`` [, ``w``]) and ``seeds`` (``node``,
    ``label``) exceed ``LOCAL_MAX_BYTES``; else ``(nodes, si, di,
    edge_table, seed_table)``: ``nodes`` the sorted distinct ids of the
    edge endpoints and seed nodes (Arrow ``unique`` +
    ``array_sort_indices``), ``si`` / ``di`` the int64 index in ``nodes``
    of every edge's ``src`` / ``dst`` (``index_in``), in edge order."""
    import pyarrow.compute as pc

    def pull(ds) -> pa.Table:
        parts = list(ds.iter_batches(batch_format="pyarrow"))
        return (pa.concat_tables(parts) if parts
                else pa.schema(_EMPTY_COLUMNS).empty_table())

    pulled = [edges] + ([seeds] if seeds is not None else [])
    if sum(ds.size_bytes() for ds in pulled) > LOCAL_MAX_BYTES:
        return None
    tables = [pull(ds) for ds in pulled]
    src, dst = (tables[0].column(c).combine_chunks() for c in ("src", "dst"))
    ends = [src, dst] + [t.column("node").combine_chunks().cast(src.type)
                         for t in tables[1:]]
    uniq = pc.unique(pa.concat_arrays(ends))
    nodes = uniq.take(pc.array_sort_indices(uniq))
    si, di = (pc.index_in(a, value_set=nodes).cast(pa.int64()).to_numpy()
              for a in (src, dst))
    return nodes, si, di, tables[0], (tables[1] if seeds is not None else None)


def pagerank(edges_ds, *, src: str = "src", dst: str = "dst",
             damping: float = 0.85, iters: int = 8,
             tol: float | None = 1e-6):
    """(src, dst) edge Dataset -> (node, rank) Dataset (ranks sum to ~1).

    ``iters`` bounds the rounds; ``tol`` (L1 delta) stops early when set.
    Deterministic for a given input and parameters; the local tier and
    the join path run the same update rule in float64 (they differ only
    in summation order)."""
    import numpy as np
    import ray.data as rd

    from ray.data.aggregate import Sum

    from .groupagg import sorted_hash_aggregate
    from .joins import lookup_join

    edges = edges_ds.map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column(src).cast(pa.string()), t.column(dst).cast(pa.string())],
            names=["src", "dst"]),
        batch_format="pyarrow").materialize()

    local = _local_graph(edges)
    if local is not None:
        node_arr, si, di, _, _ = local
        size = len(node_arr)
        n_nodes = max(size, 1)          # an empty graph divides nothing
        outdeg = np.bincount(si, minlength=size).astype(np.float64)
        safe_out = np.where(outdeg > 0, outdeg, 1.0)
        dangling_mask = outdeg == 0
        rank = np.full(size, 1.0 / n_nodes)
        base = (1.0 - damping) / n_nodes
        for _ in range(iters):
            dangling = float(rank[dangling_mask].sum())
            contrib = np.bincount(di, weights=(rank / safe_out)[si],
                                  minlength=size)
            new = base + damping * (contrib + dangling / n_nodes)
            l1 = float(np.abs(new - rank).sum())
            rank = new
            if tol is not None and l1 < tol:
                break
        return rd.from_arrow(pa.Table.from_arrays(
            [node_arr, pa.array(rank, pa.float64())], names=["node", "rank"]))

    # node list = distinct src ∪ dst; out-degree per src
    def endpoints(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pa.concat_arrays([t.column("src").combine_chunks(),
                               t.column("dst").combine_chunks()])],
            names=["node"])

    def ones(t: pa.Table, name: str) -> pa.Table:
        return t.append_column(
            name, pa.array(np.ones(t.num_rows, dtype=np.int64)))

    nodes = sorted_hash_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow")
        .map_batches(lambda t: ones(t, "n"), batch_format="pyarrow"),
        ["node"], [("n", "sum")]).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        return nodes.map_batches(
            lambda t: pa.schema([("node", pa.string()),
                                 ("rank", pa.float64())]).empty_table(),
            batch_format="pyarrow")
    # read twice: the join fetches its schema, then joins it
    outdeg = sorted_hash_aggregate(
        edges.map_batches(
            lambda t: ones(t.select(["src"]), "outdeg"),
            batch_format="pyarrow"),
        ["src"], [("outdeg", "sum")]).materialize()

    # ranks table: (node, outdeg [0 = dangling], rank)
    ranks = lookup_join(nodes, outdeg, left_key="node", right_key="src",
                        payload=["outdeg"], suffix="", how="left") \
        .map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("node"),
                 t.column("outdeg").fill_null(0).cast(pa.float64()),
                 pa.array(np.full(t.num_rows, 1.0 / n_nodes))],
                names=["node", "outdeg", "rank"]),
            batch_format="pyarrow").materialize()

    base = (1.0 - damping) / n_nodes
    # coalesce the rank table to a bounded block count per round: the
    # carrier.union(contrib) pattern adds block LISTS, so without this
    # the per-round fixed cost grows geometrically with the iteration
    # count (measured on the hits() sibling: 1.9 s -> 143 s per
    # half-round by round 4).  Split/coalesce only, not a shuffle.
    rank_blocks = max(1, edges.num_blocks())
    for _ in range(iters):
        dangling = ranks.filter(expr="outdeg == 0.0") \
            .aggregate(Sum("rank", alias_name="s"))["s"] or 0.0
        add = base + damping * dangling / n_nodes

        # per-edge contributions, keyed by dst (one lookup join)
        contrib_rows = lookup_join(
            edges, ranks, left_key="src", right_key="node",
            payload=["rank", "outdeg"], suffix="_s", how="inner") \
            .map_batches(
                lambda t: pa.Table.from_arrays(
                    [t.column("dst"),
                     pa.array(np.zeros(t.num_rows)),          # outdeg slot
                     pa.array(np.zeros(t.num_rows)),          # old-rank slot
                     pa.array(np.asarray(t.column("rank_s"),
                                         dtype=np.float64)
                              / np.asarray(t.column("outdeg_s"),
                                           dtype=np.float64))],
                    names=["node", "outdeg", "old_rank", "contrib"]),
                batch_format="pyarrow")
        # carrier rows for EVERY node (so no-in-edge nodes keep the base
        # term); fused with the contribution sum in ONE sorted aggregate —
        # outdeg/old_rank ride along via max (zero on contribution rows)
        carrier = ranks.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("node"), t.column("outdeg"), t.column("rank"),
                 pa.array(np.zeros(t.num_rows))],
                names=["node", "outdeg", "old_rank", "contrib"]),
            batch_format="pyarrow")
        merged = sorted_hash_aggregate(
            carrier.union(contrib_rows), ["node"],
            [("outdeg", "max"), ("old_rank", "max"), ("contrib", "sum")])

        def update(t: pa.Table, _add=add) -> pa.Table:
            c = np.asarray(t.column("contrib"), dtype=np.float64)
            old = np.asarray(t.column("old_rank"), dtype=np.float64)
            new = _add + damping * c
            return pa.Table.from_arrays(
                [t.column("node"), t.column("outdeg"),
                 pa.array(new), pa.array(np.abs(new - old))],
                names=["node", "outdeg", "rank", "delta"])

        new_ranks = merged.map_batches(update, batch_format="pyarrow") \
            .repartition(rank_blocks).materialize()
        ranks = new_ranks.map_batches(
            lambda t: t.select(["node", "outdeg", "rank"]),
            batch_format="pyarrow").materialize()
        if tol is not None:    # skip the L1 execution on fixed-round runs
            l1 = new_ranks.aggregate(Sum("delta", alias_name="s"))["s"] or 0.0
            if l1 < tol:
                break
    return ranks.map_batches(lambda t: t.select(["node", "rank"]),
                             batch_format="pyarrow")


def k_core(edges_ds, k: int = 3, *, a: str = "a", b: str = "b",
           max_rounds: int = 32):
    """Iterative k-core peel over an undirected distinct-pair edge list
    (``a`` < ``b``): drop every node with degree < k, drop edges that lost
    an endpoint, repeat to fixpoint — the classic graph-curation primitive
    (dense-region extraction over co-occurrence / kNN graphs).  Returns
    (entity, core_degree): the induced-subgraph degrees inside the k-core,
    all >= k; empty when the k-core is empty.

    Distributed shape per round: ONE exploded pre-combined degree
    aggregate + a vectorized filter + TWO semi-joins of the edge stream
    against the surviving-node key set (``joins.semi_join`` broadcasts the
    survivor set when it is materialized-small, else takes the
    sorted-block exchange — no driver-side adjacency ever).  The peel
    strictly shrinks the edge set, so rounds are bounded by the node
    count; ``max_rounds`` raises loudly rather than returning a
    not-yet-converged subgraph.  Deterministic: the k-core is the UNIQUE
    maximal subgraph with min degree >= k, so any removal order —
    including an unrolled fixed-round SQL mirror — reaches the same
    fixpoint."""
    import numpy as np
    import pyarrow.compute as pc

    from .groupagg import auto_hash_aggregate
    from .joins import semi_join

    out_schema = pa.schema([("entity", pa.string()),
                            ("core_degree", pa.int64())])

    def canon(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t.column(a).cast(pa.string()), t.column(b).cast(pa.string())],
            names=["a", "b"])

    def both_ends(t: pa.Table) -> pa.Table:
        ent = pa.concat_arrays([t.column("a").combine_chunks(),
                                t.column("b").combine_chunks()])
        return pa.Table.from_arrays(
            [ent, pa.array(np.ones(len(ent), dtype=np.int64))],
            names=["entity", "core_degree"])

    edges = edges_ds.map_batches(canon, batch_format="pyarrow").materialize()
    for _ in range(max_rounds):
        if edges.count() == 0:
            return __import__("ray").data.from_arrow(
                out_schema.empty_table())
        deg = auto_hash_aggregate(
            edges.map_batches(both_ends, batch_format="pyarrow"),
            ["entity"], [("core_degree", "sum")])
        keep = deg.map_batches(
            lambda t: t.filter(
                pc.greater_equal(t.column("core_degree"), k)),
            batch_format="pyarrow").select_columns(["entity"]).materialize()
        if keep.count() == deg.count():
            return deg    # every degree >= k: this IS the k-core
        edges = semi_join(
            semi_join(edges, keep, left_key="a", right_key="entity",
                      left_key_nullable=False),
            keep, left_key="b", right_key="entity",
            left_key_nullable=False).materialize()
    raise RuntimeError(
        f"k_core: no fixpoint after {max_rounds} rounds (k={k}) — raise "
        f"max_rounds; the peel shrinks monotonically, so this bounds the "
        f"round count, never the result")


def label_propagation(edges_ds, seeds_ds, *, rounds: int = 4,
                      max_label: int = 1 << 20):
    """Synchronous seeded label propagation over an undirected
    distinct-pair edge list (columns ``a``, ``b``) — the semi-supervised
    labeling primitive for corpus curation (spread a small seed set's
    labels over a mutual-kNN / co-occurrence graph).  ``seeds_ds`` has
    columns (node, label); labels are non-negative ints < ``max_label``.

    Per synchronous round, every edge votes both ways: a node takes the
    per-node argmax of its labeled neighbors' labels with (count desc,
    label asc) tie-break, encoded as one composite int64 max — enc =
    n·2^21 + (max_label − label).  Seeds never change; unreached nodes
    stay unlabeled (absent).

    Labeled coverage grows monotonically (labels never vanish), so
    ``rounds`` bounds propagation RADIUS only — deterministic and
    partition-invariant, mirrorable by an unrolled fixed-round SQL CTE
    chain.  Returns (node, label, is_seed).

    Two tiers, as in ``pagerank``: the local tier counts the votes with
    numpy over the pulled edges and seeds (exact integer counts, the same
    composite encoding, so both tiers are BIT-identical); the join path
    runs, per round, ONE keyed lookup join attaching labels to edge
    sources, ONE pre-combined (dst, label) vote-count aggregate, the
    composite MAX aggregate and one anti semi-join against the seeds."""
    import numpy as np
    import pyarrow.compute as pc
    import ray.data as rd

    from .groupagg import auto_hash_aggregate
    from .joins import lookup_join, semi_join

    edges = edges_ds.map_batches(
        lambda t: t.select(["a", "b"]).rename_columns(["src", "dst"]),
        batch_format="pyarrow").materialize()

    def seed_canon(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t.column("node"), t.column("label").cast(pa.int64()),
             pa.array(np.ones(t.num_rows, dtype=bool))],
            names=["node", "label", "is_seed"])

    seeds = seeds_ds.map_batches(
        seed_canon, batch_format="pyarrow").materialize()

    local = _local_graph(edges, seeds)
    if local is not None:
        node_arr, si, di, _, seed_tbl = local
        n_nodes = len(node_arr)
        seed_lab = seed_tbl.column("label").combine_chunks()
        if len(seed_lab) and (pc.min(seed_lab).as_py() < 0
                              or pc.max(seed_lab).as_py() >= max_label):
            raise ValueError(
                f"label_propagation: labels must be in [0, {max_label}) "
                f"— got [{pc.min(seed_lab).as_py()}, "
                f"{pc.max(seed_lab).as_py()}]")
        ki = pc.index_in(seed_tbl.column("node").combine_chunks().cast(
            node_arr.type), value_set=node_arr).cast(pa.int64()).to_numpy()
        seed_vec = np.full(n_nodes, -1, dtype=np.int64)
        seed_vec[ki] = seed_lab.to_numpy()
        seed_mask = seed_vec >= 0
        # every edge votes both ways: src -> dst and dst -> src
        frm, to = np.concatenate([si, di]), np.concatenate([di, si])
        two_ml = np.int64(2 * max_label)
        lab_vec = seed_vec
        for _ in range(rounds):
            src_lab = lab_vec[frm]
            m = src_lab >= 0
            keys, n = np.unique(to[m] * two_ml + src_lab[m],
                                return_counts=True)
            # the join path's composite argmax encoding, per node
            best = np.full(n_nodes, -1, dtype=np.int64)
            np.maximum.at(best, keys // two_ml,
                          n * two_ml + (np.int64(max_label) - keys % two_ml))
            lab_vec = seed_vec.copy()
            won = (best >= 0) & ~seed_mask
            lab_vec[won] = np.int64(max_label) - best[won] % two_ml
        out = np.nonzero(lab_vec >= 0)[0]
        return rd.from_arrow(pa.Table.from_arrays(
            [node_arr.take(pa.array(out)), pa.array(lab_vec[out], pa.int64()),
             pa.array(seed_mask[out])],
            names=["node", "label", "is_seed"]))

    def both_dirs(t: pa.Table) -> pa.Table:
        u = pa.concat_arrays([t.column("src").combine_chunks(),
                              t.column("dst").combine_chunks()])
        v = pa.concat_arrays([t.column("dst").combine_chunks(),
                              t.column("src").combine_chunks()])
        return pa.Table.from_arrays([u, v], names=["src", "dst"])

    und = edges.map_batches(both_dirs, batch_format="pyarrow").materialize()
    labels = seeds

    def to_votes(t: pa.Table) -> pa.Table:
        lab = t.column("label")
        if t.num_rows and (pc.min(lab).as_py() < 0
                           or pc.max(lab).as_py() >= max_label):
            raise ValueError(
                f"label_propagation: labels must be in [0, {max_label}) "
                f"for the composite argmax encoding — got "
                f"[{pc.min(lab).as_py()}, {pc.max(lab).as_py()}]")
        return pa.Table.from_arrays(
            [t.column("dst"), lab,
             pa.array(np.ones(t.num_rows, dtype=np.int64))],
            names=["dst", "label", "n"])

    def encode(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy()
        lab = t.column("label").to_numpy()
        enc = n * np.int64(2 * max_label) + (np.int64(max_label) - lab)
        return pa.Table.from_arrays(
            [t.column("dst"), pa.array(enc, pa.int64())],
            names=["dst", "enc"])

    def decode(t: pa.Table) -> pa.Table:
        enc = t.column("enc").to_numpy()
        lab = np.int64(max_label) - enc % np.int64(2 * max_label)
        return pa.Table.from_arrays(
            [t.column("dst"), pa.array(lab, pa.int64()),
             pa.array(np.zeros(t.num_rows, dtype=bool))],
            names=["node", "label", "is_seed"])

    # Bound the label table's block count per round: union adds the two
    # sides' block LISTS, and downstream per-block fixed costs compound
    # round over round without a coalesce (the hits() sibling measured
    # geometric growth).  Cheap split/coalesce, not a shuffle.
    n_blocks = max(1, und.num_blocks())
    for _ in range(rounds):
        votes = lookup_join(und, labels, left_key="src", right_key="node",
                            payload=["label"], suffix="", how="inner")
        counts = auto_hash_aggregate(
            votes.map_batches(to_votes, batch_format="pyarrow"),
            ["dst", "label"], [("n", "sum")])
        best = auto_hash_aggregate(
            counts.map_batches(encode, batch_format="pyarrow"),
            ["dst"], [("enc", "max")])
        propagated = semi_join(
            best.map_batches(decode, batch_format="pyarrow"),
            seeds, left_key="node", right_key="node", anti=True,
            left_key_nullable=False)
        labels = seeds.union(propagated) \
            .repartition(n_blocks).materialize()
    return labels


def hits(edges_ds, *, src: str = "src", dst: str = "dst", iters: int = 4):
    """HITS hubs & authorities (Kleinberg 1999) over a directed edge
    stream, L1-normalized per half-round, fixed ``iters`` rounds:

        a_raw(v) = sum over edges (u -> v) of h(u);  a = a_raw / Σ a_raw
        h_raw(u) = sum over edges (u -> v) of a(v);  h = h_raw / Σ h_raw

    Same two tiers as ``pagerank`` (this module's link-analysis sibling):
    the local tier runs the 2*iters half-rounds as numpy ``bincount``
    passes over the pulled edges; larger graphs take the all-Dataset path
    — per half-round ONE keyed lookup join + ONE fused
    carrier/contribution sorted aggregate (the pagerank ride-along
    pattern) + one scalar Sum for the normalizer.  Deterministic float64;
    returns (node, hub, authority)."""
    import numpy as np
    import ray.data as rd

    from ray.data.aggregate import Sum

    from .groupagg import sorted_hash_aggregate
    from .joins import lookup_join

    edges = edges_ds.map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column(src).cast(pa.string()),
             t.column(dst).cast(pa.string())],
            names=["src", "dst"]),
        batch_format="pyarrow").materialize()

    local = _local_graph(edges)
    if local is not None:
        node_arr, si, di, _, _ = local
        n_nodes = len(node_arr)

        def half(w, frm, to):
            out = np.bincount(to, weights=w[frm], minlength=n_nodes)
            s = float(out.sum())
            return out / s if s > 0 else out

        hub = np.full(n_nodes, 1.0 / max(n_nodes, 1))
        authority = np.zeros(n_nodes)
        for _ in range(iters):
            authority = half(hub, si, di)
            hub = half(authority, di, si)
        return rd.from_arrow(pa.Table.from_arrays(
            [node_arr, pa.array(hub, pa.float64()),
             pa.array(authority, pa.float64())],
            names=["node", "hub", "authority"]))

    def endpoints(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pa.concat_arrays([t.column("src").combine_chunks(),
                               t.column("dst").combine_chunks()]),
             pa.array(np.ones(2 * t.num_rows, dtype=np.int64))],
            names=["node", "n"])

    nodes = sorted_hash_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow"),
        ["node"], [("n", "sum")]).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        return rd.from_arrow(pa.schema(
            [("node", pa.string()), ("hub", pa.float64()),
             ("authority", pa.float64())]).empty_table())

    # all-Dataset path: state = (node, hub, authority)
    state = nodes.map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("node"),
             pa.array(np.full(t.num_rows, 1.0 / n_nodes)),
             pa.array(np.zeros(t.num_rows))],
            names=["node", "hub", "authority"]),
        batch_format="pyarrow").materialize()

    def half_round(state, weight_col, out_col, key_from, key_to):
        """ONE lookup join + ONE fused carrier/contribution aggregate +
        one scalar Sum; the non-updated column rides along via max."""
        keep_col = "hub" if out_col == "authority" else "authority"
        contrib = lookup_join(
            edges, state, left_key=key_from, right_key="node",
            payload=[weight_col], suffix="_s", how="inner") \
            .map_batches(
                lambda t: pa.Table.from_arrays(
                    [t.column(key_to),
                     pa.array(np.zeros(t.num_rows)),
                     pa.array(np.asarray(t.column(f"{weight_col}_s"),
                                         dtype=np.float64))],
                    names=["node", "keep", "raw"]),
                batch_format="pyarrow")
        carrier = state.map_batches(
            lambda t: pa.Table.from_arrays(
                [t.column("node"), t.column(keep_col),
                 pa.array(np.zeros(t.num_rows))],
                names=["node", "keep", "raw"]),
            batch_format="pyarrow")
        merged = sorted_hash_aggregate(
            carrier.union(contrib), ["node"],
            [("keep", "max"), ("raw", "sum")]).materialize()
        total = merged.aggregate(Sum("raw", alias_name="s"))["s"] or 0.0

        def norm(t: pa.Table, _tot=total) -> pa.Table:
            raw = np.asarray(t.column("raw"), dtype=np.float64)
            v = raw / _tot if _tot > 0 else np.zeros(len(raw))
            keep = t.column("keep")
            hub_a = keep if out_col == "authority" else pa.array(v)
            auth_a = pa.array(v) if out_col == "authority" else keep
            return pa.Table.from_arrays(
                [t.column("node"), hub_a, auth_a],
                names=["node", "hub", "authority"])

        # coalesce to a bounded block count: union adds block LISTS, so
        # without this the state's block count — and every downstream
        # per-block fixed cost — DOUBLES per half-round (measured
        # 1.9 s -> 143 s by round 4 on a toy graph).  Split/coalesce
        # only, not a shuffle.
        return merged.map_batches(
            norm, batch_format="pyarrow") \
            .repartition(state_blocks).materialize()

    state_blocks = max(1, edges.num_blocks())
    for _ in range(iters):
        state = half_round(state, "hub", "authority", "src", "dst")
        state = half_round(state, "authority", "hub", "dst", "src")
    return state


def personalized_pagerank(edges_ds, restart_nodes: list[str], *,
                          src: str = "src", dst: str = "dst",
                          weight: str | None = None,
                          damping: float = 0.85, iters: int = 4):
    """Personalized (weighted) PageRank — the standard KG related-entity
    relevance measure: random walk with restart to a seed distribution
    (uniform over ``restart_nodes``), edge weights from ``weight`` (float;
    None = 1.0 per row):

        contrib(v) = Σ over edges (u -> v) of rank(u)·w(u,v)/wout(u)
        rank'(v)   = (1-d)·r(v) + d·(contrib(v) + dangling_mass·r(v))

    (dangling mass restarts to r — the PPR convention, vs the uniform
    spread of the global ``pagerank``).  Two tiers, like ``pagerank``:
    the local tier iterates with numpy over the pulled edges and weights;
    beyond ``LOCAL_MAX_BYTES`` the all-Dataset join path (``_ppr_join``)
    runs the identical recurrence with a seed column riding the rank
    table, so the operator is available at any scale.  Raises when ANY
    requested restart node is absent from the graph — a partially
    mistyped seed list must not silently renormalize over the remainder
    (ADVICE r4), and an empty graph with requested seeds is the same
    case.  Returns (node, rank)."""
    import numpy as np
    import pyarrow.compute as pc
    import ray.data as rd

    from .groupagg import sorted_hash_aggregate

    want = sorted(set(restart_nodes))
    if not want:
        raise ValueError("personalized_pagerank: empty restart_nodes")
    want_arr = pa.array(want, pa.string())

    def check_present(present) -> None:
        missing = [s for s in want if s not in present]
        if missing:
            raise ValueError(
                f"personalized_pagerank: restart node(s) not present in "
                f"the graph: {missing} — no restart node is silently "
                f"dropped (ADVICE r4)")

    cols = [src, dst] + ([weight] if weight else [])

    def canon(t: pa.Table) -> pa.Table:
        arrays = [t.column(src).cast(pa.string()),
                  t.column(dst).cast(pa.string())]
        names = ["src", "dst"]
        if weight:
            arrays.append(t.column(weight).cast(pa.float64()))
            names.append("w")
        return pa.Table.from_arrays(arrays, names=names)

    edges = edges_ds.select_columns(cols).map_batches(
        canon, batch_format="pyarrow").materialize()

    local = _local_graph(edges)
    if local is not None:
        node_arr, si, di, edge_tbl, _ = local
        n_nodes = len(node_arr)
        check_present(set(node_arr.filter(
            pc.is_in(node_arr, value_set=want_arr)).to_pylist()))
        r_vec = np.zeros(n_nodes)
        r_vec[pc.index_in(want_arr, value_set=node_arr).to_numpy()] = \
            1.0 / len(want)
        w = (edge_tbl.column("w").to_numpy() if weight
             else np.ones(len(si)))
        wout = np.bincount(si, weights=w, minlength=n_nodes)
        safe_out = np.where(wout > 0, wout, 1.0)
        dangling_mask = wout == 0
        rank = r_vec.copy()
        for _ in range(iters):
            dangling = float(rank[dangling_mask].sum())
            contrib = np.bincount(di, weights=(rank / safe_out)[si] * w,
                                  minlength=n_nodes)
            rank = (1.0 - damping) * r_vec \
                + damping * (contrib + dangling * r_vec)
        return rd.from_arrow(pa.Table.from_arrays(
            [node_arr, pa.array(rank, pa.float64())], names=["node", "rank"]))

    def endpoints(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pa.concat_arrays([t.column("src").combine_chunks(),
                               t.column("dst").combine_chunks()]),
             pa.array(np.ones(2 * t.num_rows, dtype=np.int64))],
            names=["node", "n"])

    nodes = sorted_hash_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow"),
        ["node"], [("n", "sum")]).materialize()
    # distributed and bounded: the filter returns at most len(want) rows
    present: set = set()
    for b in nodes.map_batches(
            lambda t: t.filter(pc.is_in(t.column("node"),
                                        value_set=want_arr)),
            batch_format="pyarrow").iter_batches(batch_format="pyarrow"):
        present.update(b.column("node").to_pylist())
    check_present(present)
    return _ppr_join(edges, nodes, want, weighted=bool(weight),
                     damping=damping, iters=iters)


def _ppr_join(edges, nodes, seeds: list[str], *, weighted: bool,
              damping: float, iters: int):
    """All-Dataset PPR join path (graphs beyond ``LOCAL_MAX_BYTES``).

    The ``pagerank`` join-path shape with a ``seed`` column riding the
    rank table: per round, ONE lookup join attaches ranks to edges, ONE
    sorted-block aggregate fuses the carrier rows (every node keeps its
    seed term) with the contribution sum, and the update applies

        rank'(v) = ((1-d) + d*dangling) * seed(v) + d * contrib(v)

    which is algebraically the local tier's
    (1-d)*r + d*(contrib + dangling*r).  No driver-side graph state; the
    only O(1) driver values are the scalar dangling mass per round."""
    import numpy as np
    import pyarrow.compute as pc

    from ray.data.aggregate import Sum

    from .groupagg import sorted_hash_aggregate
    from .joins import lookup_join

    seed_w = 1.0 / len(seeds)
    seed_arr = pa.array(seeds, pa.string())

    # per-src weighted out-degree (0 rows for dangling nodes)
    def src_w(t: pa.Table) -> pa.Table:
        w = (np.asarray(t.column("w"), dtype=np.float64) if weighted
             else np.ones(t.num_rows))
        return pa.Table.from_arrays(
            [t.column("src"), pa.array(w, pa.float64())],
            names=["src", "wout"])

    # read twice: the join fetches its schema, then joins it
    woutt = sorted_hash_aggregate(
        edges.map_batches(src_w, batch_format="pyarrow"),
        ["src"], [("wout", "sum")]).materialize()

    def init(t: pa.Table) -> pa.Table:
        seed = pc.cast(pc.is_in(t.column("node"), value_set=seed_arr),
                       pa.float64())
        seed = pc.multiply(seed, seed_w)
        return pa.Table.from_arrays(
            [t.column("node"),
             t.column("wout").fill_null(0).cast(pa.float64()),
             seed, seed],
            names=["node", "wout", "seed", "rank"])

    ranks = lookup_join(nodes.select_columns(["node"]), woutt,
                        left_key="node", right_key="src",
                        payload=["wout"], suffix="", how="left") \
        .map_batches(init, batch_format="pyarrow").materialize()

    rank_blocks = max(1, edges.num_blocks())
    for _ in range(iters):
        dangling = ranks.filter(expr="wout == 0.0") \
            .aggregate(Sum("rank", alias_name="s"))["s"] or 0.0
        coeff = (1.0 - damping) + damping * dangling

        def mk_contrib(t: pa.Table) -> pa.Table:
            w = (np.asarray(t.column("w"), dtype=np.float64) if weighted
                 else np.ones(t.num_rows))
            c = np.asarray(t.column("rank_s"), dtype=np.float64) * w \
                / np.asarray(t.column("wout_s"), dtype=np.float64)
            z = np.zeros(t.num_rows)
            return pa.Table.from_arrays(
                [t.column("dst"), pa.array(z), pa.array(z),
                 pa.array(c, pa.float64())],
                names=["node", "wout", "seed", "contrib"])

        contrib_rows = lookup_join(
            edges, ranks, left_key="src", right_key="node",
            payload=["rank", "wout"], suffix="_s", how="inner") \
            .map_batches(mk_contrib, batch_format="pyarrow")

        def carrier_fn(t: pa.Table) -> pa.Table:
            return pa.Table.from_arrays(
                [t.column("node"), t.column("wout"), t.column("seed"),
                 pa.array(np.zeros(t.num_rows))],
                names=["node", "wout", "seed", "contrib"])

        carrier = ranks.map_batches(carrier_fn, batch_format="pyarrow")
        merged = sorted_hash_aggregate(
            carrier.union(contrib_rows), ["node"],
            [("wout", "max"), ("seed", "max"), ("contrib", "sum")])

        def update(t: pa.Table, _coeff=coeff) -> pa.Table:
            s = np.asarray(t.column("seed"), dtype=np.float64)
            c = np.asarray(t.column("contrib"), dtype=np.float64)
            new = _coeff * s + damping * c
            return pa.Table.from_arrays(
                [t.column("node"), t.column("wout"), t.column("seed"),
                 pa.array(new, pa.float64())],
                names=["node", "wout", "seed", "rank"])

        ranks = merged.map_batches(update, batch_format="pyarrow") \
            .repartition(rank_blocks).materialize()
    return ranks.map_batches(lambda t: t.select(["node", "rank"]),
                             batch_format="pyarrow")


def bfs_distances(edges_ds, sources: list[str], *, max_hops: int = 4):
    """Multi-source BFS hop distance over an undirected distinct-pair
    edge list (columns ``a``, ``b``): dist(v) = min #hops from any source,
    explored up to ``max_hops``; unreached nodes are absent — the
    neighborhood-radius primitive beside personalized_pagerank's
    soft-relevance ranking.  Returns (node, dist).

    All-Dataset frontier expansion, per hop: ONE semi-join keeps edges
    leaving the frontier, one pre-combined distinct collapses the new
    frontier's candidates, one anti semi-join drops already-visited
    nodes — BFS frontiers only ever shrink the unvisited set, so the loop
    is bounded and every step is a keyed exchange (no driver adjacency).
    The visited table is coalesced per hop (the union block-growth
    lesson).  Early-exits when a frontier empties."""
    import numpy as np

    from .groupagg import auto_hash_aggregate
    from .joins import semi_join

    def canon(t: pa.Table) -> pa.Table:
        u = pa.concat_arrays([t.column("a").cast(pa.string())
                              .combine_chunks(),
                              t.column("b").cast(pa.string())
                              .combine_chunks()])
        v = pa.concat_arrays([t.column("b").cast(pa.string())
                              .combine_chunks(),
                              t.column("a").cast(pa.string())
                              .combine_chunks()])
        return pa.Table.from_arrays([u, v], names=["src", "dst"])

    und = edges_ds.map_batches(
        canon, batch_format="pyarrow").materialize()
    n_blocks = max(1, und.num_blocks())

    import ray.data as rd

    def with_dist(ds, d: int):
        return ds.map_batches(
            lambda t, _d=d: pa.Table.from_arrays(
                [t.column("node"),
                 pa.array(np.full(t.num_rows, _d, dtype=np.int64))],
                names=["node", "dist"]),
            batch_format="pyarrow")

    frontier = rd.from_arrow(pa.Table.from_arrays(
        [pa.array(sorted(set(sources)), pa.string())],
        names=["node"])).materialize()
    visited = with_dist(frontier, 0).materialize()

    for d in range(1, max_hops + 1):
        reached = semi_join(und, frontier, left_key="src",
                            right_key="node", left_key_nullable=False)
        candidates = auto_hash_aggregate(
            reached.map_batches(
                lambda t: pa.Table.from_arrays(
                    [t.column("dst"),
                     pa.array(np.ones(t.num_rows, dtype=np.int64))],
                    names=["node", "n"]),
                batch_format="pyarrow"),
            ["node"], [("n", "sum")]).select_columns(["node"])
        frontier = semi_join(candidates, visited, left_key="node",
                             right_key="node", anti=True,
                             left_key_nullable=False).materialize()
        if frontier.count() == 0:
            break
        visited = visited.union(with_dist(frontier, d)) \
            .repartition(n_blocks).materialize()
    return visited


def sssp_distances(edges_ds, sources: list[str], *, rounds: int = 3):
    """Bounded-round weighted shortest paths (Bellman-Ford relaxation)
    over a DIRECTED edge list (columns ``src``, ``dst``, ``w`` with w > 0):
    dist(v) = min total weight over paths of <= ``rounds`` edges from any
    source; unreached nodes are absent — the weighted companion to
    :func:`bfs_distances`' hop counts (callers mirror edges for undirected
    graphs, exactly as for PPR).  Returns (node, dist).

    Per round: ONE keyed lookup join attaches current dists to out-edges
    (candidate = dist(src) + w — a single float64 add, so DuckDB replays
    it bit-for-bit), then ONE sorted-block grouped MIN over the union of
    the current dist table (carrier rows: a settled dist never worsens)
    and the candidates.  MIN is order-independent, so the result is
    partition-invariant by construction — no fixed-point quantization
    needed, unlike the gradient sums in transe/logreg.  State is
    coalesced to the edge block count per round (the union block-growth
    lesson); no driver-side graph state.

    100-TB shape: each round is one keyed join + one keyed aggregate on
    the same node key — the same exchange profile as a pagerank round;
    the dist table is bounded by the reached node set.
    """
    import numpy as np

    import ray.data as rd

    from .groupagg import sorted_hash_aggregate
    from .joins import lookup_join

    # normalize to an Arrow schema (a pandas-backed Dataset's schema types
    # are numpy dtypes, which the equijoin's schema builder rejects) and
    # prune to the three live columns before materializing
    edges = edges_ds.map_batches(
        lambda t: t.select(["src", "dst", "w"]),
        batch_format="pyarrow").materialize()
    n_blocks = max(1, edges.num_blocks())
    srcs = sorted(set(sources))
    dist = rd.from_arrow(pa.Table.from_arrays(
        [pa.array(srcs, pa.string()),
         pa.array(np.zeros(len(srcs)), pa.float64())],
        names=["node", "dist"])).materialize()

    def relax(t: pa.Table) -> pa.Table:
        c = np.asarray(t.column("dist_s"), dtype=np.float64) \
            + np.asarray(t.column("w"), dtype=np.float64)
        return pa.Table.from_arrays(
            [t.column("dst"), pa.array(c, pa.float64())],
            names=["node", "dist"])

    for _ in range(rounds):
        cands = lookup_join(edges, dist, left_key="src", right_key="node",
                            payload=["dist"], suffix="_s", how="inner") \
            .map_batches(relax, batch_format="pyarrow")
        dist = sorted_hash_aggregate(dist.union(cands), ["node"],
                                     [("dist", "min")]) \
            .repartition(n_blocks).materialize()
    return dist


# Packed-pair join-key separator: ASCII unit separator, never legal in the
# node vocabularies this library targets (entity surfaces, int ids).  Every
# pack site ASSERTS the nodes are separator-free so a vocabulary that could
# collide ('x'+SEP+'y' vs 'x','y') fails loudly instead of producing false
# triangle closures (ADVICE r4: '|' collided on pipe-bearing node ids).
_KEY_SEP = "\x1f"


def _assert_key_sep_free(pc, t: pa.Table, cols: tuple) -> None:
    for c in cols:
        bad = pc.any(pc.match_substring(t.column(c), _KEY_SEP)).as_py()
        if bad:
            raise ValueError(
                f"graph key packing: node column {c!r} contains the "
                f"reserved separator {_KEY_SEP!r}; use separator-free "
                f"node ids")


def enumerate_triangles(edges):
    """Triangle enumeration (a < b < c, each listed once) over a
    MATERIALIZED distinct-pair edge Dataset with columns (a, b), a < b.

    Distributed shape (NO driver-side adjacency): wedges are emitted per
    lower endpoint from the sorted edge stream (sorted_map_groups on
    'a'; per-center numpy triu over its higher neighbors — the same
    bucket-emit pattern as the entgraph pair sort), then ONE semi-join
    of the packed 'b|c' wedge key against the packed edge key set closes
    wedges into triangles.  The wedge stream is the quadratic term
    (sum of deg(v)^2/2 over lower endpoints — the standard bound for
    edge-iterator triangle counting); the gazetteer-bounded vocabulary
    keeps it tiny HERE, and the semi-join's broadcast path engages
    because the edge key set is materialized and small."""
    import numpy as np
    import pandas as pd

    from .blockgroup import sorted_map_groups
    from .joins import semi_join

    wedge_schema = pa.schema([("a", pa.string()), ("b", pa.string()),
                              ("c", pa.string())])

    def wedge_emit(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["a", "b"], kind="stable")
        a = df["a"].to_numpy()
        b = df["b"].to_numpy()
        change = np.empty(len(df), dtype=bool)
        change[0] = True
        change[1:] = a[1:] != a[:-1]
        gid = np.cumsum(change) - 1
        counts = np.bincount(gid)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        oa, ob, oc = [], [], []
        for g in np.nonzero(counts >= 2)[0]:
            lo, d = starts[g], counts[g]
            iu, ju = np.triu_indices(d, 1)
            oa.append(np.repeat(a[lo], len(iu)))
            ob.append(b[lo:lo + d][iu])
            oc.append(b[lo:lo + d][ju])
        if not oa:
            return pd.DataFrame(columns=["a", "b", "c"])
        return pd.DataFrame({"a": np.concatenate(oa),
                             "b": np.concatenate(ob),
                             "c": np.concatenate(oc)})

    wedges = sorted_map_groups(edges, ["a"], block_fn=wedge_emit,
                               schema=wedge_schema)

    def pack_bc(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        _assert_key_sep_free(pc, t, ("b", "c"))
        return t.append_column("k", pc.binary_join_element_wise(
            t.column("b"), t.column("c"), _KEY_SEP))

    def pack_ab(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        _assert_key_sep_free(pc, t, ("a", "b"))
        return pa.Table.from_arrays(
            [pc.binary_join_element_wise(t.column("a"),
                                         t.column("b"), _KEY_SEP)],
            names=["k"])

    closed = semi_join(
        wedges.map_batches(pack_bc, batch_format="pyarrow"),
        edges.map_batches(pack_ab, batch_format="pyarrow").materialize(),
        left_key="k", right_key="k", left_key_nullable=False)
    return closed.drop_columns(["k"])


def k_truss(edges_ds, k: int = 4, *, a: str = "a", b: str = "b",
            max_rounds: int = 32):
    """Iterative k-truss peel over an undirected distinct-pair edge list
    (``a`` < ``b``): drop every edge supported by fewer than k-2
    triangles, recompute, repeat to fixpoint — the EDGE-cohesion rung
    above k-core on the graph-curation ladder (every k-truss edge sits in
    >= k-2 triangles of the surviving subgraph).  Returns
    (a, b, support), support >= k-2; empty when the truss is empty.

    Distributed shape per round: one triangle enumeration over the
    surviving edges (``enumerate_triangles`` — wedge emit + packed-key
    semi-join, no driver adjacency), each triangle exploded to its three
    edges, ONE pre-combined support aggregate; edges below k-2 vanish by
    construction (they are absent from the support table), the rest
    filter vectorized.  The peel strictly shrinks the edge set, so
    ``max_rounds`` bounds rounds, never the result — the k-truss is the
    unique maximal subgraph with min edge support >= k-2, so an unrolled
    fixed-round SQL mirror matches bit-for-bit."""
    import numpy as np
    import pyarrow.compute as pc

    from .groupagg import auto_hash_aggregate

    if k < 3:
        raise ValueError(
            "k_truss requires k >= 3 (k=2 is the trivial all-edges truss; "
            "zero-triangle edges are dropped implicitly here)")
    out_schema = pa.schema([("a", pa.string()), ("b", pa.string()),
                            ("support", pa.int64())])

    def canon(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t.column(a).cast(pa.string()), t.column(b).cast(pa.string())],
            names=["a", "b"])

    edges = edges_ds.map_batches(canon, batch_format="pyarrow").materialize()
    for _ in range(max_rounds):
        n_edges = edges.count()
        if n_edges == 0:
            return __import__("ray").data.from_arrow(
                out_schema.empty_table())

        def tri_edges(t: pa.Table) -> pa.Table:
            ea = pa.concat_arrays([t.column("a").combine_chunks(),
                                   t.column("a").combine_chunks(),
                                   t.column("b").combine_chunks()])
            eb = pa.concat_arrays([t.column("b").combine_chunks(),
                                   t.column("c").combine_chunks(),
                                   t.column("c").combine_chunks()])
            return pa.Table.from_arrays(
                [ea, eb,
                 pa.array(np.ones(len(ea), dtype=np.int64))],
                names=["a", "b", "support"])

        sup = auto_hash_aggregate(
            enumerate_triangles(edges)
            .map_batches(tri_edges, batch_format="pyarrow"),
            ["a", "b"], [("support", "sum")])
        kept = sup.map_batches(
            lambda t: t.filter(
                pc.greater_equal(t.column("support"), k - 2)),
            batch_format="pyarrow").materialize()
        if kept.count() == n_edges:
            return kept
        edges = kept.select_columns(["a", "b"]).materialize()
    raise RuntimeError(
        f"k_truss: no fixpoint after {max_rounds} rounds (k={k}) — raise "
        f"max_rounds; the peel shrinks monotonically, so this bounds the "
        f"round count, never the result")


def betweenness_from_sources(edges_ds, sources: list[str], *,
                             max_hops: int = 3, round_digits: int = 6):
    """Bounded-depth Brandes betweenness from a fixed source set — the
    sampled-pivot approximation (Brandes 2001; Bader et al.'s pivot
    sampling) that makes betweenness tractable at graph scale: exact
    dependency accumulation from each listed source, truncated at
    ``max_hops`` (contributions through longer shortest paths are not
    counted — the documented approximation knob, like sssp_distances'
    round bound).

    Per source, forward phase per hop: shortest-path counts sigma arrive
    as ONE keyed gather join (edge.src -> frontier sigma) + ONE grouped
    sum per new node + one anti semi-join against the visited set; the
    backward phase mirrors it along the level DAG (successor terms
    (1 + delta_w) / sigma_w gathered per edge, summed per predecessor,
    scaled by sigma_v).  Every step is an audited exchange primitive;
    levels and the visited set are materialized, so under the broadcast
    thresholds each join takes lookup_join/semi_join's broadcast fast
    path — zero sort exchanges for bounded neighborhoods, automatic
    sorted-block fallback beyond.

    sigma stays exact (integer-valued float64 sums, exact below 2^53);
    delta is float with ``round_digits`` rounding at the end, mirrored by
    the unrolled SQL oracle.  Returns (entity, betweenness) over every
    node within ``max_hops`` of any source, sources themselves excluded
    (Brandes' v != s), including 0.0 rows for frontier leaves.
    """
    import numpy as np
    import pyarrow.compute as pc
    import ray.data as rd

    from .groupagg import auto_hash_aggregate
    from .joins import lookup_join, semi_join

    def canon(t: pa.Table) -> pa.Table:
        u = pa.concat_arrays([t.column("a").cast(pa.string())
                              .combine_chunks(),
                              t.column("b").cast(pa.string())
                              .combine_chunks()])
        v = pa.concat_arrays([t.column("b").cast(pa.string())
                              .combine_chunks(),
                              t.column("a").cast(pa.string())
                              .combine_chunks()])
        return pa.Table.from_arrays([u, v], names=["src", "dst"])

    und = edges_ds.map_batches(canon, batch_format="pyarrow").materialize()
    level_schema = pa.schema([("node", pa.string()),
                              ("sigma", pa.float64())])

    def _with_schema(ds, schema=None):
        """An exhausted frontier (or anything derived from one through
        map_batches, which drops empty blocks) materializes with NO
        schema — replace it with a one-empty-block dataset so downstream
        joins keep typed columns (common case: a small-diameter graph
        empties the deepest level)."""
        if ds.count() == 0:
            return rd.from_arrow(
                (schema or level_schema).empty_table()).materialize()
        return ds

    contribs = []

    for s in sources:
        levels = [rd.from_arrow(pa.table({
            "node": pa.array([s], pa.string()),
            "sigma": pa.array([1.0], pa.float64())})).materialize()]
        visited = levels[0].select_columns(["node"]).materialize()
        for _ in range(max_hops):
            gathered = lookup_join(und, levels[-1], left_key="src",
                                   right_key="node", payload=["sigma"],
                                   suffix="_f", how="inner")
            cand = auto_hash_aggregate(
                gathered.map_batches(
                    lambda t: pa.Table.from_arrays(
                        [t.column("dst"), t.column("sigma_f")],
                        names=["node", "sigma"]),
                    batch_format="pyarrow"),
                ["node"], [("sigma", "sum")])
            new = _with_schema(semi_join(cand, visited, left_key="node",
                                         right_key="node", anti=True,
                                         left_key_nullable=False)
                               .materialize())
            levels.append(new)
            visited = (visited.union(new.select_columns(["node"]))
                       .repartition(max(1, visited.num_blocks()))
                       .materialize())

        # backward: deepest level's delta is 0 by construction
        def zeros(t: pa.Table) -> pa.Table:
            return pa.Table.from_arrays(
                [t.column("node"), t.column("sigma"),
                 pa.array(np.zeros(t.num_rows))],
                names=["node", "sigma", "delta"])

        delta_schema = pa.schema([("node", pa.string()),
                                  ("sigma", pa.float64()),
                                  ("delta", pa.float64())])
        delta = _with_schema(levels[max_hops].map_batches(
            zeros, batch_format="pyarrow").materialize(), delta_schema)
        contribs.append(delta.select_columns(["node", "delta"]))
        for d in range(max_hops - 1, 0, -1):
            def term(t: pa.Table) -> pa.Table:
                w = (1.0 + pc.cast(t.column("delta"), pa.float64())
                     .to_numpy(zero_copy_only=False)) \
                    / t.column("sigma").to_numpy(zero_copy_only=False)
                return pa.Table.from_arrays(
                    [t.column("node"), pa.array(w)],
                    names=["node", "term"])

            terms = _with_schema(
                delta.map_batches(term, batch_format="pyarrow")
                .materialize(),
                pa.schema([("node", pa.string()),
                           ("term", pa.float64())]))
            succ = lookup_join(und, terms, left_key="dst",
                               right_key="node", payload=["term"],
                               suffix="_w", how="inner")
            sums = _with_schema(
                auto_hash_aggregate(
                    succ.map_batches(
                        lambda t: pa.Table.from_arrays(
                            [t.column("src"), t.column("term_w")],
                            names=["node", "t"]),
                        batch_format="pyarrow"),
                    ["node"], [("t", "sum")]),
                pa.schema([("node", pa.string()), ("t", pa.float64())]))
            joined = lookup_join(levels[d], sums, left_key="node",
                                 right_key="node", payload=["t"],
                                 suffix="_s", how="left")

            def scale(t: pa.Table) -> pa.Table:
                tt = pc.coalesce(t.column("t_s"), pa.scalar(0.0)) \
                    .to_numpy(zero_copy_only=False)
                sg = t.column("sigma").to_numpy(zero_copy_only=False)
                return pa.Table.from_arrays(
                    [t.column("node"), t.column("sigma"),
                     pa.array(sg * tt)],
                    names=["node", "sigma", "delta"])

            delta = joined.map_batches(
                scale, batch_format="pyarrow").materialize()
            contribs.append(delta.select_columns(["node", "delta"]))

    total = contribs[0]
    for c in contribs[1:]:
        total = total.union(c)
    summed = auto_hash_aggregate(total, ["node"], [("delta", "sum")])

    def finish(t: pa.Table) -> pa.Table:
        from ..functions.fputil import np_round_away

        return pa.Table.from_arrays(
            [t.column("node"),
             pa.array(np_round_away(
                 t.column("delta").to_numpy(zero_copy_only=False),
                 round_digits))],
            names=["entity", "betweenness"])

    return summed.map_batches(finish, batch_format="pyarrow")


def modularity(edges_ds, labels_ds, *, round_digits: int = 6):
    """Newman modularity of a node partition on an undirected
    distinct-pair edge list (columns ``a``, ``b``) — the community-QUALITY
    audit beside the community-assignment ops (label_propagation,
    dedup clusters): per community c on the labeled subgraph,
    q_contrib = intra_c/m − degree_sum_c²/(2m)²; Q = Σ q_contrib.

    ``labels_ds`` has columns (node, label); edges with an unlabeled
    endpoint are excluded (the labeled-subgraph convention).  Scale
    shape: labels attach to edge endpoints via TWO keyed lookup joins
    (broadcast under threshold), then ONE pre-combined aggregate on the
    label key (cardinality = #communities); partials are exact int64, so
    the only float math is one single-expression pass over the bounded
    per-community table — bit-identical in a SQL mirror.

    Returns (label, n_nodes, intra_edges, degree_sum, q_contrib);
    q_contrib is NULL when the labeled subgraph has no edges."""
    import numpy as np
    import pyarrow.compute as pc  # noqa: F401  (kept for parity w/ file)

    from ..functions.fputil import np_round_away
    from .groupagg import auto_hash_aggregate
    from .joins import lookup_join

    # normalize both sides to Arrow schemas (a pandas-backed Dataset's
    # schema types are numpy dtypes, which the equijoin's schema builder
    # rejects — the sssp_distances convention) and prune to live columns
    labels = labels_ds.map_batches(
        lambda t: t.select(["node", "label"]),
        batch_format="pyarrow").materialize()
    edges = edges_ds.map_batches(
        lambda t: t.select(["a", "b"]), batch_format="pyarrow")
    le = lookup_join(
        lookup_join(edges, labels, left_key="a", right_key="node",
                    payload=["label"], suffix="_a"),
        labels, left_key="b", right_key="node",
        payload=["label"], suffix="_b")

    def node_partial(t: pa.Table) -> pa.Table:
        one = np.ones(t.num_rows, dtype=np.int64)
        zero = np.zeros(t.num_rows, dtype=np.int64)
        return pa.Table.from_arrays(
            [t.column("label"), pa.array(one), pa.array(zero),
             pa.array(zero)],
            names=["label", "n_nodes", "intra_edges", "degree_sum"])

    def edge_partial(t: pa.Table) -> pa.Table:
        la = t.column("label_a").to_numpy(zero_copy_only=False)
        lb = t.column("label_b").to_numpy(zero_copy_only=False)
        lab = np.concatenate([la, lb])
        zero = np.zeros(len(lab), dtype=np.int64)
        intra = np.concatenate([(la == lb).astype(np.int64),
                                np.zeros(len(lb), dtype=np.int64)])
        return pa.Table.from_arrays(
            [pa.array(lab), pa.array(zero), pa.array(intra),
             pa.array(np.ones(len(lab), dtype=np.int64))],
            names=["label", "n_nodes", "intra_edges", "degree_sum"])

    per_label = auto_hash_aggregate(
        labels.map_batches(node_partial, batch_format="pyarrow")
        .union(le.map_batches(edge_partial, batch_format="pyarrow")),
        ["label"],
        [("n_nodes", "sum"), ("intra_edges", "sum"),
         ("degree_sum", "sum")])

    def finish(t: pa.Table) -> pa.Table:
        deg = t.column("degree_sum").to_numpy(zero_copy_only=False)
        intra = t.column("intra_edges").to_numpy(zero_copy_only=False)
        m = int(deg.sum()) // 2
        if m > 0:
            q = np_round_away(
                intra / float(m) - (deg * deg) / (4.0 * m * m),
                round_digits)
            qa = pa.array(np.asarray(q), pa.float64())
        else:
            qa = pa.array([None] * t.num_rows, pa.float64())
        return t.append_column("q_contrib", qa)

    # per-label table is bounded by community cardinality — one node
    # finishes it
    return per_label.repartition(1).map_batches(
        finish, batch_format="pyarrow", batch_size=None)
