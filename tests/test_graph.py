"""Distributed PageRank vs a single-process power-iteration reference."""

import numpy as np
import pytest

import chinese_open_relation_extraction_for_entgraph_ray.stages.graph as graph_mod
import chinese_open_relation_extraction_for_entgraph_ray.stages.joins as joins_mod


@pytest.fixture
def tiers(monkeypatch):
    """Spy on the two link-analysis tiers: each ``_local_graph`` call
    appends "local" (it pulled the graph) or "join" (over
    ``LOCAL_MAX_BYTES``), each ``lookup_join`` call "lookup_join"."""
    seen: list = []
    real_local, real_lookup = graph_mod._local_graph, joins_mod.lookup_join

    def local(*args, **kwargs):
        out = real_local(*args, **kwargs)
        seen.append("join" if out is None else "local")
        return out

    def lookup(*args, **kwargs):
        seen.append("lookup_join")
        return real_lookup(*args, **kwargs)

    monkeypatch.setattr(graph_mod, "_local_graph", local)
    monkeypatch.setattr(joins_mod, "lookup_join", lookup)
    return seen


def _tier(seen: list) -> str:
    """The tier one operator call ran, read (and cleared) from the spy."""
    ran = "local" if seen == ["local"] else (
        "join" if seen[:1] == ["join"] and "lookup_join" in seen
        else list(seen))
    seen.clear()
    return ran


def _reference_pagerank(edges, damping=0.85, iters=50):
    nodes = sorted({u for u, _ in edges} | {v for _, v in edges})
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    out = np.zeros(n)
    for u, _ in edges:
        out[idx[u]] += 1
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        contrib = np.zeros(n)
        for u, v in edges:
            contrib[idx[v]] += r[idx[u]] / out[idx[u]]
        dangling = r[out == 0].sum()
        r = (1 - damping) / n + damping * (contrib + dangling / n)
    return {nodes[i]: r[i] for i in range(n)}


@pytest.mark.parametrize("edges", [
    # two hubs + a chain + a dangling sink
    [("a", "b"), ("c", "b"), ("d", "b"), ("b", "e"), ("e", "f"),
     ("f", "a"), ("g", "b"), ("b", "h")],
])
# a 0-byte bound forces the join path; a 200 kB one takes the local tier
# — both must match the reference exactly
@pytest.mark.parametrize("local_max_bytes", [0, 200_000])
def test_pagerank_matches_power_iteration(ray_session, edges, tiers,
                                          monkeypatch, local_max_bytes):
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.graph import (
        pagerank,
    )

    monkeypatch.setattr(graph_mod, "LOCAL_MAX_BYTES", local_max_bytes)
    ds = rd.from_items([{"src": u, "dst": v} for u, v in edges]).repartition(3)
    # fixed iteration count on both sides: the distributed rounds and the
    # reference compute the identical recurrence, so 3 rounds must agree to
    # float precision (full convergence would need ~40 rounds x ~10 s of
    # fixed per-round Ray op latency in this sandbox — not a test's job)
    got = {r["node"]: r["rank"]
           for r in pagerank(ds, iters=3, tol=None).take_all()}
    assert _tier(tiers) == ("local" if local_max_bytes else "join")
    want = _reference_pagerank(edges, iters=3)
    assert set(got) == set(want)
    for k in want:
        assert abs(got[k] - want[k]) < 1e-6, (k, got[k], want[k])
    assert abs(sum(got.values()) - 1.0) < 1e-3   # mass ~conserved mid-run
    # the hub must outrank a leaf feeder
    assert got["b"] > got["g"]


def test_k_core_cascade_and_empty(ray_session):
    """k_core must reach the unique fixpoint through a multi-round
    cascade (a chain hanging off a clique peels one node per round), be
    invariant to block structure, and return an empty result when the
    whole graph peels away."""
    import pandas as pd
    import ray.data

    from chinese_open_relation_extraction_for_entgraph_ray.stages.graph import (
        k_core,
    )

    # K4 clique on c0..c3 + chain c3-x0-x1-x2: peeling x2 (deg 1) exposes
    # x1, then x0 — three cascade rounds before the clique alone remains.
    clique = [(f"c{i}", f"c{j}") for i in range(4) for j in range(i + 1, 4)]
    chain = [("c3", "x0"), ("x0", "x1"), ("x1", "x2")]
    edges = pd.DataFrame(clique + chain, columns=["a", "b"])

    for parts in (1, 4):
        ds = ray.data.from_pandas(edges).repartition(parts)
        got = (k_core(ds, k=3).to_pandas()
               .sort_values("entity").reset_index(drop=True))
        assert list(got.entity) == ["c0", "c1", "c2", "c3"]
        assert list(got.core_degree) == [3, 3, 3, 3]

    # k above the max possible degree -> empty k-core
    empty = k_core(ray.data.from_pandas(edges), k=10).to_pandas()
    assert len(empty) == 0


def test_label_propagation_majority_ties_and_seeds(ray_session, tiers,
                                                   monkeypatch):
    """label_propagation must spread by per-round majority with
    (count desc, label asc) tie-break, never relabel a seed, leave
    unreached nodes absent, and be invariant to block structure."""
    import pandas as pd
    import ray.data

    from chinese_open_relation_extraction_for_entgraph_ray.stages.graph import (
        label_propagation,
    )

    # star: center m has two label-7 seeds and two label-2 seeds as
    # leaves -> tie on count, label asc wins (2); chain m-p1-p2 spreads
    # the center's label outward one hop per round; node z is isolated
    # from all seeds and must stay absent; seed s7a also neighbors a
    # label-2 seed but must keep its own label.
    edges = pd.DataFrame(
        [("m", "s7a"), ("m", "s7b"), ("m", "s2a"), ("m", "s2b"),
         ("m", "p1"), ("p1", "p2"), ("s7a", "s2a"), ("z", "z2")],
        columns=["a", "b"])
    seeds = pd.DataFrame({"node": ["s7a", "s7b", "s2a", "s2b"],
                          "label": [7, 7, 2, 2]})

    # both tiers (local + all-Dataset join path) and both block
    # structures must agree exactly
    for parts, bound in ((1, None), (3, None), (3, 0)):
        if bound is not None:
            monkeypatch.setattr(graph_mod, "LOCAL_MAX_BYTES", bound)
        got = label_propagation(
            ray.data.from_pandas(edges).repartition(parts),
            ray.data.from_pandas(seeds), rounds=4).to_pandas()
        assert _tier(tiers) == ("local" if bound is None else "join")
        got = got.set_index("node")
        assert int(got.loc["m", "label"]) == 2          # 2-2 tie -> min
        assert bool(got.loc["m", "is_seed"]) is False
        assert int(got.loc["s7a", "label"]) == 7        # seeds immutable
        assert int(got.loc["p1", "label"]) == 2         # radius 2
        assert int(got.loc["p2", "label"]) == 2         # radius 3
        assert "z" not in got.index and "z2" not in got.index
        assert len(got) == 7


def test_hits_vs_numpy_reference_both_paths(ray_session, tiers,
                                            monkeypatch):
    """Both HITS dispatch paths must match a numpy reference of the same
    L1-normalized update rule, with pure hubs (sources) at authority 0
    and pure authorities (sinks) at hub 0."""
    import numpy as np
    import pandas as pd
    import ray.data

    from chinese_open_relation_extraction_for_entgraph_ray.stages.graph import (
        hits,
    )

    rng = np.random.RandomState(11)
    n_c, n_o = 6, 12
    pairs = sorted({(f"c{rng.randint(n_c)}", f"o{rng.randint(n_o)}")
                    for _ in range(30)})
    edges = pd.DataFrame(pairs, columns=["src", "dst"])

    nodes = sorted({x for p in pairs for x in p})
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    h = np.full(n, 1.0 / n)
    a = np.zeros(n)
    for _ in range(4):
        a = np.zeros(n)
        for s, d in pairs:
            a[idx[d]] += h[idx[s]]
        a = a / a.sum()
        h = np.zeros(n)
        for s, d in pairs:
            h[idx[s]] += a[idx[d]]
        h = h / h.sum()

    ds = ray.data.from_pandas(edges).repartition(3)
    # two tiers: local bincount (default here), all-Dataset join
    for tier in ("local", "join"):
        if tier == "join":
            monkeypatch.setattr(graph_mod, "LOCAL_MAX_BYTES", 0)
        got = (hits(ds, iters=4).to_pandas()
               .set_index("node").loc[nodes])
        assert _tier(tiers) == tier
        np.testing.assert_allclose(got.hub.to_numpy(), h, atol=1e-12)
        np.testing.assert_allclose(got.authority.to_numpy(), a,
                                   atol=1e-12)
        assert (got.loc[[x for x in nodes if x[0] == "o"], "hub"]
                == 0).all()
        assert (got.loc[[x for x in nodes if x[0] == "c"], "authority"]
                == 0).all()


def test_personalized_pagerank_localization_and_weights(ray_session):
    """PPR mass must localize around the seed, respect edge weights
    (heavier edge -> more mass), sum to ~1, and raise loudly on a missing
    seed or an over-bound graph."""
    import numpy as np
    import pandas as pd
    import pytest
    import ray.data

    from chinese_open_relation_extraction_for_entgraph_ray.stages.graph import (
        personalized_pagerank,
    )

    # seed s -> heavy edge to a, light edge to b; far chain b-c-d
    edges = pd.DataFrame(
        [("s", "a", 9.0), ("a", "s", 9.0), ("s", "b", 1.0),
         ("b", "s", 1.0), ("b", "c", 1.0), ("c", "b", 1.0),
         ("c", "d", 1.0), ("d", "c", 1.0)],
        columns=["src", "dst", "w"])
    ds = ray.data.from_pandas(edges)
    # 51 iters: the s<->a two-cycle makes low iteration counts oscillate;
    # at the (near-)stationary point the ordering is distance+weight
    # monotone: s > a (heavy) > b (light) > c > d
    got = personalized_pagerank(ds, ["s"], weight="w", iters=51) \
        .to_pandas().set_index("node")["rank"]
    assert abs(got.sum() - 1.0) < 1e-9
    assert got["s"] == got.max()
    assert got["a"] > got["b"] > got["c"] > got["d"]

    # ANY missing restart node raises (a partially mistyped seed list
    # must not silently renormalize over the remainder — ADVICE r4)
    with pytest.raises(ValueError, match="not present in the graph"):
        personalized_pagerank(ds, ["zz"], weight="w")
    with pytest.raises(ValueError, match="zz"):
        personalized_pagerank(ds, ["s", "zz"], weight="w")
    # an EMPTY graph with requested seeds is the same mistyped-seed case,
    # not a quiet no-op (r5 review: the old empty-graph shortcut bypassed
    # the validation)
    import pandas as pd
    import ray.data

    empty = ray.data.from_pandas(
        pd.DataFrame({"src": pd.Series([], dtype=str),
                      "dst": pd.Series([], dtype=str)}))
    with pytest.raises(ValueError, match="not present in the graph"):
        personalized_pagerank(empty, ["s"])


def test_personalized_pagerank_join_path_parity(ray_session, tiers,
                                                monkeypatch):
    """The over-bound all-Dataset join path must match the local tier to
    float precision (same recurrence, float64 throughout), on a
    weighted multi-seed graph with a dangling node, across block
    structures (VERDICT r4 #2)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from chinese_open_relation_extraction_for_entgraph_ray.stages.graph import (
        personalized_pagerank,
    )

    edges = pd.DataFrame(
        [("s", "a", 2.0), ("a", "s", 1.0), ("s", "b", 1.0),
         ("b", "c", 3.0), ("c", "b", 1.0), ("c", "d", 1.0),
         ("a", "d", 0.5), ("e", "a", 1.0)],   # d is dangling
        columns=["src", "dst", "w"])
    def ppr(ds, seeds, bound, **kwargs):
        with monkeypatch.context() as mp:
            mp.setattr(graph_mod, "LOCAL_MAX_BYTES", bound)
            out = personalized_pagerank(ds, seeds, **kwargs).to_pandas()
        assert _tier(tiers) == ("local" if bound else "join")
        return out.set_index("node")["rank"].sort_index()

    for parts in (1, 3):
        ds = ray.data.from_pandas(edges).repartition(parts)
        fast = ppr(ds, ["s", "e"], graph_mod.LOCAL_MAX_BYTES, weight="w",
                   iters=4)
        join = ppr(ds, ["s", "e"], 0, weight="w", iters=4)
        assert list(fast.index) == list(join.index)
        np.testing.assert_allclose(join.to_numpy(), fast.to_numpy(),
                                   atol=1e-12)
        assert abs(join.sum() - 1.0) < 1e-9
    # unweighted parity too (w=None exercises the ones() path)
    ds = ray.data.from_pandas(edges[["src", "dst"]]).repartition(2)
    fast = ppr(ds, ["s"], graph_mod.LOCAL_MAX_BYTES, iters=3)
    join = ppr(ds, ["s"], 0, iters=3)
    np.testing.assert_allclose(join.to_numpy(), fast.to_numpy(),
                               atol=1e-12)


def test_local_tier_bit_identical_across_block_layouts(ray_session, tiers):
    """The local tier sums in one fixed (edge) order, so each operator's
    output on 1 block and on 7 blocks of the same edges is bit-identical
    — equality, not a tolerance."""
    import pandas as pd
    import ray.data

    rng = np.random.RandomState(3)
    pairs = sorted({(f"n{rng.randint(60)}", f"n{rng.randint(60)}")
                    for _ in range(300)})
    edges = pd.DataFrame(pairs, columns=["src", "dst"])
    edges["w"] = rng.uniform(0.1, 2.0, len(edges))
    und = edges.query("src < dst").rename(columns={"src": "a", "dst": "b"})
    seeds = pd.DataFrame({"node": ["n1", "n7", "n30"], "label": [0, 1, 1]})

    runs = {
        "pagerank": lambda e, u: graph_mod.pagerank(e, iters=6, tol=None),
        "ppr": lambda e, u: graph_mod.personalized_pagerank(
            e, ["n1", "n2"], weight="w", iters=6),
        "label_propagation": lambda e, u: graph_mod.label_propagation(
            u, ray.data.from_pandas(seeds), rounds=3),
        "hits": lambda e, u: graph_mod.hits(e, iters=4),
    }
    for name, run in runs.items():
        got = []
        for parts in (1, 7):
            got.append(run(ray.data.from_pandas(edges).repartition(parts),
                           ray.data.from_pandas(und).repartition(parts))
                       .to_pandas().to_dict("list"))
            assert _tier(tiers) == "local", name
        assert got[0] == got[1], name


def test_empty_graph_schemas(ray_session, tiers):
    """The local tier keeps each operator's schema on an empty edge list,
    and label propagation still returns its (isolated) seeds."""
    import pandas as pd
    import ray.data

    empty = pd.DataFrame({"src": pd.Series([], dtype=str),
                          "dst": pd.Series([], dtype=str)})
    for op, cols in ((graph_mod.pagerank, ["node", "rank"]),
                     (graph_mod.hits, ["node", "hub", "authority"])):
        out = op(ray.data.from_pandas(empty))
        assert out.count() == 0 and out.schema().names == cols
    lp = graph_mod.label_propagation(
        ray.data.from_pandas(empty.rename(columns={"src": "a",
                                                   "dst": "b"})),
        ray.data.from_pandas(pd.DataFrame({"node": ["s"], "label": [3]})))
    assert lp.to_pandas().to_dict("list") == {
        "node": ["s"], "label": [3], "is_seed": [True]}
    assert tiers == ["local"] * 3


def test_long_node_ids_take_the_join_path(ray_session, tiers, monkeypatch):
    """The local tier is bounded in bytes, not rows: four edges whose node
    ids are 4,000 characters long exceed a 16 kB bound and take the join
    path, which matches the local tier's ranks."""
    import pandas as pd
    import ray.data

    ids = [c * 4_000 for c in "abcd"]
    edges = pd.DataFrame({"src": ids, "dst": ids[1:] + ids[:1]})
    ds = ray.data.from_pandas(edges).materialize()
    local = graph_mod.pagerank(ds, iters=3, tol=None).to_pandas()
    assert _tier(tiers) == "local"
    monkeypatch.setattr(graph_mod, "LOCAL_MAX_BYTES", 16_000)
    join = graph_mod.pagerank(ds, iters=3, tol=None).to_pandas()
    assert _tier(tiers) == "join"
    np.testing.assert_allclose(
        join.set_index("node")["rank"].loc[ids].to_numpy(),
        local.set_index("node")["rank"].loc[ids].to_numpy(), atol=1e-15)


def test_bfs_distances_layers_and_early_exit(ray_session):
    """bfs_distances must assign min-hop layers, cap at max_hops, early
    exit on an exhausted frontier, keep unreached nodes absent, and be
    block-structure invariant."""
    import pandas as pd
    import ray.data

    from chinese_open_relation_extraction_for_entgraph_ray.stages.graph import (
        bfs_distances,
    )

    # two sources s1/s2; diamond forces min-dist (x reachable from both
    # at 1); chain y1-y2-y3 tests the hop cap; q-q2 is unreachable
    edges = pd.DataFrame(
        [("s1", "x"), ("s2", "x"), ("s1", "y1"), ("y1", "y2"),
         ("y2", "y3"), ("q", "q2")],
        columns=["a", "b"])

    for parts in (1, 3):
        ds = ray.data.from_pandas(edges).repartition(parts)
        got = bfs_distances(ds, ["s1", "s2"], max_hops=2).to_pandas() \
            .set_index("node")["dist"]
        assert dict(got) == {"s1": 0, "s2": 0, "x": 1, "y1": 1, "y2": 2}

    full = bfs_distances(ray.data.from_pandas(edges), ["s1", "s2"],
                         max_hops=10).to_pandas().set_index("node")["dist"]
    assert dict(full) == {"s1": 0, "s2": 0, "x": 1, "y1": 1, "y2": 2,
                          "y3": 3}    # early exit after layer 3, q absent


def test_sssp_distances_weighted_min_and_round_cap(ray_session):
    """sssp_distances must take the lighter multi-edge path over the
    heavier direct edge, respect the <=rounds path-length cap exactly
    (Bellman-Ford semantics), keep unreached nodes absent, and be
    block-structure invariant."""
    import pandas as pd
    import ray.data

    from chinese_open_relation_extraction_for_entgraph_ray.stages.graph import (
        sssp_distances,
    )

    # s->a direct costs 10; s->b->a costs 2 (needs 2 edges); c hangs off a
    # (lightest path s-b-a-c = 3 needs 3 edges); q->q2 unreachable from s
    edges = pd.DataFrame(
        [("s", "a", 10.0), ("s", "b", 1.0), ("b", "a", 1.0),
         ("a", "c", 1.0), ("q", "q2", 1.0)],
        columns=["src", "dst", "w"])

    for parts in (1, 3):
        ds = ray.data.from_pandas(edges).repartition(parts)
        got = dict(sssp_distances(ds, ["s"], rounds=2).to_pandas()
                   .set_index("node")["dist"])
        # rounds=2: a relaxes to 2 via b, but c only sees the round-1
        # a=10 carrier -> 11 (the 3-edge path needs a third round)
        assert got == {"s": 0.0, "a": 2.0, "b": 1.0, "c": 11.0}

    got3 = dict(sssp_distances(ray.data.from_pandas(edges), ["s"],
                               rounds=3).to_pandas()
                .set_index("node")["dist"])
    assert got3 == {"s": 0.0, "a": 2.0, "b": 1.0, "c": 3.0}
    assert "q2" not in got3       # unreached stays absent


def test_k_truss_cascade_support_and_guard(ray_session):
    """k_truss must peel by triangle support with a cascade (removing one
    edge's support collapses dependents), report the converged subgraph's
    support values, reject k < 3, and be block-structure invariant."""
    import pandas as pd
    import pytest
    import ray.data

    from chinese_open_relation_extraction_for_entgraph_ray.stages.graph import (
        k_truss,
    )

    # K4 on c0..c3 (every edge in 2 triangles) + a pendant triangle
    # c3-p0-p1 whose edges sit in exactly 1 triangle: at k=4 the pendant
    # peels away (support 1 < 2), leaving the K4 with support 2.
    k4 = [(f"c{i}", f"c{j}") for i in range(4) for j in range(i + 1, 4)]
    pendant = [("c3", "p0"), ("c3", "p1"), ("p0", "p1")]
    edges = pd.DataFrame(k4 + pendant, columns=["a", "b"])

    for parts in (1, 4):
        ds = ray.data.from_pandas(edges).repartition(parts)
        got = (k_truss(ds, k=4).to_pandas()
               .sort_values(["a", "b"]).reset_index(drop=True))
        assert len(got) == 6 and set(got.a) | set(got.b) == \
            {"c0", "c1", "c2", "c3"}
        assert (got.support == 2).all()

    # k above any support -> empty truss; k < 3 -> loud
    assert len(k_truss(ray.data.from_pandas(edges), k=5)
               .to_pandas()) == 0
    with pytest.raises(ValueError, match="k >= 3"):
        k_truss(ray.data.from_pandas(edges), k=2)


def test_triangle_key_separator_is_collision_safe(ray_session):
    """ADVICE r4: '|'-bearing node ids collided in the packed wedge/edge
    join key ('x|y'+'z' == 'x'+'y|z'), closing false triangles.  The
    separator is now \\x1f and pack sites assert nodes are
    separator-free: the pipe graph below must close NO triangle, and a
    node containing \\x1f itself must raise loudly."""
    import pandas as pd
    import pytest
    import ray.data

    from chinese_open_relation_extraction_for_entgraph_ray.stages.graph import (
        enumerate_triangles,
    )

    # wedge ('x', 'x|y', 'y') packs b|c as 'x|y\x1fy'; the edge ('x|y',
    # 'y') packs as 'x|y\x1fy' too -> that IS a real triangle.  The
    # collision case is the non-edge: wedge ('a', 'x', 'y|z') vs edge
    # ('x|y', 'z') — under '|' both packed to 'x|y|z', closing a false
    # triangle; under \x1f they differ.
    edges = pd.DataFrame(
        [("a", "x"), ("a", "y|z"), ("x|y", "z")],
        columns=["a", "b"])
    got = enumerate_triangles(
        ray.data.from_pandas(edges).repartition(2).materialize()) \
        .to_pandas()
    assert len(got) == 0

    bad = pd.DataFrame([("a", "b\x1fc"), ("a", "d"), ("b\x1fc", "d")],
                       columns=["a", "b"])
    with pytest.raises(Exception, match="separator"):
        enumerate_triangles(
            ray.data.from_pandas(bad).materialize()).to_pandas()


def test_betweenness_from_sources_path_graph(ray_session):
    """Hand-worked Brandes on the path a-b-c-d-e from source a: delta
    accumulates (1+delta(next))/1 down the chain; the max_hops bound
    truncates contributions through deeper nodes."""
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.graph import (
        betweenness_from_sources,
    )

    edges = rd.from_items([
        {"a": "a", "b": "b"}, {"a": "b", "b": "c"},
        {"a": "c", "b": "d"}, {"a": "d", "b": "e"},
    ])
    got = {r["entity"]: r["betweenness"]
           for r in betweenness_from_sources(edges, ["a"],
                                             max_hops=4).take_all()}
    assert got == {"b": 3.0, "c": 2.0, "d": 1.0, "e": 0.0}

    # depth bound: e (hop 4) excluded; d becomes the zero-delta frontier
    got3 = {r["entity"]: r["betweenness"]
            for r in betweenness_from_sources(edges, ["a"],
                                              max_hops=3).take_all()}
    assert got3 == {"b": 2.0, "c": 1.0, "d": 0.0}


def test_betweenness_two_sources_sum(ray_session):
    """Star graph hub: every source's dependency passes through the hub;
    contributions from multiple pivots add."""
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.graph import (
        betweenness_from_sources,
    )

    edges = rd.from_items([{"a": "h", "b": x} for x in "pqr"])
    got = {r["entity"]: r["betweenness"]
           for r in betweenness_from_sources(edges, ["p", "q"],
                                             max_hops=3).take_all()}
    # from p: delta(h) = (1+0)/1 + (1+0)/1 = 2 (q and r hang off h);
    # same from q; leaves get 0 from each run they appear in
    assert got == {"h": 4.0, "p": 0.0, "q": 0.0, "r": 0.0}


def test_modularity_hand_checked_two_triangles(ray_session):
    """Two 3-cliques joined by one bridge, labeled by clique: m=7,
    each community intra=3 / degree_sum=7 -> q_contrib = 3/7 - (7/14)^2
    = 0.178571 each, Q = 0.357143.  An unlabeled pendant's edge must be
    excluded (labeled-subgraph convention); a partition whose labeled
    subgraph has no edges yields NULL q_contrib."""
    import pandas as pd
    import ray.data

    from chinese_open_relation_extraction_for_entgraph_ray.stages.graph import (
        modularity,
    )

    edges = pd.DataFrame(
        {"a": ["a1", "a2", "a3", "b1", "b2", "b3", "a1", "a2"],
         "b": ["a2", "a3", "a1", "b2", "b3", "b1", "b1", "c"]})
    labels = pd.DataFrame(
        {"node": ["a1", "a2", "a3", "b1", "b2", "b3"],
         "label": [0, 0, 0, 1, 1, 1]})
    out = modularity(ray.data.from_pandas(edges),
                     ray.data.from_pandas(labels)) \
        .to_pandas().set_index("label").sort_index()
    assert list(out.n_nodes) == [3, 3]
    assert list(out.intra_edges) == [3, 3]
    assert list(out.degree_sum) == [7, 7]
    assert list(out.q_contrib) == [0.178571, 0.178571]

    # no edges between labeled nodes -> m=0 -> NULL contributions
    import numpy as np

    lonely = pd.DataFrame({"node": ["x", "y"], "label": [0, 1]})
    out0 = modularity(ray.data.from_pandas(edges),
                      ray.data.from_pandas(lonely)).to_pandas()
    assert len(out0) == 2 and out0.q_contrib.isna().all()
    assert (out0.degree_sum == 0).all()
