"""Connected components over pair streams vs a single-process union-find."""

import pytest

from chinese_open_relation_extraction_for_entgraph_ray.stages import cluster


def _union_find(pairs):
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


CASES = [
    # chain + star + two components + a reversed dup pair in one graph
    # (chains are the adversarial case for pairwise dropping; the star and
    # the reversed pair exercise fan-in and symmetric input)
    [(1, 2), (2, 3), (3, 4)]
    + [(10, i) for i in range(11, 16)]
    + [(20, 21), (30, 31), (31, 30)]
    + [(100 + i, 101 + i) for i in range(6)],
]


@pytest.mark.parametrize("pairs", CASES)
@pytest.mark.parametrize("local_cc_threshold", [0, 10 ** 6],
                         ids=["distributed", "local"])
def test_connected_components_match_union_find(ray_session, pairs,
                                               monkeypatch,
                                               local_cc_threshold):
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.cluster import (
        connected_components,
    )

    monkeypatch.setattr(cluster, "LOCAL_CC_THRESHOLD", local_cc_threshold)
    ds = rd.from_items([{"a": a, "b": b} for a, b in pairs]).repartition(3)
    got = {r["node"]: r["component"]
           for r in connected_components(ds).take_all()}
    want = _union_find(pairs)
    assert got == want


def test_connected_components_local_vs_distributed_random(ray_session,
                                                          monkeypatch):
    """A/B: the local union-find fast path and the distributed rounds give
    identical components on a random graph with chains and cliques."""
    import numpy as np
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.cluster import (
        connected_components,
    )

    rng = np.random.RandomState(7)
    pairs = [(int(a), int(b))
             for a, b in rng.randint(0, 400, size=(300, 2)) if a != b]
    ds = rd.from_items([{"a": a, "b": b} for a, b in pairs]).repartition(4)
    local = {r["node"]: r["component"]
             for r in connected_components(ds).take_all()}
    monkeypatch.setattr(cluster, "LOCAL_CC_THRESHOLD", 0)
    dist = {r["node"]: r["component"]
            for r in connected_components(ds).take_all()}
    assert local == dist == _union_find(pairs)


@pytest.mark.parametrize("local_cc_threshold", [0, 10 ** 6],
                         ids=["distributed", "local"])
def test_connected_components_str_matches_union_find(ray_session,
                                                     monkeypatch,
                                                     local_cc_threshold):
    """String-keyed CC: hash-int rounds inside, min-STRING representative
    outside — parity with a string union-find on chains/stars/dups."""
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.cluster import (
        connected_components_str,
    )

    pairs = ([("p.a", "p.b"), ("p.b", "p.c"), ("p.c", "p.d")]
             + [("hub", f"leaf{i}") for i in range(5)]
             + [("x", "y"), ("y", "x"), ("lone1", "lone2")])
    monkeypatch.setattr(cluster, "LOCAL_CC_THRESHOLD", local_cc_threshold)
    ds = rd.from_items([{"a": a, "b": b} for a, b in pairs]).repartition(3)
    got = {r["node"]: r["component"]
           for r in connected_components_str(ds).take_all()}
    assert got == _union_find(pairs)


def test_connected_components_str_empty(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.cluster import (
        connected_components_str,
    )

    empty = rd.from_arrow(pa.table({"a": pa.array([], pa.string()),
                                    "b": pa.array([], pa.string())}))
    assert connected_components_str(empty).count() == 0


def test_dedup_cluster_representatives_chain(ray_session):
    """The cluster closer keeps exactly one doc per component — including
    on chains where pairwise b-dropping over-keeps."""
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.cluster import (
        dedup_cluster_representatives,
    )

    pairs = [(1, 2), (2, 3), (3, 4), (7, 8)]
    ds = rd.from_items([{"a": a, "b": b} for a, b in pairs])
    rows = dedup_cluster_representatives(ds).take_all()
    keep = sorted(r["node"] for r in rows if r["keep"])
    drop = sorted(r["node"] for r in rows if not r["keep"])
    assert keep == [1, 7]
    assert drop == [2, 3, 4, 8]
