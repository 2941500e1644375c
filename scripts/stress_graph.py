"""Plan-robustness table for the link-analysis operators of
``stages/graph.py``: ``pagerank`` (4 rounds, no early stop),
``personalized_pagerank`` (weighted, 2 restart nodes, 4 rounds),
``label_propagation`` (4 rounds, every 1,000th node a seed) and ``hits``
(4 rounds) over the 15k-edge customer->order graph the correctness gate
builds (1,500 customers, 15,000 orders) and, for each ``<edges>``
argument, a seeded random graph of that many edges over 100k nodes, on a
4-CPU Ray session.  Each operator runs at its default dispatch and with
``graph.LOCAL_MAX_BYTES`` at 0 (the all-Dataset join path); one JSON line
per (graph, operator) cell gives the walls of both and their parity (max
absolute difference of every float column; label propagation must be
equal).

Usage: python scripts/stress_graph.py [--runs N] <edges>...
       e.g. python scripts/stress_graph.py 150000 2000000 5000000
"""

import argparse
import contextlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
N_NODES, BLOCK_ROWS = 100_000, 250_000


def customer_order():
    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(15_000)
    cust = rng.integers(0, 1_500, 15_000)
    return pa.table({"src": pa.array([f"c{c}" for c in cust]),
                     "dst": pa.array([f"o{i}" for i in range(15_000)])})


def random_graph(n_edges: int):
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    rng = np.random.default_rng(n_edges)
    names = pa.array([f"n{i}" for i in range(N_NODES)])
    ends = [pc.take(names, pa.array(rng.integers(0, N_NODES, n_edges)))
            for _ in range(2)]
    return pa.table({"src": ends[0], "dst": ends[1]})


def operators(tbl, nodes):
    """(name, run) for each operator over the (src, dst, w) edge table
    ``tbl`` whose sorted distinct node ids are ``nodes``; ``run`` takes a
    Ray Dataset of ``tbl``'s blocks and returns the result's pandas frame
    sorted by node."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages import graph

    seeds = rd.from_arrow(pa.table({
        "node": pa.array(nodes[::1_000]),
        "label": pa.array(np.arange(len(nodes[::1_000])) % 7, pa.int64())}))
    restart = tbl.column("src").slice(0, 2).to_pylist()

    def done(ds):
        return ds.to_pandas().sort_values("node").reset_index(drop=True)

    return [
        ("pagerank", lambda ds: done(graph.pagerank(ds, iters=4, tol=None))),
        ("personalized_pagerank", lambda ds: done(graph.personalized_pagerank(
            ds, restart, weight="w", iters=4))),
        ("label_propagation", lambda ds: done(graph.label_propagation(
            ds.rename_columns({"src": "a", "dst": "b"}), seeds, rounds=4))),
        ("hits", lambda ds: done(graph.hits(ds, iters=4))),
    ]


@contextlib.contextmanager
def join_path():
    from chinese_open_relation_extraction_for_entgraph_ray.stages import graph

    saved, graph.LOCAL_MAX_BYTES = graph.LOCAL_MAX_BYTES, 0
    try:
        yield
    finally:
        graph.LOCAL_MAX_BYTES = saved


def parity(a, b) -> float | bool:
    """Max absolute difference of the float columns, or label equality."""
    if list(a.node) != list(b.node):
        return False
    if "label" in a:
        return bool((a.label == b.label).all() and (a.is_seed == b.is_seed)
                    .all())
    return max(float((a[c] - b[c]).abs().max() or 0.0)
               for c in a.columns if c != "node")


def main():
    import numpy as np
    import pyarrow as pa
    import ray

    ap = argparse.ArgumentParser()
    ap.add_argument("edges", nargs="*", type=int)
    ap.add_argument("--runs", type=int, default=1)
    args = ap.parse_args()
    os.environ["PYTHONPATH"] = ROOT   # workers import this checkout
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    graphs = [("customer_order", customer_order())] + [
        ("random", random_graph(n)) for n in args.edges]
    for shape, tbl in graphs:
        nodes = np.unique(np.concatenate(
            [tbl.column(c).to_numpy(zero_copy_only=False)
             for c in ("src", "dst")]))
        tbl = tbl.append_column("w", pa.array(
            np.random.default_rng(len(tbl)).uniform(0.1, 2.0, len(tbl))))
        blocks = [tbl.slice(i, BLOCK_ROWS)
                  for i in range(0, len(tbl), BLOCK_ROWS)]
        for op, run in operators(tbl, nodes):
            walls, out = {"default": [], "join": []}, {}
            for _ in range(args.runs):
                for tier in walls:
                    ds = rd.from_arrow(blocks).materialize()
                    with (join_path() if tier == "join"
                          else contextlib.nullcontext()):
                        t0 = time.perf_counter()
                        out[tier] = run(ds)
                        walls[tier].append(
                            round(time.perf_counter() - t0, 2))
            print(json.dumps({
                "shape": shape, "edges": len(tbl), "nodes": len(nodes),
                "op": op,
                "default_s": walls["default"], "join_s": walls["join"],
                "parity": parity(out["default"], out["join"])}), flush=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
