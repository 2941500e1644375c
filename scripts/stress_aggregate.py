"""Plan-robustness matrix for the KG edge / entity aggregates: seeded triples
in {64, 600, 1200} one-block inputs x {uniform: 1,000 rows/block, edges ~
rows; hot: 3,000 rows/block, half of them one triple}, through
``aggregate_edges`` + ``aggregate_entities`` on a 4-CPU Ray session, as
``build_kg`` runs them: each block is one combiner batch (in a build, one
parse batch's triples) and Ray Data's operator reservation is off.  One
JSON line per cell: the wall of each run and the mismatch counts of
``perfbench/checks.py`` (b)/(c) (0 = equal to DuckDB GROUP BYs).

Usage: python scripts/stress_aggregate.py [runs, default 3]
"""

import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "perfbench")]
OUT, N = "/tmp/stress_aggregate", 5_000   # vocabulary index N is the hot word


def make_blocks(n_blocks: int, shape: str) -> list:
    import numpy as np
    import pyarrow as pa

    words = pa.array([f"w{i}" for i in range(N)] + ["张伟"])
    ents = pa.array([w if i < 50 or i == N else None
                     for i, w in enumerate(words.to_pylist())])
    kinds = pa.array(["fine", "amend_fine", "coarse"])
    rows, blocks = (1_000 if shape == "uniform" else 3_000), []
    for b in range(n_blocks):
        rng = np.random.default_rng([n_blocks, b])
        s, p, o = (rng.integers(0, n, rows) for n in (N, 200, N))
        kind = rng.choice(3, rows, p=[0.6, 0.3, 0.1])
        if shape == "hot":
            hot = rng.random(rows) < 0.5
            s[hot], p[hot], o[hot], kind[hot] = N, N, N, 0
        blocks.append(pa.table({
            "conv_id": pa.array(rng.integers(0, 10**7, rows).astype(str)),
            "turn_idx": pa.array(rng.integers(0, 50, rows), pa.int32()),
            "rel_kind": kinds.take(kind), "subj": words.take(s),
            "pred": words.take(p), "obj": words.take(o),
            "subj_ent": ents.take(s), "obj_ent": ents.take(o)}))
    return blocks


def main():
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    import checks

    os.environ["PYTHONPATH"] = ROOT   # workers import this checkout
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.canonicalize import (
        aggregate_edges,
        aggregate_entities,
    )

    rd.DataContext.get_current().enable_progress_bars = False
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    for n_blocks in (64, 600, 1200):
        for shape in ("uniform", "hot"):
            blocks, walls = make_blocks(n_blocks, shape), []
            for _ in range(runs):
                ds = rd.from_arrow(blocks)
                # what build_kg's stage() sets on its execution's context
                ds.context.op_resource_reservation_enabled = False
                t0 = time.perf_counter()
                edges = aggregate_edges(ds).materialize()
                entities = aggregate_entities(edges).materialize()
                walls.append(round(time.perf_counter() - t0, 2))
            shutil.rmtree(OUT, ignore_errors=True)
            os.makedirs(f"{OUT}/triples")
            pq.write_table(pa.concat_tables(blocks),
                           f"{OUT}/triples/t.parquet")
            edges.write_parquet(f"{OUT}/edges")
            entities.write_parquet(f"{OUT}/entities")
            print(json.dumps({
                "shape": shape, "blocks": n_blocks,
                "rows": sum(b.num_rows for b in blocks),
                "edges": edges.count(), "wall_s": walls,
                "edges_mismatch": checks.edges_mismatch(OUT),
                "entities_mismatch": checks.entities_mismatch(OUT)}),
                flush=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
