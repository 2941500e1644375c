"""Plan-robustness matrix for the dedup-sort exchange: fused
``build_kg(checkpoints="minimal", dedup_sort=True)`` over one corpus per
sentence duplicate share {~0: ``kg_distinct``'s generator, 8,000 sentences;
~0.5: 4,000 distinct sentences, each turn emitted twice; ~0.96:
``kg_repeat``'s generator} written as {8, 120, 600} input files.  Each run
is a fresh 4-CPU Ray session with ``perfbench``'s set-up read, so worker
start-up during the build counts as it does there.  One JSON line per
cell: the wall of each build, the triples digest of ``perfbench/checks.py``
(compare it across checkouts) and the mismatch counts of its checks
(b)/(c) (0 = equal to DuckDB GROUP BYs).

Usage: python scripts/stress_dedup_sort.py [runs, default 3]
"""

import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "perfbench")]
OUT, SEED = "/tmp/stress_dedup_sort", 3


def corpus(share: str):
    import numpy as np

    import workloads

    if share == "0":
        rows = workloads._distinct_rows(SEED, 8_000)
    elif share == "0.5":
        base = workloads._distinct_rows(SEED, 4_000)
        rows = base + [(f"{r[0]}-copy", *r[1:]) for r in base]
        rows = [rows[i] for i in np.random.default_rng(SEED).permutation(
            len(rows))]
    else:
        rows = workloads._repeat_rows(SEED, workloads.REPEAT_BASE_SENTENCES,
                                      workloads.REPEAT_COPIES)
    return workloads._table(rows)


def write_files(table, n_files: int, out_dir: str) -> None:
    import numpy as np
    import pyarrow.parquet as pq

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    bounds = np.linspace(0, table.num_rows, n_files + 1).astype(int)
    for k in range(n_files):
        pq.write_table(table.slice(bounds[k], bounds[k + 1] - bounds[k]),
                       os.path.join(out_dir, f"transcripts-{k:04d}.parquet"))


def main():
    import pyarrow.compute as pc
    import ray
    import ray.data as rd
    from ray.data import DataContext

    import checks
    import job
    from chinese_open_relation_extraction_for_entgraph_ray.pipelines.kg import (
        build_kg,
    )
    from chinese_open_relation_extraction_for_entgraph_ray.stages.preprocess import (
        explode_turns,
    )

    os.environ["PYTHONPATH"] = ROOT   # workers import this checkout
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    me = os.getpid()
    for share in ("0", "0.5", "0.96"):
        table = corpus(share)
        texts = explode_turns(table).column("text")
        dup_share = 1 - len(pc.unique(texts)) / len(texts)
        for n_files in (8, 120, 600):
            tdir, out = f"{OUT}/in", f"{OUT}/kg"
            write_files(table, n_files, tdir)
            walls = []
            for _ in range(runs):
                ray.init(address="local", num_cpus=4, include_dashboard=False,
                         logging_level="ERROR")
                try:
                    DataContext.get_current().enable_progress_bars = False
                    # perfbench's set-up read, outside the timed build
                    rd.read_parquet(tdir, columns=["conv_id"]).count()
                    t0 = time.perf_counter()
                    build_kg(tdir, out, resume=False, checkpoints="minimal",
                             dedup_sort=True)
                    walls.append(round(time.perf_counter() - t0, 2))
                finally:
                    ray.shutdown()
                    job._wait_for_exit(me)
            print(json.dumps({
                "dup_share": share, "measured_share": round(dup_share, 3),
                "files": n_files, "sentences": len(texts),
                "wall_s": walls,
                "triples_digest": checks.digest_stage(f"{out}/triples"),
                "edges_mismatch": checks.edges_mismatch(out),
                "entities_mismatch": checks.entities_mismatch(out)}),
                flush=True)
    shutil.rmtree(OUT, ignore_errors=True)


if __name__ == "__main__":
    main()
