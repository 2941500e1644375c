"""Plan-robustness matrix for the dedup-sort exchange: fused
``build_kg(checkpoints="minimal")`` with the sort (``dedup_sort=True``, the
default) and without it (``False``, the reference plan) over one corpus per
sentence duplicate share {~0: ``kg_distinct``'s generator, 8,000 sentences;
~0.5: 4,000 distinct sentences, each turn emitted twice; ~0.96:
``kg_repeat``'s generator} written as {8, 120, 600} input files.  Each
build is a fresh 4-CPU Ray session with ``perfbench``'s set-up read, so
worker start-up during the build counts as it does there; the two plans
alternate which goes first from run to run.  One JSON line per cell: the
wall of each build per plan, the sorted build's triples digest of
``perfbench/checks.py`` (compare it across checkouts), whether the unsorted
build's digest equals it, and the mismatch counts of checks (b)/(c) summed
over both plans (0 = equal to DuckDB GROUP BYs).

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


def timed_build(tdir: str, out: str, dedup_sort: bool) -> float:
    """Wall of one fused build in a fresh 4-CPU Ray session."""
    import ray
    import ray.data as rd
    from ray.data import DataContext

    import job
    from chinese_open_relation_extraction_for_entgraph_ray.pipelines.kg import (
        build_kg,
    )

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    try:
        DataContext.get_current().enable_progress_bars = False
        # perfbench's set-up read, outside the timed build
        rd.read_parquet(tdir, columns=["conv_id"]).count()
        t0 = time.perf_counter()
        build_kg(tdir, out, resume=False, checkpoints="minimal",
                 dedup_sort=dedup_sort)
        return round(time.perf_counter() - t0, 2)
    finally:
        ray.shutdown()
        job._wait_for_exit(os.getpid())


def run_cell(share: str, n_files: int, runs: int) -> dict:
    """``runs`` builds per plan over one cell, alternating the plan that
    goes first."""
    import pyarrow.compute as pc

    import checks
    from chinese_open_relation_extraction_for_entgraph_ray.stages.preprocess import (
        explode_turns,
    )

    table = corpus(share)
    texts = explode_turns(table).column("text")
    tdir = f"{OUT}/in"
    write_files(table, n_files, tdir)
    plans = {"sorted": True, "unsorted": False}
    walls = {plan: [] for plan in plans}
    for r in range(runs):
        for plan in (("sorted", "unsorted") if r % 2 == 0
                     else ("unsorted", "sorted")):
            walls[plan].append(
                timed_build(tdir, f"{OUT}/{plan}", plans[plan]))
    digests = {plan: checks.digest_stage(f"{OUT}/{plan}/triples")
               for plan in plans}
    return {
        "dup_share": share,
        "measured_share": round(1 - len(pc.unique(texts)) / len(texts), 3),
        "files": n_files, "sentences": len(texts), "wall_s": walls,
        "triples_digest": digests["sorted"],
        "digests_equal": digests["sorted"] == digests["unsorted"],
        "edges_mismatch": sum(checks.edges_mismatch(f"{OUT}/{plan}")
                              for plan in plans),
        "entities_mismatch": sum(checks.entities_mismatch(f"{OUT}/{plan}")
                                 for plan in plans)}


def main():
    os.environ["PYTHONPATH"] = ROOT   # workers import this checkout
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    for share in ("0", "0.5", "0.96"):
        for n_files in (8, 120, 600):
            print(json.dumps(run_cell(share, n_files, runs)), flush=True)
    shutil.rmtree(OUT, ignore_errors=True)


if __name__ == "__main__":
    main()
