"""Benchmark harness.

Default: run the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) under ray.init(num_cpus=$RAY_GRAFT_CPUS or 32) and print
ONE JSON line:
    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N, "triples_per_sec": ...}

--scaling: run the headline KG pipeline twice in FRESH processes at
num_cpus=8 and num_cpus=32 on the same input and report both throughputs plus
scaling efficiency T_32/(4*T_8) (the sandbox proxy for the N- vs 4N-node
cluster criterion; see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_OUT = "/tmp/entgraph_bench"


def _run_headline() -> dict:
    """KG pipeline end-to-end (transcripts -> edges/entities), cold
    checkpoints, timed; returns seconds + triple count."""
    from chinese_open_relation_extraction_for_entgraph_ray.pipelines.kg import build_kg
    from chinese_open_relation_extraction_for_entgraph_ray.sources.synthetic import (
        transcripts_dir_for_sf,
    )

    tdir = transcripts_dir_for_sf(SF_DIR)          # generated once, untimed
    out_dir = os.path.join(BENCH_OUT, f"kg_{os.path.basename(tdir)}_{NUM_CPUS}")
    shutil.rmtree(out_dir, ignore_errors=True)

    # warm the page cache so we measure compute+shuffle, not first disk read
    import ray.data as rd

    rd.read_parquet(tdir).count()

    t0 = time.perf_counter()
    res = build_kg(tdir, out_dir, resume=False, checkpoints="minimal")
    n_triples = res["triples"].count()
    n_edges = res["edges"].count()
    sec = time.perf_counter() - t0
    return {"sec": sec, "triples": n_triples, "edges": n_edges,
            "triples_per_sec": n_triples / sec if sec else 0.0}


def _timed_queries() -> dict[str, float]:
    import __ray_entry__ as entrymod

    names = ["lineitem_pricing", "events_hourly", "events_sessions",
             "docs_token_stats", "docs_exact_dedup", "docs_lang_detect",
             "minhash_candidate_pairs", "docs_similar_pairs_exact",
             "similarity_topk",
             "similarity_topk_ivf", "customer_revenue_topk",
             "events_user_cumulative_value", "docs_top_tokens",
             "docs_duplicate_spans", "docs_resample_mixture",
             "docs_dsir_weights", "docs_chunked",
             "embeddings_knn_graph", "graph_hits", "docs_word_pagerank",
             # r5 day-5 additions: deep star join, CDC compaction,
             # interval join, GNN aggregation, segmentation
             "lineitem_revenue_by_nation", "events_latest_state",
             "events_purchase_followup", "embeddings_neighborhood_agg",
             "transcripts_topic_boundaries",
             # r5 day-5 second wave: evaluation + corpus-statistics ops
             "docs_quality_lr_auc", "docs_winnowing",
             "docs_containment_pairs", "docs_zipf_fit",
             "events_decayed_popularity", "embeddings_lp_modularity",
             "transcripts_from_jsonl"]
    qs = entrymod.queries()
    out = {}
    for name in names:
        t0 = time.perf_counter()
        res = qs[name](SF_DIR)
        try:
            from ray.data import Dataset

            if isinstance(res, Dataset):
                res.count()
        except ImportError:
            pass
        out[name] = round(time.perf_counter() - t0, 3)
    return out


def _quiet_worker_logging():
    """Runs on the driver and (via worker_process_setup_hook) in every
    worker: drop the benign per-block 'Failed to hash the schemas (for
    deduplication)' warning storm (triggered by pandas-metadata dicts on
    parquet schemas inside Ray's schema-dedup fast path) so a REAL warning
    stays visible in the bench tail.  A logging.Filter, not setLevel —
    Ray Data re-runs its dictConfig per dataset, which RESETS child-logger
    levels (logging.config._handle_existing_loggers) but leaves filters
    in place."""
    import logging

    class _DropSchemaHashNoise(logging.Filter):
        def filter(self, record):
            return "Failed to hash the schemas" not in record.getMessage()

    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow").addFilter(
        _DropSchemaHashNoise())


def main():
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             runtime_env={"worker_process_setup_hook": _quiet_worker_logging})
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    _quiet_worker_logging()   # driver-side too (reduce ops log from here)

    headline = _run_headline()
    if os.environ.get("GRAFT_SKIP_QUERIES"):
        queries = {}
    else:
        queries = _timed_queries()
    queries["kg_pipeline"] = round(headline["sec"], 3)

    print(json.dumps({
        "metric": "kg_pipeline_end_to_end",
        "value": round(headline["sec"], 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "triples": headline["triples"],
        "edges": headline["edges"],
        "triples_per_sec": round(headline["triples_per_sec"], 1),
    }))
    ray.shutdown()


def _host_conditions() -> dict:
    """Loadavg + 2s steal/idle sample, so every scaling record documents
    the external-tenancy conditions it ran under (BASELINE.md: the only
    sub-0.8 efficiency readings ever observed coincide with measured
    external load on this shared VM)."""
    import time

    def cpu_ticks():
        with open("/proc/stat") as f:
            return list(map(int, f.readline().split()[1:]))

    with open("/proc/loadavg") as f:
        load1 = float(f.read().split()[0])
    a = cpu_ticks()
    time.sleep(2)
    b = cpu_ticks()
    d = [y - x for x, y in zip(a, b)]
    tot = max(sum(d), 1)
    return {"load1": load1,
            "idle_pct": round(100 * d[3] / tot, 1),
            "steal_pct": round(100 * d[7] / tot, 1) if len(d) > 7 else 0.0}


def _host_stalled(cond: dict) -> bool:
    """The documented external-I/O-stall signature on this shared VM
    (BASELINE.md forensics): loadavg inflated by D-state tasks while the
    CPU is largely idle (e.g. load1 41.3 at 99.9% idle during the r4
    degraded phase), or visible hypervisor steal.  Sampled when the bench
    itself is quiescent, so high idle alone is normal — it is the
    combination with high load1 that marks external tenancy."""
    return (cond["load1"] >= 8.0 and cond["idle_pct"] >= 70.0) \
        or cond["steal_pct"] >= 5.0


def _leg_stalled(leg: dict) -> bool:
    """DURING-leg stall signature — the only window where external
    contention can actually corrupt the measurement, and free of the
    loadavg-decay ambiguity that plagues pre/post sampling (our own
    finished 32-CPU leg inflates load1 for minutes): hypervisor steal
    while our job runs, sustained I/O wait, or our own tasks sitting in
    D-state while the CPU idles (the r4 "41.3 load at 99.9% idle"
    signature, seen from inside the run).  The steal threshold matches
    _host_stalled's long-standing 5% convention."""
    return (leg["steal_med"] >= 5.0 or leg["iowait_med"] >= 15.0
            or (leg["blocked_med"] >= 4 and leg["idle_med"] >= 50.0))


def _run_leg_monitored(ncpu: int) -> tuple[dict, dict]:
    """Run one bench leg in a subprocess while sampling /proc every 3 s;
    returns (leg json, during-leg forensic medians)."""
    import tempfile

    env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
               GRAFT_SKIP_QUERIES="1")
    # stdout/stderr go to temp FILES, not pipes: a leg that spews Ray
    # warnings past the ~64 KB pipe buffer would block in write() and
    # deadlock the poll loop below (pipes are only safe with a
    # concurrent drain, which subprocess.run provided and this loop
    # does not)
    out_f = tempfile.TemporaryFile(mode="w+")
    err_f = tempfile.TemporaryFile(mode="w+")
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                            env=env, stdout=out_f, stderr=err_f,
                            text=True)
    idles, iowaits, steals, blocked = [], [], [], []

    def ticks():
        with open("/proc/stat") as f:
            cpu = list(map(int, f.readline().split()[1:]))
            nblocked = 0
            for line in f:
                if line.startswith("procs_blocked"):
                    nblocked = int(line.split()[1])
        return cpu, nblocked

    prev, _ = ticks()
    while proc.poll() is None:
        time.sleep(3)
        cur, nb = ticks()
        d = [y - x for x, y in zip(prev, cur)]
        prev = cur
        tot = max(sum(d), 1)
        idles.append(100 * d[3] / tot)
        iowaits.append(100 * d[4] / tot)
        steals.append(100 * d[7] / tot if len(d) > 7 else 0.0)
        blocked.append(nb)
    proc.wait()
    out_f.seek(0)
    out = out_f.read()
    out_f.close()
    err_f.seek(0)
    err = err_f.read()
    err_f.close()
    if proc.returncode:
        raise RuntimeError(f"bench leg ncpu={ncpu} failed: {err[-2000:]}")

    def med(v):
        s = sorted(v)
        return round(s[len(s) // 2], 1) if s else 0.0

    leg_forensics = {"idle_med": med(idles), "iowait_med": med(iowaits),
                     "steal_med": med(steals), "blocked_med": med(blocked),
                     "n_samples": len(idles)}
    return json.loads(out.strip().splitlines()[-1]), leg_forensics


def _scaling_once() -> dict:
    """One scaling sample: same pipeline at num_cpus=8 and 32 in fresh
    monitored processes; cleanliness is judged on DURING-leg forensics
    (pre/post loadavg snapshots are recorded for continuity but do not
    enter the verdict — they cannot distinguish our own decaying load
    from external tenancy)."""
    pre = _host_conditions()
    results, leg_cond = {}, {}
    for ncpu in (8, 32):
        # per-query timings don't enter the efficiency ratio — skip them in
        # the legs to shorten each run's exposure to VM timing noise
        results[ncpu], leg_cond[ncpu] = _run_leg_monitored(ncpu)
    t8 = results[8]["value"]
    t32 = results[32]["value"]
    tput8 = results[8]["triples_per_sec"]
    tput32 = results[32]["triples_per_sec"]
    eff = tput32 / (4 * tput8) if tput8 else 0.0
    post = _host_conditions()
    return {
        "metric": "scaling_efficiency",
        "sec_8cpu": t8, "sec_32cpu": t32,
        "triples_per_sec_8cpu": tput8, "triples_per_sec_32cpu": tput32,
        "scaling_efficiency": round(eff, 3),
        "sf": SF_DIR,
        "host_pre": pre, "host_post": post,
        "leg_8cpu": leg_cond[8], "leg_32cpu": leg_cond[32],
        "host_clean": not (_leg_stalled(leg_cond[8])
                           or _leg_stalled(leg_cond[32])),
    }


def _settle(max_wait: int = 180) -> None:
    """Wait for load1 to decay below the stall threshold before sampling
    host_pre: our own just-finished 32-CPU leg inflates 1-minute loadavg
    for ~2 min even at 100% idle, which would otherwise be misread as the
    external-stall signature and burn a retry.  Persistent external load
    does NOT decay and correctly times out here."""
    t0 = time.time()
    while time.time() - t0 < max_wait:
        with open("/proc/loadavg") as f:
            if float(f.read().split()[0]) < 8.0:
                return
        time.sleep(10)


def scaling(retries: int = 1):
    """--scaling [--retry-until-clean N]: re-sample (up to N attempts)
    while the host forensics show the external-stall signature, and record
    EVERY attempt in the emitted record — the retry selects for clean
    MEASUREMENT CONDITIONS, never for a favorable ratio (an attempt with
    clean forensics is final whatever its efficiency)."""
    attempts = []
    for k in range(max(1, retries)):
        if k:
            _settle()
        rec = _scaling_once()
        attempts.append(rec)
        if rec["host_clean"]:
            break
    final = dict(attempts[-1])
    final["attempts"] = [
        {k: a[k] for k in ("scaling_efficiency", "sec_8cpu", "sec_32cpu",
                           "leg_8cpu", "leg_32cpu", "host_clean")
         if k in a}
        for a in attempts]
    print(json.dumps(final))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        n = 1
        if "--retry-until-clean" in sys.argv:
            i = sys.argv.index("--retry-until-clean")
            n = int(sys.argv[i + 1]) if len(sys.argv) > i + 1 else 3
        scaling(n)
    else:
        main()
