"""KG-construction benchmark: ``build_kg`` over seeded transcripts.

    python3 perfbench/run.py --workload kg_repeat --seed 1 --seconds 40 --trace 0

Run from the repository root.  With ``--trace 0`` it runs closed-loop jobs
for ``--seconds``: each job is one fresh 4-CPU Ray session (a child process,
see ``job.py``) that times set-up and one cold ``build_kg`` and checks the
outputs.  It prints the end-to-end metrics, each the median over the jobs.
With ``--trace 1`` it instead makes one single-process layer run with a
span per layer call and one distributed job with the trace extras, and
prints the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the per-job details.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import job

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = "chinese_open_relation_extraction_for_entgraph_ray"
WORK = os.path.join(HERE, "_work")
# Ray's temp dir: as short as possible, because Ray puts Unix sockets under
# it ("<dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store", up
# to 64 more bytes) and a socket path may not exceed 107 bytes
RAY_TMP = os.path.join(ROOT, ".r")
MAX_RAY_TMP_LEN = 107 - 64

OBJECT_STORE_BYTES = 1_000_000_000
RUN_LIMIT_S = 170          # a run, set-up included, must end by then
JOB_TIMEOUT_S = 120        # one job (session + build + checks) at most
MIN_JOBS = 3               # jobs per timed run, however long they take

END_TO_END = {
    "kg_wall_s": "s",
    "triples_per_s": "triples/s",
    "kg_cpu_s": "CPU-s",
    "setup_s": "s",
    "mem_hwm_mb": "MB",
    "ops_ok_frac": "ratio",
}

_LAYER_UNITS = {
    "preprocess.cpu_s": "CPU-s", "preprocess.turns_in": "rows",
    "preprocess.sentences_out": "rows",
    "parse.cpu_s": "CPU-s", "parse.distinct_frac": "ratio",
    "parse.fallback_rows": "rows",
    "extract.cpu_s": "CPU-s", "extract.triples_out": "rows",
    "link.cpu_s": "CPU-s", "link.linked_frac": "ratio",
    "combine.cpu_s": "CPU-s", "combine.collapse_frac": "ratio",
}
_STAGE_UNITS = {"wall_s": "s", "rows": "rows", "bytes": "bytes"}
_OP_UNITS = {"busy_s": "s", "wait_s": "s", "tasks": "count",
             "tasks_failed": "count", "rows_out": "rows", "spilled_mb": "MB",
             "max_uss_mb": "MB"}
#: stages every workload writes; kg_staged also writes sentences and parses
COMMON_STAGES = ("triples", "edges", "entities")

PER_LAYER = dict(_LAYER_UNITS)
PER_LAYER.update({f"stage.{s}.{f}": u for s in COMMON_STAGES
                  for f, u in _STAGE_UNITS.items()})
PER_LAYER.update({f"op.{o}.{f}": _OP_UNITS[f] for o in job.OP_NAMES
                  for f in job.OP_FIELDS})
PER_LAYER.update({"cluster.cpu_util": "ratio", "kg.orchestration_s": "s",
                  "host.steal_s": "s", "host.iowait_s": "s",
                  "host.load1": "count"})


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def preflight(num_cpus: int) -> None:
    """Refuse set-ups that cannot give a valid run, before any work."""
    if num_cpus < 2:
        fail(f"--num-cpus {num_cpus} refused: on a 1-CPU Ray session "
             "build_kg stalls (the parse actor pool holds the only CPU and "
             "the task operators feeding it never get scheduled)")
    if not os.path.isdir(os.path.join(ROOT, PACKAGE)):
        fail(f"package {PACKAGE} not found under {ROOT}; run from a checkout "
             "of the repository")
    if len(os.path.abspath(RAY_TMP)) > MAX_RAY_TMP_LEN:
        fail(f"checkout path too long for Ray's socket paths: {RAY_TMP}")


def become_subreaper() -> None:
    """Orphaned Ray processes of a killed job re-parent to this process
    (not to init), so they can be found, stopped and reaped."""
    PR_SET_CHILD_SUBREAPER = 36
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def stop_descendants() -> None:
    """SIGKILL every process below this one and wait until each has ended
    (giving up after ~10 s on a process that cannot be killed)."""
    me = os.getpid()
    for _ in range(200):
        pids = [p for p in job.process_tree(me) if p != me]
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass          # not our child: its own parent reaps it
        time.sleep(0.05)


def program_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, PACKAGE, "**", "*.py"),
                                 recursive=True)):
        with open(path, "rb") as fp:
            h.update(fp.read())
    return h.hexdigest()[:12]


def _ref_path(input_dir: str) -> str:
    return os.path.join(WORK, "refs", f"{os.path.basename(input_dir)}-"
                                      f"{program_fingerprint()}.json")


def load_reference(input_dir: str, workers: int) -> dict:
    """Cached layer-run digest of the input, computed on first use."""
    import layers

    path = _ref_path(input_dir)
    if os.path.exists(path):
        with open(path) as fp:
            return json.load(fp)
    ref = layers.reference_digest(input_dir, workers)
    save_json(path, ref)
    return ref


def save_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as fp:
        json.dump(obj, fp, ensure_ascii=False)
    os.replace(tmp, path)


def run_jobs(spec: dict, t_start: float, tag: str) -> list[dict]:
    """Jobs in one child process.  A job that overruns ``JOB_TIMEOUT_S`` or
    the run's time limit is killed, with every Ray process, and recorded as
    failed."""
    import workloads

    shutil.rmtree(RAY_TMP, ignore_errors=True)
    os.makedirs(RAY_TMP)
    spec_path = os.path.join(WORK, "job-spec.json")
    results_path = os.path.join(WORK, "job-results.jsonl")
    run_deadline = t_start + RUN_LIMIT_S
    spec = dict(spec, out=os.path.join(WORK, "kg_out"), ray_tmp=RAY_TMP,
                object_store_bytes=OBJECT_STORE_BYTES,
                checkpoints=workloads.CHECKPOINTS[spec["workload"]],
                latest_start_s=run_deadline - time.perf_counter()
                - JOB_TIMEOUT_S / 4)
    save_json(spec_path, spec)
    if os.path.exists(results_path):
        os.remove(results_path)
    env = dict(os.environ)
    # workers import the package from the checkout whatever the caller's cwd
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.pop("RAY_ADDRESS", None)       # always a fresh local session
    seen, job_deadline, overran = 0, time.perf_counter() + JOB_TIMEOUT_S, False
    with open(os.path.join(WORK, f"job-{tag}.log"), "w") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "job.py"), spec_path,
             results_path], stdout=log, stderr=log, env=env, cwd=ROOT)
        while True:
            try:
                proc.wait(timeout=0.5)
                break
            except subprocess.TimeoutExpired:
                pass
            done = len(_read_lines(results_path))
            if done > seen:
                seen, job_deadline = done, time.perf_counter() + JOB_TIMEOUT_S
            if time.perf_counter() > min(job_deadline, run_deadline):
                overran = True
                break
    stop_descendants()
    results = _read_lines(results_path)
    if overran:
        results.append({"ok": False, "errors": ["job did not finish in time"]})
    elif not results:
        results.append({"ok": False, "errors": [
            f"job process exited with code {proc.returncode} and no result; "
            f"see {log.name}"]})
    shutil.rmtree(RAY_TMP, ignore_errors=True)
    return results


def _read_lines(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path) as fp:
        return [json.loads(line) for line in fp if line.endswith("\n")]


def _summary(res: dict) -> dict:
    keep = ("ok", "errors", "setup_s", "kg_wall_s", "kg_cpu_s", "mem_hwm_mb",
            "counts", "host", "stage_wall_s")
    return {k: res[k] for k in keep if k in res}


def timed_runs(args, input_dir: str, reference: dict, t_start: float):
    """Closed loop: the next job starts when the previous one has ended."""
    jobs = run_jobs({"workload": args.workload, "input": input_dir,
                     "num_cpus": args.num_cpus, "reference": reference,
                     "trace": False, "seconds": args.seconds,
                     "min_jobs": MIN_JOBS}, t_start, "timed")
    good = [j for j in jobs if j["ok"]]
    per_job = {
        "kg_wall_s": [j["kg_wall_s"] for j in good],
        "triples_per_s": [j["counts"]["triples"] / j["kg_wall_s"] for j in good],
        "kg_cpu_s": [j["kg_cpu_s"] for j in good],
        "setup_s": [j["setup_s"] for j in good],
        "mem_hwm_mb": [j["mem_hwm_mb"] for j in good],
    }
    failed = len(jobs) - len(good)
    metrics = {k: statistics.median(v) if v else None for k, v in per_job.items()}
    metrics["ops_ok_frac"] = len(good) / len(jobs)
    detail = {"jobs": [_summary(j) for j in jobs],
              "ops_failed_frac": failed / len(jobs),
              "quartiles": {k: statistics.quantiles(v, n=4) if len(v) > 1 else v
                            for k, v in per_job.items()}}
    return metrics, END_TO_END, len(jobs), failed, detail


def traced_run(args, input_dir: str):
    """Single-process layer run with spans, then one distributed job."""
    import layers

    tracer = layers.Tracer()
    files = sorted(glob.glob(os.path.join(input_dir, "*.parquet")))
    counts = layers.layer_run(files, tracer)
    reference = {"rows": counts["rows"], "hash": counts["hash"]}
    save_json(_ref_path(input_dir), reference)
    metrics = layers.layer_metrics(counts, tracer)

    res = run_jobs({"workload": args.workload, "input": input_dir,
                    "num_cpus": args.num_cpus, "reference": reference,
                    "trace": True, "seconds": 0, "min_jobs": 1},
                   time.perf_counter(), "trace")[0]
    if res["ok"]:
        walls = res["stage_wall_s"]
        for stage, man in res["lineage"].items():
            metrics[f"stage.{stage}.wall_s"] = walls.get(stage, 0.0)
            metrics[f"stage.{stage}.rows"] = man["rows"]
            metrics[f"stage.{stage}.bytes"] = man["bytes"]
        metrics.update(res["operators"])
        metrics["cluster.cpu_util"] = res["kg_cpu_s"] / (
            res["kg_wall_s"] * args.num_cpus)
        metrics["kg.orchestration_s"] = res["kg_wall_s"] - sum(walls.values())
        metrics.update({f"host.{k}": v for k, v in res["host"].items()})
    trace = {"workload": args.workload, "seed": args.seed,
             "scale": args.scale, "spans": tracer.spans, "metrics": metrics,
             "job": _summary(res), "lineage": res.get("lineage")}
    save_json(os.path.join(WORK, "trace",
                           f"{args.workload}-s{args.seed}-x{args.scale:g}.json"),
              trace)
    detail = {"metrics": metrics, "job": _summary(res)}
    return metrics, PER_LAYER, 1, 0 if res["ok"] else 1, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size relative to the benchmark's (tests)")
    ap.add_argument("--num-cpus", type=int, default=4)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    preflight(args.num_cpus)
    become_subreaper()
    # on SIGTERM, unwind through main's finally, which stops every job process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"expected one of {', '.join(workloads.WORKLOADS)}")
    os.makedirs(WORK, exist_ok=True)
    input_dir = workloads.input_dir(WORK, args.workload, args.seed, args.scale)
    try:
        if args.trace:
            metrics, units, attempted, failed, detail = traced_run(args, input_dir)
        else:
            reference = load_reference(input_dir, min(4, args.num_cpus))
            metrics, units, attempted, failed, detail = timed_runs(
                args, input_dir, reference, t_start)
    finally:
        stop_descendants()
        shutil.rmtree(RAY_TMP, ignore_errors=True)
    detail.update(workload=args.workload, seed=args.seed, scale=args.scale,
                  num_cpus=args.num_cpus, run_s=time.perf_counter() - t_start)
    print(json.dumps(detail, ensure_ascii=False, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
