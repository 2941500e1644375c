"""Benchmark jobs: each a fresh Ray session, one timed ``build_kg``, checks.

Run as a child process by ``run.py`` so that a hung build can be killed and
every Ray process of the session goes with it:

    python3 perfbench/job.py <spec.json> <results.jsonl>

The spec names the input, output and Ray temp directories, the checkpoint
mode, the reference digest, how long to keep starting jobs and whether to
collect the trace extras.  Each result line holds one job's timings, the
host conditions during its build, the check outcome and, when traced, the
stage walls, lineage manifests and Ray Data operator records.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import re
import shutil
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

import checks  # noqa: E402

TICK = os.sysconf("SC_CLK_TCK")

# ---------------------------------------------------------------- /proc reads


def _proc_stat(pid: int) -> tuple[int, int] | None:
    """(ppid, utime+stime+cutime+cstime in ticks) of one process."""
    try:
        with open(f"/proc/{pid}/stat") as fp:
            raw = fp.read()
    except OSError:
        return None
    fields = raw[raw.rindex(")") + 2:].split()
    # fields[0] is the state (stat field 3); ppid is field 4, times 14-17
    return int(fields[1]), sum(int(x) for x in fields[11:15])


def process_tree(root: int) -> dict[int, int]:
    """{pid: cpu ticks} for ``root`` and all its descendants.  A child's
    ticks move into its parent's cutime/cstime when it is reaped, so the sum
    over the tree only grows."""
    stats = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _proc_stat(int(name))
            if st is not None:
                stats[int(name)] = st
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in stats.items():
        children.setdefault(ppid, []).append(pid)
    tree, todo = {}, [root]
    while todo:
        pid = todo.pop()
        if pid in stats:
            tree[pid] = stats[pid][1]
            todo.extend(children.get(pid, ()))
    return tree


def worker_hwm_mb(root: int) -> float:
    """Sum of peak RSS over the session's Ray worker processes."""
    total_kb = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fp:
                cmd = fp.read()
            if not (cmd.startswith(b"ray::") or b"default_worker.py" in cmd):
                continue
            with open(f"/proc/{pid}/status") as fp:
                for line in fp:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def host_times() -> dict:
    """Host-wide steal and iowait seconds so far (summed over CPUs)."""
    with open("/proc/stat") as fp:
        cpu = fp.readline().split()
    return {"steal_s": int(cpu[8]) / TICK, "iowait_s": int(cpu[5]) / TICK}


def _running(pid: int) -> bool:
    """False once a process has exited, zombie or gone."""
    try:
        with open(f"/proc/{pid}/stat") as fp:
            raw = fp.read()
    except OSError:
        return False
    return raw[raw.rindex(")") + 2] != "Z"


def _wait_for_exit(root: int, timeout: float = 10.0) -> None:
    """Wait until the session's processes have exited, so a next job's
    set-up does not overlap this one's teardown."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline and any(
            _running(p) for p in process_tree(root) if p != root):
        time.sleep(0.05)


def load1() -> float:
    with open("/proc/loadavg") as fp:
        return float(fp.read().split()[0])


# ------------------------------------------------- Ray Data operator records

_OP_LINE = re.compile(r"Operator (\S+\[.*\]) completed\. Operator Metrics:")
_TS = re.compile(r"^(\d{4}-\d\d-\d\d \d\d:\d\d:\d\d),(\d{3})")
_FIELD = re.compile(r"'(\w+)': (None|[-+0-9.e]+)")


def _stamp(line: str) -> float | None:
    m = _TS.match(line)
    if not m:
        return None
    return time.mktime(time.strptime(m.group(1), "%Y-%m-%d %H:%M:%S")) \
        + int(m.group(2)) / 1000.0


def operator_records(log_path: str) -> list[dict]:
    """Every ``Operator <label> completed`` record of a ray-data.log, in
    order, with the dataset it belongs to, its completion time and its
    numeric metrics (the dict on the following line)."""
    records = []
    dataset = None
    prev_done = None
    with open(log_path, errors="replace") as fp:
        lines = fp.readlines()
    for i, line in enumerate(lines):
        if "Starting execution of Dataset" in line:
            dataset = line.split("Starting execution of Dataset", 1)[1].split(".")[0].strip()
            prev_done = _stamp(line)
            continue
        m = _OP_LINE.search(line)
        if not m or i + 1 >= len(lines):
            continue
        done = _stamp(line)
        fields = {k: (0.0 if v == "None" else float(v))
                  for k, v in _FIELD.findall(lines[i + 1])}
        records.append({"dataset": dataset, "label": m.group(1),
                        "span_s": (done - prev_done) if done and prev_done else 0.0,
                        "metrics": fields})
        prev_done = done
    return records


def _op_name(label: str, dataset_labels: str) -> str | None:
    """Logical operator name for a Ray Data operator label, or None."""
    if "filtered_partials" in dataset_labels or "block_agg" in label:
        if label == "AllToAllOperator[Sort]":
            return "edges_sort"
        if "block_agg" in label:
            return "edges_block_agg"
        return None
    if "explode_mentions" in dataset_labels:
        return "entities_aggregate" if label == "AllToAllOperator[Aggregate]" else None
    if "explode_turns" in label:
        return "read_explode"
    if label == "AllToAllOperator[Sort]" or "add_hash" in label:
        return "dedup_sort"
    if "TemplateParserActor" in label:
        return "parse_pool"
    if "extract_with_config" in label:
        return "extract_link_write"
    return None


OP_NAMES = ("read_explode", "dedup_sort", "parse_pool", "extract_link_write",
            "edges_sort", "edges_block_agg", "entities_aggregate")
OP_FIELDS = ("busy_s", "wait_s", "tasks", "tasks_failed", "rows_out",
             "spilled_mb", "max_uss_mb")


def operator_metrics(records: list[dict]) -> dict:
    """``op.<name>.<field>`` for every logical operator, summed over the Ray
    operators it ran as.  Ray 2.49 tracks no tasks for all-to-all operators
    (sort, aggregate), so their busy time is their span: from the previous
    operator's completion to their own."""
    labels_by_ds: dict = {}
    for r in records:
        labels_by_ds[r["dataset"]] = labels_by_ds.get(r["dataset"], "") + r["label"]
    out = {f"op.{n}.{f}": 0.0 for n in OP_NAMES for f in OP_FIELDS}
    for r in records:
        name = _op_name(r["label"], labels_by_ds[r["dataset"]])
        if name is None:
            continue
        m = r["metrics"]
        p = f"op.{name}."
        all_to_all = r["label"].startswith("AllToAllOperator")
        out[p + "busy_s"] += r["span_s"] if all_to_all else m.get("block_generation_time", 0.0)
        out[p + "wait_s"] += (m.get("task_submission_backpressure_time", 0.0)
                              + m.get("task_output_backpressure_time", 0.0))
        out[p + "tasks"] += m.get("num_tasks_finished", 0.0)
        out[p + "tasks_failed"] += m.get("num_tasks_failed", 0.0)
        # rows leave a logical operator through its last Ray operator
        out[p + "rows_out"] = (m.get("rows_task_outputs_generated", 0.0)
                               or m.get("row_outputs_taken", 0.0))
        out[p + "spilled_mb"] += m.get("obj_store_mem_spilled", 0.0) / 1e6
        out[p + "max_uss_mb"] = max(out[p + "max_uss_mb"],
                                    m.get("average_max_uss_per_task", 0.0) / 1e6)
    return out


# ------------------------------------------------------------------ the job


def _stage_lineage(out_dir: str) -> dict:
    lineage = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*", "_lineage.json"))):
        with open(path) as fp:
            man = json.load(fp)
        lineage[man["stage"]] = {
            "rows": man["total_rows"],
            "bytes": sum(p["bytes"] for p in man["partitions"]),
            "metrics": man.get("metrics", {})}
    return lineage


def run_job(spec: dict) -> dict:
    import ray
    import ray.data as rd
    from ray.data import DataContext

    from chinese_open_relation_extraction_for_entgraph_ray.pipelines.kg import build_kg

    res = {"ok": False, "errors": []}
    me = os.getpid()
    t0 = time.perf_counter()
    ray.init(num_cpus=spec["num_cpus"], include_dashboard=False,
             logging_level="ERROR", _temp_dir=spec["ray_tmp"],
             object_store_memory=spec["object_store_bytes"])
    try:
        DataContext.get_current().enable_progress_bars = False
        rd.read_parquet(spec["input"], columns=["conv_id"]).count()
        res["setup_s"] = time.perf_counter() - t0

        host0, cpu0 = host_times(), sum(process_tree(me).values())
        t1 = time.perf_counter()
        out = build_kg(spec["input"], spec["out"], resume=False,
                       checkpoints=spec["checkpoints"], dedup_sort=True)
        counts = {k: out[k].count() for k in ("triples", "edges", "entities")}
        res["kg_wall_s"] = time.perf_counter() - t1
        cpu1, host1 = sum(process_tree(me).values()), host_times()
        res["kg_cpu_s"] = (cpu1 - cpu0) / TICK
        res["mem_hwm_mb"] = worker_hwm_mb(me)
        res["host"] = {k: host1[k] - host0[k] for k in host0}
        res["host"]["load1"] = load1()
        res["counts"] = counts
        res["stage_wall_s"] = out["_meta"]["stage_wall_sec"]

        if spec["checkpoints"] == "all":
            again = build_kg(spec["input"], spec["out"], resume=True,
                             checkpoints="all", dedup_sort=True)
            if again["_meta"]["ran_stages"]:
                res["errors"].append("(d) resume=True re-ran stages "
                                     f"{again['_meta']['ran_stages']}")
    finally:
        ray.shutdown()
        _wait_for_exit(me)

    res["errors"] += checks.check_outputs(spec["out"], spec["reference"])
    if spec["trace"]:
        res["lineage"] = _stage_lineage(spec["out"])
        log = os.path.join(spec["ray_tmp"], "session_latest", "logs",
                           "ray-data", "ray-data.log")
        res["operators"] = operator_metrics(
            operator_records(log) if os.path.exists(log) else [])
    res["ok"] = not res["errors"]
    return res


def main(argv: list[str]) -> int:
    """Run jobs back to back, appending one result line per job, until
    ``seconds`` have passed and at least ``min_jobs`` have run."""
    spec_path, results_path = argv
    # die with the runner, whose clean-up stops the Ray processes
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    with open(spec_path) as fp:
        spec = json.load(fp)
    t0 = time.perf_counter()
    n = 0
    while n < spec["min_jobs"] or time.perf_counter() - t0 < spec["seconds"]:
        if n and time.perf_counter() - t0 > spec["latest_start_s"]:
            break
        shutil.rmtree(spec["out"], ignore_errors=True)
        try:
            res = run_job(spec)
        except Exception:
            res = {"ok": False, "errors": [traceback.format_exc()]}
        with open(results_path, "a") as fp:
            fp.write(json.dumps(res) + "\n")
        n += 1
    shutil.rmtree(spec["out"], ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
