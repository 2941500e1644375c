"""Tests of the KG-construction benchmark itself.

    python3 -m pytest perfbench/tests -q

They pin the output schema against BENCHMARK.json, run every workload at a
tiny scale, and show that the output checks catch a corrupted build.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

import job  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = 0.05


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        return json.load(fp)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-3000:]
    detail, last = proc.stdout.strip().split("\n")[-2:]
    return json.loads(detail), json.loads(last)


def test_schema_matches_benchmark_json():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == ["kg_repeat", "kg_staged"]
    assert set(workloads.WORKLOADS) == {"kg_distinct", "kg_repeat", "kg_staged"}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert max(m["bound"] for m in bench["end_to_end"]) == setup["bound"] <= 0.25
    assert bench["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_timed_run(workload):
    detail, last = _result(_run("--workload", workload, "--seed", "5",
                                "--seconds", "1", "--trace", "0",
                                "--scale", str(TINY)))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0, detail
    assert last["attempted"] == len(detail["jobs"]) >= run.MIN_JOBS
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert detail["ops_failed_frac"] == 0
    for j in detail["jobs"]:
        assert set(j["host"]) == {"steal_s", "iowait_s", "load1"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run(workload):
    detail, last = _result(_run("--workload", workload, "--seed", "5",
                                "--seconds", "1", "--trace", "1",
                                "--scale", str(TINY)))
    assert last["correct"] and last["attempted"] == 1, detail
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.PER_LAYER
    assert all(v["value"] is not None for v in last["metrics"].values())
    m = detail["metrics"]
    staged_only = {f"stage.{s}.{f}" for s in ("sentences", "parses")
                   for f in ("wall_s", "rows", "bytes")}
    assert staged_only <= set(m) if workload == "kg_staged" \
        else not staged_only & set(m)
    assert m["op.parse_pool.tasks"] > 0 and m["op.read_explode.rows_out"] > 0
    assert m["op.edges_sort.rows_out"] > 0 and m["stage.edges.rows"] > 0
    with open(os.path.join(run.WORK, "trace",
                           f"{workload}-s5-x{TINY:g}.json")) as fp:
        trace = json.load(fp)
    names = {s["name"] for s in trace["spans"]}
    assert {"preprocess", "parse", "extract", "link", "combine"} <= names
    root = next(s for s in trace["spans"] if s["name"] == "layer_run")
    assert all(s["parent"] == root["id"] for s in trace["spans"]
               if s["name"] in ("preprocess", "combine"))


def test_workload_properties():
    """Each workload has the input property it exists for."""
    def layer_counts(workload):
        d = workloads.input_dir(run.WORK, workload, 7, TINY)
        return layers.layer_run(sorted(glob.glob(os.path.join(d, "*.parquet"))))

    distinct = layer_counts("kg_distinct")
    assert distinct["distinct_texts"] == distinct["sentences_out"]

    d = workloads.input_dir(run.WORK, "kg_repeat", 7, TINY)
    turns = pq.read_table(d, columns=["conv_id", "turn_idx", "text"])
    from chinese_open_relation_extraction_for_entgraph_ray.stages.extract import extract_triples
    from chinese_open_relation_extraction_for_entgraph_ray.stages.parse import TemplateParserActor
    from chinese_open_relation_extraction_for_entgraph_ray.stages.preprocess import explode_turns

    sents = explode_turns(turns)
    assert len(pc.unique(sents.column("text"))) / sents.num_rows < 0.1
    triples = extract_triples(TemplateParserActor()(sents))
    fine = triples.filter(pc.equal(triples.column("rel_kind"), "fine"))
    top = fine.group_by(["subj", "pred", "obj"]).aggregate(
        [("subj", "count")]).sort_by([("subj_count", "descending")])
    assert top.column("subj_count")[0].as_py() / fine.num_rows >= 0.3


def test_one_cpu_session_refused():
    proc = _run("--workload", "kg_distinct", "--seed", "1", "--seconds", "1",
                "--num-cpus", "1")
    assert proc.returncode != 0 and "stall" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, a run fails
    without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "kg_distinct", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _drop_one_triple(out_dir):
    path = sorted(glob.glob(os.path.join(out_dir, "triples", "*.parquet")))[0]
    t = pq.read_table(path)
    pq.write_table(t.slice(0, t.num_rows - 1), path)


def _bump_one_edge_weight(out_dir):
    path = sorted(glob.glob(os.path.join(out_dir, "edges", "*.parquet")))[0]
    t = pq.read_table(path)
    w = t.column("weight").to_pylist()
    w[0] += 1
    t = t.set_column(t.schema.get_field_index("weight"), "weight",
                     pa.array(w, t.schema.field("weight").type))
    pq.write_table(t, path)


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    """A build whose triples lost one row, or whose edge weight is off by
    one, is a failed operation in ``ops_failed_frac``; a clean one is not."""
    from chinese_open_relation_extraction_for_entgraph_ray.pipelines import kg

    real_build = kg.build_kg
    corruptions = iter([None, _drop_one_triple, _bump_one_edge_weight])

    def corrupting_build(transcripts_dir, out_dir, **kw):
        out = real_build(transcripts_dir, out_dir, **kw)
        corrupt = next(corruptions)
        if corrupt:
            corrupt(out_dir)
        return out

    monkeypatch.setattr(kg, "build_kg", corrupting_build)
    monkeypatch.setenv("PYTHONPATH", ROOT)
    input_dir = workloads.input_dir(run.WORK, "kg_distinct", 9, TINY)
    reference = layers.reference_digest(input_dir, 1)

    def in_process_jobs(spec, t_start, tag):
        spec = dict(spec, out=str(tmp_path / "kg"), ray_tmp=run.RAY_TMP,
                    object_store_bytes=run.OBJECT_STORE_BYTES,
                    checkpoints="minimal")
        return [job.run_job(spec) for _ in range(3)]

    monkeypatch.setattr(run, "run_jobs", in_process_jobs)
    args = type("Args", (), {"workload": "kg_distinct", "num_cpus": 4,
                             "seconds": 0})()
    metrics, _, attempted, failed, detail = run.timed_runs(
        args, input_dir, reference, 0.0)
    assert (attempted, failed) == (3, 2)
    assert detail["ops_failed_frac"] == pytest.approx(2 / 3)
    assert metrics["ops_ok_frac"] == pytest.approx(1 / 3)
    ok, dropped, bumped = detail["jobs"]
    assert ok["ok"] and not ok["errors"]
    assert any(e.startswith("(a)") for e in dropped["errors"])
    assert any(e.startswith("(b)") for e in bumped["errors"])
