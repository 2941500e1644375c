"""Checkpoint store: per-stage Parquet outputs + per-partition lineage records.

The reference's only resume mechanism is ``--ready_ddp`` (reuse previously
stored parses, /root/reference/dudepparse.py:1891-1897) plus manual re-runs of
crashed slices (README.md:42-44).  Here every stage of the KG pipeline
materializes to ``<root>/<stage>/`` with a ``_lineage.json`` manifest
recording the input fingerprint, per-file (per-partition) row counts and
stage metrics; a resumed run skips any stage whose manifest matches the
current input fingerprint, so a job killed mid-pipeline restarts after its
last completed stage.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import time


def fingerprint_paths(paths: list[str], extra: str = "") -> str:
    """Stable fingerprint of input files (path, size, mtime in ns) + config.
    Nanoseconds, not seconds: a same-size rewrite within one second must
    change it, or a resume reuses stages built from the old contents."""
    h = hashlib.sha256()
    for p in sorted(paths):
        st = os.stat(p)
        h.update(f"{p}|{st.st_size}|{st.st_mtime_ns}".encode())
    h.update(extra.encode())
    return h.hexdigest()[:16]


def parquet_files(directory: str) -> list[str]:
    return sorted(glob.glob(os.path.join(directory, "**", "*.parquet"),
                            recursive=True))


# (task_id -> (attempt, next call sequence)) for deterministic metric-file
# naming; a retried task re-runs with the SAME task id but a new attempt
# number — detecting the attempt change resets the counter so the retry
# overwrites the original files instead of appending duplicates
_EMIT_SEQ: dict = {}


def _emit_name(directory: str, suffix: str = ".json") -> str:
    try:
        import ray

        ctx = ray.get_runtime_context()
        task_id = ctx.get_task_id() or ""
        try:
            attempt = ctx.get_attempt_number()
        except Exception:
            attempt = 0
    except Exception:
        task_id = ""
    if not task_id:
        import uuid

        return os.path.join(directory, f"part-{uuid.uuid4().hex}{suffix}")
    if len(_EMIT_SEQ) > 4096:
        # bound long-lived-worker state — but never evict the CURRENT
        # task's entry mid-run (clearing it between two emissions of one
        # task would reset its counter and overwrite its own first file)
        saved = _EMIT_SEQ.get(task_id)
        _EMIT_SEQ.clear()
        if saved is not None:
            _EMIT_SEQ[task_id] = saved
    prev_attempt, seq = _EMIT_SEQ.get(task_id, (attempt, 0))
    if prev_attempt != attempt:    # new attempt of a known task id
        seq = 0
    _EMIT_SEQ[task_id] = (attempt, seq + 1)
    # attempt number IN the name: a retry that emits fewer files than the
    # failed attempt must not leave the old attempt's higher-seq files
    # double-counting — readers keep only the max attempt per task id
    return os.path.join(directory,
                        f"part-{task_id}-a{attempt:03d}-{seq:04d}{suffix}")


def _emit(directory: str, suffix: str, write) -> None:
    """``write(path)`` one task-attempt-named file into ``directory``: to
    ``<name>.tmp`` first, then renamed, so no reader sees a partial file."""
    os.makedirs(directory, exist_ok=True)
    path = _emit_name(directory, suffix)
    write(path + ".tmp")
    os.replace(path + ".tmp", path)


def emit_partition_metrics(metrics_dir: str, record: dict) -> None:
    """Append one partition's metrics record to the checkpoint store — called
    from INSIDE map tasks (each task writes its own file; on a cluster this
    directory lives on shared storage).  The north-rule per-partition
    'extraction-count metrics' emission.  Files are named by (task id,
    call sequence) so Ray task retries overwrite their own records rather
    than appending duplicates (the reference's once-per-slice merge_dict
    semantics, merge_parsed_results.py:8-14)."""
    def write(path: str) -> None:
        with open(path, "w") as fp:
            json.dump(record, fp, ensure_ascii=False)

    _emit(metrics_dir, ".json", write)


def emit_partition_table(stage_dir: str, table) -> None:
    """Write one Parquet part of a stage from INSIDE a map task, named like
    the metric files; :meth:`CheckpointStore.commit_stage` drops the parts
    of superseded task attempts."""
    import pyarrow.parquet as pq

    _emit(stage_dir, ".parquet", lambda path: pq.write_table(table, path))


_ATTEMPT_NAME_RE = re.compile(
    r"^part-(?P<tid>.+)-a(?P<att>\d+)-\d+\.(?:json|parquet)$")


def _superseded_attempts(names: list[str]) -> set[str]:
    """The task-attempt-named files (``part-<task_id>-a<attempt>-<seq>``)
    among ``names`` whose attempt is below the MAX attempt of their task
    id — a retry that emitted fewer files than the failed attempt must not
    leave the old attempt's higher-seq files double-counting.  Files
    without the pattern (uuid fallback / legacy) are never superseded."""
    parsed = [(f, m.group("tid"), int(m.group("att")))
              for f in names if (m := _ATTEMPT_NAME_RE.match(f))]
    latest: dict[str, int] = {}
    for _, tid, att in parsed:
        latest[tid] = max(latest.get(tid, -1), att)
    return {f for f, tid, att in parsed if att < latest[tid]}


def _surviving_metric_files(metrics_dir: str) -> list[str]:
    """Metric files to merge: every ``.json`` file but those of superseded
    task attempts (:func:`_superseded_attempts`)."""
    names = sorted(f for f in os.listdir(metrics_dir) if f.endswith(".json"))
    stale = _superseded_attempts(names)
    return [f for f in names if f not in stale]


def merge_metric_records(metrics_dir: str) -> dict:
    """Key-wise additive merge of all partition records — the reference's
    stats merge (merge_dict, /root/reference/merge_parsed_results.py:8-14,
    dudepparse.py:204-211).  Only the latest attempt's files per task id
    participate (see :func:`_surviving_metric_files`)."""
    merged: dict = {}
    if not os.path.isdir(metrics_dir):
        return merged
    files = _surviving_metric_files(metrics_dir)
    for f in files:
        try:
            with open(os.path.join(metrics_dir, f)) as fp:
                rec = json.load(fp)
        except (OSError, json.JSONDecodeError):
            continue
        for k, v in rec.items():
            if isinstance(v, (int, float)):
                merged[k] = merged.get(k, 0) + v
    merged["n_partitions"] = len(files)
    return merged


class CheckpointStore:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def stage_dir(self, stage: str) -> str:
        return os.path.join(self.root, stage)

    def metrics_dir(self, stage: str) -> str:
        # flattened to the store root: metric JSONs must never sit inside a
        # stage dir, where read_parquet of that stage would pick them up
        return os.path.join(self.root, f"{stage.replace('/', '_')}_metrics")

    def reset_metrics(self, stage: str) -> None:
        import shutil

        shutil.rmtree(self.metrics_dir(stage), ignore_errors=True)

    def clear_stage(self, stage: str) -> None:
        """Delete a stage's files and manifest before a run that writes it
        part by part, so a killed run leaves no committed stage with
        partial files."""
        import shutil

        shutil.rmtree(self.stage_dir(stage), ignore_errors=True)

    def _manifest_path(self, stage: str) -> str:
        return os.path.join(self.stage_dir(stage), "_lineage.json")

    def is_complete(self, stage: str, input_fingerprint: str) -> bool:
        path = self._manifest_path(stage)
        if not os.path.exists(path):
            return False
        try:
            with open(path) as fp:
                manifest = json.load(fp)
        except (OSError, json.JSONDecodeError):
            return False
        return manifest.get("input_fingerprint") == input_fingerprint

    def read_manifest(self, stage: str) -> dict | None:
        path = self._manifest_path(stage)
        if not os.path.exists(path):
            return None
        with open(path) as fp:
            return json.load(fp)

    def commit_stage(self, stage: str, input_fingerprint: str,
                     metrics: dict | None = None, schema=None) -> dict:
        """Write the lineage manifest AFTER the stage's parquet is on disk —
        the manifest's presence is the stage's commit record.  Parts of
        superseded task attempts (and unrenamed ``.tmp`` files of a dead
        one) are deleted first; a stage that wrote no rows gets one 0-row
        part of ``schema``, so it still reads as a table."""
        import pyarrow.parquet as pq

        sdir = self.stage_dir(stage)
        os.makedirs(sdir, exist_ok=True)
        names = os.listdir(sdir)
        for f in _superseded_attempts(names) | {
                f for f in names if f.endswith(".tmp")}:
            os.remove(os.path.join(sdir, f))
        if schema is not None and not parquet_files(sdir):
            pq.write_table(schema.empty_table(),
                           os.path.join(sdir, "empty.parquet"))
        # metrics live OUTSIDE the stage dir: write_parquet(mode="overwrite")
        # clears the stage dir at write start, which would race with metric
        # files emitted by map tasks during the same execution
        extraction = merge_metric_records(self.metrics_dir(stage))
        partitions = []
        total_rows = 0
        for f in parquet_files(sdir):
            meta = pq.ParquetFile(f).metadata
            partitions.append({
                "file": os.path.relpath(f, sdir),
                "rows": meta.num_rows,
                "bytes": os.stat(f).st_size,
            })
            total_rows += meta.num_rows
        manifest = {
            "stage": stage,
            "input_fingerprint": input_fingerprint,
            "completed_at": time.time(),
            "total_rows": total_rows,
            "partitions": partitions,
            "metrics": metrics or {},
        }
        if extraction:
            manifest["metrics"]["extraction"] = extraction
        tmp = self._manifest_path(stage) + ".tmp"
        with open(tmp, "w") as fp:
            json.dump(manifest, fp, indent=1, ensure_ascii=False)
        os.replace(tmp, self._manifest_path(stage))
        return manifest
