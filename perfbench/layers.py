"""Single-process layer run: the flagship pipeline's layer functions called
directly, in pipeline order and pipeline-sized batches, without Ray.

Each call into a layer's public function records one span (name, start,
end, parent, CPU seconds); spans stay in memory and are returned at the end.
The run's triples, digested by :func:`checks.digest_table`, are the
reference that every distributed build is checked against (check (a)).
"""

from __future__ import annotations

import glob
import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from chinese_open_relation_extraction_for_entgraph_ray.pipelines.kg import PARSE_BATCH_SIZE
from chinese_open_relation_extraction_for_entgraph_ray.stages.canonicalize import (
    link_entities,
    partial_edge_counts,
)
from chinese_open_relation_extraction_for_entgraph_ray.stages.extract import extract_triples
from chinese_open_relation_extraction_for_entgraph_ray.stages.parse import TemplateParserActor
from chinese_open_relation_extraction_for_entgraph_ray.stages.preprocess import explode_turns

import checks

# rows per combiner call: what stages.canonicalize.combine_batch_size() picks
# on the benchmark's 4-CPU Ray session (2_097_152 // 4)
COMBINE_ROWS = 524_288
EDGE_KINDS = pa.array(["fine", "amend_fine"])


class Tracer:
    """In-memory spans around calls into the layers."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter()}
        self.spans.append(span)
        self._stack.append(span["id"])
        cpu0 = time.process_time()
        try:
            return fn(*args)
        finally:
            span["cpu_s"] = time.process_time() - cpu0
            span["end"] = time.perf_counter()
            self._stack.pop()

    def cpu(self, name: str) -> float:
        return sum(s["cpu_s"] for s in self.spans if s["name"] == name)


def layer_run(files: list[str], tracer: Tracer | None = None) -> dict:
    """Run explode -> parse -> extract -> link -> combine over ``files``.

    Returns the reference digest (``rows``, ``hash``) and the layer counts.
    """
    tracer = tracer or Tracer()
    parser = tracer.call("parse.init", TemplateParserActor)
    counts = {"turns_in": 0, "sentences_out": 0, "fallback_rows": 0,
              "triples_out": 0, "linked_args": 0, "combine_rows_in": 0,
              "combine_rows_out": 0, "rows": 0, "hash": 0}
    distinct: set[str] = set()
    pending: list[pa.Table] = []
    pending_rows = 0

    def combine():
        nonlocal pending, pending_rows
        batch = pa.concat_tables(pending)
        pending, pending_rows = [], 0
        counts["combine_rows_in"] += batch.num_rows
        out = tracer.call("combine", partial_edge_counts, batch)
        counts["combine_rows_out"] += out.num_rows

    def run_all():
        nonlocal pending_rows
        for path in files:     # one read block per input file
            turns = pq.read_table(path, columns=["conv_id", "turn_idx", "text"])
            counts["turns_in"] += turns.num_rows
            sentences = tracer.call("preprocess", explode_turns, turns)
            counts["sentences_out"] += sentences.num_rows
            distinct.update(pc.unique(sentences.column("text")).to_pylist())
            for off in range(0, sentences.num_rows, PARSE_BATCH_SIZE):
                parses = tracer.call("parse", parser,
                                     sentences.slice(off, PARSE_BATCH_SIZE))
                counts["fallback_rows"] += pc.sum(pc.equal(
                    pc.list_value_length(parses.column("words")), 1)).as_py() or 0
                triples = tracer.call("extract", extract_triples, parses)
                linked = tracer.call("link", link_entities, triples)
                counts["triples_out"] += linked.num_rows
                counts["linked_args"] += (
                    2 * linked.num_rows - linked.column("subj_ent").null_count
                    - linked.column("obj_ent").null_count)
                n, h = checks.digest_table(linked)
                counts["rows"] += n
                counts["hash"] += h
                edges_in = linked.filter(pc.is_in(linked.column("rel_kind"),
                                                  value_set=EDGE_KINDS))
                pending.append(edges_in)
                pending_rows += edges_in.num_rows
                if pending_rows >= COMBINE_ROWS:
                    combine()
        if pending:
            combine()

    tracer.call("layer_run", run_all)
    counts["distinct_texts"] = len(distinct)
    return counts


def layer_metrics(counts: dict, tracer: Tracer) -> dict:
    """The per-layer metrics of the single-process run, by name."""
    sents = counts["sentences_out"]
    return {
        "preprocess.cpu_s": tracer.cpu("preprocess"),
        "preprocess.turns_in": counts["turns_in"],
        "preprocess.sentences_out": sents,
        "parse.cpu_s": tracer.cpu("parse") + tracer.cpu("parse.init"),
        "parse.distinct_frac": counts["distinct_texts"] / sents if sents else 0.0,
        "parse.fallback_rows": counts["fallback_rows"],
        "extract.cpu_s": tracer.cpu("extract"),
        "extract.triples_out": counts["triples_out"],
        "link.cpu_s": tracer.cpu("link"),
        "link.linked_frac": (counts["linked_args"] / (2 * counts["triples_out"])
                             if counts["triples_out"] else 0.0),
        "combine.cpu_s": tracer.cpu("combine"),
        "combine.collapse_frac": (counts["combine_rows_out"]
                                  / counts["combine_rows_in"]
                                  if counts["combine_rows_in"] else 0.0),
    }


def _digest_files(files: list[str]) -> tuple[int, int]:
    counts = layer_run(files)
    return counts["rows"], counts["hash"]


def reference_digest(input_dir: str, workers: int) -> dict:
    """The layer run's triples digest, computed over ``workers`` spawned
    processes (the digest is additive over disjoint input files)."""
    files = sorted(glob.glob(os.path.join(input_dir, "*.parquet")))
    if workers <= 1:
        rows, h = _digest_files(files)
        return {"rows": rows, "hash": h}
    import multiprocessing

    parts = [files[k::workers] for k in range(workers) if files[k::workers]]
    with multiprocessing.get_context("spawn").Pool(len(parts)) as pool:
        results = pool.map(_digest_files, parts)
    return {"rows": sum(r for r, _ in results),
            "hash": sum(h for _, h in results)}
