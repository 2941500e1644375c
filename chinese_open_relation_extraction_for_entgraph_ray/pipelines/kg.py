"""End-to-end KG construction pipeline (the flagship pipeline).

transcripts.parquet
  -> explode_turns           (stateless map_batches; split+normalize)   [sentences]
  -> template_parse          (stateless map_batches; distinct texts)    [parses]
     | parser_cls            (actor-pool map_batches; warm model parser)
  -> extract_linked          (stateless map_batches; rule cascade +     [triples]
                              gazetteer linking once per distinct parse)
  -> aggregate_edges         (combiner + auto_hash_aggregate)           [edges]
  -> aggregate_entities      (mention explode + auto_hash_aggregate)    [entities]

Transcripts -> triples is ONE streaming execution in every mode.  With
``checkpoints="all"`` a pass-through tee writes each block of the
``sentences`` and ``parses`` streams into its stage dir as it flows by;
the stages commit (a lineage manifest each, ``state/lineage.py``) in order
when the execution ends.  A resumed run skips committed stages and starts
that execution from the latest committed checkpoint, so ``parses`` doubles
as the reference's ``--ready_ddp`` contract: downstream stages re-read it
instead of re-parsing (dudepparse.py:1891-1897).

Scale notes (100 TB / multi-node):
- the only all-to-all exchanges are the dedup sort of the sentence stream
  and the two edge/entity group-bys.  Each coalesces its input to the
  batch its consumer takes (the rule beside
  ``groupagg.auto_hash_aggregate``'s coalescing), so its partition count
  tracks rows, not input blocks: the dedup sort hashes
  PARSE_BATCH_SIZE-row batches and the parse takes its output blocks
  whole; the group-bys collapse combine_batch_size()-row batches to
  distinct keys, so a hot key reaches their exchange at most once per
  batch;
- reads prune to the columns each stage needs;
- everything else is embarrassingly parallel map_batches with streaming
  execution — no driver-side loops, no full materialization.
"""

from __future__ import annotations

import os

from ..sources.synthetic import transcripts_dir_for_sf
from ..stages.canonicalize import (
    EDGES_SCHEMA,
    ENTITIES_SCHEMA,
    aggregate_edges,
    aggregate_entities,
)
from ..stages.extract import LINKED_TRIPLES_SCHEMA, extract_linked
from ..stages.parse import PARSES_SCHEMA, template_parse
from ..stages.preprocess import SENTENCES_SCHEMA, explode_turns
from ..state.lineage import (
    CheckpointStore,
    emit_partition_table,
    fingerprint_paths,
    parquet_files,
)

PARSE_BATCH_SIZE = 4096
PARSE_CONCURRENCY = 4

# what a stage that wrote no rows commits: a 0-row part of its schema
_STAGE_SCHEMAS = {"sentences": SENTENCES_SCHEMA, "parses": PARSES_SCHEMA,
                  "triples": LINKED_TRIPLES_SCHEMA, "edges": EDGES_SCHEMA,
                  "entities": ENTITIES_SCHEMA}


def _read(path_or_dir, columns=None):
    import ray.data as rd

    return rd.read_parquet(path_or_dir, columns=columns)


def _parse_pool_width(parse_num_gpus: float) -> int:
    """Actor-pool width for a ``parser_cls``: half the cluster's CPUs, at most
    ``PARSE_CONCURRENCY``, leaving headroom for the task operators feeding and
    draining the pool (a pool sized to the whole cluster starves them —
    observed stall at num_cpus=4 with 4 actors); with ``parse_num_gpus`` also
    no wider than the cluster's GPUs can place."""
    import ray

    resources = ray.cluster_resources() if ray.is_initialized() else {}
    ncpus = int(resources.get("CPU", 8))
    width = min(PARSE_CONCURRENCY, ncpus // 2, ncpus - 2)
    if parse_num_gpus:
        width = min(width, int(resources.get("GPU", 0) // parse_num_gpus))
    return max(1, width)


def build_kg(transcripts_dir: str, out_dir: str, *, resume: bool = True,
             checkpoints: str = "all", config=None,
             parse_num_gpus: float = 0.0, triples_shards: int = 0,
             parser_cls=None, dedup_sort: bool = True) -> dict:
    """Run (or resume) the full pipeline; returns {stage: Dataset} handles of
    the materialized outputs plus run metadata under "_meta".

    Both modes build transcripts -> sentences -> parses -> triples as ONE
    streaming execution (the map stages pipeline through the object store
    with no write/read barriers); edges and entities follow.
    checkpoints="all": also checkpoint ``sentences`` and ``parses``, teed
    out of that execution and committed, in order before ``triples``, when
    it ends — finest resume granularity: a resumed run starts the
    execution from the latest committed of transcripts, ``sentences`` and
    ``parses``; ``parses`` doubles as the reference's ``--ready_ddp`` reuse
    contract.
    checkpoints="minimal": no tees; resume granularity becomes {triples,
    edges, entities}.  It writes less; "all" suits long jobs where
    re-parsing is the expensive part.

    ``config``: an :class:`..functions.cascade.ExtractionConfig` — rule
    flags/caps (SURVEY.md §2.8); part of the checkpoint fingerprint, so
    changing flags invalidates downstream stages.

    ``parser_cls``: a model-backed parser actor class (e.g.
    :class:`..stages.parse.DDParserActor`) run as an actor pool with
    ``parse_num_gpus`` GPUs per actor, sized by :func:`_parse_pool_width`.
    ``parse_num_gpus`` is refused without ``parser_cls``: the default
    template parser runs as stateless tasks
    (:func:`..stages.parse.template_parse`).

    ``dedup_sort`` (default True): co-locate identical sentence texts before
    the parse stage so each batch's distinct-text parse and distinct-parse
    extraction collapse every duplicate.  The sort is one plan for every
    input, with no probe deciding it: where the corpus repeats it wins,
    and in no measured cell is the unsorted plan 2x faster (BASELINE.md,
    "Dedup-sort exchange").  False is the unsorted reference plan;
    outputs are identical either way (the sort only reorders rows).

    ``triples_shards`` (minimal mode only): >0 splits the transcripts files
    into that many shard groups, each its own stage
    ``triples/shard-<k>`` with its own lineage manifest — a preempted job
    resumes MID-STAGE, skipping finished shards (at 100 TB this is the unit
    of recovery; 0 = single streaming execution, fastest when the job is
    expected to finish in one go).  The ``triples`` manifest then sums the
    shards' extraction records."""
    import time as _time

    from ..functions.cascade import DEFAULT_CONFIG

    cfg = config or DEFAULT_CONFIG
    if checkpoints not in ("all", "minimal"):
        raise ValueError(f"checkpoints must be 'all' or 'minimal', got {checkpoints!r}")
    if triples_shards < 0 or (triples_shards and checkpoints != "minimal"):
        raise ValueError(f"triples_shards must be 0, or >0 with "
                         f"checkpoints='minimal'; got {triples_shards!r} with "
                         f"checkpoints={checkpoints!r}")
    if not isinstance(dedup_sort, bool):
        raise ValueError(f"dedup_sort must be True or False, "
                         f"got {dedup_sort!r}")
    if parse_num_gpus and parser_cls is None:
        raise ValueError("parse_num_gpus sizes the parser_cls actor pool; "
                         "the default template parser runs as stateless "
                         "tasks")
    store = CheckpointStore(out_dir)
    in_files = parquet_files(transcripts_dir)
    parser_tag = getattr(parser_cls, "__name__", "") if parser_cls else ""
    base_fp = fingerprint_paths(
        in_files, extra=f"{cfg!r}|{parser_tag}|ds={dedup_sort}")
    ran: list[str] = []
    timings: dict[str, float] = {}

    def stage(names: list[str], make, upstream_fp: str,
              metrics=None) -> str:
        """Skip the committed prefix of ``names`` (resume); build the rest
        in ONE execution, then commit them in order.  ``make(todo)``
        returns the Dataset to write into the last stage of ``todo`` (it
        tees the others into their dirs on the way), or None when the
        stage's rows are already committed by its shard stages;
        ``metrics`` joins the execution's wall time in each manifest.
        Returns the fingerprint chained through every commit record, so
        recomputing a stage invalidates everything after it."""
        fp, todo = upstream_fp, list(names)
        while todo and resume and store.is_complete(todo[0],
                                                    f"{fp}:{todo[0]}"):
            done = todo.pop(0)
            fp = f"{fp}:{done}@{store.read_manifest(done)['completed_at']}"
        if not todo:
            return fp
        for name in todo:
            store.reset_metrics(name)
        for name in todo[:-1]:   # the tees; write_parquet clears the last
            store.clear_stage(name)
        t0 = _time.perf_counter()
        ds = make(todo)
        if ds is not None:
            ds.write_parquet(store.stage_dir(todo[-1]), mode="overwrite")
        wall = round(_time.perf_counter() - t0, 3)
        for name in todo:
            timings[name] = wall
            manifest = store.commit_stage(
                name, f"{fp}:{name}", metrics={"wall_sec": wall,
                                               **(metrics or {})},
                schema=_STAGE_SCHEMAS[name.split("/")[0]])
            fp = f"{fp}:{name}@{manifest['completed_at']}"
            ran.append(name)
        return fp

    def _sentences(src):
        return src.map_batches(explode_turns, batch_format="pyarrow")

    def _dedup_sort(src):
        """Co-locate identical sentence texts (sort by text hash) so each
        parse batch's distinct-text dedup and the extract batch's
        distinct-parse dedup collapse every duplicate regardless of worker
        count.

        The hash map coalesces the stream to PARSE_BATCH_SIZE-row bundles
        (Ray fuses it with ``explode_turns``, so a bundle counts turns):
        the sort sees about turns / PARSE_BATCH_SIZE blocks, not one per
        read task, and each of its output blocks is one parse batch.
        Measured cost (BASELINE.md, "Dedup-sort exchange"; fresh 4-CPU
        session on a 4-vCPU Xeon, ``kg_repeat``): fed one block per read
        task (8), the sort and the tasks around it cost 6.8 CPU-s per
        build and started 3 Ray worker processes; coalesced (2 blocks),
        3.5 CPU-s and 1.  A corpus under PARSE_BATCH_SIZE turns becomes
        one block, which loses parallelism once workers are warm (+0.4 s
        on 8,000 sentences in 120 files)."""
        import pyarrow as _pa

        def add_hash(batch: "_pa.Table") -> "_pa.Table":
            # full-buffer vectorized hash (polars; embedded-NUL-safe and
            # cross-process deterministic) — this runs over EVERY sentence
            # of the corpus, where the old per-row Python crc32 loop was
            # O(corpus) interpreter time (VERDICT r2 #4)
            import numpy as _np
            import polars as _pl

            if batch.num_rows == 0:
                return batch.append_column("__th",
                                           _pa.array([], _pa.int64()))
            ser = _pl.from_arrow(batch.column("text").combine_chunks())
            hs = ser.hash(seed=0).to_numpy().view(_np.int64)
            return batch.append_column("__th", _pa.array(hs, _pa.int64()))

        def drop_hash(batch: "_pa.Table") -> "_pa.Table":
            return batch.drop_columns(["__th"])

        return src.map_batches(add_hash, batch_format="pyarrow",
                               batch_size=PARSE_BATCH_SIZE) \
                  .sort("__th") \
                  .map_batches(drop_hash, batch_format="pyarrow")

    def _parses(src):
        batch_size = PARSE_BATCH_SIZE
        if dedup_sort:
            # the sort's output blocks are already parse batches: one parse
            # task per block, so they set the parse task and file counts
            src, batch_size = _dedup_sort(src), None
        if parser_cls is None:
            return src.map_batches(template_parse, batch_format="pyarrow",
                                   batch_size=batch_size)
        # a model-backed parser actor (e.g. stages.parse.DDParserActor) sets
        # fractional num_gpus here (ST3, SURVEY.md §2.4)
        kwargs = {"num_gpus": parse_num_gpus} if parse_num_gpus else {}
        return src.map_batches(
            parser_cls, batch_format="pyarrow", batch_size=batch_size,
            concurrency=_parse_pool_width(parse_num_gpus), **kwargs)

    def _triples(src, metrics_stage: str):
        # per-partition extraction-count metrics to the checkpoint store
        # (north-rule lineage contract; merged key-additively at commit like
        # the reference's merge_dict, merge_parsed_results.py:8-14);
        # cascade_cpu_s is the batch's process CPU time in extract_linked
        # (rule cascade, entity linking, row expansion)
        metrics_dir = store.metrics_dir(metrics_stage)

        def extract_with_config(batch):
            import pyarrow.compute as _pc

            from ..state.lineage import emit_partition_metrics

            cpu0 = _time.process_time()
            out, rec = extract_linked(batch, cfg)
            rec.update(
                cascade_cpu_s=_time.process_time() - cpu0,
                n_triples=out.num_rows,
                n_linked_subj=out.num_rows - out.column("subj_ent").null_count,
                n_linked_obj=out.num_rows - out.column("obj_ent").null_count,
                n_negated=int(_pc.sum(
                    out.column("negated").cast("int64")).as_py() or 0))
            kinds = _pc.value_counts(out.column("rel_kind"))
            for item in kinds.to_pylist():
                rec[f"n_{item['values']}"] = item["counts"]
            emit_partition_metrics(metrics_dir, rec)
            return out

        return src.map_batches(extract_with_config, batch_format="pyarrow")

    transcripts_cols = ["conv_id", "turn_idx", "text"]

    def _tee(src, name: str):
        """Pass every block through unchanged, writing it into ``name``'s
        dir as one Parquet part: the stage's checkpoint, built without an
        execution of its own."""
        sdir = store.stage_dir(name)

        def tee(batch):
            if batch.num_rows:
                emit_partition_table(sdir, batch)
            return batch

        return src.map_batches(tee, batch_format="pyarrow")

    def _fused_triples(sink: str, files=transcripts_dir,
                       start: str = "sentences", tees=()):
        """read -> explode_turns -> parse -> extract_with_config -> write to
        ``sink``: one streaming execution with no intermediate barriers.
        ``start`` is the first stage it builds (a later start reads the
        committed ``sentences`` or ``parses`` dir instead of the
        transcripts); each stage in ``tees`` is also written to its own
        dir as it passes."""
        if start == "sentences":
            ds = _sentences(_read(files, columns=transcripts_cols))
        else:
            ds = _read(store.stage_dir(
                "sentences" if start == "parses" else "parses"))
        if "sentences" in tees:
            ds = _tee(ds, "sentences")
        if start != "triples":
            ds = _parses(ds)
        if "parses" in tees:
            ds = _tee(ds, "parses")
        return _triples(ds, sink)

    if checkpoints == "all":
        # the minimal plan from the latest committed checkpoint, teeing the
        # stages it passes; they commit when the one execution ends
        fp = stage(["sentences", "parses", "triples"],
                   lambda todo: _fused_triples("triples", start=todo[0],
                                               tees=todo[:-1]),
                   base_fp)
    elif not triples_shards:
        fp = stage(["triples"], lambda _: _fused_triples("triples"),
                   f"{base_fp}:fused")
    else:
        # one stage per shard group -> mid-stage resume; the triples commit
        # chains through every shard's commit record
        fp_base = f"{base_fp}:fused:shards{triples_shards}"
        shards = {}
        for k in range(triples_shards):
            files = in_files[k::triples_shards]
            if files:
                name = f"triples/shard-{k:04d}"
                shards[name] = stage(
                    [name], lambda _, f=files, n=name: _fused_triples(n, f),
                    f"{fp_base}:{fingerprint_paths(files)}")
        extraction: dict = {}
        for name in shards:
            rec = store.read_manifest(name)["metrics"].get("extraction", {})
            for mk, mv in rec.items():
                extraction[mk] = extraction.get(mk, 0) + mv

        def drop_other_layouts(_):
            # top-level parquet from a fused run, shard dirs of another count
            import shutil as _shutil

            sdir = store.stage_dir("triples")
            for entry in os.listdir(sdir):
                if entry.endswith(".parquet"):
                    os.remove(os.path.join(sdir, entry))
                elif (entry.startswith("shard-")
                      and f"triples/{entry}" not in shards):
                    _shutil.rmtree(os.path.join(sdir, entry))

        fp = stage(["triples"], drop_other_layouts,
                   f"{fp_base}:"
                   + fingerprint_paths([], extra="|".join(shards.values())),
                   metrics={"shards": triples_shards,
                            "extraction": extraction})

    edges_fp = stage(
        ["edges"],
        lambda _: aggregate_edges(_read(store.stage_dir("triples"))),
        fp)

    stage(
        ["entities"],
        lambda _: aggregate_entities(_read(store.stage_dir("edges"))),
        edges_fp)

    out = {
        "triples": _read(store.stage_dir("triples")),
        "edges": _read(store.stage_dir("edges")),
        "entities": _read(store.stage_dir("entities")),
        "_meta": {"ran_stages": ran, "out_dir": out_dir,
                  "input_fingerprint": base_fp, "stage_wall_sec": timings},
    }
    if checkpoints == "all":
        out["sentences"] = _read(store.stage_dir("sentences"))
        out["parses"] = _read(store.stage_dir("parses"))
    return out


def build_kg_for_sf(sf_dir: str, out_base: str = "/tmp/entgraph_kg",
                    **kwargs) -> dict:
    """Convenience: synthesize (once) the deterministic transcripts matching a
    testdata scale-factor dir, then build the KG from them."""
    tdir = transcripts_dir_for_sf(sf_dir)
    out_dir = os.path.join(out_base, os.path.basename(os.path.normpath(tdir)))
    return build_kg(tdir, out_dir, **kwargs)
