"""End-to-end KG construction pipeline (the flagship pipeline).

transcripts.parquet
  -> explode_turns           (stateless map_batches; split+normalize)   [sentences]
  -> template_parse          (stateless map_batches; distinct texts)    [parses]
     | parser_cls            (actor-pool map_batches; warm model parser)
  -> extract_linked          (stateless map_batches; rule cascade +     [triples]
                              gazetteer linking once per distinct parse)
  -> aggregate_edges         (combiner + sorted_hash_aggregate)         [edges]
  -> aggregate_entities      (mention combiner + sorted_hash_aggregate) [entities]

Every stage a run has not yet committed is built as ONE Ray Data
execution, from the latest committed checkpoint (the transcripts, or the
dir of the last committed stage) to ``entities``.  A pass-through tee
writes each block of every stage but the last into its stage dir as it
flows by; ``write_parquet`` writes the last; the stages commit (a lineage
manifest each, ``state/lineage.py``) in order when the execution ends, each
manifest naming the stages that shared its execution and wall.  A resumed
run skips committed stages, so ``parses`` doubles as the reference's
``--ready_ddp`` contract: downstream stages re-read it instead of
re-parsing (dudepparse.py:1891-1897).  Sharded builds run one execution
per shard, then one for edges + entities over the committed shards.

Scale notes (100 TB / multi-node):
- the only all-to-all exchanges are the dedup sort of the sentence stream
  and the sorts of the two edge/entity group-bys.  Each sort has as many
  partitions as it has input blocks.  The read yields about one block
  per PARSE_BATCH_SIZE turns, a large file split into several (counted
  from the Parquet footers, :func:`_read_turns`), so the dedup sort's
  partition count tracks turns, not input files; each of its output
  blocks is one parse -> extract task.  The edges combiner collapses each
  such block's triples to distinct keys in the same task, and the
  entities combiner each sorted edges block, so a hot key reaches each
  group-by sort at most once per block;
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


def _read(path_or_dir, columns=None, **kwargs):
    import ray.data as rd

    return rd.read_parquet(path_or_dir, columns=columns, **kwargs)


def _read_turns(path_or_files, files: list[str]):
    """The transcripts' turn columns, read as about one block per
    PARSE_BATCH_SIZE turns.

    Each block flows through explode and the dedup sort's hash map as it
    is, and the sort has one partition per input block (each holding an
    even share of the hashed sentences), so the read's block count sets
    the sort partition and parse task counts.  It is the number of
    bundles: runs of whole files holding at least PARSE_BATCH_SIZE turns
    (the last may hold fewer), a run of ``m`` turns counting ``m //
    PARSE_BATCH_SIZE``, so a large file counts once per PARSE_BATCH_SIZE
    turns.  Turns are counted from ``files``' Parquet footers before the
    execution starts.  A small corpus in many files starts no read task,
    and no cold worker, beyond its bundles (kg_staged: 8 files, 3,000
    turns, one read task).

    Ray Data reads ``override_num_blocks=n`` as ``n`` read tasks over runs
    of equally many whole files when ``n`` <= files, else as one task per
    file, each splitting its output into ceil(n / files) equal blocks.  So
    the count tracks turns, but with uneven files a read block is not one
    bundle and can hold more than PARSE_BATCH_SIZE turns; the dedup sort
    evens the parse batches out, the unsorted plan parses such blocks
    whole."""
    import pyarrow.parquet as pq

    n = turns = 0
    for f in files:
        turns += pq.ParquetFile(f).metadata.num_rows
        if turns >= PARSE_BATCH_SIZE:
            n, turns = n + turns // PARSE_BATCH_SIZE, 0
    return _read(path_or_files, columns=["conv_id", "turn_idx", "text"],
                 override_num_blocks=max(1, n + (turns > 0)))


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

    Both modes build every uncommitted stage, transcripts -> ... ->
    entities, as ONE streaming execution (the map stages pipeline through
    the object store with no write/read barriers; the two group-bys
    aggregate inside the triples stream).  Every stage but the last is
    teed out as it passes; all commit, in order, when the execution ends.
    checkpoints="all": the chain is sentences, parses, triples, edges,
    entities — finest resume granularity: a resumed run starts the
    execution from the latest committed of them; ``parses`` doubles as the
    reference's ``--ready_ddp`` reuse contract.
    checkpoints="minimal": the chain is triples, edges, entities.  It
    writes less; "all" suits long jobs where re-parsing is the expensive
    part.  Trade-off: ``triples`` commits together with the group-bys, not
    before them, so a build killed in the edges or entities sort restarts
    from the transcripts; for long jobs the unit of recovery is
    ``triples_shards``.

    Group-bys: each combiner (a pyarrow ``group_by`` per block) runs as a
    map inside the same execution — the edges one in the extract task of
    each parse batch, the entities one over each sorted edges block — and
    emits one row per distinct key, so a hot key reaches its sort at most
    once per block.  The ``edges`` and ``entities`` manifests count those
    rows as ``metrics.extraction.n_exchange_rows`` (``extraction`` holds
    every stage's merged partition records).

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
    into that many shard groups, each its own stage and execution
    ``triples/shard-<k>`` with its own lineage manifest — a preempted job
    resumes MID-STAGE, skipping finished shards (at 100 TB this is the unit
    of recovery; 0 = single streaming execution, fastest when the job is
    expected to finish in one go).  The ``triples`` manifest then sums the
    shards' extraction records, and edges + entities are one execution
    over the committed shards."""
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
            # Ray Data reserves each unfinished operator a share of the
            # CPUs, at least one task's worth per map.  The sorts and maps
            # behind the group-bys idle until the triples end, yet would
            # hold their shares and leave extraction ONE task at a time on
            # 4 CPUs (BASELINE.md "One execution per build").  Read tasks
            # already follow the parse bundles (_read_turns), so nothing
            # fans out needlessly without it.  Every Dataset of the plan
            # shares this context (each derived Dataset gets its parent's),
            # so this covers the whole execution; the process-wide context
            # and the Datasets build_kg returns keep the default.
            ds.context.op_resource_reservation_enabled = False
            ds.write_parquet(store.stage_dir(todo[-1]), mode="overwrite")
        wall = round(_time.perf_counter() - t0, 3)
        for name in todo:
            timings[name] = wall
            manifest = store.commit_stage(
                name, f"{fp}:{name}",
                metrics={"wall_sec": wall, "execution_stages": todo,
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

        The hash map takes each incoming block whole: a cold build's read
        already yields about one block per PARSE_BATCH_SIZE turns
        (:func:`_read_turns`), and a resume reads the committed
        ``sentences`` parts that those blocks wrote.  So the sort sees
        about turns / PARSE_BATCH_SIZE blocks, not one per input file,
        and each of its output blocks is one parse batch.  Measured cost of
        the alternative (BASELINE.md, "Dedup-sort exchange"; fresh 4-CPU
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

        return src.map_batches(add_hash, batch_format="pyarrow") \
                  .sort("__th") \
                  .map_batches(drop_hash, batch_format="pyarrow")

    def _parses(src):
        # every block is already a parse batch — a read block of about
        # PARSE_BATCH_SIZE turns, or one output block of the dedup sort:
        # one parse task per block, so they set the parse task and file
        # counts
        if dedup_sort:
            src = _dedup_sort(src)
        if parser_cls is None:
            return src.map_batches(template_parse, batch_format="pyarrow")
        # a model-backed parser actor (e.g. stages.parse.DDParserActor) sets
        # fractional num_gpus here (ST3, SURVEY.md §2.4); Ray wants a batch
        # size with GPUs, which the unsorted plan gives it
        kwargs = {"num_gpus": parse_num_gpus} if parse_num_gpus else {}
        return src.map_batches(
            parser_cls, batch_format="pyarrow",
            batch_size=None if dedup_sort else PARSE_BATCH_SIZE,
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

    def _chain(names: list[str], steps: dict, source):
        """``make`` for :func:`stage` over ``names``: ONE plan from the
        latest committed checkpoint — ``source()`` when ``names[0]`` is
        uncommitted, else the dir of the stage before ``todo[0]`` — through
        ``steps[name]`` for each stage of ``todo``, teeing every stage but
        the last, which ``stage()`` writes."""
        def make(todo):
            k = names.index(todo[0])
            ds = source() if k == 0 else _read(store.stage_dir(names[k - 1]))
            for name in todo:
                ds = steps[name](ds)
                if name != todo[-1]:
                    ds = _tee(ds, name)
            return ds

        return make

    def _fused_triples(ds, name: str = "triples"):
        """explode_turns -> parse -> extract: transcripts to triples with no
        intermediate barrier, the ``minimal`` plan of one stage."""
        return _triples(_parses(_sentences(ds)), name)

    # the group-bys record n_exchange_rows (rows their combiner passed to
    # the sort) under their manifest's metrics.extraction
    aggregates = {
        "edges": lambda ds: aggregate_edges(ds, store.metrics_dir("edges")),
        "entities": lambda ds: aggregate_entities(
            ds, store.metrics_dir("entities"))}
    if not triples_shards:
        if checkpoints == "all":
            names = ["sentences", "parses", "triples", "edges", "entities"]
            steps = {"sentences": _sentences, "parses": _parses,
                     "triples": lambda ds: _triples(ds, "triples")}
            fp = base_fp
        else:
            names = ["triples", "edges", "entities"]
            steps = {"triples": _fused_triples}
            fp = f"{base_fp}:fused"
        stage(names, _chain(names, {**steps, **aggregates},
                            lambda: _read_turns(transcripts_dir, in_files)),
              fp)
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
                    [name], lambda _, f=files, n=name: _fused_triples(
                        _read_turns(f, f), n),
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
        # edges and entities: one execution over the committed shards
        names = ["edges", "entities"]
        stage(names, _chain(names, aggregates,
                            lambda: _read(store.stage_dir("triples"))), fp)

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
