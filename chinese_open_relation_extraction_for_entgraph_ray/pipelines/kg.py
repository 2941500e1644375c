"""End-to-end KG construction pipeline (the flagship pipeline).

transcripts.parquet
  -> explode_turns           (stateless map_batches; split+normalize)   [sentences]
  -> template_parse          (stateless map_batches; distinct texts)    [parses]
     | parser_cls            (actor-pool map_batches; warm model parser)
  -> extract_linked          (stateless map_batches; rule cascade +     [triples]
                              gazetteer linking once per distinct parse)
  -> aggregate_edges         (combiner + auto_hash_aggregate)           [edges]
  -> aggregate_entities      (mention explode + auto_hash_aggregate)    [entities]

Every stage materializes to Parquet under ``out_dir`` with a lineage manifest
(``state/lineage.py``); a resumed run skips completed stages.  The per-stage
checkpoints double as the reference's ``--ready_ddp`` contract: downstream
stages re-read ``parses`` instead of re-parsing (dudepparse.py:1891-1897).

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
from ..stages.canonicalize import aggregate_edges, aggregate_entities
from ..stages.extract import extract_linked
from ..stages.parse import template_parse
from ..stages.preprocess import explode_turns
from ..state.lineage import CheckpointStore, fingerprint_paths, parquet_files

PARSE_BATCH_SIZE = 4096
PARSE_CONCURRENCY = 4


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

    checkpoints="all": materialize every stage (sentences, parses, triples,
    edges, entities) — finest resume granularity; ``parses`` doubles as the
    reference's ``--ready_ddp`` reuse contract.
    checkpoints="minimal": fuse transcripts -> sentences -> parses -> triples
    into ONE streaming execution with a single materialization at ``triples``
    (the map stages pipeline through the object store with no write/read
    barriers); resume granularity becomes {triples, edges, entities}.  Use
    for throughput; "all" for long jobs where re-parsing is the expensive
    part.

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

    def stage(name: str, make, upstream_fp: str, metrics=None) -> str:
        """Skip (resume), or reset, write, time and commit one stage.
        ``make()`` returns the Dataset to write, or None when the stage's
        rows are already committed by its shard stages; ``metrics`` joins
        the stage's wall time in its manifest."""
        fp = f"{upstream_fp}:{name}"
        if not (resume and store.is_complete(name, fp)):
            store.reset_metrics(name)
            t0 = _time.perf_counter()
            ds = make()
            if ds is not None:
                ds.write_parquet(store.stage_dir(name), mode="overwrite")
            timings[name] = round(_time.perf_counter() - t0, 3)
            store.commit_stage(name, fp, metrics={"wall_sec": timings[name],
                                                  **(metrics or {})})
            ran.append(name)
        # downstream fingerprints chain through this stage's commit record, so
        # recomputing a stage invalidates everything after it
        manifest = store.read_manifest(name)
        return f"{fp}@{manifest['completed_at']}"

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
        # the reference's merge_dict, merge_parsed_results.py:8-14)
        metrics_dir = store.metrics_dir(metrics_stage)

        def extract_with_config(batch):
            import pyarrow.compute as _pc

            from ..state.lineage import emit_partition_metrics

            out, rec = extract_linked(batch, cfg)
            rec.update(
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

    def _fused_triples(paths, name: str):
        """read -> explode_turns -> parse -> extract_with_config, one
        streaming execution with no intermediate barriers."""
        return _triples(_parses(_sentences(
            _read(paths, columns=transcripts_cols))), name)

    if checkpoints == "all":
        fp = stage("sentences",
                   lambda: _sentences(_read(transcripts_dir,
                                            columns=transcripts_cols)),
                   base_fp)
        fp = stage("parses",
                   lambda: _parses(_read(store.stage_dir("sentences"))), fp)
        fp = stage("triples",
                   lambda: _triples(_read(store.stage_dir("parses")),
                                    "triples"), fp)
    elif not triples_shards:
        fp = stage("triples",
                   lambda: _fused_triples(transcripts_dir, "triples"),
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
                    name, lambda f=files, n=name: _fused_triples(f, n),
                    f"{fp_base}:{fingerprint_paths(files)}")
        extraction: dict = {}
        for name in shards:
            rec = store.read_manifest(name)["metrics"].get("extraction", {})
            for mk, mv in rec.items():
                extraction[mk] = extraction.get(mk, 0) + mv

        def drop_other_layouts():
            # top-level parquet from a fused run, shard dirs of another count
            import shutil as _shutil

            sdir = store.stage_dir("triples")
            for entry in os.listdir(sdir):
                if entry.endswith(".parquet"):
                    os.remove(os.path.join(sdir, entry))
                elif (entry.startswith("shard-")
                      and f"triples/{entry}" not in shards):
                    _shutil.rmtree(os.path.join(sdir, entry))

        fp = stage("triples", drop_other_layouts,
                   f"{fp_base}:"
                   + fingerprint_paths([], extra="|".join(shards.values())),
                   metrics={"shards": triples_shards,
                            "extraction": extraction})

    edges_fp = stage(
        "edges",
        lambda: aggregate_edges(_read(store.stage_dir("triples"))),
        fp)

    stage(
        "entities",
        lambda: aggregate_entities(_read(store.stage_dir("edges"))),
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
