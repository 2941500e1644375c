"""Fault tolerance: the KG pipeline must survive worker loss mid-stage.

At 100-TB scale on a real cluster, actor/worker preemption is routine; the
engine relies on Ray Data's lineage-based recovery (dead actors restart,
lost blocks recompute).  These tests PROVE that contract on the real
pipeline: a parser actor that hard-exits (``os._exit``) partway through the
corpus — the same failure signature as an OOM-killed or preempted worker —
must not change a single output triple.
"""

import os

import pyarrow as pa


def _triples_key(out):
    got = out["triples"].take_all()
    return sorted(tuple((k, str(v)) for k, v in sorted(r.items()))
                  for r in got)


def _crash_once_parser(sentinel: str):
    from chinese_open_relation_extraction_for_entgraph_ray.stages.parse import (
        TemplateParserActor,
    )

    class CrashOnceParser(TemplateParserActor):
        """Hard-exits the worker process on its first batch — once per test
        run (filesystem sentinel), so the restarted actor completes.  This
        is actor DEATH, not a Python exception: it exercises Ray's actor
        restart + lost-task retry path, the one a preempted node takes."""

        def __call__(self, batch: pa.Table) -> pa.Table:
            if not os.path.exists(sentinel):
                open(sentinel, "w").close()
                os._exit(1)
            return super().__call__(batch)

    return CrashOnceParser


def test_actor_crash_mid_parse_recovers_identically(ray_session, tmp_path):
    from chinese_open_relation_extraction_for_entgraph_ray.pipelines.kg import (
        build_kg,
    )
    from chinese_open_relation_extraction_for_entgraph_ray.sources.synthetic import (
        transcripts_dir_for_sf,
    )

    sentinel = str(tmp_path / "crashed_once")
    tdir = transcripts_dir_for_sf("/root/testdata/sf0.001")
    base = _triples_key(build_kg(tdir, str(tmp_path / "kg_base"),
                                 resume=False, checkpoints="minimal",
                                 dedup_sort=False))
    crashed = _triples_key(build_kg(tdir, str(tmp_path / "kg_crash"),
                                    resume=False, checkpoints="minimal",
                                    dedup_sort=False,
                                    parser_cls=_crash_once_parser(sentinel)))
    assert os.path.exists(sentinel), "fault was never injected"
    assert len(base) > 0
    assert base == crashed, (len(base), len(crashed))


def test_actor_crash_with_every_stage_checkpointed(ray_session, tmp_path):
    """The same crash under checkpoints="all", where ``sentences`` and
    ``parses`` are teed out of the one execution: every stage's row count
    and the triples multiset equal a no-crash build's."""
    from chinese_open_relation_extraction_for_entgraph_ray.pipelines.kg import (
        build_kg,
    )
    from chinese_open_relation_extraction_for_entgraph_ray.sources.synthetic import (
        transcripts_dir_for_sf,
    )

    sentinel = str(tmp_path / "crashed_once")
    tdir = transcripts_dir_for_sf("sf0.001")
    base = build_kg(tdir, str(tmp_path / "kg_base"), resume=False,
                    checkpoints="all")
    crashed = build_kg(tdir, str(tmp_path / "kg_crash"), resume=False,
                       checkpoints="all",
                       parser_cls=_crash_once_parser(sentinel))
    assert os.path.exists(sentinel), "fault was never injected"
    for name in ("sentences", "parses", "triples"):
        assert crashed[name].count() == base[name].count() > 0, name
    assert _triples_key(crashed) == _triples_key(base)


def test_map_batches_actor_crash_generic(ray_session, tmp_path):
    """The same recovery contract on a bare Dataset stage (no KG pipeline
    in the loop): one simulated preemption loses an in-flight batch; the
    restarted actor recomputes it and the result is complete and exact."""
    import ray.data as rd

    sentinel = str(tmp_path / "generic_crashed")

    class Flaky:
        def __call__(self, batch):
            if not os.path.exists(sentinel):
                open(sentinel, "w").close()
                os._exit(1)
            batch["y"] = batch["x"] * 2
            return batch

    ds = rd.range(1000).map_batches(lambda b: {"x": b["id"]},
                                    batch_size=100)
    out = ds.map_batches(Flaky, concurrency=2, batch_size=100).to_pandas()
    assert os.path.exists(sentinel)
    assert len(out) == 1000 and int(out["y"].sum()) == 999000
