"""End-to-end pipeline tests: transcripts -> sentences -> parses -> triples ->
edges/entities, oracle P/R gate, ordering invariants, checkpoint resume."""

import os
import shutil

import pytest

from chinese_open_relation_extraction_for_entgraph_ray.functions.oracle import (
    oracle_edges,
    oracle_triples,
    precision_recall,
    triple_key,
)
from chinese_open_relation_extraction_for_entgraph_ray.pipelines.kg import build_kg
from chinese_open_relation_extraction_for_entgraph_ray.sources.synthetic import (
    write_transcripts,
)

SEED, NUM_CONVS = 42, 60
TDIR = "/tmp/entgraph_test/transcripts"
ODIR = "/tmp/entgraph_test/kg"


@pytest.fixture(scope="module")
def kg(ray_session):
    shutil.rmtree("/tmp/entgraph_test", ignore_errors=True)
    write_transcripts(TDIR, SEED, NUM_CONVS)
    return build_kg(TDIR, ODIR)


def test_sentences_nonempty_and_ordered(kg):
    df = kg["sentences"].to_pandas()
    assert len(df) > 100
    # per-turn sentence indices are dense from 0 (stable ordering contract)
    for (_, _), grp in df.groupby(["conv_id", "turn_idx"]):
        assert sorted(grp["sent_idx"]) == list(range(len(grp)))


def test_parse_reconstruction_invariant(kg):
    df = kg["parses"].to_pandas()
    for _, row in df.iterrows():
        assert "".join(row["words"]) == row["text"]


def test_triples_match_oracle(kg):
    got = kg["triples"].to_pandas()
    got_keys = {triple_key(r) for r in got.to_dict("records")}
    expected_keys = {triple_key(r) for r in oracle_triples(SEED, NUM_CONVS)}
    precision, recall = precision_recall(expected_keys, got_keys)
    assert precision >= 0.95, f"precision {precision}"
    assert recall >= 0.95, f"recall {recall}"
    # with a deterministic parser the match should actually be exact
    assert precision == 1.0 and recall == 1.0


def test_edges_match_oracle_aggregation(kg):
    got = kg["edges"].to_pandas()
    got_map = {
        (r["subj"], r["pred"], r["obj"], r["subj_ent"], r["obj_ent"]): r["weight"]
        for r in got.to_dict("records")}
    expected = oracle_edges(SEED, NUM_CONVS)
    assert got_map == expected


def test_entities_table(kg):
    df = kg["entities"].to_pandas()
    assert len(df) > 5
    assert (df["mention_count"] > 0).all()
    # canonical ids only — no aliases
    from chinese_open_relation_extraction_for_entgraph_ray.functions.lexicon import (
        ENTITY_ALIASES,
    )

    assert not set(df["entity_id"]) & set(ENTITY_ALIASES)


def _scan(out_dir: str, stage: str) -> str:
    """DuckDB scan of a build's stage files (any shard layout)."""
    return f"read_parquet('{out_dir}/{stage}/**/*.parquet')"


def _bag_diff(con, a_sql: str, b_sql: str) -> int:
    """Rows in either bag and not the other (0 iff the bags are equal)."""
    return con.execute(
        f"WITH a AS ({a_sql}), b AS ({b_sql}) SELECT "
        "(SELECT count(*) FROM (SELECT * FROM a EXCEPT ALL SELECT * FROM b)) + "
        "(SELECT count(*) FROM (SELECT * FROM b EXCEPT ALL SELECT * FROM a))"
    ).fetchone()[0]


@pytest.mark.parametrize("layout,kwargs", [
    ("all", None),
    ("fused", {"checkpoints": "minimal"}),
    ("sharded", {"checkpoints": "minimal", "triples_shards": 3})])
def test_edges_entities_match_duckdb_group_by(kg, ray_session, layout, kwargs):
    """edges == a DuckDB GROUP BY over the build's own triples, and entities
    == one over its edges: an oracle sharing no code with the aggregation
    (null keys -> '', ``min`` provenance, entities without null/'' ids)."""
    import duckdb

    out_dir = ODIR if kwargs is None else f"{ODIR}_{layout}"
    if kwargs is not None:
        build_kg(TDIR, out_dir, **kwargs)

    def scan(stage):
        return _scan(out_dir, stage)

    with duckdb.connect() as con:
        assert con.execute(f"SELECT count(*) FROM {scan('edges')}") \
                  .fetchone()[0] > 0
        assert _bag_diff(
            con,
            "SELECT coalesce(subj, '') AS subj, pred, "
            "coalesce(obj, '') AS obj, coalesce(subj_ent, '') AS subj_ent, "
            "coalesce(obj_ent, '') AS obj_ent, count(*)::BIGINT AS weight, "
            "min(conv_id) AS sample_conv_id, "
            "min(turn_idx)::INTEGER AS sample_turn_idx "
            f"FROM {scan('triples')} "
            "WHERE rel_kind IN ('fine', 'amend_fine') GROUP BY ALL",
            "SELECT subj, pred, obj, subj_ent, obj_ent, weight, "
            f"sample_conv_id, sample_turn_idx FROM {scan('edges')}") == 0
        assert _bag_diff(
            con,
            "SELECT e AS entity_id, sum(w)::BIGINT AS mention_count FROM ("
            f"SELECT subj_ent AS e, weight AS w FROM {scan('edges')} "
            f"UNION ALL SELECT obj_ent, weight FROM {scan('edges')}) "
            "WHERE e IS NOT NULL AND e <> '' GROUP BY e",
            f"SELECT entity_id, mention_count FROM {scan('entities')}") == 0


def test_lineage_manifests_written(kg):
    import json

    for stage in ("sentences", "parses", "triples", "edges", "entities"):
        path = os.path.join(ODIR, stage, "_lineage.json")
        assert os.path.exists(path)
        with open(path) as fp:
            manifest = json.load(fp)
        assert manifest["total_rows"] > 0
        assert manifest["partitions"]


# n_partitions: the extract batches that reported (merge_metric_records);
# cascade_cpu_s: their CPU-seconds in extract_linked, summed
EXTRACTION_COUNTS = {"n_partitions", "n_sentences", "n_distinct_parses",
                     "n_one_word_parses", "n_triples", "n_linked_subj",
                     "n_linked_obj", "n_negated", "cascade_cpu_s"}


def _extraction_record(out_dir: str, triples) -> dict:
    """The triples manifest's ``metrics.extraction``, checked to hold exactly
    the fixed counts plus one ``n_<rel_kind>`` per kind in ``triples``."""
    import json

    with open(os.path.join(out_dir, "triples", "_lineage.json")) as fp:
        ext = json.load(fp)["metrics"]["extraction"]
    kinds = set(triples.unique("rel_kind"))
    assert set(ext) == EXTRACTION_COUNTS | {f"n_{k}" for k in kinds}
    return ext


def test_triples_manifest_schema_and_counts_add_up(kg):
    """The triples stage reports a fixed set of counts, and they add up:
    the per-kind counts are the triples written of each kind and sum to
    all of them, the cascade runs at most once per sentence, and no subset
    count exceeds its whole."""
    ext = _extraction_record(ODIR, kg["triples"])
    n = kg["triples"].count()
    assert sum(v for k, v in ext.items()
               if k not in EXTRACTION_COUNTS) == ext["n_triples"] == n > 0
    per_kind = kg["triples"].to_pandas()["rel_kind"].value_counts()
    assert {f"n_{k}": v for k, v in per_kind.items()} == \
        {k: v for k, v in ext.items() if k not in EXTRACTION_COUNTS}
    assert ext["n_sentences"] == kg["parses"].count()
    assert ext["n_partitions"] >= 1
    assert 0 < ext["n_distinct_parses"] <= ext["n_sentences"]
    assert 0 <= ext["n_one_word_parses"] <= ext["n_sentences"]
    for k in ("n_linked_subj", "n_linked_obj", "n_negated"):
        assert 0 <= ext[k] <= ext["n_triples"]
    assert ext["cascade_cpu_s"] > 0


def test_parse_pool_sizing_needs_parser_cls(tmp_path):
    """``parse_num_gpus`` only sizes a ``parser_cls`` actor pool; with the
    default template parser it would be silently ignored, so it is
    refused."""
    with pytest.raises(ValueError, match="parser_cls"):
        build_kg(str(tmp_path / "in"), str(tmp_path / "kg"),
                 parse_num_gpus=0.5)


@pytest.mark.parametrize("kwargs", [
    {"checkpoints": "all", "triples_shards": 2},
    {"checkpoints": "minimal", "triples_shards": -1}])
def test_triples_shards_refused_where_it_cannot_apply(kwargs, tmp_path):
    """Shards split the fused minimal-mode stage only: with every stage
    checkpointed they would be silently ignored, and a negative count has
    no meaning."""
    with pytest.raises(ValueError, match="triples_shards"):
        build_kg(str(tmp_path / "in"), str(tmp_path / "kg"), **kwargs)


def test_resume_skips_completed_stages(kg, ray_session):
    res = build_kg(TDIR, ODIR)
    assert res["_meta"]["ran_stages"] == []     # everything checkpointed


def test_resume_recomputes_downstream_of_missing_stage(kg, ray_session):
    # kill the edges checkpoint -> only edges + entities recompute
    shutil.rmtree(os.path.join(ODIR, "edges"))
    res = build_kg(TDIR, ODIR)
    assert res["_meta"]["ran_stages"] == ["edges", "entities"]


def test_determinism_two_runs_identical(kg, ray_session):
    res2 = build_kg(TDIR, ODIR + "_rerun", resume=False)
    a = kg["triples"].to_pandas().sort_values(
        ["conv_id", "turn_idx", "sent_idx", "rel_kind", "pred", "subj", "obj"],
        na_position="first").reset_index(drop=True)
    b = res2["triples"].to_pandas().sort_values(
        ["conv_id", "turn_idx", "sent_idx", "rel_kind", "pred", "subj", "obj"],
        na_position="first").reset_index(drop=True)
    assert a.equals(b)


def test_per_turn_text_equality_through_pipeline(kg):
    """North-rule invariant: per-turn text equality under stable turn
    ordering — the sentences each turn contributes, re-assembled in sent_idx
    order from the DISTRIBUTED pipeline output, equal the single-process
    normalization of that turn's raw text (reference invariant
    dudepparse.py:1901-1906 lifted to turn level)."""
    import glob

    import pyarrow.parquet as pq

    from chinese_open_relation_extraction_for_entgraph_ray.functions.textnorm import (
        split_text,
    )

    raw = pq.read_table(sorted(glob.glob(TDIR + "/*.parquet"))[0:999],
                        columns=["conv_id", "turn_idx", "text"]).to_pandas()
    got = kg["sentences"].to_pandas()
    got_by_turn = {
        key: list(grp.sort_values("sent_idx")["text"])
        for key, grp in got.groupby(["conv_id", "turn_idx"])
    }
    checked = 0
    for _, row in raw.iterrows():
        expected = split_text(row["text"] or "")
        key = (row["conv_id"], row["turn_idx"])
        if expected:
            assert got_by_turn.get(key) == expected, key
            checked += 1
        else:
            assert key not in got_by_turn, key
    assert checked > 50


def test_sharded_triples_mid_stage_resume(ray_session):
    """triples_shards: identical output to the fused run, and a missing
    shard is the only thing recomputed on resume."""
    import json

    sdir = "/tmp/entgraph_test/kg_sharded"
    shutil.rmtree(sdir, ignore_errors=True)
    r1 = build_kg(TDIR, sdir, checkpoints="minimal", triples_shards=3)
    fused = build_kg(TDIR, ODIR)   # resume of module run
    a = r1["triples"].to_pandas()
    b = fused["triples"].to_pandas()
    cols = list(a.columns)
    assert a.sort_values(cols).reset_index(drop=True).equals(
        b[cols].sort_values(cols).reset_index(drop=True))

    # simulate preemption: drop stage commit + one shard
    os.remove(os.path.join(sdir, "triples/_lineage.json"))
    shutil.rmtree(os.path.join(sdir, "triples/shard-0001"))
    r2 = build_kg(TDIR, sdir, checkpoints="minimal", triples_shards=3)
    # only the missing shard ran, then the stage commit and its downstream
    assert r2["_meta"]["ran_stages"] == [
        "triples/shard-0001", "triples", "edges", "entities"]
    assert r2["triples"].count() == len(a)
    m = json.load(open(os.path.join(sdir, "triples/_lineage.json")))
    # merged metrics still cover every shard, not just the recomputed one,
    # with the fused build's key set
    assert _extraction_record(sdir, r2["triples"])["n_triples"] == len(a)
    fused_m = json.load(open(os.path.join(ODIR, "triples/_lineage.json")))
    assert m["metrics"]["extraction"]["n_one_word_parses"] == \
        fused_m["metrics"]["extraction"]["n_one_word_parses"]
    assert m["metrics"]["shards"] == 3


def test_sharded_manifest_ignores_stale_fused_metrics(ray_session):
    """A sharded build into an out_dir holding a fused build's triples
    metrics records the sharded stage's own counts, not the stale ones."""
    import json

    from chinese_open_relation_extraction_for_entgraph_ray.functions.cascade import (
        ExtractionConfig,
    )

    sdir = "/tmp/entgraph_test/kg_fused_then_sharded"
    shutil.rmtree(sdir, ignore_errors=True)
    fewer = ExtractionConfig(amend_pob=False, amend_vv=False,
                             amend_att_obj=False)
    n_fused = build_kg(TDIR, sdir, checkpoints="minimal",
                       config=fewer)["triples"].count()
    sharded = build_kg(TDIR, sdir, checkpoints="minimal", triples_shards=3)
    n = sharded["triples"].count()
    assert n != n_fused      # else stale counts would pass unnoticed
    with open(os.path.join(sdir, "triples/_lineage.json")) as fp:
        ext = json.load(fp)["metrics"]["extraction"]
    assert ext["n_triples"] == n
    # fewer shards: the extra shard dir goes, the rows stay the same
    assert build_kg(TDIR, sdir, checkpoints="minimal",
                    triples_shards=2)["triples"].count() == n
    assert sorted(e for e in os.listdir(os.path.join(sdir, "triples"))
                  if e.startswith("shard-")) == ["shard-0000", "shard-0001"]


def test_transient_task_failure_is_retried(ray_session):
    """Lineage-based recovery: a map task that fails transiently (once per
    worker process) is retried by Ray and the dataset still completes with
    full results — the recovery story a preemptible cluster depends on.
    Application exceptions need retry_exceptions in ray_remote_args; system
    failures (worker death) are retried without opt-in."""
    import pyarrow as pa
    import ray.data as rd

    marker_dir = "/tmp/entgraph_test/flaky_markers"
    shutil.rmtree(marker_dir, ignore_errors=True)
    os.makedirs(marker_dir, exist_ok=True)

    def flaky(batch: pa.Table) -> pa.Table:
        marker = os.path.join(marker_dir, f"pid-{os.getpid()}")
        if not os.path.exists(marker):
            with open(marker, "w") as fp:
                fp.write("x")
            raise IOError("injected transient failure")
        return batch

    ds = rd.range(10_000).map_batches(
        flaky, batch_size=1000, retry_exceptions=[IOError], max_retries=3)
    assert ds.count() == 10_000


def _bag(ds) -> list:
    """The rows of ``ds`` as a sorted multiset (row reprs, nulls kept)."""
    return sorted(repr(sorted(r.items())) for r in ds.take_all())


def test_dedup_sort_gating_identical_outputs(kg, ray_session):
    """The sorted plan (default) and the unsorted reference plan
    (dedup_sort=False) produce identical triples, edges and entities
    multisets in the checkpoints="all", fused and sharded layouts."""
    for layout, kwargs in (
            ("all", {}),
            ("fused", {"checkpoints": "minimal"}),
            ("sharded", {"checkpoints": "minimal", "triples_shards": 3})):
        bags = {}
        for on in (True, False):
            res = build_kg(TDIR, f"{ODIR}_ds_{layout}_{on}", resume=False,
                           dedup_sort=on, **kwargs)
            bags[on] = {k: _bag(res[k])
                        for k in ("triples", "edges", "entities")}
        assert bags[True]["triples"], layout
        assert bags[True] == bags[False], layout


def test_default_build_reads_transcripts_once(ray_session, monkeypatch,
                                              tmp_path):
    """A default cold build reads the transcripts once, for its
    ``sentences`` stage: no probe pass decides the plan.  ``dedup_sort`` is
    a bool; the retired ``"auto"`` is refused."""
    import ray.data as rd

    tdir = write_transcripts(str(tmp_path / "in"), SEED, 20)
    real, reads = rd.read_parquet, []

    def spy(paths, *args, **kwargs):
        if os.path.normpath(str(paths)) == os.path.normpath(tdir):
            reads.append(kwargs.get("columns"))
        return real(paths, *args, **kwargs)

    monkeypatch.setattr(rd, "read_parquet", spy)
    res = build_kg(tdir, str(tmp_path / "kg"), resume=False)
    assert res["_meta"]["ran_stages"][0] == "sentences"
    assert len(reads) == 1, reads
    with pytest.raises(ValueError, match="dedup_sort"):
        build_kg(tdir, str(tmp_path / "kg"), dedup_sort="auto")


def test_triples_manifest_counts_one_word_parses(kg):
    """The parser's single-HED fallback is counted: the triples manifest's
    ``n_one_word_parses`` equals a direct count of one-word rows over the
    ``parses`` stage's files."""
    import json

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    words = pq.read_table(os.path.join(ODIR, "parses"),
                          columns=["words"]).column("words")
    want = pc.sum(pc.equal(pc.list_value_length(words), 1)).as_py()
    with open(os.path.join(ODIR, "triples", "_lineage.json")) as fp:
        ext = json.load(fp)["metrics"]["extraction"]
    assert ext["n_one_word_parses"] == want > 0


def test_three_copies_triple_every_count(ray_session, tmp_path):
    """Metamorphic: the corpus written three times under fresh conv_ids
    gives every edge weight and entity mention_count exactly 3x the
    single-copy build's, and 3x its triples multiset with conv_id ignored,
    with the sort on and off.  Checked with pyarrow and DuckDB only."""
    import duckdb
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    one = write_transcripts(str(tmp_path / "one"), SEED + 1, 40)
    three = str(tmp_path / "three")
    os.makedirs(three)
    for k in range(3):
        for name in sorted(n for n in os.listdir(one)
                           if n.endswith(".parquet")):
            t = pq.read_table(os.path.join(one, name))
            conv = pc.binary_join_element_wise(
                t.column("conv_id"), pa.scalar(f"copy{k}"), "~")
            t = t.set_column(t.schema.get_field_index("conv_id"), "conv_id",
                             conv)
            pq.write_table(t, os.path.join(three, f"copy{k}-{name}"))

    for on in (True, False):
        a, b = str(tmp_path / f"kg_one_{on}"), str(tmp_path / f"kg_three_{on}")
        build_kg(one, a, resume=False, checkpoints="minimal", dedup_sort=on)
        build_kg(three, b, resume=False, checkpoints="minimal", dedup_sort=on)
        with duckdb.connect() as con:
            assert con.execute(f"SELECT count(*) FROM {_scan(a, 'edges')}") \
                      .fetchone()[0] > 0
            keys = "subj, pred, obj, subj_ent, obj_ent"
            assert _bag_diff(
                con, f"SELECT {keys}, 3 * weight FROM {_scan(a, 'edges')}",
                f"SELECT {keys}, weight FROM {_scan(b, 'edges')}") == 0, on
            assert _bag_diff(
                con, "SELECT entity_id, 3 * mention_count "
                     f"FROM {_scan(a, 'entities')}",
                "SELECT entity_id, mention_count "
                f"FROM {_scan(b, 'entities')}") == 0, on
            once = f"SELECT * EXCLUDE (conv_id) FROM {_scan(a, 'triples')}"
            assert _bag_diff(
                con, f"{once} UNION ALL {once} UNION ALL {once}",
                f"SELECT * EXCLUDE (conv_id) FROM {_scan(b, 'triples')}") \
                == 0, on


def test_dedup_sort_sees_coalesced_blocks(ray_session, monkeypatch, tmp_path):
    """A corpus of 60 small files reaches the dedup sort as at most
    ~sentences / PARSE_BATCH_SIZE blocks in every layout that parses (fused,
    sharded, the ``parses`` stage), not one block per read task.  Each
    sorted block is one parse task, so with checkpoints="all" the sort
    writes one ``parses`` file per block and no fewer than the unsorted
    plan, whose parse batches the read stream."""
    import glob
    import math

    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.pipelines.kg import (
        PARSE_BATCH_SIZE,
    )

    tdir = write_transcripts(str(tmp_path / "in"), SEED, 1800, files=60)
    seen = []
    real = rd.Dataset.sort

    def spy(self, key, *args, **kwargs):
        ds = self.materialize()
        if key == "__th":
            seen.append((ds.num_blocks(), ds.count()))
        return real(ds, key, *args, **kwargs)

    monkeypatch.setattr(rd.Dataset, "sort", spy)

    def parses_files(out_dir):
        return len(glob.glob(os.path.join(out_dir, "parses", "*.parquet")))

    for kwargs, n_sorts in (({"checkpoints": "minimal"}, 1),
                            ({"checkpoints": "minimal", "triples_shards": 3}, 3),
                            ({"checkpoints": "all"}, 1)):
        seen.clear()
        out_dir = str(tmp_path / "kg")
        build_kg(tdir, out_dir, resume=False, dedup_sort=True, **kwargs)
        assert len(seen) == n_sorts, kwargs
        for blocks, rows in seen:
            assert rows > PARSE_BATCH_SIZE // 2
            assert blocks <= math.ceil(rows / PARSE_BATCH_SIZE) + 1, kwargs
    assert parses_files(out_dir) == seen[0][0]
    unsorted = str(tmp_path / "kg_unsorted")
    build_kg(tdir, unsorted, resume=False, dedup_sort=False)
    assert parses_files(out_dir) >= parses_files(unsorted) > 1


def test_filter_histograms_match_recount(kg, ray_session):
    """Distributed stop-word/vcmp histograms == a single-process recount
    with process_sentence's own counters (the reference's merged, count-
    sorted buckets, merge_parsed_results.py:100-106,133-135)."""
    from chinese_open_relation_extraction_for_entgraph_ray.functions.cascade import (
        process_sentence,
    )
    from chinese_open_relation_extraction_for_entgraph_ray.functions.lexicon import (
        pos_map_for_words,
    )
    from chinese_open_relation_extraction_for_entgraph_ray.stages.extract import (
        _HIST_BUCKETS,
        filter_histograms,
    )

    got = filter_histograms(kg["parses"]).take_all()

    counters = {}
    for row in kg["parses"].take_all():
        words = list(row["words"])
        process_sentence(
            {"word": words, "head": list(row["heads"]),
             "deprel": list(row["deprels"])},
            pos_map_for_words(words), counters)
    want = {}
    for ck, n in counters.items():
        for prefix, bucket in _HIST_BUCKETS.items():
            if ck.startswith(prefix):
                want[(bucket, ck[len(prefix):])] = n
    assert {(r["bucket"], r["token"]): r["n"] for r in got} == want
    assert len(got) > 0
    # count-desc order inside each bucket (the reference's sort_dict)
    by_bucket = {}
    for r in got:
        by_bucket.setdefault(r["bucket"], []).append(r["n"])
    for ns in by_bucket.values():
        assert ns == sorted(ns, reverse=True)


def test_partition_metrics_retry_overwrites(tmp_path, monkeypatch):
    """Metric files are named by (task id, call seq): a retried task (same
    task id, fresh process counter) OVERWRITES its records instead of
    appending duplicates (ADVICE r1)."""
    from chinese_open_relation_extraction_for_entgraph_ray.state import lineage

    class _Ctx:
        def __init__(self, tid):
            self._tid = tid

        def get_task_id(self):
            return self._tid

    class _FakeRay:
        def __init__(self, tid):
            self._tid = tid

        def get_runtime_context(self):
            return _Ctx(self._tid)

    mdir = str(tmp_path / "metrics")
    monkeypatch.setattr(lineage, "ray", _FakeRay("task-A"), raising=False)
    # emit_partition_metrics imports ray inside _emit_name; patch there
    import sys
    monkeypatch.setitem(sys.modules, "ray", _FakeRay("task-A"))

    lineage._EMIT_SEQ.clear()
    lineage.emit_partition_metrics(mdir, {"n": 1})
    lineage.emit_partition_metrics(mdir, {"n": 2})
    assert lineage.merge_metric_records(mdir)["n"] == 3

    # simulate the retry: same task id, counter reset (fresh worker)
    lineage._EMIT_SEQ.clear()
    lineage.emit_partition_metrics(mdir, {"n": 10})
    lineage.emit_partition_metrics(mdir, {"n": 20})
    merged = lineage.merge_metric_records(mdir)
    assert merged["n"] == 30          # overwritten, not 33
    assert merged["n_partitions"] == 2


def test_fingerprint_sees_same_second_rewrite(tmp_path):
    """A same-size rewrite of an input within the same second changes the
    fingerprint, so ``resume=True`` recomputes instead of reusing stages
    built from the old contents."""
    from chinese_open_relation_extraction_for_entgraph_ray.state.lineage import (
        fingerprint_paths,
    )

    path = tmp_path / "transcripts-0000.parquet"
    second = 1_700_000_000 * 10**9
    path.write_bytes(b"old contents")
    os.utime(path, ns=(second + 100, second + 100))
    before = fingerprint_paths([str(path)])
    path.write_bytes(b"new contents")
    os.utime(path, ns=(second + 200, second + 200))
    assert fingerprint_paths([str(path)]) != before


def test_commit_drops_parts_of_superseded_attempts(ray_session, tmp_path):
    """Stage parts are named like the metric files: when one task id left
    parts of two attempts (a retried task), the commit deletes the
    superseded attempt's, so the manifest and ``read_parquet`` both see
    only the latest attempt's rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.state.lineage import (
        CheckpointStore,
    )

    store = CheckpointStore(str(tmp_path))
    sdir = store.stage_dir("sentences")
    os.makedirs(sdir)
    for name, rows in (("part-t1-a000-0000", 5), ("part-t1-a000-0001", 7),
                       ("part-t1-a001-0000", 3), ("part-t2-a000-0000", 2)):
        pq.write_table(pa.table({"n": [rows] * rows}),
                       os.path.join(sdir, f"{name}.parquet"))
    # a dead attempt's unrenamed part
    pq.write_table(pa.table({"n": [9]}),
                   os.path.join(sdir, "part-t1-a000-0002.parquet.tmp"))
    manifest = store.commit_stage("sentences", "fp")
    assert sorted(p["file"] for p in manifest["partitions"]) == [
        "part-t1-a001-0000.parquet", "part-t2-a000-0000.parquet"]
    assert manifest["total_rows"] == 5
    assert sorted(rd.read_parquet(sdir).to_pandas()["n"]) == [2, 2, 3, 3, 3]


@pytest.mark.parametrize("checkpoints", ["all", "minimal"])
def test_corpus_without_sentences_commits_empty_stages(ray_session, tmp_path,
                                                       checkpoints):
    """Turns that yield no sentence: every stage commits 0 rows and the
    build returns empty triples, edges and entities (the stage dirs used
    not to exist, so the commit failed)."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    tdir = tmp_path / "in"
    tdir.mkdir()
    pq.write_table(pa.table({"conv_id": ["c0", "c0"],
                             "turn_idx": pa.array([0, 1], pa.int32()),
                             "text": ["", "   "]}),
                   str(tdir / "transcripts-0000.parquet"))
    out = str(tmp_path / "kg")
    res = build_kg(str(tdir), out, resume=False, checkpoints=checkpoints)
    stages = ["triples", "edges", "entities"]
    if checkpoints == "all":
        stages = ["sentences", "parses"] + stages
    assert res["_meta"]["ran_stages"] == stages
    for name in stages:
        assert res[name].count() == 0, name
        with open(os.path.join(out, name, "_lineage.json")) as fp:
            assert json.load(fp)["total_rows"] == 0, name
    assert build_kg(str(tdir), out,
                    checkpoints=checkpoints)["_meta"]["ran_stages"] == []


def _n_distinct_parses(out_dir: str) -> int:
    import json

    with open(os.path.join(out_dir, "triples", "_lineage.json")) as fp:
        return json.load(fp)["metrics"]["extraction"]["n_distinct_parses"]


def test_n_distinct_parses_same_in_every_build(ray_session, tmp_path):
    """Extraction takes the dedup sort's blocks whole in both checkpoint
    modes, so two cold ``all`` builds and a ``minimal`` build run the
    cascade the same number of times."""
    got = []
    for k, mode in enumerate(("all", "all", "minimal")):
        out = str(tmp_path / f"kg{k}")
        build_kg(TDIR, out, resume=False, checkpoints=mode)
        got.append(_n_distinct_parses(out))
    assert got[0] > 0 and len(set(got)) == 1, got


def test_resume_starts_from_latest_committed_checkpoint(ray_session,
                                                        tmp_path):
    """checkpoints="all" resumes with one execution from the latest
    committed stage: with ``parses`` uncommitted it reads ``sentences``
    (leaving its files alone) and re-tees ``parses``; with only
    ``triples`` uncommitted it reads ``parses``.  The triples multiset is
    unchanged either way."""
    out = str(tmp_path / "kg")
    want = _bag(build_kg(TDIR, out, resume=False)["triples"])
    sdir = os.path.join(out, "sentences")

    def sentence_files():
        return {f: os.stat(os.path.join(sdir, f)).st_mtime_ns
                for f in os.listdir(sdir)}

    before = sentence_files()
    os.remove(os.path.join(out, "parses", "_lineage.json"))
    res = build_kg(TDIR, out)
    assert res["_meta"]["ran_stages"] == ["parses", "triples", "edges",
                                          "entities"]
    assert sentence_files() == before
    assert _bag(res["triples"]) == want
    assert res["parses"].count() == res["sentences"].count()

    os.remove(os.path.join(out, "triples", "_lineage.json"))
    res = build_kg(TDIR, out)
    assert res["_meta"]["ran_stages"] == ["triples", "edges", "entities"]
    assert _bag(res["triples"]) == want
