"""One Ray Data execution per build: edges and entities are aggregated
inside the stream that builds triples, and every layout still gives edges
and entities equal to a pandas GROUP BY over the build's own triples."""

import json
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from chinese_open_relation_extraction_for_entgraph_ray.pipelines.kg import build_kg
from chinese_open_relation_extraction_for_entgraph_ray.sources.synthetic import (
    write_transcripts,
)
from chinese_open_relation_extraction_for_entgraph_ray.stages.preprocess import (
    SENTENCES_SCHEMA,
    explode_turns,
)

SEED, NUM_CONVS = 43, 40
EDGE_KEYS = ["subj", "pred", "obj", "subj_ent", "obj_ent"]


@pytest.fixture(scope="module")
def tdir(tmp_path_factory):
    return write_transcripts(str(tmp_path_factory.mktemp("in")), SEED,
                             NUM_CONVS)


def _stage(out_dir: str, stage: str) -> pd.DataFrame:
    files = sorted(os.path.join(d, f)
                   for d, _, fs in os.walk(os.path.join(out_dir, stage))
                   for f in fs if f.endswith(".parquet"))
    return pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()


def _rows(df: pd.DataFrame, cols: list[str]) -> list[tuple]:
    return sorted(tuple(r) for r in df[cols].itertuples(index=False))


def _check_against_triples(out_dir: str) -> None:
    """edges == GROUP BY over triples, entities == the mention count of each
    linked side of those triples; both computed with pandas alone."""
    triples = _stage(out_dir, "triples")
    fine = triples[triples["rel_kind"].isin(["fine", "amend_fine"])].copy()
    for c in EDGE_KEYS:
        fine[c] = fine[c].fillna("")
    want = fine.groupby(EDGE_KEYS, as_index=False).agg(
        weight=("conv_id", "size"), sample_conv_id=("conv_id", "min"),
        sample_turn_idx=("turn_idx", "min"))
    cols = EDGE_KEYS + ["weight", "sample_conv_id", "sample_turn_idx"]
    assert len(want) > 0
    assert _rows(_stage(out_dir, "edges"), cols) == _rows(want, cols)

    ents = pd.concat([fine["subj_ent"], fine["obj_ent"]])
    ents = ents[ents != ""]
    want = ents.value_counts().rename_axis("entity_id") \
               .reset_index(name="mention_count")
    cols = ["entity_id", "mention_count"]
    assert _rows(_stage(out_dir, "entities"), cols) == _rows(want, cols)


def _manifest(out_dir: str, stage: str) -> dict:
    with open(os.path.join(out_dir, stage, "_lineage.json")) as fp:
        return json.load(fp)


CASES = {
    "all": ({"checkpoints": "all"}, None),
    "minimal": ({"checkpoints": "minimal"}, None),
    "minimal_shards3": ({"checkpoints": "minimal", "triples_shards": 3}, None),
    "resume_edges": ({"checkpoints": "minimal"}, "edges"),
    "resume_entities": ({"checkpoints": "all"}, "entities"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_edges_entities_equal_pandas_group_by(ray_session, tdir, tmp_path,
                                              case):
    """Cold builds in both modes and sharded, and resumes that rebuild only
    ``edges`` + ``entities`` or only ``entities``: the stages sharing an
    execution are named in each manifest, the group-bys count the rows
    their combiner sent to the sort, and the outputs equal pandas."""
    kwargs, uncommit = CASES[case]
    out = str(tmp_path / "kg")
    res = build_kg(tdir, out, resume=False, **kwargs)
    chain = (["sentences", "parses"] if kwargs["checkpoints"] == "all"
             else []) + ["triples", "edges", "entities"]
    if uncommit:
        if uncommit == "edges":
            shutil.rmtree(os.path.join(out, "edges"))
        else:
            os.remove(os.path.join(out, uncommit, "_lineage.json"))
        res = build_kg(tdir, out, **kwargs)
        chain = chain[chain.index(uncommit):]
        assert res["_meta"]["ran_stages"] == chain
    elif "triples_shards" in kwargs:
        assert res["_meta"]["ran_stages"][-3:] == chain
        assert _manifest(out, "triples")["metrics"]["execution_stages"] \
            == ["triples"]
        chain = ["edges", "entities"]
    else:
        assert res["_meta"]["ran_stages"] == chain
    walls = {_manifest(out, s)["metrics"]["wall_sec"] for s in chain}
    assert len(walls) == 1
    for s in chain:
        assert _manifest(out, s)["metrics"]["execution_stages"] == chain
    for s in ("edges", "entities"):
        m = _manifest(out, s)
        assert m["metrics"]["extraction"]["n_exchange_rows"] \
            >= m["total_rows"] > 0
    _check_against_triples(out)


@pytest.mark.parametrize("checkpoints", ["all", "minimal"])
def test_cold_build_is_one_execution(ray_session, tdir, tmp_path,
                                     monkeypatch, checkpoints):
    """A cold build calls ``Dataset.write_parquet`` once (the last stage;
    the others are teed) and never materializes or counts a Dataset
    itself, so Ray runs it as one execution.  Calls made inside another
    spied call (``write_parquet`` materializes its write) are Ray's own."""
    import ray.data as rd

    calls, depth = [], [0]
    for name in ("write_parquet", "materialize", "count"):
        real = getattr(rd.Dataset, name)

        def spy(self, *args, _name=name, _real=real, **kwargs):
            if not depth[0]:
                calls.append(_name)
            depth[0] += 1
            try:
                return _real(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(rd.Dataset, name, spy)
    res = build_kg(tdir, str(tmp_path / "kg"), resume=False,
                   checkpoints=checkpoints)
    assert res["_meta"]["ran_stages"][-3:] == ["triples", "edges", "entities"]
    assert calls == ["write_parquet"]


@pytest.mark.parametrize("dedup_sort", [True, False])
def test_files_larger_than_a_parse_batch_are_split(ray_session, tmp_path,
                                                   monkeypatch, dedup_sort):
    """A corpus of two files, each larger than a parse batch: the read
    splits them into about one block per PARSE_BATCH_SIZE turns, so
    sentences, parses and triples each run as more than one partition per
    file (the dedup sort keeps the read's block count), and edges and
    entities still equal pandas."""
    from chinese_open_relation_extraction_for_entgraph_ray.pipelines import kg

    batch = 16
    monkeypatch.setattr(kg, "PARSE_BATCH_SIZE", batch)
    big = write_transcripts(str(tmp_path / "in"), SEED, NUM_CONVS, files=2)
    turns = [pq.ParquetFile(os.path.join(big, f)).metadata.num_rows
             for f in sorted(os.listdir(big)) if f.endswith(".parquet")]
    assert len(turns) == 2 and min(turns) > 2 * batch
    out = str(tmp_path / "kg")
    build_kg(big, out, resume=False, checkpoints="all",
             dedup_sort=dedup_sort)
    bundles = sum(t // batch for t in turns)
    for stage in ("sentences", "parses", "triples"):
        assert len(_manifest(out, stage)["partitions"]) >= bundles > len(turns)
    _check_against_triples(out)


def _explode_reference(batch: pa.Table) -> pa.Table:
    """explode_turns with ``to_pylist`` columns (the per-row reference)."""
    from chinese_open_relation_extraction_for_entgraph_ray.functions.textnorm import (
        split_text,
    )

    rows = [(cid, tid, si, sent) for cid, tid, text in zip(
        *(batch.column(c).to_pylist() for c in ("conv_id", "turn_idx", "text")))
        for si, sent in enumerate(split_text(text or ""))]
    return pa.Table.from_arrays(
        [pa.array([r[k] for r in rows], f.type)
         for k, f in enumerate(SENTENCES_SCHEMA)], schema=SENTENCES_SCHEMA)


@pytest.mark.parametrize("with_nulls", [False, True])
def test_explode_turns_matches_per_row_reference(tdir, with_nulls):
    """The numpy column path gives the same sentence table as
    ``to_pylist`` columns, also with null ids, turn indices and texts."""
    batch = pq.read_table(tdir, columns=["conv_id", "turn_idx", "text"])
    if with_nulls:
        extra = pa.table({
            "conv_id": pa.array([None, "c-x", "c-y", None], pa.string()),
            "turn_idx": pa.array([3, None, 1, None], pa.int32()),
            "text": pa.array(["你好。今天天气很好！", "张伟访问了北京。", None, ""],
                             pa.string())})
        batch = pa.concat_tables([batch, extra.cast(batch.schema)])
    got = explode_turns(batch)
    assert got.num_rows > 100
    assert got.equals(_explode_reference(batch))
