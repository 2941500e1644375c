"""aggregate_edges / aggregate_entities (combiner -> sorted_hash_aggregate):
a planted hot key against a single-process group-by, and the coalescing of
many small blocks before ``auto_hash_aggregate``'s exchange."""

import math
import random

import pyarrow as pa
import pyarrow.compute as pc

from chinese_open_relation_extraction_for_entgraph_ray.stages import (
    canonicalize,
    groupagg,
)

HOT = ("张伟", "访问", "数据", "张伟", None)
N_BLOCKS, BLOCK_ROWS = 8, 400


def _triples() -> list[pa.Table]:
    """N_BLOCKS triples tables; about half of the fine rows carry HOT."""
    rng = random.Random(7)
    subjs, objs = ["张伟", "李娜", "它", None], ["数据", "论文", "成功", None]
    rows = []
    for i in range(N_BLOCKS * BLOCK_ROWS):
        kind = rng.choice(["fine", "fine", "amend_fine", "coarse"])
        if kind == "fine" and rng.random() < 0.5:
            subj, pred, obj, subj_ent, obj_ent = HOT
        else:
            subj, obj = rng.choice(subjs), rng.choice(objs)
            pred = rng.choice(["访问", "发布", "运行"])
            subj_ent = subj if subj in ("张伟", "李娜") else None
            obj_ent = None
        rows.append({"conv_id": f"c{rng.randrange(10**6):06d}",
                     "turn_idx": rng.randrange(50), "rel_kind": kind,
                     "subj": subj, "pred": pred, "obj": obj,
                     "subj_ent": subj_ent, "obj_ent": obj_ent})
    schema = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int32()),
                        ("rel_kind", pa.string())]
                       + [(c, pa.string()) for c in canonicalize.EDGE_KEYS])
    table = pa.Table.from_pylist(rows, schema=schema)
    return [table.slice(k * BLOCK_ROWS, BLOCK_ROWS) for k in range(N_BLOCKS)]


def _reference(blocks: list[pa.Table]) -> list[tuple]:
    t = pa.concat_tables(blocks)
    t = t.filter(pc.is_in(t.column("rel_kind"),
                          value_set=pa.array(canonicalize.EDGE_KINDS)))
    for c in ("subj", "obj", "subj_ent", "obj_ent"):
        t = t.set_column(t.schema.get_field_index(c), c,
                         pc.fill_null(t.column(c), ""))
    agg = t.group_by(canonicalize.EDGE_KEYS).aggregate(
        [("subj", "count"), ("conv_id", "min"), ("turn_idx", "min")])
    return sorted(zip(*(agg.column(c).to_pylist() for c in
                        canonicalize.EDGE_KEYS + ["subj_count", "conv_id_min",
                                                  "turn_idx_min"])))


def _edges(ds) -> list[tuple]:
    return sorted(tuple(r[c] for c in canonicalize.EDGE_KEYS
                        + ["weight", "sample_conv_id", "sample_turn_idx"])
                  for r in ds.take_all())


def _entities_reference(edges: list[tuple]) -> list[tuple]:
    total: dict = {}
    for e in edges:
        for ent in (e[3], e[4]):
            if ent:
                total[ent] = total.get(ent, 0) + e[5]
    return sorted(total.items())


def test_hot_key_edges_match_reference(ray_session, monkeypatch):
    """Half of the fine rows carry one key; edges and entities equal the
    single-process group-by on the one sorted path, and the hot key reaches
    the edges sort from several input blocks — at most once per block
    (the combiner takes each block whole).  ``groupagg`` has no
    small-partials threshold that could route either aggregate off that
    path."""
    import ray.data as rd

    assert not hasattr(groupagg, "AUTO_SMALL_PARTIALS")
    blocks = _triples()
    ref = _reference(blocks)
    hot = [e for e in ref if e[:5] == tuple(v or "" for v in HOT)]
    n_fine = sum(pc.sum(pc.equal(b.column("rel_kind"), "fine")).as_py()
                 for b in blocks)
    assert len(hot) == 1 and 0.4 < hot[0][5] / n_fine < 0.6

    exchanges = []
    real = groupagg.sorted_hash_aggregate

    def spy(ds, key_cols, agg_spec):
        ds = ds.materialize()
        exchanges.append((list(key_cols), ds.take_all()))
        return real(ds, key_cols, agg_spec)

    monkeypatch.setattr(canonicalize, "sorted_hash_aggregate", spy)
    edges = canonicalize.aggregate_edges(rd.from_arrow(blocks)).materialize()
    assert _edges(edges) == ref
    entities = sorted((r["entity_id"], r["mention_count"]) for r in
                      canonicalize.aggregate_entities(edges).take_all())
    assert entities == _entities_reference(ref)
    assert [keys for keys, _ in exchanges] == [canonicalize.EDGE_KEYS,
                                               ["entity_id"]]
    hot_partials = [r for r in exchanges[0][1]
                    if tuple(r[c] for c in canonicalize.EDGE_KEYS)
                    == hot[0][:5]]
    assert 1 < len(hot_partials) <= N_BLOCKS
    assert sum(r["weight"] for r in hot_partials) == hot[0][5]


def test_many_small_blocks_are_coalesced_before_the_exchange(ray_session,
                                                             monkeypatch):
    """600 one-block inputs reach the sort as ~rows / combine_batch_size()
    partial blocks, not one per input block."""
    import ray.data as rd

    n_blocks, block_rows, batch = 600, 5, 1000
    rows = n_blocks * block_rows
    seen = []
    real = groupagg.sorted_hash_aggregate

    def spy(ds, key_cols, agg_spec):
        ds = ds.materialize()
        seen.append(ds.num_blocks())
        assert seen[-1] <= math.ceil(rows / batch)
        return real(ds, key_cols, agg_spec)

    monkeypatch.setattr(groupagg, "sorted_hash_aggregate", spy)
    monkeypatch.setattr(groupagg, "combine_batch_size", lambda: batch)
    ds = rd.from_arrow([
        pa.table({"k": [f"k{(b * block_rows + i) % 1500}"
                        for i in range(block_rows)],
                  "w": pa.array([1] * block_rows, pa.int64())})
        for b in range(n_blocks)])
    assert ds.num_blocks() == n_blocks
    got = groupagg.auto_hash_aggregate(ds, ["k"], [("w", "sum")]).take_all()
    assert len(seen) == 1
    assert sorted((r["k"], r["w"]) for r in got) == sorted(
        (f"k{i}", 2) for i in range(1500))
