"""aggregate_edges: the salted hot-key round against the unsalted plan and a
single-process group-by."""

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


def test_salted_round_matches_unsalted_and_reference(ray_session,
                                                     monkeypatch):
    import ray.data as rd

    blocks = _triples()
    ref = _reference(blocks)
    hot = [e for e in ref if e[:5] == tuple(v or "" for v in HOT)]
    n_fine = sum(pc.sum(pc.equal(b.column("rel_kind"), "fine")).as_py()
                 for b in blocks)
    assert len(hot) == 1 and 0.4 < hot[0][5] / n_fine < 0.6

    rounds = []
    real = groupagg.sorted_hash_aggregate

    def spy(ds, key_cols, agg_spec):
        rounds.append(list(key_cols))
        return real(ds, key_cols, agg_spec)

    monkeypatch.setattr(groupagg, "sorted_hash_aggregate", spy)
    # small combiner batches: the hot key reaches the exchange once per
    # batch, with a batch-varying sample_conv_id and so varying salts
    monkeypatch.setattr(canonicalize, "combine_batch_size", lambda: 100)
    ds = rd.from_arrow(blocks)
    assert ds.num_blocks() == N_BLOCKS

    unsalted = _edges(canonicalize.aggregate_edges(ds))
    assert rounds == [canonicalize.EDGE_KEYS]

    rounds.clear()
    monkeypatch.setattr(canonicalize, "SALT_BLOCK_THRESHOLD", 0)
    salted = _edges(canonicalize.aggregate_edges(ds))
    assert rounds == [["salt"] + canonicalize.EDGE_KEYS,
                      canonicalize.EDGE_KEYS]

    assert salted == unsalted == ref


def test_salt_splits_the_hot_key():
    """The salt varies within one key (it hashes the provenance column) and
    stays in [0, NUM_SALTS)."""
    ids = [f"c{i:04d}" for i in range(400)]
    partial = pa.table({"sample_conv_id": ids})
    salts = canonicalize._add_salt(partial).column("salt").to_pylist()
    assert set(salts) <= set(range(canonicalize.NUM_SALTS))
    assert len(set(salts)) > canonicalize.NUM_SALTS // 2
