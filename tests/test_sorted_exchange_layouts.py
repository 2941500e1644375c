"""Layout invariance of the ops built on one sort by key
(``sorted_map_groups`` in ``stages/blockgroup.py``, ``sorted_hash_aggregate``
in ``stages/groupagg.py``) and of ``duplicate_spans`` (``stages/spans.py``):
each op's output multiset is the same whether its input is one block or
about 3 rows per block, where most key groups start spread over several
input blocks and only the sort gathers them.  Every input carries a hot
key spread over >= 3 of the small blocks."""

import math

import numpy as np
import pyarrow as pa
import pytest


def _layouts(tbl: pa.Table):
    """The same rows as one block and as ~3-row blocks (order kept)."""
    import ray.data as rd

    ds = rd.from_arrow(tbl)
    return ds.repartition(1), ds.repartition(math.ceil(tbl.num_rows / 3))


def _multiset(ds) -> list:
    rows = [tuple(sorted(r.items())) for r in ds.take_all()]
    return sorted(rows, key=repr)


def _join_sides():
    # left: hot key 0 on every third row, nulls, keys with no right match
    lk = [0 if i % 3 == 0 else (None if i % 11 == 5 else i % 9)
          for i in range(40)]
    left = pa.table({"k": pa.array(lk, pa.int64()),
                     "x": pa.array(range(40), pa.int64())})
    # right: one duplicated key (3), a right-only key (20), a null key
    right = pa.table({
        "rk": pa.array([0, 1, 2, 3, 3, 4, 6, 20, None], pa.int64()),
        "name": ["z", "a", "b", "c1", "c2", "d", "f", "t", "n"]})
    return left, right


def _docs():
    base = ("the quick brown fox jumps over the lazy dog while the cat "
            "watches from the warm stone wall near the garden gate").split()
    rows = []
    for i in range(45):
        words = list(base)
        if i % 3 == 0:
            pass                                   # hot exact-dup cluster
        elif i % 5 == 1:
            words[3] = f"fox{i % 2}"              # near-dup cluster
        elif i % 5 == 2:
            words = words + [f"tail{i}"]          # appended token
        else:
            words = [f"w{i}-{j}" for j in range(12)] + base[:4]
        rows.append((i, " ".join(words)))
    return pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                     "text": [r[1] for r in rows]})


def _vectors():
    rng = np.random.RandomState(5)
    hot = rng.standard_normal(8)
    vecs = []
    for i in range(45):
        if i % 3 == 0:
            v = hot                                   # hot identical group
        elif i % 7 == 1:
            v = vecs[i - 1] + 1e-3 * rng.standard_normal(8)   # near dup
        else:
            v = rng.standard_normal(8)
        vecs.append(np.asarray(v, dtype=np.float64))
    return pa.table({
        "vec_id": pa.array(range(45), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float64()))})


def _agg_rows():
    # hot key 0 on every other row, plus a two-column key
    k = [0 if i % 2 == 0 else i % 7 for i in range(60)]
    return pa.table({"k": pa.array(k, pa.int64()),
                     "tag": [f"t{v % 3}" for v in k],
                     "w": pa.array([i % 5 for i in range(60)], pa.int64()),
                     "x": pa.array([float(i) for i in range(60)])})


def _run(op: str, one: bool):
    from chinese_open_relation_extraction_for_entgraph_ray.stages import (
        dedup,
        groupagg,
        joins,
        semdedup,
        similarity,
        spans,
    )

    pick = 0 if one else 1
    if op == "hash_aggregate":
        return groupagg.sorted_hash_aggregate(
            _layouts(_agg_rows())[pick], ["k", "tag"],
            [("w", "sum"), ("x", "max")])
    if op in ("spans", "spans_semi_join"):
        docs = _layouts(_docs())[pick]
        with pytest.MonkeyPatch.context() as mp:
            if op == "spans_semi_join":
                mp.setattr(spans, "MAX_BROADCAST_DUP_HASHES", 2)
            return spans.duplicate_spans(docs, window=12)
    if op.startswith(("lookup", "semi", "outer")):
        left, right = (_layouts(t)[pick] for t in _join_sides())
        with pytest.MonkeyPatch.context() as mp:
            # the sorted-block exchange, not the broadcast of a small side
            mp.setattr(joins, "BROADCAST_LOOKUP_THRESHOLD", 0)
            mp.setattr(joins, "BROADCAST_KEYS_THRESHOLD", 0)
            if op in ("lookup_inner", "lookup_left"):
                return joins.lookup_join(
                    left, right, left_key="k", right_key="rk",
                    payload=["name"], how=op.split("_")[1])
            if op in ("semi_semi", "semi_anti"):
                return joins.semi_join(left, right, left_key="k",
                                       right_key="rk",
                                       anti=op == "semi_anti")
        return joins.outer_join(left, right, left_key="k", right_key="rk",
                                left_payload=["x"], right_payload=["name"])
    if op in ("minhash", "simhash", "shingle"):
        docs = _layouts(_docs())[pick]
        return {"minhash": dedup.minhash_candidate_pairs,
                "simhash": dedup.simhash_near_dups,
                "shingle": dedup.shingle_intersections}[op](docs)
    vecs = _layouts(_vectors())[pick]
    if op == "embedding":
        return similarity.embedding_near_dups(vecs, threshold=0.9, bits=4,
                                              tables=2)
    return semdedup.semdedup(vecs, threshold=0.999, n_clusters=4)


@pytest.mark.parametrize("op", [
    "lookup_inner", "lookup_left", "semi_semi", "semi_anti", "outer",
    "minhash", "simhash", "shingle", "embedding", "semdedup",
    "hash_aggregate", "spans", "spans_semi_join"])
def test_output_independent_of_block_layout(ray_session, op):
    one_block = _multiset(_run(op, one=True))
    small_blocks = _multiset(_run(op, one=False))
    assert one_block, "fixture must produce output"
    assert small_blocks == one_block
