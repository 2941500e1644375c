"""sorted_hash_aggregate conformance vs a single-process reference,
including boundary-heavy block layouts."""

import collections

import pyarrow as pa
import pytest

from chinese_open_relation_extraction_for_entgraph_ray.stages.groupagg import (
    sorted_hash_aggregate,
)


def _reference(rows, key_cols, agg_spec):
    groups = collections.defaultdict(list)
    for r in rows:
        groups[tuple(r[k] for k in key_cols)].append(r)
    out = []
    for key, members in groups.items():
        rec = dict(zip(key_cols, key))
        for col, fn in agg_spec:
            vals = [m[col] for m in members]
            rec[col] = sum(vals) if fn == "sum" else \
                (min(vals) if fn == "min" else max(vals))
        out.append(rec)
    return sorted(out, key=lambda r: tuple(str(r[k]) for k in key_cols))


@pytest.mark.parametrize("n_keys,n_rows,n_blocks", [
    (7, 500, 10),       # few keys, many blocks: every key straddles
    (400, 500, 4),      # mostly singleton keys
    (1, 300, 8),        # single hot key across every block
])
def test_sorted_hash_aggregate_matches_reference(ray_session, n_keys, n_rows,
                                                 n_blocks):
    import ray.data as rd

    rows = [{"k": f"key-{i % n_keys}", "aux": f"aux-{i % 3}",
             "w": i % 11, "m": i}
            for i in range(n_rows)]
    ds = rd.from_items(rows).repartition(n_blocks).map_batches(
        lambda b: b, batch_format="pyarrow")   # normalize to arrow blocks
    spec = [("w", "sum"), ("m", "min")]
    got = sorted(
        sorted_hash_aggregate(ds, ["k", "aux"], spec).take_all(),
        key=lambda r: (str(r["k"]), str(r["aux"])))
    want = _reference(rows, ["k", "aux"], spec)
    assert [dict(g) for g in got] == want


def test_key_hash_null_distinct_from_empty_string(ray_session):
    """A null key value and '' must stay separate groups (ADVICE r1: the old
    encoding mapped both to the same hash)."""
    import ray.data as rd

    tbl = pa.table({"k": pa.array([None, "", None, ""], pa.string()),
                    "w": [1, 10, 2, 20]})
    ds = rd.from_arrow(tbl)
    got = sorted(sorted_hash_aggregate(ds, ["k"], [("w", "sum")]).take_all(),
                 key=lambda r: (r["k"] is None, str(r["k"])))
    assert [(r["k"], r["w"]) for r in got] == [("", 30), (None, 3)]


def test_key_hash_vectorized_matches_rowwise_semantics():
    """The vectorized hash must give one distinct (hi, lo) per distinct key
    tuple and identical hashes for equal tuples across batches."""
    from chinese_open_relation_extraction_for_entgraph_ray.stages.groupagg import (
        _KH,
        _KL,
        _add_key_hash,
    )

    t1 = pa.table({"a": ["x", "y", None, "x"], "b": [1, 2, 3, 1]})
    t2 = pa.table({"a": ["x", None], "b": [1, 3]})
    h1 = _add_key_hash(t1, ["a", "b"])
    h2 = _add_key_hash(t2, ["a", "b"])
    key1 = list(zip(h1.column(_KH).to_pylist(), h1.column(_KL).to_pylist()))
    key2 = list(zip(h2.column(_KH).to_pylist(), h2.column(_KL).to_pylist()))
    assert key1[0] == key1[3] == key2[0]      # ("x", 1) everywhere
    assert key1[2] == key2[1]                 # (None, 3)
    assert len({key1[0], key1[1], key1[2]}) == 3


def test_sorted_hash_aggregate_rejects_nonreaggregatable(ray_session):
    import ray.data as rd

    ds = rd.from_items([{"k": "a", "w": 1}])
    with pytest.raises(ValueError, match="non-reaggregatable"):
        sorted_hash_aggregate(ds, ["k"], [("w", "mean")])


@pytest.mark.parametrize("n_keys", [41, None], ids=["41-keys",
                                                     "distinct-keys"])
def test_auto_hash_aggregate_one_plan_matches_reference(ray_session,
                                                        monkeypatch, n_keys):
    """Few keys or every key distinct, the pre-combine feeds exactly one
    ``sorted_hash_aggregate`` and the result is materialized and equals the
    single-process reference."""
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    from chinese_open_relation_extraction_for_entgraph_ray.stages import groupagg

    calls = []
    real = groupagg.sorted_hash_aggregate

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(groupagg, "sorted_hash_aggregate", spy)
    rows = [{"k": f"key{i % n_keys if n_keys else i}", "aux": i % 3,
             "w": i, "m": -i}
            for i in range(3000)]
    ds = rd.from_items(rows).repartition(5).map_batches(
        lambda b: b, batch_format="pyarrow")
    spec = [("w", "sum"), ("m", "min")]
    out = groupagg.auto_hash_aggregate(ds, ["k", "aux"], spec)
    assert isinstance(out, MaterializedDataset)
    got = sorted(out.take_all(), key=lambda r: (str(r["k"]), str(r["aux"])))
    want = _reference(rows, ["k", "aux"], spec)
    assert len(want) == (123 if n_keys else 3000)
    assert [dict(g) for g in got] == want
    assert calls == [["k", "aux"]]
