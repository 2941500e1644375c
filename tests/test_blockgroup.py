"""sorted_map_groups conformance vs Ray's groupby().map_groups(), including
block-heavy layouts (hot key spanning blocks, singleton keys), and the Ray
sort invariant the operator rests on."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from chinese_open_relation_extraction_for_entgraph_ray.stages.blockgroup import (
    sorted_map_groups,
)


@pytest.mark.parametrize("max_block_bytes", [None, 64 * 1024])
@pytest.mark.parametrize("keys", [["k"], ["s"], ["a", "b"]])
def test_sort_keeps_each_key_group_in_one_block(ray_session, keys,
                                                max_block_bytes):
    """``ds.sort(keys)`` range-partitions by key and emits one block per
    partition, so no key lands in two output blocks — even a key holding
    half the rows, spread over all 40 input blocks, and under a small
    ``target_max_block_size``.  ``sorted_map_groups`` and
    ``sorted_hash_aggregate`` apply per sorted block with no second pass,
    so a Ray that splits a key group must fail here."""
    import ray
    import ray.data as rd
    from ray.data import DataContext

    n, n_blocks = 40_000, 40
    i = np.arange(n)
    k = np.where(i % 2 == 0, 0, i % 997)          # key 0 holds half the rows
    tbl = pa.table({"k": k, "s": [f"u{v}" for v in k], "a": k % 7,
                    "b": [f"b{v % 13}" for v in k],
                    "pad": ["x" * 32] * n})
    ctx = DataContext.get_current()
    default_bytes = ctx.target_max_block_size
    if max_block_bytes:
        ctx.target_max_block_size = max_block_bytes
    try:
        step = n // n_blocks
        ds = rd.from_arrow([tbl.slice(j * step, step)
                            for j in range(n_blocks)])
        bundles = ds.sort(keys).materialize().iter_internal_ref_bundles()
        blocks = [ray.get(r) for b in bundles for r in b.block_refs]
    finally:
        ctx.target_max_block_size = default_bytes
    blocks = [b for b in blocks if b.num_rows]
    assert len(blocks) >= 2, "the sort must spread keys over blocks"
    assert sum(b.num_rows for b in blocks) == n
    owner: dict = {}
    for j, b in enumerate(blocks):
        for key in set(zip(*(b.column(c).to_pylist() for c in keys))):
            assert owner.setdefault(key, j) == j, \
                f"key {key} in sorted blocks {owner[key]} and {j}"


@pytest.mark.parametrize("n_keys,n_rows,n_blocks", [
    (37, 5000, 13),     # normal fan-out
    (2, 600, 10),       # every block boundary straddles a group
    (500, 600, 4),      # mostly singleton groups
])
def test_sorted_map_groups_matches_map_groups(ray_session, n_keys, n_rows,
                                              n_blocks):
    import ray.data as rd

    # defined in-test so cloudpickle ships it by value (test modules are not
    # importable from Ray workers)
    def fn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("i")
        return pd.DataFrame({"k": [g["k"].iloc[0]], "n": [len(g)],
                             "vsum": [float(g["v"].sum())]})

    schema = pa.schema([("k", pa.string()), ("n", pa.int64()),
                        ("vsum", pa.float64())])
    rows = [{"k": f"u{i % n_keys}", "v": float(i % 17), "i": i}
            for i in range(n_rows)]
    ds = rd.from_items(rows).repartition(n_blocks)
    got = sorted(sorted_map_groups(ds, ["k"], fn, schema=schema).take_all(),
                 key=lambda r: r["k"])
    want = sorted(ds.groupby("k").map_groups(
        fn, batch_format="pandas").take_all(), key=lambda r: r["k"])
    assert [dict(r) for r in got] == [dict(r) for r in want]


def test_sorted_map_groups_multi_key(ray_session):
    import ray.data as rd

    rows = [{"a": f"x{i % 3}", "b": i % 4, "v": float(i), "i": i, "k": ""}
            for i in range(200)]

    def fn(g):
        return pd.DataFrame({"a": [g["a"].iloc[0]], "b": [g["b"].iloc[0]],
                             "n": [len(g)]})

    schema = pa.schema([("a", pa.string()), ("b", pa.int64()),
                        ("n", pa.int64())])
    ds = rd.from_items(rows).repartition(6)
    got = sorted(sorted_map_groups(ds, ["a", "b"], fn,
                                   schema=schema).take_all(),
                 key=lambda r: (r["a"], r["b"]))
    want = sorted(ds.groupby(["a", "b"]).map_groups(
        fn, batch_format="pandas").take_all(),
        key=lambda r: (r["a"], r["b"]))
    assert [dict(r) for r in got] == [dict(r) for r in want]


def test_sorted_map_groups_nullable_int_output(ray_session):
    """A fn emitting NaN in an int64-schema column must yield nulls, not a
    cast error (the as-of join's unmatched-payload path)."""
    import numpy as np
    import ray.data as rd

    def fn(g):
        return pd.DataFrame({"k": [g["k"].iloc[0]],
                             "m": [np.nan if g["k"].iloc[0] == "u1"
                                   else 7.0]})

    schema = pa.schema([("k", pa.string()), ("m", pa.int64())])
    ds = rd.from_items([{"k": f"u{i % 3}", "v": i} for i in range(30)])
    got = {r["k"]: r["m"]
           for r in sorted_map_groups(ds, ["k"], fn, schema=schema).take_all()}
    assert got == {"u0": 7, "u1": None, "u2": 7}


def test_sorted_map_groups_block_fn_matches_fn(ray_session):
    """The vectorized block_fn path must agree with the per-group fn path."""
    import numpy as np
    import ray.data as rd

    rows = [{"k": i % 41, "v": float((i * 7) % 23), "i": i}
            for i in range(4000)]
    ds = rd.from_items(rows).repartition(11)
    schema = pa.schema([("k", pa.int64()), ("n", pa.int64()),
                        ("vmax", pa.float64())])

    def per_group(g):
        return pd.DataFrame({"k": [g["k"].iloc[0]], "n": [len(g)],
                             "vmax": [float(g["v"].max())]})

    def per_block(df):
        return (df.groupby("k", sort=False)
                .agg(n=("v", "size"), vmax=("v", "max"))
                .reset_index())

    a = sorted(sorted_map_groups(ds, ["k"], per_group,
                                 schema=schema).take_all(),
               key=lambda r: r["k"])
    b = sorted(sorted_map_groups(ds, ["k"], block_fn=per_block,
                                 schema=schema).take_all(),
               key=lambda r: r["k"])
    assert [dict(r) for r in a] == [dict(r) for r in b]


def test_sorted_map_groups_requires_exactly_one_callable(ray_session):
    import ray.data as rd

    ds = rd.from_items([{"k": 1}])
    schema = pa.schema([("k", pa.int64())])
    with pytest.raises(ValueError, match="exactly one"):
        sorted_map_groups(ds, ["k"], schema=schema)
    with pytest.raises(ValueError, match="exactly one"):
        sorted_map_groups(ds, ["k"], lambda g: g, schema=schema,
                          block_fn=lambda df: df)
