"""Round-3 regression tests for the round-2 ADVICE findings: SQL null-key
semantics in the sorted-block equi-join and grouped apply, injective key-tuple
encoding in the sorted hash aggregate, metric-emit sequence eviction, and
empty-input guards in the sketch / connected-components operators."""

import pandas as pd
import pyarrow as pa
import pytest

from chinese_open_relation_extraction_for_entgraph_ray.stages.joins import (
    lookup_join,
    semi_join,
)


def _null_key_left():
    return [{"k": None, "x": 0}, {"k": 1, "x": 1}, {"k": 2, "x": 2},
            {"k": None, "x": 3}, {"k": 3, "x": 4}]


def _null_key_right():
    return [{"rk": None, "name": "NULL"}, {"rk": 1, "name": "one"},
            {"rk": 3, "name": "three"}]


def test_join_null_keys_inner(ray_session):
    """SQL semantics: a null key never matches — not even another null."""
    import ray.data as rd

    got = lookup_join(rd.from_items(_null_key_left()),
                      rd.from_items(_null_key_right()),
                      left_key="k", right_key="rk",
                      payload=["name"], suffix="_r", how="inner").take_all()
    assert sorted((r["k"], r["x"], r["name_r"]) for r in got) == \
        [(1, 1, "one"), (3, 4, "three")]


def test_join_null_keys_left(ray_session):
    """Left join keeps null-key left rows with a NULL payload."""
    import ray.data as rd

    got = lookup_join(rd.from_items(_null_key_left()),
                      rd.from_items(_null_key_right()),
                      left_key="k", right_key="rk",
                      payload=["name"], suffix="_r", how="left").take_all()
    by_x = {r["x"]: (r["k"], r["name_r"]) for r in got}
    assert len(got) == 5
    assert by_x[0] == (None, None) and by_x[3] == (None, None)
    assert by_x[1] == (1, "one") and by_x[4] == (3, "three")
    assert by_x[2] == (2, None)


@pytest.mark.parametrize("anti", [False, True])
def test_join_null_keys_semi_anti(ray_session, anti):
    """semi drops null-key left rows; anti keeps them (null matches
    nothing).  The r2 bug silently dropped non-matching valid rows."""
    import ray.data as rd

    got = semi_join(rd.from_items(_null_key_left()),
                    rd.from_items(_null_key_right()),
                    left_key="k", right_key="rk", anti=anti).take_all()
    xs = sorted(r["x"] for r in got)
    assert xs == ([0, 2, 3] if anti else [1, 4])


def test_join_null_string_keys_do_not_crash_sort(ray_session):
    """Null STRING keys used to crash Ray's sort partitioner
    (TypeError in find_partition_index)."""
    import ray.data as rd

    left = [{"k": None, "x": 0}, {"k": "a", "x": 1}, {"k": "b", "x": 2}]
    right = [{"rk": "a", "name": "A"}, {"rk": None, "name": "N"}]
    got = lookup_join(rd.from_items(left), rd.from_items(right),
                      left_key="k", right_key="rk",
                      payload=["name"], suffix="_r", how="left").take_all()
    by_x = {r["x"]: r["name_r"] for r in got}
    assert by_x == {0: None, 1: "A", 2: None}


def test_sorted_map_groups_null_keys_modes(ray_session):
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.blockgroup import (
        sorted_map_groups,
    )

    rows = [{"k": "a", "v": 1}, {"k": None, "v": 10}, {"k": "a", "v": 2},
            {"k": None, "v": 20}, {"k": "b", "v": 5}]
    schema = pa.schema([("k", pa.string()), ("total", pa.int64())])

    def summed(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": [g["k"].iloc[0]],
                             "total": [int(g["v"].sum())]})

    def run(mode):
        return sorted(
            ((r["k"], r["total"]) for r in sorted_map_groups(
                rd.from_items(rows), ["k"], summed, schema=schema,
                null_keys=mode).take_all()),
            key=lambda t: (t[0] is None, str(t[0])))

    with pytest.raises(Exception, match="null group key"):
        run("error")
    assert run("drop") == [("a", 3), ("b", 5)]


def test_key_encoding_injective_with_embedded_nul(ray_session):
    """ADVICE r2: ("a\\x00v", "b") and ("a", "v\\x00b") aliased under the
    plain NUL-joined encoding — they must stay separate groups."""
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.groupagg import (
        sorted_hash_aggregate,
    )

    tbl = pa.table({"k1": ["a\x00v", "a", "a\x00v", "a"],
                    "k2": ["b", "v\x00b", "b", "v\x00b"],
                    "w": [1, 10, 2, 20]})
    got = sorted_hash_aggregate(rd.from_arrow(tbl), ["k1", "k2"],
                                [("w", "sum")]).take_all()
    assert sorted((r["k1"], r["k2"], r["w"]) for r in got) == \
        [("a", "v\x00b", 30), ("a\x00v", "b", 3)]


def test_key_encoding_injective_length_prefix_shapes(ray_session):
    """Tuples whose naive concatenations collide under ':'-containing
    values must stay distinct (length prefix disambiguates)."""
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.groupagg import (
        sorted_hash_aggregate,
    )

    tbl = pa.table({"k1": ["1:", "1"], "k2": ["x", ":x"],
                    "w": [1, 10]})
    got = sorted_hash_aggregate(rd.from_arrow(tbl), ["k1", "k2"],
                                [("w", "sum")]).take_all()
    assert len(got) == 2


def test_approx_quantiles_empty_input(ray_session):
    import math

    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.sketch import (
        approx_distinct,
        approx_quantiles,
        grouped_approx_quantiles,
    )

    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.string()),
                                    "v": pa.array([], pa.float64())}))
    out = approx_quantiles(empty, "v", [0.5, 0.95])
    assert len(out) == 2 and all(math.isnan(v) for v in out)
    assert grouped_approx_quantiles(empty, "k", "v", [0.5]).count() == 0
    assert approx_distinct(empty, "k") == 0.0


def test_connected_components_empty_pairs(ray_session):
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.cluster import (
        connected_components,
    )

    empty = rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                    "b": pa.array([], pa.int64())}))
    assert connected_components(empty).count() == 0


def test_emit_seq_survives_eviction_and_resets_on_retry(monkeypatch,
                                                        tmp_path):
    """The eviction of the metric-emit sequence dict must never clear the
    CURRENT task's counter mid-run (self-overwrite), and a new attempt of
    the same task id must restart at 0 (retry overwrites, not appends)."""
    import chinese_open_relation_extraction_for_entgraph_ray.state.lineage as lin

    class _Ctx:
        def __init__(self, task_id, attempt):
            self._t, self._a = task_id, attempt

        def get_task_id(self):
            return self._t

        def get_attempt_number(self):
            return self._a

    class _FakeRay:
        ctx = _Ctx("tid-current", 0)

        @staticmethod
        def get_runtime_context():
            return _FakeRay.ctx

    monkeypatch.setattr(lin, "_EMIT_SEQ", {})
    import sys

    monkeypatch.setitem(sys.modules, "ray", _FakeRay)
    d = str(tmp_path)
    # earlier tasks in this worker process flood the dict past the bound
    for i in range(4097):
        _FakeRay.ctx = _Ctx(f"tid-{i}", 0)
        lin._emit_name(d)
    # the current task's FIRST emission triggers the eviction; its second
    # must still continue the sequence (worker tasks are sequential, so no
    # other task can emit between the two)
    _FakeRay.ctx = _Ctx("tid-current", 0)
    first = lin._emit_name(d)
    second = lin._emit_name(d)
    assert first.endswith("-0000.json") and second.endswith("-0001.json")
    # a retry (same id, new attempt) restarts the sequence under an
    # attempt-tagged name; the reader then keeps ONLY the latest attempt
    # per task id, so a retry emitting fewer files than the failed attempt
    # cannot leave stale higher-seq files double-counting (ADVICE r3 #1)
    _FakeRay.ctx = _Ctx("tid-current", 1)
    retry = lin._emit_name(d)
    assert retry.endswith("-a001-0000.json")
    assert first.endswith("-a000-0000.json")
    import json
    import os

    # attempt 0 of tid-current emitted TWO files, the retry only ONE —
    # merge must see the single retry file plus the 4097 other tasks'
    for path, v in [(first, 1), (second, 10), (retry, 100)]:
        with open(path, "w") as fp:
            json.dump({"n": v}, fp)
    survivors = lin._surviving_metric_files(d)
    names = {os.path.basename(p) for p in survivors}
    assert os.path.basename(retry) in names
    assert os.path.basename(first) not in names
    assert os.path.basename(second) not in names
    merged = lin.merge_metric_records(d)
    assert merged["n"] == 100


# --- property tests (pure parts — no Ray per example) ------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

_key_text = st.text(
    alphabet=st.sampled_from(list("ab:0\x00v字 \n")), max_size=6)


@given(st.tuples(_key_text, _key_text), st.tuples(_key_text, _key_text))
@settings(max_examples=300, deadline=None)
def test_key_tuple_encoding_injective_property(t1, t2):
    """Distinct 2-column key tuples (arbitrary content incl. NULs, colons
    and digits) must encode to distinct strings."""
    import pyarrow as pa

    from chinese_open_relation_extraction_for_entgraph_ray.stages.groupagg import (
        _joined_key_strings,
    )

    batch = pa.table({"k1": [t1[0], t2[0]], "k2": [t1[1], t2[1]]})
    enc = _joined_key_strings(batch, ["k1", "k2"]).to_pylist()
    assert (enc[0] == enc[1]) == (t1 == t2)


def _msh_reference(text: str, k: int = 8) -> int:
    """Straightforward per-window reimplementation of the Mersenne31
    double hash (pins the vectorized matmul's modular arithmetic)."""
    from chinese_open_relation_extraction_for_entgraph_ray.stages.textstats import (
        _MSH_BASES,
        _MSH_MOD,
    )

    mins = []
    for base in _MSH_BASES:
        best = None
        for i in range(len(text) - k + 1):
            h = 0
            for ch in text[i:i + k]:
                h = (h * base + ord(ch)) % _MSH_MOD
            if best is None or h < best:
                best = h
        mins.append(best)
    return (mins[0] << 31) | mins[1]


@given(st.text(alphabet=st.characters(codec="utf-8"), min_size=8,
               max_size=64))
@settings(max_examples=200, deadline=None)
def test_min_shingle_hash_matches_reference_property(text):
    from chinese_open_relation_extraction_for_entgraph_ray.stages.textstats import (
        min_shingle_hash,
    )

    assert min_shingle_hash(text) == _msh_reference(text)


@pytest.mark.parametrize("seed", [0, 1])
def test_join_null_keys_random_matches_pandas(ray_session, seed):
    """All four join modes over random keyed data with ~25% nulls on both
    sides must match pandas merges run with SQL null semantics."""
    import numpy as np
    import ray.data as rd

    rng = np.random.RandomState(seed)
    left = [{"k": (None if rng.rand() < 0.25 else int(rng.randint(8))),
             "x": i} for i in range(120)]
    rkeys = [k for k in range(0, 8, 2)]
    right = ([{"rk": k, "name": f"n{k}"} for k in rkeys]
             + [{"rk": None, "name": "NULL"}])
    lds = rd.from_items(left).repartition(5)
    rds = rd.from_items(right)
    lf = pd.DataFrame(left)

    from chinese_open_relation_extraction_for_entgraph_ray.stages.joins import (
        lookup_join,
        semi_join,
    )

    valid = lf["k"].notna()
    matched = valid & lf["k"].isin(rkeys)
    # inner
    got = lookup_join(lds, rds, left_key="k", right_key="rk",
                      payload=["name"], suffix="_r", how="inner").take_all()
    assert sorted(r["x"] for r in got) == sorted(lf.loc[matched, "x"])
    # left: every row kept; payload only on matched
    got = lookup_join(lds, rds, left_key="k", right_key="rk",
                      payload=["name"], suffix="_r", how="left").take_all()
    assert len(got) == len(lf)
    by_x = {r["x"]: r["name_r"] for r in got}
    for row in lf.itertuples(index=False):
        expect = (f"n{int(row.k)}"
                  if (row.k is not None and not pd.isna(row.k)
                      and int(row.k) in rkeys) else None)
        assert by_x[row.x] == expect
    # semi / anti partition the left side
    semi = semi_join(lds, rds, left_key="k", right_key="rk").take_all()
    anti = semi_join(lds, rds, left_key="k", right_key="rk",
                     anti=True).take_all()
    assert sorted(r["x"] for r in semi) == sorted(lf.loc[matched, "x"])
    assert sorted(r["x"] for r in anti) == sorted(lf.loc[~matched, "x"])
    assert len(semi) + len(anti) == len(lf)


def test_join_nonnull_guarantee_violation_raises(ray_session):
    """r4 (ADVICE r3 #2): left_key_nullable=False promises a non-null left
    key; a null showing up anyway must fail loudly instead of silently
    dropping rows the anti mode would have kept."""
    import ray.data as rd

    with pytest.raises(Exception, match="left_key_nullable"):
        # the join materializes its sorted stream eagerly, so the guard
        # fires during the call itself
        semi_join(rd.from_items(_null_key_left()),
                  rd.from_items(_null_key_right()),
                  left_key="k", right_key="rk", anti=True,
                  left_key_nullable=False).take_all()


def test_join_anti_nullable_left_double_scan_consistent(ray_session):
    """r4 (ADVICE r3 #2): left/anti consume the left side twice (main +
    null-key scan); the internal materialize pins the rows so both scans
    agree even when the left pipeline is regenerated per consumer."""
    import ray.data as rd

    left = rd.from_items(_null_key_left() * 40).repartition(7)
    got = semi_join(left, rd.from_items(_null_key_right()),
                    left_key="k", right_key="rk", anti=True).take_all()
    xs = sorted(r["x"] for r in got)
    assert xs == sorted([0, 2, 3] * 40)
