"""Round-4 operators: ranking windows, full outer join, grouped z-score,
char entropy, and the broadcast semi-join path."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ds(df):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False))


# --- grouped_rank_ntile ---------------------------------------------------

def test_rank_ntile_matches_duckdb(ray_session):
    from chinese_open_relation_extraction_for_entgraph_ray.stages.window import (
        grouped_rank_ntile,
    )

    rng = np.random.RandomState(11)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], 237),
        "v": rng.randint(0, 40, 237).astype(float),  # many ties
        "id": np.arange(237),
    })
    got = grouped_rank_ntile(_ds(df), "k", "v", "id", n_tiles=7) \
        .to_pandas().sort_values(["k", "rank"]).reset_index(drop=True)
    exp = duckdb.connect().execute("""
        SELECT k, v, id,
               rank() OVER w AS rank,
               percent_rank() OVER w AS pct_rank,
               ntile(7) OVER w AS tile
        FROM df WINDOW w AS (PARTITION BY k ORDER BY v, id)
        ORDER BY k, rank""").df()
    assert got["id"].tolist() == exp["id"].tolist()
    assert got["rank"].tolist() == exp["rank"].tolist()
    assert got["tile"].tolist() == exp["tile"].tolist()
    np.testing.assert_array_equal(got["pct_rank"].to_numpy(),
                                  exp["pct_rank"].to_numpy())


def test_rank_ntile_small_groups_and_nulls(ray_session):
    from chinese_open_relation_extraction_for_entgraph_ray.stages.window import (
        grouped_rank_ntile,
    )

    # group smaller than n_tiles; null values sort last
    df = pd.DataFrame({
        "k": ["g"] * 4,
        "v": [2.0, None, 1.0, None],
        "id": [10, 11, 12, 13],
    })
    got = grouped_rank_ntile(_ds(df), "k", "v", "id", n_tiles=10) \
        .to_pandas().sort_values("rank")
    assert got["id"].tolist() == [12, 10, 11, 13]   # nulls last, by id
    assert got["tile"].tolist() == [1, 2, 3, 4]     # n < tiles: 1 row each
    assert got.loc[got["rank"] == 1, "pct_rank"].iloc[0] == 0.0
    with pytest.raises(ValueError):
        grouped_rank_ntile(_ds(df), "k", "v", "id", n_tiles=0)


# --- outer_join -------------------------------------------------------------

def test_outer_join_matches_duckdb(ray_session):
    from chinese_open_relation_extraction_for_entgraph_ray.stages.joins import (
        outer_join,
    )

    left = pd.DataFrame({"k": [1, 2, 2, 3, None], "a": [10, 20, 21, 30, 99]})
    right = pd.DataFrame({"k": [2, 3, 3, 4, None], "b": [200, 300, 301,
                                                         400, 999]})
    got = outer_join(_ds(left), _ds(right), left_key="k", right_key="k",
                     left_payload=["a"], right_payload=["b"]) \
        .to_pandas()
    con = duckdb.connect()
    con.register("lt", left)
    con.register("rt", right)
    exp = con.execute("SELECT coalesce(l.k, r.k) AS k, l.a, r.b "
                      "FROM lt l FULL JOIN rt r ON l.k = r.k").df()

    def canon(df):
        return sorted(tuple("null" if pd.isna(x) else f"{float(x):.6f}"
                            for x in row)
                      for row in df[["k", "a", "b"]].itertuples(index=False))

    assert canon(got) == canon(exp)
    # duplicate keys multiplied (k=2 x1 left dup, k=3 right dup), nulls kept
    assert len(got) == len(exp)


# --- grouped_zscore -----------------------------------------------------------

def test_grouped_zscore_matches_duckdb(ray_session):
    from chinese_open_relation_extraction_for_entgraph_ray.stages.standardize import (
        grouped_zscore,
    )

    rng = np.random.RandomState(3)
    df = pd.DataFrame({
        "k": rng.choice(["x", "y"], 300),
        "id": np.arange(300),
        "v": rng.standard_normal(300) * 5 + 2,
    })
    got = grouped_zscore(_ds(df), "k", "v").to_pandas() \
        .sort_values("id").reset_index(drop=True)
    con = duckdb.connect()
    con.register("df", df)
    exp = con.execute("""
        SELECT id, (v - avg(v) OVER (PARTITION BY k))
                   / stddev_pop(v) OVER (PARTITION BY k) AS z
        FROM df ORDER BY id""").df()
    np.testing.assert_allclose(got["z"].to_numpy(), exp["z"].to_numpy(),
                               atol=1e-9)


def test_grouped_zscore_constant_group_and_nulls(ray_session):
    from chinese_open_relation_extraction_for_entgraph_ray.stages.standardize import (
        grouped_zscore,
    )

    df = pd.DataFrame({"k": ["c"] * 3 + ["n"] * 2,
                       "v": [7.0, 7.0, 7.0, 1.0, None]})
    got = grouped_zscore(_ds(df), "k", "v").to_pandas()
    assert (got.loc[got["k"] == "c", "z"] == 0.0).all()
    n_rows = got[got["k"] == "n"]
    assert n_rows["z"].isna().sum() == 1      # null v -> null z
    assert (n_rows["z"].dropna() == 0.0).all()  # 1 non-null row: sd=0 -> 0


# --- char_entropy ----------------------------------------------------------

def test_char_entropy_empty_docs_emit_no_row(ray_session):
    from chinese_open_relation_extraction_for_entgraph_ray.stages.textstats import (
        char_entropy,
    )

    t = pa.table({"doc_id": [1, 2, 3], "text": ["aabb", "", "中中文a"]})
    out = char_entropy(t)
    assert out.column("doc_id").to_pylist() == [1, 3]
    con = duckdb.connect()
    exp = con.execute("""
        SELECT doc_id, round(entropy(c), 4) AS e FROM (
          SELECT 1 AS doc_id, unnest(split('aabb', '')) AS c
          UNION ALL SELECT 3, unnest(split('中中文a', '')))
        GROUP BY doc_id ORDER BY doc_id""").df()
    assert out.column("char_entropy").to_pylist() == exp["e"].tolist()


# --- semi_join broadcast path ------------------------------------------------

@pytest.mark.parametrize("anti", [False, True])
def test_semi_join_broadcast_matches_sort_path(ray_session, anti,
                                               monkeypatch):
    from chinese_open_relation_extraction_for_entgraph_ray.stages import (
        joins,
    )
    from chinese_open_relation_extraction_for_entgraph_ray.stages.joins import (
        semi_join,
    )

    rng = np.random.RandomState(5)
    left = pd.DataFrame({"k": rng.randint(0, 50, 200).astype("float64"),
                         "x": np.arange(200)})
    left.loc[::37, "k"] = None   # null left keys: semi drops, anti keeps
    right = pd.DataFrame({"rk": rng.randint(25, 75, 60)})
    lds, rds = _ds(left), _ds(right)
    bc = semi_join(lds, rds.materialize(), left_key="k", right_key="rk",
                   anti=anti).to_pandas()
    monkeypatch.setattr(joins, "BROADCAST_KEYS_THRESHOLD", 0)
    srt = semi_join(lds, rds, left_key="k", right_key="rk",
                    anti=anti).to_pandas()
    assert sorted(bc["x"]) == sorted(srt["x"])


# --- grouped_corr ------------------------------------------------------------

def test_grouped_corr_matches_duckdb(ray_session):
    from chinese_open_relation_extraction_for_entgraph_ray.stages.standardize import (
        grouped_corr,
    )

    rng = np.random.RandomState(9)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b"], 400),
        "x": rng.standard_normal(400),
    })
    df["y"] = 0.6 * df["x"] + rng.standard_normal(400) * 0.5
    df.loc[::53, "y"] = None                  # pairwise-null exclusion
    got = grouped_corr(_ds(df), "k", "x", "y").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    con = duckdb.connect()
    con.register("df", df)
    exp = con.execute("""
        SELECT k, round(corr(x, y), 4) AS corr,
               count(*) FILTER (WHERE x IS NOT NULL AND y IS NOT NULL) AS n
        FROM df GROUP BY k ORDER BY k""").df()
    assert got["k"].tolist() == exp["k"].tolist()
    assert got["n"].astype("int64").tolist() == exp["n"].tolist()
    np.testing.assert_allclose(got["corr"], exp["corr"], atol=1e-9)


def test_grouped_corr_constant_side_is_null(ray_session):
    from chinese_open_relation_extraction_for_entgraph_ray.stages.standardize import (
        grouped_corr,
    )

    df = pd.DataFrame({"k": ["c"] * 5, "x": [1.0] * 5,
                       "y": [1.0, 2.0, 3.0, 4.0, 5.0]})
    got = grouped_corr(_ds(df), "k", "x", "y").to_pandas()
    assert got["corr"].isna().all()


# --- json field extraction ------------------------------------------------

def test_json_field_extraction(ray_session):
    from chinese_open_relation_extraction_for_entgraph_ray.stages.jsonx import (
        extract_json_fields,
    )

    df = pd.DataFrame({"id": [1, 2, 3, 4],
                       "props": ['{"k": 87, "s": "x"}', '{"k": 0}',
                                 None, '{}']})
    got = extract_json_fields(_ds(df), "props",
                              [("$.k", "k", pa.int64()),
                               ("$.s", "s", None)]) \
        .to_pandas().sort_values("id")
    assert got["k"].tolist()[:2] == [87, 0]
    assert got["k"].isna().tolist() == [False, False, True, True]
    assert got["s"].tolist()[0] == "x"
    assert got["s"].isna().tolist() == [False, True, True, True]
