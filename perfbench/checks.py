"""Output checks for one ``build_kg`` run, computed by DuckDB.

None of these share code with the pipeline's aggregation path:

- (a) the triples multiset (row count plus an order-independent sum of
  per-row hashes) must equal the single-process layer run's;
- (b) edges must equal a GROUP BY over the output triples;
- (c) entities must equal a GROUP BY over the output edges.
"""

from __future__ import annotations

import os

import duckdb

TRIPLE_COLUMNS = ("conv_id", "turn_idx", "sent_idx", "rel_kind", "subj",
                  "pred", "obj", "subj_idx", "pred_idx", "obj_idx", "negated",
                  "subj_ent", "obj_ent")

_DIGEST_SQL = (f"SELECT count(*), coalesce(sum(hash({', '.join(TRIPLE_COLUMNS)})), 0) "
               "FROM {src}")

_EDGE_COLS = ("coalesce(subj, '') AS subj, coalesce(pred, '') AS pred, "
              "coalesce(obj, '') AS obj, coalesce(subj_ent, '') AS subj_ent, "
              "coalesce(obj_ent, '') AS obj_ent")


def _glob(stage_dir: str) -> str:
    return "read_parquet('" + os.path.join(stage_dir, "**", "*.parquet") + "')"


def _sym_diff(con, a_sql: str, b_sql: str) -> int:
    """Rows in either bag and not the other (0 iff the bags are equal)."""
    return con.execute(
        f"WITH a AS ({a_sql}), b AS ({b_sql}) SELECT "
        "(SELECT count(*) FROM (SELECT * FROM a EXCEPT ALL SELECT * FROM b)) + "
        "(SELECT count(*) FROM (SELECT * FROM b EXCEPT ALL SELECT * FROM a))"
    ).fetchone()[0]


def digest_table(table) -> tuple[int, int]:
    """(rows, hash sum) of an in-memory Arrow triples table; additive over
    disjoint parts of the multiset."""
    with duckdb.connect() as con:
        con.register("t", table)
        n, h = con.execute(_DIGEST_SQL.format(src="t")).fetchone()
    return int(n), int(h)


def digest_stage(stage_dir: str) -> tuple[int, int]:
    with duckdb.connect() as con:
        n, h = con.execute(_DIGEST_SQL.format(src=_glob(stage_dir))).fetchone()
    return int(n), int(h)


def edges_mismatch(out_dir: str) -> int:
    """Check (b): rows of ``edges`` that differ from the oracle GROUP BY."""
    oracle = (f"SELECT {_EDGE_COLS}, count(*)::BIGINT AS weight, "
              "min(conv_id) AS sample_conv_id, "
              "min(turn_idx)::INTEGER AS sample_turn_idx "
              f"FROM {_glob(os.path.join(out_dir, 'triples'))} "
              "WHERE rel_kind IN ('fine', 'amend_fine') GROUP BY ALL")
    got = (f"SELECT {_EDGE_COLS}, weight::BIGINT AS weight, sample_conv_id, "
           "sample_turn_idx::INTEGER AS sample_turn_idx "
           f"FROM {_glob(os.path.join(out_dir, 'edges'))}")
    with duckdb.connect() as con:
        return _sym_diff(con, oracle, got)


def entities_mismatch(out_dir: str) -> int:
    """Check (c): rows of ``entities`` that differ from the oracle GROUP BY."""
    edges = _glob(os.path.join(out_dir, "edges"))
    oracle = ("SELECT e AS entity_id, sum(w)::BIGINT AS mention_count FROM ("
              f"SELECT subj_ent AS e, weight AS w FROM {edges} "
              f"UNION ALL SELECT obj_ent, weight FROM {edges}) "
              "WHERE e IS NOT NULL AND e <> '' GROUP BY e")
    got = ("SELECT entity_id, mention_count::BIGINT AS mention_count "
           f"FROM {_glob(os.path.join(out_dir, 'entities'))}")
    with duckdb.connect() as con:
        return _sym_diff(con, oracle, got)


def check_outputs(out_dir: str, reference: dict) -> list[str]:
    """Every failed check as a message; empty when the outputs are right."""
    errors = []
    n, h = digest_stage(os.path.join(out_dir, "triples"))
    if (n, h) != (reference["rows"], reference["hash"]):
        errors.append(f"(a) triples multiset differs from the layer run: "
                      f"{n} rows vs {reference['rows']}")
    bad = edges_mismatch(out_dir)
    if bad:
        errors.append(f"(b) {bad} edge rows differ from GROUP BY over triples")
    bad = entities_mismatch(out_dir)
    if bad:
        errors.append(f"(c) {bad} entity rows differ from GROUP BY over edges")
    return errors
