"""Hierarchical (ROLLUP-style) aggregate: every prefix level of a key
list from ONE scan of the input.

SQL's ``GROUP BY ROLLUP (k1, k2, ..., kn)`` returns the aggregate at
every key prefix — (k1..kn), (k1..kn-1), ..., (k1), () — which a naive
engine computes with n+1 scans (or one n+1-way replicated exchange).
This operator scans the input ONCE: the finest level is an ordinary
pre-combined hash aggregate (``auto_hash_aggregate`` — the exchange is
bounded at one row per block per distinct key), and every coarser level
re-aggregates the PREVIOUS level's group table, which is orders of
magnitude smaller than the input (O(groups), not O(rows)).  That is the
shape that holds at 100 TB: the data-sized exchange happens once, the
rollup tail is a cascade over shrinking partials.

Only re-aggregatable functions compose this way (sum/min/max; count as a
sum of ones — handled via ``count_as``): avg must be carried as
sum+count by the caller.

Dropped key columns are emitted as nulls, matching SQL ROLLUP output.
If the DATA itself contains nulls in a key column, SQL ROLLUP output is
ambiguous without GROUPING() markers; this operator keeps the null data
rows as ordinary groups (they sort/aggregate under the engine's null
key handling), so callers with nullable keys should add an explicit
level marker downstream.

The reference has no analog (it aggregates at exactly one granularity —
e.g. the global rel-kind totals in ``dudepparse.py``); this is a
first-class hierarchical-aggregate operator for the curation/reporting
side of the engine.
"""

from __future__ import annotations

import pyarrow as pa

from .groupagg import auto_hash_aggregate


def rollup_aggregate(ds, keys: list[str], agg_spec: list[tuple[str, str]],
                     *, count_as: str | None = None):
    """ROLLUP over ``keys``: one output row set per key prefix, coarser
    levels' dropped keys null.

    ``agg_spec``: [(column, fn)] with fn in {sum, min, max} (the
    re-aggregatable set — same contract as ``sorted_hash_aggregate``).
    ``count_as``: optional output column name for a row count (carried as
    a sum of ones so it re-aggregates exactly).

    Returns a Dataset with columns ``keys + agg columns`` where each
    coarser level has its dropped trailing keys as nulls.
    """
    if not keys:
        raise ValueError("rollup needs at least one key")
    for _, fn in agg_spec:
        if fn not in ("sum", "min", "max"):
            raise ValueError(f"non-reaggregatable fn {fn!r}")

    spec = list(agg_spec)
    ds = ds.select_columns(
        keys + [c for c, _ in agg_spec if c not in keys])
    if count_as is not None:
        import numpy as np

        def add_ones(t: pa.Table) -> pa.Table:
            return t.append_column(
                count_as, pa.array(np.ones(len(t), dtype=np.int64)))

        ds = ds.map_batches(add_ones, batch_format="pyarrow")
        spec = spec + [(count_as, "sum")]

    agg_cols = [c for c, _ in spec]
    out_cols = keys + agg_cols

    # finest level: the one data-sized scan + pre-combined exchange
    finest = auto_hash_aggregate(ds, keys, spec)
    schema = finest.schema()
    key_types = {k: schema.types[schema.names.index(k)] for k in keys}

    def pad(level_keys: list[str]):
        """null-fill the dropped trailing keys and fix column order."""
        dropped = [k for k in keys if k not in level_keys]

        def fill(t: pa.Table) -> pa.Table:
            for k in dropped:
                t = t.append_column(k, pa.nulls(len(t), key_types[k]))
            return t.select(out_cols)

        return fill

    levels = [finest.map_batches(pad(keys), batch_format="pyarrow")]
    # re-aggregation of already-aggregated partials: count became a sum
    respec = [(c, "sum" if c == count_as else fn) for c, fn in spec]
    prev = finest
    for n in range(len(keys) - 1, 0, -1):
        prev = auto_hash_aggregate(
            prev.select_columns(keys[:n] + agg_cols),
            keys[:n], respec)
        levels.append(prev.map_batches(pad(keys[:n]),
                                       batch_format="pyarrow"))

    # grand total: constant-key aggregate over the coarsest level's
    # partials (a handful of rows), then drop the constant key
    grand_key = "__rollup_all__"

    def add_const(t: pa.Table) -> pa.Table:
        return t.append_column(grand_key,
                               pa.nulls(len(t), pa.int64()).fill_null(0))

    grand = auto_hash_aggregate(
        prev.select_columns(agg_cols).map_batches(
            add_const, batch_format="pyarrow"),
        [grand_key], respec).drop_columns([grand_key])
    levels.append(grand.map_batches(pad([]), batch_format="pyarrow"))

    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out
