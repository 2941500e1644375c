"""Cohort retention — the classic product-analytics triangle: users are
cohorted by the ISO week of their first event, and each (cohort_week,
activity_week) cell counts how many of that cohort were active that week.

Scale shape (three pre-combined exchanges, each SMALLER than the last —
no driver-side state, no per-user Python):

1. **week truncation, in-batch**: timestamps -> Monday-start week dates as
   int32 day numbers, pure numpy arithmetic on the zero-copy Arrow buffer.
2. **distinct (user, week)**: one :func:`groupagg.auto_hash_aggregate`
   (block pre-combine bounds the exchange at one row per (block, distinct
   pair); cardinality <= users x weeks, far below raw events).
3. **cohort week per user**: a grouped ``min`` over step 2's output
   (weeks are monotone in ts, so min week == week of min ts), joined back
   with ONE keyed lookup join, then the final (cohort, activity) count —
   a #weeks^2-row table no matter the corpus size.

Week convention matches DuckDB ``date_trunc('week', ts)``: Monday-start
dates (1969-12-29 is day -3, a Monday).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _week_days(ts: pa.ChunkedArray) -> np.ndarray:
    """timestamp -> int32 days-since-epoch of the containing week's Monday
    (DuckDB date_trunc('week') semantics)."""
    days = ts.cast(pa.date32()).combine_chunks().to_numpy(
        zero_copy_only=False).astype("datetime64[D]").astype(np.int32)
    return days - (days + 3) % 7          # 1970-01-01 is a Thursday


def cohort_retention(events_ds, *, user_col: str = "user_id",
                     ts_col: str = "ts"):
    """events -> (cohort_week: date32, activity_week: date32, n_users)."""
    from .groupagg import auto_hash_aggregate
    from .joins import lookup_join

    def to_weeks(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t.column(user_col),
             pa.array(_week_days(t.column(ts_col)), pa.int32()),
             pa.array(np.ones(t.num_rows, dtype=np.int64))],
            names=[user_col, "week", "one"])

    # distinct (user, week); min-of-ones keeps the column re-aggregatable
    active = auto_hash_aggregate(
        events_ds.map_batches(to_weeks, batch_format="pyarrow"),
        [user_col, "week"], [("one", "min")])

    cohort = auto_hash_aggregate(
        active.select_columns([user_col, "week"]).map_batches(
            lambda t: t.rename_columns([user_col, "cohort_week"]),
            batch_format="pyarrow"),
        [user_col], [("cohort_week", "min")])

    joined = lookup_join(active, cohort, left_key=user_col,
                         right_key=user_col, payload=["cohort_week"],
                         suffix="")
    counts = auto_hash_aggregate(joined.select_columns(
        ["cohort_week", "week", "one"]), ["cohort_week", "week"],
        [("one", "sum")])

    def iso(col: pa.ChunkedArray) -> pa.Array:
        # ISO date STRINGS (not date32): driver-side value hashing
        # stringifies pandas dtypes differently for date vs datetime;
        # strings compare identically everywhere.
        import pyarrow.compute as pc
        return pc.strftime(col.cast(pa.date32()).cast(pa.timestamp("s")),
                           format="%Y-%m-%d")

    def finish(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [iso(t.column("cohort_week")), iso(t.column("week")),
             t.column("one")],
            names=["cohort_week", "activity_week", "n_users"])

    return counts.map_batches(finish, batch_format="pyarrow")
