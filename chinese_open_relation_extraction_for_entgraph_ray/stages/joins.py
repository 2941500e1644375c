"""Distributed keyed joins (Ray Data has none of these as exchanges):

- ``lookup_join`` (inner / left), ``semi_join`` (semi / anti): broadcast the
  right side when it is materialized and small, else the sorted-block
  equi-join;
- ``outer_join``: SQL FULL OUTER equi-join;
- ``asof_join``: to every left row, the payload of the right row with the
  greatest timestamp <= the left row's within the same ``by`` key
  (point-in-time-correctness join);
- ``interval_join``: left points inside right ``[start, end)`` intervals
  of the same key.

Every exchange here has one shape: both sides are tagged and unioned into
one schema, then ONE sort by the key routes each key group, whole, through
a polars/pandas join inside :func:`stages.blockgroup.sorted_map_groups` —
no per-key Python dispatch at 10^8+ keys.  Partitioning assumption: one
key group fits in a worker (salt/split a key bigger than a worker's heap).
"""

from __future__ import annotations

import pyarrow as pa

from .blockgroup import sorted_map_groups

_JK, _JSIDE = "__jk", "__jside"


def _sorted_block_equijoin(left_ds, right_ds, *, left_key: str,
                           right_key: str, payload: list[str],
                           suffix: str, mode: str,
                           left_key_nullable: bool = True):
    """Distributed equi-join via the sorted-block pattern (no driver-side
    key sets, no broadcast): tag + union both sides, then one vectorized
    polars join per block of whole key groups through
    :func:`stages.blockgroup.sorted_map_groups` (ONE sort by the join key).

    ``mode``: 'inner' / 'left' attach ``payload`` columns (as
    ``<col><suffix>``) of the matching right row — right keys are assumed
    UNIQUE (a lookup side), duplicates would multiply left rows exactly as
    in SQL; 'semi' / 'anti' keep left rows with / without a right match and
    attach nothing.  The exchange is the two-side sort — the same cost as a
    hash join's shuffle, with no skew sensitivity beyond a single key
    needing to fit in a worker.  Null join keys follow SQL semantics: a
    null never matches anything (dropped by inner/semi, kept with null
    payload by left, kept by anti).  Nulls are SPLIT OUT before the sort
    (they would otherwise crash Ray's string-sort partitioner and match
    each other under pandas' NaN==NaN merge semantics): null right keys
    are dropped at tagging; null left keys are dropped for inner/semi and
    re-unioned from a second scan of the left side for left/anti — that
    second scan is the cost of exact null semantics in those two modes.
    Because the two scans must see the SAME rows, the left side is
    materialized internally before the double consumption (a
    nondeterministic unmaterialized left pipeline would otherwise yield a
    null-row set that disagrees with the main scan, duplicating or losing
    rows); when the caller KNOWS the key cannot be null — e.g. a computed
    hash — pass ``left_key_nullable=False`` to skip both the
    materialization and the scan.  That guarantee is CHECKED: an observed
    null key under ``left_key_nullable=False`` raises instead of silently
    dropping the row."""
    import pyarrow.compute as pc

    if mode not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"unknown join mode {mode!r}")
    ls = left_ds.schema()
    rs = right_ds.schema()
    if ls is None or rs is None:
        raise ValueError(
            "equijoin requires both sides to have a known schema (an empty "
            "dataset from a row-based filter() loses its schema — produce "
            "empties via map_batches/arrow instead)")
    left_cols = list(ls.names)
    left_type = dict(zip(ls.names, ls.types))
    right_type = dict(zip(rs.names, rs.types))
    payload_out = [f"{c}{suffix}" for c in payload]
    clash = set(payload_out) & set(left_cols)
    if clash:
        raise ValueError(
            f"payload output column(s) {sorted(clash)} collide with left "
            f"columns — pass a different suffix")
    key_type = left_type[left_key]
    order = [_JK, _JSIDE] + left_cols + payload_out
    with_payload = mode in ("inner", "left")
    out_fields = [(c, left_type[c]) for c in left_cols]
    if with_payload:
        out_fields += [(oc, right_type[c])
                       for c, oc in zip(payload, payload_out)]
    out_schema = pa.schema(out_fields)
    out_cols = [f[0] for f in out_fields]

    def tag_left(batch: pa.Table) -> pa.Table:
        # null left keys never match: they must not enter the sort (Ray's
        # string-sort partitioner raises on nulls) nor the pandas merge
        # (NaN == NaN there).  They are re-unioned below for left/anti.
        n_null = batch.column(left_key).null_count
        if n_null and not left_key_nullable:
            raise ValueError(
                f"left_key_nullable=False but {n_null} null "
                f"{left_key!r} value(s) observed — the non-null guarantee "
                f"is violated; dropping them silently would lose rows "
                f"in mode {mode!r}")
        batch = batch.filter(pc.is_valid(batch.column(left_key)))
        cols = {c: batch.column(c) for c in left_cols}
        cols[_JK] = batch.column(left_key).cast(key_type)
        cols[_JSIDE] = pa.array([1] * batch.num_rows, pa.int8())
        for c, oc in zip(payload, payload_out):
            cols[oc] = pa.nulls(batch.num_rows, right_type[c])
        return pa.Table.from_arrays([cols[c] for c in order], names=order)

    def tag_right(batch: pa.Table) -> pa.Table:
        # null right keys can match nothing in any mode — drop them here
        batch = batch.filter(pc.is_valid(batch.column(right_key)))
        n = batch.num_rows
        cols = {_JK: batch.column(right_key).cast(key_type),
                _JSIDE: pa.array([0] * n, pa.int8())}
        for c in left_cols:
            cols[c] = pa.nulls(n, left_type[c])
        for c, oc in zip(payload, payload_out):
            cols[oc] = batch.column(c)
        return pa.Table.from_arrays([cols[c] for c in order], names=order)

    def null_left_rows(batch: pa.Table) -> pa.Table:
        """Null-key left rows shaped to the output schema (left: null
        payload attached; anti: kept as-is).  Only called for those modes."""
        batch = batch.filter(pc.is_null(batch.column(left_key)))
        arrays = [batch.column(c).cast(left_type[c]) for c in left_cols]
        if with_payload:
            arrays += [pa.nulls(batch.num_rows, right_type[c])
                       for c in payload]
        return pa.Table.from_arrays(arrays, schema=out_schema)

    def block_join(batch: pa.Table) -> pa.Table:
        # stays in Arrow/polars end to end: a pandas round-trip would
        # coerce int64-with-nulls to float64 and silently corrupt values
        # above 2^53 — fatal for full-range 64-bit hash keys/payloads
        import polars as pl

        side = batch.column(_JSIDE)
        lefts = batch.filter(pc.equal(side, 1))
        rights = batch.filter(pc.equal(side, 0))
        if mode in ("semi", "anti"):
            out = pl.from_arrow(lefts.select(left_cols + [_JK])).join(
                pl.from_arrow(rights.select([_JK])).unique(),
                on=_JK, how=mode).select(left_cols)
        else:
            out = pl.from_arrow(lefts.select(left_cols + [_JK])).join(
                pl.from_arrow(rights.select([_JK] + payload_out)),
                on=_JK, how="inner" if mode == "inner" else "left",
            ).select(out_cols)
        return out.to_arrow().cast(out_schema)

    if mode in ("left", "anti") and left_key_nullable:
        # these modes consume left_ds TWICE (main scan + null-key scan);
        # pin the rows once so both scans agree even if the left pipeline
        # is nondeterministic (see docstring)
        left_ds = left_ds.materialize()
    tagged = left_ds.map_batches(tag_left, batch_format="pyarrow").union(
        right_ds.map_batches(tag_right, batch_format="pyarrow"))
    out = sorted_map_groups(tagged, [_JK], block_fn=block_join,
                            schema=out_schema, arrow_blocks=True)
    if mode in ("left", "anti") and left_key_nullable:
        # null left keys are kept by these modes (with null payload for
        # 'left') — second scan of the left side, see docstring
        out = out.union(left_ds.map_batches(null_left_rows,
                                            batch_format="pyarrow"))
    return out


#: Right-side row count at or below which ``lookup_join`` broadcasts the
#: (key, payload) table (ray.put once, zero-copy read + vectorized polars
#: join in every task) instead of the two-side sort exchange.  2e6 rows of
#: key + a few payload columns is tens of MB in the object store — cheap to
#: broadcast, expensive to sort both sides for.
BROADCAST_LOOKUP_THRESHOLD = 2_000_000


def lookup_join(left_ds, right_ds, *, left_key: str, right_key: str,
                payload: list[str], suffix: str = "_r", how: str = "inner"):
    """Attach the (unique-keyed) right side's ``payload`` columns to every
    left row by key equality — the distributed replacement for collecting a
    lookup dict to the driver.  ``how``: 'inner' drops unmatched left rows,
    'left' keeps them with null payload.

    When the right side is already MATERIALIZED and small
    (<= ``BROADCAST_LOOKUP_THRESHOLD`` rows), the (key, payload) table is
    broadcast once via ``ray.put`` and the join is ONE polars hash merge
    per left batch — one pass over the left side, no exchange (the same
    auto-detection contract as :func:`semi_join`: only a materialized
    right side is detected, because its count is O(1) block metadata;
    ``.materialize()`` the right side to opt in; the threshold is read at
    call time, so setting it to 0 forces the sort).  Semantics are identical
    on both paths (pinned by tests/test_joins_dedup.py): duplicate right
    keys multiply left rows exactly as in SQL, null keys never match, and
    the polars merge keeps null-bearing int64 payloads exact above 2^53.
    """
    from ray.data.dataset import MaterializedDataset

    if (BROADCAST_LOOKUP_THRESHOLD
            and isinstance(right_ds, MaterializedDataset)
            and right_ds.count() <= BROADCAST_LOOKUP_THRESHOLD):
        import polars as pl
        import pyarrow.compute as pc
        import ray

        ls = left_ds.schema()
        left_cols = list(ls.names)
        left_type = dict(zip(ls.names, ls.types))
        payload_out = [f"{c}{suffix}" for c in payload]
        clash = set(payload_out) & set(left_cols)
        if clash:
            raise ValueError(
                f"payload output column(s) {sorted(clash)} collide with "
                f"left columns — pass a different suffix")
        key_type = left_type[left_key]
        out_cols = left_cols + payload_out

        rs = right_ds.schema()
        right_type = dict(zip(rs.names, rs.types))
        rt_schema = pa.schema([("__bk", key_type)]
                              + [(oc, right_type[c])
                                 for c, oc in zip(payload, payload_out)])
        chunks: list[pa.Table] = []
        for b in (right_ds.select_columns([right_key] + payload)
                  .iter_batches(batch_format="pyarrow")):
            # null right keys match nothing in either mode — drop here,
            # mirroring tag_right on the sorted path; per-column casts
            # normalize the null-typed columns an all-null block carries
            b = b.filter(pc.is_valid(b.column(right_key)))
            chunks.append(pa.Table.from_arrays(
                [b.column(right_key).cast(key_type)]
                + [b.column(c).cast(right_type[c]) for c in payload],
                schema=rt_schema))
        rt = pa.concat_tables(chunks) if chunks else rt_schema.empty_table()
        rt_ref = ray.put(rt)

        def bcast_join(batch: pa.Table) -> pa.Table:
            rt = ray.get(rt_ref)
            # cast every left column to its dataset-schema type: a block
            # whose column is all-null arrives null-typed, which would
            # fail the polars key comparison / schema union
            batch = pa.Table.from_arrays(
                [batch.column(c).cast(left_type[c]) for c in left_cols],
                names=left_cols)
            lf = pl.from_arrow(batch).with_columns(
                pl.col(left_key).alias("__bk"))
            joined = lf.join(pl.from_arrow(rt), on="__bk", how=how,
                             nulls_equal=False, coalesce=True)
            out = joined.select(out_cols).to_arrow()
            return pa.Table.from_arrays(
                [out.column(c).cast(
                    rt.schema.field(c).type if c in payload_out
                    else left_type[c])
                 for c in out_cols], names=out_cols)

        return left_ds.map_batches(bcast_join, batch_format="pyarrow")
    return _sorted_block_equijoin(left_ds, right_ds, left_key=left_key,
                                  right_key=right_key, payload=payload,
                                  suffix=suffix, mode=how)


#: Right-side row count at or below which ``semi_join`` broadcasts the key
#: set (ray.put once, vectorized membership in every task) instead of the
#: sorted-block exchange.  1e7 int64 keys = 80 MB in the object store —
#: read zero-copy by every task, never re-shipped per batch.  The sort
#: path engages automatically beyond it.
BROADCAST_KEYS_THRESHOLD = 10_000_000


def semi_join(left_ds, right_ds, *, left_key: str, right_key: str,
              anti: bool = False, left_key_nullable: bool = True):
    """Keep left rows whose key does (semi) / does not (anti) appear in the
    right side — the distributed replacement for take_all() + is_in.
    ``left_key_nullable=False`` skips the anti mode's null-key second scan
    when the caller guarantees a non-null key (e.g. a computed hash).

    When the right side is already MATERIALIZED and small
    (<= ``BROADCAST_KEYS_THRESHOLD`` rows, e.g. a verified near-dup drop set),
    its distinct keys are broadcast once via ``ray.put`` and membership is
    a vectorized sorted-array search inside ``map_batches`` — ONE pass
    over the left side, no exchange at all.  Only a materialized right
    side is auto-detected (its count is O(1) block metadata; counting a
    lazy right would cost a full extra execution) — ``.materialize()`` the
    right side to opt in.  SQL null semantics are preserved on both
    paths: a null left key is in no set (dropped by semi, kept by anti);
    null right keys match nothing.  The threshold is read at call time;
    setting it to 0 forces the sorted-block exchange."""
    from ray.data.dataset import MaterializedDataset

    if (BROADCAST_KEYS_THRESHOLD
            and isinstance(right_ds, MaterializedDataset)
            and right_ds.count() <= BROADCAST_KEYS_THRESHOLD):
        import numpy as np
        import pyarrow.compute as pc
        import ray

        # collect the key set in ARROW: a pandas pass would coerce an
        # int64 key column bearing any null to float64 and corrupt keys
        # above 2^53 before the (exact) left-side comparison
        chunks: list = []
        for b in (right_ds.select_columns([right_key])
                  .iter_batches(batch_format="pyarrow")):
            chunks.extend(b.column(right_key).drop_null().chunks)
        if chunks:
            uniq = pc.unique(pa.chunked_array(chunks))
            sorted_keys = np.sort(uniq.to_numpy(zero_copy_only=False))
        else:
            sorted_keys = np.array([], dtype=object)
        key_ref = ray.put(sorted_keys)

        def member_filter(batch: pa.Table) -> pa.Table:
            sorted_keys = ray.get(key_ref)
            col = batch.column(left_key)
            n_null = col.null_count
            if n_null and not left_key_nullable:
                # same loud contract as the sorted-block path: a violated
                # non-null guarantee must never pass silently
                raise ValueError(
                    f"left_key_nullable=False but {n_null} null "
                    f"{left_key!r} value(s) observed — the non-null "
                    f"guarantee is violated")
            valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
            hit = np.zeros(len(batch), dtype=bool)
            if len(sorted_keys):
                # drop_null (not vals[valid]) keeps the exact int64 dtype:
                # to_numpy on a null-bearing int column upcasts to float64,
                # which is lossy beyond 2^53 (hash keys)
                v = pc.drop_null(col).to_numpy(zero_copy_only=False)
                pos = np.searchsorted(sorted_keys, v)
                pos = np.minimum(pos, len(sorted_keys) - 1)
                hit[valid] = sorted_keys[pos] == v
            return batch.filter(pa.array(~hit if anti else hit))

        return left_ds.map_batches(member_filter, batch_format="pyarrow")
    return _sorted_block_equijoin(left_ds, right_ds, left_key=left_key,
                                  right_key=right_key, payload=[],
                                  suffix="", mode="anti" if anti else "semi",
                                  left_key_nullable=left_key_nullable)


def outer_join(left_ds, right_ds, *, left_key: str, right_key: str,
               left_payload: list[str], right_payload: list[str],
               key_out: str | None = None, suffix: str = "_r"):
    """Distributed FULL OUTER equi-join (completes the inner/left/semi/anti
    family): every left row, every right row, matched where the keys are
    equal — SQL ``FULL OUTER JOIN ... USING (key)`` with the key coalesced
    into ONE output column (``key_out``, default the left key name).

    Output schema: ``key_out`` + ``left_payload`` (null on right-only rows)
    + ``right_payload`` renamed ``<col><suffix>`` on name clash (null on
    left-only rows).  Duplicate keys on either side multiply matches
    exactly as in SQL (pandas outer merge per block).  Null join keys
    follow SQL: they match nothing and are kept one-sided — both sides are
    materialized internally and re-scanned once for their null-key rows
    (the cost of exact null semantics; the main path stays one sort
    exchange, the same sorted-block equi-join as the other modes)."""
    import pyarrow.compute as pc

    ls, rs = left_ds.schema(), right_ds.schema()
    if ls is None or rs is None:
        raise ValueError("outer_join requires known schemas on both sides")
    left_type = dict(zip(ls.names, ls.types))
    right_type = dict(zip(rs.names, rs.types))
    key_out = key_out or left_key
    key_type = left_type[left_key]
    lp_out = list(left_payload)
    rp_out = [f"{c}{suffix}" if c in ([key_out] + lp_out) else c
              for c in right_payload]
    out_schema = pa.schema(
        [(key_out, key_type)]
        + [(c, left_type[c]) for c in lp_out]
        + [(oc, right_type[c]) for c, oc in zip(right_payload, rp_out)])
    order = [_JK, _JSIDE] + lp_out + rp_out
    out_cols = [key_out] + lp_out + rp_out

    def tag(batch: pa.Table, *, side: int) -> pa.Table:
        k, pay, pay_out, other, other_t = (
            (left_key, lp_out, lp_out, rp_out, right_type)
            if side else (right_key, right_payload, rp_out, lp_out,
                          left_type))
        batch = batch.filter(pc.is_valid(batch.column(k)))
        n = batch.num_rows
        cols = {_JK: batch.column(k).cast(key_type),
                _JSIDE: pa.array([side] * n, pa.int8())}
        for c, oc in zip(pay, pay_out):
            cols[oc] = batch.column(c)
        for oc in other:
            src = right_payload[rp_out.index(oc)] if side else oc
            typ = other_t[src]
            cols[oc] = pa.nulls(n, typ)
        return pa.Table.from_arrays([cols[c] for c in order], names=order)

    def block_join(batch: pa.Table) -> pa.Table:
        # Arrow/polars end to end (a pandas round-trip would coerce
        # int64-with-nulls to float64, corrupting values above 2^53)
        import polars as pl

        side = batch.column(_JSIDE)
        lefts = batch.filter(pc.equal(side, 1)).select([_JK] + lp_out)
        rights = batch.filter(pc.equal(side, 0)).select([_JK] + rp_out)
        out = (pl.from_arrow(lefts)
               .join(pl.from_arrow(rights), on=_JK, how="full",
                     coalesce=True)
               .rename({_JK: key_out}).select(out_cols))
        return out.to_arrow().cast(out_schema)

    def null_rows(batch: pa.Table, *, side: int) -> pa.Table:
        k = left_key if side else right_key
        batch = batch.filter(pc.is_null(batch.column(k)))
        n = batch.num_rows
        arrays = [pa.nulls(n, key_type)]
        if side:
            arrays += [batch.column(c) for c in lp_out]
            arrays += [pa.nulls(n, right_type[c]) for c in right_payload]
        else:
            arrays += [pa.nulls(n, left_type[c]) for c in lp_out]
            arrays += [batch.column(c) for c in right_payload]
        return pa.Table.from_arrays(arrays, schema=out_schema)

    # both sides are consumed twice (main scan + null-key scan): pin them
    left_ds = left_ds.materialize()
    right_ds = right_ds.materialize()
    tagged = (left_ds.map_batches(lambda b: tag(b, side=1),
                                  batch_format="pyarrow")
              .union(right_ds.map_batches(lambda b: tag(b, side=0),
                                          batch_format="pyarrow")))
    joined = sorted_map_groups(tagged, [_JK], block_fn=block_join,
                               schema=out_schema, arrow_blocks=True)
    nulls = (left_ds.map_batches(lambda b: null_rows(b, side=1),
                                 batch_format="pyarrow")
             .union(right_ds.map_batches(lambda b: null_rows(b, side=0),
                                         batch_format="pyarrow")))
    return joined.union(nulls)


def asof_join(left_ds, right_ds, *, by: str, ts: str,
              right_payload: list[str], suffix: str = "_right"):
    """Returns left rows + ``<payload><suffix>`` columns (null when no right
    row at-or-before the left timestamp exists for that key)."""
    left_schema = left_ds.schema()
    left_cols = list(left_schema.names)
    left_type = dict(zip(left_schema.names, left_schema.types))
    right_schema = right_ds.schema()
    right_type = dict(zip(right_schema.names, right_schema.types))
    payload_out = [f"{c}{suffix}" for c in right_payload]

    def tag_left(batch: pa.Table) -> pa.Table:
        out = batch.append_column("__side", pa.array([1] * batch.num_rows,
                                                     pa.int8()))
        for c, oc in zip(right_payload, payload_out):
            out = out.append_column(oc, pa.nulls(batch.num_rows,
                                                 right_type[c]))
        return out

    def tag_right(batch: pa.Table) -> pa.Table:
        cols = {by: batch.column(by), ts: batch.column(ts)}
        n = batch.num_rows
        for c in left_cols:
            if c not in (by, ts):
                cols[c] = pa.nulls(n, left_type[c])
        cols["__side"] = pa.array([0] * n, pa.int8())
        for c, oc in zip(right_payload, payload_out):
            cols[oc] = batch.column(c)
        order = left_cols + ["__side"] + payload_out
        return pa.Table.from_arrays([cols[c] for c in order], names=order)

    def merge_block(batch: pa.Table):
        """Vectorized grouped as-of over a whole block of complete key
        groups: ONE ``pd.merge_asof(..., by=key)`` call — no per-key
        Python at 10^8+ keys.  The block arrives as ARROW and each side
        converts to pandas separately AFTER the side filter, so the other
        side's tag-introduced null columns never poison this side's int64
        columns into float64 (exactness above 2^53)."""
        import pandas as pd
        import pyarrow.compute as pc

        side = batch.column("__side")
        lf = (batch.filter(pc.equal(side, 1)).select(left_cols)
              .to_pandas().sort_values(ts, kind="mergesort"))
        rt = (batch.filter(pc.equal(side, 0))
              .select([by, ts] + payload_out)
              .to_pandas().sort_values(ts, kind="mergesort"))
        if len(rt) == 0:
            out = lf.copy()
            for c in payload_out:
                out[c] = None
            return out
        # unmatched left rows get null payload; nullable extension dtypes
        # keep integer payload exact (plain int64 would round > 2^53
        # through the NaN-bearing float64 result column)
        for c, src in zip(payload_out, right_payload):
            if pa.types.is_integer(right_type[src]):
                rt[c] = rt[c].astype(f"{right_type[src]}".capitalize()
                                     .replace("Uint", "UInt"))
        return pd.merge_asof(lf, rt, on=ts, by=by, direction="backward",
                             allow_exact_matches=True)

    tagged_left = left_ds.map_batches(tag_left, batch_format="pyarrow")
    tagged_right = right_ds.map_batches(tag_right, batch_format="pyarrow")
    unioned = tagged_left.union(tagged_right)
    out_schema = pa.schema(
        [(c, left_type[c]) for c in left_cols]
        + [(oc, right_type[c]) for c, oc in zip(right_payload, payload_out)])
    return sorted_map_groups(unioned, [by], block_fn=merge_block,
                             schema=out_schema, arrow_blocks=True)


def interval_join(left_ds, right_ds, *, by: str, point: str,
                  start: str, end: str, right_payload: list[str],
                  suffix: str = "_right"):
    """Keyed range (interval) join: inner-join each left row to every right
    row of the same ``by`` key whose ``[start, end)`` interval contains the
    left row's ``point`` — SQL ``L JOIN R ON L.by = R.by AND L.point >=
    R.start AND L.point < R.end``, with possibly-overlapping intervals.

    Same tagged-union + one-sort exchange as ``asof_join`` above; within a
    block of whole key groups the candidate pairs come from ONE vectorized
    hash merge on ``by`` followed by a vectorized range filter — no
    per-key or per-interval Python.  Output: left columns + each payload
    column as ``<name><suffix>``.

    Partitioning assumption: a key's points x intervals candidate product
    fits in a worker heap (intervals per key is the operating knob — at
    10^9 keys with tens of intervals each this is flat; one key with 10^6
    overlapping intervals is a skew problem the caller must pre-split).
    """
    left_schema = left_ds.schema()
    left_cols = list(left_schema.names)
    left_type = dict(zip(left_schema.names, left_schema.types))
    right_schema = right_ds.schema()
    right_type = dict(zip(right_schema.names, right_schema.types))
    payload_out = [f"{c}{suffix}" for c in right_payload]
    right_keep = [c for c in [start, end] + right_payload]

    def tag_left(batch: pa.Table) -> pa.Table:
        out = batch.select(left_cols).append_column(
            "__side", pa.array([1] * batch.num_rows, pa.int8()))
        for c in right_keep:
            out = out.append_column(f"__r_{c}",
                                    pa.nulls(batch.num_rows, right_type[c]))
        return out

    def tag_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {by: batch.column(by)}
        for c in left_cols:
            if c != by:
                cols[c] = pa.nulls(n, left_type[c])
        cols["__side"] = pa.array([0] * n, pa.int8())
        for c in right_keep:
            cols[f"__r_{c}"] = batch.column(c)
        order = left_cols + ["__side"] + [f"__r_{c}" for c in right_keep]
        return pa.Table.from_arrays([cols[c] for c in order], names=order)

    out_schema = pa.schema(
        [(c, left_type[c]) for c in left_cols]
        + [(oc, right_type[c])
           for c, oc in zip(right_payload, payload_out)])

    def block_join(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        side = batch.column("__side")
        lf = batch.filter(pc.equal(side, 1)).select(left_cols).to_pandas()
        rt = (batch.filter(pc.equal(side, 0))
              .select([by] + [f"__r_{c}" for c in right_keep]).to_pandas())
        if len(lf) == 0 or len(rt) == 0:
            return out_schema.empty_table()
        merged = lf.merge(rt, on=by, how="inner")
        hit = ((merged[point] >= merged[f"__r_{start}"])
               & (merged[point] < merged[f"__r_{end}"]))
        merged = merged[hit]
        out = merged[left_cols].copy()
        for c, oc in zip(right_payload, payload_out):
            out[oc] = merged[f"__r_{c}"]
        return pa.Table.from_pandas(out, schema=out_schema,
                                    preserve_index=False)

    unioned = (left_ds.map_batches(tag_left, batch_format="pyarrow")
               .union(right_ds.map_batches(tag_right,
                                           batch_format="pyarrow")))
    return sorted_map_groups(unioned, [by], block_fn=block_join,
                             schema=out_schema, arrow_blocks=True)
