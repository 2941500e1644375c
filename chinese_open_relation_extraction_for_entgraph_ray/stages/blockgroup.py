"""Sorted-block grouped apply: the scale-path replacement for
``ds.groupby(keys).map_groups(fn)``, and the one sorted-block exchange of
every grouped-apply operator.

Ray's ``map_groups`` pays a per-group dispatch cost (~60 µs/group measured in
this sandbox), which at 10^8-10^9 groups (per-user sessions, per-conversation
assembly, per-customer top-k at transcript scale) is hours of pure dispatch.
This operator keeps the same exchange (ONE sort by the group keys) but runs
the per-group function inline over whole sorted blocks.  One scan over the
sorted blocks applies it to each block's interior key groups and passes the
raw rows of the block's first and last key group — the ones that may
straddle a block boundary, at most 2 per block regardless of data size —
through in the same output stream; only that mixed stream is materialized.
The boundary rows then go to one task, sorted locally by key, so the
function sees every group whole.

Built on this: the keyed equi/semi/anti/outer joins (``stages/joins.py``),
the LSH and inverted-index pair generators (``stages/dedup.py``,
``stages/similarity.py``, ``stages/semdedup.py``, which share the bucket
scan :func:`bucket_members`) and the grouped queries.  The sorted hash
aggregate (``stages/groupagg.py``) and the duplicate-span counter
(``stages/spans.py``) keep their own boundary pass: they carry
re-aggregatable partials across it, not raw rows.

Partitioning assumption (same as any keyed map_groups): one key group fits in
a worker's heap.  Salt or pre-split a key that is bigger than that.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa


def arrow_type_of(ds, col: str) -> pa.DataType:
    """Arrow type of ``col`` in a Dataset — robust to pandas-backed
    datasets (from_pandas test inputs), whose schema reports numpy dtypes
    or Python classes instead of ``pa.DataType``.  Python ``object``/
    ``str`` columns map to ``pa.string()`` (the only object payload this
    engine stores)."""
    import numpy as np

    sch = ds.schema()
    t = sch.types[sch.names.index(col)]
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(np.dtype(t))
    except (TypeError, pa.ArrowNotImplementedError):
        return pa.string()


_OUT = "__smg_out"   # the mixed stream's output struct (null on boundary rows)


def _to_arrow(df: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    if df is None or len(df) == 0:
        return schema.empty_table()
    return pa.Table.from_pandas(df[schema.names], schema=schema,
                                preserve_index=False)


def _boundary_mask(batch: pa.Table, keys: list[str]):
    """True on the rows of a key-sorted block's first and last key group:
    the only groups that may straddle a block boundary."""
    import pyarrow.compute as pc

    n = batch.num_rows
    is_first = is_last = None
    for k in keys:
        col = batch.column(k)
        f = pc.equal(col, col[0])
        l = pc.equal(col, col[n - 1])
        is_first = f if is_first is None else pc.and_(is_first, f)
        is_last = l if is_last is None else pc.and_(is_last, l)
    return pc.or_(is_first, is_last)


def bucket_members(batch: pa.Table, keys: list[str], id_col: str,
                   cap: int | None = None):
    """Run-length scan of a block of whole key groups, contiguous by
    ``keys``: the row indices of every group of >= 2 rows, sorted by
    ``id_col`` and cut to the first ``cap``; plus the original sizes of
    the groups that were cut (for the caller's no-silent-caps warning).

    The shared bucket scan of the LSH / inverted-index pair generators:
    their buckets are overwhelmingly singletons, so the run boundaries
    come from numpy and Python touches only multi-member buckets."""
    import numpy as np

    n = batch.num_rows
    if n < 2:
        return [], []
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for k in keys:
        v = batch.column(k).to_numpy()
        change[1:] |= v[1:] != v[:-1]
    starts = np.flatnonzero(change)
    sizes = np.diff(np.append(starts, n))
    ids = batch.column(id_col).to_numpy()
    members, truncated = [], []
    multi = sizes >= 2
    for s, m in zip(starts[multi], sizes[multi]):
        idx = s + np.argsort(ids[s:s + m], kind="stable")
        if cap is not None and m > cap:
            truncated.append(int(m))
            idx = idx[:cap]
        members.append(idx)
    return members, truncated


def sorted_map_groups(ds, keys: list[str], fn=None, *, schema: pa.Schema,
                      block_fn=None, null_keys: str = "error",
                      arrow_blocks: bool = False):
    """Apply a per-group computation per distinct ``keys`` tuple; returns a
    Dataset with ``schema``.

    Exactly one of:
    - ``fn``: pandas DataFrame of ONE key group -> pandas DataFrame.
      Easiest to write; pays a Python call per group (but only inline per
      block — never a Ray dispatch per group).
    - ``block_fn``: pandas DataFrame holding MANY WHOLE key groups ->
      pandas DataFrame.  The fully-vectorized path: implement the per-group
      logic with pandas/numpy grouped kernels over the whole block (O(rows),
      not O(groups) Python calls) — the shape that holds at 10^9 groups.
      Its groups are always whole, contiguous and in key order.

    Equivalent to ``ds.groupby(keys).map_groups(...)`` with the output cast
    to ``schema`` — but block-wise after ONE sort by ``keys``; only each
    block's first/last (possibly boundary-straddling) key groups take a
    second pass.  Neither callable may depend on intra-group row order
    (sort inside — the sort here orders by ``keys`` only).

    ``null_keys`` — what to do with rows whose key tuple contains a null
    (they cannot go through the sort: Ray's string-sort partitioner raises
    on nulls, and NaN != NaN would silently split or drop the group in the
    block scans):
    - "error" (default): raise ValueError on the first null-key row seen —
      no silent behavior on data the operator can't group correctly.
    - "drop": filter them out (pandas-groupby semantics).
    - "separate": process all null-key rows as one extra pass on a single
      block (SQL GROUP BY semantics for the ``fn`` path — distinct
      null-bearing tuples are separate groups via ``dropna=False``; a
      ``block_fn`` receives them as one ordinary block and must handle
      null keys itself).  Costs a second scan of ``ds``.

    ``arrow_blocks`` (block_fn only): pass ``block_fn`` zero-copy
    ``pyarrow.Table`` blocks instead of pandas DataFrames (it may return
    either).  REQUIRED when the block holds int64 columns with nulls whose
    values can exceed 2^53 — the pandas conversion coerces such columns to
    float64 and silently rounds them (the tagged-union shape of
    ``asof_join``, whose per-side null columns poison the other side's
    ints).
    """
    if (fn is None) == (block_fn is None):
        raise ValueError("pass exactly one of fn / block_fn")
    if arrow_blocks and block_fn is None:
        raise ValueError("arrow_blocks=True requires block_fn (the fn "
                         "path is pandas-per-group by definition)")
    if null_keys not in ("error", "drop", "separate"):
        raise ValueError(f"null_keys must be error/drop/separate, "
                         f"got {null_keys!r}")
    import pyarrow.compute as pc

    out_type = pa.struct(list(schema))

    def apply(batch: pa.Table) -> pa.Table:
        """Whole key groups -> schema-cast output, via whichever callable
        was supplied."""
        if batch.num_rows == 0:
            return schema.empty_table()
        if arrow_blocks:
            out = block_fn(batch)
        else:
            from ray.data.block import BlockAccessor

            df = BlockAccessor.for_block(batch).to_pandas()
            if block_fn is not None:
                out = block_fn(df)
            else:
                # dropna=False: with null_keys="separate", null-bearing key
                # tuples are real groups; on the sorted (all-valid) path it
                # is a no-op
                parts = [fn(g) for _, g in df.groupby(keys, sort=False,
                                                      dropna=False)]
                parts = [p for p in parts if p is not None and len(p)]
                out = pd.concat(parts, ignore_index=True) if parts else None
        if out is None or len(out) == 0:
            return schema.empty_table()
        if isinstance(out, pa.Table):
            return out.select(schema.names).cast(schema)
        return _to_arrow(out, schema)

    def scan(batch: pa.Table) -> pa.Table:
        """One sorted block -> the mixed stream: the boundary groups' raw
        rows (``_OUT`` null), then the interior groups' output rows (input
        columns null, output in the ``_OUT`` struct)."""
        if batch.num_rows == 0:
            return batch.append_column(_OUT, pa.nulls(0, out_type))
        edge = _boundary_mask(batch, keys)
        boundary = batch.filter(edge)
        out = apply(batch.filter(pc.invert(edge)))
        boundary = boundary.append_column(
            _OUT, pa.nulls(boundary.num_rows, out_type))
        n = out.num_rows
        interior = pa.Table.from_arrays(
            [pa.nulls(n, f.type) for f in batch.schema]
            + [pa.StructArray.from_arrays(
                [c.combine_chunks() for c in out.columns],
                fields=list(schema))],
            schema=boundary.schema)
        return pa.concat_tables([boundary, interior])

    def output_rows(batch: pa.Table) -> pa.Table:
        rows = batch.column(_OUT).filter(pc.is_valid(batch.column(_OUT)))
        return pa.Table.from_arrays(rows.flatten(), schema=schema)

    def boundary_rows(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_null(batch.column(_OUT))).drop_columns(
            [_OUT])

    def whole_groups(batch: pa.Table) -> pa.Table:
        """Rows of whole groups gathered into ONE block, sorted locally
        so every group is contiguous and in key order."""
        return apply(batch.sort_by([(k, "ascending") for k in keys]))

    def _valid_mask(batch: pa.Table):
        m = None
        for k in keys:
            iv = pc.is_valid(batch.column(k))
            m = iv if m is None else pc.and_(m, iv)
        return m

    def guard(batch: pa.Table) -> pa.Table:
        m = _valid_mask(batch)
        if null_keys == "error":
            bad = batch.num_rows - (pc.sum(m).as_py() or 0)
            if bad:
                raise ValueError(
                    f"sorted_map_groups: {bad} row(s) with null group "
                    f"key(s) {keys} — pre-filter them, or pass "
                    f"null_keys='drop'/'separate'")
            return batch
        return batch.filter(m)

    def keep_nulls(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.invert(_valid_mask(batch)))

    # the one materialization: interior output + boundary rows (at most
    # two key groups per block), read twice below
    mixed = (ds.map_batches(guard, batch_format="pyarrow").sort(keys)
             .map_batches(scan, batch_format="pyarrow", batch_size=None)
             .materialize())
    out = mixed.map_batches(output_rows, batch_format="pyarrow").union(
        mixed.map_batches(boundary_rows, batch_format="pyarrow")
        .repartition(1)
        .map_batches(whole_groups, batch_format="pyarrow", batch_size=None))
    if null_keys == "separate":
        out = out.union(ds.map_batches(keep_nulls, batch_format="pyarrow")
                        .repartition(1)
                        .map_batches(whole_groups, batch_format="pyarrow",
                                     batch_size=None))
    return out
