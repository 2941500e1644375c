"""Sorted-block grouped apply: the scale-path replacement for
``ds.groupby(keys).map_groups(fn)``, and the one sorted-block exchange of
every grouped-apply operator.

Ray's ``map_groups`` pays a per-group dispatch cost (~60 µs/group measured in
this sandbox), which at 10^8-10^9 groups (per-user sessions, per-conversation
assembly, per-customer top-k at transcript scale) is hours of pure dispatch.
This operator keeps the same exchange (ONE sort by the group keys) but runs
the per-group function inline over whole sorted blocks: guard null keys ->
sort -> apply per block, with no second pass.  That relies on one invariant
of Ray's sort (the one ``groupby().map_groups`` relies on too,
``ray/data/grouped_data.py``): it range-partitions rows by key and its
reduce emits one block per partition, so every key group lands whole in
one sorted block.  ``test_sort_keeps_each_key_group_in_one_block`` in
``tests/test_blockgroup.py`` pins it (a hot key over many input blocks;
int, string and two-column keys; default and small
``target_max_block_size``): a Ray upgrade that splits a group fails there.

Built on this: the keyed equi/semi/anti/outer joins (``stages/joins.py``),
the LSH and inverted-index pair generators (``stages/dedup.py``,
``stages/similarity.py``, ``stages/semdedup.py``, which share the bucket
scan :func:`bucket_members`) and the grouped queries.  The sorted hash
aggregate (``stages/groupagg.py``) runs the same sort -> apply plan over its
key-hash columns.

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


def _to_arrow(df: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    if df is None or len(df) == 0:
        return schema.empty_table()
    return pa.Table.from_pandas(df[schema.names], schema=schema,
                                preserve_index=False)


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
    to ``schema`` — but block-wise after ONE sort by ``keys``, which leaves
    each key group whole in one block (module docstring).  Neither callable
    may depend on intra-group row order (sort inside — the sort here orders
    by ``keys`` only).

    ``null_keys`` — what to do with rows whose key tuple contains a null
    (they cannot go through the sort: Ray's string-sort partitioner raises
    on nulls, and NaN != NaN would silently split or drop the group in the
    block scans):
    - "error" (default): raise ValueError on the first null-key row seen —
      no silent behavior on data the operator can't group correctly.
    - "drop": filter them out (pandas-groupby semantics).

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
    if null_keys not in ("error", "drop"):
        raise ValueError(f"null_keys must be error/drop, got {null_keys!r}")
    import pyarrow.compute as pc

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
                parts = [fn(g) for _, g in df.groupby(keys, sort=False,
                                                      dropna=False)]
                parts = [p for p in parts if p is not None and len(p)]
                out = pd.concat(parts, ignore_index=True) if parts else None
        if out is None or len(out) == 0:
            return schema.empty_table()
        if isinstance(out, pa.Table):
            return out.select(schema.names).cast(schema)
        return _to_arrow(out, schema)

    def guard(batch: pa.Table) -> pa.Table:
        m = None
        for k in keys:
            iv = pc.is_valid(batch.column(k))
            m = iv if m is None else pc.and_(m, iv)
        if null_keys == "error":
            bad = batch.num_rows - (pc.sum(m).as_py() or 0)
            if bad:
                raise ValueError(
                    f"sorted_map_groups: {bad} row(s) with null group "
                    f"key(s) {keys} — pre-filter them, or pass "
                    f"null_keys='drop'")
            return batch
        return batch.filter(m)

    out = (ds.map_batches(guard, batch_format="pyarrow").sort(keys)
           .map_batches(apply, batch_format="pyarrow", batch_size=None))
    # every block is cast to ``schema``, so record it: Ray cannot infer a
    # UDF's output schema, and ``schema()`` (which every join calls on its
    # inputs) would otherwise run the whole sort just to read it
    out._plan.cache_schema(schema)
    return out
