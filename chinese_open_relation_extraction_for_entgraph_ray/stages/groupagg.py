"""Fast distributed group-aggregate: sort by a numeric key hash, then
vectorized per-block pyarrow ``group_by``.

Ray Data's built-in ``groupby().aggregate()`` pays a per-group Python cost in
the reduce stage (~ms/group measured), which dominates once groups number in
the hundreds of thousands.  This operator keeps the exchange (Ray ``sort`` on
two int64 columns — far cheaper than a multi-string-key sort) but does all
aggregation through pyarrow's C++ hash aggregation (~0.1 s per million rows).

After the sort by the key hash every group sits whole in one sorted block
(the invariant ``stages/blockgroup.py`` documents and
``tests/test_blockgroup.py`` pins), so each block is aggregated once and its
output is final: no boundary pass.  The sort does not bound a hot key — it
lands in one block with all its rows.  What bounds it is the pre-combine of
:func:`auto_hash_aggregate` (the callers' entry point), which coalesces the
input to :func:`combine_batch_size`-row batches and reduces each first, so
the exchange sees at most one partial per (batch, key) (BASELINE.md, "KG
aggregate plan robustness": this beat salting a hot key at 600/1200
blocks).  Every aggregate must be re-aggregatable (sum/min/max of partials)
for that pre-combine to compose.

Keys are hashed to 128 bits (two int64 columns) so key collisions stay
negligible even at billions of distinct groups; the original key columns ride
along via ``min`` (constant within a hash group).
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

_KH, _KL = "__gh_hi", "__gh_lo"

# two independent hash seeds -> two independent 64-bit hashes = a 128-bit
# combined key (collisions negligible at billions of groups).  polars'
# Series.hash is full-buffer (embedded NUL-safe, unlike pandas' strlen-based
# object hashing) and deterministic across worker processes.
_HASH_SEED_HI = 0x51A3
_HASH_SEED_LO = 0xC0DE


def _joined_key_strings(batch: pa.Table, key_cols: list[str]) -> pa.Array:
    """One string per row encoding the key tuple, INJECTIVELY: each component
    is self-delimiting — a validity marker byte ('v'/'n'), the value's char
    length in decimal, ':', then the value — so no separator byte can alias
    two distinct tuples regardless of value content (a bare '\\x00' join
    aliased ("a\\x00v","b") with ("a","v\\x00b")).  A null and an empty
    string stay distinct via the marker."""
    import pyarrow.compute as pc

    parts = []
    for c in key_cols:
        col = batch.column(c)
        s = pc.fill_null(col.cast(pa.string()), "")
        marker = pc.if_else(pc.is_valid(col),
                            pa.scalar("v"), pa.scalar("n"))
        ln = pc.utf8_length(s).cast(pa.string())
        # marker:len:value with explicit length => unambiguous parse
        parts.append(pc.binary_join_element_wise(marker, ln, s, ":"))
    if len(parts) == 1:
        return parts[0]
    return pc.binary_join_element_wise(*parts, "")


def _add_key_hash(batch: pa.Table, key_cols: list[str]) -> pa.Table:
    """Append the 128-bit key hash as two int64 columns — fully vectorized
    (arrow cast/join + polars ``Series.hash`` under two seeds), no per-row
    Python in the hot aggregate path."""
    import numpy as np

    if batch.num_rows == 0:
        return batch.append_column(_KH, pa.array([], pa.int64())) \
                    .append_column(_KL, pa.array([], pa.int64()))
    if len(key_cols) == 1 and pa.types.is_integer(
            batch.column(key_cols[0]).type):
        # single integer key: hash the ints natively — no string
        # materialization (measured: the cast+join dominated the emit-side
        # cost of window-hash counting at 134M rows).  polars hashes ints
        # full-width and nulls to a distinct value, so injectivity and the
        # null/value distinction of the string encoding are preserved.
        import polars as pl

        ser = pl.from_arrow(batch.column(key_cols[0]))
        hi = ser.hash(seed=_HASH_SEED_HI).to_numpy()
        lo = ser.hash(seed=_HASH_SEED_LO).to_numpy()
        return batch.append_column(
            _KH, pa.array(hi.view(np.int64), pa.int64())) \
            .append_column(_KL, pa.array(lo.view(np.int64), pa.int64()))
    try:
        joined = _joined_key_strings(batch, key_cols)
    except pa.ArrowNotImplementedError:
        # non-string-castable key type (e.g. nested) — per-row fallback
        key_lists = [batch.column(c).to_pylist() for c in key_cols]
        his, los = [], []
        for vals in zip(*key_lists):
            d = hashlib.blake2b(
                "".join(f"v{len(str(v))}:{v}" if v is not None else "n0:"
                        for v in vals).encode(),
                digest_size=16).digest()
            his.append(int.from_bytes(d[:8], "big") - (1 << 63))
            los.append(int.from_bytes(d[8:], "big") - (1 << 63))
        return batch.append_column(_KH, pa.array(his, pa.int64())) \
                    .append_column(_KL, pa.array(los, pa.int64()))
    import polars as pl

    ser = pl.from_arrow(joined)
    hi = ser.hash(seed=_HASH_SEED_HI).to_numpy()
    lo = ser.hash(seed=_HASH_SEED_LO).to_numpy()
    return batch.append_column(_KH, pa.array(hi.view(np.int64), pa.int64())) \
                .append_column(_KL, pa.array(lo.view(np.int64), pa.int64()))


def _pa_aggregate(batch: pa.Table, key_cols: list[str],
                  agg_spec: list[tuple[str, str]]) -> pa.Table:
    """pyarrow hash aggregation by the hash key; key + agg columns keep their
    original names in the output."""
    spec = [(c, "min") for c in key_cols] + list(agg_spec)
    agg = batch.group_by([_KH, _KL]).aggregate(spec)
    renames = {f"{c}_min": c for c in key_cols}
    renames.update({f"{c}_{fn}": c for c, fn in agg_spec})
    return agg.rename_columns(
        [renames.get(name, name) for name in agg.column_names])


def sorted_hash_aggregate(ds, key_cols: list[str],
                          agg_spec: list[tuple[str, str]]):
    """Dataset group-aggregate by ``key_cols``.

    ``agg_spec``: list of (column, fn) with fn in {"sum", "min", "max"} —
    re-aggregatable functions only (partials of partials must compose).
    Returns a Dataset with ``key_cols`` + the aggregated columns under their
    original names.
    """
    for _, fn in agg_spec:
        if fn not in ("sum", "min", "max"):
            raise ValueError(f"non-reaggregatable fn {fn!r}")

    out_cols = list(key_cols) + [c for c, _ in agg_spec]

    def block_agg(batch: pa.Table) -> pa.Table:
        return _pa_aggregate(batch, key_cols, agg_spec).select(out_cols)

    return (ds.map_batches(lambda b: _add_key_hash(b, key_cols),
                           batch_format="pyarrow")
            .sort([_KH, _KL])
            .map_batches(block_agg, batch_format="pyarrow", batch_size=None))


def combine_batch_size() -> int:
    """Rows per pre-combine batch, adapted to cluster width: few CPUs ->
    bigger batches (more in-batch dedup, less exchange volume); many CPUs ->
    smaller batches so the combiner map has ~2 tasks per core (measured:
    65536 best at 32 CPUs, 262144 best at 8 CPUs on the sf0.1 corpus)."""
    import ray

    ncpus = (int(ray.cluster_resources().get("CPU", 32))
             if ray.is_initialized() else 32)
    return max(65536, 2_097_152 // max(ncpus, 1))


def auto_hash_aggregate(ds, key_cols: list[str],
                        agg_spec: list[tuple[str, str]]):
    """Group-aggregate with one plan for every input: pre-combine, then
    :func:`sorted_hash_aggregate`, then materialize.

    The combiner (pyarrow hash aggregation inside map_batches) runs over
    :func:`combine_batch_size`-row batches, coalescing small input blocks:
    the exchange sees one row per (batch, distinct key) in
    ~rows / combine_batch_size() blocks, however fragmented the input, so a
    hot key needs no salting (BASELINE.md, "KG aggregate plan robustness").
    The result is materialized: joins read their inputs' schema or row
    count, which on a lazy result re-runs the whole upstream, and a
    materialized right side lets ``lookup_join`` / ``semi_join`` broadcast.

    Same exactness contract as :func:`sorted_hash_aggregate` (re-aggregatable
    fns only: sum/min/max)."""
    out_cols = list(key_cols) + [c for c, _ in agg_spec]

    def precombine(batch: pa.Table) -> pa.Table:
        return _pa_aggregate(_add_key_hash(batch, key_cols), key_cols,
                             agg_spec).select(out_cols)

    partials = ds.map_batches(precombine, batch_format="pyarrow",
                              batch_size=combine_batch_size())
    out = sorted_hash_aggregate(partials, key_cols, agg_spec)
    # The sort runs in the same execution as ds's lazy upstream.  Ray
    # Data's operator reservation would hold a CPU share for each sort
    # operator, idle until the upstream ends, and slow the upstream maps
    # (BASELINE.md "One aggregate plan"); build_kg's stage() turns it off
    # for the same reason.  Only this execution runs without it: ds's
    # lineage shares the context, and the result gets a copy of it.
    ctx = out.context
    reserve = ctx.op_resource_reservation_enabled
    ctx.op_resource_reservation_enabled = False
    try:
        out = out.materialize()
    finally:
        ctx.op_resource_reservation_enabled = reserve
    out.context.op_resource_reservation_enabled = reserve
    return out
