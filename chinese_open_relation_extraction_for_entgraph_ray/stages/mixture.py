"""Domain/source mixture resampling — the data-mixing step of a training
corpus build: downsample each group (language, source, domain) so the
output's group proportions match a target mixture EXACTLY, at the largest
size achievable without upsampling any group.

Given group counts ``c_g`` and target weights ``w_g`` (summing to 1):

    N   = floor(min_g c_g / w_g)      (largest total honoring every w_g)
    n_g = floor(N * w_g)              (per-group quota)

Selection within a group is the ``n_g`` rows with the smallest
``rank_col`` value (ties broken by ``id_col``) — fully deterministic and
SQL-mirrorable via ``row_number()``, the same reproducible-split contract
as the stratified sampler.  Groups absent from ``target`` (or with zero
weight) are dropped.

Scale shape: ONE tiny aggregate for the counts (group cardinality ~
languages/domains, not rows), then one ``sorted_map_groups`` pass whose
block function is a vectorized grouped cumcount-vs-quota filter — no
per-group Python dispatch, no driver-side row loop.  The quota dict is
O(#groups) and ships by closure.

Partitioning caveat (inherited from ``sorted_map_groups``): the sort puts
each group whole in one block, so a mixture over FEW HUGE groups (5
languages over 100 TB) runs each group in one task and needs it to fit a
worker's heap.  The exact alternative at that shape is
rank-threshold selection — per group, find the n_g-th smallest rank via
a distributed selection (or a quantile sketch + exact tie sweep) and
filter ``rank <= threshold`` streaming, never co-locating a group.  This
implementation is the exact, oracle-checkable form; switch to the
threshold form when a single group outgrows a worker.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa


def mixture_quotas(counts: dict[str, int],
                   target: dict[str, float]) -> dict[str, int]:
    """(observed counts, target weights) -> per-group quotas via the
    floor(min c/w) rule above.  Pure so tests and the SQL oracle can pin
    the arithmetic; all math in IEEE doubles to match DuckDB's."""
    weights = {g: w for g, w in target.items() if w > 0}
    if not weights:
        return {}
    n_max = min(counts.get(g, 0) / w for g, w in weights.items())
    n_total = math.floor(n_max)
    return {g: math.floor(n_total * w) for g, w in weights.items()}


def resample_to_mixture(ds, *, group_col: str, target: dict[str, float],
                        rank_col: str, id_col: str,
                        schema: pa.Schema):
    """Dataset -> Dataset holding, per group g in ``target``, the
    ``floor(N * w_g)`` rows with the smallest (rank_col, id_col); output
    columns are ``schema``'s.  See module docstring for the N rule."""
    from .groupagg import auto_hash_aggregate

    def ones(batch: pa.Table) -> pa.Table:
        return batch.select([group_col]).append_column(
            "n", pa.array(np.ones(batch.num_rows, np.int64), pa.int64()))

    counts: dict[str, int] = {}
    count_ds = auto_hash_aggregate(
        ds.map_batches(ones, batch_format="pyarrow"), [group_col],
        [("n", "sum")])
    for b in count_ds.iter_batches(batch_format="pyarrow"):
        for g, n in zip(b.column(group_col).to_pylist(),
                        b.column("n").to_pylist()):
            counts[g] = int(n)
    quotas = mixture_quotas(counts, target)

    from .blockgroup import sorted_map_groups

    def take_quota(df):
        df = df[df[group_col].isin(quotas)]
        if len(df) == 0:
            return df
        df = df.sort_values([group_col, rank_col, id_col], kind="mergesort")
        rank = df.groupby(group_col, sort=False).cumcount()
        q = df[group_col].map(quotas)
        return df[rank < q]

    return sorted_map_groups(ds, [group_col], block_fn=take_quota,
                             schema=schema, null_keys="drop")
