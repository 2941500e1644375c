"""Entity linking + EntGraph-style canonicalization (dedup/aggregate).

The reference has no relational joins (SURVEY.md §2.5) — its only dedup is the
serialize_rel set in the coref path (/root/reference/dudepparse.py:41-46,
2157-2166).  This module adds the EntGraph-side canonicalization the north
rule requires:

- mention -> entity linking via a broadcast-style gazetteer lookup (static
  alias map shipped with the code; a large gazetteer would be ``ray.put`` once
  and fetched in ``__init__``), with containment fallback for coarse spans;
- (subj, pred, obj) triple dedup as a combiner + sorted-block groupby:
  per-batch partial counts bound each key's fan-in by the block count, and
  above SALT_BLOCK_THRESHOLD blocks a salted round first reduces a hot key
  (e.g. a copular predicate over a celebrity entity) in parallel across
  NUM_SALTS sub-groups before the final exchange.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.lexicon import ENTITY_ALIASES, NER_GAZETTEER

# rel kinds that become edges
EDGE_KINDS = ("fine", "amend_fine")
NUM_SALTS = 16
# Engage the extra salted exchange only when the per-key fan-in (= number of
# combined blocks, since the combiner emits each key at most once per block)
# is large enough that a single reducer would otherwise receive that many rows
# for one hot key.  Below this, one exchange over combined partials is cheaper
# (measured 16s vs 26s at sf0.1 / 32 CPUs).
SALT_BLOCK_THRESHOLD = 512


def combine_batch_size() -> int:
    """Combiner batch size adapted to cluster width: few CPUs -> bigger
    batches (more in-batch dedup, less exchange volume); many CPUs -> smaller
    batches so the combiner map has ~2 tasks per core (measured: 65536 best
    at 32 CPUs, 262144 best at 8 CPUs on the sf0.1 corpus)."""
    try:
        import ray

        ncpus = int(ray.cluster_resources().get("CPU", 32))
    except Exception:
        ncpus = 32
    return max(65536, 2_097_152 // max(ncpus, 1))


_CANONICAL = {s: s for s in NER_GAZETTEER}
_CANONICAL.update(ENTITY_ALIASES)
_SURFACE_RE = re.compile(
    "|".join(re.escape(w) for w in sorted(_CANONICAL, key=len, reverse=True)))


def link_surface(surface) -> str | None:
    """surface -> canonical entity surface, or None if unlinkable.

    Exact gazetteer/alias hit first; else the longest-first leftmost gazetteer
    mention contained in the (possibly span-expanded, coarse) argument.
    """
    if not surface:
        return None
    hit = _CANONICAL.get(surface)
    if hit is not None:
        return hit
    m = _SURFACE_RE.search(surface)
    return _CANONICAL[m.group(0)] if m else None


def _link_column(surfaces: pa.ChunkedArray) -> pa.Array:
    enc = pc.dictionary_encode(surfaces.combine_chunks())
    linked = [link_surface(s) for s in enc.dictionary.to_pylist()]
    return pa.array(linked, pa.string()).take(enc.indices)


def link_entities(batch: pa.Table) -> pa.Table:
    """Adds subj_ent / obj_ent columns (nullable canonical surfaces); each
    distinct surface of the batch is linked once."""
    return batch.append_column("subj_ent", _link_column(batch.column("subj"))) \
                .append_column("obj_ent", _link_column(batch.column("obj")))


EDGE_KEYS = ["subj", "pred", "obj", "subj_ent", "obj_ent"]


_PARTIAL_SCHEMA = pa.schema(
    [(c, pa.string()) for c in EDGE_KEYS]
    + [("sample_conv_id", pa.string()), ("sample_turn_idx", pa.int32()),
       ("weight", pa.int64())])


def partial_edge_counts(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: collapse the batch to one row per distinct triple
    with a partial weight + a sample provenance."""
    if batch.num_rows == 0:
        return _PARTIAL_SCHEMA.empty_table()
    for col in ("subj", "obj", "subj_ent", "obj_ent"):
        batch = batch.set_column(batch.schema.get_field_index(col), col,
                                 pc.fill_null(batch.column(col), ""))
    agg = batch.group_by(EDGE_KEYS).aggregate(
        [("conv_id", "min"), ("turn_idx", "min"), ("subj", "count")])
    return pa.Table.from_arrays(
        [agg.column(c) for c in EDGE_KEYS]
        + [agg.column("conv_id_min"), agg.column("turn_idx_min"),
           agg.column("subj_count").cast(pa.int64())],
        names=_PARTIAL_SCHEMA.names)


def _add_salt(batch: pa.Table) -> pa.Table:
    """Salt for the hot-key round: it must vary WITHIN a key, so it hashes the
    row-varying provenance column (polars' seeded hash is process-stable)."""
    import numpy as np
    import polars as pl

    hs = pl.from_arrow(batch.column("sample_conv_id").combine_chunks()) \
           .hash(seed=0).to_numpy()
    return batch.append_column(
        "salt", pa.array((hs % NUM_SALTS).astype(np.int32), pa.int32()))


def aggregate_edges(triples_ds):
    """triples Dataset -> canonical edges Dataset (``EDGE_KINDS`` triples).

    Shuffle plan (skew-aware):

    1. **Map-side combiner** (no shuffle): each ~64k-row batch collapses to
       one row per distinct triple via ``pa.Table.group_by`` — a hot key
       reaches the exchange at most once per block, so reducer fan-in per key
       is bounded by the block count, not the row count.
    2. **Salted pre-exchange**, only above SALT_BLOCK_THRESHOLD input blocks
       (the 100-TB regime, where a single hot copular predicate would
       otherwise funnel millions of partial rows into one reducer): a salt
       hashed from the row-varying ``sample_conv_id`` is added, and
       groupby(salt + key) partially sums each hot key across NUM_SALTS
       sub-groups.
    3. **Final exchange**: groupby(key) sums the ≤NUM_SALTS (salted) or
       ≤#blocks (unsalted) partials per key.

    Keys are the triple surfaces; entity ids ride along (functions of the
    key); provenance via ``min``.  Each exchange runs through
    :func:`..groupagg.sorted_hash_aggregate` — a numeric-key sort plus
    vectorized pyarrow block aggregation, itself hot-key safe (each key
    reduced once per block, then once over its <= #blocks partials).  The
    salting decision is taken on the driver when the plan is built.
    """
    from .groupagg import sorted_hash_aggregate

    kinds = pa.array(EDGE_KINDS)

    def filtered_partials(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_in(batch.column("rel_kind"),
                                      value_set=kinds))
        return partial_edge_counts(batch)

    partials = triples_ds.map_batches(filtered_partials,
                                      batch_format="pyarrow",
                                      batch_size=combine_batch_size())
    agg_spec = [("weight", "sum"), ("sample_conv_id", "min"),
                ("sample_turn_idx", "min")]
    try:
        n_blocks = triples_ds.num_blocks()
    except Exception:
        n_blocks = 0
    if n_blocks > SALT_BLOCK_THRESHOLD:
        partials = sorted_hash_aggregate(
            partials.map_batches(_add_salt, batch_format="pyarrow"),
            ["salt"] + EDGE_KEYS, agg_spec)
    return sorted_hash_aggregate(partials, EDGE_KEYS, agg_spec)


def aggregate_entities(edges_ds):
    """Edges -> entity table: canonical surface + total mention weight."""

    def explode_mentions(batch: pa.Table) -> pa.Table:
        ents, weights = [], []
        for col in ("subj_ent", "obj_ent"):
            e = batch.column(col).to_pylist()
            w = batch.column("weight").to_pylist()
            for ent, wt in zip(e, w):
                if ent:
                    ents.append(ent)
                    weights.append(wt)
        return pa.Table.from_arrays(
            [pa.array(ents, pa.string()), pa.array(weights, pa.int64())],
            names=["entity_id", "mention_count"])

    # entity cardinality is tiny (one row per canonical gazetteer entity), so
    # the built-in groupby beats the sorted-block operator's fixed op count
    from ray.data.aggregate import Sum

    # coalesce before the exchange: entity cardinality is tiny, so dozens of
    # input blocks would otherwise spawn dozens of near-empty reduce partitions
    return edges_ds.map_batches(explode_mentions, batch_format="pyarrow") \
                   .repartition(4) \
                   .groupby("entity_id") \
                   .aggregate(Sum("mention_count", alias_name="mention_count"))
