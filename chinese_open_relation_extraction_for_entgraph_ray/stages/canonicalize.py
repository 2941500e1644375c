"""Entity linking + EntGraph-style canonicalization (dedup/aggregate).

The reference has no relational joins (SURVEY.md §2.5) — its only dedup is the
serialize_rel set in the coref path (/root/reference/dudepparse.py:41-46,
2157-2166).  This module adds the EntGraph-side canonicalization the north
rule requires:

- mention -> entity linking via a broadcast-style gazetteer lookup (static
  alias map shipped with the code; a large gazetteer would be ``ray.put`` once
  and fetched in ``__init__``), with containment fallback for coarse spans;
- (subj, pred, obj) triple dedup and entity materialization, each a
  combiner followed by :func:`..groupagg.sorted_hash_aggregate`.  The
  combiner takes each input block whole and emits one row per distinct
  key of it, so a hot key (e.g. a copular predicate over a celebrity
  entity) reaches the sort at most once per block.  ``pipelines/kg.py``
  builds triples, edges and entities as one execution, where a triples
  block is one parse batch and the edges combiner runs in the same task
  as its extraction (a batch larger than a block would make Ray fuse its
  bundling into the extract tasks and extract the corpus as one task).
  The sort has as many partitions as the combiner has input blocks, so a
  caller with a fragmented input (many tiny blocks) pays one sort
  partition per block.  Neither aggregate materializes its result, so
  both run inside the caller's execution; ``auto_hash_aggregate``, which
  coalesces its input before the combiner and materializes, is not used
  here.
"""

from __future__ import annotations

import re

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.lexicon import ENTITY_ALIASES, NER_GAZETTEER
from .groupagg import sorted_hash_aggregate

# rel kinds that become edges
EDGE_KINDS = ("fine", "amend_fine")


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
# the output schemas of aggregate_edges and aggregate_entities
EDGES_SCHEMA = pa.schema(
    [_PARTIAL_SCHEMA.field(c)
     for c in EDGE_KEYS + ["weight", "sample_conv_id", "sample_turn_idx"]])
ENTITIES_SCHEMA = pa.schema([("entity_id", pa.string()),
                             ("mention_count", pa.int64())])


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


def _count_exchange_rows(metrics_dir: str | None, partials: pa.Table) -> None:
    """Record how many rows one combiner block passes to the sort, as the
    partition record ``{"n_exchange_rows": n}`` in ``metrics_dir``."""
    if metrics_dir is not None:
        from ..state.lineage import emit_partition_metrics

        emit_partition_metrics(metrics_dir,
                               {"n_exchange_rows": partials.num_rows})


def aggregate_edges(triples_ds, metrics_dir: str | None = None):
    """triples Dataset -> canonical edges Dataset (``EDGE_KINDS`` triples).

    A map-side combiner (:func:`partial_edge_counts`, pyarrow ``group_by``
    on the surfaces) collapses each block to one row per distinct triple,
    then :func:`..groupagg.sorted_hash_aggregate` sums the partial
    weights.  Keys are the triple surfaces (null -> ``""``); entity ids
    ride along (functions of the key); provenance via ``min``.  With
    ``metrics_dir`` each combiner block records its output rows
    (``n_exchange_rows``)."""
    kinds = pa.array(EDGE_KINDS)

    def filtered_partials(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_in(batch.column("rel_kind"),
                                      value_set=kinds))
        out = partial_edge_counts(batch)
        _count_exchange_rows(metrics_dir, out)
        return out

    return sorted_hash_aggregate(
        triples_ds.map_batches(filtered_partials, batch_format="pyarrow",
                               batch_size=None),
        EDGE_KEYS,
        [("weight", "sum"), ("sample_conv_id", "min"),
         ("sample_turn_idx", "min")])


def explode_mentions(edges: pa.Table) -> pa.Table:
    """One (entity_id, mention_count) row per linked edge side: ``subj_ent``
    then ``obj_ent``, each with the edge weight; null and ``""`` ids
    dropped."""
    ents = pa.concat_arrays([edges.column("subj_ent").combine_chunks(),
                             edges.column("obj_ent").combine_chunks()])
    weight = edges.column("weight").combine_chunks()
    keep = pc.fill_null(pc.not_equal(ents, ""), False)
    return pa.Table.from_arrays(
        [ents.filter(keep), pa.concat_arrays([weight, weight]).filter(keep)],
        names=["entity_id", "mention_count"])


def aggregate_entities(edges_ds, metrics_dir: str | None = None):
    """Edges -> entity table: canonical surface + total mention weight.

    Each block of edges is exploded to mentions and collapsed by a pyarrow
    ``group_by`` to one row per entity (the combiner), then
    :func:`..groupagg.sorted_hash_aggregate` sums the partial counts.
    ``metrics_dir`` as in :func:`aggregate_edges`."""
    def mention_partials(edges: pa.Table) -> pa.Table:
        agg = explode_mentions(edges).group_by("entity_id").aggregate(
            [("mention_count", "sum")])
        out = pa.Table.from_arrays(
            [agg.column("entity_id"), agg.column("mention_count_sum")],
            schema=ENTITIES_SCHEMA)
        _count_exchange_rows(metrics_dir, out)
        return out

    return sorted_hash_aggregate(
        edges_ds.map_batches(mention_partials, batch_format="pyarrow",
                             batch_size=None),
        ["entity_id"], [("mention_count", "sum")])
