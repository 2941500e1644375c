"""Distributional predicate similarity — the Entailment-Graph local score.

The reference pipeline exists to produce the triple corpus for *Chinese
Entailment Graphs* (reference ``README.md:3-9``): its ``(subj, pred, obj)``
tuples are the input to entailment-graph construction, whose first step is
a LOCAL distributional similarity between predicates — two predicates are
entailment candidates when they occur with the same argument pairs
(Berant et al. 2011; Hosseini et al. 2018, both public).  This stage
computes that score Ray-Data-first:

    feature(pred)  = the multiset of argument pairs (subj, obj) it occurs
                     with; weight = co-occurrence count
    sim(p, q)      = cosine of the two count vectors
                   = dot(p, q) / (||p|| * ||q||)
    emitted for every (p < q) sharing >= 1 argument pair, with
    ``n_shared`` = the number of shared distinct argument pairs.

``entailment_scores`` computes the DIRECTIONAL scores entailment-graph
construction actually ranks edges by (Hosseini et al. 2018 §3.1, public):

    WeedsPrec(p -> q) = sum_{f in shared} w_p(f) / sum_f w_p(f)
    Lin(p, q)         = sum_{f in shared} (w_p(f) + w_q(f))
                        / (sum_f w_p(f) + sum_f w_q(f))
    BInc(p -> q)      = sqrt(Lin(p, q) * WeedsPrec(p -> q))

Dot products and all numerators/denominators are exact int64 sums, so the
only float steps are the final divides — bit-comparable to a DuckDB
oracle running the same join.

100-TB shape (same anatomy as ``dedup.similar_pairs_exact``):

- feature counts + per-predicate squared norms are TWO pre-combined
  aggregates (``auto_hash_aggregate`` — a partial per combiner batch, then
  one sorted exchange over the partials);
- pair emission is an inverted-index join on the argument pair: ONE sort
  by the feature key, per-bucket ``triu_indices`` pair emit vectorized
  over whole sorted blocks (``sorted_map_groups``: each bucket lands
  whole in one block);
- the quadratic danger is a HUB argument pair shared by many predicates
  (a bucket of d predicates emits d^2/2 rows).  ``max_feature_df`` drops
  features above the cap BEFORE pair emission (the standard prefix
  filter); norms keep the FULL vector, so capped scores are one-sided
  UNDERESTIMATES — a pair sharing only capped hub features disappears,
  no surviving score is inflated (the same one-sided convention as
  ``similar_pairs_exact``'s shingle cap).  Buckets over ``_BIG_BUCKET``
  are logged, never silent;
- norms are attached by two keyed ``lookup_join``s — the predicate
  vocabulary is unbounded (reference predicates are structured strings,
  ``dudepparse.py:523,548``), so no broadcast dict.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

logger = logging.getLogger(__name__)

#: Pair-emission bucket size above which a warning is logged (a feature
#: shared by this many predicates emits >= 8M pair rows).
_BIG_BUCKET = 4096

_PAIR_SCHEMA = pa.schema([("pred_a", pa.string()), ("pred_b", pa.string()),
                          ("dot", pa.int64()), ("sa", pa.int64()),
                          ("sb", pa.int64()), ("n_shared", pa.int64())])


def _feature_counts(triples_ds, pred_col: str, subj_col: str, obj_col: str):
    """(pred, subj, obj, cnt): one row per predicate/argument-pair with its
    co-occurrence count.  Pre-combined aggregate; materialized because
    every caller fans it out into >= 2 consumers (norms/totals + pairs)."""
    from .groupagg import auto_hash_aggregate

    def add_ones(b: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [b.column(pred_col), b.column(subj_col), b.column(obj_col),
             pa.array(np.ones(b.num_rows, dtype=np.int64))],
            names=["pred", "subj", "obj", "cnt"])

    return auto_hash_aggregate(
        triples_ds.map_batches(add_ones, batch_format="pyarrow"),
        ["pred", "subj", "obj"], [("cnt", "sum")])


def _cap_hub_features(feat, max_feature_df: int):
    """Drop argument pairs occurring with more than ``max_feature_df``
    distinct predicates BEFORE pair emission (the standard prefix filter).
    Loudly logged; see the module docstring for the one-sided-underestimate
    convention."""
    from .groupagg import auto_hash_aggregate
    from .joins import semi_join

    def dfs(b: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [b.column("subj"), b.column("obj"),
             pa.array(np.ones(b.num_rows, dtype=np.int64))],
            names=["subj", "obj", "df"])

    df_tbl = auto_hash_aggregate(
        feat.map_batches(dfs, batch_format="pyarrow"),
        ["subj", "obj"], [("df", "sum")])
    n_dropped = df_tbl.filter(
        expr=f"df > {int(max_feature_df)}").count()
    if n_dropped:
        logger.warning(
            "predicate_similarity: dropping %d hub argument pair(s) "
            "with df > %d before pair emission (prefix filter — "
            "pairs sharing ONLY those features are missed)",
            n_dropped, max_feature_df)
    rare = df_tbl.filter(
        expr=f"df <= {int(max_feature_df)}").materialize()

    def fkey(b: pa.Table) -> pa.Table:
        import polars as pl

        s = pl.from_arrow(b.column("subj").combine_chunks())
        o = pl.from_arrow(b.column("obj").combine_chunks())
        h = ((s + "\x1f" + o).hash(seed=311)
             .to_numpy().view(np.int64))
        return b.append_column("fkey", pa.array(h, pa.int64()))

    return semi_join(
        feat.map_batches(fkey, batch_format="pyarrow"),
        rare.map_batches(fkey, batch_format="pyarrow")
        .select_columns(["fkey"]).materialize(),
        left_key="fkey", right_key="fkey",
        left_key_nullable=False).drop_columns(["fkey"])


def _pair_stats(feat, min_shared: int):
    """All (pred_a < pred_b) predicate pairs sharing >= ``min_shared``
    features, with exact int64 shared-feature statistics:

    ``dot`` = sum of w_a(f)*w_b(f), ``sa`` = sum of w_a(f), ``sb`` = sum of
    w_b(f) (each over SHARED features only), ``n_shared`` = shared-feature
    count.  Materialized: the pair table is output-sized and every caller
    joins it >= 2 times."""
    from .blockgroup import sorted_map_groups
    from .groupagg import auto_hash_aggregate

    def emit_pairs(df: pd.DataFrame) -> pd.DataFrame:
        """Whole feature buckets -> all (pred_a < pred_b) rows with the
        per-feature contributions.  Vectorized bucket detection over the
        sorted block; numpy triu emission per bucket."""
        df = df.sort_values(["subj", "obj", "pred"], kind="stable")
        s = df["subj"].to_numpy()
        o = df["obj"].to_numpy()
        preds = df["pred"].to_numpy()
        cnts = df["cnt"].to_numpy()
        n = len(df)
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = (s[1:] != s[:-1]) | (o[1:] != o[:-1])
        gid = np.cumsum(change) - 1
        counts = np.bincount(gid)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        out_a: list = []
        out_b: list = []
        out_d: list = []
        out_sa: list = []
        out_sb: list = []
        big: list[int] = []
        for g in np.nonzero(counts >= 2)[0]:
            lo, d = starts[g], counts[g]
            if d > _BIG_BUCKET:
                big.append(int(d))
            iu, ju = np.triu_indices(d, 1)
            ca, cb = cnts[lo:lo + d][iu], cnts[lo:lo + d][ju]
            out_a.append(preds[lo:lo + d][iu])
            out_b.append(preds[lo:lo + d][ju])
            out_d.append(ca * cb)
            out_sa.append(ca)
            out_sb.append(cb)
        if big:
            logger.warning(
                "predicate_similarity: %d argument-pair bucket(s) over "
                "%d predicates (sizes %s) — quadratic pair emission; "
                "consider max_feature_df", len(big), _BIG_BUCKET,
                sorted(big, reverse=True)[:5])
        if not out_a:
            return pd.DataFrame(columns=["pred_a", "pred_b", "dot",
                                         "sa", "sb", "n_shared"])
        return pd.DataFrame({
            "pred_a": np.concatenate(out_a),
            "pred_b": np.concatenate(out_b),
            "dot": np.concatenate(out_d).astype(np.int64),
            "sa": np.concatenate(out_sa).astype(np.int64),
            "sb": np.concatenate(out_sb).astype(np.int64),
            "n_shared": np.ones(sum(len(x) for x in out_a),
                                dtype=np.int64)})

    pair_stream = sorted_map_groups(feat, ["subj", "obj"],
                                    block_fn=emit_pairs,
                                    schema=_PAIR_SCHEMA)
    pairs = auto_hash_aggregate(
        pair_stream, ["pred_a", "pred_b"],
        [("dot", "sum"), ("sa", "sum"), ("sb", "sum"),
         ("n_shared", "sum")])
    if min_shared > 1:
        pairs = pairs.filter(expr=f"n_shared >= {int(min_shared)}")
    # materializing here both guards the empty case — an empty aggregate
    # loses its schema, which the keyed joins downstream reject loudly —
    # and avoids re-running the pair exchange for the >= 2 joins
    return pairs.materialize()


def predicate_similarity(triples_ds, *, pred_col: str = "pred",
                         subj_col: str = "subj", obj_col: str = "obj",
                         max_feature_df: int | None = None,
                         min_shared: int = 1, round_dp: int = 4):
    """Cosine similarity between predicates over their (subj, obj)
    argument-pair count vectors.

    ``triples_ds``: one row per triple occurrence (duplicates are the
    counts).  Returns a Dataset with columns
    ``(pred_a, pred_b, n_shared, dot, cosine)`` — one row per unordered
    predicate pair sharing >= ``min_shared`` distinct argument pairs,
    ``pred_a < pred_b`` lexicographically, ``cosine`` rounded to
    ``round_dp`` half-away-from-zero (the engine's SQL-comparable float
    convention).
    """
    from ..functions.fputil import np_round_away
    from .groupagg import auto_hash_aggregate
    from .joins import lookup_join

    feat = _feature_counts(triples_ds, pred_col, subj_col, obj_col)

    def sq(b: pa.Table) -> pa.Table:
        c = b.column("cnt").to_numpy()
        return pa.Table.from_arrays(
            [b.column("pred"), pa.array(c * c, pa.int64())],
            names=["pred", "sq"])

    # norms use the FULL vector — hub capping below only prunes pair
    # emission, so capped scores are one-sided underestimates
    norms = auto_hash_aggregate(
        feat.map_batches(sq, batch_format="pyarrow"),
        ["pred"], [("sq", "sum")])

    if max_feature_df is not None:
        feat = _cap_hub_features(feat, max_feature_df)

    pairs = _pair_stats(feat, min_shared)
    out_schema = pa.schema([("pred_a", pa.string()),
                            ("pred_b", pa.string()),
                            ("n_shared", pa.int64()), ("dot", pa.int64()),
                            ("cosine", pa.float64())])
    if pairs.count() == 0:
        import ray.data as rd

        return rd.from_arrow(out_schema.empty_table())

    pairs = lookup_join(pairs, norms, left_key="pred_a", right_key="pred",
                        payload=["sq"], suffix="_a")
    pairs = lookup_join(pairs, norms, left_key="pred_b", right_key="pred",
                        payload=["sq"], suffix="_b")

    def score(b: pa.Table) -> pa.Table:
        dot = b.column("dot").to_numpy().astype(np.float64)
        sa = b.column("sq_a").to_numpy().astype(np.float64)
        sb = b.column("sq_b").to_numpy().astype(np.float64)
        cos = np_round_away(dot / np.sqrt(sa * sb), round_dp)
        return pa.Table.from_arrays(
            [b.column("pred_a"), b.column("pred_b"),
             b.column("n_shared"), b.column("dot"),
             pa.array(cos, pa.float64())],
            names=["pred_a", "pred_b", "n_shared", "dot", "cosine"])

    return pairs.map_batches(score, batch_format="pyarrow")


def entailment_scores(triples_ds, *, pred_col: str = "pred",
                      subj_col: str = "subj", obj_col: str = "obj",
                      max_feature_df: int | None = None,
                      min_shared: int = 1, round_dp: int = 4):
    """Directional distributional-inclusion scores between predicates —
    the edge weights entailment-graph construction ranks candidates by
    (Weeds & Weir 2003; Szpektor & Dagan 2008 BInc; used for local scores
    in Hosseini et al. 2018; all public).

    Returns ``(pred_a, pred_b, n_shared, weeds_ab, weeds_ba, lin,
    binc_ab, binc_ba)`` with ``pred_a < pred_b``; ``_ab`` means the score
    of ``pred_a -> pred_b`` (a's shared mass over a's total mass).  All
    ratios are exact-int64 numerator/denominator divides rounded to
    ``round_dp`` half-away-from-zero; BInc is computed from the UNROUNDED
    Lin and WeedsPrec.

    Same 100-TB anatomy as :func:`predicate_similarity` — the per-pred
    totals are one extra pre-combined aggregate and the shared-mass sums
    ride the existing pair exchange as two int64 columns.
    """
    from ..functions.fputil import np_round_away
    from .groupagg import auto_hash_aggregate
    from .joins import lookup_join

    feat = _feature_counts(triples_ds, pred_col, subj_col, obj_col)

    # totals use the FULL vector (same one-sided-cap convention as norms)
    totals = auto_hash_aggregate(
        feat.select_columns(["pred", "cnt"]), ["pred"], [("cnt", "sum")])

    if max_feature_df is not None:
        feat = _cap_hub_features(feat, max_feature_df)

    pairs = _pair_stats(feat, min_shared)
    out_schema = pa.schema(
        [("pred_a", pa.string()), ("pred_b", pa.string()),
         ("n_shared", pa.int64()), ("weeds_ab", pa.float64()),
         ("weeds_ba", pa.float64()), ("lin", pa.float64()),
         ("binc_ab", pa.float64()), ("binc_ba", pa.float64())])
    if pairs.count() == 0:
        import ray.data as rd

        return rd.from_arrow(out_schema.empty_table())

    pairs = lookup_join(pairs, totals, left_key="pred_a", right_key="pred",
                        payload=["cnt"], suffix="_a")
    pairs = lookup_join(pairs, totals, left_key="pred_b", right_key="pred",
                        payload=["cnt"], suffix="_b")

    def score(b: pa.Table) -> pa.Table:
        sa = b.column("sa").to_numpy().astype(np.float64)
        sb = b.column("sb").to_numpy().astype(np.float64)
        ta = b.column("cnt_a").to_numpy().astype(np.float64)
        tb = b.column("cnt_b").to_numpy().astype(np.float64)
        weeds_ab = sa / ta
        weeds_ba = sb / tb
        lin = (sa + sb) / (ta + tb)
        return pa.Table.from_arrays(
            [b.column("pred_a"), b.column("pred_b"), b.column("n_shared"),
             pa.array(np_round_away(weeds_ab, round_dp), pa.float64()),
             pa.array(np_round_away(weeds_ba, round_dp), pa.float64()),
             pa.array(np_round_away(lin, round_dp), pa.float64()),
             pa.array(np_round_away(np.sqrt(lin * weeds_ab), round_dp),
                      pa.float64()),
             pa.array(np_round_away(np.sqrt(lin * weeds_ba), round_dp),
                      pa.float64())],
            names=["pred_a", "pred_b", "n_shared", "weeds_ab", "weeds_ba",
                   "lin", "binc_ab", "binc_ba"])

    return pairs.map_batches(score, batch_format="pyarrow")
