"""Entity resolution: canonicalize surface-form variants of the same
real-world entity into one cluster id — the KG-construction step between
mention detection and edge canonicalization (a KG built from raw surfaces
fragments '北京' / '北京·' / '老北京' into three nodes; reference
analog: the gazetteer canonicalization implicit in main_ner.py's fixed
surface list, generalized to noisy corpora where surfaces vary).

Classic blocking-based ER, each step a Ray Data exchange:

1. **Multi-key blocking** — every string emits one row per blocking key
   (here: first character and last character, as two key families).  A
   variant produced by a PREFIX edit still shares its suffix block with
   the original (and vice versa), so single-edit variants are always
   co-blocked; pair candidates are only ever generated inside one block.
2. **In-block verification** — per block, all a<b pairs with byte-level
   Levenshtein <= ``max_edit`` (``editdist.levenshtein_bytes``, the
   DuckDB-``levenshtein``-compatible byte DP, so a SQL oracle mirrors the
   threshold bit-for-bit).  Blocks are capped at ``max_block`` strings
   (deterministically: lexicographic head) with a logged warning — the
   no-silent-caps convention of the LSH stages.
3. **Distinct pairs** -> :func:`cluster.connected_components_str` (min-
   string label propagation), then every input string — including
   singletons that matched no pair — joins its canonical label and the
   cluster size.

Scale shape: the input is the DISTINCT surface vocabulary (orders of
magnitude below corpus row count); blocking keys bound the quadratic
verification to per-block cluster sizes, exactly like the LSH bucket scan
in dedup.py; the CC rounds are O(pairs).  Nothing here touches full
documents.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

from .editdist import levenshtein_bytes

logger = logging.getLogger(__name__)

#: Hard cap on strings verified inside one block (quadratic bound:
#: max_block choose 2 DP calls).  Real corpora hit this on stop-character
#: blocks (e.g. every entity ending in '司'); the cap keeps those blocks
#: from dominating while prefix/suffix DOUBLE blocking still pairs most
#: true variants through their other key.
DEFAULT_MAX_BLOCK = 256


def blocking_keys(batch: pa.Table, col: str) -> pa.Table:
    """(s) -> two rows per string: ('p' + first char, s) and
    ('s' + last char, s).  Python-level character indexing == DuckDB
    char-based substr(), so the oracle mirrors the keys exactly."""
    out_k: list[str] = []
    out_s: list[str] = []
    for s in batch.column(col).to_pylist():
        if not s:
            continue
        out_k.append("p" + s[0])
        out_s.append(s)
        out_k.append("s" + s[-1])
        out_s.append(s)
    return pa.Table.from_arrays(
        [pa.array(out_k, pa.string()), pa.array(out_s, pa.string())],
        names=["bkey", "s"])


def verify_block_pairs(df: pd.DataFrame, *, max_edit: int,
                       max_block: int) -> pd.DataFrame:
    """One blocking group -> its verified (a < b) pair rows.  Blocks over
    ``max_block`` strings keep the lexicographic head (deterministic,
    layout-independent) and log the truncation (no-silent-caps)."""
    vals = np.sort(df["s"].to_numpy())
    if len(vals) > max_block:
        logger.warning(
            "entity-resolution capped block %r at max_block=%d "
            "(had %d strings)", df["bkey"].iloc[0], max_block, len(vals))
        vals = vals[:max_block]
    if len(vals) < 2:
        return pd.DataFrame({"a": [], "b": []}, dtype=object)
    ii, jj = np.triu_indices(len(vals), k=1)
    enc = [v.encode("utf-8") for v in vals]
    keep = [k for k in range(len(ii))
            if abs(len(enc[ii[k]]) - len(enc[jj[k]])) <= max_edit
            and levenshtein_bytes(enc[ii[k]], enc[jj[k]]) <= max_edit]
    return pd.DataFrame({"a": vals[ii[keep]], "b": vals[jj[keep]]})


def resolve_entities(strings_ds, *, col: str = "entity", max_edit: int = 3,
                     max_block: int = DEFAULT_MAX_BLOCK):
    """Cluster a Dataset of DISTINCT strings into entity clusters.

    Returns a Dataset (``entity``, ``canonical``, ``cluster_size``) with
    one row per input string; ``canonical`` is the lexicographically
    minimum member of the string's cluster (its own value for
    singletons).  ``max_edit`` is a BYTE-level Levenshtein bound (one CJK
    character edit costs 3) so DuckDB's byte-oriented ``levenshtein()``
    reproduces it exactly.
    """
    from .blockgroup import sorted_map_groups
    from .cluster import connected_components_str
    from .groupagg import auto_hash_aggregate
    from .joins import lookup_join

    keyed = strings_ds.map_batches(
        lambda b: blocking_keys(b, col), batch_format="pyarrow")

    def block_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return verify_block_pairs(df, max_edit=max_edit,
                                  max_block=max_block)

    pair_schema = pa.schema([("a", pa.string()), ("b", pa.string())])
    pairs = sorted_map_groups(keyed, ["bkey"], block_pairs,
                              schema=pair_schema)
    # same pair can surface from both key families -> distinct
    pairs = auto_hash_aggregate(
        pairs.map_batches(
            lambda b: b.append_column("one", pa.array([1] * len(b),
                                                      pa.int64())),
            batch_format="pyarrow"),
        ["a", "b"], [("one", "min")]).select_columns(["a", "b"])

    comp = connected_components_str(pairs, a="a", b="b")

    labeled = lookup_join(strings_ds.select_columns([col]), comp,
                          left_key=col, right_key="node",
                          payload=["component"], suffix="_c", how="left")

    def canon(batch: pa.Table) -> pa.Table:
        ent = batch.column(col).combine_chunks()
        lab = batch.column("component_c").combine_chunks()
        import pyarrow.compute as pc

        return pa.Table.from_arrays(
            [ent, pc.coalesce(lab, ent)], names=["entity", "canonical"])

    # read twice (the size aggregate, then the join back onto it)
    labeled = labeled.map_batches(canon, batch_format="pyarrow").materialize()
    sizes = auto_hash_aggregate(
        labeled.map_batches(
            lambda b: b.append_column("n", pa.array([1] * len(b),
                                                    pa.int64())),
            batch_format="pyarrow").select_columns(["canonical", "n"]),
        ["canonical"], [("n", "sum")])
    out = lookup_join(labeled, sizes, left_key="canonical",
                      right_key="canonical", payload=["n"], suffix="_s")

    def finish(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch.column("entity"), batch.column("canonical"),
             batch.column("n_s")],
            names=["entity", "canonical", "cluster_size"])

    return out.map_batches(finish, batch_format="pyarrow")
