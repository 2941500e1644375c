"""Exact duplicate-substring span detection (ExactSubstr dedup).

The operator the curation family still lacked: find every fixed-length
character window that occurs at >= 2 positions anywhere in the corpus
(cross- OR intra-document), and return the per-document UNION of the
duplicated windows' coverage as merged ``[span_start, span_end)`` char
spans — the signal behind substring-level training-data dedup (Lee et al.
2021, "Deduplicating Training Data Makes Language Models Better", the
suffix-array ExactSubstr method).  A suffix array is a single shared
index; the distributed equivalent used here is windows-as-rows:

1. **window hashes** — one ``map_batches`` emits ``(h, doc_id, pos)`` per
   char window, fully vectorized: the whole batch's text is reinterpreted
   as a uint32 codepoint buffer once, every window's 64-bit polynomial
   hash comes from PREFIX SUMS in uint64 wraparound arithmetic (odd base,
   modular-inverse normalization, splitmix64 finalize) — O(chars) work
   and memory traffic, not O(chars x W); per-doc valid positions are
   selected with repeat/arange index math.  No per-character,
   per-window, or per-doc Python.
2. **duplicated-hash set** — ``auto_hash_aggregate`` counts windows per
   hash (per-block pre-combine bounds the exchange at one row per
   (block, distinct hash)), keeps counts >= 2, and the surviving hash set
   is ``ray.put`` once and membership-tested per batch with searchsorted —
   the decontaminate.py broadcast pattern.  If the duplicated-hash set
   exceeds ``MAX_BROADCAST_DUP_HASHES`` the operator falls back to the
   shuffle-based ``semi_join`` automatically (logged) instead of OOMing.
3. **span union** — on the broadcast path ONE ``map_batches`` over the
   documents emits each batch's windows, marks the duplicated ones and
   merges them into spans (a constant-width interval merge: numpy cumsum
   islands).  A document is one input row, so its spans are final within
   its batch: no exchange and no second pass.  The semi-join fallback
   orders marked rows by hash, so it sorts them by ``doc_col`` alone —
   the range partition keeps every document whole in one block — then
   sorts ``(doc, pos)`` inside each block and merges.  The merge asserts
   docs contiguous and positions ascending, so a violated assumption
   fails loudly rather than emitting wrong spans.

Scale shape: the only exchange is the pre-combined hash-count aggregate
(O(distinct windows per block) rows); spans stream.
Window identity is 64-bit hash equality, not string equality — a
collision would mark a non-duplicated window (bounded impact: one
spurious <= window-length span), with pairwise probability ~2^-64 on
non-adversarial text; negligible below ~10^9 distinct windows.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

logger = logging.getLogger("ray.data.spans")

# polynomial rolling-hash base, odd so it is invertible mod 2^64 — window
# hashes come from PREFIX SUMS in uint64 wraparound arithmetic (numpy
# integer ops wrap like C), O(chars) total instead of the O(chars x W)
# gather+matmul this replaced (measured 46.6 s -> see BASELINE.md; the
# emit pass dominated the whole operator).  splitmix64 finalization is
# bijective, so it changes distribution, never collision structure.
_RH_BASE = np.uint64(0x9E3779B97F4A7C15 | 1)
_RH_BASE_INV = np.uint64(pow(int(_RH_BASE), -1, 1 << 64))


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = (z + np.uint64(0x9E3779B97F4A7C15))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))

#: refuse to broadcast a duplicated-hash set bigger than this (~800 MB of
#: int64) — beyond it, fall back to the shuffle semi-join path.
MAX_BROADCAST_DUP_HASHES = 100_000_000

_SPAN_SCHEMA = pa.schema([("doc_id", pa.int64()),
                          ("span_start", pa.int64()),
                          ("span_end", pa.int64())])


def _window_hash_batch(batch: pa.Table, *, window: int, stride: int,
                       doc_col: str, text_col: str) -> pa.Table:
    """(doc_id, text) batch -> (h, doc_id, pos) rows, one per char window
    starting at pos in {0, stride, 2*stride, ...}, pos + window <= len."""
    texts = batch.column(text_col).to_pylist()
    ids = np.asarray(batch.column(doc_col), dtype=np.int64)
    lens = np.array([len(t) if t else 0 for t in texts], dtype=np.int64)
    n_wins = np.where(lens >= window, (lens - window) // stride + 1, 0)
    total = int(n_wins.sum())
    empty = pa.Table.from_arrays(
        [pa.array([], pa.int64())] * 3, names=["h", doc_col, "pos"])
    if total == 0:
        return empty
    # one codepoint buffer for the whole batch; the joiner char can never
    # produce a false window because only within-doc positions are selected
    big = "\x00".join(t or "" for t in texts)
    codes = np.frombuffer(big.encode("utf-32-le"), dtype=np.uint32) \
              .astype(np.uint64)
    doc_starts = np.concatenate([[0], np.cumsum(lens + 1)[:-1]])
    doc_idx = np.repeat(np.arange(len(texts)), n_wins)
    win_offsets = np.concatenate([[0], np.cumsum(n_wins)[:-1]])
    pos = (np.arange(total) - np.repeat(win_offsets, n_wins)) * stride
    # rolling hash via prefix sums, all uint64 wraparound: term[j] =
    # c[j] * B^(j+1); P[i] = sum(term[:i]); the window at global start g is
    # (P[g+W] - P[g]) * B^-(g+1) = sum_j c[g+j] * B^j — one O(chars) pass,
    # then an O(windows) gather of SCALARS (never the (windows x W) matrix)
    n = len(codes)
    pows = np.cumprod(np.full(n, _RH_BASE, dtype=np.uint64))
    invs = np.cumprod(np.full(n, _RH_BASE_INV, dtype=np.uint64))
    pref = np.concatenate([np.zeros(1, np.uint64),
                           np.cumsum(codes * pows)])
    gp = doc_starts[doc_idx] + pos
    h = _splitmix64((pref[gp + window] - pref[gp]) * invs[gp])
    return pa.Table.from_arrays(
        [pa.array(h.view(np.int64), pa.int64()),
         pa.array(ids[doc_idx], pa.int64()), pa.array(pos, pa.int64())],
        names=["h", doc_col, "pos"])


def _dup_hash_ds(docs_ds, *, window: int, stride: int, doc_col: str,
                 text_col: str):
    """(windows dataset, duplicated-hash dataset): every window hash
    occurring >= 2 times corpus-wide, via the pre-combined aggregate."""
    from .groupagg import auto_hash_aggregate

    def emit(batch: pa.Table) -> pa.Table:
        return _window_hash_batch(batch, window=window, stride=stride,
                                  doc_col=doc_col, text_col=text_col)

    wins = docs_ds.map_batches(emit, batch_format="pyarrow")

    def ones(batch: pa.Table) -> pa.Table:
        return batch.select(["h"]).append_column(
            "n", pa.array(np.ones(batch.num_rows, np.int64), pa.int64()))

    dup = auto_hash_aggregate(wins.map_batches(
        ones, batch_format="pyarrow"), ["h"], [("n", "sum")]) \
        .filter(expr="n >= 2")
    return wins, dup


def _collect_dup_hashes(dup_hash_ds) -> np.ndarray | None:
    """Pull the duplicated-hash set to the driver for broadcast; ``None``
    when it exceeds the broadcast budget (caller picks the shuffle path)."""
    parts: list[np.ndarray] = []
    total = 0
    for b in dup_hash_ds.iter_batches(batch_format="pyarrow",
                                      batch_size=1 << 20):
        parts.append(np.asarray(b.column("h"), dtype=np.int64))
        total += len(parts[-1])
        if total > MAX_BROADCAST_DUP_HASHES:
            return None
    if not parts or total == 0:
        return np.array([], dtype=np.int64)
    return np.sort(np.concatenate(parts))


def _membership(dup: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Boolean hit mask of ``h`` against the sorted broadcast set."""
    if len(dup) == 0:
        return np.zeros(len(h), dtype=bool)
    idx = np.searchsorted(dup, h)
    return (idx < len(dup)) & (dup[np.minimum(idx, len(dup) - 1)] == h)


def _merge_const_width(doc: np.ndarray, pos: np.ndarray, *,
                       window: int) -> pa.Table:
    """Marked (doc, pos) window starts -> merged spans, vectorized.
    Requires docs contiguous and pos ascending per doc (asserted);
    intervals are all [pos, pos+window) so the running max end within a
    doc is just the previous pos + window."""
    n = len(doc)
    if n == 0:
        return _SPAN_SCHEMA.empty_table()
    same_doc = doc[1:] == doc[:-1]
    if not np.all(pos[1:][same_doc] > pos[:-1][same_doc]):
        raise AssertionError(
            "duplicate_spans: positions not ascending within a doc — the "
            "doc-contiguous stream invariant was broken upstream")
    new_island = np.empty(n, dtype=bool)
    new_island[0] = True
    new_island[1:] = ~same_doc | (pos[1:] > pos[:-1] + window)
    starts = np.flatnonzero(new_island)
    ends = np.concatenate([starts[1:], [n]]) - 1
    return pa.Table.from_arrays(
        [pa.array(doc[starts], pa.int64()), pa.array(pos[starts], pa.int64()),
         pa.array(pos[ends] + window, pa.int64())], schema=_SPAN_SCHEMA)


def _batch_spans(batch: pa.Table, dup: np.ndarray, *, window: int,
                 stride: int, doc_col: str, text_col: str) -> pa.Table:
    """One batch of documents -> their merged duplicate spans: emit the
    windows, mark those in the sorted duplicated-hash set ``dup``, merge.
    A document is one row, so its spans are final within the batch."""
    wt = _window_hash_batch(batch, window=window, stride=stride,
                            doc_col=doc_col, text_col=text_col)
    hit = _membership(dup, np.asarray(wt.column("h"), dtype=np.int64))
    return _merge_const_width(
        np.asarray(wt.column(doc_col), dtype=np.int64)[hit],
        np.asarray(wt.column("pos"), dtype=np.int64)[hit], window=window)


def duplicate_spans(docs_ds, *, window: int = 32, stride: int = 1,
                    doc_col: str = "doc_id", text_col: str = "text"):
    """Dataset of documents -> (doc_id, span_start, span_end) merged char
    spans covered by duplicated windows.  ``stride`` > 1 subsamples the
    window start positions (both the duplicate test and the coverage) —
    the documented knob that trades recall granularity for an O(stride)
    cut of the emitted-window volume at 100-TB scale."""
    import ray

    from .joins import semi_join

    wins, dup_hash_ds = _dup_hash_ds(docs_ds, window=window, stride=stride,
                                     doc_col=doc_col, text_col=text_col)
    dup_sorted = _collect_dup_hashes(dup_hash_ds)
    if dup_sorted is None:
        logger.warning(
            "duplicate_spans: duplicated-hash set exceeds the broadcast "
            "budget (%d) — falling back to the semi-join path",
            MAX_BROADCAST_DUP_HASHES)

        def merge_docs(batch: pa.Table) -> pa.Table:
            batch = batch.sort_by([(doc_col, "ascending"),
                                   ("pos", "ascending")])
            return _merge_const_width(
                np.asarray(batch.column(doc_col), dtype=np.int64),
                np.asarray(batch.column("pos"), dtype=np.int64),
                window=window)

        # the semi-join exchange orders rows by hash; the sort by doc alone
        # puts every doc whole in one block for the merge
        return (semi_join(wins, dup_hash_ds, left_key="h", right_key="h",
                          left_key_nullable=False)
                .map_batches(lambda b: b.select([doc_col, "pos"]),
                             batch_format="pyarrow")
                .sort(doc_col)
                .map_batches(merge_docs, batch_format="pyarrow",
                             batch_size=None))
    if len(dup_sorted) == 0:
        # no duplicated window anywhere: return a SCHEMA'D empty
        # (a fully-filtered pipeline would lose its schema otherwise)
        return ray.data.from_arrow(_SPAN_SCHEMA.empty_table())
    ref = ray.put(dup_sorted)

    def spans(batch: pa.Table) -> pa.Table:
        return _batch_spans(batch, ray.get(ref), window=window, stride=stride,
                            doc_col=doc_col, text_col=text_col)

    return docs_ds.map_batches(spans, batch_format="pyarrow")


def remove_duplicate_spans(docs_ds, *, window: int = 32, stride: int = 1,
                           doc_col: str = "doc_id", text_col: str = "text"):
    """Apply the ExactSubstr dedup: cut every duplicated-window span out of
    each document's text (Lee et al. 2021 remove ALL occurrences of a
    duplicated substring; the retained text is the out-of-span remainder).
    Returns (doc_id, n_spans, n_chars_removed, cleaned_md5) — the md5
    stands in for the cleaned text so the DuckDB oracle verifies the cut
    bit-for-bit without hauling documents through the compare (the
    redact_pii convention).

    Because every document is one atomic input row, the whole
    mark -> merge -> cut runs in ONE ``map_batches`` pass against the
    broadcast duplicated-hash set — no join and no exchange.  The
    per-doc string splice + md5 is a Python loop over DOCS (not windows);
    marking and span union stay vectorized.  A corpus whose duplicated-
    hash set exceeds the broadcast budget raises loudly — the shuffle
    alternative is ``duplicate_spans`` (which falls back to a semi-join
    automatically) + a ``lookup_join`` of its spans back onto the text.
    """
    import hashlib

    import ray

    _, dup_hash_ds = _dup_hash_ds(docs_ds, window=window, stride=stride,
                                  doc_col=doc_col, text_col=text_col)
    dup_sorted = _collect_dup_hashes(dup_hash_ds)
    if dup_sorted is None:
        raise ValueError(
            "remove_duplicate_spans: duplicated-hash set exceeds the "
            f"broadcast budget ({MAX_BROADCAST_DUP_HASHES}) — use "
            "duplicate_spans() + lookup_join on the text instead")
    ref = ray.put(dup_sorted)

    def clean_batch(batch: pa.Table) -> pa.Table:
        sp = _batch_spans(batch, ray.get(ref), window=window, stride=stride,
                          doc_col=doc_col, text_col=text_col)
        spans_by_doc: dict[int, list[tuple[int, int]]] = {}
        for d, s, e in zip(*(sp.column(c).to_pylist()
                             for c in _SPAN_SCHEMA.names)):
            spans_by_doc.setdefault(d, []).append((s, e))
        ids = batch.column(doc_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        n_spans, removed, md5s = [], [], []
        for did, text in zip(ids, texts):
            text = text or ""
            spans = spans_by_doc.get(did, [])
            kept_parts, prev = [], 0
            for s, e in spans:
                kept_parts.append(text[prev:s])
                prev = e
            kept_parts.append(text[prev:])
            cleaned = "".join(kept_parts)
            n_spans.append(len(spans))
            removed.append(len(text) - len(cleaned))
            md5s.append(hashlib.md5(cleaned.encode("utf-8")).hexdigest())
        return pa.Table.from_arrays(
            [batch.column(doc_col).cast(pa.int64()),
             pa.array(n_spans, pa.int64()), pa.array(removed, pa.int64()),
             pa.array(md5s, pa.string())],
            names=[doc_col, "n_spans", "n_chars_removed", "cleaned_md5"])

    return docs_ds.map_batches(clean_batch, batch_format="pyarrow")
