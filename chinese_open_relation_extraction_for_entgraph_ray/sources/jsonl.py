"""JSON/JSONL corpus ingestion -> the transcripts schema (S1-S3 parity).

The reference reads three corpus layouts (reference preprocess_corpus.py):
- a directory of one-JSON-object-per-file articles, field ``text``
  (main_webhose, :166-196),
- newline-delimited JSON with field ``content`` (main_clue, :238-273),
- newline-delimited JSON with a pre-split ``splitted_text`` list
  (main_newsspike, :318-357).

Each adapter returns a Ray Dataset with the engine's transcripts schema
(``conv_id, turn_idx, role, text, tool, ts``) so any such corpus feeds
straight into ``build_kg`` with no pre-conversion step.  Document corpora
map one entry -> one conversation: ``turn_idx`` 0 for whole-text entries, or
one turn per pre-split element for the newsspike dialect.

Scale shape: ``read_text`` / ``read_binary_files`` split across files and
byte ranges like any Ray datasource; parsing is per-batch ``json.loads`` —
no driver-side loops.

Conversation ids: ``id_field`` when the corpus has one, else the md5 of the
raw entry — byte-identical duplicate entries then collapse into ONE
conversation (dedup-at-ingest; the reference has no entry ids either and
relies on downstream dedup).
"""

from __future__ import annotations

import hashlib
import json
import os
import re

import pyarrow as pa

# one sentence span = maximal non-terminator run + terminator run + trailing
# close-quotes/brackets; or the unterminated tail
_SENT_SPAN_RE = re.compile(r"[^。！？!?…]*[。！？!?…]+[”’」』)）]*|[^。！？!?…]+$")


def presplit_sentences_with_spaces(text: str) -> list[str]:
    """Deterministic analog of the reference's CoreNLP ssplit branch with
    whitespace-preserving reconstruction (preprocess_corpus.py:198-211: the
    token rejoin re-inserts ``beginChar - endChar`` original spaces): cut
    sentence spans at terminator runs, check the raw spans reconstruct the
    input exactly (the same invariant the reference's ``num_spaces`` loop
    maintains), then strip the spans' OUTER whitespace — the reference
    only re-inserts spaces BETWEEN tokens inside a sentence (tok_id > 0),
    so inter-sentence whitespace never appears in its sentence strings;
    intra-sentence whitespace is preserved verbatim.  Spans that are all
    whitespace are dropped (they carry no sentence)."""
    spans = _SENT_SPAN_RE.findall(text)
    assert "".join(spans) == text, "sentence spans must reconstruct the text"
    return [s.strip() for s in spans if s.strip()]

# tests flip this off to pin fast-path == row-path parity; the row path
# (per-line json.loads through _entry_rows) is the dialect reference.
FAST_SPLIT_PATH = True

TRANSCRIPTS_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("role", pa.string()),
    ("text", pa.string()),
    ("tool", pa.string()),
    ("ts", pa.timestamp("us")),
])


def _rows_to_table(rows: list[dict]) -> pa.Table:
    return pa.Table.from_arrays(
        [pa.array([r["conv_id"] for r in rows], pa.string()),
         pa.array([r["turn_idx"] for r in rows], pa.int32()),
         pa.array([r.get("role", "doc") for r in rows], pa.string()),
         pa.array([r["text"] for r in rows], pa.string()),
         pa.array([r.get("tool") for r in rows], pa.string()),
         pa.array([r.get("ts") for r in rows], pa.timestamp("us"))],
        schema=TRANSCRIPTS_SCHEMA)


def _entry_rows(entry: dict, raw: str, *, text_field: str,
                id_field: str | None, split_field: str | None,
                presplit: bool = False) -> list[dict]:
    if id_field is not None and id_field in entry:
        conv_id = str(entry[id_field])
    else:
        conv_id = hashlib.md5(raw.encode("utf-8")).hexdigest()
    if split_field is not None:
        parts = entry.get(split_field) or []
        return [{"conv_id": conv_id, "turn_idx": i, "text": str(t)}
                for i, t in enumerate(parts)]
    text = entry.get(text_field)
    if text is None:
        return []
    if presplit:
        return [{"conv_id": conv_id, "turn_idx": i, "text": t}
                for i, t in enumerate(
                    presplit_sentences_with_spaces(str(text)))]
    return [{"conv_id": conv_id, "turn_idx": 0, "text": str(text)}]


def fast_split_table(lines: list, id_field: str,
                     split_field: str) -> pa.Table | None:
    """Arrow-native fast path for the explicit-id split_field dialect:
    ONE pyarrow C++ JSON parse per block + vectorized list explode —
    no per-line json.loads.  Measured: parse-stage CPU roughly halves;
    end-to-end warm wall for the 260 MB sf0.1 round-trip is ~10.3 s ->
    ~9.7 s (median of 3) because the read_text line scan dominates on
    this host — the CPU saving is the scale argument, not local wall.
    Returns None when the block needs the general row path
    (missing/odd fields, non-string elements, null ids, several objects
    on one line, a BOM-prefixed line), whose semantics are the dialect
    reference.  Ray already parallelizes across blocks, so the JSON reader
    runs single-threaded."""
    import io

    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.json as pajson

    lines = [ln for ln in lines if ln and ln.strip()]
    if not lines:
        return _rows_to_table([])
    if any(ln.startswith("\ufeff") for ln in lines):
        return None      # the row path's json.loads rejects a BOM line
    try:
        tbl = pajson.read_json(
            io.BytesIO(("\n".join(lines)).encode("utf-8")),
            read_options=pajson.ReadOptions(use_threads=False))
    except Exception:
        return None
    if tbl.num_rows != len(lines):   # several objects on one line: the row
        return None                  # path's json.loads rejects those
    names = set(tbl.column_names)
    if id_field not in names or split_field not in names:
        return None
    ids = tbl.column(id_field)
    parts = tbl.column(split_field)
    if (not pa.types.is_string(ids.type)
            or not pa.types.is_list(parts.type)
            or not pa.types.is_string(parts.type.value_type)
            or ids.null_count):
        return None
    parts = parts.combine_chunks() if isinstance(
        parts, pa.ChunkedArray) else parts
    flat = pc.list_flatten(parts)
    if flat.null_count:          # null elements -> str(None) quirk:
        return None              # defer to the reference row path
    lengths = pc.fill_null(pc.list_value_length(parts), 0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    parent = np.repeat(np.arange(len(lengths)), lengths)
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    turn_idx = np.arange(int(lengths.sum()), dtype=np.int64) - starts
    n = len(turn_idx)
    ids_flat = pc.take(ids, pa.array(parent, pa.int64()))
    return pa.Table.from_arrays(
        [ids_flat.combine_chunks() if isinstance(
            ids_flat, pa.ChunkedArray) else ids_flat,
         pa.array(turn_idx.astype(np.int32), pa.int32()),
         pa.array(["doc"] * n, pa.string()),
         flat.combine_chunks() if isinstance(
             flat, pa.ChunkedArray) else flat,
         pa.nulls(n, pa.string()),
         pa.nulls(n, pa.timestamp("us"))],
        schema=TRANSCRIPTS_SCHEMA)


def read_transcripts_jsonl(path: str, *, text_field: str = "text",
                           id_field: str | None = None,
                           split_field: str | None = None,
                           presplit: bool = False):
    """NDJSON file(s) -> transcripts Dataset.

    ``text_field="content"`` covers the reference's clue dialect
    (preprocess_corpus.py:273); ``split_field="splitted_text"`` the
    newsspike dialect (:343 — one turn per pre-split element);
    ``presplit=True`` the webhose ``use_corenlp`` branch (:198-211) — each
    entry's text is sentence-pre-split with original whitespace preserved
    (one turn per sentence span) BEFORE the engine's own splitter runs, so
    chunk boundaries match the reference's ssplit-then-split_str order."""
    import ray.data as rd

    if presplit and split_field is not None:
        raise ValueError("presplit applies to whole-text entries; "
                         "split_field entries are already pre-split")

    def parse_rows(lines: list) -> pa.Table:
        rows: list[dict] = []
        for line in lines:
            if not line or not line.strip():
                continue
            rows.extend(_entry_rows(json.loads(line), line,
                                    text_field=text_field,
                                    id_field=id_field,
                                    split_field=split_field,
                                    presplit=presplit))
        return _rows_to_table(rows)

    fast_eligible = (FAST_SPLIT_PATH and split_field is not None
                     and id_field is not None and not presplit)

    def parse(batch: pa.Table) -> pa.Table:
        if fast_eligible:
            out = fast_split_table(batch.column("text").to_pylist(),
                                   id_field, split_field)
            if out is not None:
                return out
        return parse_rows(batch.column("text").to_pylist())

    return rd.read_text(path).map_batches(parse, batch_format="pyarrow")


def read_transcripts_json_dir(path: str, *, text_field: str = "text",
                              id_field: str | None = None):
    """Directory of one-JSON-object-per-file articles -> transcripts
    Dataset (the reference's webhose layout, preprocess_corpus.py:166-196).
    ``conv_id`` falls back to the file's basename (stable and unique per
    directory) when ``id_field`` is absent.  Robust to pretty-printed
    (multi-line) objects — each FILE is parsed whole."""
    import ray.data as rd

    def parse(batch: "dict") -> pa.Table:
        rows: list[dict] = []
        for raw, fpath in zip(batch["bytes"], batch["path"]):
            text = raw.decode("utf-8")
            entry = json.loads(text)
            if id_field is not None and id_field in entry:
                conv_id = str(entry[id_field])
            else:
                conv_id = os.path.basename(fpath)
            body = entry.get(text_field)
            if body is None:
                continue
            rows.append({"conv_id": conv_id, "turn_idx": 0,
                         "text": str(body)})
        return _rows_to_table(rows)

    return rd.read_binary_files(path, include_paths=True) \
             .map_batches(parse, batch_format="numpy")
