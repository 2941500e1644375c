"""Transcript turns -> sentence rows (the explode-early stage).

Ray Data mapping of the reference's ingestion path (split_str + length filter
+ normalization, /root/reference/preprocess_corpus.py:103-163,26-63): a
stateless ``map_batches`` over zero-copy Arrow batches that explodes each turn
into one row per kept sentence, carrying the ``(conv_id, turn_idx, sent_idx)``
ordering keys instead of relying on file-line order.

Turns whose text yields no sentences simply emit no rows (the reference's
"excluded" sink is the complementary filter, exposed as
:func:`rejected_turns`).
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.textnorm import split_text

SENTENCES_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("sent_idx", pa.int32()),
    ("text", pa.string()),
])


def _pylist(col) -> list:
    """A column's values as Python objects, through numpy: ~5x cheaper than
    ``to_pylist`` on this stage's columns.  An integer column with nulls
    keeps ``to_pylist``, where numpy would turn its nulls into NaN floats."""
    if col.null_count and not pa.types.is_string(col.type):
        return col.to_pylist()
    return col.to_numpy(zero_copy_only=False).tolist()


def explode_turns(batch: pa.Table) -> pa.Table:
    """One turn row -> N sentence rows (order-preserving within the batch)."""
    conv_ids = _pylist(batch.column("conv_id"))
    turn_idxs = _pylist(batch.column("turn_idx"))
    texts = _pylist(batch.column("text"))

    out_conv: list[str] = []
    out_turn: list[int] = []
    out_sent: list[int] = []
    out_text: list[str] = []
    for cid, tid, text in zip(conv_ids, turn_idxs, texts):
        for si, sent in enumerate(split_text(text or "")):
            out_conv.append(cid)
            out_turn.append(tid)
            out_sent.append(si)
            out_text.append(sent)
    return pa.Table.from_arrays(
        [pa.array(out_conv, pa.string()), pa.array(out_turn, pa.int32()),
         pa.array(out_sent, pa.int32()), pa.array(out_text, pa.string())],
        schema=SENTENCES_SCHEMA)


def keep_turn_mask(batch: pa.Table) -> pa.Table:
    """Adds ``kept: bool`` — whether the turn survives preprocessing (the
    accepted/excluded split of preprocess_corpus.py:217-224)."""
    texts = batch.column("text").to_pylist()
    kept = [len(split_text(t or "")) > 0 for t in texts]
    return batch.append_column("kept", pa.array(kept, pa.bool_()))


def rejected_turns(batch: pa.Table) -> pa.Table:
    out = keep_turn_mask(batch)
    return out.filter(pa.compute.invert(out.column("kept"))).drop_columns(["kept"])
