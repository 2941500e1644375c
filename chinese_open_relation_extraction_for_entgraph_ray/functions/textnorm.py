"""Sentence splitting + normalization (reference preprocess_corpus.py semantics).

Pure functions; the Ray stage in ``stages/preprocess.py`` applies them per
batch.  Reimplements:

- ``split_str``             -> :func:`split_text`        (preprocess_corpus.py:103-163)
- ``split_long_sentences``  -> :func:`split_long_sentence` (preprocess_corpus.py:66-100)
- ``Normalizer.tok_norm``   -> :func:`normalize_line`    (preprocess_corpus.py:26-63);
  tokenizer-free: instead of round-tripping through the bert-base-chinese
  vocab (drop ``[UNK]``, strip ``#``/``::``/whitespace, lowercase), we drop
  characters outside an explicit keep-set, strip ``#``/``::``/whitespace and
  lowercase ASCII — the same observable effect, deterministic, no model.
"""

from __future__ import annotations

import re

from .lexicon import (
    LONG_SPLIT_BREAKERS,
    LONG_SPLIT_INTERVAL,
    MAX_CHINESE_CHARS,
    MAX_SENT_LEN,
    MIN_CHINESE_CHARS,
    NO_ATTACH_DELIMS,
    RIGHT_ATTACH_DELIMS,
    SPLIT_DELIMITERS,
)

_CHINESE_RE = re.compile(r"[一-鿿]")

# characters preserved by normalization (the analog of "in the BERT vocab"):
# CJK ideographs, ASCII alphanumerics, and common CJK/ASCII punctuation.
_KEEP_RE = re.compile(
    r"[一-鿿0-9A-Za-z"
    r"。！？，、；：“”‘’「」『』（）《》〈〉【】…—～·"
    r"!?,.;:'\"()\[\]{}<>%&@+\-*/=_|]"
)


def count_chinese(s: str) -> int:
    return len(_CHINESE_RE.findall(s))


def normalize_line(line: str) -> str:
    """Normalize one sentence; returns '' when nothing survives
    (callers drop empty results, mirroring preprocess_corpus.py:52-57)."""
    kept = "".join(_KEEP_RE.findall(line))
    kept = kept.replace("#", "").replace("::", "")
    return kept.lower()


def split_long_sentence(s: str, interval: int = LONG_SPLIT_INTERVAL) -> list[str]:
    """Window an over-long sentence into <=interval-char chunks, preferring to
    break at ，；、/space; chunks without enough Chinese are dropped
    (preprocess_corpus.py:66-100)."""
    pieces: list[str] = []
    offset = 0
    while offset < len(s):
        if offset + interval >= len(s):
            pieces.append(s[offset:])
            break
        cut = -1
        for i in range(interval, 0, -1):
            if offset + i >= len(s):
                continue
            if s[offset + i] in LONG_SPLIT_BREAKERS:
                cut = offset + i
                pieces.append(s[offset:cut])
                offset = cut + 1
                break
        if cut == -1:
            pieces.append(s[offset:offset + interval])
            offset += interval
    return [p for p in pieces if count_chinese(p) > MIN_CHINESE_CHARS]


def split_text(text: str) -> list[str]:
    """Raw turn text -> kept, normalized sentences, in order.

    Split on the 9 delimiters (delimiter re-attached to the left piece except
    space/newline; quote-openers re-attached right: preprocess_corpus.py:112-127),
    then apply the 4<zh<=430 & len<500 keep-window with over-long re-chunking
    (:130-145), strip, and normalize each surviving sentence.
    """
    pieces = [text]
    for d in SPLIT_DELIMITERS:
        nxt: list[str] = []
        for s in pieces:
            subs = s.split(d)
            for k, sub in enumerate(subs):
                if k != len(subs) - 1 and d not in NO_ATTACH_DELIMS and d not in RIGHT_ATTACH_DELIMS:
                    sub = sub + d
                if k > 0 and d in RIGHT_ATTACH_DELIMS:
                    sub = d[-1] + sub
                nxt.append(sub)
        pieces = nxt

    kept: list[str] = []
    for s in pieces:
        zh = count_chinese(s)
        if MIN_CHINESE_CHARS < zh <= MAX_CHINESE_CHARS and len(s) < MAX_SENT_LEN:
            kept.append(s)
        elif zh > MAX_CHINESE_CHARS or len(s) >= MAX_SENT_LEN:
            kept.extend(split_long_sentence(s))

    out: list[str] = []
    for s in kept:
        s = normalize_line(s.strip())
        if s:
            out.append(s)
    return out
