"""Sentence rows -> dependency parses (the parser stage).

This is the reference's DDParser stage (`/root/reference/dudepparse.py:1851,
1891-1906`).  The default template parser is cheap to build and holds no
weights, so it runs as a stateless ``map_batches`` task
(:func:`template_parse`).  A real DDParser/LTP model drops in as an
actor-pool stage by passing a model-backed actor with the same
``{word, head, deprel}`` output contract as ``parser_cls`` (e.g.
:class:`DDParserActor`), whose warm weights are built ONCE per actor in
``__init__`` — exactly the reference's ``--ready_ddp`` decoupling of parsing
from extraction.

Both parsers here go through :func:`parse_distinct` (a custom
``parser_cls`` gets the same contract by calling it): it parses each
distinct text of a batch once and asserts the reference's reconstruction
invariant ``''.join(words) == text`` (dudepparse.py:1901-1906) on that
parse, which all rows with the text share.
"""

from __future__ import annotations

from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.grammar import compiled_templates

PARSES_SCHEMA = pa.schema([
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("sent_idx", pa.int32()),
    ("text", pa.string()),
    ("words", pa.list_(pa.string())),
    ("heads", pa.list_(pa.int32())),
    ("deprels", pa.list_(pa.string())),
])


Parse = tuple[list[str], list[int], list[str]]


def parse_distinct(batch: pa.Table,
                   parse_texts: Callable[[list[str]], list[Parse]]
                   ) -> pa.Table:
    """The batch contract every parser shares: ``parse_texts`` maps texts to
    ``(words, heads, deprels)``.  Transcripts repeat sentences heavily, so
    it sees each distinct text of the batch once; each parse is checked
    against its text, then expanded to rows with one take over the
    dictionary indices."""
    enc = pc.dictionary_encode(batch.column("text").combine_chunks(),
                               null_encoding="encode")
    texts = enc.dictionary.to_pylist()
    parses = parse_texts(texts)
    for text, (words, _, _) in zip(texts, parses):
        if "".join(words) != text:   # dudepparse.py:1901-1906
            raise AssertionError(f"parse reconstruction mismatch: {text!r}")
    words_col, heads_col, deprels_col = list(zip(*parses)) or ([], [], [])
    return pa.Table.from_arrays(
        [batch.column("conv_id"), batch.column("turn_idx"),
         batch.column("sent_idx"), batch.column("text"),
         pa.array(words_col, pa.list_(pa.string())).take(enc.indices),
         pa.array(heads_col, pa.list_(pa.int32())).take(enc.indices),
         pa.array(deprels_col, pa.list_(pa.string())).take(enc.indices)],
        schema=PARSES_SCHEMA)


class DDParserActor:
    """Production parser actor: wraps Baidu DDParser with the same batch
    contract as :class:`TemplateParserActor` (the reference's parser,
    /root/reference/dudepparse.py:1851 ``DDParser(encoding_model=
    'transformer')``).  Not importable in this container (no model weights /
    paddle); the class documents the swap-in point — pass it as
    ``build_kg(..., parser_cls=DDParserActor)`` on a cluster with the model
    available, sizing ``parse_num_gpus`` fractionally per actor."""

    def __init__(self):
        try:
            from ddparser import DDParser   # not installed here
        except ImportError as e:            # pragma: no cover
            raise NotImplementedError(
                "DDParser is not available in this environment; use "
                "TemplateParserActor, or install ddparser on the cluster"
            ) from e
        self._ddp = DDParser(encoding_model="transformer")   # pragma: no cover

    def _parse_texts(self, texts: list[str]) -> list[Parse]:
        return [(p["word"], p["head"], p["deprel"])
                for p in self._ddp.parse(texts)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        return parse_distinct(batch, self._parse_texts)


class TemplateParserActor:
    """Deterministic rule/lexicon parser over the templates
    ``compiled_templates`` compiles once per process.

    The template parser carries no model weights, so ``build_kg`` runs it as
    a plain task through :func:`template_parse`; the actor-pool path
    (``concurrency=N``, ``num_gpus``; SURVEY.md §2.4 ST3) is for
    model-backed ``parser_cls`` classes with the same batch contract.
    """

    def __init__(self):
        self._templates = compiled_templates()

    def _parse(self, text: str) -> Parse:
        for t, pat in self._templates:
            m = pat.match(text)
            if m is None:
                continue
            words = [m.group(f"g{i}") if kind == "slot" else val
                     for i, (kind, val) in enumerate(t.parts)]
            return words, list(t.heads), list(t.deprels)
        return [text], [0], ["HED"]

    def __call__(self, batch: pa.Table) -> pa.Table:
        return parse_distinct(batch,
                              lambda texts: [self._parse(t) for t in texts])


def template_parse(batch: pa.Table) -> pa.Table:
    """Stateless-task form of :class:`TemplateParserActor`: a parser per
    batch, over the templates ``compiled_templates`` compiles once per
    process."""
    return TemplateParserActor()(batch)
