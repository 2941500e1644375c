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

The stage asserts the reference's reconstruction invariant for every row:
``''.join(words) == text`` (dudepparse.py:1901-1906); rows with equal text
share one parse, so it is checked once per distinct text.
"""

from __future__ import annotations

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

    def __call__(self, batch: pa.Table) -> pa.Table:         # pragma: no cover
        texts = batch.column("text").to_pylist()
        parses = self._ddp.parse(texts)
        words_col = [p["word"] for p in parses]
        heads_col = [p["head"] for p in parses]
        deprels_col = [p["deprel"] for p in parses]
        for text, words in zip(texts, words_col):
            if "".join(words) != text:   # dudepparse.py:1901-1906
                raise AssertionError(f"parse reconstruction mismatch: {text!r}")
        return pa.Table.from_arrays(
            [batch.column("conv_id"), batch.column("turn_idx"),
             batch.column("sent_idx"), batch.column("text"),
             pa.array(words_col, pa.list_(pa.string())),
             pa.array(heads_col, pa.list_(pa.int32())),
             pa.array(deprels_col, pa.list_(pa.string()))],
            schema=PARSES_SCHEMA)


class TemplateParserActor:
    """Deterministic rule/lexicon parser over the templates
    ``compiled_templates`` compiles once per process; each distinct text of
    a batch is parsed once.

    The template parser carries no model weights, so ``build_kg`` runs it as
    a plain task through :func:`template_parse`; the actor-pool path
    (``concurrency=N``, ``num_gpus``; SURVEY.md §2.4 ST3) is for
    model-backed ``parser_cls`` classes with the same batch contract.
    """

    def __init__(self):
        self._templates = compiled_templates()

    def _parse(self, text: str) -> tuple[list[str], list[int], list[str]]:
        for t, pat in self._templates:
            m = pat.match(text)
            if m is None:
                continue
            words = [m.group(f"g{i}") if kind == "slot" else val
                     for i, (kind, val) in enumerate(t.parts)]
            return words, list(t.heads), list(t.deprels)
        return [text], [0], ["HED"]

    def __call__(self, batch: pa.Table) -> pa.Table:
        # transcripts repeat sentences heavily: parse each distinct text once
        # and expand to rows with one take over the dictionary indices
        enc = pc.dictionary_encode(batch.column("text").combine_chunks(),
                                   null_encoding="encode")
        texts = enc.dictionary.to_pylist()
        parses = [self._parse(text) for text in texts]
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


def template_parse(batch: pa.Table) -> pa.Table:
    """Stateless-task form of :class:`TemplateParserActor`: a parser per
    batch, over the templates ``compiled_templates`` compiles once per
    process."""
    return TemplateParserActor()(batch)
