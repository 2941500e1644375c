"""Frozen outputs of the rule cascade, one digest per parse.

``tests/cascade_frozen.json.gz`` (written by ``scripts/gen_cascade_frozen.py``)
holds a few thousand parses — every distinct parse of the golden corpus and
of sf0.001, the adversarial turns of ``test_extract_dedup.py`` and seeded
random trees over the full deprel set — each with the SHA-256 of what
:func:`cascade_digest` computes for it: the fine and coarse
``extract_tuples`` and the ``process_sentence`` streams and counters under
three configs.  A change to the cascade that is meant to keep its outputs
must keep every digest; the test names the first parse whose digest moved.
"""

import gzip
import hashlib
import json
import os

from chinese_open_relation_extraction_for_entgraph_ray.functions.cascade import (
    ExtractionConfig,
    process_sentence,
)
from chinese_open_relation_extraction_for_entgraph_ray.functions.deptree import extract_tuples
from chinese_open_relation_extraction_for_entgraph_ray.functions.lexicon import pos_map_for_words

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "cascade_frozen.json.gz")

CONFIGS = {
    "default": ExtractionConfig(),
    "ignore_postag": ExtractionConfig(ignore_postag=True),
    "half_coarse_nct": ExtractionConfig(
        add_half_coarse=True, convert_copular=True, convert_tense=True,
        convert_modal=True),
}


def cascade_outputs(ddp: dict) -> dict:
    out = {"fine": extract_tuples(ddp, coarse=False),
           "coarse": extract_tuples(ddp, coarse=True)}
    for name, cfg in CONFIGS.items():
        counters: dict = {}
        streams = process_sentence(ddp, pos_map_for_words(ddp["word"]),
                                   counters, config=cfg)
        out[name] = {"streams": streams, "counters": counters}
    return out


def cascade_digest(ddp: dict) -> str:
    """SHA-256 of the canonical JSON of :func:`cascade_outputs`."""
    blob = json.dumps(cascade_outputs(ddp), ensure_ascii=False,
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_fixture() -> list[list]:
    """``[source, words, heads, deprels, digest]`` per parse."""
    with gzip.open(FIXTURE, "rt", encoding="utf-8") as fp:
        return json.load(fp)["parses"]


def test_fixture_covers_every_source_and_label():
    parses = load_fixture()
    sources = {p[0] for p in parses}
    assert sources == {"golden", "sf0.001", "adversarial", "random"}
    assert len(parses) >= 3000
    assert len({json.dumps(p[1:4]) for p in parses}) == len(parses)
    labels = {d for p in parses for d in p[3]}
    assert labels == {"SBV", "VOB", "ATT", "ADV", "POB", "CMP", "COO", "MT",
                      "VV", "DBL", "DOB", "F", "IC", "HED"}
    words = {w for p in parses for w in p[1]}
    assert {"把", "将", "被"} <= words


def test_cascade_outputs_match_frozen_digests():
    for k, (source, words, heads, deprels, want) in enumerate(load_fixture()):
        ddp = {"word": words, "head": heads, "deprel": deprels}
        got = cascade_digest(ddp)
        assert got == want, (
            f"parse #{k} ({source}) changed its cascade output: {ddp}\n"
            f"outputs now: {json.dumps(cascade_outputs(ddp), ensure_ascii=False)}")
