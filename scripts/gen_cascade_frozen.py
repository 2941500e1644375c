"""Write ``tests/cascade_frozen.json.gz``, the frozen-output fixture of
``tests/test_cascade_frozen.py``.

The fixture lists parses with the digest of their cascade outputs
(``test_cascade_frozen.cascade_digest``), in this order:

- ``golden``: every distinct template parse of the golden corpus;
- ``sf0.001``: every distinct template parse of the sf0.001 corpus
  (``sources.synthetic.transcripts_dir_for_sf``);
- ``adversarial``: the parses of ``test_extract_dedup.ADVERSARIAL_TURNS``;
- ``random``: seeded random dependency trees over the 14 deprels — half in
  ``test_cascade_properties.random_parse``'s scheme (heads point left or at
  the root) over the POS gazetteer plus function words, half with heads
  drawn anywhere in the tree over a small vocabulary dense in the words the
  rules test for (把/将/被, pivot prepositions, copulas, negators, modals);
  then trees over a few words and deprels, where words repeat: negators, a
  copula and a number (negators inside and outside a predicate's subtree,
  numeric arguments at the stop-word filter), and a word with the reserved
  ``·`` in ba/bei and double-object trees (interpunct stripping).

The template grammar yields few tree shapes, so the random trees are what
reach the rules' rarer branches.  Run it once on a commit whose outputs are
the reference; a later run on a changed cascade would overwrite the
reference with the changed outputs.

Usage: python scripts/gen_cascade_frozen.py
"""

import glob
import gzip
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "tests")]

import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

from chinese_open_relation_extraction_for_entgraph_ray.functions.lexicon import (  # noqa: E402
    POS_GAZETTEER,
)
from chinese_open_relation_extraction_for_entgraph_ray.sources.golden import (  # noqa: E402
    golden_transcripts_table,
)
from chinese_open_relation_extraction_for_entgraph_ray.sources.synthetic import (  # noqa: E402
    transcripts_dir_for_sf,
)
from chinese_open_relation_extraction_for_entgraph_ray.stages.parse import (  # noqa: E402
    TemplateParserActor,
)
from chinese_open_relation_extraction_for_entgraph_ray.stages.preprocess import (  # noqa: E402
    explode_turns,
)
from test_cascade_frozen import FIXTURE, cascade_digest  # noqa: E402
from test_extract_dedup import ADVERSARIAL_TURNS  # noqa: E402

SEED = 20261019
N_RANDOM = 3000
N_NEGATION = 1000
N_INTERPUNCT = 500
DEPRELS = ["SBV", "VOB", "ATT", "ADV", "POB", "CMP", "COO", "MT", "VV",
           "DBL", "DOB", "F", "IC", "HED"]
FUNCTION_WORDS = ["的", "了", "在", "把", "将", "被", "是", "。", "，"]
TRIGGER_WORDS = FUNCTION_WORDS + ["与", "从", "于", "达", "也是", "不", "没有",
                                  "失败", "应该", "曾经", "过", "有", "他"]
NEGATION_WORDS = ["张伟", "访问", "数据", "不", "没有", "失败", "是", "3.5"]
NEGATION_DEPRELS = ["SBV", "VOB", "ATT", "ADV", "CMP", "COO"]
INTERPUNCT_WORDS = ["张伟", "数据", "马克·吐温", "把", "被", "是"]
INTERPUNCT_DEPRELS = ["SBV", "VOB", "DOB", "POB", "ATT", "COO"]


def template_parses(turns: pa.Table) -> list[tuple]:
    """Distinct template parses of a transcripts table, first-seen order."""
    parsed = TemplateParserActor()(explode_turns(turns))
    return list(dict.fromkeys(zip(
        map(tuple, parsed.column("words").to_pylist()),
        map(tuple, parsed.column("heads").to_pylist()),
        map(tuple, parsed.column("deprels").to_pylist()))))


def left_tree(rng: random.Random, vocab: list[str]) -> tuple:
    """``random_parse``'s scheme: node i's head is one of nodes 1..i or the
    root, so every head but the root's points left."""
    n = rng.randint(1, 10)
    words = [rng.choice(vocab) for _ in range(n)]
    root = rng.randrange(n)
    heads = []
    for i in range(n):
        if i == root:
            heads.append(0)
        elif i == 0:
            heads.append(root + 1)
        else:
            heads.append(rng.choice([j + 1 for j in range(i)] + [root + 1]))
    return words, heads


def any_tree(rng: random.Random, vocab: list[str]) -> tuple:
    """Nodes join the tree in random order, each under a random node
    already in it: heads point either way."""
    n = rng.randint(1, 10)
    words = [rng.choice(vocab) for _ in range(n)]
    order = rng.sample(range(n), n)
    heads = [0] * n
    for k, i in enumerate(order[1:], 1):
        heads[i] = rng.choice(order[:k]) + 1
    return words, heads


def random_parses(n: int, seed: int) -> list[tuple]:
    rng = random.Random(seed)
    wide = sorted(POS_GAZETTEER) + FUNCTION_WORDS
    dense = rng.sample(sorted(POS_GAZETTEER), 24) + TRIGGER_WORDS
    out = []
    for k in range(n):
        words, heads = (left_tree(rng, wide) if k % 2 == 0
                        else any_tree(rng, dense))
        deprels = ["HED" if h == 0 else rng.choice(DEPRELS) for h in heads]
        out.append((tuple(words), tuple(heads), tuple(deprels)))
    return out


def small_parses(n: int, seed: int, vocab: list[str],
                 labels: list[str]) -> list[tuple]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        words, heads = any_tree(rng, vocab)
        deprels = ["HED" if h == 0 else rng.choice(labels) for h in heads]
        out.append((tuple(words), tuple(heads), tuple(deprels)))
    return out


def main() -> None:
    sf_dir = transcripts_dir_for_sf("sf0.001")
    sf = pa.concat_tables(pq.read_table(f) for f in
                          sorted(glob.glob(os.path.join(sf_dir, "*.parquet"))))
    adversarial = pa.table({"conv_id": ["adv"] * len(ADVERSARIAL_TURNS),
                            "turn_idx": pa.array(range(len(ADVERSARIAL_TURNS)),
                                                 pa.int32()),
                            "text": ADVERSARIAL_TURNS})
    seen: set = set()
    parses = []
    for source, items in (("golden", template_parses(golden_transcripts_table())),
                          ("sf0.001", template_parses(sf)),
                          ("adversarial", template_parses(adversarial)),
                          ("random", random_parses(N_RANDOM, SEED)
                           + small_parses(N_NEGATION, SEED + 1, NEGATION_WORDS,
                                          NEGATION_DEPRELS)
                           + small_parses(N_INTERPUNCT, SEED + 2,
                                          INTERPUNCT_WORDS,
                                          INTERPUNCT_DEPRELS))):
        for words, heads, deprels in items:
            if (words, heads, deprels) in seen:
                continue
            seen.add((words, heads, deprels))
            ddp = {"word": list(words), "head": list(heads),
                   "deprel": list(deprels)}
            parses.append([source, ddp["word"], ddp["head"], ddp["deprel"],
                           cascade_digest(ddp)])
    with gzip.GzipFile(FIXTURE, "wb", mtime=0) as fp:
        fp.write(json.dumps({"parses": parses}, ensure_ascii=False,
                            separators=(",", ":")).encode())
    counts = {}
    for p in parses:
        counts[p[0]] = counts.get(p[0], 0) + 1
    print(json.dumps({"fixture": os.path.relpath(FIXTURE, ROOT), **counts}))


if __name__ == "__main__":
    main()
