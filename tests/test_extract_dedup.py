"""Dedup-then-expand extraction against an independent per-row reference.

``stages.extract.extract_linked`` runs the cascade and entity linking once
per distinct parse of its batch, keeping nothing between batches, and
expands the results to rows with a vectorized take.  The reference here
calls ``process_sentence`` and ``link_surface`` directly for every row, in
row order, with no dedup — so these tests pin both the values and the
per-batch row order (rows in batch order, triples within a row in stream
order).
"""

import random

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from chinese_open_relation_extraction_for_entgraph_ray.functions.cascade import (
    process_sentence,
)
from chinese_open_relation_extraction_for_entgraph_ray.functions.lexicon import (
    pos_map_for_words,
)
from chinese_open_relation_extraction_for_entgraph_ray.functions.textnorm import (
    split_text,
)
from chinese_open_relation_extraction_for_entgraph_ray.sources.golden import (
    GOLDEN_CONVS,
)
from chinese_open_relation_extraction_for_entgraph_ray.stages import extract
from chinese_open_relation_extraction_for_entgraph_ray.stages.canonicalize import (
    link_entities,
    link_surface,
)
from chinese_open_relation_extraction_for_entgraph_ray.stages.parse import (
    PARSES_SCHEMA,
    TemplateParserActor,
    template_parse,
)

FALLBACK = "嗯嗯啊啊然后呢"          # no template matches: single-HED parse
ZERO_TRIPLES = "他研究技术。"        # template parse, every triple filtered
# turns at the edges of sentence splitting and normalization
ADVERSARIAL_TURNS = [
    "",                                     # empty turn
    "张三去了",                             # 4 Chinese chars: dropped
    "张三去法国",                           # 5: kept
    "张伟访问数据" * 71 + "张伟访问",       # 430: kept whole
    "张伟访问数据" * 71 + "张伟访问数",     # 431: re-chunked
    "张伟用Python访问了数据API。",          # mixed CJK/ASCII
    "你我他她它的。他们这些那些。",         # stop words only
    "张伟访问\x00数据。",                  # NUL byte, dropped by normalization
    "他说「“张伟访问数据”」。「“李四去法国旅游。”」",   # nested quotes
]


def _sentences(texts: list[str]) -> pa.Table:
    n = len(texts)
    return pa.Table.from_arrays(
        [pa.array([f"c{i % 7}" for i in range(n)], pa.string()),
         pa.array([i // 7 for i in range(n)], pa.int32()),
         pa.array([i % 3 for i in range(n)], pa.int32()),
         pa.array(texts, pa.string())],
        names=["conv_id", "turn_idx", "sent_idx", "text"])


def _corpus_texts() -> list[str]:
    texts = [s for conv in GOLDEN_CONVS for turn in conv
             for s in split_text(turn)]
    assert ZERO_TRIPLES in texts
    texts += [s for turn in ADVERSARIAL_TURNS for s in split_text(turn)]
    assert "张三去法国" in texts and "张三去了" not in texts
    assert {len(s) for s in texts} >= {5, 430}
    assert "张伟访问数据。" in texts        # the NUL turn, normalized
    # every sentence repeated a varying number of times, shuffled
    rng = random.Random(7)
    out = [t for i, t in enumerate(texts) for _ in range(1 + i % 4)]
    out += [FALLBACK] * 3
    rng.shuffle(out)
    return out


def _reference_rows(parses: pa.Table) -> list[dict]:
    rows = []
    for r in parses.to_pylist():
        words = r["words"]
        streams = process_sentence(
            {"word": words, "head": r["heads"], "deprel": r["deprels"]},
            pos_map_for_words(words))
        for kind, rels in streams.items():
            for (subj, pred, obj), _, (si, vi, oi) in rels:
                rows.append({
                    "conv_id": r["conv_id"], "turn_idx": r["turn_idx"],
                    "sent_idx": r["sent_idx"], "rel_kind": kind,
                    "subj": subj, "pred": pred, "obj": obj,
                    "subj_idx": si, "pred_idx": vi, "obj_idx": oi,
                    "negated": bool(pred and pred.startswith("否·")),
                    "subj_ent": link_surface(subj),
                    "obj_ent": link_surface(obj)})
    return rows


@pytest.fixture(scope="module")
def parses() -> pa.Table:
    return TemplateParserActor()(_sentences(_corpus_texts()))


def test_template_parse_matches_per_row_parse(parses):
    parser = TemplateParserActor()
    assert parses.schema == PARSES_SCHEMA
    for r in parses.to_pylist():
        words, heads, deprels = parser._parse(r["text"])
        assert (r["words"], r["heads"], r["deprels"]) == (words, heads, deprels)
        assert "".join(r["words"]) == r["text"]
    fallback = [r for r in parses.to_pylist() if r["text"] == FALLBACK]
    assert fallback and all(r["deprels"] == ["HED"] for r in fallback)
    assert template_parse(_sentences(_corpus_texts())).equals(parses)
    empty = template_parse(_sentences([]))
    assert empty.num_rows == 0 and empty.schema == PARSES_SCHEMA


def test_template_parse_checks_every_row():
    class Broken(TemplateParserActor):
        def _parse(self, text):
            return ([text[:-1]], [0], ["HED"]) if text == FALLBACK \
                else super()._parse(text)

    with pytest.raises(AssertionError, match="reconstruction"):
        Broken()(_sentences(["张伟访问数据。", FALLBACK, FALLBACK]))


def test_extract_linked_equals_per_row_reference(parses):
    want = _reference_rows(parses)
    got, stats = extract.extract_linked(parses)
    assert got.schema == extract.LINKED_TRIPLES_SCHEMA
    assert got.to_pylist() == want
    kinds = {r["rel_kind"] for r in want}
    assert {"fine", "amend_fine"} <= kinds
    n_distinct = len(set(parses.column("text").to_pylist()))
    n_one_word = sum(len(w) == 1 for w in parses.column("words").to_pylist())
    assert n_one_word >= 2      # FALLBACK, repeated
    assert stats == {"n_sentences": parses.num_rows,
                     "n_distinct_parses": n_distinct,
                     "n_one_word_parses": n_one_word}
    # no state between calls: the same batch gives the same rows and counts
    again, again_stats = extract.extract_linked(parses)
    assert again.equals(got) and again_stats == stats
    # the public stage function is the same rows minus the entity columns
    plain = extract.extract_triples(parses)
    assert plain.schema == extract.TRIPLES_SCHEMA
    assert plain.equals(got.drop_columns(["subj_ent", "obj_ent"]))


@pytest.mark.parametrize("cut", [0, 1, 17, 40, -1])
def test_batch_split_does_not_change_rows(parses, cut):
    cut = cut % (parses.num_rows + 1)
    want = _reference_rows(parses)
    head, _ = extract.extract_linked(parses.slice(0, cut))
    tail, _ = extract.extract_linked(parses.slice(cut))
    assert pa.concat_tables([head, tail]).to_pylist() == want


def test_cascade_runs_once_per_distinct_parse_of_every_call(parses,
                                                            monkeypatch):
    """Each call runs the cascade for every distinct parse of its batch and
    for nothing else: no result is kept from an earlier call."""
    calls = []
    linked_rows = extract._linked_rows

    def spy(words, heads, deprels, config):
        calls.append("".join(words))
        return linked_rows(words, heads, deprels, config)

    monkeypatch.setattr(extract, "_linked_rows", spy)
    n_distinct = len(set(parses.column("text").to_pylist()))
    for _ in range(2):
        calls.clear()
        extract.extract_linked(parses)
        assert len(calls) == len(set(calls)) == n_distinct


def test_zero_triple_fallback_and_empty_batches(parses):
    for text in (FALLBACK, ZERO_TRIPLES):
        only = parses.filter(pc.equal(parses.column("text"), text))
        assert only.num_rows > 1
        assert _reference_rows(only) == []
        got, stats = extract.extract_linked(only)
        assert got.num_rows == 0 and got.schema == extract.LINKED_TRIPLES_SCHEMA
        assert stats["n_distinct_parses"] == 1
        # the single-HED fallback is counted on every row; a filtered
        # template parse is not a fallback
        assert stats["n_one_word_parses"] == (
            only.num_rows if text == FALLBACK else 0)
    got, stats = extract.extract_linked(parses.slice(0, 0))
    assert got.num_rows == 0 and got.schema == extract.LINKED_TRIPLES_SCHEMA
    assert stats == {"n_sentences": 0, "n_distinct_parses": 0,
                     "n_one_word_parses": 0}
    # a parses batch without the text column (extract_triples contract)
    assert extract.extract_triples(parses.drop_columns(["text"])).equals(
        extract.extract_triples(parses))


def test_link_entities_links_each_row():
    subj = ["张伟", None, "", "中国", "张伟", "无名之辈", "北京大学的张伟"]
    batch = pa.Table.from_arrays(
        [pa.array(subj, pa.string()), pa.array(list(reversed(subj)))],
        names=["subj", "obj"])
    got = link_entities(batch)
    assert got.column("subj_ent").to_pylist() == [link_surface(s) for s in subj]
    assert got.column("obj_ent").to_pylist() == \
        [link_surface(s) for s in reversed(subj)]
    assert any(got.column("subj_ent").to_pylist())
    empty = link_entities(batch.slice(0, 0))
    assert empty.column_names == ["subj", "obj", "subj_ent", "obj_ent"]


def test_filter_histograms_count_every_repeat(parses, ray_session):
    """Histogram counters come from one cascade run per distinct parse of a
    batch, scaled by its repeats: equal to a per-row recount."""
    import ray.data as rd

    counters: dict = {}
    for r in parses.to_pylist():
        process_sentence(
            {"word": r["words"], "head": r["heads"], "deprel": r["deprels"]},
            pos_map_for_words(r["words"]), counters)
    want = {(bucket, ck[len(prefix):]): n for ck, n in counters.items()
            for prefix, bucket in extract._HIST_BUCKETS.items()
            if ck.startswith(prefix)}
    got = extract.filter_histograms(rd.from_arrow(parses)).take_all()
    assert {(r["bucket"], r["token"]): r["n"] for r in got} == want
    assert max(want.values()) > 1
