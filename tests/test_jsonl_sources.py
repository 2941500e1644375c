"""JSON/JSONL ingestion adapters (S1-S3 parity with the reference's three
corpus readers, preprocess_corpus.py:166-357), round-tripped through
build_kg."""

import json
import os
import shutil

import pytest

SENTS = ["张伟访问数据。", "李娜发布论文。", "它运行成功。"]


def test_jsonl_content_dialect_roundtrip_build_kg(ray_session, tmp_path):
    from chinese_open_relation_extraction_for_entgraph_ray.pipelines.kg import (
        build_kg,
    )
    from chinese_open_relation_extraction_for_entgraph_ray.sources.jsonl import (
        read_transcripts_jsonl,
    )

    src = tmp_path / "corpus.jsonl"
    with open(src, "w", encoding="utf8") as fp:
        for i, s in enumerate(SENTS):
            fp.write(json.dumps({"news_id": f"n{i}", "content": s * 2},
                                ensure_ascii=False) + "\n")

    ds = read_transcripts_jsonl(str(src), text_field="content",
                                id_field="news_id")
    rows = sorted(ds.take_all(), key=lambda r: r["conv_id"])
    assert [r["conv_id"] for r in rows] == ["n0", "n1", "n2"]
    assert rows[0]["turn_idx"] == 0 and rows[0]["role"] == "doc"
    assert rows[0]["text"] == SENTS[0] * 2

    # round-trip: adapter output -> parquet -> the full KG pipeline
    tdir = str(tmp_path / "transcripts")
    ds.write_parquet(tdir)
    out = str(tmp_path / "kg")
    res = build_kg(tdir, out, dedup_sort=False)
    triples = res["triples"].take_all()
    assert len(triples) > 0
    assert {t["conv_id"] for t in triples} <= {"n0", "n1", "n2"}


def test_jsonl_splitted_dialect(ray_session, tmp_path):
    from chinese_open_relation_extraction_for_entgraph_ray.sources.jsonl import (
        read_transcripts_jsonl,
    )

    src = tmp_path / "newsspike.jsonl"
    with open(src, "w", encoding="utf8") as fp:
        fp.write(json.dumps({"splitted_text": SENTS},
                            ensure_ascii=False) + "\n")
        fp.write(json.dumps({"splitted_text": SENTS[:1]},
                            ensure_ascii=False) + "\n")

    rows = read_transcripts_jsonl(
        str(src), split_field="splitted_text").take_all()
    assert len(rows) == 4          # 3 turns + 1 turn
    by_conv = {}
    for r in rows:
        by_conv.setdefault(r["conv_id"], []).append(r)
    assert sorted(len(v) for v in by_conv.values()) == [1, 3]
    three = next(v for v in by_conv.values() if len(v) == 3)
    assert sorted(r["turn_idx"] for r in three) == [0, 1, 2]
    assert {r["text"] for r in three} == set(SENTS)


def test_json_dir_dialect_pretty_printed(ray_session, tmp_path):
    from chinese_open_relation_extraction_for_entgraph_ray.sources.jsonl import (
        read_transcripts_json_dir,
    )

    d = tmp_path / "articles"
    os.makedirs(d)
    for i, s in enumerate(SENTS[:2]):
        with open(d / f"art{i}.json", "w", encoding="utf8") as fp:
            json.dump({"text": s, "meta": {"k": i}}, fp,
                      ensure_ascii=False, indent=2)   # multi-line object

    rows = sorted(read_transcripts_json_dir(str(d)).take_all(),
                  key=lambda r: r["conv_id"])
    assert [r["conv_id"] for r in rows] == ["art0.json", "art1.json"]
    assert [r["text"] for r in rows] == SENTS[:2]


def test_jsonl_duplicate_lines_collapse(ray_session, tmp_path):
    """Without an id field, byte-identical entries share one conv_id
    (documented dedup-at-ingest semantics)."""
    from chinese_open_relation_extraction_for_entgraph_ray.sources.jsonl import (
        read_transcripts_jsonl,
    )

    src = tmp_path / "dups.jsonl"
    line = json.dumps({"text": SENTS[0]}, ensure_ascii=False)
    with open(src, "w", encoding="utf8") as fp:
        fp.write(line + "\n" + line + "\n")
    rows = read_transcripts_jsonl(str(src)).take_all()
    assert len({r["conv_id"] for r in rows}) == 1


def test_presplit_sentences_with_spaces_reconstruction():
    """The ssplit-with-spaces contract (preprocess_corpus.py:198-211):
    spans reproduce the source verbatim — including internal spaces — and
    concatenate back to the input."""
    from chinese_open_relation_extraction_for_entgraph_ray.sources.jsonl import (
        presplit_sentences_with_spaces,
    )

    text = "张伟 访问 数据。李娜说：“它 运行！”然后 离开了"
    spans = presplit_sentences_with_spaces(text)
    assert spans == ["张伟 访问 数据。", "李娜说：“它 运行！”", "然后 离开了"]
    assert "".join(spans) == text
    # whitespace-only tails are dropped, reconstruction still asserted
    assert presplit_sentences_with_spaces("你好。  ") == ["你好。"]
    assert presplit_sentences_with_spaces("") == []
    # r4 (ADVICE r3 #4): inter-sentence whitespace is NOT part of any
    # sentence — the reference only re-inserts spaces BETWEEN tokens
    # (tok_id > 0), so spans are stripped; intra-sentence spaces stay
    assert presplit_sentences_with_spaces("你好。  再 见！") == \
        ["你好。", "再 见！"]


def test_jsonl_presplit_dialect_roundtrip_build_kg(ray_session, tmp_path):
    """The webhose use_corenlp branch analog: presplit=True yields one turn
    per sentence span (original spacing preserved) and feeds build_kg."""
    from chinese_open_relation_extraction_for_entgraph_ray.pipelines.kg import (
        build_kg,
    )
    from chinese_open_relation_extraction_for_entgraph_ray.sources.jsonl import (
        read_transcripts_jsonl,
    )

    src = tmp_path / "webhose.jsonl"
    body = "张伟访问数据。李娜发布论文。它运行成功。"
    with open(src, "w", encoding="utf8") as fp:
        fp.write(json.dumps({"uuid": "w0", "text": body},
                            ensure_ascii=False) + "\n")

    ds = read_transcripts_jsonl(str(src), id_field="uuid", presplit=True)
    rows = sorted(ds.take_all(), key=lambda r: r["turn_idx"])
    assert [r["text"] for r in rows] == ["张伟访问数据。", "李娜发布论文。",
                                        "它运行成功。"]
    assert [r["turn_idx"] for r in rows] == [0, 1, 2]

    tdir = str(tmp_path / "transcripts")
    ds.write_parquet(tdir)
    res = build_kg(tdir, str(tmp_path / "kg"), dedup_sort=False)
    triples = res["triples"].take_all()
    assert len(triples) > 0
    assert {t["conv_id"] for t in triples} == {"w0"}
    # presplit + split_field together is ambiguous
    import pytest

    with pytest.raises(ValueError, match="presplit"):
        read_transcripts_jsonl(str(src), split_field="splitted_text",
                               presplit=True)


def test_jsonl_split_fast_path_parity(ray_session, tmp_path, monkeypatch):
    """The Arrow-native fast path for the explicit-id split dialect must be
    row-for-row identical to the per-line json.loads reference path — on
    clean blocks (fast path engages) AND quirk blocks (missing id ->
    md5-of-raw fallback, int elements -> str(), null split list -> no rows)
    where the fast path must bail to the row path per batch."""
    from chinese_open_relation_extraction_for_entgraph_ray.sources import jsonl

    clean = tmp_path / "clean.jsonl"
    with open(clean, "w", encoding="utf8") as fp:
        fp.write(json.dumps({"conv_id": "a", "splitted_text": SENTS},
                            ensure_ascii=False) + "\n")
        fp.write(json.dumps({"conv_id": "b", "splitted_text": SENTS[:1]},
                            ensure_ascii=False) + "\n")
        fp.write(json.dumps({"conv_id": "c", "splitted_text": []}) + "\n")

    quirky = tmp_path / "quirky.jsonl"
    with open(quirky, "w", encoding="utf8") as fp:
        fp.write(json.dumps({"conv_id": "a", "splitted_text": SENTS},
                            ensure_ascii=False) + "\n")
        fp.write(json.dumps({"splitted_text": SENTS[:2]},
                            ensure_ascii=False) + "\n")   # no id -> md5(raw)
        fp.write(json.dumps({"conv_id": "n", "splitted_text": [1, 2]})
                 + "\n")                                  # ints -> str()
        fp.write(json.dumps({"conv_id": "z", "splitted_text": None}) + "\n")

    def read(path):
        rows = jsonl.read_transcripts_jsonl(
            str(path), id_field="conv_id",
            split_field="splitted_text").take_all()
        return sorted((r["conv_id"], r["turn_idx"], r["role"], r["text"],
                       r["tool"], r["ts"]) for r in rows)

    for path in (clean, quirky):
        fast = read(path)
        monkeypatch.setattr(jsonl, "FAST_SPLIT_PATH", False)
        slow = read(path)
        monkeypatch.setattr(jsonl, "FAST_SPLIT_PATH", True)
        assert fast == slow, path.name
        assert len(fast) > 0

    # the clean file's fast output is also pinned against literal expectation
    got = read(clean)
    assert got == sorted(
        [("a", i, "doc", s, None, None) for i, s in enumerate(SENTS)]
        + [("b", 0, "doc", SENTS[0], None, None)])

    # the parity above is not vacuous: a one-block read of the clean file
    # takes the fast path, the quirky file's block bails to the row path
    def fast(lines):
        return jsonl.fast_split_table(lines, "conv_id", "splitted_text")

    clean_fast = fast(clean.read_text(encoding="utf8").splitlines())
    assert clean_fast is not None
    assert sorted((r["conv_id"], r["turn_idx"], r["role"], r["text"],
                   r["tool"], r["ts"]) for r in clean_fast.to_pylist()) == got
    assert fast(quirky.read_text(encoding="utf8").splitlines()) is None
    # two objects on one line: json.loads on the row path rejects the line,
    # so the fast path must not accept it either
    two = json.dumps({"conv_id": "a", "splitted_text": SENTS[:1]},
                     ensure_ascii=False)
    assert fast([two + " " + two]) is None

    # a BOM-prefixed line is rejected by json.loads on the row path, so the
    # fast path bails on it wherever it sits, and both settings raise
    lines = clean.read_text(encoding="utf8").splitlines()
    for pos in (0, 1):
        bom = tmp_path / f"bom{pos}.jsonl"
        bom.write_text("\n".join(ln if i != pos else "\ufeff" + ln
                                 for i, ln in enumerate(lines)) + "\n",
                       encoding="utf8")
        assert fast(bom.read_text(encoding="utf8").splitlines()) is None
        for on in (True, False):
            monkeypatch.setattr(jsonl, "FAST_SPLIT_PATH", on)
            with pytest.raises(Exception, match="BOM"):
                read(bom)
