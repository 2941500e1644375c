"""Golden-case conformance tests for the extraction + amendment cascade.

Each case feeds the gold DDParser-style parse embedded in the reference's
comments (the --ready_ddp contract, /root/reference/dudepparse.py:1891-1899)
and pins the triples the reference documents for it.  Citations per case in
FIXTURES.md §3.
"""

import pytest

from chinese_open_relation_extraction_for_entgraph_ray.functions.cascade import (
    ExtractionConfig,
    process_sentence,
    serialize_rel,
)
from chinese_open_relation_extraction_for_entgraph_ray.functions.deptree import extract_tuples
from chinese_open_relation_extraction_for_entgraph_ray.functions.lexicon import pos_map_for_words


def run(ddp, extra_pos=None):
    pos = pos_map_for_words(ddp["word"])
    if extra_pos:
        pos.update(extra_pos)
    return process_sentence(ddp, pos)


def svos(res, *streams):
    out = set()
    for st in streams or res.keys():
        for rel in res[st]:
            out.add(tuple(rel[0]))
    return out


# --- g01: base SVO + ADV_V (dudepparse.py:459-460) ---------------------------
G01 = {"word": ["张三", "急匆匆", "地", "赶往", "机场", "。"],
       "head": [4, 4, 2, 0, 4, 4],
       "deprel": ["SBV", "ADV", "MT", "HED", "VOB", "MT"]}


def test_g01_base_svo():
    res = run(G01)
    assert ("张三", "赶往", "机场") in svos(res, "fine")
    assert ("张三", "赶往", "机场") in svos(res, "coarse")


def test_g01_raw_extractor_tuples():
    fine = extract_tuples(G01, coarse=False)
    assert (([0, "张三"], [3, "赶往"], [4, "机场"]), "SVO") in fine
    assert (([1, "急匆匆"], [3, "赶往"]), "ADV_V") in fine
    # coarse ADV span strips the trailing MT 地 (extract.py:706-731)
    coarse = extract_tuples(G01, coarse=True)
    assert (([1, "急匆匆"], [3, "赶往"]), "ADV_V") in coarse


# --- g02/g03: POB amendment (dudepparse.py:477-483) --------------------------
def test_g02_pob_without_object():
    res = run({"word": ["中国", "与", "印度", "接壤"], "head": [4, 4, 2, 0],
               "deprel": ["SBV", "ADV", "POB", "HED"]})
    assert ("中国", "与·X·接壤", "印度") in svos(res, "amend_fine")
    assert ("中国", "与·X·接壤", "印度") in svos(res, "amend_coarse")


def test_g03_pob_with_object():
    res = run({"word": ["李四光", "为", "科学", "做出", "了", "贡献", "。"],
               "head": [4, 4, 2, 0, 4, 4, 4],
               "deprel": ["SBV", "ADV", "POB", "HED", "MT", "VOB", "MT"]})
    af = svos(res, "amend_fine")
    assert ("李四光", "为·X·做出·贡献", "科学") in af
    assert ("李四光", "为·X·做出", "科学") in af
    assert ("李四光", "做出", "贡献") in svos(res, "fine")


# --- g04: MT preposition quirk (dudepparse.py:640-641) -----------------------
def test_g04_mt_prep():
    res = run({"word": ["张三", "在", "李四家", "玩", "。"], "head": [4, 3, 4, 0, 4],
               "deprel": ["SBV", "MT", "ADV", "HED", "MT"]})
    af = svos(res, "amend_fine")
    assert ("张三", "在·X·玩", "李四家") in af
    # the Prep_nary trinary marker rel (dudepparse.py:683-688)
    assert ("李四家", "在·X·玩·【介宾】", None) in af


# --- g05/g06: VV / COO merges (dudepparse.py:739-740) ------------------------
def test_g05_vv_merge():
    res = run({"word": ["张三", "去", "诊所", "打", "疫苗", "。"],
               "head": [2, 0, 2, 2, 4, 2],
               "deprel": ["SBV", "HED", "VOB", "VV", "VOB", "MT"]})
    assert ("张三", "打", "疫苗") in svos(res, "amend_fine")
    assert ("张三", "去", "诊所") in svos(res, "fine")


def test_g06_coo_merge():
    res = run({"word": ["张三", "奔跑", "、", "跳跃", "在", "大草原", "。"],
               "head": [2, 0, 4, 2, 6, 4, 2],
               "deprel": ["SBV", "HED", "MT", "COO", "MT", "VOB", "MT"]})
    assert ("张三", "跳跃", "大草原") in svos(res, "amend_fine")


# --- g07: V_CMP fusion (dudepparse.py:858-954) -------------------------------
def test_g07_vcmp_fusion():
    res = run({"word": ["张三", "走", "到", "图书馆", "。"], "head": [2, 0, 2, 3, 2],
               "deprel": ["SBV", "HED", "CMP", "VOB", "MT"]})
    assert ("张三", "走·到", "图书馆") in svos(res, "amend_fine")
    assert ("张三", "走·到", "图书馆") in svos(res, "amend_coarse")
    # the partial base rels were residue-pruned (discard_residue=True)
    assert not svos(res, "fine")


# --- g08: ATT_OBJ (dudepparse.py:960-964) ------------------------------------
def test_g08_att_obj():
    res = run({"word": ["咽炎", "成为", "发热", "的", "原因", "。"],
               "head": [2, 0, 5, 3, 2, 2],
               "deprel": ["SBV", "HED", "ATT", "MT", "VOB", "MT"]})
    assert ("咽炎", "成为·X·的·原因", "发热") in svos(res, "amend_fine")
    # coarse keeps the full span object, no fine-style ATT_OBJ (ref comment :965)
    assert ("咽炎", "成为", "发热的原因") in svos(res, "coarse")
    assert not svos(res, "amend_coarse")


# --- g09: ATT_POB (dudepparse.py:1044) ---------------------------------------
def test_g09_att_pob():
    res = run({"word": ["张三", "发出", "关于", "事故", "的", "报道", "。"],
               "head": [2, 0, 6, 3, 3, 2, 2],
               "deprel": ["SBV", "HED", "ATT", "POB", "MT", "VOB", "MT"]})
    assert ("张三", "发出·关于·X·的·报道", "事故") in svos(res, "amend_fine")


# --- g10: COP_SBJ (dudepparse.py:1145) ---------------------------------------
def test_g10_cop_sbj():
    res = run({"word": ["北京大学", "的", "校长", "是", "郝平", "。"],
               "head": [3, 1, 4, 0, 4, 4],
               "deprel": ["ATT", "MT", "SBV", "HED", "VOB", "MT"]})
    assert ("北京大学", "校长·是", "郝平") in svos(res, "amend_fine")
    assert ("校长", "是", "郝平") in svos(res, "fine")


# --- g11: COP_ADJ four variants (dudepparse.py:1211-1214) --------------------
@pytest.mark.parametrize("ddp,expected", [
    ({"word": ["玉米", "是", "从", "美国", "引进", "的", "。"],
      "head": [2, 0, 4, 5, 6, 2, 2],
      "deprel": ["SBV", "HED", "MT", "ADV", "ATT", "VOB", "MT"]},
     ("玉米", "是·从·X·引进·的", "美国")),
    ({"word": ["设备", "是", "木头", "做", "的", "。"], "head": [2, 0, 4, 5, 2, 2],
      "deprel": ["SBV", "HED", "ADV", "ATT", "VOB", "MT"]},
     ("设备", "是·X·做·的", "木头")),
    ({"word": ["设备", "是", "用", "木头", "做", "的", "。"],
      "head": [2, 0, 5, 3, 6, 2, 2],
      "deprel": ["SBV", "HED", "ADV", "POB", "ATT", "VOB", "MT"]},
     ("设备", "是·用·X·做·的", "木头")),
    ({"word": ["语言", "是", "埃及人", "说", "的", "。"], "head": [2, 0, 4, 5, 2, 2],
      "deprel": ["SBV", "HED", "SBV", "ATT", "VOB", "MT"]},
     ("语言", "是·X·说·的", "埃及人")),
])
def test_g11_cop_adj(ddp, expected):
    assert expected in svos(run(ddp), "amend_fine")


# --- g12: ATT_SUB chain (dudepparse.py:1337-1341) ----------------------------
def test_g12_att_sub():
    res = run({"word": ["他们", "成为", "建设", "家园", "的", "力量", "。"],
               "head": [2, 0, 6, 3, 3, 2, 2],
               "deprel": ["SBV", "HED", "ATT", "VOB", "MT", "VOB", "MT"]})
    assert ("力量", "建设", "家园") in svos(res, "amend_fine")


# --- g13: ATT_ATT possible rel (dudepparse.py:1398-1430) ---------------------
def test_g13_att_att():
    res = run({"word": ["德国", "总理", "默克尔", "访问", "法国", "。"],
               "head": [2, 3, 4, 0, 4, 4],
               "deprel": ["ATT", "ATT", "SBV", "HED", "VOB", "MT"]})
    assert ("默克尔", "是·X·的·总理", "德国") in svos(res, "possible")
    assert ("默克尔", "访问", "法国") in svos(res, "fine")
    assert ("德国总理默克尔", "访问", "法国") in svos(res, "coarse")


# --- g14: VOB_VOB chain (dudepparse.py:1436-1461) ----------------------------
def test_g14_vob_vob():
    res = run({"word": ["张三", "被控", "试图", "杀死", "李四", "。"],
               "head": [2, 0, 2, 3, 4, 2],
               "deprel": ["SBV", "HED", "VOB", "VOB", "VOB", "MT"]})
    af = svos(res, "amend_fine")
    assert ("张三", "被控·试图", "杀死") in af
    assert ("张三", "被控·试图·杀死", "李四") in af


# --- g15: ba / bei constructions (extract.py:183-238) ------------------------
def test_g15_ba():
    res = run({"word": ["张三", "把", "苹果", "吃掉", "。"], "head": [4, 4, 2, 0, 4],
               "deprel": ["SBV", "POB", "POB", "HED", "MT"]})
    assert ("张三", "吃掉", "苹果") in svos(res, "fine")


def test_g15_ba_dob_explodes_to_binaries():
    res = run({"word": ["张三", "把", "苹果", "送给", "李四", "。"],
               "head": [4, 4, 2, 0, 4, 4],
               "deprel": ["SBV", "POB", "POB", "HED", "VOB", "MT"]})
    f = svos(res, "fine")
    assert ("张三", "送给", "李四") in f
    assert ("张三", "送给", "苹果") in f


def test_g15_bei_swaps_roles():
    res = run({"word": ["李四", "被", "张三", "批评", "了", "。"],
               "head": [4, 4, 2, 0, 4, 4],
               "deprel": ["SBV", "POB", "POB", "HED", "MT", "MT"]})
    assert ("张三", "批评", "李四") in svos(res, "fine")


# --- g17: negation marking (dudepparse.py:1550-1596) -------------------------
def test_g17_negation():
    res = run({"word": ["张三", "不", "喜欢", "方案", "。"], "head": [3, 3, 0, 3, 3],
               "deprel": ["SBV", "ADV", "HED", "VOB", "MT"]})
    assert ("张三", "否·喜欢", "方案") in svos(res, "fine")
    assert ("张三", "喜欢", "方案") not in svos(res, "fine")


# --- g18: stop-word / digit / length filter (dudepparse.py:267-332) ----------
def test_g18_stopword_subject_dropped():
    res = run({"word": ["他", "访问", "法国", "。"], "head": [2, 0, 2, 2],
               "deprel": ["SBV", "HED", "VOB", "MT"]})
    assert not svos(res, "fine")


def test_g18_digit_argument_dropped():
    res = run({"word": ["123", "超过", "456", "。"], "head": [2, 0, 2, 2],
               "deprel": ["SBV", "HED", "VOB", "MT"]})
    assert not svos(res, "fine")


# --- g20: DBL pivot construction (extract.py:277-304) ------------------------
def test_g20_dbl():
    res = run({"word": ["经理", "让", "员工", "加班", "。"], "head": [2, 0, 2, 2, 2],
               "deprel": ["SBV", "HED", "DBL", "VOB", "MT"]})
    assert ("经理", "让", "员工") in svos(res, "fine")


# --- property tests (FIXTURES.md §4) -----------------------------------------
ALL_GOLD = [G01]


def test_pred_algebra_at_most_one_placeholder():
    import itertools

    from chinese_open_relation_extraction_for_entgraph_ray.sources.synthetic import iter_turns
    from chinese_open_relation_extraction_for_entgraph_ray.functions.grammar import parse_sentence
    from chinese_open_relation_extraction_for_entgraph_ray.functions.textnorm import split_text

    for spec in itertools.islice(iter_turns(7, 60), 0, None):
        for sent in split_text(spec.raw_text):
            ddp = parse_sentence(sent)
            res = run(ddp)
            for stream, rels in res.items():
                for rel in rels:
                    assert rel[0][1].count("·X·") <= 1, (sent, stream, rel)


def test_serialize_roundtrip_stability():
    rel = (("中国", "与·X·接壤", "印度"), "SVO", (0, 3, 2))
    assert serialize_rel(rel) == serialize_rel(rel)
    other = (("中国", "与·X·接壤", "印度"), "SVO", (0, 3, 1))
    assert serialize_rel(rel) != serialize_rel(other)


def test_filter_idempotent():
    from chinese_open_relation_extraction_for_entgraph_ray.functions.cascade import (
        filter_stopword_triples,
    )

    rels = [(["张三", "访问", "法国"], "SVO", [0, 1, 2]),
            (["他", "访问", "法国"], "SVO", [0, 1, 2]),
            ([" ", "访问", "法国"], "SVO", [0, 1, 2]),
            (["123", "访问", "abc"], "SVO", [0, 1, 2])]
    once = filter_stopword_triples(rels)
    twice = filter_stopword_triples(once)
    assert [tuple(r[0]) for r in once] == [tuple(r[0]) for r in twice]


# --- tense / modal / copular conversions (reference check_nct branches,
#     dudepparse.py:1598-1655; disabled consts :1551-1553 — off by default,
#     exposed as ExtractionConfig fields) -------------------------------------

# 张三 将 访问 法国 — future ADV on the predicate head
T01 = {"word": ["张三", "将", "访问", "法国"], "head": [3, 3, 0, 3],
       "deprel": ["SBV", "ADV", "HED", "VOB"]}
# 张三 曾经 访问 法国 — past ADV
T02 = {"word": ["张三", "曾经", "访问", "法国"], "head": [3, 3, 0, 3],
       "deprel": ["SBV", "ADV", "HED", "VOB"]}
# 张三 应该 访问 法国 — modal ADV (应该 -> 该)
T03 = {"word": ["张三", "应该", "访问", "法国"], "head": [3, 3, 0, 3],
       "deprel": ["SBV", "ADV", "HED", "VOB"]}


def _pos(ddp):
    return pos_map_for_words(ddp["word"])


def test_tense_flag_off_by_default():
    res = process_sentence(T01, _pos(T01))
    assert ("张三", "访问", "法国") in svos(res, "fine")


def test_tense_future_marker():
    res = process_sentence(T01, _pos(T01),
                           config=ExtractionConfig(convert_tense=True))
    assert ("张三", "【将来式】·访问", "法国") in svos(res, "fine")


def test_tense_past_marker():
    res = process_sentence(T02, _pos(T02),
                           config=ExtractionConfig(convert_tense=True))
    assert ("张三", "【过去式】·访问", "法国") in svos(res, "fine")


def test_modal_marker():
    res = process_sentence(T03, _pos(T03),
                           config=ExtractionConfig(convert_modal=True))
    assert ("张三", "【该】·访问", "法国") in svos(res, "fine")


def test_copular_conversion():
    # 郝平 是 校长 -> (郝平, 是·校长, None) under convert_copular
    ddp = {"word": ["郝平", "是", "校长"], "head": [2, 0, 2],
           "deprel": ["SBV", "HED", "VOB"]}
    res = process_sentence(ddp, _pos(ddp),
                           config=ExtractionConfig(convert_copular=True))
    assert ("郝平", "是·校长", None) in svos(res, "fine")


def test_extraction_config_rule_switch():
    ddp = {"word": ["中国", "与", "印度", "接壤"], "head": [4, 4, 2, 0],
           "deprel": ["SBV", "ADV", "POB", "HED"]}
    on = process_sentence(ddp, pos_map_for_words(ddp["word"]))
    off = process_sentence(ddp, pos_map_for_words(ddp["word"]),
                           config=ExtractionConfig(amend_pob=False))
    assert ("中国", "与·X·接壤", "印度") in svos(on, "amend_fine")
    assert ("中国", "与·X·接壤", "印度") not in svos(off, "amend_fine")


def test_extraction_config_svo_cap():
    res = process_sentence(G01, pos_map_for_words(G01["word"]),
                           config=ExtractionConfig(svo_cap=0))
    assert res["fine"] == []


def test_extraction_config_partitions_stage_memo():
    import pyarrow as pa

    from chinese_open_relation_extraction_for_entgraph_ray.stages.extract import (
        extract_triples,
    )

    batch = pa.Table.from_arrays(
        [pa.array(["c"], pa.string()), pa.array([0], pa.int32()),
         pa.array([0], pa.int32()),
         pa.array([["中国", "与", "印度", "接壤"]], pa.list_(pa.string())),
         pa.array([[4, 4, 2, 0]], pa.list_(pa.int32())),
         pa.array([["SBV", "ADV", "POB", "HED"]], pa.list_(pa.string()))],
        names=["conv_id", "turn_idx", "sent_idx", "words", "heads", "deprels"])
    default = extract_triples(batch)
    off = extract_triples(batch, ExtractionConfig(amend_pob=False))
    kinds_default = set(default.column("rel_kind").to_pylist())
    assert "amend_fine" in kinds_default
    assert "amend_fine" not in set(off.column("rel_kind").to_pylist())
    # and the off-config call does not leak into a later default call
    again = extract_triples(batch)
    assert again.equals(default)


def test_add_half_coarse_crossed_streams():
    # 张三 急匆匆 地 赶往 机场: coarse subj == fine subj (single token), so only
    # the obj expansion could differ; use an ATT-modified object so the
    # crossed (half-coarse) stream has a changed argument to keep.
    ddp = {"word": ["张三", "赶往", "北京", "机场"], "head": [2, 0, 4, 2],
           "deprel": ["SBV", "HED", "ATT", "VOB"]}
    off = process_sentence(ddp, pos_map_for_words(ddp["word"]))
    assert "crossed" not in off and "amend_crossed" not in off

    on = process_sentence(ddp, pos_map_for_words(ddp["word"]),
                          config=ExtractionConfig(add_half_coarse=True))
    assert "crossed" in on and "amend_crossed" in on
    # the crossed stream carries the obj-expanded half-coarse triple, and
    # keep_same=False drops any variant where expansion changed nothing
    assert ("张三", "赶往", "北京机场") in svos(on, "crossed")
    assert ("张三", "赶往", "机场") not in svos(on, "crossed")


# --- F / IC rules (extract.py:321-346) ---------------------------------------

def test_f_rule_pair_and_mt_triple():
    # bare F: (parent, F-node) pair (extract.py:330-331)
    fine = extract_tuples({"word": ["去", "公园"], "head": [0, 1],
                           "deprel": ["HED", "F"]}, coarse=False)
    assert (([0, "去"], [1, "公园"]), "F") in fine
    # MT token directly before the parent and headed by it -> 3-slot F
    # (extract.py:326-329)
    fine = extract_tuples({"word": ["在", "走", "屋里"], "head": [2, 0, 2],
                           "deprel": ["MT", "HED", "F"]}, coarse=False)
    assert (([0, "在"], [1, "走"], [2, "屋里"]), "F") in fine


def test_ic_rule_phrase():
    # IC node whose children are all MT/COO/IC -> Phrase; COO children emit
    # their own Phrase (extract.py:334-346)
    ddp = {"word": ["你好", "，", "再见", "走"], "head": [4, 1, 1, 0],
           "deprel": ["IC", "MT", "COO", "HED"]}
    fine = extract_tuples(ddp, coarse=False)
    assert (([0, "你好"],), "Phrase") in fine
    assert (([2, "再见"],), "Phrase") in fine
