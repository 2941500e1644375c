"""Per-sentence relation post-processing cascade.

Fresh implementation of the reference's post-processing semantics
(`/root/reference/dudepparse.py`): reformatting (:57-76), n-ary→binary
translation (:235-249), interpunct normalization (:335-381), the 11
progressive amendment rules (:404-1486), stop-word/digit/length filtering
(:267-332), negation marking (:1550-1658), SVO projection (:215-231) and
argument coarsification (:1667-1715) — composed exactly as the reference's
``post_processing`` (:1718-1786).

Everything here is a pure function over ONE sentence's parse + relations
(the reference loops documents; per-sentence is the natural Ray Data unit
— the only cross-sentence state in the reference is statistics, which we
surface as a per-call ``counters`` dict merged downstream via aggregation).

Canonical relation format (reference :56): ``((S, V, O), TYPE, (Si, Vi, Oi))``
with string args (``None`` for empty slots) and 0-based token indices;
predicates use the reference's ``·`` join / ``·X·`` placeholder / ``否·``
negation-prefix algebra.

Known deliberate divergences (documented, affect nothing at our scales):
- the per-sentence caps (2000/3000, reference :16,:215) use deterministic
  first-k instead of ``random.sample``;
- the reference's obj-side Chinese-character check reads the *subject*
  (:310) — a latent bug we DO replicate for output parity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .deptree import Parse, extract_tuples
from .lexicon import (
    ACCEPTABLE_POS,
    ARG_LEN_THRESHOLD,
    COPULA_PREDS,
    FILTER_REL_CAP,
    NCT_COPULA_PREDS,
    MODIF_NOUN_POS,
    NEG_ADV_WORDS,
    NEG_CMP_WORDS,
    NOUN_POS,
    PIVOT_ADV_WORDS,
    PUNCTUATION,
    STOP_WORDS,
    SVO_CAP,
)

_CHINESE_RE = re.compile(r"[一-鿿]")
_PIVOTS = set(PIVOT_ADV_WORDS)
_STOPS = set(STOP_WORDS)
_DIGITS = "0123456789."

AMEND_KEYS = ("pob", "mt", "vv", "vcmp", "headneg", "attobj", "attsub",
              "attatt", "vobvob", "copsbj", "attpob", "copadj")


@dataclass(frozen=True)
class ExtractionConfig:
    """Typed equivalent of the reference's module-level feature flags
    (SURVEY.md §2.8): amendment-rule switches mirror the consts at
    /root/reference/dudepparse.py:410-423 (same defaults), the NCT
    conversions mirror the disabled consts at :1551-1553, caps mirror
    :16,:215.  Consumed by :func:`process_sentence` and by the pipeline
    builder (``pipelines.kg.build_kg(config=...)``)."""

    # amendment rules (reference defaults: all these enabled)
    amend_pob: bool = True
    amend_mt: bool = True
    amend_vv: bool = True
    amend_vcmp: bool = True
    amend_att_obj: bool = True
    amend_att_pob: bool = True
    amend_cop_sbj: bool = True
    amend_cop_adj: bool = True
    amend_att_sub: bool = True
    amend_att_att: bool = True
    amend_vob_vob: bool = True
    # predicate conversions (reference defaults: all disabled, :1551-1553)
    convert_copular: bool = False
    convert_tense: bool = False
    convert_modal: bool = False
    # POS gate + caps
    ignore_postag: bool = False
    svo_cap: int = SVO_CAP
    # half-coarse crossed streams (reference ADD_HALF_COARSE, disabled const
    # at dudepparse.py:1722; produces the crossed_rels / amend_crossed_rels
    # fields that the reference emits as empty lists)
    add_half_coarse: bool = False


DEFAULT_CONFIG = ExtractionConfig()


def no_chinese(s) -> bool:
    """True iff s is non-empty and contains no CJK char (reference :252-260)."""
    return bool(s) and _CHINESE_RE.search(s) is None


def all_digits(s) -> bool:
    """True iff s is non-empty and made of ASCII digits and dots."""
    return bool(s) and not s.strip(_DIGITS)


def pos_ok(word, pos_map, acceptable) -> bool:
    """Word is acceptable iff any of its POS tags is (reference :177-186)."""
    if pos_map is None or word not in pos_map:
        return False
    return any(t in acceptable for t in pos_map[word])


def serialize_rel(rel) -> str:
    """Stable dedup key (reference :41-46)."""
    (s, v, o), _, (si, vi, oi) = rel
    return f"{s}::{v}::{o}::::{rel[1]}::::{si}::{vi}::{oi}"


def canonical_rels(tuples: list, counters: dict, key: str) -> list:
    """Extractor wire format -> canonical ``([S,V,O], T, [Si,Vi,Oi])`` in one
    pass: reformat (reference :57-76; slot counts vary by type, 2 for pairs,
    4 for DOB), add each 4-ary DOB's two SVO projections before it
    (:235-249), and remove the reserved ``·`` from SVO predicates, counting
    each under ``key`` (:335-381; remove_from_args=False as in the
    pipeline's instantiation :1853)."""
    out = []
    for slots, rtype in tuples:
        names = [None if item is None else item[1] for item in slots]
        idxs = [None if item is None else item[0] for item in slots]
        if rtype == "DOB":
            out.append(([names[0], names[1], names[2]], "SVO",
                        [idxs[0], idxs[1], idxs[2]]))
            out.append(([names[0], names[1], names[3]], "SVO",
                        [idxs[0], idxs[1], idxs[3]]))
            for rel in out[-2:]:
                pred = rel[0][1]
                if pred is not None and "·" in pred:
                    counters[key] = counters.get(key, 0) + 1
                    rel[0][1] = pred.replace("·", "")
        elif rtype == "SVO" and names[1] is not None and "·" in names[1]:
            counters[key] = counters.get(key, 0) + 1
            names[1] = names[1].replace("·", "")
        out.append((names, rtype, idxs))
    return out


def _cap(items: list, k: int) -> list:
    """Deterministic stand-in for the reference's random.sample caps."""
    return items if len(items) <= k else items[:k]


class _View:
    """One progressive view — base relations plus the amendments so far —
    with its relations grouped by type in one pass: ``of_type(T)`` is the
    ``(index, rel)`` pairs of type ``T`` in view order, ``capped(T)`` their
    first ``FILTER_REL_CAP`` (reference filter_rel_list :16-38)."""

    __slots__ = ("rels", "_types")

    def __init__(self, rels: list):
        self.rels = rels
        types: dict[str, list] = {}
        for i, r in enumerate(rels):
            pairs = types.get(r[1])
            if pairs is None:
                types[r[1]] = [(i, r)]
            else:
                pairs.append((i, r))
        self._types = types

    def of_type(self, rtype: str) -> list:
        return self._types.get(rtype, [])

    def capped(self, rtype: str) -> list:
        return _cap(self.of_type(rtype), FILTER_REL_CAP)


# =============================================================================
# Amendment rules (reference :404-1486). Each takes the live merged views
# vf/vc (= base + amendments so far, see _View), appends to a_f/a_c/possible
# and to the residue sets, and bumps counters. ``pos`` is the word->pos-list
# map.
# =============================================================================

class _Amender:
    def __init__(self, p: Parse, pos, ignore_postag: bool, counts: dict):
        self.words = p.words
        self.heads = p.heads
        self.deprels = p.deprels
        self.children = p.children
        self.pos = pos
        self.ignore = ignore_postag
        self.counts = counts
        self.vcmp: dict[str, int] = {}

    def _nominal(self, w, acceptable=ACCEPTABLE_POS) -> bool:
        return self.ignore or pos_ok(w, self.pos, acceptable)

    def _bei_child(self, head_idx: int) -> bool:
        """Any child of head_idx is 被 (reference :88-93)."""
        h1 = head_idx + 1
        return any(h == h1 and w == "被" for h, w in zip(self.heads, self.words))

    def _kids(self, i: int) -> list[int]:
        """Tokens whose head is token i (the roots for i = -1)."""
        if i >= 0:
            return self.children[i]
        return [t for t, h in enumerate(self.heads) if h == 0]

    # --- POB (reference :486-634) -------------------------------------------
    def pob(self, vf, vc, a_f, a_c, f_res, c_res):
        for li, lbl in enumerate(self.deprels):
            if lbl != "POB":
                continue
            obj_tok = self.words[li]
            adv_i = self.heads[li] - 1
            adv_tok = self.words[adv_i]
            obj_nominal = self._nominal(obj_tok)
            if adv_tok not in _PIVOTS:
                continue
            if adv_i < 0 or self.deprels[adv_i] not in ("ADV", "CMP"):
                continue
            verb_i = self.heads[adv_i] - 1
            if verb_i < 0:
                continue
            verb_tok = self.words[verb_i]

            for fi, fr in vf.of_type("SVO"):
                if fr[2][1] != verb_i:
                    continue
                if fr[0][2] is None:
                    a_f.append(((fr[0][0], adv_tok + "·X·" + fr[0][1], obj_tok),
                                fr[1], (fr[2][0], fr[2][1], li)))
                    f_res.add(fi)
                    self.counts["pob"] += 1
                elif obj_nominal:
                    a_f.append(((fr[0][0], adv_tok + "·X·" + fr[0][1] + "·" + fr[0][2],
                                 obj_tok), fr[1], (fr[2][0], fr[2][1], li)))
                    a_f.append(((fr[0][0], adv_tok + "·X·" + fr[0][1], obj_tok),
                                fr[1], (fr[2][0], fr[2][1], li)))
                    self.counts["pob"] += 2

            for ci, cr in vc.of_type("SVO"):
                if cr[2][1] != verb_i:
                    continue
                # prefer the coarse ADV_V span as the object (reference :576-585)
                span_obj = None
                for _, ref in vc.of_type("ADV_V"):
                    if ref[0][1] == verb_tok and obj_tok in ref[0][0]:
                        span_obj = ref[0][0]
                if span_obj is None:
                    span_obj = obj_tok
                if cr[0][2] is None:
                    if adv_tok in cr[0][1]:   # adverb already inside coarse pred
                        continue
                    a_c.append(((cr[0][0], adv_tok + "·X·" + cr[0][1], span_obj),
                                cr[1], (cr[2][0], cr[2][1], li)))
                    c_res.add(ci)
                    self.counts["pob"] += 1
                elif obj_nominal:
                    a_c.append(((cr[0][0], adv_tok + "·X·" + cr[0][1] + "·" + cr[0][2],
                                 span_obj), cr[1], (cr[2][0], cr[2][1], li)))
                    a_c.append(((cr[0][0], adv_tok + "·X·" + cr[0][1], span_obj),
                                cr[1], (cr[2][0], cr[2][1], li)))
                    self.counts["pob"] += 2

    # --- MT preposition quirk (reference :643-725) --------------------------
    def mt(self, vf, vc, a_f, a_c):
        for li, lbl in enumerate(self.deprels):
            prep = self.words[li]
            if lbl != "MT" or prep not in _PIVOTS:
                continue
            head_i = self.heads[li] - 1
            head_tok = self.words[head_i]
            gp_i = self.heads[head_i] - 1

            for _, fr in vf.of_type("SVO"):
                if fr[2][1] != gp_i:
                    continue
                if "·X·" in fr[0][1]:
                    continue
                a_f.append(((fr[0][0], prep + "·X·" + fr[0][1], head_tok),
                            fr[1], (fr[2][0], fr[2][1], head_i)))
                if fr[0][2] is not None and fr[2][2] != head_i:
                    a_f.append(((fr[0][0], prep + "·X·" + fr[0][1] + "·" + fr[0][2],
                                 head_tok), fr[1], (fr[2][0], fr[2][1], head_i)))
                self.counts["mt"] += 1
                # trinary prep-object relation (Prep_nary, reference :683-688)
                a_f.append(((head_tok, prep + "·X·" + fr[0][1] + "·【介宾】", fr[0][2]),
                            fr[1], (head_i, fr[2][1], fr[2][2])))
                self.counts["mt"] += 1

            for _, cr in vc.of_type("SVO"):
                if cr[2][1] != gp_i:
                    continue
                gp_tok = self.words[gp_i]
                span_obj = None
                for _, ref in vc.of_type("ADV_V"):
                    if ref[0][1] == gp_tok and head_tok in ref[0][0]:
                        span_obj = ref[0][0]
                if span_obj is None:
                    span_obj = head_tok
                if "·X·" in cr[0][1]:
                    continue
                a_c.append(((cr[0][0], prep + "·X·" + cr[0][1], span_obj),
                            cr[1], (cr[2][0], cr[2][1], head_i)))
                self.counts["mt"] += 1
                a_c.append(((span_obj, prep + "·X·" + cr[0][1] + "·【介宾】", cr[0][2]),
                            cr[1], (head_i, cr[2][1], cr[2][2])))
                self.counts["mt"] += 1

    # --- VV / COO merge (reference :741-852) --------------------------------
    def vv(self, view, a_out, res):
        svos = view.capped("SVO")
        for i1, r1 in svos:
            pred_rel = self.deprels[r1[2][1]]
            if pred_rel not in ("VV", "COO"):
                continue
            if pred_rel == "COO":
                hed = self.heads[r1[2][1]] - 1
                if self.deprels[hed] not in ("HED", "IC"):
                    continue
            for i2, r2 in svos:
                if i1 == i2 or r1[2][1] != r2[2][1]:
                    continue
                if r1[0][1] != r2[0][1]:
                    if "·" in r1[0][1]:
                        pred = r1[0][1]
                    else:
                        pred = r2[0][1]
                else:
                    pred = r1[0][1]
                if r2[0][0] is None and r1[0][0] is not None:
                    a_out.append(((r1[0][0], pred, r2[0][2]), "SVO",
                                  (r1[2][0], r1[2][1], r2[2][2])))
                    res.add(i2)
                    self.counts["vv"] += 1
                elif r2[0][2] is None and self._bei_child(r2[2][1]):   # passives
                    a_out.append(((r2[0][0], pred, r1[0][0]), "SVO",
                                  (r2[2][0], r1[2][1], r1[2][0])))
                    res.add(i2)
                    self.counts["vv"] += 1

    # --- V_CMP predicate fusion (reference :867-954) ------------------------
    def vcmp_rule(self, view, a_out, res, surface_match: bool):
        svos = view.capped("SVO")
        vcmps = view.capped("V_CMP")
        for i1, r1 in svos:
            if r1[0][0] is not None:       # needs an empty subject
                continue
            for _, r2 in vcmps:
                if r2[2][1] != r1[2][1]:
                    continue
                if surface_match and r2[0][1] != r1[0][1]:
                    continue
                complement = r2[0][1]
                for i3, r3 in svos:
                    if r3[2][1] == r2[2][0] and r3[0][2] is None:
                        a_out.append(((r3[0][0], r2[0][0] + "·" + r2[0][1], r1[0][2]),
                                      "SVO", (r3[2][0], r2[2][0], r1[2][2])))
                        res.add(i1)
                        res.add(i3)
                        self.counts["vcmp"] += 1
                        self.vcmp[complement] = self.vcmp.get(complement, 0) + 1
                break   # at most one V_CMP per complement in a tree

    # --- ATT_OBJ (reference :966-1038) --------------------------------------
    def att_obj(self, vf, vc, a_f, a_c):
        f_attns = vf.capped("ATT_N")
        c_attns = vc.capped("ATT_N")
        for _, r1 in vf.of_type("SVO") if f_attns else ():
            for _, r2 in f_attns:
                att_w, att_head = r2[0][0], r2[0][1]
                if att_head == "的":
                    continue
                if r1[2][2] is None or r1[2][2] != r2[2][1] or not self._nominal(att_w):
                    continue
                if "·X·" in r1[0][1]:
                    new_pred = r1[0][1].replace("·X·", f"·X·的·{r2[0][1]}·")
                else:
                    new_pred = r1[0][1] + "·X·的·" + r2[0][1]
                a_f.append(((r1[0][0], new_pred, r2[0][0]), r1[1],
                            (r1[2][0], r1[2][1], r2[2][0])))
                self.counts["attobj"] += 1
        for _, r1 in vc.of_type("SVO") if c_attns else ():
            for _, r2 in c_attns:
                att_w, att_head = r2[0][0], r2[0][1]
                if att_w == "不" or att_head == "的":
                    continue
                if r1[0][2] != r2[0][1] or not self._nominal(att_w):
                    continue
                if "·X·" in r1[0][1]:
                    new_pred = r1[0][1].replace("·X·", f"·X·的·{r2[0][1]}")
                else:
                    new_pred = r1[0][1] + "·X·的·" + r2[0][1]
                new = ((r1[0][0], new_pred, r2[0][0]), r1[1],
                       (r1[2][0], r1[2][1], r2[2][0]))
                if new[0][2] in new[0][1]:     # object swallowed by predicate
                    continue
                a_c.append(new)
                self.counts["attobj"] += 1

    # --- ATT_POB (reference :1045-1138) --------------------------------------
    def att_pob(self, vf, vc, a_f, a_c):
        for view, out, bei_prefix, contain_guard in ((vf, a_f, True, False),
                                                     (vc, a_c, False, True)):
            attns = view.capped("ATT_N")
            for _, r1 in view.capped("SVO") if attns else ():
                for _, r2 in attns:
                    if r1[2][2] is None or r1[2][2] != r2[2][1]:
                        continue
                    att_w = r2[0][0]
                    kids = self._kids(r2[2][0])
                    if bei_prefix:
                        for bi in kids:
                            if self.deprels[bi] == "POB" and self.words[bi] == "被":
                                att_w = "被" + att_w
                                break
                    for ti in kids:
                        if self.deprels[ti] != "POB" or self.words[ti] == "被":
                            continue
                        obj_tok = self.words[ti]
                        if "·X·" in r1[0][1]:
                            new_pred = r1[0][1].replace("·X·", f"·{att_w}·X·的·{r1[0][2]}·")
                        else:
                            new_pred = r1[0][1] + f"·{att_w}·X·的·{r1[0][2]}"
                        new = ((r1[0][0], new_pred, obj_tok), r1[1],
                               (r1[2][0], r1[2][1], ti))
                        if contain_guard and new[0][2] in new[0][1]:
                            continue
                        out.append(new)
                        self.counts["attpob"] += 1

    # --- COP_SBJ (reference :1146-1205) --------------------------------------
    def cop_sbj(self, vf, vc, a_f, a_c):
        f_attns = vf.capped("ATT_N")
        c_attns = vc.capped("ATT_N")
        for _, r1 in vf.of_type("SVO") if f_attns else ():
            if self.words[r1[2][1]] not in COPULA_PREDS:
                continue
            for _, r2 in f_attns:
                if r1[2][0] is None or r1[2][0] != r2[2][1]:
                    continue
                if not (self.ignore or pos_ok(r2[0][0], self.pos, NOUN_POS)):
                    continue
                a_f.append(((r2[0][0], r1[0][0] + "·" + r1[0][1], r1[0][2]), r1[1],
                            (r2[2][0], r1[2][1], r1[2][2])))
                self.counts["copsbj"] += 1
        for _, r1 in vc.of_type("SVO") if c_attns else ():
            if self.words[r1[2][1]] not in COPULA_PREDS:
                continue
            for _, r2 in c_attns:
                if r1[2][0] is None or r1[2][0] != r2[2][1]:
                    continue
                if r1[0][0] != self.words[r1[2][0]]:   # subject already expanded
                    continue
                if not (self.ignore or pos_ok(r2[0][0], self.pos, NOUN_POS)):
                    continue
                a_c.append(((r2[0][0], r1[0][0] + "·" + r1[0][1], r1[0][2]), r1[1],
                            (r2[2][0], r1[2][1], r1[2][2])))
                self.counts["copsbj"] += 1

    # --- COP_ADJ cleft 是…的 (reference :1215-1331; fine-grained only) -------
    def cop_adj(self, vf, a_f, f_res):
        n = len(self.words)
        for ri, rel in vf.of_type("SVO"):
            if rel[0][2] != "的":
                continue
            if self.words[rel[2][1]] not in COPULA_PREDS or "·X·" in rel[0][1]:
                continue
            de_i1 = rel[2][2] + 1
            if any(self.heads[v] == de_i1 and self.deprels[v] == "VOB" for v in range(n)):
                continue     # the 的 hosts a real object
            for att_i in range(n):
                if self.heads[att_i] != de_i1 or self.deprels[att_i] != "ATT":
                    continue
                att_tok = self.words[att_i]
                att_i1 = att_i + 1
                for bi in range(n):
                    if self.heads[bi] == att_i1 and self.deprels[bi] == "POB" \
                            and self.words[bi] == "被":
                        att_tok = "被" + att_tok
                        break
                for ci in range(n):
                    if self.heads[ci] == att_i1 and self.deprels[ci] == "CMP" \
                            and ci + 1 > att_i1:
                        att_tok = att_tok + self.words[ci]

                for adv_i in range(n):
                    if self.heads[adv_i] == att_i1 and self.deprels[adv_i] == "ADV":
                        adv_tok = self.words[adv_i]
                        adv_i1 = adv_i + 1
                        child_found = False
                        for pi in range(n):
                            if self.heads[pi] == adv_i1 and self.deprels[pi] == "MT":
                                mt_tok = self.words[pi]
                                if mt_tok in PUNCTUATION:
                                    continue
                                if not (pi + 1 < adv_i1 < att_i1 < de_i1):
                                    continue
                                a_f.append(((rel[0][0],
                                             rel[0][1] + "·" + mt_tok + "·X·" + att_tok + "·的",
                                             adv_tok), rel[1],
                                            (rel[2][0], rel[2][1], adv_i)))
                                f_res.add(ri)
                                self.counts["copadj"] += 1
                                child_found = True
                            elif self.heads[pi] == adv_i1 and self.deprels[pi] == "POB":
                                pob_tok = self.words[pi]
                                if pob_tok == "被":
                                    continue
                                if not (adv_i1 < pi + 1 < att_i1 < de_i1):
                                    continue
                                a_f.append(((rel[0][0],
                                             rel[0][1] + "·" + adv_tok + "·X·" + att_tok + "·的",
                                             pob_tok), rel[1],
                                            (rel[2][0], rel[2][1], pi)))
                                f_res.add(ri)
                                self.counts["copadj"] += 1
                                child_found = True
                        if not child_found and pos_ok(adv_tok, self.pos, NOUN_POS):
                            if adv_i1 < att_i1 < de_i1:
                                a_f.append(((rel[0][0],
                                             rel[0][1] + "·X·" + att_tok + "·的",
                                             adv_tok), rel[1],
                                            (rel[2][0], rel[2][1], adv_i)))
                                f_res.add(ri)
                                self.counts["copadj"] += 1
                    elif self.heads[adv_i] == att_i1 and self.deprels[adv_i] == "SBV":
                        if att_i1 > de_i1:
                            continue
                        a_f.append(((rel[0][0], rel[0][1] + "·X·" + att_tok + "·的",
                                     self.words[adv_i]), rel[1],
                                    (rel[2][0], rel[2][1], adv_i)))
                        f_res.add(ri)
                        self.counts["copadj"] += 1

    # --- ATT_SUB chains (reference :1345-1391; fine-grained only) ------------
    def att_sub(self, vf, a_f):
        attns = vf.capped("ATT_N")
        for _, r1 in vf.of_type("SVO"):
            if r1[0][0] is not None and r1[0][2] is not None:
                continue
            names = [r1[0][1]]
            idxs = [r1[2][1]]
            changed = True
            while changed:
                changed = False
                for _, rn in attns:
                    if rn[2][0] is not None and rn[2][0] == idxs[-1]:
                        names.append(rn[0][1])
                        idxs.append(rn[2][1])
                        changed = True
            for i in range(1, len(names)):
                pred = "·".join(names[:i])
                if r1[0][0] is None:
                    new = ((names[i], pred, r1[0][2]), r1[1],
                           (idxs[i], idxs[0], r1[2][2]))
                else:
                    new = ((r1[0][0], pred, names[i]), r1[1],
                           (r1[2][0], idxs[0], idxs[i]))
                a_f.append(new)
                self.counts["attsub"] += 1

    # --- ATT_ATT "Merkel construction" (reference :1398-1430) ----------------
    def att_att(self, possible):
        n = len(self.words)
        for t1 in range(n):
            if self.deprels[t1] != "ATT":
                continue
            if not (self.ignore or pos_ok(self.words[t1], self.pos, MODIF_NOUN_POS)):
                continue
            t2 = self.heads[t1] - 1
            if t2 - t1 != 1 or self.deprels[t2] != "ATT":
                continue
            if not (self.ignore or pos_ok(self.words[t2], self.pos, MODIF_NOUN_POS)):
                continue
            t3 = self.heads[t2] - 1
            if t3 - t2 != 1:
                continue
            if self.deprels[t3] not in ("SBV", "VOB", "POB", "HED", "COO", "IC", "DOB"):
                continue
            w3 = self.words[t3]
            if not (self.ignore or pos_ok(w3, self.pos, MODIF_NOUN_POS)):
                continue
            if len(w3) == 1 or no_chinese(w3) or w3 == "自己":
                continue
            possible.append(((w3, "是·X·的·" + self.words[t2], self.words[t1]),
                             "SVO", (t3, t2, t1)))
            self.counts["attatt"] += 1

    # --- VOB_VOB chains (reference :1437-1461; fine-grained only) ------------
    def vob_vob(self, vf, a_f):
        for _, rel in vf.of_type("SVO"):
            if rel[0][2] is None or rel[2][2] is None:
                continue
            chain_w = [rel[0][2]]
            chain_i = [rel[2][2]]
            changed = True
            while changed:
                changed = False
                for ti in self._kids(chain_i[-1]):
                    if self.deprels[ti] == "VOB":
                        chain_w.append(self.words[ti])
                        chain_i.append(ti)
                        changed = True
            for k in range(1, len(chain_w)):
                mid = "·".join(chain_w[:k])
                if "·X·" in rel[0][1]:
                    new_pred = rel[0][1].replace("·X·", "·" + mid + "·X·")
                else:
                    new_pred = rel[0][1] + "·" + mid
                a_f.append(((rel[0][0], new_pred, chain_w[k]), rel[1],
                            (rel[2][0], rel[2][1], chain_i[k])))
                self.counts["vobvob"] += 1


def amend_sentence(p: Parse, fine: list, coarse: list, pos,
                   config: ExtractionConfig | None = None):
    """Run the 11 progressive amendment rules over one sentence
    (reference build_amendment_relations :404-1486, progressive_flag=True,
    discard_residue=True as called from post_processing :1737-1739).
    Per-rule switches come from ``config`` (reference flags :410-423).

    Each stage reads the progressive view as it stood when the stage began
    (a :class:`_View`, regrouped by type only after a stage that added
    amendments) and is skipped when its trigger is absent from the
    sentence: a ``POB`` token (pob, att_pob), an ``MT`` pivot word (mt), a
    ``VV`` or ``COO`` token (vv), a ``V_CMP`` tuple (vcmp), ``ATT_N`` tuples
    (att_obj, att_pob, cop_sbj, att_sub), an ``ATT`` token (att_att), a
    ``VOB`` token (vob_vob).

    Returns (amend_fine, amend_coarse, pruned_fine, pruned_coarse, possible,
    vcmp_counts, amendment_counts).
    """
    cfg = config or DEFAULT_CONFIG
    counts = dict.fromkeys(AMEND_KEYS, 0)
    am = _Amender(p, pos, cfg.ignore_postag, counts)
    labels = set(p.deprels)
    a_f: list = []
    a_c: list = []
    possible: list = []
    f_res: set[int] = set()
    c_res: set[int] = set()
    vf, vc = _View(fine), _View(coarse)

    def advance():     # progressive view: base + amendments so far
        nonlocal vf, vc
        if len(vf.rels) != len(fine) + len(a_f):
            vf = _View(fine + a_f)
        if len(vc.rels) != len(coarse) + len(a_c):
            vc = _View(coarse + a_c)

    def has_att_n():
        return bool(vf.of_type("ATT_N") or vc.of_type("ATT_N"))

    if cfg.amend_pob and "POB" in labels:
        am.pob(vf, vc, a_f, a_c, f_res, c_res)
        advance()
    if cfg.amend_mt and "MT" in labels and any(
            rel == "MT" and w in _PIVOTS for rel, w in zip(p.deprels, p.words)):
        am.mt(vf, vc, a_f, a_c)
        advance()
    if cfg.amend_vv and ("VV" in labels or "COO" in labels):
        am.vv(vf, a_f, f_res)
        am.vv(vc, a_c, c_res)
        advance()
    if cfg.amend_vcmp:
        if vf.of_type("V_CMP"):
            am.vcmp_rule(vf, a_f, f_res, surface_match=True)
        if vc.of_type("V_CMP"):
            am.vcmp_rule(vc, a_c, c_res, surface_match=False)
        advance()
    if pos is not None or am.ignore:
        if cfg.amend_att_obj and has_att_n():
            am.att_obj(vf, vc, a_f, a_c)
            advance()
        if cfg.amend_att_pob and "POB" in labels and has_att_n():
            am.att_pob(vf, vc, a_f, a_c)
            advance()
        if cfg.amend_cop_sbj and has_att_n():
            am.cop_sbj(vf, vc, a_f, a_c)
            advance()
    if cfg.amend_cop_adj:
        am.cop_adj(vf, a_f, f_res)
        advance()
    if cfg.amend_att_sub and vf.of_type("ATT_N"):
        am.att_sub(vf, a_f)
        advance()
    if cfg.amend_att_att and "ATT" in labels:
        am.att_att(possible)
    if cfg.amend_vob_vob and "VOB" in labels:
        am.vob_vob(vf, a_f)

    pruned_f = [r for i, r in enumerate(fine) if i not in f_res]
    pruned_c = [r for i, r in enumerate(coarse) if i not in c_res]
    return a_f, a_c, pruned_f, pruned_c, possible, am.vcmp, counts


# =============================================================================
# Filtering / negation / projection / coarsification
# =============================================================================

def filter_stopword_triples(rels: list, counters=None, prefix="") -> list:
    """Drop SVO triples with stop-word / all-digit / non-Chinese / over-long
    arguments; blank single sides are nulled out (reference :267-332).

    Replicates the reference's obj-side check reading ``subj`` (:310)."""
    out = []
    for rel in rels:
        if rel[1] != "SVO":
            out.append(rel)
            continue
        subj, pred, obj = rel[0][0], rel[0][1], rel[0][2]
        skip = False
        subj_null = False
        obj_null = False
        if subj is not None and len(subj) > ARG_LEN_THRESHOLD:
            skip = True
        # all_digits(s) implies no_chinese(s): one CJK search per triple
        # serves the subject test and the object test's (sic) subject half
        subj_non_cjk = no_chinese(subj)
        if subj in _STOPS:
            skip = True
            if counters is not None:
                k = f"{prefix}stop::{subj}"
                counters[k] = counters.get(k, 0) + 1
        elif subj_non_cjk:
            skip = True
            if counters is not None:
                k = f"{prefix}digit_excluded"
                counters[k] = counters.get(k, 0) + 1
        elif subj is not None and len(subj.strip()) == 0:
            subj_null = True

        if obj is not None and len(obj) > ARG_LEN_THRESHOLD:
            skip = True
        if obj in _STOPS:
            skip = True
            if counters is not None:
                k = f"{prefix}stop::{obj}"
                counters[k] = counters.get(k, 0) + 1
        elif subj_non_cjk or all_digits(obj):   # sic: subj (reference :310)
            skip = True
            if counters is not None:
                k = f"{prefix}digit_excluded"
                counters[k] = counters.get(k, 0) + 1
        elif obj is not None and len(obj.strip()) == 0:
            obj_null = True

        if pred is None or len(pred.strip()) == 0:
            skip = True
        if subj_null and obj_null:
            skip = True
        if skip:
            continue
        if subj_null and rel[0][2] is not None:
            out.append(([None, pred, obj], rel[1], [None, rel[2][1], rel[2][2]]))
        elif obj_null and rel[0][0] is not None:
            out.append(([subj, pred, None], rel[1], [rel[2][0], rel[2][1], None]))
        else:
            out.append(rel)
    return out


def _on_pred_path(heads: list, desc: int, ante: int) -> bool:
    """ante lies on desc's head path, desc included (reference :1538-1547)."""
    cur_1 = desc + 1
    child = desc
    while cur_1 != 0:
        if ante + 1 == cur_1:
            return True
        cur_1 = heads[child]
        child = cur_1 - 1
    return False


def negator_heads(p: Parse) -> list[int]:
    """Head index of every negation marker of the sentence: an ADV in
    ``NEG_ADV_WORDS`` or a CMP in ``NEG_CMP_WORDS``."""
    words = p.words
    return [p.heads[t] - 1 for t, rel in enumerate(p.deprels)
            if (rel == "ADV" and words[t] in NEG_ADV_WORDS)
            or (rel == "CMP" and words[t] in NEG_CMP_WORDS)]


def mark_negation(rels: list, p: Parse, negated: list[int]) -> list:
    """Odd count of negation ADV/CMP markers on the predicate tokens prefixes
    the predicate with 否· (reference check_nct :1550-1596; the copular /
    tense / modal conversions are :func:`convert_nct`).

    The predicate tokens of an SVO are its head ``vi`` and every token of
    vi's subtree whose word is a ``·`` chunk of the predicate (other than
    vi's own word); only the heads of the sentence's markers
    (``negated``, from :func:`negator_heads`) are tested against that."""
    words, heads = p.words, p.heads
    out = []
    for rel in rels:
        if rel[1] != "SVO":
            out.append(rel)
            continue
        vi = rel[2][1]
        vb_toks = rel[0][1].split("·")
        neg = 0
        for q in negated:
            if q >= 0 and (q == vi or (words[q] in vb_toks and words[q] != words[vi]
                                       and _on_pred_path(heads, q, vi))):
                neg += 1
        if neg % 2 == 1:
            out.append(((rel[0][0], "否·" + rel[0][1], rel[0][2]), rel[1], rel[2]))
        else:
            out.append(rel)
    return out


def pred_tense(rel, ddp: dict) -> str:
    """'past' / 'future' / 'present' for an SVO predicate, from ADV/MT
    children of the predicate head (reference check_rel_pred_tense
    :1489-1516; disabled by default there and here)."""
    from .lexicon import FUTURE_ADV_WORDS, PAST_ADV_WORDS, PAST_MT_WORDS

    head_1 = rel[2][1] + 1
    past = future = False
    for t, h in enumerate(ddp["head"]):
        if h != head_1:
            continue
        if ddp["deprel"][t] == "ADV":
            if ddp["word"][t] in FUTURE_ADV_WORDS:
                future = True
            if ddp["word"][t] in PAST_ADV_WORDS:
                past = True
        elif ddp["deprel"][t] == "MT" and ddp["word"][t] in PAST_MT_WORDS:
            past = True
    return "future" if future else ("past" if past else "present")


def pred_modal(rel, ddp: dict) -> str | None:
    """Joined 【m】 markers for modal ADVs under the predicate head, or None
    (reference check_rel_pred_modal :1519-1535; disabled by default)."""
    from .lexicon import MODAL_MAP

    head_1 = rel[2][1] + 1
    modals: list[str] = []
    for t, h in enumerate(ddp["head"]):
        if h == head_1 and ddp["deprel"][t] == "ADV" \
                and ddp["word"][t] in MODAL_MAP:
            m = MODAL_MAP[ddp["word"][t]]
            if m not in modals:
                modals.append(m)
    return "".join(f"【{m}】" for m in modals) if modals else None


def convert_nct(rels: list, ddp: dict, *, copular=False, tense=False,
                modal=False) -> list:
    """The reference's disabled copular/tense/modal predicate conversions
    (check_nct branches :1598-1655), off by default to mirror the reference's
    CONVERT_* = False consts (:1551-1553).  Order matches the reference:
    copular, then tense, then modal; all SVO-only."""
    if copular:
        out = []
        for rel in rels:
            # check_nct's LOCAL cop_pred_set excludes 达/高达 (reference
            # dudepparse.py:1556), unlike the amendment-stage COPULA_PREDS
            if rel[1] == "SVO" and rel[0][1] in NCT_COPULA_PREDS:
                out.append(((rel[0][0], f"{rel[0][1]}·{rel[0][2]}", None),
                            rel[1], rel[2]))
            else:
                out.append(rel)
        rels = out
    if tense:
        out = []
        for rel in rels:
            if rel[1] != "SVO":
                out.append(rel)
                continue
            t = pred_tense(rel, ddp)
            if t == "past":
                out.append(((rel[0][0], "【过去式】·" + rel[0][1], rel[0][2]),
                            rel[1], rel[2]))
            elif t == "future":
                out.append(((rel[0][0], "【将来式】·" + rel[0][1], rel[0][2]),
                            rel[1], rel[2]))
            else:
                out.append(rel)
        rels = out
    if modal:
        out = []
        for rel in rels:
            m = pred_modal(rel, ddp) if rel[1] == "SVO" else None
            if m is not None:
                out.append(((rel[0][0], f"{m}·{rel[0][1]}", rel[0][2]),
                            rel[1], rel[2]))
            else:
                out.append(rel)
        rels = out
    return rels


def svo_only(rels: list, cap: int = SVO_CAP) -> list:
    """Keep only SVO triples, deterministically capped (reference :215-231)."""
    return _cap([r for r in rels if r[1] == "SVO"], cap)


def coarsify_rels(parse: Parse, rels: list, subj_flag=True, obj_flag=True,
                  keep_same=True) -> list:
    """Replace argument surfaces by full subtree spans unless the span would
    swallow a predicate chunk or not contain the original argument
    (reference coarsify :1667-1715)."""
    out = []
    for rel in rels:
        subj, pred, obj = rel[0][0], rel[0][1], rel[0][2]
        chunks = pred.split("·")
        new_subj, new_obj = subj, obj
        if subj_flag and rel[2][0] is not None and subj is not None:
            new_subj = parse.sub_term(rel[2][0])
            for ch in chunks:
                if ch not in ("的", "在") and ch in new_subj:
                    new_subj = subj
                    break
            if subj not in new_subj:
                new_subj = subj
        if obj_flag and rel[2][2] is not None and obj is not None:
            new_obj = parse.sub_term(rel[2][2])
            for ch in chunks:
                if ch not in ("的", "在") and ch in new_obj:
                    new_obj = obj
                    break
            if obj not in new_obj:
                new_obj = obj
        if keep_same or new_subj != subj or new_obj != obj:
            out.append(((new_subj, pred, new_obj), rel[1], rel[2]))
    return out


# =============================================================================
# The full per-sentence cascade (reference post_processing :1718-1786)
# =============================================================================

#: output stream names, in the reference's field order
STREAMS = ("fine", "coarse", "amend_fine", "amend_coarse", "possible")


def process_sentence(ddp: dict, pos_map=None, counters=None,
                     config: ExtractionConfig | None = None) -> dict[str, list]:
    """One sentence parse -> the five filtered triple streams.

    Pipeline: extract fine+coarse tuples -> reformat, explode DOB and strip
    interpunct from predicates (one pass, :func:`canonical_rels`) -> 11
    amendment rules (progressive, residues discarded) -> stop-word filter
    (all streams) -> negation marking (4 streams) -> SVO-only projection
    (4 streams) -> coarsify amend_coarse.  Every switch comes from
    ``config``.

    One :class:`~.deptree.Parse` serves the whole sentence: both
    ``extract_tuples`` calls (each dispatching its rules by deprel), the
    amendment rules, negation marking and coarsification read it, and the
    coarse extraction and coarsification share its subtree spans.
    """
    cfg = config or DEFAULT_CONFIG
    if counters is None:
        counters = {}
    p = Parse(ddp)
    fine = canonical_rels(extract_tuples(p, coarse=False), counters,
                          "fine_interpunct")
    coarse = canonical_rels(extract_tuples(p, coarse=True), counters,
                            "coarse_interpunct")

    a_f, a_c, fine, coarse, possible, vcmp, counts = amend_sentence(
        p, fine, coarse, pos_map, config=cfg)
    for k, v in counts.items():
        if v:
            counters[f"amend::{k}"] = counters.get(f"amend::{k}", 0) + v
    for k, v in vcmp.items():
        counters[f"vcmp::{k}"] = counters.get(f"vcmp::{k}", 0) + v

    fine = filter_stopword_triples(fine, counters, "fine_")
    coarse = filter_stopword_triples(coarse, counters, "coarse_")
    a_f = filter_stopword_triples(a_f)
    a_c = filter_stopword_triples(a_c)
    possible = filter_stopword_triples(possible)

    convert = cfg.convert_copular or cfg.convert_tense or cfg.convert_modal
    negated = negator_heads(p)

    def _nct(rels):
        # negation and the conversions map SVOs one to one and keep their
        # order, so projecting and capping first gives the same triples
        rels = svo_only(rels, cfg.svo_cap)
        if negated:
            rels = mark_negation(rels, p, negated)
        if convert:
            rels = convert_nct(rels, ddp, copular=cfg.convert_copular,
                               tense=cfg.convert_tense, modal=cfg.convert_modal)
        return rels

    fine = _nct(fine)
    coarse = _nct(coarse)
    a_f = _nct(a_f)
    a_c = _nct(a_c)

    a_c = coarsify_rels(p, a_c, subj_flag=True, obj_flag=True, keep_same=True)
    out = {"fine": fine, "coarse": coarse, "amend_fine": a_f,
           "amend_coarse": a_c, "possible": possible}
    if cfg.add_half_coarse:
        # reference ADD_HALF_COARSE branch (dudepparse.py:1774-1783):
        # half-coarse variants where only one argument is span-expanded,
        # kept only when the expansion actually changed it
        out["crossed"] = (
            coarsify_rels(p, fine, subj_flag=True, obj_flag=False,
                          keep_same=False)
            + coarsify_rels(p, fine, subj_flag=False, obj_flag=True,
                            keep_same=False))
        out["amend_crossed"] = (
            coarsify_rels(p, a_f, subj_flag=True, obj_flag=False,
                          keep_same=False)
            + coarsify_rels(p, a_f, subj_flag=False, obj_flag=True,
                            keep_same=False))
    return out
