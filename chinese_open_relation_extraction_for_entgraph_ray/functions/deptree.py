"""Dependency-tree structured-tuple extraction (fine + coarse grained).

Fresh implementation of the rule semantics of the reference's ``extract.py``
(`/root/reference/extract.py:25-757`): per-sentence DDParser parses
``{word, head, deprel}`` (head 1-based, 0 = root) are turned into structured
tuples in the extractor wire format

    (([idx, surface], [idx, surface], [idx, surface]), TYPE)

with ``TYPE in {SVO, ATT_N, ADV_V, V_CMP, DOB, F, Phrase}`` and ``None`` for
empty slots; DOB tuples are 4-ary (extract.py:379-382).  "Coarse" renders
arguments as their full subtree span (``process_sub_term``, extract.py:706-731)
instead of the single head word.

Implementation style is array-based rather than the reference's two parallel
class hierarchies: a :class:`Parse` holds each token's child list and the
deprels of those children, and one traversal loop, with a ``coarse`` flag
selecting argument rendering, emits the tuples.  One ``Parse`` serves a whole
sentence: ``cascade.process_sentence`` builds it once and passes it to the
fine and the coarse :func:`extract_tuples` and to argument coarsification,
which share its subtree spans.  The loop dispatches by deprel: it calls a
rule on a token only when the rule's trigger is there — the token's own label
(``POB`` for ba/bei/pob, ``F``, ``IC``, ``HED``) or a child label (``SBV`` /
``VOB`` for svo, ``ADV``, ``ATT``, ``CMP``, ``DBL``, ``VV``, two ``DOB``) —
since every other call returns nothing.  Rule-for-rule the emitted tuples
match the reference; the golden tests in ``tests/test_cascade_golden.py`` pin
them against the worked examples embedded in the reference, and
``tests/test_cascade_frozen.py`` pins the whole cascade's outputs.
"""

from __future__ import annotations

BA_WORDS = ("把", "将")
BEI_WORDS = ("被",)


class Parse:
    """One sentence parse with precomputed child lists.

    ``children[i]`` = token i's children in index order, which is the
    reference's ``lefts + rights`` (extract.py:61-68); ``child_rels[i]`` =
    their deprels, in the same order.
    """

    __slots__ = ("words", "heads", "deprels", "children", "child_rels",
                 "_spans")

    def __init__(self, ddp: dict):
        self.words: list[str] = list(ddp["word"])
        self.heads = heads = list(ddp["head"])
        self.deprels = deprels = list(ddp["deprel"])
        n = len(self.words)
        self.children = children = [[] for _ in range(n)]
        self.child_rels = child_rels = [[] for _ in range(n)]
        for i in range(n):
            h = heads[i]
            if h:
                children[h - 1].append(i)
                child_rels[h - 1].append(deprels[i])
        self._spans: dict[int, str] = {}

    def parent(self, i: int) -> int:
        return self.heads[i] - 1

    def rights_of(self, i: int) -> list[int]:
        return [c for c in self.children[i] if c > i]

    # --- coarse argument span (extract.py:706-731) ---------------------------
    def span_tokens(self, i: int) -> list[tuple[str, str]]:
        """Inorder traversal of i's subtree, skipping COO subtrees."""
        out: list[tuple[str, str]] = []
        for c in self.children[i]:
            if c < i and self.deprels[c] != "COO":
                out.extend(self.span_tokens(c))
        out.append((self.words[i], self.deprels[i]))
        for c in self.children[i]:
            if c > i and self.deprels[c] != "COO":
                out.extend(self.span_tokens(c))
        return out

    def sub_term(self, i: int) -> str:
        """Subtree surface span with leading/trailing MT stripped."""
        cached = self._spans.get(i)
        if cached is not None:
            return cached
        toks = self.span_tokens(i)
        if len(toks) > 1 and toks[0][1] == "MT":
            toks = toks[1:]
        if len(toks) > 1 and toks[-1][1] == "MT":
            toks = toks[:-1]
        term = toks[0][0] if len(toks) == 1 else "".join(w for w, _ in toks)
        self._spans[i] = term
        return term


def _slot(p: Parse, i: int, coarse: bool) -> list:
    """Argument slot: [idx, surface-or-span]."""
    return [i, p.sub_term(i) if coarse else p.words[i]]


def _word_slot(p: Parse, i: int) -> list:
    return [i, p.words[i]]


def _coo_terms(p: Parse, i: int, coarse: bool) -> list[list]:
    """Coordinate terms of token i (extract.py:251-258 fine, :569-581 coarse)."""
    out = []
    if not coarse:
        for c in p.children[i]:
            if p.deprels[c] == "COO":
                out.append(_word_slot(p, c))
        return out
    term = p.sub_term(i)
    for c in p.children[i]:
        if p.deprels[c] == "COO":
            cword = p.sub_term(c)
            if cword == p.words[c]:
                out.append([c, term.replace(p.words[i], cword)])
            else:
                out.append([c, cword])
    return out


def _rule_svo(p: Parse, i: int, bb_flag: bool, coarse: bool) -> list:
    """SVO extraction around token i (extract.py:99-139 / :416-454)."""
    vs = [_word_slot(p, i)]
    ss: list = []
    os_: list = []
    for c in p.children[i]:
        rel = p.deprels[c]
        if bb_flag and rel == "POB" and p.words[c] in BA_WORDS + BEI_WORDS:
            ss = []
            break
        if rel in ("DBL", "DOB"):
            return []
        if rel == "SBV":
            ss.append(_slot(p, c, coarse))
            ss.extend(_coo_terms(p, c, coarse))
        elif rel == "VOB":
            os_.append(_slot(p, c, coarse))
            os_.extend(_coo_terms(p, c, coarse))
        elif rel == "COO" and p.words[c] != p.words[i]:
            vs.append(_word_slot(p, c))
    # ATT-parent-VOB object promotion (extract.py:124-125)
    par = p.parent(i)
    if len(vs) == 1 and ss and not os_ and p.deprels[i] == "ATT" and par >= 0 \
            and p.deprels[par] == "VOB":
        os_.append(_word_slot(p, par))

    out = []
    if ss and os_:
        for s in ss:
            for o in os_:
                for v in vs:
                    out.append(((s, v, o), "SVO"))
    else:
        for s in ss:
            for v in vs:
                out.append(((s, v, None), "SVO"))
        for o in os_:
            for v in vs:
                out.append(((None, v, o), "SVO"))
    return out


def _rule_att(p: Parse, i: int, coarse: bool) -> list:
    """(ATT modifier, noun) pairs (extract.py:141-160 / :456-473)."""
    out = []
    if not coarse:
        atts: list = []
        ns = [_word_slot(p, i)]
        for c in p.children[i]:
            if p.deprels[c] == "ATT":
                atts.append(_word_slot(p, c))
                atts.extend(_coo_terms(p, c, False))
            elif p.deprels[c] == "COO" and not _rule_att(p, c, False):
                ns.append(_word_slot(p, c))
        for a in atts:
            for n in ns:
                out.append(((a, n), "ATT_N"))
        return out

    pairs: list = []
    for c in p.children[i]:
        if p.deprels[c] == "ATT" and p.deprels[i] not in ("COO",):
            pairs.append(([c, p.sub_term(c)], _word_slot(p, i)))
            for coo in _coo_terms(p, c, True):
                out.append(((coo, _word_slot(p, i)), "ATT_N"))
    if pairs:
        pairs.extend(_att_coo_pairs(p, i))
    for pr in pairs:
        out.append((pr, "ATT_N"))
    return out


def _left_att_span(p: Parse, i: int) -> str:
    """Concatenated left-ATT spans of token i (extract.py:696-704)."""
    s = ""
    for c in p.children[i]:
        if c < i and p.deprels[c] == "ATT":
            s += p.sub_term(c)
    return s


def _att_coo_pairs(p: Parse, i: int) -> list:
    """Coarse ATT with coordination (extract.py:682-694)."""
    out = []
    n_att = _left_att_span(p, i)
    for c in p.children[i]:
        if p.deprels[c] == "COO":
            left = _left_att_span(p, c)
            out.append(([-1, left if left else n_att], _word_slot(p, c)))
    return out


def _rule_adv(p: Parse, i: int, coarse: bool) -> list:
    """(ADV modifier, verb) pairs, skipping ADVs heading a POB
    (extract.py:162-181 / :475-494)."""
    advs: list = []
    vs = [_word_slot(p, i)]
    for c in p.children[i]:
        if p.deprels[c] == "ADV":
            rts = p.rights_of(c)
            if not rts or p.deprels[rts[0]] != "POB":
                advs.append(_slot(p, c, coarse))
                advs.extend(_coo_terms(p, c, coarse))
        elif p.deprels[c] == "COO" and not _rule_adv(p, c, coarse):
            vs.append(_word_slot(p, c))
    out = []
    for a in advs:
        for v in vs:
            out.append(((a, v), "ADV_V"))
    return out


def _rule_ba(p: Parse, i: int, coarse: bool) -> list:
    """把/将 constructions at POB token i (extract.py:183-202 / :496-517)."""
    if not (p.words[i] in BA_WORDS and len(p.rights_of(i)) == 1):
        return []
    pi = p.parent(i)
    ba_obj = p.rights_of(i)[0]
    p_rights = p.rights_of(pi)
    if p_rights and p.deprels[p_rights[0]] == "VOB":
        vob = p_rights[0]
        for c in p.children[pi]:
            if p.deprels[c] == "SBV":
                return [((_slot(p, c, coarse), _word_slot(p, pi),
                          _slot(p, vob, coarse), _slot(p, ba_obj, coarse)), "DOB")]
        return [((None, _word_slot(p, pi), _slot(p, vob, coarse),
                  _slot(p, ba_obj, coarse)), "DOB")]
    for c in p.children[pi]:
        if p.deprels[c] == "SBV":
            return [((_slot(p, c, coarse), _word_slot(p, pi),
                      _slot(p, ba_obj, coarse)), "SVO")]
    return [((None, _word_slot(p, pi), _slot(p, ba_obj, coarse)), "SVO")]


def _rule_bei(p: Parse, i: int, coarse: bool) -> list:
    """被 passives at POB token i, three sub-cases (extract.py:204-238 /
    :519-556)."""
    if p.words[i] not in BEI_WORDS:
        return []
    pi = p.parent(i)
    rts = p.rights_of(i)
    p_rights = p.rights_of(pi)
    p_lefts = [c for c in p.children[pi] if c < pi]
    out = []
    if p_rights and p.deprels[p_rights[0]] == "VOB":
        vob = p_rights[0]
        subj = _slot(p, rts[0], coarse) if rts else None
        for c in p_lefts:
            if p.deprels[c] == "SBV":
                out.append(((subj, _word_slot(p, pi), _slot(p, vob, coarse),
                             _slot(p, c, coarse)), "DOB"))
        if not out:
            out.append(((subj, _word_slot(p, pi), _slot(p, vob, coarse), None), "DOB"))
        return out
    if len(rts) == 1:
        for c in p_lefts:
            if p.deprels[c] == "SBV":
                out.append(((_slot(p, rts[0], coarse), _word_slot(p, pi),
                             _slot(p, c, coarse)), "SVO"))
        if not out:
            out.append(((_slot(p, rts[0], coarse), _word_slot(p, pi), None), "SVO"))
        return out
    for c in p_lefts:
        if p.deprels[c] == "SBV":
            out.append(((None, _word_slot(p, pi), _slot(p, c, coarse)), "SVO"))
    for c in p.rights_of(pi):
        if p.deprels[c] == "VOB":
            out.append(((None, _word_slot(p, pi), _slot(p, c, coarse)), "SVO"))
    return out


def _rule_pob(p: Parse, i: int) -> list:
    """Bare POB token i under non-ba/bei (extract.py:240-249)."""
    par = p.parent(i)
    gp = p.parent(par)
    if gp != -1:
        return [((_word_slot(p, i), _word_slot(p, gp)), "ADV_V")]
    return [((_word_slot(p, i),), "Phrase")]


def _rule_cmp(p: Parse, i: int) -> list:
    return [((_word_slot(p, i), _word_slot(p, c)), "V_CMP")
            for c in p.children[i] if p.deprels[c] == "CMP"]


def _rule_dbl(p: Parse, i: int, coarse: bool) -> list:
    """Pivot (兼语) constructions (extract.py:277-304 / :600-627)."""
    ss: list = []
    v = _word_slot(p, i)
    o = None
    ds: list = []
    for c in p.children[i]:
        if p.deprels[c] == "SBV":
            ss.append(_slot(p, c, coarse))
            ss.extend(_coo_terms(p, c, coarse))
        if p.deprels[c] == "DBL":
            if not o:
                o = _word_slot(p, c)
            else:
                ds.append(_slot(p, c, coarse))
                ds.extend(_coo_terms(p, c, coarse))
    out = []
    if ss and o:
        for s in ss:
            out.append(((s, v, o), "SVO"))
    elif o:
        out.append(((None, v, o), "SVO"))
    for d in ds:
        out.append(((o, d, None), "SVO"))
    return out


def _rule_vv(p: Parse, i: int) -> list:
    """Serial-verb VV children (extract.py:306-319)."""
    out = []
    sbv = None
    for c in p.children[i]:
        if p.deprels[c] == "SBV":
            sbv = _word_slot(p, c)
        elif p.deprels[c] == "VV":
            if sbv:
                out.append(((sbv, _word_slot(p, c), None), "SVO"))
            else:
                out.append(((_word_slot(p, c),), "Phrase"))
    return out


def _rule_f(p: Parse, i: int) -> list:
    """F location tuples at F token i (extract.py:321-331)."""
    par = p.parent(i)
    prev = par - 1
    if prev >= 0 and p.deprels[prev] == "MT" and p.parent(prev) == par:
        # NB: the reference's coarse variant wraps the MT word in a list here
        # (extract.py:651) — a latent bug with no downstream effect (F tuples
        # are discarded before output); we emit the fine shape for both.
        return [((_word_slot(p, prev), _word_slot(p, par), _word_slot(p, i)), "F")]
    return [((_word_slot(p, par), _word_slot(p, i)), "F")]


def _rule_ic(p: Parse, i: int) -> list:
    """Phrases at IC token i."""
    out = []
    clean = True
    for c in p.children[i]:
        if p.deprels[c] not in ("MT", "COO", "IC"):
            clean = False
        if p.deprels[c] == "COO":
            out.append(((_word_slot(p, c),), "Phrase"))
    if clean:
        out.append(((_word_slot(p, i),), "Phrase"))
    return out


def _rule_hed(p: Parse, i: int) -> list:
    """The HED token i alone, when only MT / IC depend on it."""
    for c in p.children[i]:
        if p.deprels[c] not in ("MT", "IC"):
            return []
    return [((_word_slot(p, i),), "Phrase")]


def _rule_dob(p: Parse, i: int, coarse: bool) -> list:
    """Double-object DOB 4-ary tuples (extract.py:359-384 / :733-757)."""
    vs = [_word_slot(p, i)]
    ss: list = []
    os_: list = []
    for c in p.children[i]:
        rel = p.deprels[c]
        if rel == "SBV":
            ss.append(_slot(p, c, coarse))
            ss.extend(_coo_terms(p, c, coarse))
        elif rel == "COO" and p.words[c] != p.words[i]:
            vs.append(_word_slot(p, c))
        elif rel == "DOB":
            os_.append(_slot(p, c, coarse))
    if len(os_) != 2:
        return []
    out = []
    if ss:
        for s in ss:
            for v in vs:
                out.append(((s, v, os_[0], os_[1]), "DOB"))
    else:
        for v in vs:
            out.append(((None, v, os_[0], os_[1]), "DOB"))
    return out


def _phrase_fallback(p: Parse, coarse: bool) -> list:
    """Whole-sentence Phrase fallback — anchored at token 0, as in the
    reference (extract.py:260-266)."""
    out = [((_word_slot(p, 0),), "Phrase")]
    for coo in _coo_terms(p, 0, coarse):
        out.append(((coo,), "Phrase"))
    return out


def extract_tuples(ddp, coarse: bool) -> list:
    """All structured tuples for one sentence parse — a :class:`Parse` or a
    ``{word, head, deprel}`` dict (extract.py:76-97/:393-414).

    Per token the rules run in the reference's order, each only where its
    trigger deprel is present (see the module docstring).  ``bb_flag``
    latches once any ba/bei structure has been seen at an earlier token and
    stays set for the rest of the sentence, exactly like the reference's
    accumulating flag.
    """
    p = ddp if isinstance(ddp, Parse) else Parse(ddp)
    results: list = []
    bb_flag = False
    for i, rel in enumerate(p.deprels):
        crels = p.child_rels[i]
        bb = None
        if rel == "POB":
            bb = _rule_ba(p, i, coarse) + _rule_bei(p, i, coarse)
            bb_flag = bool(bb) or bb_flag
        if "SBV" in crels or "VOB" in crels:
            results += _rule_svo(p, i, bb_flag, coarse)
        if rel == "POB" and not bb_flag:
            results += _rule_pob(p, i)
        if crels:
            if "ADV" in crels:
                results += _rule_adv(p, i, coarse)
            if "ATT" in crels:
                results += _rule_att(p, i, coarse)
            if "CMP" in crels:
                results += _rule_cmp(p, i)
            if "DBL" in crels:
                results += _rule_dbl(p, i, coarse)
            if "VV" in crels:
                results += _rule_vv(p, i)
        if rel == "F":
            results += _rule_f(p, i)
        elif rel == "IC":
            results += _rule_ic(p, i)
        elif rel == "HED":
            results += _rule_hed(p, i)
        if crels.count("DOB") == 2:
            results += _rule_dob(p, i, coarse)
        if bb:
            results += bb
    if not results:
        results = _phrase_fallback(p, coarse)
    return results
