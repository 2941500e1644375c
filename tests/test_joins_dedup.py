"""Distributed equi-join operators (lookup/semi/anti) and the join-based
near-dup / curation paths: conformance vs single-process pandas references,
and identity with the r1 collect+broadcast implementation on a fixture
corpus (VERDICT r1 next-round item #1)."""

import pandas as pd
import pyarrow as pa
import pytest

from chinese_open_relation_extraction_for_entgraph_ray.stages import joins
from chinese_open_relation_extraction_for_entgraph_ray.stages.joins import (
    lookup_join,
    semi_join,
)


def _fixture_corpus():
    """Deterministic corpus with exact dups, near dups and unique docs."""
    base = ("the quick brown fox jumps over the lazy dog while the cat "
            "watches from the warm stone wall near the garden gate")
    docs = []
    for i in range(40):
        words = base.split()
        if i % 7 == 1:
            words[3] = f"fox{i % 3}"          # near-dup cluster
        elif i % 7 == 2:
            words = words + [f"tail{i}"]      # near-dup (appended token)
        elif i % 7 == 3:
            words = [f"unique{i}-{j}" for j in range(20)]   # unrelated
        docs.append({"doc_id": i, "text": " ".join(words)})
    return docs


@pytest.mark.parametrize("how", ["inner", "left"])
def test_lookup_join_matches_pandas_merge(ray_session, how):
    import ray.data as rd

    left = [{"k": i % 13, "x": f"l{i}"} for i in range(300)]
    right = [{"rk": k, "name": f"n{k}"} for k in range(0, 13, 2)]  # gaps
    got = lookup_join(rd.from_items(left).repartition(7),
                      rd.from_items(right),
                      left_key="k", right_key="rk",
                      payload=["name"], suffix="_r", how=how).take_all()
    want = pd.DataFrame(left).merge(
        pd.DataFrame(right).rename(columns={"rk": "k", "name": "name_r"}),
        on="k", how=how)
    got_t = sorted((r["k"], r["x"], r["name_r"]) for r in got)
    want_t = sorted((r.k, r.x, None if pd.isna(r.name_r) else r.name_r)
                    for r in want.itertuples(index=False))
    assert got_t == want_t


@pytest.mark.parametrize("anti", [False, True])
def test_semi_join_matches_isin(ray_session, anti):
    import ray.data as rd

    left = [{"k": i % 17, "x": i} for i in range(400)]
    right = [{"rk": k} for k in [0, 3, 5, 11, 11, 16]]   # dup right keys ok
    got = semi_join(rd.from_items(left).repartition(9),
                    rd.from_items(right),
                    left_key="k", right_key="rk", anti=anti).take_all()
    ldf = pd.DataFrame(left)
    m = ldf["k"].isin({0, 3, 5, 11, 16})
    want = ldf[~m if anti else m]
    assert sorted((r["k"], r["x"]) for r in got) == \
        sorted((r.k, r.x) for r in want.itertuples(index=False))


def test_jaccard_near_dups_matches_r1_collect_broadcast(ray_session):
    """The distributed join-based verify must produce EXACTLY the pairs the
    r1 collect+broadcast implementation produced (same candidates, same
    jaccard values)."""
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.dedup import (
        jaccard,
        jaccard_near_dups,
        minhash_candidate_pairs,
    )

    docs = _fixture_corpus()
    ds = rd.from_items(docs).repartition(5)
    got = sorted((r["a"], r["b"], r["jaccard"])
                 for r in jaccard_near_dups(ds, threshold=0.5).take_all())

    # r1 algorithm, single-process: collect candidate pairs, broadcast texts
    pairs = minhash_candidate_pairs(ds).take_all()
    texts = {d["doc_id"]: d["text"] for d in docs}
    want = sorted(
        (p["a"], p["b"], round(jaccard(texts[p["a"]], texts[p["b"]], 3), 4))
        for p in pairs
        if jaccard(texts[p["a"]], texts[p["b"]], 3) >= 0.5)
    assert got == want
    assert len(got) > 0          # the fixture must actually exercise verify


def test_curate_documents_matches_r1_semantics(ray_session):
    """Join-based curation == filter + exact dedup + near-dup drop computed
    single-process on the same fixture."""
    import hashlib

    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.pipelines.curate import (
        curate_documents,
        quality_lang_filter,
    )
    from chinese_open_relation_extraction_for_entgraph_ray.stages.dedup import (
        jaccard,
        minhash_candidate_pairs,
    )

    docs = _fixture_corpus()
    # inject exact duplicates
    docs += [{"doc_id": 100 + i, "text": docs[i]["text"]} for i in range(4)]
    ds = rd.from_items(docs).repartition(5)
    got = sorted(r["doc_id"] for r in curate_documents(ds).take_all())

    # single-process reference of the r1 pipeline semantics
    tbl = pa.Table.from_pylist(docs)
    filtered = quality_lang_filter(tbl).to_pylist()
    by_md5: dict = {}
    for d in filtered:
        key = hashlib.md5(d["text"].encode()).hexdigest()
        if key not in by_md5 or d["doc_id"] < by_md5[key]:
            by_md5[key] = d["doc_id"]
    keep = set(by_md5.values())
    kept = [d for d in docs if d["doc_id"] in keep]
    pairs = minhash_candidate_pairs(
        rd.from_items(kept).repartition(3)).take_all()
    texts = {d["doc_id"]: d["text"] for d in kept}
    drop = {p["b"] for p in pairs
            if jaccard(texts[p["a"]], texts[p["b"]], 3) >= 0.5}
    want = sorted(keep - drop)
    assert got == want


def test_lookup_join_empty_right(ray_session):
    import ray.data as rd

    left = rd.from_items([{"k": 1, "x": "a"}, {"k": 2, "x": "b"}])
    right = rd.from_arrow(pa.table(
        {"rk": pa.array([], pa.int64()), "name": pa.array([], pa.string())}))
    got = lookup_join(left, right, left_key="k", right_key="rk",
                      payload=["name"], how="left").take_all()
    assert sorted((r["k"], r["name_r"]) for r in got) == \
        [(1, None), (2, None)]
    got_inner = lookup_join(left, right, left_key="k", right_key="rk",
                            payload=["name"], how="inner").take_all()
    assert got_inner == []


def test_bucket_cap_logged(caplog):
    """MAX_BUCKET truncation is no longer silent (no-silent-caps): an
    over-cap bucket emits exactly the pairs of its first MAX_BUCKET
    doc_ids, and the cap is logged."""
    import logging

    from chinese_open_relation_extraction_for_entgraph_ray.stages.dedup import (
        MAX_BUCKET,
        _minhash_bucket_pairs,
    )

    n = MAX_BUCKET + 5
    big = pa.table({"band": pa.array([0] * n, pa.int32()),
                    "band_hash": pa.array([7] * n, pa.int64()),
                    "doc_id": pa.array(range(n - 1, -1, -1), pa.int64())})
    with caplog.at_level(logging.WARNING,
                         logger="chinese_open_relation_extraction_for_entgraph_ray.stages.dedup"):
        out = _minhash_bucket_pairs(big)
    assert len(out) == MAX_BUCKET * (MAX_BUCKET - 1) // 2
    ids = set(out.column("a").to_pylist()) | set(out.column("b").to_pylist())
    assert ids == set(range(MAX_BUCKET))        # first cap members by id
    assert any("MAX_BUCKET" in r.message for r in caplog.records)


def test_bucket_cap_exact_on_block_edge(ray_session):
    """The same cap through the public op when the over-cap buckets are
    spread over many input blocks, so the sort leaves them on block edges
    and they take the exchange's boundary pass: every band bucket holds
    all MAX_BUCKET + 5 identical docs, and the result is exactly the
    pairs of the first MAX_BUCKET doc_ids, each agreed by all 16 bands."""
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.dedup import (
        BANDS,
        MAX_BUCKET,
        minhash_candidate_pairs,
    )

    n = MAX_BUCKET + 5
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": ["same words in every single copy of this doc"] * n,
    })).repartition(n // 3)
    got = minhash_candidate_pairs(docs).take_all()
    assert len(got) == MAX_BUCKET * (MAX_BUCKET - 1) // 2
    assert {(r["a"], r["b"]) for r in got} == {
        (a, b) for a in range(MAX_BUCKET) for b in range(a + 1, MAX_BUCKET)}
    assert {r["n_bands"] for r in got} == {BANDS}


def test_simhash_near_dups_exhaustive_at_hamming3(ray_session):
    """4x16-bit banded SimHash LSH is EXHAUSTIVE for hamming <= 3 (3 bit
    flips touch at most 3 of the 4 bands — pigeonhole), so the distributed
    pair generator must return exactly the brute-force pair set."""
    import itertools

    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.dedup import (
        hamming64,
        simhash64,
        simhash_near_dups,
    )

    docs = _fixture_corpus()
    ds = rd.from_items(docs).repartition(5)
    got = sorted((r["a"], r["b"], r["hamming"])
                 for r in simhash_near_dups(ds, max_hamming=3).take_all())

    sigs = {d["doc_id"]: simhash64(d["text"]) for d in docs}
    want = sorted(
        (a, b, hamming64(sigs[a], sigs[b]))
        for a, b in itertools.combinations(sorted(sigs), 2)
        if hamming64(sigs[a], sigs[b]) <= 3)
    assert got == want
    assert len(got) > 0


def test_curate_documents_cluster_dedup(ray_session):
    """cluster_dedup=True keeps exactly one representative per connected
    near-dup component (union-find reference)."""
    import hashlib

    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.pipelines.curate import (
        curate_documents,
        quality_lang_filter,
    )
    from chinese_open_relation_extraction_for_entgraph_ray.stages.dedup import (
        jaccard,
        minhash_candidate_pairs,
    )

    docs = _fixture_corpus()
    ds = rd.from_items(docs).repartition(5)
    got = sorted(r["doc_id"] for r in
                 curate_documents(ds, cluster_dedup=True).take_all())

    # single-process reference: survivors -> verified pairs -> union-find ->
    # keep each component's min
    tbl = pa.Table.from_pylist(docs)
    filtered = quality_lang_filter(tbl).to_pylist()
    by_md5: dict = {}
    for d in filtered:
        key = hashlib.md5(d["text"].encode()).hexdigest()
        if key not in by_md5 or d["doc_id"] < by_md5[key]:
            by_md5[key] = d["doc_id"]
    keep = set(by_md5.values())
    kept = [d for d in docs if d["doc_id"] in keep]
    pairs = [(p["a"], p["b"]) for p in minhash_candidate_pairs(
        rd.from_items(kept).repartition(3)).take_all()]
    texts = {d["doc_id"]: d["text"] for d in kept}
    verified = [(a, b) for a, b in pairs
                if jaccard(texts[a], texts[b], 3) >= 0.5]
    comp = _union_find_curate(verified)
    drop = {n for n, c in comp.items() if n != c}
    assert got == sorted(keep - drop)
    assert len(verified) > 0


def _union_find_curate(pairs):
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_semi_anti_partition_left(ray_session, seed):
    """semi(left, right) and anti(left, right) PARTITION left: disjoint,
    union == left — for arbitrary key overlap and duplicate left keys."""
    import numpy as np
    import ray.data as rd

    rng = np.random.RandomState(seed)
    left = [{"k": int(k), "row_id": i}
            for i, k in enumerate(rng.randint(0, 50, size=400))]
    right = [{"rk": int(k)} for k in rng.randint(25, 75, size=60)]
    lds = rd.from_items(left).repartition(5)
    rds = rd.from_items(right).repartition(3)
    semi = {r["row_id"] for r in semi_join(lds, rds, left_key="k",
                                           right_key="rk").take_all()}
    anti = {r["row_id"] for r in semi_join(lds, rds, left_key="k",
                                           right_key="rk",
                                           anti=True).take_all()}
    assert semi.isdisjoint(anti)
    assert semi | anti == {r["row_id"] for r in left}
    # and inner+left lookup counts are consistent with the partition
    inner_n = lookup_join(lds, rds.groupby("rk").count(),
                          left_key="k", right_key="rk",
                          payload=["count()"], how="inner").count()
    assert inner_n == len(semi)


def test_similar_pairs_exact_matches_brute_force(ray_session):
    """The inverted-index all-pairs Jaccard join is EXACT: identical pair
    set and values to the O(n^2) single-process reference over the fixture
    corpus (plus empty docs, which have no shingles and never pair)."""
    import numpy as np
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.functions.fputil import (
        np_round_away,
    )
    from chinese_open_relation_extraction_for_entgraph_ray.stages.dedup import (
        similar_pairs_exact,
        word_shingles,
    )

    docs = _fixture_corpus()
    docs.append({"doc_id": 100, "text": ""})
    docs.append({"doc_id": 101, "text": "   "})
    got = {(r["a"], r["b"]): r["jaccard"]
           for r in similar_pairs_exact(
               rd.from_items(docs).repartition(5), threshold=0.5).take_all()}
    want = {}
    for i in range(len(docs)):
        for j in range(i + 1, len(docs)):
            sa = word_shingles(docs[i]["text"])
            sb = word_shingles(docs[j]["text"])
            if sa & sb:
                J = len(sa & sb) / (len(sa) + len(sb) - len(sa & sb))
                if J >= 0.5:
                    want[(docs[i]["doc_id"], docs[j]["doc_id"])] = float(
                        np_round_away(np.array([J]), 4)[0])
    assert got == want and len(want) > 0


def test_similar_pairs_exact_max_df_cap_drops_ubiquitous_shingles(
        ray_session, caplog):
    """max_df prefilter: a pair sharing ONLY over-cap shingles disappears
    (and nothing else changes) — the documented prefix-filter trade."""
    import logging

    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.dedup import (
        similar_pairs_exact,
    )

    common = "alpha beta gamma delta epsilon zeta"
    docs = [{"doc_id": i, "text": common} for i in range(6)]
    docs += [{"doc_id": 10, "text": "rare pair one two three four"},
             {"doc_id": 11, "text": "rare pair one two three four"}]
    with caplog.at_level(logging.WARNING):
        full = similar_pairs_exact(rd.from_items(docs),
                                   threshold=0.5).take_all()
        capped = similar_pairs_exact(rd.from_items(docs), threshold=0.5,
                                     max_df=3).take_all()
    full_pairs = {(r["a"], r["b"]) for r in full}
    capped_pairs = {(r["a"], r["b"]) for r in capped}
    assert (10, 11) in full_pairs and (10, 11) in capped_pairs
    # the 6-doc clique shares only shingles with df=6 > 3 -> dropped
    assert all(a >= 10 for a, _ in capped_pairs)
    assert len(full_pairs) == 15 + 1 and len(capped_pairs) == 1


def test_curate_documents_exact_pairs_mode_matches_lsh(ray_session):
    """pairs_mode='exact' (inverted-index, recall=1) must agree with the
    LSH path on the fixture corpus (where LSH recall is complete) and
    reject unknown modes."""
    import pytest
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.pipelines.curate import (
        curate_documents,
    )

    docs = rd.from_items(_fixture_corpus()).repartition(4).materialize()
    lsh = sorted(r["doc_id"] for r in curate_documents(docs).take_all())
    exact = sorted(r["doc_id"] for r in curate_documents(
        docs, pairs_mode="exact").take_all())
    assert lsh == exact and len(exact) > 0
    with pytest.raises(ValueError, match="pairs_mode"):
        curate_documents(docs, pairs_mode="bogus")


@pytest.mark.parametrize("seed", [11, 23])
def test_similar_pairs_exact_random_corpora(ray_session, seed):
    """Exactness holds on randomized corpora (shared token pools force
    nontrivial shingle overlap), not just the crafted fixture."""
    import numpy as np
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.dedup import (
        similar_pairs_exact,
        word_shingles,
    )

    rng = np.random.RandomState(seed)
    vocab = [f"w{v}" for v in range(30)]
    docs = []
    for i in range(50):
        n = int(rng.randint(1, 15))
        docs.append({"doc_id": i,
                     "text": " ".join(rng.choice(vocab, size=n))})
    got = {(r["a"], r["b"]) for r in similar_pairs_exact(
        rd.from_items(docs).repartition(4), threshold=0.4).take_all()}
    want = set()
    for i in range(len(docs)):
        sa = word_shingles(docs[i]["text"])
        for j in range(i + 1, len(docs)):
            sb = word_shingles(docs[j]["text"])
            if sa & sb:
                J = len(sa & sb) / (len(sa) + len(sb) - len(sa & sb))
                if J >= 0.4:
                    want.add((i, j))
    assert got == want


def test_joins_preserve_full_range_int64(ray_session, monkeypatch):
    """Keys AND payloads above 2^53 must survive every join mode exactly.

    Regression: the block-join pass used pandas batches; the tagged union
    has nulls in the other side's columns, so Arrow->pandas coerced int64
    to float64 and silently rounded full-range 64-bit hash ids (~512 ULP
    at 2^62) — fragmenting connected components over hashed string keys."""
    import numpy as np
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.joins import (
        outer_join,
    )

    rng = np.random.RandomState(5)
    keys = np.unique(rng.randint(2 ** 60, 2 ** 62, size=30).astype(np.int64))
    pay = rng.randint(2 ** 60, 2 ** 62, size=len(keys)).astype(np.int64)
    right = rd.from_arrow(pa.table({"k": keys, "v": pay})).repartition(3)
    # left: every key twice + some misses (also > 2^53)
    lk = np.concatenate([keys, keys, keys + 1])
    left = rd.from_arrow(pa.table({"k": lk})).repartition(4)

    j = lookup_join(left, right, left_key="k", right_key="k",
                    payload=["v"]).to_pandas()
    want = dict(zip(keys.tolist(), pay.tolist()))
    assert len(j) == 2 * len(keys)
    assert all(want[k] == v for k, v in zip(j["k"], j["v_r"]))

    # nullable int64 output: compare via rows (a pandas conversion would
    # itself coerce to float64 — the very bug this test pins)
    lj = lookup_join(left, right, left_key="k", right_key="k",
                     payload=["v"], how="left").take_all()
    assert len(lj) == len(lk)
    matched = [r for r in lj if r["v_r"] is not None]
    assert len(matched) == 2 * len(keys)
    assert all(want[r["k"]] == r["v_r"] for r in matched)

    monkeypatch.setattr(joins, "BROADCAST_KEYS_THRESHOLD", 0)
    semi = semi_join(left, right, left_key="k", right_key="k").to_pandas()
    assert sorted(semi["k"]) == sorted(np.concatenate([keys, keys]).tolist())

    from chinese_open_relation_extraction_for_entgraph_ray.stages.joins import (
        asof_join,
    )

    aleft = rd.from_arrow(pa.table(
        {"u": [1, 1, 1, 2], "t": [5, 15, 25, 9]}))
    aright = rd.from_arrow(pa.table(
        {"u": [1, 1, 2], "t": [10, 20, 50],
         "v": pa.array([2 ** 60 + 3, 2 ** 61 + 7, 2 ** 60 + 1],
                       pa.int64())}))
    aj = {(r["u"], r["t"]): r["v_right"]
          for r in asof_join(aleft, aright, by="u", ts="t",
                             right_payload=["v"]).take_all()}
    assert aj == {(1, 5): None, (1, 15): 2 ** 60 + 3,
                  (1, 25): 2 ** 61 + 7, (2, 9): None}

    oj = outer_join(rd.from_arrow(pa.table({"k": keys[:20], "a": pay[:20]})),
                    rd.from_arrow(pa.table({"k": keys[10:], "b": pay[10:]})),
                    left_key="k", right_key="k",
                    left_payload=["a"], right_payload=["b"]).take_all()
    assert len(oj) == len(keys)
    both = [r for r in oj if r["a"] is not None and r["b"] is not None]
    assert sorted(r["k"] for r in both) == sorted(keys[10:20].tolist())
    assert all(want[r["k"]] == r["b"] for r in both)


def test_lookup_join_broadcast_parity(ray_session, monkeypatch):
    """Broadcast fast path == sorted-block path, pinned on the tricky
    semantics: duplicate right keys multiply rows (SQL), null keys never
    match either side, int64 payloads above 2^53 survive exactly."""
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.stages.joins import (
        lookup_join,
    )

    BIG = 2 ** 60 + 7
    left = rd.from_arrow(pa.table({
        "lid": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "k": pa.array(["a", "b", "c", None, "a"], pa.string()),
    }))
    right_tbl = pa.table({
        "rk": pa.array(["a", "b", "b", None], pa.string()),
        "v": pa.array([BIG, 10, 11, 99], pa.int64()),
    })

    def canon(ds):
        tbl = pa.concat_tables(
            b for b in ds.iter_batches(batch_format="pyarrow"))
        assert tbl.schema.field("v_r").type == pa.int64()
        return sorted(
            tuple(None if v is None else v for v in row)
            for row in zip(*[tbl.column(c).to_pylist()
                             for c in ("lid", "k", "v_r")]))

    for how in ("inner", "left"):
        with monkeypatch.context() as mp:
            mp.setattr(joins, "BROADCAST_LOOKUP_THRESHOLD", 0)
            by_sort = canon(lookup_join(
                left, rd.from_arrow(right_tbl), left_key="k",
                right_key="rk", payload=["v"], how=how))
        by_bcast = canon(lookup_join(
            left, rd.from_arrow(right_tbl).materialize(), left_key="k",
            right_key="rk", payload=["v"], how=how))
        assert by_sort == by_bcast, how
        assert (1, "a", BIG) in by_bcast          # exact > 2^53
        assert ((2, "b", 10) in by_bcast
                and (2, "b", 11) in by_bcast)     # dup right key multiplies
        if how == "left":
            assert (4, None, None) in by_bcast    # null key kept, no match
        else:
            assert all(r[0] != 4 for r in by_bcast)


def test_containment_pairs_exact_superset_detection(ray_session):
    """containment_pairs_exact must (a) match the O(n^2) brute-force
    containment over the fixture corpus, and (b) catch a short doc fully
    embedded in a long one — the case Jaccard structurally misses."""
    import numpy as np
    import ray.data as rd

    from chinese_open_relation_extraction_for_entgraph_ray.functions.fputil import (
        np_round_away,
    )
    from chinese_open_relation_extraction_for_entgraph_ray.stages.dedup import (
        containment_pairs_exact,
        similar_pairs_exact,
        word_shingles,
    )

    long_text = " ".join(f"tok{i}" for i in range(60))
    short_text = " ".join(f"tok{i}" for i in range(20, 28))  # embedded
    docs = _fixture_corpus()
    docs.append({"doc_id": 200, "text": long_text})
    docs.append({"doc_id": 201, "text": short_text})
    ds = rd.from_items(docs).repartition(4)

    got = {(r["a"], r["b"]): (r["containment_a"], r["containment_b"])
           for r in containment_pairs_exact(ds, threshold=0.6).take_all()}
    want = {}
    for i in range(len(docs)):
        for j in range(i + 1, len(docs)):
            sa = word_shingles(docs[i]["text"])
            sb = word_shingles(docs[j]["text"])
            if sa & sb:
                ca = len(sa & sb) / len(sa)
                cb = len(sa & sb) / len(sb)
                if max(ca, cb) >= 0.6:
                    r4 = lambda v: float(np_round_away(np.array([v]), 4)[0])
                    want[(docs[i]["doc_id"],
                          docs[j]["doc_id"])] = (r4(ca), r4(cb))
    assert got == want and len(want) > 0

    # the embedded short doc: containment catches it, Jaccard at the same
    # threshold does not
    assert got[(200, 201)][1] == 1.0
    jac = {(r["a"], r["b"]) for r in similar_pairs_exact(
        ds, threshold=0.6).take_all()}
    assert (200, 201) not in jac
