"""500k-document dedup/curation stress — the reproducible round-3 version of
the round-2 ad-hoc stress (construction re-defined here so future rounds
measure the SAME corpus; r2's numbers were from a lost one-off script with
the same shape but not byte-identical data).

Corpus: the sf0.1 documents table (5,000 docs) replicated 100x.  Each
replica's tokens get a per-replica suffix so shingle spaces are disjoint
across replicas (no cross-replica near-dups).  Planted signal:
- base doc_id 0 is NOT suffixed -> 100 identical copies = 4,950 exact-dup
  pairs (and 100 identical MinHash signatures);
- every 100th doc of each replica gets a near-dup twin (last token
  dropped, doc_id + 50M) -> ~1% planted near-dup pairs, Jaccard ~0.97.

Usage: python scripts/stress_dedup.py [--spans [--stride N]] [--curate]
Prints one JSON line per measured stage: MinHash and SimHash pair
generation always, then the optional stages.  ``RAY_GRAFT_CPUS`` sets the
Ray session's CPU count (default 32).
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

NUM_REPLICAS = 100
NEAR_DUP_EVERY = 100


def build_corpus():
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    tbl = pq.read_table("/root/testdata/sf0.1/documents.parquet",
                        columns=["doc_id", "text"])
    base_ref = ray.put((tbl.column("doc_id").to_pylist(),
                        tbl.column("text").to_pylist()))

    def gen(batch):
        import pyarrow as pa
        import ray as _ray

        ids, texts = _ray.get(base_ref)
        out_ids, out_txt = [], []
        for r in batch["id"]:
            r = int(r)
            for i, (d, t) in enumerate(zip(ids, texts)):
                toks = (t or "").split()
                if d != 0:
                    toks = [f"{w}_{r}" for w in toks]
                out_ids.append(d + r * 100_000)
                out_txt.append(" ".join(toks))
                if i % NEAR_DUP_EVERY == 7 and len(toks) > 4:
                    out_ids.append(d + r * 100_000 + 50_000_000)
                    out_txt.append(" ".join(toks[:-1]))
        return pa.Table.from_arrays(
            [pa.array(out_ids, pa.int64()), pa.array(out_txt, pa.string())],
            names=["doc_id", "text"])

    return (rd.range(NUM_REPLICAS, override_num_blocks=NUM_REPLICAS)
            .map_batches(gen, batch_format="numpy")
            .materialize())


def main():
    import ray

    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    docs = build_corpus()
    n_docs = docs.count()

    from chinese_open_relation_extraction_for_entgraph_ray.stages.dedup import (
        minhash_candidate_pairs,
        simhash_near_dups,
    )

    for metric, op in (("minhash_pair_gen_500k", minhash_candidate_pairs),
                       ("simhash_pair_gen_500k", simhash_near_dups)):
        t0 = time.perf_counter()
        n_pairs = op(docs).count()
        pair_sec = round(time.perf_counter() - t0, 2)
        print(json.dumps({"metric": metric, "docs": n_docs,
                          "pairs": n_pairs, "sec": pair_sec}), flush=True)

    if "--spans" in sys.argv:
        from chinese_open_relation_extraction_for_entgraph_ray.stages.spans import (
            duplicate_spans,
        )

        stride = 1
        if "--stride" in sys.argv:
            stride = int(sys.argv[sys.argv.index("--stride") + 1])
        t0 = time.perf_counter()
        n_spans = duplicate_spans(docs, window=32, stride=stride).count()
        span_sec = round(time.perf_counter() - t0, 2)
        print(json.dumps({"metric": "duplicate_spans_500k", "docs": n_docs,
                          "stride": stride, "spans": n_spans,
                          "sec": span_sec}))

    if "--curate" in sys.argv:
        from chinese_open_relation_extraction_for_entgraph_ray.pipelines.curate import (
            curate_documents,
        )

        t0 = time.perf_counter()
        n_kept = curate_documents(docs).count()
        cur_sec = round(time.perf_counter() - t0, 2)
        print(json.dumps({"metric": "curation_500k", "docs": n_docs,
                          "kept": n_kept, "sec": cur_sec}))
    ray.shutdown()


if __name__ == "__main__":
    main()
