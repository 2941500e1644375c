"""Job entry point for the KG-construction pipeline.

Designed for ``ray job submit -- python -m
chinese_open_relation_extraction_for_entgraph_ray.run --input ... --output
...`` on a cluster (the north rule's launch mode); runs identically as a
plain script on a single node.  Resumable: re-submitting with the same input
and output skips completed stages via the lineage manifests
(``state/lineage.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Ray-Data KG construction over transcript Parquet")
    ap.add_argument("--input", required=True,
                    help="directory of transcripts Parquet "
                         "(conv_id, turn_idx, role, text, tool, ts)")
    ap.add_argument("--output", required=True,
                    help="checkpoint/output root (stage subdirs + lineage)")
    ap.add_argument("--checkpoints", choices=["all", "minimal"], default="all",
                    help="'all': also checkpoint sentences and parses, "
                         "teed out of the same one execution (finest "
                         "resume); 'minimal': checkpoint triples, edges "
                         "and entities only")
    ap.add_argument("--no-resume", action="store_true",
                    help="recompute every stage even if checkpoints match")
    ap.add_argument("--triples-shards", type=int, default=0,
                    help="with --checkpoints minimal: split the extraction "
                         "stage into N independently-committed shards "
                         "(mid-stage resume granularity for long jobs); "
                         "refused with --checkpoints all or N < 0")
    args = ap.parse_args(argv)

    import ray

    # `ray job submit` / the test driver own the session; standalone runs
    # init here (RAY_ADDRESS decides local vs cluster)
    if not ray.is_initialized():
        ray.init(include_dashboard=False)

    from .pipelines.kg import build_kg

    t0 = time.perf_counter()
    res = build_kg(args.input, args.output, resume=not args.no_resume,
                   checkpoints=args.checkpoints,
                   triples_shards=args.triples_shards)
    n_triples = res["triples"].count()
    n_edges = res["edges"].count()
    n_entities = res["entities"].count()
    sec = time.perf_counter() - t0
    print(json.dumps({
        "output": args.output,
        "ran_stages": res["_meta"]["ran_stages"],
        "stage_wall_sec": res["_meta"]["stage_wall_sec"],
        "triples": n_triples,
        "edges": n_edges,
        "entities": n_entities,
        "wall_sec": round(sec, 3),
        "triples_per_sec": round(n_triples / sec, 1) if sec else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
