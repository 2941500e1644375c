"""Rule-cascade layer number on a fixed input, in one process, without Ray.

Runs explode -> distinct sentence texts -> template parse -> distinct parses
over a transcripts directory, then times ``stages.extract.extract_linked``
(rule cascade + entity linking) over all the distinct parses in one call,
five times.  Prints one JSON line: the distinct-parse and triple counts and
the CPU-seconds per run (min and median), total and per distinct parse.
With ``--profile`` it first prints the cProfile top 20 (by internal time) of
one more run.

Usage: python scripts/profile_cascade.py <transcripts_dir> [--profile]
"""

import cProfile
import glob
import json
import os
import pstats
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

from chinese_open_relation_extraction_for_entgraph_ray.stages.extract import (  # noqa: E402
    _parse_keys,
    extract_linked,
)
from chinese_open_relation_extraction_for_entgraph_ray.stages.parse import (  # noqa: E402
    TemplateParserActor,
)
from chinese_open_relation_extraction_for_entgraph_ray.stages.preprocess import (  # noqa: E402
    explode_turns,
)

RUNS = 5


def distinct_parses(transcripts_dir: str) -> pa.Table:
    """The corpus's distinct parses, one row each (first-seen order)."""
    files = sorted(glob.glob(os.path.join(transcripts_dir, "*.parquet")))
    turns = pa.concat_tables(
        pq.read_table(f, columns=["conv_id", "turn_idx", "text"]) for f in files)
    sents = explode_turns(turns).combine_chunks()
    parses = TemplateParserActor()(sents.take(first_rows(sents.column("text"))))
    return parses.take(first_rows(_parse_keys(parses)))


def first_rows(values) -> pa.Array:
    """Row index of each distinct value's first occurrence."""
    return pc.index_in(pc.unique(values), value_set=values)


def main(argv: list[str]) -> None:
    if not argv or argv[0].startswith("-"):
        sys.exit(__doc__)
    parses = distinct_parses(argv[0])
    if "--profile" in argv[1:]:
        prof = cProfile.Profile()
        prof.runcall(extract_linked, parses)
        pstats.Stats(prof).sort_stats("tottime").print_stats(20)
    cpu = []
    for _ in range(RUNS):
        c0 = time.process_time()
        triples, _ = extract_linked(parses)
        cpu.append(time.process_time() - c0)
    n = parses.num_rows
    lo, med = min(cpu), statistics.median(cpu)
    print(json.dumps({
        "transcripts_dir": argv[0], "n_distinct_parses": n,
        "n_triples": triples.num_rows, "runs": RUNS,
        "cpu_s_min": round(lo, 4), "cpu_s_median": round(med, 4),
        "us_per_parse_min": round(1e6 * lo / n, 1),
        "us_per_parse_median": round(1e6 * med / n, 1)}))


if __name__ == "__main__":
    main(sys.argv[1:])
