"""Regenerate sources/golden_expected.py from a fresh golden-corpus build.

Safety: builds the golden KG TWICE in fresh Ray sessions (4 and 8 CPUs,
different block layouts) and asserts the four output tables are identical
before pinning — a layout-dependent output must never be pinned as a driver
oracle.  The pinned rows themselves are hand-verified against
tests/test_cascade_golden.py (same parse shapes, reference citations there).

Usage: python scripts/gen_golden_expected.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

WORKER = """
import sys, shutil
import ray
ray.init(address="local", num_cpus=%(ncpus)d, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
shutil.rmtree(%(out)r, ignore_errors=True)
from chinese_open_relation_extraction_for_entgraph_ray.sources.golden import (
    write_golden_transcripts)
from chinese_open_relation_extraction_for_entgraph_ray.pipelines.kg import build_kg
from chinese_open_relation_extraction_for_entgraph_ray.stages.coref import (
    coref_delta_triples)
from chinese_open_relation_extraction_for_entgraph_ray.stages.mentions import (
    mentions_with_coref)
from chinese_open_relation_extraction_for_entgraph_ray.stages.extract import (
    filter_histograms)
from chinese_open_relation_extraction_for_entgraph_ray.stages.coref import (
    coref_chain_buckets)
tdir = write_golden_transcripts("/tmp/entgraph_golden/transcripts")
kg = build_kg(tdir, %(out)r)
import pandas as pd

TRIPLE_COLS = ["conv_id", "turn_idx", "sent_idx", "rel_kind", "subj", "pred",
               "obj", "subj_idx", "pred_idx", "obj_idx", "negated",
               "subj_ent", "obj_ent"]
EDGE_COLS = ["subj", "pred", "obj", "subj_ent", "obj_ent", "weight",
             "sample_conv_id", "sample_turn_idx"]
COREF_COLS = ["conv_id", "turn_idx", "sent_idx", "rel_kind", "subj", "pred",
              "obj", "subj_idx", "pred_idx", "obj_idx", "antecedent"]
MENTION_COLS = ["conv_id", "turn_idx", "sent_idx", "surface", "label",
                "span_start", "span_end", "entity_id", "link_score", "source"]

def dump(df, cols):
    df = df[cols].astype(object).where(df[cols].notna(), None)
    rows = [tuple(r) for r in df.itertuples(index=False)]
    return sorted(rows, key=lambda t: tuple(str(v) for v in t))

out = {}
out["triples"] = dump(kg["triples"].to_pandas(), TRIPLE_COLS)
out["edges"] = dump(kg["edges"].to_pandas(), EDGE_COLS)
out["coref"] = dump(coref_delta_triples(kg["parses"]).to_pandas(), COREF_COLS)
out["mentions"] = dump(
    mentions_with_coref(kg["sentences"], kg["parses"], concurrency=2)
    .to_pandas(), MENTION_COLS)
out["hists"] = dump(filter_histograms(kg["parses"]).to_pandas(),
                    ["bucket", "token", "n"])
out["chain_buckets"] = dump(coref_chain_buckets(kg["parses"]),
                            ["n_chains", "n_conversations"])
import json
with open(%(dump)r, "w") as fp:
    json.dump({k: [list(r) for r in v] for k, v in out.items()}, fp,
              ensure_ascii=False)
ray.shutdown()
"""


def build(ncpus: int, out: str, dump: str) -> None:
    code = WORKER % {"ncpus": ncpus, "out": out, "dump": dump}
    subprocess.run([sys.executable, "-c", code], check=True)


def main() -> None:
    import json

    shutil.rmtree("/tmp/entgraph_golden", ignore_errors=True)
    build(4, "/tmp/entgraph_golden/kg_a", "/tmp/entgraph_golden/a.json")
    build(8, "/tmp/entgraph_golden/kg_b", "/tmp/entgraph_golden/b.json")
    a = json.load(open("/tmp/entgraph_golden/a.json"))
    b = json.load(open("/tmp/entgraph_golden/b.json"))
    for k in a:
        assert a[k] == b[k], f"golden output {k} is layout-dependent!"
        print(f"{k}: {len(a[k])} rows, identical across 4- and 8-CPU builds")

    dest = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))),
        "chinese_open_relation_extraction_for_entgraph_ray", "sources",
        "golden_expected.py")
    with open(dest, "w") as fp:
        fp.write('''\
"""Pinned expected outputs of the golden-corpus pipeline (AUTO-GENERATED).

Regenerate with ``python scripts/gen_golden_expected.py`` (which asserts
layout-invariance across 4- and 8-CPU builds before pinning).  These rows are
the DuckDB VALUES oracles for the in-window ``kg_golden_*`` driver queries:
the REAL distributed pipeline (pipelines/kg.build_kg over
``sources/golden.GOLDEN_CONVS``) must reproduce them row-for-row.  Rule-level
correctness of each row is pinned independently against the reference's
worked examples in tests/test_cascade_golden.py (citations there); this
module pins the end-to-end composition (preprocess -> ssplit -> parse ->
cascade -> link -> aggregate, plus the coref and mention branches).

Column conventions: None == SQL NULL; floats are exact (all values here are
small integers-as-floats or 1.0 link scores, safe to compare stringified at
6 decimal places, the driver's comparison contract).
"""

# fmt: off
''')
        names = {
            "triples": ("EXPECTED_TRIPLES", a["triples"]),
            "edges": ("EXPECTED_EDGES", a["edges"]),
            "coref": ("EXPECTED_COREF_DELTA", a["coref"]),
            "mentions": ("EXPECTED_MENTIONS_COREFED", a["mentions"]),
            "hists": ("EXPECTED_FILTER_HISTOGRAMS", a["hists"]),
            "chain_buckets": ("EXPECTED_COREF_CHAIN_BUCKETS",
                              a["chain_buckets"]),
        }
        for key, (var, rows) in names.items():
            fp.write(f"\n{var} = [\n")
            for r in rows:
                fp.write("    (" + ", ".join(repr(v) for v in r) + "),\n")
            fp.write("]\n")
        fp.write("# fmt: on\n")
    print("wrote", dest)


if __name__ == "__main__":
    main()
