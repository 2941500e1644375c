"""Seeded input generators for the three benchmark workloads.

Every workload is a directory of Parquet files in the transcripts schema
``(conv_id, turn_idx, role, text, tool, ts)``; the program under test sees
nothing else.  Generation is a pure function of ``(workload, seed, scale)``
and is cached on disk, keyed also by a fingerprint of the generator sources,
so a run pays for it once and it never falls inside a timed region.

- ``kg_distinct``: turns built from grammar sentences that are each used
  once, so nearly every sentence text is distinct (cold rule cascade).
- ``kg_repeat``: a small base corpus re-emitted many times under fresh
  ``conv_id``s in shuffled order, with one fine-triple sentence planted into
  every sentence turn (duplicate rate ~0.98; the hot edge key carries over
  30% of fine-triple rows).
- ``kg_staged``: the stock corpus of ``sources.synthetic.write_transcripts``
  (natural duplicates, Zipf conversation lengths), built with every stage
  checkpointed.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from chinese_open_relation_extraction_for_entgraph_ray.functions import grammar
from chinese_open_relation_extraction_for_entgraph_ray.sources import synthetic

WORKLOADS = ("kg_distinct", "kg_repeat", "kg_staged")

#: build_kg checkpoint mode per workload
CHECKPOINTS = {"kg_distinct": "minimal", "kg_repeat": "minimal",
               "kg_staged": "all"}

# Full-size parameters (scale 1.0).  Sized so one build takes 6-9 s on a
# 4-CPU host, about half of it fixed per-stage cost: a run's time budget
# fits two fresh-session jobs, each with its own set-up.  Sizes are fixed in
# sentences or turns, not conversations, so they do not vary with the seed.
DISTINCT_SENTENCES = 8_000       # kg_distinct: distinct sentence texts
REPEAT_BASE_SENTENCES = 990      # kg_repeat: grammar sentences of the base corpus ...
REPEAT_COPIES = 17               # ... each conversation re-emitted this often
REPEAT_HOT_EXTRA = 0.5           # chance a sentence turn carries the hot sentence twice
STAGED_TURNS = 3_000             # kg_staged: turns from the stock generator

NUM_FILES = 8                    # input files (= read tasks) per workload
HOT_TEMPLATE = "svo_pn"          # person + transitive verb + noun: one fine triple


def generator_fingerprint() -> str:
    """Hash of every source file the generated inputs depend on."""
    h = hashlib.sha256()
    for mod in (__file__, synthetic.__file__, grammar.__file__,
                os.path.join(os.path.dirname(grammar.__file__), "lexicon.py")):
        with open(mod, "rb") as fp:
            h.update(fp.read())
    return h.hexdigest()[:12]


def _table(rows: list[tuple]) -> pa.Table:
    conv, turn, role, text, tool, ts = zip(*rows) if rows else ([],) * 6
    return pa.Table.from_arrays(
        [pa.array(conv, pa.string()), pa.array(turn, pa.int32()),
         pa.array(role, pa.string()), pa.array(text, pa.string()),
         pa.array(tool, pa.string()),
         pa.array(np.asarray(ts, dtype="int64"), pa.timestamp("us"))],
        schema=synthetic.SCHEMA)


def _write_files(rows: list[tuple], out_dir: str) -> None:
    """Contiguous row ranges, one Parquet file each (conversations may
    straddle a file boundary; the pipeline does not depend on that)."""
    bounds = np.linspace(0, len(rows), NUM_FILES + 1).astype(int)
    for k in range(NUM_FILES):
        pq.write_table(_table(rows[bounds[k]:bounds[k + 1]]),
                       os.path.join(out_dir, f"transcripts-{k:04d}.parquet"))


def convs_for_turns(seed: int, turns: int) -> int:
    """Fewest stock-generator conversations holding at least ``turns``."""
    n = total = 0
    while total < turns:
        total += synthetic.turn_count(seed, n)
        n += 1
    return n


def _distinct_rows(seed: int, n_sentences: int) -> list[tuple]:
    """Turns of the stock generator's sentence kind, keeping only sentences
    not seen before; a turn with no new sentence is skipped."""
    seen: set[str] = set()
    rows = []
    ci = 0
    while len(seen) < n_sentences:
        out_ti = 0
        for ti in range(synthetic.turn_count(seed, ci)):
            spec = synthetic.turn_spec(seed, ci, ti)
            if spec.kind != "sentences":
                continue
            new = [s.text for s in spec.sentences if s.text not in seen]
            if not new:
                continue
            seen.update(new)
            rows.append((spec.conv_id, out_ti, spec.role, "".join(new),
                         spec.tool, spec.ts_us))
            out_ti += 1
        ci += 1
    return rows


def hot_sentence(seed: int) -> str:
    """The planted sentence of ``kg_repeat``: one seeded fill of a plain
    subject-verb-object template, which yields one fine triple."""
    tpl = next(t for t in grammar.TEMPLATES if t.tid == HOT_TEMPLATE)
    rng = np.random.default_rng([seed % 2**32, 1])
    fills = {i: str(rng.choice(grammar.SLOT_CLASSES[val]))
             for i, (kind, val) in enumerate(tpl.parts) if kind == "slot"}
    return "".join(tpl.realize(fills))


def _base_conversations(seed: int, n_sentences: int) -> list[list]:
    """Stock-generator conversations, in order, up to the turn that brings
    their grammar sentences to ``n_sentences`` (that conversation is cut
    there)."""
    convs, total, ci = [], 0, 0
    while total < n_sentences:
        convs.append([])
        for ti in range(synthetic.turn_count(seed, ci)):
            spec = synthetic.turn_spec(seed, ci, ti)
            convs[-1].append(spec)
            total += len(spec.sentences)
            if total >= n_sentences:
                break
        ci += 1
    return convs


def _repeat_rows(seed: int, n_sentences: int, copies: int) -> list[tuple]:
    base = _base_conversations(seed, n_sentences)
    rng = np.random.default_rng([seed % 2**32, 2])
    order = rng.permutation(len(base) * copies)
    hot = hot_sentence(seed)
    rows = []
    for pos, k in enumerate(order):
        copy, ci = divmod(int(k), len(base))
        conv_id = f"rep-{pos:07d}"
        for spec in base[ci]:
            text = spec.raw_text
            if spec.kind == "sentences":
                text += hot * (1 + (rng.random() < REPEAT_HOT_EXTRA))
            rows.append((conv_id, spec.turn_idx, spec.role, text, spec.tool,
                         spec.ts_us + copy * 1_000_000))
    return rows


def generate(workload: str, seed: int, scale: float, out_dir: str) -> None:
    """Write one workload's input files into ``out_dir`` (must not exist)."""
    os.makedirs(out_dir)
    if workload == "kg_distinct":
        _write_files(_distinct_rows(
            seed, max(50, int(DISTINCT_SENTENCES * scale))), out_dir)
    elif workload == "kg_repeat":
        _write_files(_repeat_rows(
            seed, max(50, int(REPEAT_BASE_SENTENCES * scale)), REPEAT_COPIES),
            out_dir)
    elif workload == "kg_staged":
        synthetic.write_transcripts(
            out_dir, seed,
            convs_for_turns(seed, max(60, int(STAGED_TURNS * scale))),
            files=NUM_FILES)
        for marker in os.listdir(out_dir):
            if marker.startswith("_DONE"):
                os.remove(os.path.join(out_dir, marker))
    else:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {WORKLOADS}")


def input_dir(cache_root: str, workload: str, seed: int, scale: float) -> str:
    """Cached input directory for ``(workload, seed, scale)``, generated on
    first use; a half-written directory is never visible under the key."""
    key = f"{workload}-s{seed}-x{scale:g}-{generator_fingerprint()}"
    final = os.path.join(cache_root, "inputs", key)
    if not os.path.isdir(final):
        tmp = f"{final}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        generate(workload, seed, scale, tmp)
        os.replace(tmp, final)
    return final
