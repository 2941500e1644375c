"""Paired A/B of two git refs on the benchmark of record (``perfbench/``).

    python scripts/perf_ab.py <base-ref> <change-ref> --workload kg_repeat \\
        --seeds 1501-1510 [--seconds 40] [--keep DIR]

Each ref is ``git archive``d into its own checkout under a temp dir (short
paths: Ray's socket paths must fit in 107 bytes).  For every seed the two
checkouts run ``python3 perfbench/run.py --workload <w> --seed <s>
--seconds <n> --trace 0`` back to back, the side that runs first
alternating from seed to seed.  Each run's result is the median of its
jobs; the table prints, for every end-to-end metric of the change's
``BENCHMARK.json``, the median [quartiles] over the runs of each side, the
pairs the change wins, the change of the medians and the verdict against
the metric's bound.  A run that fails or whose checks fail is reported and
left out of its pair.  Nothing of the working tree, ``perfbench/``
included, is touched.  ``--json`` also writes every run's metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    """``"1501-1505,1601"`` -> [1501, ..., 1505, 1601]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def checkout(ref: str, dest: str) -> str:
    """``git archive`` of ``ref`` unpacked into ``dest``; returns its sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait():
        raise RuntimeError(f"git archive {ref} failed")
    return sha


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its last JSON line, or an error."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "RAY_ADDRESS")}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().split("\n")
    try:
        last = json.loads(lines[-1])
    except (ValueError, IndexError):
        return {"error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}
    if not last.get("correct"):
        return {"error": f"{last.get('failed')} of {last.get('attempted')} "
                         "jobs failed their checks"}
    return {k: v["value"] for k, v in last["metrics"].items()}


def _fmt(x: float) -> str:
    return f"{x:,.0f}" if abs(x) >= 100 else f"{x:.2f}"


def _spread(xs: list[float]) -> str:
    if len(xs) < 2:
        return _fmt(xs[0]) if xs else "–"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"{_fmt(statistics.median(xs))} [{_fmt(q1)}–{_fmt(q3)}]"


def table(pairs: list[tuple[dict, dict]], metrics: list[dict],
          workload: str) -> str:
    rows = ["| workload | metric | base | change | wins | Δ median | verdict |",
            "|---|---|---|---|---|---|---|"]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        both = [(a[name], b[name]) for a, b in pairs
                if a.get(name) is not None and b.get(name) is not None]
        if not both:
            continue
        base = [a for a, _ in both]
        change = [b for _, b in both]
        wins = sum((b < a) if lower else (b > a) for a, b in both)
        mb, mc = statistics.median(base), statistics.median(change)
        delta = (mc - mb) / mb if mb else 0.0
        worse = delta > m["bound"] if lower else -delta > m["bound"]
        verdict = f"worse than bound {m['bound']:g}" if worse else "within bound"
        rows.append(f"| {workload} | `{name}` | {_spread(base)} | "
                    f"{_spread(change)} | {wins}/{len(both)} | "
                    f"{delta:+.1%} | {verdict} |")
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1501-1510,1601")
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--keep", help="checkout dir to reuse/keep (short path)")
    ap.add_argument("--json", help="write every run's metrics here")
    args = ap.parse_args(argv)

    work = args.keep or tempfile.mkdtemp(prefix="pab-")
    trees = {}
    for side, ref in (("base", args.base), ("change", args.change)):
        tree = os.path.join(work, side)
        if not os.path.isdir(tree):
            sha = checkout(ref, tree)
            print(f"{side}: {ref} = {sha[:10]} in {tree}", file=sys.stderr)
        trees[side] = tree
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fp:
        metrics = json.load(fp)["end_to_end"]

    pairs, runs = [], []
    try:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            got = {}
            for side in order:
                got[side] = run_once(trees[side], args.workload, seed,
                                     args.seconds)
                runs.append({"seed": seed, "side": side, **got[side]})
                print(json.dumps(runs[-1]), file=sys.stderr, flush=True)
            if "error" in got["base"] or "error" in got["change"]:
                continue
            pairs.append((got["base"], got["change"]))
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)
    if args.json:
        with open(args.json, "w") as fp:
            json.dump(runs, fp, indent=1)
    print(table(pairs, metrics, args.workload))
    return 0 if pairs else 1


if __name__ == "__main__":
    sys.exit(main())
