"""Paired A/B of two git refs on the correctness gate's per-query walls.

    python scripts/gate_ab.py <base-ref> <change-ref> --runs 3 \\
        [--sf DIR] [--keep DIR] [--json OUT.json]

Each ref is ``git archive``d into its own checkout (``perf_ab.checkout``).
For each of ``--runs`` rounds both checkouts run ``python
scripts/check_correctness.py --json`` back to back, the side that runs
first alternating from round to round; ``--sf`` is passed on as its data
directory (default: ``check_correctness.py``'s own).  The report prints,
for every query, the median [min–max] of its wall on each side; the
queries where every change run is slower than every base run (and the
reverse), with the gap between the two ranges; the sum of the per-query
medians of each side; and every run's matched / rows-only / failed counts
with the sum of its query walls, whose spread is the run-to-run noise of
the side.  Nothing of the working tree is touched.
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

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from perf_ab import checkout  # noqa: E402

SIDES = ("base", "change")


def run_gate(tree: str, sf_dir: str | None, out: str) -> dict:
    """One ``check_correctness.py --json`` run of ``tree``: its report, or
    an error (the run's full stderr is echoed to ours)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "RAY_ADDRESS")}
    if os.path.exists(out):   # a kept work dir's report of an earlier run
        os.remove(out)
    proc = subprocess.run(
        [sys.executable, "scripts/check_correctness.py", "--json", out]
        + ([sf_dir] if sf_dir else []),
        cwd=tree, env=env, capture_output=True, text=True)
    try:
        with open(out) as fp:
            return json.load(fp)
    except (OSError, ValueError):
        sys.stderr.write(proc.stderr)
        return {"error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}


def _range(xs: list[float]) -> str:
    return f"{statistics.median(xs):.2f} [{min(xs):.2f}–{max(xs):.2f}]"


def report(runs: dict[str, list[dict]]) -> str:
    """The per-query table, the strict-separation lists, Σ of medians and
    the per-run counts."""
    ok = {s: [r for r in runs[s] if "error" not in r] for s in SIDES}
    names = [q for q in ok["base"][0]["queries"]
             if all(q in r["queries"] for s in SIDES for r in ok[s])]
    secs = {s: {q: [r["queries"][q]["sec"] for r in ok[s]] for q in names}
            for s in SIDES}
    lines = ["| query | base | change |", "|---|---|---|"]
    lines += [f"| `{q}` | {_range(secs['base'][q])} | "
              f"{_range(secs['change'][q])} |" for q in names]
    for label, slow, fast in (("slower", "change", "base"),
                              ("faster", "base", "change")):
        sep = sorted(((min(secs[slow][q]) - max(secs[fast][q]), q)
                      for q in names
                      if min(secs[slow][q]) > max(secs[fast][q])),
                     reverse=True)
        lines.append(f"\nqueries where every change run is {label} than "
                     f"every base run: {len(sep)}")
        lines += [f"  {q}: base {_range(secs['base'][q])}, change "
                  f"{_range(secs['change'][q])}, gap {gap:.2f} s"
                  for gap, q in sep]
    lines.append("")
    for s in SIDES:
        total = sum(statistics.median(secs[s][q]) for q in names)
        lines.append(f"{s}: Σ of {len(names)} query medians {total:.1f} s")
    for s in SIDES:
        for i, r in enumerate(runs[s], start=1):
            if "error" in r:
                lines.append(f"{s} run {i}: {r['error']}")
                continue
            walls = sum(v["sec"] for v in r["queries"].values())
            lines.append(f"{s} run {i}: {r['matched']} matched / "
                         f"{r['rows_only']} rows-only / {r['failed']} failed,"
                         f" Σ query walls {walls:.1f} s")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--sf", help="data directory for check_correctness.py")
    ap.add_argument("--keep", help="checkout dir to reuse/keep (short path)")
    ap.add_argument("--json", help="write every run's report here")
    args = ap.parse_args(argv)

    work = args.keep or tempfile.mkdtemp(prefix="gab-")
    trees = {}
    for side, ref in zip(SIDES, (args.base, args.change)):
        tree = os.path.join(work, side)
        if not os.path.isdir(tree):
            sha = checkout(ref, tree)
            print(f"{side}: {ref} = {sha[:10]} in {tree}", file=sys.stderr)
        trees[side] = tree

    runs: dict[str, list[dict]] = {s: [] for s in SIDES}
    try:
        for i in range(args.runs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                out = os.path.join(work, f"{side}-{i}.json")
                runs[side].append(run_gate(trees[side], args.sf, out))
                r = runs[side][-1]
                print(json.dumps({"run": i, "side": side,
                                  **{k: r.get(k) for k in
                                     ("error", "total_sec", "matched",
                                      "rows_only", "failed")}}),
                      file=sys.stderr, flush=True)
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)
    if args.json:
        with open(args.json, "w") as fp:
            json.dump(runs, fp, indent=1)
    if not all(any("error" not in r for r in runs[s]) for s in SIDES):
        print("no successful run on one side", file=sys.stderr)
        return 1
    print(report(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
