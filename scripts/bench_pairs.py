#!/usr/bin/env python3
"""Compare the benchmark of a parent revision and the checkout in alternating pairs.

    python3 scripts/bench_pairs.py HEAD~1 --workload exact_and_small --pairs 10

The parent revision and the checkout's tracked files, as they stand in
the working tree, are exported with `git archive` into two sibling
directories of one temporary directory, `parent/` and `change/`, so
both sides run from the same kind of tree.  Each runs its own
`perfbench/run.py` (so its own `src/`) for BENCHMARK.json's
`run_seconds`.  Pair k (k = 1..pairs) runs both trees with `--seed k`,
the parent first in odd pairs and the checkout first in even ones, so
drift on the machine falls on both sides alike.  For every end-to-end
metric of BENCHMARK.json it reports both sides' medians and quartiles,
the pairs the checkout wins, and whether the gap between the medians
exceeds the parent's quartile spread (q3 - q1).  The exports are
removed at the end.  The last line of stdout is the report as one JSON
object; it names the parent, and the checkout's HEAD with a `dirty`
flag for tracked files that differ from it when the run starts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_record import ROOT, perfbench, spread  # noqa: E402


def compare(parent: list, change: list, better: str) -> dict:
    """Medians and quartiles of both sides, the pairs the change wins
    and whether its median gap exceeds the parent's quartile spread."""
    a, b = spread(parent), spread(change)
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (y - x) > 0 for x, y in zip(parent, change))
    gap = b["median"] - a["median"]
    return {"parent": {k: a[k] for k in ("median", "q1", "q3", "values")},
            "change": {k: b[k] for k in ("median", "q1", "q3", "values")},
            "wins": wins, "pairs": len(parent), "gap": gap,
            "beyond_spread": abs(gap) > a["q3"] - a["q1"],
            "better": sign * gap > 0}


def pairs(parent_tree: Path, change_tree: Path, workload: str, count: int) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    runs = {"parent": [], "change": []}
    for seed in range(1, count + 1):
        order = [("parent", parent_tree), ("change", change_tree)]
        for side, tree in order if seed % 2 else order[::-1]:
            runs[side].append(perfbench(workload, seed, seconds, 0, tree)[1])
        print(f"pair {seed}/{count}: wall_s parent "
              f"{runs['parent'][-1]['metrics']['wall_s']['value']:.3f} change "
              f"{runs['change'][-1]['metrics']['wall_s']['value']:.3f}",
              file=sys.stderr)
    metrics = {}
    for m in bench["end_to_end"]:
        values = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                  for side, rs in runs.items()}
        metrics[m["name"]] = compare(values["parent"], values["change"], m["better"])
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    return {"workload": workload, "seeds": [1, count],
            "run_seconds": seconds, "failed": failed, "metrics": metrics}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """Extract the tree of commit `rev` into the new directory `dest`."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                             check=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git revision of the parent tree")
    ap.add_argument("--workload", default="exact_and_small")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    rev = git("rev-parse", "--verify", args.parent + "^{commit}")
    checkout = {"revision": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    # a commit of the working tree's tracked files, made without touching
    # any ref; empty when they equal HEAD
    work = git("stash", "create") or checkout["revision"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        report = pairs(export(rev, Path(tmp) / "parent"),
                       export(work, Path(tmp) / "change"), args.workload, args.pairs)
    report.update(parent=rev, **checkout)
    for name, m in report["metrics"].items():
        p, c = m["parent"], m["change"]
        print(f"{name}: parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
              f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
              f"  wins {m['wins']}/{m['pairs']}"
              f"  gap {'beyond' if m['beyond_spread'] else 'within'} the parent's spread")
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
