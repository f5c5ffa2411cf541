#!/usr/bin/env python3
"""Record the benchmark's figures for the current checkout in BENCH_<label>.json.

    python3 scripts/bench_record.py pr6

For every workload in BENCHMARK.json it runs
`perfbench/run.py --workload W --seed i --seconds S --trace 0` for
i = 1..RUNS, so consecutive runs use different config seeds, then one
`--trace 1` run with seed 1.  Only the two JSON lines perfbench prints
last are read.  The file holds the git revision, the machine (nproc, CPU
model, Python and numpy versions), for each workload the median,
quartiles and spread (q3 - q1) / median of every end-to-end metric over
the RUNS runs, the failed and attempted config counts, and the per-layer
values of the traced run with its `absent` list.  Every BENCH file is
measured with the same RUNS, but the machine's speed drifts by 20-40%
within minutes, so two BENCH files recorded apart do not compare: a
before/after claim rests on the alternating pairs of
`scripts/bench_pairs.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5  # --trace 0 runs per workload
STOP_WAIT_S = 10  # for a terminated perfbench run to stop its program


def result_lines(stdout: str) -> tuple[dict, dict]:
    """The info line and the result line perfbench prints last."""
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if len(lines) < 2:
        raise ValueError("perfbench printed no result lines")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list) -> dict:
    """Median, quartiles and (q3 - q1) / median of one metric's runs."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "runs": len(values), "values": values}


def summarize(results: list) -> dict:
    """End-to-end figures of one workload from its `--trace 0` result lines."""
    out = {"failed": sum(r["failed"] for r in results),
           "attempted": sum(r["attempted"] for r in results),
           "metrics": {}}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        out["metrics"][name] = {"unit": first["unit"], **spread(values)}
    return out


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = re.findall(r"^model name\s*:\s*(.+)$", fh.read(), re.M)
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def git_revision() -> str:
    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=ROOT, capture_output=True, text=True).stdout.strip()
    return rev + ("-dirty" if dirty else "") if rev else "unknown"


def perfbench(workload: str, seed: int, seconds: float, trace: int,
              tree: Path = ROOT):
    """The last two JSON lines of one run of `tree`'s perfbench.

    If this process is interrupted during the run, the run gets SIGTERM
    and up to STOP_WAIT_S seconds to stop the program it launched, in its
    own process group, before it is killed.
    """
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    with subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as proc:
        try:
            out, _ = proc.communicate()
        except BaseException:
            proc.terminate()
            try:
                proc.wait(STOP_WAIT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
            raise
    return result_lines(out)


def exit_on_sigterm():
    """Turn SIGTERM into SystemExit, so `finally` blocks and context
    managers, and `perfbench`'s stop of its run, still run."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))


def record(label: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    seeds = list(range(1, RUNS + 1))
    end_to_end, per_layer = {}, {}
    for w in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in seeds:
            _, res = perfbench(w, seed, seconds, 0)
            results.append(res)
            print(f"{w} seed {seed}: wall_s "
                  f"{res['metrics']['wall_s']['value']:.3f} "
                  f"failed {res['failed']}", file=sys.stderr)
        end_to_end[w] = summarize(results)
        info, res = perfbench(w, seeds[0], seconds, 1)
        per_layer[w] = {"failed": res["failed"], "attempted": res["attempted"],
                        "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                        "absent": info.get("absent", {})}
    return {"label": label, "converted_from": None, "git_revision": git_revision(),
            "machine": machine(), "run_seconds": seconds, "seeds": seeds,
            "end_to_end": end_to_end, "per_layer": per_layer}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    args = ap.parse_args()
    exit_on_sigterm()
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        ap.error("label may hold letters, digits, '_', '.' and '-' only")
    data = record(args.label)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(out.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
