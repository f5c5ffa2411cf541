#!/usr/bin/env python3
"""Record the reference CSVs that the benchmark checks every run against.

    python3 perfbench/record_refs.py

Runs every workload once per seed variant and stores its CSVs under
refs/shift<k>/.  The references belong to the seed commit: run this only
at that commit.  For variant 0 (the committed configs) the fresh CSVs
must equal the committed out/ byte for byte, or nothing is stored.
"""

import math
import shutil
import sys
from time import perf_counter

from run import ROOT, SEED_VARIANTS, WORKLOADS, Bench, refs_dir


def main() -> int:
    for shift in range(SEED_VARIANTS):
        work = ROOT / ".perfbench_work" / f"record{shift}"
        shutil.rmtree(work, ignore_errors=True)
        bench = Bench(work, shift, math.inf)
        fresh = {}
        for name, workload in WORKLOADS.items():
            t0 = perf_counter()
            p = bench.run_pass(workload, workload.jobs, False, None)
            if p.failed:
                print(f"{name} failed at seed shift {shift}", file=sys.stderr)
                return 1
            for config in workload.configs:
                csv_name = bench.configs[config][1] + ".csv"
                fresh[csv_name] = (p.out_dir / csv_name).read_bytes()
            print(f"shift {shift} {name}: {perf_counter() - t0:.1f} s",
                  flush=True)
        if shift == 0:
            stale = [n for n, b in fresh.items()
                     if (ROOT / "out" / n).read_bytes() != b]
            if stale:
                print(f"differs from the committed out/: {stale}",
                      file=sys.stderr)
                return 1
        dst = refs_dir(shift)
        dst.mkdir(parents=True, exist_ok=True)
        for csv_name, data in sorted(fresh.items()):
            (dst / csv_name).write_bytes(data)
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
