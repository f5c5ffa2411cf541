"""Fresh-interpreter launcher: import the program, then run one CLI call.

    python3 perfbench/launch.py REPORT [--trace] [strongmeans CLI args...]

Writes REPORT as JSON with `perf_counter` stamps taken when the imports
finished and around `cli.main`, so the parent can tell set-up from work.
With no CLI args it only imports (a set-up probe).  With --trace it
installs the timing wrappers first and adds their spans to REPORT.
The exit code is the one `cli.main` returned.
"""

import json
import sys
from time import perf_counter

import numpy  # noqa: F401  (part of the set-up every CLI call pays)
from strongmeans import cli

imported = perf_counter()


def main() -> int:
    report_path, args = sys.argv[1], sys.argv[2:]
    report = {"imported": imported}
    rc = 0
    if args:
        recorder = None
        if args[0] == "--trace":
            from tracer import Recorder

            recorder = Recorder()
            recorder.install()
            args = args[1:]
        report["start"] = perf_counter()
        rc = cli.main(args)
        report["end"] = perf_counter()
        report["rc"] = rc
        if recorder is not None:
            report.update(recorder.dump())
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
