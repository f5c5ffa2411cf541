#!/usr/bin/env python3
"""Benchmark of the strongmeans CLI on three workloads built from its configs.

    python3 perfbench/run.py --workload moment_p2 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --list

Each config runs through `strongmeans.cli` in a fresh interpreter
(`launch.py`), with `--out` and `--baselines` in a per-run directory, so
the repository's `out/` and `baselines/` are never written.  Every CSV is
checked cell by cell against a reference recorded from the seed commit.
The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones, measured with tracing off; with `--trace 1` they are the per-layer
ones, from a serial run with the wrappers of `tracer.py` installed.
NOTES.md explains the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LAUNCH = BENCH / "launch.py"

# --seed n runs the committed configs with each `seed` field raised by
# n % SEED_VARIANTS; references exist for every variant.  Seed 0 is the
# committed configs, whose reference is the committed out/.
SEED_VARIANTS = 4
SETUP_PROBES = 5
# a run stops its program and reports a failure rather than pass 180 s
RUN_DEADLINE_S = 170.0
FLOAT_RTOL = 1e-12
CSV_DIGITS = 12  # significant digits `strongmeans.cli.fmt` writes


@dataclass(frozen=True)
class Workload:
    jobs: int
    configs: tuple


# The reasons for each choice are in NOTES.md.
WORKLOADS = {
    "exact_and_small": Workload(1, (
        "czd_suite", "covering_suite", "first_reduction", "second_reduction",
        "decay_kernel", "rect_moment", "density", "density_2d")),
    "moment_p2": Workload(2, ("averaged_moment",)),
    "pointwise": Workload(1, ("p4_moment", "strong_means")),
}

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "rows_per_s": ("rows/s", "higher"),
}


# ---------------------------------------------------------------------------
# output check


def _quantum(text: str) -> float:
    """One unit in the last significant digit a CSV float can carry."""
    x = abs(float(text))
    if x == 0 or not math.isfinite(x):
        return 0.0
    return 10.0 ** (math.floor(math.log10(x)) - (CSV_DIGITS - 1))


_INT = re.compile(r"-?\d+")


def floats_agree(fresh: str, ref: str, rtol: float = FLOAT_RTOL) -> bool:
    """True if the two printed floats can come from values within rtol.

    The CSV rounds to 12 significant digits, so values that differ by
    rtol can print one unit apart in the last digit; that unit is
    allowed, any larger difference is not.
    """
    a, b = float(fresh), float(ref)
    if not (math.isfinite(a) and math.isfinite(b)):
        return fresh == ref
    slack = rtol * max(abs(a), abs(b)) + (_quantum(fresh) + _quantum(ref)) / 2
    return abs(a - b) <= slack


def compare_csv(fresh_text: str, ref_text: str) -> list:
    """Differences between a fresh CSV and its reference; empty if they match.

    Integers, p/q fractions and strings must match exactly.  A column is
    a float column when some reference cell in it is not an integer;
    its cells may drift as `floats_agree` allows.
    """
    fresh = list(csv.reader(io.StringIO(fresh_text)))
    ref = list(csv.reader(io.StringIO(ref_text)))
    if not ref:
        return ["reference is empty"]
    if not fresh or fresh[0] != ref[0]:
        return [f"header {fresh[:1]} != {ref[0]}"]
    if len(fresh) != len(ref):
        return [f"{len(fresh) - 1} rows, reference has {len(ref) - 1}"]
    float_col = []
    for j in range(len(ref[0])):
        cells = [row[j] for row in ref[1:]]
        float_col.append(any(not _INT.fullmatch(c) and _is_float(c)
                             for c in cells))
    diffs = []
    for i, (frow, rrow) in enumerate(zip(fresh[1:], ref[1:]), start=1):
        if len(frow) != len(rrow):
            diffs.append(f"row {i}: {len(frow)} cells, reference {len(rrow)}")
            continue
        for j, (f, r) in enumerate(zip(frow, rrow)):
            if f == r:
                continue
            ok = (float_col[j] and _is_float(f) and _is_float(r)
                  and floats_agree(f, r))
            if not ok:
                diffs.append(f"row {i} {ref[0][j]}: {f!r} != {r!r}")
    return diffs


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# running the program


class SetupError(RuntimeError):
    """The program cannot be started at all; no result is printed."""


@dataclass
class Launch:
    rc: int
    report: dict
    cpu_s: float
    rss_mb: float
    setup_s: float


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    elapsed_s: float = 0.0
    out_dir: Path | None = None
    setup: list = field(default_factory=list)
    reports: list = field(default_factory=list)  # (config, launch report)


class Bench:
    """One benchmark invocation: its scratch directory and its deadline."""

    def __init__(self, work: Path, shift: int, deadline: float):
        self.work = work
        self.shift = shift
        self.deadline = deadline
        self.passes = 0
        (work / "tmp").mkdir(parents=True)
        path = [str(ROOT / "src")] + (
            [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        # one BLAS thread, so `--jobs` alone sets how many cores a run uses
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                        TMPDIR=str(work / "tmp"), OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.configs = self._write_configs()

    def _write_configs(self) -> dict:
        """Config name -> (generated path, CSV name); the seed is shifted."""
        out = {}
        cfg_dir = self.work / "configs"
        cfg_dir.mkdir()
        for src in sorted((BENCH / "configs").glob("*.json")):
            raw = json.loads(src.read_text(encoding="utf-8"))
            raw["seed"] += self.shift
            dst = cfg_dir / src.name
            dst.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
            out[src.stem] = (dst, raw.get("output") or raw["experiment"])
        return out

    def launch(self, args: list, log: Path) -> Launch:
        """Run launch.py in a fresh interpreter; rusage from its own wait4."""
        report_path = log.with_suffix(".json")
        with open(log, "wb") as out:
            t_spawn = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCH), str(report_path), *args],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out,
                stderr=subprocess.STDOUT, start_new_session=True)
            try:
                while True:
                    pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if perf_counter() > self.deadline:
                        os.killpg(proc.pid, signal.SIGKILL)
                        _, status, ru = os.wait4(proc.pid, 0)
                        break
                    time.sleep(0.02)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = {}
        setup = report["imported"] - t_spawn if "imported" in report else math.nan
        return Launch(proc.returncode, report, ru.ru_utime + ru.ru_stime,
                      ru.ru_maxrss / 1024.0, setup)

    def probe_setup(self) -> list:
        """Seconds from interpreter spawn to `strongmeans.cli` imported."""
        if not (ROOT / "src" / "strongmeans").is_dir():
            raise SetupError(f"no program source under {ROOT / 'src'}")
        samples = []
        for i in range(SETUP_PROBES):
            log = self.work / f"probe{i}.log"
            res = self.launch([], log)
            if res.rc != 0 or math.isnan(res.setup_s):
                raise SetupError("cannot import strongmeans.cli:\n"
                                 + _tail(log))
            samples.append(res.setup_s)
        return samples

    def run_pass(self, workload: Workload, jobs: int, trace: bool,
                 refs: Path | None) -> Pass:
        """Run every config of the workload once and check its CSV."""
        self.passes += 1
        tag = f"pass{self.passes}"
        out_dir, base_dir = self.work / tag / "out", self.work / tag / "baselines"
        out_dir.mkdir(parents=True)
        if self.shift == 0 and (ROOT / "baselines").is_dir():
            shutil.copytree(ROOT / "baselines", base_dir)
        p = Pass(out_dir=out_dir)
        t0 = perf_counter()
        for name in workload.configs:
            cfg_path, csv_name = self.configs[name]
            args = ["run", str(cfg_path), "--out", str(out_dir),
                    "--baselines", str(base_dir), "--jobs", str(jobs)]
            log = self.work / tag / f"{name}.log"
            res = self.launch((["--trace"] if trace else []) + args, log)
            p.attempted += 1
            p.setup.append(res.setup_s)
            rep = res.report
            if res.rc != 0 or "end" not in rep:
                p.failed += 1
                print(f"{name}: exit {res.rc}\n{_tail(log)}", file=sys.stderr)
                continue
            p.wall_s += rep["end"] - rep["start"]
            p.cpu_s += res.cpu_s
            p.rss_mb = max(p.rss_mb, res.rss_mb)
            p.reports.append((name, rep))
            try:
                fresh = (out_dir / f"{csv_name}.csv").read_text(encoding="utf-8")
            except OSError as e:
                p.failed += 1
                print(f"{name}: {e}", file=sys.stderr)
                continue
            p.rows += max(fresh.count("\n") - 1, 0)
            if refs is not None:
                ref_path = refs / f"{csv_name}.csv"
                diffs = (compare_csv(fresh, ref_path.read_text(encoding="utf-8"))
                         if ref_path.exists() else [f"no reference {ref_path}"])
                if diffs:
                    p.failed += 1
                    print(f"{name}: {len(diffs)} cell(s) differ from the "
                          "reference, first: " + "; ".join(diffs[:5]),
                          file=sys.stderr)
        p.elapsed_s = perf_counter() - t0
        return p


def _tail(log: Path, lines: int = 15) -> str:
    try:
        text = log.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""
    return "\n".join(text.splitlines()[-lines:])


def refs_dir(shift: int) -> Path:
    return BENCH / "refs" / f"shift{shift}"


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


@dataclass
class Layers:
    """Span totals of one traced pass, summed over its configs."""

    total: Counter = field(default_factory=Counter)  # inclusive seconds
    self_s: Counter = field(default_factory=Counter)  # minus child spans
    calls: Counter = field(default_factory=Counter)
    facts: dict = field(default_factory=lambda: defaultdict(list))
    absent: dict = field(default_factory=dict)
    overhead_s: float = 0.0


def aggregate(reports) -> Layers:
    agg = Layers()
    for config, rep in reports:
        spans = rep.get("spans", [])
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, facts) in enumerate(spans):
            agg.total[name] += end - start
            agg.self_s[name] += end - start - child[i]
            agg.calls[name] += 1
            if facts is not None:
                agg.facts[name].append((config, facts))
        agg.calls.update(rep.get("counts", {}))
        agg.absent.update(rep.get("absent", {}))
        agg.overhead_s += rep.get("overhead_s", 0.0)
    return agg


def _total(*names):
    return lambda a, ctx: sum(a.total[n] for n in names)


def _self(*names):
    return lambda a, ctx: sum(a.self_s[n] for n in names)


def _calls(*names):
    return lambda a, ctx: sum(a.calls[n] for n in names)


SWEEPS = ("estimates.averaged_moment", "estimates.averaged_moment_rect",
          "estimates.strong_means_measure")
CHECKS = ("estimates.verify_first_reduction", "estimates.verify_second_reduction",
          "estimates.decay_slope", "estimates.density_subsequence")


def _mean_fact(name, key):
    def value(a, ctx):
        vals = [f[key] for _, f in a.facts.get(name, [])]
        return sum(vals) / len(vals)
    return value


def _sweeps_per_function(a, ctx):
    fns = {(cfg, f["fn"]) for n in SWEEPS for cfg, f in a.facts.get(n, [])}
    return sum(a.calls[n] for n in SWEEPS) / len(fns)


def _ns_per_sample(a, ctx):
    samples = sum(f["samples"] for n in SWEEPS for _, f in a.facts.get(n, []))
    return 1e9 * sum(a.self_s[n] for n in SWEEPS) / samples


def _cli_overhead(a, ctx):
    return (a.total["cli.main"] - a.total["cli.execute"]
            - a.total["cli.write_csv"])


def _parallel_speedup(a, ctx):
    if ctx.get("parallel_wall_s") is None:
        return None
    return a.total["cli.execute"] / ctx["parallel_wall_s"]


# name -> (unit, better, span names it reads, value(layers, ctx))
PER_LAYER = {
    "corpus.build_s": ("s", "lower", ("corpus.build",), _total("corpus.build")),
    "corpus.functions": ("count", "lower", ("corpus.build",),
                         lambda a, ctx: sum(f["n"] for _, f in
                                            a.facts.get("corpus.build", []))),
    "czd.decompose_s": ("s", "lower", ("czd.decompose",),
                        _total("czd.decompose")),
    "czd.decompose_calls": ("count", "lower", ("czd.decompose",),
                            _calls("czd.decompose")),
    "czd.exact_frac": ("ratio", "higher", ("czd.decompose",),
                       _mean_fact("czd.decompose", "exact")),
    "czd.bad_cells_mean": ("count", "lower", ("czd.decompose",),
                           _mean_fact("czd.decompose", "bad")),
    "dyadic.dilate_calls": ("count", "lower", ("dyadic.dilate",),
                            _calls("dyadic.dilate")),
    "covering.family_gen_s": (
        "s", "lower", ("covering.family_gen_1d", "covering.family_gen_2d"),
        _total("covering.family_gen_1d", "covering.family_gen_2d")),
    "covering.verify_1d_s": ("s", "lower", ("covering.verify_1d",),
                             _total("covering.verify_1d")),
    "covering.verify_1d_calls": ("count", "lower", ("covering.verify_1d",),
                                 _calls("covering.verify_1d")),
    "covering.verify_2d_s": ("s", "lower", ("covering.verify_2d",),
                             _total("covering.verify_2d")),
    "covering.verify_2d_calls": ("count", "lower", ("covering.verify_2d",),
                                 _calls("covering.verify_2d")),
    "covering.chain_scan_s": ("s", "lower", ("covering.chain_scan",),
                              _total("covering.chain_scan")),
    "suites.czd_invariants_s": ("s", "lower", ("suites.czd_invariants",),
                                _self("suites.czd_invariants")),
    "suites.czd_invariants_calls": ("count", "lower", ("suites.czd_invariants",),
                                    _calls("suites.czd_invariants")),
    "spectral.forward_s": ("s", "lower", ("spectral.forward",),
                           _total("spectral.forward")),
    "spectral.forward_calls": ("count", "lower", ("spectral.forward",),
                               _calls("spectral.forward")),
    "spectral.valle_poussin_s": ("s", "lower", ("spectral.valle_poussin",),
                                 _total("spectral.valle_poussin")),
    "spectral.valle_poussin_calls": ("count", "lower", ("spectral.valle_poussin",),
                                     _calls("spectral.valle_poussin")),
    "spectral.convolve_s": ("s", "lower", ("spectral.convolve",),
                            _total("spectral.convolve")),
    "spectral.convolve_calls": ("count", "lower", ("spectral.convolve",),
                                _calls("spectral.convolve")),
    "spectral.saturated_sum_s": ("s", "lower", ("spectral.saturated_sum",),
                                 _total("spectral.saturated_sum")),
    "spectral.plancherel_s": (
        "s", "lower",
        ("spectral.plancherel_average", "spectral.plancherel_average_rect"),
        _total("spectral.plancherel_average", "spectral.plancherel_average_rect")),
    "estimates.moment_curve_s": (
        "s", "lower", SWEEPS[:2], _self(*SWEEPS[:2])),
    "estimates.moment_curve_calls": ("count", "lower", SWEEPS[:2],
                                     _calls(*SWEEPS[:2])),
    "estimates.strong_means_s": ("s", "lower", SWEEPS[2:], _self(*SWEEPS[2:])),
    "estimates.strong_means_calls": ("count", "lower", SWEEPS[2:],
                                     _calls(*SWEEPS[2:])),
    "estimates.sweeps_per_function": ("ratio", "lower", SWEEPS,
                                      _sweeps_per_function),
    "estimates.sweep_ns_per_sample": ("ns/sample", "lower", SWEEPS,
                                      _ns_per_sample),
    "estimates.exceptional_set_s": ("s", "lower",
                                    ("estimates.build_exceptional_set",),
                                    _total("estimates.build_exceptional_set")),
    "estimates.exceptional_set_calls": ("count", "lower",
                                        ("estimates.build_exceptional_set",),
                                        _calls("estimates.build_exceptional_set")),
    "estimates.complement_weights_s": ("s", "lower",
                                       ("estimates.complement_weights",),
                                       _total("estimates.complement_weights")),
    "estimates.complement_weights_calls": ("count", "lower",
                                           ("estimates.complement_weights",),
                                           _calls("estimates.complement_weights")),
    "estimates.checks_s": ("s", "lower", CHECKS, _total(*CHECKS)),
    "cli.execute_s": ("s", "lower", ("cli.execute",), _total("cli.execute")),
    "cli.write_csv_s": ("s", "lower", ("cli.write_csv",),
                        _total("cli.write_csv")),
    "cli.rows": ("count", "higher", ("cli.write_csv",),
                 lambda a, ctx: sum(f["rows"] for _, f in
                                    a.facts.get("cli.write_csv", []))),
    "cli.overhead_s": ("s", "lower",
                       ("cli.main", "cli.execute", "cli.write_csv"),
                       _cli_overhead),
    "cli.parallel_speedup": ("ratio", "higher", ("cli.execute",),
                             _parallel_speedup),
    "trace.overhead_s": ("s", "lower", (), lambda a, ctx: a.overhead_s),
}


def layer_metrics(agg: Layers, workload: str, ctx: dict):
    """(metrics, absent): every per-layer metric, and why some are absent.

    An absent metric reads 0: its function no longer exists, the
    workload never calls it, or it does not apply to the workload.
    """
    metrics, absent = {}, {}
    for name, (unit, _, deps, value) in PER_LAYER.items():
        gone = [agg.absent[d] for d in deps if d in agg.absent]
        if gone:
            reason = gone[0]
        elif deps and not any(agg.calls[d] for d in deps):
            reason = f"not reached by {workload}"
        else:
            try:
                v = value(agg, ctx)
            except ZeroDivisionError:
                v = None
            reason = None if v is not None else f"does not apply to {workload}"
        if reason is not None:
            absent[name] = reason
            v = 0
        metrics[name] = {"value": v, "unit": unit}
    return metrics, absent


# ---------------------------------------------------------------------------
# entry point


def measure(bench: Bench, name: str, seconds: float):
    """End-to-end run: set-up probes, then whole passes for `seconds`."""
    workload = WORKLOADS[name]
    setup = bench.probe_setup()
    refs = refs_dir(bench.shift)
    start = perf_counter()
    passes = [bench.run_pass(workload, workload.jobs, False, refs)]
    # start another pass only if it should end within the run length
    while perf_counter() - start + passes[-1].elapsed_s <= seconds:
        passes.append(bench.run_pass(workload, workload.jobs, False, refs))
    setup += [s for p in passes for s in p.setup if not math.isnan(s)]
    median = statistics.median
    metrics = {
        "wall_s": median([p.wall_s for p in passes]),
        "cpu_s": median([p.cpu_s for p in passes]),
        "peak_rss_mb": median([p.rss_mb for p in passes]),
        "setup_s": median(setup),
        "rows_per_s": median([p.rows / p.wall_s if p.wall_s else 0.0
                              for p in passes]),
    }
    info = {"passes": len(passes), "setup_samples": len(setup)}
    return passes, {k: {"value": v, "unit": END_TO_END[k][0]}
                    for k, v in metrics.items()}, info


def trace(bench: Bench, name: str):
    """Traced run: serial with wrappers; plus an untraced pass at the
    workload's --jobs when that is above 1, for the parallel speed-up."""
    bench.probe_setup()  # fails early, without a result, if nothing imports
    workload = WORKLOADS[name]
    refs = refs_dir(bench.shift)
    passes, ctx = [], {}
    if workload.jobs > 1:
        plain = bench.run_pass(workload, workload.jobs, False, refs)
        passes.append(plain)
        if plain.failed == 0:
            ctx["parallel_wall_s"] = plain.wall_s
    traced = bench.run_pass(workload, 1, True, refs)
    passes.append(traced)
    metrics, absent = layer_metrics(aggregate(traced.reports), name, ctx)
    return passes, metrics, {"absent": absent}


def list_metrics():
    for name, (unit, better) in END_TO_END.items():
        print(f"{name}\t{unit}\t{better}\tend_to_end")
    for name, (unit, better, _, _) in PER_LAYER.items():
        print(f"{name}\t{unit}\t{better}\tper_layer")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true",
                    help="print every metric with its unit and direction")
    args = ap.parse_args(argv)
    if args.list:
        list_metrics()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    # a terminated run still stops its program (see Bench.launch)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    shift = args.seed % SEED_VARIANTS
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(work, shift, perf_counter() + RUN_DEADLINE_S)
    try:
        if args.trace:
            passes, metrics, info = trace(bench, args.workload)
        else:
            passes, metrics, info = measure(bench, args.workload, args.seconds)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "config_seed_shift": shift,
                      "fail_frac": failed / attempted, **info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
