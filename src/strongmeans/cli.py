"""Config-driven experiment runner with deterministic artifacts.

One JSON config describes one experiment run: which experiment, which
functions, which heights and orders.  `run` executes it and writes a CSV
of per-row results plus a JSON summary; both are byte-identical across
repeat runs and across parallelism levels, because every cell of the
(function x lambda) sweep is a pure function of the config and the merge
order is fixed.  Headline values per cell are recorded into a baseline
file on first run and compared against it afterwards.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import corpus, estimates
from .dyadic import DEFAULT_J_MAX
from .spectral import valle_poussin
from .suites import chain_suite, covering_suite, czd_suite

SCHEMA_VERSION = 1
BASELINE_TOLERANCE = 0.10

EXPERIMENTS = (
    "first_reduction",
    "second_reduction",
    "averaged_moment",
    "decay_kernel",
    "rect_moment",
    "p4_moment",
    "strong_means",
    "density",
    "covering_suite",
    "czd_suite",
)

# column layout of the per-row CSV, fixed per experiment
CSV_COLUMNS = {
    "first_reduction": ["fn_id", "lambda", "N", "avg_moment", "full_avg",
                        "measure_E", "ratio", "config_hash"],
    "second_reduction": ["fn_id", "lambda", "N", "avg_moment", "full_avg",
                         "measure_E", "ratio", "config_hash"],
    "averaged_moment": ["fn_id", "lambda", "N", "avg_moment", "full_avg",
                        "measure_E", "ratio", "config_hash"],
    "p4_moment": ["fn_id", "lambda", "N", "avg_moment", "full_avg",
                  "measure_E", "ratio", "config_hash"],
    "decay_kernel": ["fn_id", "lambda", "s", "N", "moment", "config_hash"],
    "rect_moment": ["fn_id", "geometry", "lambda", "N", "avg_moment",
                    "full_avg", "measure_E", "ratio", "config_hash"],
    "strong_means": ["fn_id", "eps", "N", "measure", "config_hash"],
    "density": ["kind", "N", "density", "config_hash"],
    "covering_suite": ["kind", "trials", "violations", "components",
                       "config_hash"],
    "czd_suite": ["kind", "trials", "failures", "mean_bad_cells",
                  "config_hash"],
}


# integer options: experiment -> name -> (default, least, greatest).  The
# chain scan builds n x n matrices with n = 2**(L+1) - 2, so its level
# stays small.
INT_OPTIONS = {
    "czd_suite": {"trials": (10000, 1, None)},
    "covering_suite": {
        "trials_1d": (10000, 1, None),
        "trials_2d": (1000, 1, None),
        "max_level_1d": (12, 1, DEFAULT_J_MAX),
        "max_level_2d": (7, 1, DEFAULT_J_MAX),
        "chain_level": (6, 1, 8),
    },
    "density": {"N_max": (10**6, 1, None), "base": (4, 2, None)},
}

# bytes one float lattice of the density run may take (N_max**d
# entries); the run holds a few arrays of that size at once
DENSITY_LATTICE_BUDGET = 1 << 25


class ConfigError(ValueError):
    """Config file is structurally or semantically invalid."""


def _positive_numbers(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) and x > 0
        for x in value)


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    J: int = 12
    d: int = 1
    lams: list = field(default_factory=lambda: [8.0])
    schedule: list | None = None
    s_values: list = field(default_factory=list)
    corpus: dict = field(default_factory=dict)
    output: str | None = None
    options: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        if "experiment" not in raw:
            raise ConfigError("missing field: experiment")
        if "seed" not in raw:
            raise ConfigError("missing field: seed (runs must be reproducible)")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer")
        if not 1 <= self.J <= DEFAULT_J_MAX:
            raise ConfigError(f"J must lie in [1, {DEFAULT_J_MAX}]")
        if self.d not in (1, 2):
            raise ConfigError("d must be 1 or 2")
        if self.schedule is not None:
            if not isinstance(self.schedule, list) or any(
                    type(N) is not int for N in self.schedule):
                raise ConfigError("schedule entries must be integers")
            sched = self.schedule
            if sched != sorted(sched) or len(set(sched)) != len(sched):
                raise ConfigError("schedule must be strictly increasing")
            if sched and sched[0] < 1:
                raise ConfigError("schedule entries must be positive")
            if sched and self.experiment not in ("density",):
                if sched[-1] > (1 << (self.J - 1)):
                    raise ConfigError(
                        f"schedule exceeds stored bandwidth 2**{self.J - 1}")
            # the decay sweep smooths at order N, which doubles the band
            if sched and self.experiment == "decay_kernel":
                if sched[-1] > (1 << (self.J - 2)):
                    raise ConfigError(
                        "decay_kernel smooths at order N; schedule must stay"
                        f" within 2**{self.J - 2}")
        if not _positive_numbers(self.lams):
            raise ConfigError("lams must be a list of positive real numbers")
        if not isinstance(self.options, dict):
            raise ConfigError("options must be a JSON object")
        if not isinstance(self.corpus, dict):
            raise ConfigError("corpus must be a JSON object")
        vp = self.corpus.get("vp")
        if vp is not None and (type(vp) is not int or vp < 1):
            raise ConfigError("corpus: vp must be a positive integer")
        for name, (default, least, greatest) in INT_OPTIONS.get(
                self.experiment, {}).items():
            value = self.options.get(name, default)
            if (type(value) is not int or value < least
                    or (greatest is not None and value > greatest)):
                bounds = (f"in [{least}, {greatest}]" if greatest is not None
                          else f">= {least}")
                raise ConfigError(
                    f"{self.experiment}: {name} must be an integer {bounds}")
        if self.experiment == "density":
            N_max = self.options.get("N_max", INT_OPTIONS["density"]["N_max"][0])
            need = 8 * N_max**self.d
            if need > DENSITY_LATTICE_BUDGET:
                raise ConfigError(
                    f"density: a {self.d}-d lattice to N_max = {N_max} needs"
                    f" {need / 2**20:.0f} MB, over the"
                    f" {DENSITY_LATTICE_BUDGET >> 20} MB budget")
        if self.experiment == "averaged_moment":
            p = self.options.get("p", 2)
            if type(p) is not int or p not in (2, 4):
                raise ConfigError("averaged_moment: p must be the integer 2 or 4")

    def canonical(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "J": self.J,
            "d": self.d,
            "lams": list(self.lams),
            "schedule": list(self.schedule) if self.schedule else None,
            "s_values": list(self.s_values),
            "corpus": self.corpus,
            "options": self.options,
        }

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def default_schedule(self) -> list:
        return list(estimates.dyadic_schedule(1 << (self.J - 2)))


def fmt(v) -> str:
    """Serialization of one CSV field: 12 significant digits for floats,
    p/q for exact rationals."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    if isinstance(v, bool):
        return str(int(v))
    return str(v)


def build_functions(cfg: ExperimentConfig) -> list:
    """Deterministic (fn_id, GridFunction) list for a config."""
    sel = cfg.corpus
    fams = sel.get("families")
    n_random = sel.get("n_random", 2)
    fns = corpus.standard_corpus(cfg.J, seed=cfg.seed, d=cfg.d,
                                 n_random=n_random)
    if fams:
        fns = [(fid, f) for fid, f in fns if fid.split("-")[0] in fams]
    if not fns:
        raise ConfigError("corpus selection is empty")
    vp = sel.get("vp")
    if vp is not None:
        fns = [(f"{fid}-vp{vp}", valle_poussin(f, vp)) for fid, f in fns]
    return fns


# ---------------------------------------------------------------------------
# per-cell runners: pure functions of (config, fn_id, lam)


def _moment_rows(cfg, fn_id, reports, extra=()):
    rows = []
    for rep in reports:
        rows.append({
            "fn_id": fn_id, "lambda": rep.lam, "N": rep.N,
            "avg_moment": rep.avg_moment, "full_avg": rep.full_torus_avg,
            "measure_E": rep.measure_E, "ratio": rep.ratio,
            "config_hash": cfg.config_hash, **dict(extra),
        })
    return rows


def _check_measure_bound(rep, f, c=5) -> bool:
    bound = Fraction(c) ** rep.exceptional.dim * Fraction(f.l1()) / Fraction(rep.lam)
    return rep.measure_E <= bound


def run_cell(cfg: ExperimentConfig, fn_id: str, f, lam: float):
    """Rows + summary fragment for one (function, lambda) cell."""
    exp = cfg.experiment
    sched = cfg.schedule or cfg.default_schedule()
    key = f"{fn_id}|{fmt(lam)}"
    inv = {}

    if exp == "first_reduction":
        rep = estimates.verify_first_reduction(f, lam, fn_id=fn_id)
        rows = _moment_rows(cfg, fn_id, [rep])
        inv["ratio_le_one"] = bool(rep.metadata["passed"])
        return rows, {key: rep.ratio}, inv

    if exp == "second_reduction":
        rows, best = [], 0.0
        for N in sched:
            fN = valle_poussin(f, N) if cfg.corpus.get("vp") is None else f
            rep = estimates.verify_second_reduction(fN, lam, N, fn_id=fn_id)
            rows += _moment_rows(cfg, fn_id, [rep])
            best = max(best, rep.ratio)
            inv.setdefault("full_ge_restricted", True)
            if rep.full_torus_avg < rep.avg_moment - 1e-12:
                inv["full_ge_restricted"] = False
        return rows, {key: best}, inv

    if exp in ("averaged_moment", "p4_moment"):
        p = 4 if exp == "p4_moment" else cfg.options.get("p", 2)
        reports = estimates.averaged_moment(f, lam, sched[-1], p=p,
                                            schedule=sched, fn_id=fn_id)
        rows = _moment_rows(cfg, fn_id, reports)
        inv["measure_bound_exact"] = _check_measure_bound(reports[0], f)
        inv["full_ge_restricted"] = all(
            r.full_torus_avg >= r.avg_moment - 1e-12 for r in reports)
        head = (max(r.avg_moment for r in reports) if exp == "p4_moment"
                else reports[-1].ratio)
        return rows, {key: head}, inv

    if exp == "decay_kernel":
        rows, values = [], {}
        Ns = tuple(sched)
        for s in cfg.s_values:
            slope, reports = estimates.decay_slope(f, lam, s, Ns=Ns,
                                                   fn_id=fn_id)
            for rep in reports:
                rows.append({
                    "fn_id": fn_id, "lambda": lam, "s": s, "N": rep.N,
                    "moment": rep.avg_moment, "config_hash": cfg.config_hash,
                })
            values[f"{key}|s={fmt(s)}"] = slope
        return rows, values, inv

    if exp == "rect_moment":
        rows, values = [], {}
        for geometry in ("cube", "slab"):
            reports = estimates.averaged_moment_rect(
                f, lam, sched[-1], schedule=sched, fn_id=fn_id,
                geometry=geometry)
            rows += _moment_rows(cfg, fn_id, reports,
                                 extra=[("geometry", geometry)])
            values[f"{key}|{geometry}"] = reports[-1].ratio
            if geometry == "cube":
                inv["measure_bound_exact"] = _check_measure_bound(reports[0], f)
        return rows, values, inv

    raise ConfigError(f"experiment {exp} has no per-cell runner")


# ---------------------------------------------------------------------------
# whole-experiment runners (no lambda fan-out)


def run_strong_means(cfg: ExperimentConfig):
    opts = cfg.options
    eps_factors = opts.get("eps_factors", [0.5, 0.25])
    r = opts.get("r", 2)
    lam_grid = opts.get("lam_grid", list(estimates.DEFAULT_LAM_GRID))
    if not eps_factors or not _positive_numbers(eps_factors):
        raise ConfigError("strong_means: eps_factors must be a non-empty list"
                          " of positive numbers")
    if isinstance(r, bool) or r not in (2, 4):
        raise ConfigError("strong_means: r must be 2 or 4")
    if not _positive_numbers(lam_grid):
        raise ConfigError("strong_means: lam_grid must be a list of positive"
                          " numbers")
    sched = tuple(cfg.schedule or cfg.default_schedule())
    rows, values, inv = [], {}, {"superlevel_non_increasing": True}
    for fn_id, f in build_functions(cfg):
        scale = f.linf() ** 2
        reports = estimates.strong_means_measure(
            f, [factor * scale for factor in eps_factors], sched, r=int(r),
            lam_grid=tuple(lam_grid), fn_id=fn_id)
        for rep in reports:
            for N, m in zip(rep.schedule, rep.measures):
                rows.append({"fn_id": fn_id, "eps": rep.eps, "N": N,
                             "measure": m, "config_hash": cfg.config_hash})
            if any(b > a + 1e-15 for a, b in zip(rep.measures,
                                                 rep.measures[1:])):
                inv["superlevel_non_increasing"] = False
        # the weak-type functional does not involve eps, so one record
        # per function suffices
        for lam, ratio in zip(reports[0].lam_grid, reports[0].weak_ratios):
            values[f"{fn_id}|{fmt(lam)}"] = ratio
    return rows, values, inv


def run_density(cfg: ExperimentConfig):
    opts = cfg.options
    kind = opts.get("kind", "quarter_power")
    s = float(opts.get("s", 1.0))
    N_max = opts.get("N_max", INT_OPTIONS["density"]["N_max"][0])
    base = opts.get("base", INT_OPTIONS["density"]["base"][0])
    sched = [base**k for k in range(1, 64) if base**k <= N_max]
    if cfg.d == 1:
        n = np.arange(1, N_max + 1, dtype=float)
        values = s + (n ** -0.25 if kind == "quarter_power"
                      else np.zeros_like(n))
    else:
        i = np.arange(1, N_max + 1, dtype=float)
        rad = np.hypot(i[:, None], i[None, :])
        values = s + (rad ** -0.25 if kind == "quarter_power"
                      else np.zeros_like(rad))
    run = estimates.density_subsequence(values, s, tuple(sched))
    tag = f"{kind}-{cfg.d}d"
    rows = [{"kind": tag, "N": N, "density": dens,
             "config_hash": cfg.config_hash}
            for N, dens in zip(run.eval_points, run.density)]
    inv = {
        "membership": bool(run.check_membership(values)),
        "density_floor": bool(run.density_floor_ok()),
    }
    return rows, {}, inv


def run_suite(cfg: ExperimentConfig):
    opts = {name: cfg.options.get(name, default)
            for name, (default, _, _) in INT_OPTIONS[cfg.experiment].items()}
    if cfg.experiment == "covering_suite":
        res = covering_suite(opts["trials_1d"], opts["trials_2d"],
                             seed=cfg.seed,
                             max_level_1d=opts["max_level_1d"],
                             max_level_2d=opts["max_level_2d"])
        chain = chain_suite(opts["chain_level"])
        rows = [
            {"kind": "families", "trials": res.trials,
             "violations": sum(res.failures.values()),
             "components": res.stats["components"],
             "config_hash": cfg.config_hash},
            {"kind": "chains", "trials": chain.trials,
             "violations": sum(chain.failures.values()),
             "components": chain.stats["outer_pairs"],
             "config_hash": cfg.config_hash},
        ]
        inv = {"containment": res.ok, "bridge_length": chain.ok}
        return rows, {}, inv
    res = czd_suite(opts["trials"], J=cfg.J, seed=cfg.seed, dim=cfg.d)
    rows = [{"kind": res.suite, "trials": res.trials,
             "failures": sum(res.failures.values()),
             "mean_bad_cells": res.stats["mean_bad_cells"],
             "config_hash": cfg.config_hash}]
    return rows, {}, {"invariants": res.ok}


# ---------------------------------------------------------------------------
# orchestration


def execute(cfg: ExperimentConfig, jobs: int = 1):
    """Run all cells, merge deterministically.  Returns rows, headline
    values keyed for the baseline file, and invariant flags."""
    exp = cfg.experiment
    if exp == "strong_means":
        return run_strong_means(cfg)
    if exp == "density":
        return run_density(cfg)
    if exp in ("covering_suite", "czd_suite"):
        return run_suite(cfg)

    # the corpus is built once per run; each cell carries its function to
    # the worker
    cells = [(cfg, fid, f, lam) for fid, f in build_functions(cfg)
             for lam in cfg.lams]
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(run_cell, *zip(*cells), chunksize=1))
    else:
        results = [run_cell(*cell) for cell in cells]

    rows, values, inv = [], {}, {}
    for cell_rows, cell_values, cell_inv in results:
        rows += cell_rows
        values.update(cell_values)
        for k, ok in cell_inv.items():
            inv[k] = inv.get(k, True) and ok
    return rows, values, inv


def write_csv(path: Path, experiment: str, rows: list):
    cols = CSV_COLUMNS[experiment]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(cols)
        for row in rows:
            w.writerow([fmt(row[c]) for c in cols])


def compare_baseline(fresh: dict, recorded: dict, tol=BASELINE_TOLERANCE):
    """Relative drift of headline values against the recorded ones."""
    deltas, violations = {}, {}
    for k, base in recorded.items():
        if k not in fresh:
            violations[k] = "missing"
            continue
        ref = max(abs(base), 1e-30)
        delta = (fresh[k] - base) / ref
        deltas[k] = delta
        if abs(delta) > tol:
            violations[k] = delta
    for k in fresh:
        if k not in recorded:
            violations[k] = "unrecorded"
    return deltas, violations


def cmd_run(args) -> int:
    cfg_path = Path(args.config)
    try:
        raw = json.loads(cfg_path.read_text(encoding="utf-8"))
        cfg = ExperimentConfig.from_dict(raw)
    except (OSError, json.JSONDecodeError, ConfigError, TypeError) as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    base_dir = Path(args.baselines)
    name = cfg.output or cfg.experiment

    try:
        rows, values, inv = execute(cfg, jobs=args.jobs)
    except (ConfigError, ValueError) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 2
    write_csv(out_dir / f"{name}.csv", cfg.experiment, rows)

    baseline = {"status": "none"}
    base_path = base_dir / f"{cfg.experiment}.json"
    if values:
        if args.record_baseline or not base_path.exists():
            base_dir.mkdir(parents=True, exist_ok=True)
            payload = {
                "experiment": cfg.experiment,
                "config_hash": cfg.config_hash,
                "tolerance": BASELINE_TOLERANCE,
                "values": {k: float(v) for k, v in sorted(values.items())},
            }
            base_path.write_text(
                json.dumps(payload, sort_keys=True, indent=1) + "\n",
                encoding="utf-8")
            baseline = {"status": "recorded", "path": base_path.name}
        else:
            recorded = json.loads(base_path.read_text(encoding="utf-8"))
            deltas, violations = compare_baseline(values, recorded["values"])
            baseline = {
                "status": "compared",
                "max_rel_delta": max((abs(v) for v in deltas.values()),
                                     default=0.0),
                "violations": {k: (v if isinstance(v, str) else float(v))
                               for k, v in sorted(violations.items())},
            }

    ok = all(inv.values()) and baseline.get("violations", {}) == {} \
        if baseline["status"] == "compared" else all(inv.values())
    summary = {
        "experiment": cfg.experiment,
        "schema_version": SCHEMA_VERSION,
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "rows": len(rows),
        "invariants": {k: bool(v) for k, v in sorted(inv.items())},
        "values": {k: float(v) for k, v in sorted(values.items())},
        "baseline": baseline,
        "pass": bool(ok),
    }
    (out_dir / f"{name}.summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=1) + "\n",
        encoding="utf-8")
    print(f"{cfg.experiment}: rows={len(rows)} pass={ok} "
          f"baseline={baseline['status']}")
    return 0 if ok else 1


def cmd_list(_args) -> int:
    for name in EXPERIMENTS:
        print(name)
    return 0


def cmd_verify_baselines(args) -> int:
    out_dir = Path(args.dir)
    base_dir = Path(args.baselines)
    failures = 0
    seen = 0
    for summary_path in sorted(out_dir.glob("*.summary.json")):
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        values = summary.get("values") or {}
        if not values:
            continue
        base_path = base_dir / f"{summary['experiment']}.json"
        if not base_path.exists():
            print(f"{summary['experiment']}: no committed baseline")
            failures += 1
            continue
        recorded = json.loads(base_path.read_text(encoding="utf-8"))
        _, violations = compare_baseline(values, recorded["values"])
        seen += 1
        if violations:
            failures += 1
            print(f"{summary['experiment']}: {len(violations)} drift(s)")
            for k, v in sorted(violations.items()):
                print(f"  {k}: {v if isinstance(v, str) else format(v, '.3g')}")
        else:
            print(f"{summary['experiment']}: ok "
                  f"({len(values)} values within {BASELINE_TOLERANCE:.0%})")
    if seen == 0 and failures == 0:
        print("nothing to verify")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="strongmeans")
    sub = ap.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("config")
    runp.add_argument("--out", default="out")
    runp.add_argument("--baselines", default="baselines")
    runp.add_argument("--jobs", type=int, default=1)
    runp.add_argument("--record-baseline", action="store_true")
    runp.set_defaults(func=cmd_run)

    listp = sub.add_parser("list-experiments", help="print experiment ids")
    listp.set_defaults(func=cmd_list)

    verp = sub.add_parser("verify-baselines",
                          help="compare run summaries against baselines")
    verp.add_argument("dir")
    verp.add_argument("--baselines", default="baselines")
    verp.set_defaults(func=cmd_verify_baselines)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
