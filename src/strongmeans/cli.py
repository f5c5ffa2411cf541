"""Config-driven experiment runner with deterministic artifacts.

One JSON config describes one experiment run.  Each experiment is one
record in `EXPERIMENTS`: CSV columns, option schema, the config fields
it reads (which fix its fan-out and schedule), schedule bound and
runner.  `run` writes a CSV of per-row results plus a JSON summary,
byte-identical across repeat runs and parallelism levels, because every
function's results at all its heights are a pure function of the config
and the merge order is fixed.  Headline values per function and height
are recorded into a baseline file on first run and compared against it
afterwards.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import re
import sys
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from . import corpus, estimates
from .covering import exhaustive_chain_scan
from .dyadic import DEFAULT_J_MAX
from .spectral import valle_poussin
from .suites import covering_suite, czd_suite

SCHEMA_VERSION = 1
BASELINE_TOLERANCE = 0.10

# lattice entries (N_max**d) one density run may walk; the walk holds
# only a few blocks at once, so this bounds work, not memory
DENSITY_LATTICE_BUDGET = 1 << 22
# samples a 2-d corpus run may hold at once: its 1 + 2 n_random functions,
# n**2 = 4**J each, or rect_moment's M x M complement weights, M = 2n
CORPUS_2D_BUDGET = 1 << 19
# log2 of the samples one czd_suite trial may take (2**(d J))
CZD_TRIAL_BITS = 16
# entries of a swept list: at J = 14 a height takes about 0.64 s of p4_moment
# per function, an s value 3 ms of decay_kernel per function, height and
# order, and an order 6 ms of second_reduction per function and height
SWEEP_LIMIT = 16


class ConfigError(ValueError):
    """Config file is structurally or semantically invalid."""


def _reals(v, above=-math.inf) -> bool:
    """Numbers above `above` that floats hold finitely: no bool, NaN, infinity
    or integer past the float range (on which `math.isfinite` would raise)."""
    return isinstance(v, list) and all(type(x) in (int, float) and x > above
                                       and abs(x) <= sys.float_info.max for x in v)


def _repeated(values):
    """The first entry of `values` equal to an earlier one, else None, in one
    pass: 8 and 8.0 are equal and hash alike, so they share a first index."""
    first = {}
    return next((x for i, x in enumerate(values) if first.setdefault(x, i) != i), None)


@dataclass(frozen=True)
class Option:
    """A config field or an option: its default, `ok`, a test of the value
    alone, and `rule`, which completes "<name> ..." where `ok` fails (after
    "<experiment>: " for an option, "corpus: " for a corpus field).  `fits`,
    checked in order once `ok` holds, are the rules that read other fields
    too: each maps (value, config, experiment) to what is wrong, or None."""

    default: object
    ok: Callable[[object], bool]
    rule: str
    fits: tuple = ()


def _problem(table: dict, given: dict, cfg, exp, prefix="", noun="fields"):
    """What is first wrong with the `given` entries of an Option table:
    a name it lacks, or a value its Option refuses; else None."""
    unknown = sorted(set(given) - set(table))
    if unknown:
        return f"{prefix}unknown {noun} {unknown}; it takes {sorted(table)}"
    for key, value in given.items():
        if not table[key].ok(value):
            return f"{prefix}{key} {table[key].rule}"
        for fit in table[key].fits:
            problem = fit(value, cfg, exp)
            if problem:
                return prefix + problem
    return None


def _integer(default: int, least: int, greatest: int | None = None, fits=()) -> Option:
    rule = (f"must be an integer >= {least}" if greatest is None
            else f"must be an integer in [{least}, {greatest}]")
    return Option(default, lambda v: type(v) is int and v >= least
                  and (greatest is None or v <= greatest), rule, fits)


def _sweep(key: str, default, floor: float, rule: str, what: str) -> Option:
    """The numbers above `floor` that a run sweeps, at most SWEEP_LIMIT of them:
    an empty list would write a header-only CSV and pass, and a repeat's rows
    share a summary key (or, for an eps factor, repeat rows)."""
    return Option(default, lambda v: _reals(v, floor), rule, fits=(
        lambda v, c, e: None if v else f"{key} must hold at least one {what}",
        lambda v, c, e: None if len(v) <= SWEEP_LIMIT else
        f"{key} must hold at most {SWEEP_LIMIT} {what}s, and it holds {len(v)}",
        lambda v, c, e: None if (x := _repeated(v)) is None else
        f"{key} must not repeat a {what}: {fmt(x)} is given more than once"))


def _corpus_fields(d: int) -> dict:
    """The `corpus` fields of a d-dimensional config: the d-dimensional
    families kept (empty keeps all), the random draws per family, and a
    delayed-mean order whose band 2 vp - 1 must fit the stored 2**(J-1)."""
    names = list(corpus.FAMILIES[d])
    return {
        "families": Option([], lambda v: isinstance(v, list) and all(
            isinstance(x, str) and x in names for x in v),
            f"must be a list of names from {names} (the d = {d} families)"),
        # per function at J = 14: about 1 s of p4_moment, 1.5 s of strong_means
        "n_random": _integer(2, 0, 16),
        "vp": Option(None, lambda v: v is None or type(v) is int and v >= 1,
                     "must be a positive integer", fits=(
            lambda v, c, e: None if v is None or 2 * v - 1 <= 1 << (c.J - 1) else
            f"vp must be a positive integer <= {(2 ** (c.J - 1) + 1) // 2} at J ="
            f" {c.J} (its band 2 vp - 1 must fit the stored bandwidth 2**{c.J - 1})",)),
    }


CORPUS = {d: _corpus_fields(d) for d in corpus.FAMILIES}


# every config field but `experiment`, in the order they are checked, so
# that a field's rules may read the fields above it
FIELDS = {
    "seed": Option(None, lambda v: type(v) is int, "must be an integer"),
    "J": _integer(12, 1, DEFAULT_J_MAX),
    "d": _integer(1, 1, 2, fits=(lambda v, c, e: None if v in e.dims else
                                 f"{c.experiment}: runs in d = {e.dims[0]} only",)),
    "lams": _sweep("lams", [8.0], 0, "must be a list of positive real numbers", "height"),
    # the orders fit the experiment's band; the default ones need J >= 7
    "schedule": Option(None, lambda v: v is None or isinstance(v, list) and all(
        type(N) is int for N in v), "entries must be integers", fits=(
        lambda v, c, e: None if not v or len(v) <= SWEEP_LIMIT else
        f"schedule must hold at most {SWEEP_LIMIT} orders, and it holds {len(v)}",
        lambda v, c, e: None if not v or v == sorted(set(v))
        else "schedule must be strictly increasing",
        lambda v, c, e: None if not v or v[0] >= 1
        else "schedule entries must be positive",
        lambda v, c, e: None if not v or v[-1] <= 2 ** (c.J - e.band) else
        f"{c.experiment}: schedule exceeds the usable bandwidth 2**{c.J - e.band}",
        lambda v, c, e: None if v or c.J >= 7 else
        f"{c.experiment}: with no schedule, J must be at least 7 (the"
        " default schedule is 32, 64, ..., 2**(J-2))")),
    "s_values": _sweep("s_values", [], 1, "must be a list of real numbers above 1", "value"),
    # with random draws the corpus draws every family, whichever it keeps
    "corpus": Option({}, lambda v: isinstance(v, dict), "must be a JSON object", fits=(
        lambda v, c, e: _problem(CORPUS[c.d], v, c, e, "corpus: "),
        lambda v, c, e: next((
            f"corpus: the {key} family needs J >= {family.least_J}, and J is {c.J}"
            " (every family is drawn, whichever are kept)"
            for key, family in corpus.FAMILIES[c.d].items() if c.J < family.least_J
            and v.get("n_random", CORPUS[c.d]["n_random"].default)), None),
        # without draws only the unit family, the first, has a function
        lambda v, c, e: None if not v.get("families")
        or v.get("n_random", CORPUS[c.d]["n_random"].default)
        or (unit := next(iter(corpus.FAMILIES[c.d]))) in v["families"] else
        f"corpus: the selection is empty: families {v['families']} leave out"
        f" {unit}, the one family with a function when n_random is 0",
        # every corpus function has mean |f| 1, which no lower height stops;
        # the delayed means that vp and second_reduction stop may average less
        lambda v, c, e: None if "lams" not in e.reads or v.get("vp") is not None
        or c.experiment == "second_reduction" or min(c.lams) >= 1 else
        f"corpus: every function has mean |f| 1, above the height {fmt(min(c.lams))}"
        " in lams (heights below 1 need vp)",
        lambda v, c, e: None if c.d == 1 or (size := 1 + 2 * v.get(
            "n_random", CORPUS[2]["n_random"].default) << 2 * c.J) <= CORPUS_2D_BUDGET
        else f"corpus: a 2-d run at J = {c.J} holds {size} samples in its functions,"
        f" over the budget of {CORPUS_2D_BUDGET}")),
    # a plain file name in --out
    "output": Option(None, lambda v: v is None or isinstance(v, str) and re.fullmatch(
        r"[A-Za-z0-9_-][A-Za-z0-9_.-]*", v) is not None,
        "must be a file name of letters, digits, '_', '-' and '.', not starting"
        " with '.'"),
    "options": Option({}, lambda v: isinstance(v, dict), "must be a JSON object", fits=(
        lambda v, c, e: _problem(e.options, v, c, e, f"{c.experiment}: ", "options"),)),
}


# the config fields every experiment reads besides `experiment`; each
# `Experiment` lists the others it reads
COMMON_FIELDS = ("seed", "output", "options")


@dataclass(frozen=True)
class Experiment:
    """Everything the CLI knows about one experiment.  `reads` names the
    config fields beyond COMMON_FIELDS that it reads; a config that sets
    any other is refused.  One that reads "corpus" has `run(cfg, fn_id,
    f)`, which runs one corpus function, the unit `execute` fans out, at
    every height of the config, so the work the heights share is done
    once; its rows come in height order, its values keyed `fn_id|lambda`
    (plus a suffix where a height has several).  Any other has `run(cfg)`,
    which runs it whole.  Both return rows, headline values and invariant
    flags.  A schedule it reads stays within 2**(J - band), and `d` within
    `dims`.  `check` sees the whole config."""

    columns: tuple
    run: Callable
    band: int = 1
    options: dict = field(default_factory=dict)
    check: Callable | None = None
    reads: tuple = ("J", "d", "lams", "schedule", "corpus")
    dims: tuple = (1,)


def _default(key: str):
    return field(default_factory=lambda: copy.deepcopy(FIELDS[key].default))


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    J: int = _default("J")
    d: int = _default("d")
    lams: list = _default("lams")
    schedule: list | None = _default("schedule")
    s_values: list = _default("s_values")
    corpus: dict = _default("corpus")
    output: str | None = _default("output")
    options: dict = _default("options")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        for key, why in (("experiment", ""), ("seed", " (runs must be reproducible)")):
            if key not in raw:
                raise ConfigError(f"missing field: {key}{why}")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self):
        """Raise a ConfigError naming the first fault unless every field
        the experiment reads passes its Option and the experiment's
        check, and every other field keeps its default."""
        name = self.experiment
        exp = EXPERIMENTS.get(name) if isinstance(name, str) else None
        if exp is None:
            raise ConfigError(f"unknown experiment {name!r}")
        reads = COMMON_FIELDS + exp.reads
        problem = _problem(FIELDS, {k: getattr(self, k) for k in FIELDS if k in reads},
                           self, exp)
        if problem:
            raise ConfigError(problem)
        if exp.check is not None:
            exp.check(self)
        # a field set away from its default that the run never reads
        # would only move config_hash, so it is compared as hashed: in
        # JSON, where 8 and 8.0 differ
        given = self.canonical()
        unread = sorted(k for k in FIELDS if k not in reads and json.dumps(
            given[k], sort_keys=True) != json.dumps(FIELDS[k].default, sort_keys=True))
        if unread:
            raise ConfigError(f"{name}: unread config fields {unread}; it reads"
                              f" {sorted(exp.reads)} besides {list(COMMON_FIELDS)}")

    def option(self, name: str):
        """A given option, else its schema default."""
        return self.options.get(name, EXPERIMENTS[self.experiment].options[name].default)

    def canonical(self) -> dict:
        """Every field but `output`; an empty schedule reads as none."""
        fields = {k: getattr(self, k) for k in self.__dataclass_fields__ if k != "output"}
        return {**fields, "schedule": self.schedule or None}

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def run_schedule(self) -> list | None:
        """The given schedule, else 32, 64, ..., 2**(J-2); None for an
        experiment that reads no schedule."""
        if "schedule" not in EXPERIMENTS[self.experiment].reads:
            return None
        return self.schedule or [1 << k for k in range(5, self.J - 1)]


def fmt(v) -> str:
    """One CSV field: 12 significant digits for floats, p/q for rationals."""
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    if isinstance(v, bool):
        return str(int(v))
    return str(v)


def build_functions(cfg: ExperimentConfig) -> list:
    """Deterministic (fn_id, GridFunction) list for a config."""
    sel = cfg.corpus
    fns = corpus.standard_corpus(
        cfg.J, seed=cfg.seed, d=cfg.d,
        n_random=sel.get("n_random", CORPUS[cfg.d]["n_random"].default))
    fams = sel.get("families")
    if fams:
        fns = [(fid, f) for fid, f in fns if fid.split("-")[0] in fams]
    vp = sel.get("vp")
    if vp is not None:
        fns = [(f"{fid}-vp{vp}", valle_poussin(f, vp)) for fid, f in fns]
    return fns


# ---------------------------------------------------------------------------
# function runners: pure functions of (config, fn_id, f), at every height


def _merge(results):
    """(rows, values, invariants) triples folded in order: rows
    concatenate, values join, and a flag holds when it holds in each."""
    rows, values, inv = [], {}, {}
    for part_rows, part_values, part_inv in results:
        rows += part_rows
        values.update(part_values)
        for k, ok in part_inv.items():
            inv[k] = inv.get(k, True) and ok
    return rows, values, inv


def _key(fn_id: str, lam) -> str:
    return f"{fn_id}|{fmt(lam)}"


MOMENT_COLUMNS = ("fn_id", "lambda", "N", "avg_moment", "full_avg",
                  "measure_E", "ratio", "config_hash")


def _moment_rows(fn_id, reports, **extra):
    return [{"fn_id": fn_id, "lambda": rep.lam, "N": rep.N,
             "avg_moment": rep.avg_moment, "full_avg": rep.full_torus_avg,
             "measure_E": rep.measure_E, "ratio": rep.ratio, **extra}
            for rep in reports]


def _check_measure_bound(rep, f) -> bool:
    exc = rep.exceptional
    return rep.measure_E <= (Fraction(exc.dilation) ** exc.dim
                             * Fraction(f.l1()) / Fraction(rep.lam))


def _full_ge_restricted(reports) -> bool:
    return all(r.full_torus_avg >= r.avg_moment - 1e-12 for r in reports)


def _vp_within_schedule(cfg: ExperimentConfig):
    # with vp, f is used as-is at every order N
    vp, first = cfg.corpus.get("vp"), cfg.run_schedule()[0]
    if vp is not None and vp > first:
        raise ConfigError(f"second_reduction: corpus vp {vp} exceeds the first order"
                          f" {first} (its band 2 vp - 1 must fit 2 N - 1 at every N)")


def _rect_weights(cfg: ExperimentConfig):
    # E's complement weights are one M x M matrix, M = 2**(J+1)
    if 4 << 2 * cfg.J > CORPUS_2D_BUDGET:
        raise ConfigError(f"rect_moment: at J = {cfg.J} the M x M complement weights hold"
                          f" {4 << 2 * cfg.J} samples, over the budget of {CORPUS_2D_BUDGET}")


def _first_reduction(cfg, fn_id, f):
    return _merge(
        (_moment_rows(fn_id, [rep]), {_key(fn_id, rep.lam): rep.ratio},
         {"ratio_le_one": rep.ratio <= 1 + 1e-12})
        for rep in estimates.verify_first_reduction(f, cfg.lams))


def _second_reduction(cfg, fn_id, f):
    smoothed = cfg.corpus.get("vp") is not None
    # one report per height at each order; each order smooths f once
    by_order = [estimates.verify_second_reduction(
        f if smoothed else valle_poussin(f, N), cfg.lams, N)
        for N in cfg.run_schedule()]
    return _merge(
        (_moment_rows(fn_id, reports),
         {_key(fn_id, lam): max(0.0, *(r.ratio for r in reports))},
         {"full_ge_restricted": _full_ge_restricted(reports)})
        for lam, reports in zip(cfg.lams, zip(*by_order)))


def _moment_curves(cfg, fn_id, f, p):
    """Every height's curve of the p-th moment from one `averaged_moment`
    call; its headline value is the last ratio at p = 2 and the largest
    moment at p = 4."""
    curves = estimates.averaged_moment(f, cfg.lams, cfg.run_schedule(), p=p,
                                       fn_id=fn_id)
    return _merge(
        (_moment_rows(fn_id, reports),
         {_key(fn_id, lam): reports[-1].ratio if p == 2
          else max(r.avg_moment for r in reports)},
         {"measure_bound_exact": _check_measure_bound(reports[0], f),
          "full_ge_restricted": _full_ge_restricted(reports)})
        for lam, reports in zip(cfg.lams, curves))


def _decay_kernel(cfg, fn_id, f):
    rows, values = [], {}
    slopes = estimates.decay_slope(f, cfg.lams, cfg.s_values,
                                   Ns=tuple(cfg.run_schedule()))
    for lam, at_lam in zip(cfg.lams, slopes):
        for s, (slope, reports) in zip(cfg.s_values, at_lam):
            rows += [{"fn_id": fn_id, "lambda": lam, "s": s, "N": rep.N,
                      "moment": rep.avg_moment} for rep in reports]
            values[f"{_key(fn_id, lam)}|s={fmt(s)}"] = slope
    return rows, values, {}


def _rect_moment(cfg, fn_id, f):
    return _merge(
        (_moment_rows(fn_id, c, geometry="cube")
         + _moment_rows(fn_id, s, geometry="slab"),
         {f"{_key(fn_id, lam)}|cube": c[-1].ratio,
          f"{_key(fn_id, lam)}|slab": s[-1].ratio},
         {"measure_bound_exact": _check_measure_bound(c[0], f)})
        for lam, (c, s) in zip(cfg.lams, estimates.averaged_moment_rect(
            f, cfg.lams, cfg.run_schedule(), fn_id=fn_id)))


def _strong_means(cfg, fn_id, f):
    scale = f.linf() ** 2
    rep = estimates.strong_means_measure(
        f, [factor * scale for factor in cfg.option("eps_factors")],
        tuple(cfg.run_schedule()), r=cfg.option("r"),
        lam_grid=tuple(cfg.option("lam_grid")), fn_id=fn_id)
    rows = [{"fn_id": fn_id, "eps": eps, "N": N, "measure": m}
            for eps, measures in zip(rep.eps, rep.measures)
            for N, m in zip(rep.schedule, measures)]
    # the weak-type functional does not involve eps, so one record per
    # function suffices
    values = {_key(fn_id, lam): ratio
              for lam, ratio in zip(rep.lam_grid, rep.weak_ratios)}
    return rows, values, {"superlevel_non_increasing": not any(
        b > a + 1e-15 for measures in rep.measures
        for a, b in zip(measures, measures[1:]))}


# ---------------------------------------------------------------------------
# whole-experiment runners (no corpus)


def _density_lattice(cfg: ExperimentConfig):
    N_max, base = cfg.option("N_max"), cfg.option("base")
    if N_max < base:
        raise ConfigError(f"density: N_max must be an integer >= base, which is {base}"
                          " (the schedule base, base**2, ... up to N_max needs a point)")
    entries = N_max**cfg.d
    if entries > DENSITY_LATTICE_BUDGET:
        raise ConfigError(
            f"density: a {cfg.d}-d lattice to N_max = {N_max} has"
            f" {entries} entries, over the budget of"
            f" {DENSITY_LATTICE_BUDGET} lattice entries")


def _density(cfg: ExperimentConfig):
    s, N_max, base = cfg.option("s"), cfg.option("N_max"), cfg.option("base")
    sched = [base**k for k in range(1, 64) if base**k <= N_max]

    def lattice(r0, r1, c0=0, c1=0):
        """s + |n|^(-1/4) over rows r0+1..r1 (by columns c0+1..c1 in 2-d)."""
        radius = np.arange(r0 + 1, r1 + 1, dtype=float)
        if cfg.d == 2:
            cols = np.arange(c0 + 1, c1 + 1, dtype=float)
            radius = np.hypot(radius[:, None], cols[None, :])
        return s + radius ** -0.25

    run = estimates.density_subsequence(lattice, N_max, cfg.d, s, tuple(sched))
    rows = [{"kind": f"{cfg.option('kind')}-{cfg.d}d", "N": N, "density": dens}
            for N, dens in zip(run.eval_points, run.density)]
    return rows, {}, {"membership": bool(run.check_membership(lattice)),
                      "density_floor": bool(run.density_floor_ok())}


def _covering_suite(cfg: ExperimentConfig):
    res = covering_suite(cfg.option("trials_1d"), cfg.option("trials_2d"),
                         seed=cfg.seed,
                         max_level_1d=cfg.option("max_level_1d"),
                         max_level_2d=cfg.option("max_level_2d"))
    scan = exhaustive_chain_scan(cfg.option("chain_level"))
    rows = [{"kind": "families", "trials": res.trials,
             "violations": sum(res.failures.values()),
             "components": res.stats["components"]},
            {"kind": "chains", "trials": scan.chains,
             "violations": len(scan.violations), "components": scan.outer_pairs}]
    return rows, {}, {"containment": res.ok, "bridge_length": not scan.violations}


def _czd_lattice(cfg: ExperimentConfig):
    # trials draw from the corpus families, each valid from its least J on
    least = max(f.least_J for f in corpus.FAMILIES[cfg.d].values())
    greatest = min(DEFAULT_J_MAX, CZD_TRIAL_BITS // cfg.d)
    if not least <= cfg.J <= greatest:
        raise ConfigError(
            f"czd_suite: J must lie in [{least}, {greatest}] for d = {cfg.d}"
            " (a trial draws up to 16 spike cells per axis and takes at"
            f" most 2**{CZD_TRIAL_BITS} samples)")


def _czd_suite(cfg: ExperimentConfig):
    res = czd_suite(cfg.option("trials"), J=cfg.J, seed=cfg.seed, dim=cfg.d)
    rows = [{"kind": res.suite, "trials": res.trials,
             "failures": sum(res.failures.values()),
             "mean_bad_cells": res.stats["mean_bad_cells"]}]
    return rows, {}, {"invariants": res.ok}


# ---------------------------------------------------------------------------
# the experiments, in `list-experiments` order


EXPERIMENTS = {
    "first_reduction": Experiment(MOMENT_COLUMNS, _first_reduction,
                                  reads=("J", "d", "lams", "corpus"), dims=(1, 2)),
    # each order smooths f at order N, which doubles the band
    "second_reduction": Experiment(MOMENT_COLUMNS, _second_reduction, band=2,
                                   check=_vp_within_schedule),
    "averaged_moment": Experiment(MOMENT_COLUMNS, partial(_moment_curves, p=2)),
    # the decay sweep smooths at order N, which doubles the band
    "decay_kernel": Experiment(
        ("fn_id", "lambda", "s", "N", "moment", "config_hash"),
        _decay_kernel, band=2,
        reads=("J", "d", "lams", "schedule", "s_values", "corpus")),
    "rect_moment": Experiment(
        ("fn_id", "geometry") + MOMENT_COLUMNS[1:], _rect_moment,
        check=_rect_weights, dims=(2,)),
    "p4_moment": Experiment(MOMENT_COLUMNS, partial(_moment_curves, p=4)),
    "strong_means": Experiment(
        ("fn_id", "eps", "N", "measure", "config_hash"), _strong_means,
        reads=("J", "d", "schedule", "corpus"), options={
            "eps_factors": _sweep("eps_factors", (0.5, 0.25), 0,
                                  "must be a list of positive real numbers", "factor"),
            "r": Option(2, lambda v: type(v) is int and v in (2, 4),
                        "must be the integer 2 or 4"),
            "lam_grid": _sweep("lam_grid", estimates.DEFAULT_LAM_GRID, 0,
                               "must be a list of positive real numbers", "height"),
        }),
    "density": Experiment(
        ("kind", "N", "density", "config_hash"), _density,
        check=_density_lattice, reads=("d",), dims=(1, 2), options={
            "kind": Option("quarter_power", lambda v: v == "quarter_power",
                           'must be "quarter_power"'),
            "s": Option(1.0, lambda v: _reals([v]), "must be a real number"),
            "N_max": _integer(10**6, 1),
            "base": _integer(4, 2),
        }),
    # the chain scan builds n x n matrices with n = 2**(L+1) - 2, so its
    # level stays small
    "covering_suite": Experiment(
        ("kind", "trials", "violations", "components", "config_hash"),
        _covering_suite, reads=(), options={
            # about 25 000 1-d and 2 500 2-d families a second at level 14
            "trials_1d": _integer(10000, 1, 10**6),
            "trials_2d": _integer(1000, 1, 10**5),
            "max_level_1d": _integer(12, 1, DEFAULT_J_MAX),
            "max_level_2d": _integer(7, 1, DEFAULT_J_MAX),
            "chain_level": _integer(6, 1, 8),
        }),
    "czd_suite": Experiment(
        ("kind", "trials", "failures", "mean_bad_cells", "config_hash"),
        _czd_suite, check=_czd_lattice,
        # about 1 500 trials a second at 1-d J = 14, 450 at 2-d J = 8
        reads=("J", "d"), dims=(1, 2), options={"trials": _integer(10000, 1, 10**5)}),
}


# ---------------------------------------------------------------------------
# orchestration


def execute(cfg: ExperimentConfig, jobs: int = 1):
    """Run the experiment and merge its functions' results
    deterministically.  Returns rows stamped with the config hash,
    headline values keyed for the baseline file, and invariant flags."""
    exp = EXPERIMENTS[cfg.experiment]
    if "corpus" not in exp.reads:
        results = [exp.run(cfg)]
    else:
        # the corpus is built once per run; each task carries its
        # function, with all of its heights, to the worker
        fns = build_functions(cfg)
        if jobs > 1 and len(fns) > 1:
            with ProcessPoolExecutor(max_workers=min(jobs, len(fns))) as ex:
                results = list(ex.map(exp.run, [cfg] * len(fns), *zip(*fns),
                                      chunksize=1))
        else:
            results = [exp.run(cfg, fid, f) for fid, f in fns]

    rows, values, inv = _merge(results)
    config_hash = cfg.config_hash
    for row in rows:
        row["config_hash"] = config_hash
    return rows, values, inv


def write_csv(path: Path, experiment: str, rows: list):
    cols = EXPERIMENTS[experiment].columns
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(cols)
        for row in rows:
            w.writerow([fmt(row[c]) for c in cols])


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def check_baseline(path: Path, experiment: str, config_hash: str, fresh: dict,
                   record: bool = False) -> dict:
    """The baseline status of a run's headline values: recorded at `path`
    when `record` is set, else compared with the values recorded there for
    the same config_hash (a key on one side only, or off by more than the
    relative tolerance, is a violation).  A file of another config, or no
    file (hash None), is named by its hash and compares nothing."""
    if record:
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_json(path, {"experiment": experiment, "config_hash": config_hash,
                           "tolerance": BASELINE_TOLERANCE,
                           "values": {k: float(v) for k, v in sorted(fresh.items())}})
        return {"status": "recorded", "path": path.name}
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if recorded.get("config_hash") != config_hash:
        return {"status": "unverified", "config_hash": recorded.get("config_hash")}
    base = recorded["values"]
    deltas = {k: (fresh[k] - b) / max(abs(b), 1e-30) for k, b in base.items() if k in fresh}
    return {"status": "compared",
            "max_rel_delta": max((abs(v) for v in deltas.values()), default=0.0),
            "violations": {**{k: "missing" for k in base if k not in fresh},
                           **{k: float(v) for k, v in deltas.items()
                              if abs(v) > BASELINE_TOLERANCE},
                           **{k: "unrecorded" for k in fresh if k not in base}}}


def cmd_run(args) -> int:
    try:
        cfg = ExperimentConfig.from_dict(
            json.loads(Path(args.config).read_text(encoding="utf-8")))
    except (OSError, json.JSONDecodeError, ConfigError) as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2
    try:
        return _run(cfg, args)
    except ValueError as e:  # a ConfigError too
        print(f"run failed: {e}", file=sys.stderr)
        return 2


def _run(cfg: ExperimentConfig, args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = cfg.output or cfg.experiment
    rows, values, inv = execute(cfg, jobs=args.jobs)
    write_csv(out_dir / f"{name}.csv", cfg.experiment, rows)

    baseline = {"status": "none"}
    if values:  # keyed by the output name, as the CSV and summary are
        base_path = Path(args.baselines) / f"{name}.json"
        baseline = check_baseline(base_path, cfg.experiment, cfg.config_hash, values,
                                  args.record_baseline or not base_path.exists())

    ok = all(inv.values()) and not baseline.get("violations")
    _write_json(out_dir / f"{name}.summary.json", {
        "experiment": cfg.experiment,
        "schema_version": SCHEMA_VERSION,
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "rows": len(rows),
        "invariants": {k: bool(v) for k, v in sorted(inv.items())},
        "values": {k: float(v) for k, v in sorted(values.items())},
        "baseline": baseline,
        "pass": bool(ok),
    })
    print(f"{cfg.experiment}: rows={len(rows)} pass={ok} "
          f"baseline={baseline['status']}")
    return 0 if ok else 1


def cmd_list(_args) -> int:
    print("\n".join(EXPERIMENTS))
    return 0


def cmd_verify_baselines(args) -> int:
    failures = seen = 0
    for summary_path in sorted(Path(args.dir).glob("*.summary.json")):
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        name, values = summary_path.name[:-len(".summary.json")], summary.get("values")
        if not values:
            continue
        seen += 1
        status = check_baseline(Path(args.baselines) / f"{name}.json",
                                summary["experiment"], summary["config_hash"], values)
        violations = status.get("violations")
        if status["status"] == "unverified":
            print(f"{name}: unverified: run config {summary['config_hash']},"
                  f" baseline config {status['config_hash'] or 'none'}")
        elif violations:
            print(f"{name}: {len(violations)} drift(s)")
            for k, v in sorted(violations.items()):
                print(f"  {k}: {v if isinstance(v, str) else format(v, '.3g')}")
        else:
            print(f"{name}: ok ({len(values)} values within {BASELINE_TOLERANCE:.0%})")
        failures += status["status"] == "unverified" or bool(violations)
    if seen == 0:
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

    sub.add_parser("list-experiments", help="print experiment ids").set_defaults(
        func=cmd_list)

    verp = sub.add_parser("verify-baselines",
                          help="compare run summaries against baselines")
    verp.add_argument("dir")
    verp.add_argument("--baselines", default="baselines")
    verp.set_defaults(func=cmd_verify_baselines)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except Exception as e:  # a crash must not read as exit 1 or 2
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
