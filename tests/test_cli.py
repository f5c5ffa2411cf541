"""CLI contract: config validation, artifact schemas, baselines, and
byte-level determinism across parallelism levels."""

import json
import re
import shutil
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from strongmeans import cli, corpus
from strongmeans.cli import ConfigError, ExperimentConfig, build_functions, fmt

from oracles import csv_differences

ROOT = Path(__file__).resolve().parent.parent


def write_config(path: Path, **overrides) -> Path:
    raw = {
        "experiment": "averaged_moment",
        "seed": 11,
        "J": 8,
        "d": 1,
        "lams": [4.0, 8.0],
        "schedule": [16, 32, 64],
        "corpus": {"families": ["spike", "trig"], "n_random": 1},
        "output": "small",
    }
    raw.update(overrides)
    p = path / "cfg.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    return p


# ---------------------------------------------------------------------------
# config validation


def test_config_requires_seed():
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_dict({"experiment": "averaged_moment"})


def test_config_rejects_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        ExperimentConfig.from_dict({"experiment": "fourier_magic", "seed": 1})


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config fields"):
        ExperimentConfig.from_dict(
            {"experiment": "density", "seed": 1, "flavour": "x"})


def test_config_rejects_unsorted_schedule():
    with pytest.raises(ConfigError, match="strictly increasing"):
        ExperimentConfig.from_dict(
            {"experiment": "averaged_moment", "seed": 1, "J": 8,
             "schedule": [64, 32]})


def test_config_rejects_aliased_schedule():
    with pytest.raises(ConfigError, match="bandwidth"):
        ExperimentConfig.from_dict(
            {"experiment": "averaged_moment", "seed": 1, "J": 8,
             "schedule": [256]})


def test_config_decay_schedule_tighter_by_one_octave():
    ok = {"experiment": "decay_kernel", "seed": 1, "J": 10,
          "schedule": [64, 256], "s_values": [2.0]}
    ExperimentConfig.from_dict(ok)
    with pytest.raises(ConfigError, match=r"usable bandwidth 2\*\*8"):
        ExperimentConfig.from_dict({**ok, "schedule": [64, 512]})


@pytest.mark.parametrize("raw", [
    {"experiment": "czd_suite", "seed": 1, "J": 5, "schedule": [64],
     "options": {"trials": 1}},
    {"experiment": "covering_suite", "seed": 1, "J": 5, "schedule": [64],
     "options": {"trials_1d": 1}},
], ids=["czd_suite", "covering_suite"])
def test_config_suites_read_no_schedule_band(raw):
    # the suites never read a schedule, so no bandwidth bounds it: one
    # past the band is refused as unread, and so is covering_suite's J
    with pytest.raises(ConfigError, match=r"unread config fields \[.*'schedule'\]"):
        ExperimentConfig.from_dict(raw)
    ExperimentConfig.from_dict({k: v for k, v in raw.items() if k != "schedule"
                                and (k != "J" or raw["experiment"] == "czd_suite")})


@pytest.mark.parametrize("experiment,field,value", [
    ("averaged_moment", "s_values", [1.5]),
    ("density", "lams", [3.0]),
    ("czd_suite", "schedule", [32, 64]),
    ("density", "lams", [8]),
], ids=["s_values-averaged_moment", "lams-density", "schedule-czd_suite",
        "int-lams-density"])
def test_unread_config_field_exit_2(tmp_path, capsys, experiment, field, value):
    """A field the experiment never reads would only move config_hash:
    set away from its default it is refused, as an unknown option is.
    `[8]` is away from the default `[8.0]`: its JSON, which the hash
    reads, differs."""
    raw = {"experiment": experiment, "seed": 1, field: value}
    with pytest.raises(ConfigError, match=f"{experiment}: unread config fields"
                       f" \\['{field}'\\]"):
        ExperimentConfig.from_dict(raw)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert f"invalid config: {experiment}: unread config fields ['{field}']" in \
        capsys.readouterr().err
    # at its default the field changes nothing, config_hash included
    default = getattr(ExperimentConfig(experiment, 1), field)
    assert (ExperimentConfig.from_dict({**raw, field: default}).config_hash
            == ExperimentConfig.from_dict({"experiment": experiment, "seed": 1}).config_hash)


def test_committed_configs_keep_their_hashes():
    for path in sorted((ROOT / "configs").glob("*.json")):
        cfg = ExperimentConfig.from_dict(json.loads(path.read_text(encoding="utf-8")))
        summary = ROOT / "out" / f"{cfg.output or cfg.experiment}.summary.json"
        assert cfg.config_hash == json.loads(summary.read_text())["config_hash"], path


def test_config_hash_stable_and_sensitive():
    a = ExperimentConfig.from_dict({"experiment": "density", "seed": 1})
    b = ExperimentConfig.from_dict({"experiment": "density", "seed": 1})
    c = ExperimentConfig.from_dict({"experiment": "density", "seed": 2})
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash
    assert len(a.config_hash) == 12


# ---------------------------------------------------------------------------
# serialization and corpus selection


def test_fmt_rules():
    assert fmt(Fraction(5, 16)) == "5/16"
    assert fmt(Fraction(2)) == "2"
    assert fmt(0.1) == "0.1"
    assert fmt(1 / 3) == "0.333333333333"
    assert fmt(True) == "1"
    assert fmt(64) == "64"


def test_build_functions_family_filter_and_vp():
    cfg = ExperimentConfig.from_dict({
        "experiment": "strong_means", "seed": 2, "J": 8,
        "corpus": {"families": ["spike"], "vp": 32},
    })
    fns = build_functions(cfg)
    assert [fid for fid, _ in fns] == ["spike-J8-vp32"]
    f = fns[0][1]
    from strongmeans.spectral import band_energy
    assert band_energy(f, 64, f.n // 2) < 1e-18


def test_build_functions_empty_selection_fails(tmp_path, capsys, monkeypatch):
    # with no draws only the unit spike exists, and the families leave it
    # out: refused before the corpus is built
    monkeypatch.setattr(cli, "build_functions", refuse)
    cfg = write_config(tmp_path, corpus={"families": ["kspikes"], "n_random": 0})
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "invalid config: corpus: the selection is empty" in capsys.readouterr().err
    for kept in ({"families": ["kspikes"], "n_random": 1},
                 {"families": ["spike", "kspikes"], "n_random": 0},
                 {"families": [], "n_random": 0}):
        ExperimentConfig.from_dict({"experiment": "averaged_moment", "seed": 2,
                                    "J": 8, "corpus": kept})


# ---------------------------------------------------------------------------
# runs and artifacts


def test_run_writes_schema_and_passes(tmp_path):
    cfg = write_config(tmp_path)
    rc = cli.main(["run", str(cfg), "--out", str(tmp_path / "out"),
                   "--baselines", str(tmp_path / "bl")])
    assert rc == 0
    csv_path = tmp_path / "out" / "small.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("fn_id,lambda,N,avg_moment,full_avg,measure_E,"
                        "ratio,config_hash")
    assert len(lines) == 1 + 2 * 2 * 3  # fns x lams x schedule
    hashes = {line.split(",")[-1] for line in lines[1:]}
    assert len(hashes) == 1
    text = (tmp_path / "out" / "small.summary.json").read_text(encoding="utf-8")
    summary = json.loads(text)
    assert summary["pass"] is True
    assert summary["invariants"]["measure_bound_exact"] is True
    assert summary["schema_version"] == cli.SCHEMA_VERSION
    # the recording run names its baseline file, not where it lives
    assert summary["baseline"] == {"status": "recorded",
                                   "path": "small.json"}
    assert str(tmp_path) not in text


def test_averaged_moment_config_reproduces_committed_csv(tmp_path, monkeypatch,
                                                       once_per_session):
    """Every cell of the committed outputs of every config, from fresh
    runs.  strong_means measures are grid counts, so
    this pins every threshold decision; the two suites' counts pin their
    random draws and every component and bad cell.  The two batteries
    share their runs with acceptance criteria 01 and 03, which call them
    with the configs' arguments."""
    for name in ("covering_suite", "czd_suite"):
        monkeypatch.setattr(cli, name, once_per_session(getattr(cli, name)))
    bl = tmp_path / "bl"
    shutil.copytree(ROOT / "baselines", bl)
    for name in ("averaged_moment", "p4_moment", "strong_means",
                 "first_reduction", "second_reduction", "decay_kernel",
                 "rect_moment", "density", "density_2d", "czd_suite",
                 "covering_suite"):
        assert cli.main(["run", str(ROOT / "configs" / f"{name}.json"),
                         "--out", str(tmp_path / "out"),
                         "--baselines", str(bl)]) == 0
        fresh = (tmp_path / "out" / f"{name}.csv").read_text(encoding="utf-8")
        ref = (ROOT / "out" / f"{name}.csv").read_text(encoding="utf-8")
        assert csv_differences(fresh, ref) == [], name


def test_decay_kernel_decomposes_and_smooths_once_per_cell(tmp_path, monkeypatch):
    """Neither the exceptional set nor the smoothed functions depend on
    s: the committed config (one function, one lambda, three s values,
    five orders) selects once and smooths five times, and writes the
    committed CSV byte for byte."""
    calls = {"decompositions": 0, "valle_poussin": 0}
    for name in calls:
        def counted(*args, _inner=getattr(cli.estimates, name), _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(cli.estimates, name, counted)
    bl = tmp_path / "bl"
    shutil.copytree(ROOT / "baselines", bl)
    assert cli.main(["run", str(ROOT / "configs" / "decay_kernel.json"),
                     "--out", str(tmp_path / "out"), "--baselines", str(bl)]) == 0
    assert calls == {"decompositions": 1, "valle_poussin": 5}
    assert (tmp_path / "out" / "decay_kernel.csv").read_bytes() == \
        (ROOT / "out" / "decay_kernel.csv").read_bytes()


def test_committed_summaries_compare_against_their_baselines():
    # a committed summary is the output of a plain run against the
    # committed baselines, never of the run that recorded them
    for path in sorted((ROOT / "out").glob("*.summary.json")):
        summary = json.loads(path.read_text(encoding="utf-8"))
        has_baseline = (ROOT / "baselines" / f"{summary['experiment']}.json"
                        ).exists()
        want = "compared" if has_baseline else "none"
        assert summary["baseline"]["status"] == want, path.name


def test_csv_differences_rules():
    ref = "id,N,x,m\na,2,0.125000000001,1/3\n"
    assert csv_differences(ref, ref) == []
    # one unit in the 12th printed digit is allowed, two are not
    assert csv_differences("id,N,x,m\na,2,0.125000000002,1/3\n", ref) == []
    assert csv_differences("id,N,x,m\na,2,0.125000000003,1/3\n", ref) != []
    # integers, fractions and strings must match exactly
    for row in ("b,2,0.125000000001,1/3", "a,3,0.125000000001,1/3",
                "a,2,0.125000000001,2/3"):
        assert len(csv_differences(f"id,N,x,m\n{row}\n", ref)) == 1
    assert csv_differences("id,N,x\na,2,0.125\n", ref) != []


def test_invalid_config_file_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    assert cli.main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    p.write_text(json.dumps({"experiment": "averaged_moment"}),
                 encoding="utf-8")
    assert cli.main(["run", str(p), "--out", str(tmp_path / "o")]) == 2


def refuse(*args, **kwargs):
    raise AssertionError("work started before the config was checked")


def refuse_runs(monkeypatch, *experiments):
    for name in experiments:
        monkeypatch.setitem(cli.EXPERIMENTS, name,
                            replace(cli.EXPERIMENTS[name], run=refuse))


def strong_means_exit_code(tmp_path, capsys, monkeypatch, **options) -> int:
    monkeypatch.setattr(cli, "build_functions", refuse)
    cfg = write_config(tmp_path, experiment="strong_means", options=options)
    rc = cli.main(["run", str(cfg), "--out", str(tmp_path / "o")])
    assert "invalid config: strong_means:" in capsys.readouterr().err
    return rc


def test_strong_means_bad_eps_factors_exit_2(tmp_path, capsys, monkeypatch):
    for bad in ("ab", [], 0.5, [0.5, 0.0], [0.5, "x"], [True]):
        assert strong_means_exit_code(tmp_path, capsys, monkeypatch,
                                      eps_factors=bad) == 2


def test_strong_means_bad_r_exit_2(tmp_path, capsys, monkeypatch):
    for bad in (3, "2", [2], True, 2.0):
        assert strong_means_exit_code(tmp_path, capsys, monkeypatch,
                                      r=bad) == 2


def test_strong_means_bad_lam_grid_exit_2(tmp_path, capsys, monkeypatch):
    # an empty grid used to reach the weak-type maximum and crash (exit 3)
    for bad in ([1.0, 0.0], [-2.0], [1.0, "x"], "ab", []):
        assert strong_means_exit_code(tmp_path, capsys, monkeypatch,
                                      lam_grid=bad) == 2


@pytest.mark.parametrize("overrides,message", [
    pytest.param({"experiment": "strong_means", "lams": [8.0],
                  "options": {"lam_grid": [2, 2]}},
                 "strong_means: lam_grid must not repeat a height: 2 is given"
                 " more than once", id="lam_grid"),
    pytest.param({"experiment": "strong_means", "lams": [8.0],
                  "options": {"eps_factors": [0.5, 0.25, 0.5]}},
                 "strong_means: eps_factors must not repeat a factor: 0.5 is"
                 " given more than once", id="eps_factors"),
    pytest.param({"experiment": "decay_kernel", "lams": [8.0],
                  "schedule": [16, 32], "s_values": [2.0, 3.0, 2]},
                 "s_values must not repeat a value: 2 is given more than once",
                 id="s_values"),
])
def test_repeated_entries_exit_2(tmp_path, capsys, monkeypatch, overrides, message):
    # a repeated lam_grid height or s value would write one summary
    # value for two rows' keys, and a repeated eps factor duplicate rows
    monkeypatch.setattr(cli, "build_functions", refuse)
    cfg = write_config(tmp_path, **overrides)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"invalid config: {message}\n"
    assert not (tmp_path / "o").exists()


def test_non_integer_schedule_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_functions", refuse)
    for bad in ([32.5], [16, 32.0], [True, 32], ["32"], 32):
        cfg = write_config(tmp_path, schedule=bad)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2, bad
        assert "schedule entries must be integers" in capsys.readouterr().err


def test_non_numeric_lams_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_functions", refuse)
    for bad in (["8"], [8.0, True], [None], 8.0, [4.0, 0], [-2]):
        cfg = write_config(tmp_path, lams=bad)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2, bad
        assert "lams must be a list of positive real numbers" in \
            capsys.readouterr().err
    ExperimentConfig.from_dict({"experiment": "averaged_moment", "seed": 1,
                                "lams": [2, 8.5]})


def test_empty_lams_exit_2(tmp_path, capsys, monkeypatch):
    # an empty sweep would write a header-only CSV and pass
    monkeypatch.setattr(cli, "build_functions", refuse)
    cfg = write_config(tmp_path, lams=[], schedule=[32])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        "invalid config: lams must hold at least one height\n"
    assert not (tmp_path / "o").exists()


def test_empty_s_values_exit_2(tmp_path, capsys, monkeypatch):
    # the default, []: a decay sweep over no exponent would write a
    # header-only CSV and pass
    monkeypatch.setattr(cli, "build_functions", refuse)
    for s_values in ([], None):
        fields = {} if s_values is None else {"s_values": s_values}
        cfg = write_config(tmp_path, experiment="decay_kernel", lams=[8.0],
                           schedule=[16, 32], **fields)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            "invalid config: s_values must hold at least one value\n"
    assert not (tmp_path / "o").exists()


def test_height_past_every_int64_limit_selects_nothing(tmp_path):
    # 1e30 * 2**(J + 24) is far past int64: each level's limit is capped
    # at 2**62, above every level sum, so no cell is bad
    cfg = write_config(tmp_path, experiment="first_reduction", J=8,
                       schedule=None, lams=[1e30])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o"),
                     "--baselines", str(tmp_path / "bl")]) == 0
    lines = (tmp_path / "o" / "small.csv").read_text().splitlines()
    column = lines[0].split(",").index("measure_E")
    assert len(lines) == 1 + 2 and {line.split(",")[column] for line in lines[1:]} == {"0"}


@pytest.mark.parametrize("lams", [[4.0, 4.0], [2.0, 4, 8.0, 4.0]], ids=["twice", "int"])
def test_repeated_lams_exit_2(tmp_path, capsys, monkeypatch, lams):
    # the repeated height's rows would share their summary keys
    monkeypatch.setattr(cli, "build_functions", refuse)
    cfg = write_config(tmp_path, lams=lams, schedule=[32])
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("invalid config: lams must not repeat a"
                                       " height: 4 is given more than once\n")
    assert not (tmp_path / "o").exists()


def test_density_lattice_over_budget_exit_2(tmp_path, capsys, monkeypatch):
    refuse_runs(monkeypatch, "density")
    side = {1: cli.DENSITY_LATTICE_BUDGET, 2: 2048}  # largest in budget
    for d, N_max in side.items():
        ExperimentConfig.from_dict({"experiment": "density", "seed": 1, "d": d,
                                    "options": {"N_max": N_max}})
        # no corpus: the default one names 1-d families
        cfg = write_config(tmp_path, experiment="density", d=d, corpus={},
                           options={"N_max": N_max + 1})
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "lattice entries" in capsys.readouterr().err


@pytest.mark.parametrize("d,J,message", [
    (1, 3, "czd_suite: J must lie in [4, 14] for d = 1"),
    (2, 3, "czd_suite: J must lie in [4, 8] for d = 2"),
    (2, 9, "czd_suite: J must lie in [4, 8] for d = 2"),
    (2, 14, "czd_suite: J must lie in [4, 8] for d = 2"),
], ids=["czd-J3-1d", "czd-J3-2d", "czd-J9-2d", "czd-J14-2d"])
def test_czd_lattice_exit_2(tmp_path, capsys, monkeypatch, d, J, message):
    refuse_runs(monkeypatch, "czd_suite")
    cfg = write_config(tmp_path, experiment="czd_suite", d=d, J=J, corpus={},
                       schedule=None, options={"trials": 1})
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    for J in (4, {1: 14, 2: 8}[d]):
        ExperimentConfig.from_dict({"experiment": "czd_suite", "seed": 1,
                                    "d": d, "J": J})


@pytest.mark.parametrize("d,J", [(1, 4), (2, 4)], ids=["czd-J4-1d", "czd-J4-2d"])
def test_czd_lattice_accepts_the_families_least_J(monkeypatch, d, J):
    """czd_suite's least J is the greatest `least_J` of the corpus
    families: J is accepted, and J - 1 too once no family needs more."""
    assert max(f.least_J for f in corpus.FAMILIES[d].values()) == J
    ExperimentConfig.from_dict({"experiment": "czd_suite", "seed": 1, "d": d, "J": J})
    monkeypatch.setitem(corpus.FAMILIES, d, {
        key: replace(f, least_J=min(f.least_J, J - 1))
        for key, f in corpus.FAMILIES[d].items()})
    ExperimentConfig.from_dict({"experiment": "czd_suite", "seed": 1, "d": d,
                                "J": J - 1})


@pytest.mark.parametrize("raw,message", [
    ({"experiment": "first_reduction", "seed": 1, "J": 2},
     "corpus: the kspikes family needs J >= 4, and J is 2"),
    ({"experiment": "first_reduction", "seed": 3, "J": 3,
      "corpus": {"families": ["kspikes"]}},
     "corpus: the kspikes family needs J >= 4, and J is 3"),
], ids=["first_reduction-J2", "first_reduction-J3-kspikes"])
def test_corpus_family_below_its_least_J_exit_2(tmp_path, capsys, monkeypatch, raw,
                                                message):
    """A J too small for a family the corpus draws is refused before any
    draw, even when the selection keeps other families only; with no
    random draws, or at the family's least J, the config is valid."""
    monkeypatch.setattr(cli, "build_functions", refuse)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    assert cli.main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
    assert f"invalid config: {message}" in capsys.readouterr().err
    ExperimentConfig.from_dict({**raw, "corpus": {"n_random": 0}})
    ExperimentConfig.from_dict({**raw, "J": 4})


@pytest.mark.parametrize("experiment,key,value,message", [
    ("averaged_moment", "J", 12.5, "J must be an integer in [1, 14]"),
    ("czd_suite", "J", 6.0, "J must be an integer in [1, 14]"),
    ("averaged_moment", "J", True, "J must be an integer in [1, 14]"),
    ("averaged_moment", "J", 0, "J must be an integer in [1, 14]"),
    ("averaged_moment", "d", True, "d must be an integer in [1, 2]"),
    ("averaged_moment", "d", 1.0, "d must be an integer in [1, 2]"),
    ("averaged_moment", "d", 3, "d must be an integer in [1, 2]"),
    ("averaged_moment", "seed", True, "seed must be an integer"),
    ("averaged_moment", "seed", 1.5, "seed must be an integer"),
    ("averaged_moment", "seed", "1", "seed must be an integer"),
], ids=["J-fraction", "czd-J-float", "J-bool", "J-zero", "d-bool", "d-float",
        "d-three", "seed-bool", "seed-fraction", "seed-string"])
def test_bad_integer_field_exit_2(tmp_path, capsys, monkeypatch, experiment,
                                  key, value, message):
    monkeypatch.setattr(cli, "build_functions", refuse)
    refuse_runs(monkeypatch, experiment)
    cfg = write_config(tmp_path, experiment=experiment, **{key: value})
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"invalid config: {message}" in capsys.readouterr().err


def test_missing_default_schedule_exit_2(tmp_path, capsys, monkeypatch):
    # the default schedule 32, ..., 2**(J-2) needs J >= 7
    monkeypatch.setattr(cli, "build_functions", refuse)
    for experiment in ("averaged_moment", "strong_means", "decay_kernel"):
        cfg = write_config(tmp_path, experiment=experiment, J=6, schedule=None)
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert (f"invalid config: {experiment}: with no schedule, J must be"
                " at least 7") in capsys.readouterr().err
    ExperimentConfig.from_dict({"experiment": "averaged_moment", "seed": 1,
                                "J": 7})
    ExperimentConfig.from_dict({"experiment": "averaged_moment", "seed": 1,
                                "J": 6, "schedule": [4, 8]})


def test_dyadic_schedule():
    """With no schedule, an experiment that reads one runs 32, 64, ...,
    2**(J-2); one that reads none gets None."""
    def schedule(**raw):
        return ExperimentConfig.from_dict({"seed": 1, **raw}).run_schedule()

    assert schedule(experiment="averaged_moment", J=10) == [32, 64, 128, 256]
    assert schedule(experiment="strong_means", J=7) == [32]
    assert schedule(experiment="averaged_moment", J=6, schedule=[4, 8]) == [4, 8]
    assert schedule(experiment="first_reduction", J=10) is None


def test_first_reduction_reads_no_schedule(tmp_path):
    cfg = write_config(tmp_path, experiment="first_reduction", J=6,
                       schedule=None)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o"),
                     "--baselines", str(tmp_path / "bl")]) == 0
    lines = (tmp_path / "o" / "small.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # fns x lams, one row each
    assert {line.split(",")[2] for line in lines[1:]} == {"0"}


@pytest.mark.parametrize("corpus,message", [
    ([], "corpus must be a JSON object"),
    ("spike", "corpus must be a JSON object"),
    ({"vp": 2.5}, "corpus: vp must be a positive integer"),
    ({"vp": 0}, "corpus: vp must be a positive integer"),
    ({"vp": -8}, "corpus: vp must be a positive integer"),
    ({"vp": True}, "corpus: vp must be a positive integer"),
    ({"vp": "8"}, "corpus: vp must be a positive integer"),
    ({"n_random": 2.5}, "corpus: n_random must be an integer in [0, 16]"),
    ({"n_random": -1}, "corpus: n_random must be an integer in [0, 16]"),
    ({"n_random": True}, "corpus: n_random must be an integer in [0, 16]"),
    ({"familes": ["spike"]}, "corpus: unknown fields ['familes']"),
    ({"families": ["spikes"]}, "corpus: families must be a list of names"),
    ({"families": "spike"}, "corpus: families must be a list of names"),
    ({"families": [["spike"]]}, "corpus: families must be a list of names"),
    ({"families": ["spike", "tspike"]},
     "corpus: families must be a list of names from ['spike', 'kspikes',"
     " 'trig', 'noise'] (the d = 1 families)"),
], ids=["list", "string", "vp-fraction", "vp-zero", "vp-negative", "vp-bool",
        "vp-string", "n_random-fraction", "n_random-negative", "n_random-bool",
        "misspelt-families", "families-unknown", "families-string",
        "families-nested", "families-2d-in-1d"])
def test_bad_corpus_exit_2(tmp_path, capsys, monkeypatch, corpus, message):
    monkeypatch.setattr(cli, "build_functions", refuse)
    cfg = write_config(tmp_path, corpus=corpus)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("s_values", [["x"], [1.5, None], [True], [1.0],
                                      [0.5], 2.0, "1.5"])
def test_bad_s_values_exit_2(tmp_path, capsys, monkeypatch, s_values):
    monkeypatch.setattr(cli, "build_functions", refuse)
    cfg = write_config(tmp_path, experiment="decay_kernel", lams=[8.0],
                       schedule=[16, 32], s_values=s_values)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "s_values must be a list of real numbers above 1" in \
        capsys.readouterr().err
    ExperimentConfig.from_dict({"experiment": "decay_kernel", "seed": 1,
                                "s_values": [1.5, 3]})


@pytest.mark.parametrize("experiment,name,least,greatest", [
    ("czd_suite", "trials", 1, 10**5),
    ("covering_suite", "trials_1d", 1, 10**6),
    ("covering_suite", "trials_2d", 1, 10**5),
    ("covering_suite", "max_level_1d", 1, 14),
    ("covering_suite", "max_level_2d", 1, 14),
    ("covering_suite", "chain_level", 1, 8),
    # N_max must also reach the default base, 4, for one schedule point
    ("density", "N_max", 4, None),
    ("density", "base", 2, None),
], ids=["trials", "trials_1d", "trials_2d", "max_level_1d", "max_level_2d",
        "chain_level", "density-N_max", "density-base"])
def test_suite_bad_option_exit_2(tmp_path, capsys, monkeypatch, experiment,
                                 name, least, greatest):
    refuse_runs(monkeypatch, experiment)
    bad = [least - 1, 2.7, float(least), True, str(least), None, [least]]
    if greatest is not None:
        bad.append(greatest + 1)
    for value in bad:
        cfg = write_config(tmp_path, experiment=experiment, options={name: value})
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2, value
        assert f"{experiment}: {name} must be an integer" in capsys.readouterr().err
    for value in (least, greatest if greatest is not None else 10**6):
        ExperimentConfig.from_dict({"experiment": experiment, "seed": 1,
                                    "options": {name: value}})


@pytest.mark.parametrize("experiment,options,message", [
    ("czd_suite", {"trails": 3},
     "czd_suite: unknown options ['trails']; it takes ['trials']"),
    ("first_reduction", {"p": 2}, "first_reduction: unknown options ['p']"),
    ("averaged_moment", {"p": 2}, "averaged_moment: unknown options ['p']"),
    ("averaged_moment", [4], "options must be a JSON object"),
    ("density", {"kind": "quarter_powr"}, 'density: kind must be "quarter_power"'),
    ("density", {"s": [1]}, "density: s must be a real number"),
    ("density", {"s": "1.5"}, "density: s must be a real number"),
    ("density", {"s": True}, "density: s must be a real number"),
    ("strong_means", {"r": 2.0}, "strong_means: r must be the integer 2 or 4"),
], ids=["czd-trails", "first_reduction-p", "averaged_moment-p", "options-list",
        "density-kind", "density-s-list", "density-s-string", "density-s-bool",
        "strong_means-r-float"])
def test_bad_option_exit_2(tmp_path, capsys, monkeypatch, experiment, options,
                           message):
    monkeypatch.setattr(cli, "build_functions", refuse)
    refuse_runs(monkeypatch, experiment)
    cfg = write_config(tmp_path, experiment=experiment, options=options)
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"invalid config: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# faults that once crashed or came late, and a one-field mutation fuzzer


def run_exit_code(tmp_path, raw: dict) -> int:
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    return cli.main(["run", str(p), "--out", str(tmp_path / "o"),
                     "--baselines", str(tmp_path / "bl")])


def refuse_all_work(monkeypatch):
    monkeypatch.setattr(cli, "build_functions", refuse)
    refuse_runs(monkeypatch, *cli.EXPERIMENTS)


INF, NAN = float("inf"), float("nan")
SPIKE = {"families": ["spike"], "n_random": 0}


@pytest.mark.parametrize("raw,message", [
    ({"experiment": "first_reduction", "J": 8, "lams": [INF], "corpus": SPIKE},
     "lams must be a list of positive real numbers"),
    ({"experiment": "strong_means", "J": 8, "schedule": [16, 32], "corpus": SPIKE,
      "options": {"lam_grid": [INF]}}, "strong_means: lam_grid must be"),
    ({"experiment": "strong_means", "J": 8, "schedule": [16, 32], "corpus": SPIKE,
      "options": {"eps_factors": [1.0, INF]}}, "strong_means: eps_factors must be"),
    ({"experiment": "decay_kernel", "J": 8, "lams": [8.0], "schedule": [16, 32],
      "s_values": [INF], "corpus": SPIKE},
     "s_values must be a list of real numbers above 1"),
    ({"experiment": "density", "options": {"s": NAN}}, "density: s must be a real number"),
    ({"experiment": "density", "options": {"s": -INF}}, "density: s must be a real number"),
    ({"experiment": "first_reduction", "J": 8, "lams": [2**1100], "corpus": SPIKE},
     "lams must be a list of positive real numbers"),
], ids=["lams-Infinity", "lam_grid-Infinity", "eps_factors-Infinity",
        "s_values-Infinity", "density-s-NaN", "density-s-minus-Infinity",
        "lams-past-float-range"])
def test_non_finite_number_exit_2(tmp_path, capsys, monkeypatch, raw, message):
    """JSON's NaN and Infinity, and an integer no float holds, are no
    real numbers: refused before any work, where they used to crash in
    `Fraction(lam)` (exit 3), run on as NaN (exit 0) or fail in the run."""
    refuse_all_work(monkeypatch)
    assert run_exit_code(tmp_path, {"seed": 1, **raw}) == 2
    assert f"invalid config: {message}" in capsys.readouterr().err


def test_decay_kernel_below_its_band_exit_2(tmp_path, capsys, monkeypatch):
    # at J = 1 the band 2**(J - 2) is 1/2, so no order fits; the check
    # used to raise "negative shift count" out of main
    refuse_all_work(monkeypatch)
    raw = {"experiment": "decay_kernel", "seed": 1, "J": 1, "lams": [8.0],
           "schedule": [1], "s_values": [2.0], "corpus": {"n_random": 0}}
    assert run_exit_code(tmp_path, raw) == 2
    assert capsys.readouterr().err == ("invalid config: decay_kernel: schedule"
                                       " exceeds the usable bandwidth 2**-1\n")


@pytest.mark.parametrize("d", [1, 2])
def test_density_N_max_below_base_exit_2(tmp_path, capsys, monkeypatch, d):
    """N_max below base leaves the schedule base, base**2, ... empty: the
    2-d run crashed on `schedule[-1]` (exit 3), the 1-d one failed late."""
    raw = {"experiment": "density", "seed": 1, "d": d, "options": {"N_max": 3}}
    with monkeypatch.context() as m:
        refuse_all_work(m)
        assert run_exit_code(tmp_path, raw) == 2
    assert "invalid config: density: N_max must be an integer >= base, which is 4" \
        in capsys.readouterr().err
    assert run_exit_code(tmp_path, {**raw, "options": {"N_max": 3, "base": 3}}) == 0


def test_vp_above_the_band_exit_2(tmp_path, capsys, monkeypatch):
    """A delayed mean of order vp has band 2 vp - 1, which must fit the
    stored bandwidth 2**(J-1) = 128 at J = 8: vp = 64 is the largest."""
    raw = {"experiment": "strong_means", "seed": 1, "J": 8, "schedule": [16, 32],
           "corpus": {**SPIKE, "vp": 65}}
    refuse_all_work(monkeypatch)
    assert run_exit_code(tmp_path, raw) == 2
    assert capsys.readouterr().err == (
        "invalid config: corpus: vp must be a positive integer <= 64 at J = 8 (its"
        " band 2 vp - 1 must fit the stored bandwidth 2**7)\n")
    ExperimentConfig.from_dict({**raw, "corpus": {**SPIKE, "vp": 64}})
    ExperimentConfig.from_dict({**raw, "J": 1, "schedule": [1],
                                "corpus": {**SPIKE, "vp": 1}})


def test_second_reduction_schedule_past_its_band_exit_2(tmp_path, capsys, monkeypatch):
    """second_reduction smooths f at every order N, and the band 2 N - 1
    must fit the stored 2**(J-1): at J = 8 the order 128 used to pass
    validation and fail after the corpus was built ("band 255 exceeds
    stored bandwidth 128").  The orders stay within 2**(J-2)."""
    raw = {"experiment": "second_reduction", "seed": 1, "J": 8, "lams": [4.0],
           "schedule": [8, 128], "corpus": SPIKE}
    with monkeypatch.context() as m:
        refuse_all_work(m)
        assert run_exit_code(tmp_path, raw) == 2
    assert capsys.readouterr().err == ("invalid config: second_reduction: schedule"
                                       " exceeds the usable bandwidth 2**6\n")
    assert run_exit_code(tmp_path, {**raw, "schedule": [8, 64]}) == 0


def test_second_reduction_vp_past_the_first_order_exit_2(tmp_path, capsys,
                                                         monkeypatch):
    """With corpus.vp, second_reduction uses f as-is at every order N, so
    the delayed mean's band 2 vp - 1 must fit 2 N - 1 at the first order:
    at J = 8, vp = 32 with orders 8 and 16 used to fail after the corpus
    was built ("energy 5.434e+01 beyond frequency 15")."""
    raw = {"experiment": "second_reduction", "seed": 1, "J": 8, "lams": [4.0],
           "schedule": [8, 16], "corpus": {**SPIKE, "vp": 32}}
    with monkeypatch.context() as m:
        refuse_all_work(m)
        assert run_exit_code(tmp_path, raw) == 2
    assert capsys.readouterr().err == (
        "invalid config: second_reduction: corpus vp 32 exceeds the first order 8"
        " (its band 2 vp - 1 must fit 2 N - 1 at every N)\n")
    assert run_exit_code(tmp_path, {**raw, "corpus": {**SPIKE, "vp": 8}}) == 0


@pytest.mark.parametrize("key,raw,message", [
    ("lams", {"experiment": "first_reduction", "J": 8,
              "lams": [float(k) for k in range(1, 18)], "corpus": SPIKE},
     "lams must hold at most 16 heights, and it holds 17"),
    ("s_values", {"experiment": "decay_kernel", "J": 8, "lams": [8.0],
                  "schedule": [16, 32], "s_values": [1 + k / 8 for k in range(1, 18)],
                  "corpus": SPIKE},
     "s_values must hold at most 16 values, and it holds 17"),
], ids=["lams", "s_values"])
def test_sweep_over_its_cap_exit_2(tmp_path, capsys, monkeypatch, key, raw, message):
    """A list of heights or s values had no length cap, and its repeat
    check was quadratic: 20 000 distinct heights took 3.4 s to validate,
    and each height then ran.  Each list holds at most 16 entries."""
    refuse_all_work(monkeypatch)
    assert run_exit_code(tmp_path, {"seed": 1, **raw}) == 2
    assert capsys.readouterr().err == f"invalid config: {message}\n"
    ExperimentConfig.from_dict({"seed": 1, **raw, key: raw[key][:16]})


@pytest.mark.parametrize("raw,message", [
    ({"experiment": "first_reduction", "J": 8, "corpus": {"n_random": 2**70}},
     "corpus: n_random must be an integer in [0, 16]"),
    ({"experiment": "czd_suite", "J": 6, "options": {"trials": 2**70}},
     "czd_suite: trials must be an integer in [1, 100000]"),
    ({"experiment": "covering_suite", "options": {"trials_1d": 2**70}},
     "covering_suite: trials_1d must be an integer in [1, 1000000]"),
    ({"experiment": "covering_suite", "options": {"trials_2d": 2**70}},
     "covering_suite: trials_2d must be an integer in [1, 100000]"),
], ids=["n_random", "trials", "trials_1d", "trials_2d"])
def test_size_field_over_its_cap_exit_2(tmp_path, capsys, monkeypatch, raw, message):
    """A size field at 2**70 used to pass validation and start a run that
    could not finish: each has a cap under which the largest config
    finishes in minutes, and a value over it exits 2 before any work."""
    refuse_all_work(monkeypatch)
    assert run_exit_code(tmp_path, {"seed": 1, **raw}) == 2
    assert f"invalid config: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("raw,path,message", [
    ({"experiment": "decay_kernel", "J": 14, "lams": [8.0], "s_values": [2.0],
      "schedule": list(range(1, 4097)), "corpus": SPIKE}, ("schedule",),
     "schedule must hold at most 16 orders, and it holds 4096"),
    ({"experiment": "strong_means", "J": 7, "schedule": [16, 32], "corpus": SPIKE,
      "options": {"eps_factors": [k / 2000 for k in range(1, 2001)]}},
     ("options", "eps_factors"),
     "strong_means: eps_factors must hold at most 16 factors, and it holds 2000"),
    ({"experiment": "strong_means", "J": 7, "schedule": [16, 32], "corpus": SPIKE,
      "options": {"lam_grid": [float(k) for k in range(1, 2001)]}},
     ("options", "lam_grid"),
     "strong_means: lam_grid must hold at most 16 heights, and it holds 2000"),
], ids=["schedule", "eps_factors", "lam_grid"])
def test_list_over_its_cap_exit_2(tmp_path, capsys, monkeypatch, raw, path, message):
    """A schedule, and strong_means' eps factors and lam_grid heights, had
    no length cap: decay_kernel at J = 14 with every order to 4096
    validated, and 2000 factors and heights at J = 7 wrote 56 000 rows and
    14 000 baseline values.  Each holds at most 16 entries, as `lams`
    does, and a longer list exits 2 before any work."""
    refuse_all_work(monkeypatch)
    assert run_exit_code(tmp_path, {"seed": 1, **raw}) == 2
    assert capsys.readouterr().err == f"invalid config: {message}\n"
    *parents, key = path
    fits = json.loads(json.dumps(raw))
    inner = fits if not parents else fits[parents[0]]
    inner[key] = inner[key][:16]
    ExperimentConfig.from_dict({"seed": 1, **fits})


@pytest.mark.parametrize("experiment,d", [
    ("averaged_moment", 2), ("p4_moment", 2), ("strong_means", 2),
    ("second_reduction", 2), ("decay_kernel", 2), ("rect_moment", 1)],
    ids=lambda v: str(v))
def test_unsupported_dimension_exit_2(tmp_path, capsys, monkeypatch, experiment, d):
    """Six experiments run in one dimension only (`Experiment.dims`), yet
    took the other: their committed configs, moved to it with the whole
    corpus, drew the corpus and only then failed with "run failed".  They
    are refused before any work."""
    raw = json.loads((ROOT / "configs" / f"{experiment}.json").read_text(encoding="utf-8"))
    refuse_all_work(monkeypatch)
    assert run_exit_code(tmp_path, {**raw, "d": d, "corpus": {}}) == 2
    assert capsys.readouterr().err == \
        f"invalid config: {experiment}: runs in d = {3 - d} only\n"
    ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("d", [1, 2])
def test_experiments_of_both_dimensions_accept_each(d):
    for raw in ({"experiment": "first_reduction", "J": 8, "corpus": {}},
                {"experiment": "density", "options": {"N_max": 64}},
                {"experiment": "czd_suite", "J": 6}):
        assert d in cli.EXPERIMENTS[raw["experiment"]].dims
        ExperimentConfig.from_dict({"seed": 1, "d": d, **raw})


def test_corpus_2d_over_budget_exit_2(tmp_path, capsys, monkeypatch):
    """A 2-d corpus run holds all its 1 + 2 n_random functions, 4**J
    samples each, and rect_moment also E's complement weights on the M x M
    grid, M = 2**(J+1): rect_moment at J = 14 validated and would have
    needed 2 GiB per function and an 8 GiB matrix.  Either count over
    CORPUS_2D_BUDGET exits 2 before any work.  These configs are only
    validated, never run."""
    refuse_all_work(monkeypatch)
    tspike = {"families": ["tspike"], "n_random": 0}
    functions = "corpus: a 2-d run at J = {J} holds {size} samples in its functions"
    weights = "rect_moment: at J = {J} the M x M complement weights hold {size} samples"
    for raw, message, size in (
            ({"experiment": "rect_moment", "J": 14, "corpus": tspike}, functions, 1 << 28),
            ({"experiment": "rect_moment", "J": 9, "corpus": tspike}, weights, 4 << 18),
            ({"experiment": "rect_moment", "J": 8, "corpus": {"n_random": 4}},
             functions, 9 << 16),
            ({"experiment": "first_reduction", "J": 10, "corpus": tspike},
             functions, 1 << 20),
            ({"experiment": "first_reduction", "J": 8, "corpus": {"n_random": 4}},
             functions, 9 << 16)):
        assert size > cli.CORPUS_2D_BUDGET
        assert run_exit_code(tmp_path, {"seed": 1, "d": 2, **raw}) == 2
        assert capsys.readouterr().err == (
            "invalid config: " + message.format(J=raw["J"], size=size)
            + f", over the budget of {cli.CORPUS_2D_BUDGET}\n")
    # the largest within it: rect_moment's weights at J = 8, one function
    # at J = 9, and 31 at J = 7
    for raw in ({"experiment": "rect_moment", "J": 8, "corpus": {"n_random": 3}},
                {"experiment": "first_reduction", "J": 9, "corpus": tspike},
                {"experiment": "first_reduction", "J": 7, "corpus": {"n_random": 15}}):
        ExperimentConfig.from_dict({"seed": 1, "d": 2, **raw})


def test_p4_moment_height_past_the_cube_range_runs(tmp_path):
    # lam**3 overflows a float at 1e308: the ratio to lam**3 ||f||_1**4
    # rounds to 0 instead of raising OverflowError (exit 3)
    raw = {"experiment": "p4_moment", "seed": 1, "J": 8, "lams": [1e308],
           "schedule": [16, 32], "corpus": SPIKE}
    assert run_exit_code(tmp_path, raw) == 0
    lines = (tmp_path / "o" / "p4_moment.csv").read_text().splitlines()
    column = lines[0].split(",").index("ratio")
    assert [line.split(",")[column] for line in lines[1:]] == ["0", "0"]


@pytest.mark.parametrize("output", [7, ["a"], "../escaped", "a/b", ".hidden", "",
                                    "a b"], ids=repr)
def test_output_is_a_plain_file_name(tmp_path, capsys, monkeypatch, output):
    """`output` names two files in --out: a number or list used to write
    `7.csv` or `['a'].csv`, and "../escaped" wrote outside --out."""
    raw = {"experiment": "density", "seed": 1, "options": {"N_max": 64},
           "output": output}
    refuse_all_work(monkeypatch)
    assert run_exit_code(tmp_path, raw) == 2
    assert "invalid config: output must be a file name" in capsys.readouterr().err
    for name in ("density_2d", "a.b-c_1", "7"):
        ExperimentConfig.from_dict({**raw, "output": name})


# the eleven committed configs, shrunk to J <= 8 and small counts
SHRUNK = {
    "averaged_moment": {"J": 8, "lams": [4.0, 8.0], "schedule": [16, 32],
                        "corpus": {"families": ["spike", "kspikes"], "n_random": 1}},
    "p4_moment": {"J": 8, "schedule": [16, 32],
                  "corpus": {"families": ["spike", "trig"], "n_random": 1}},
    "strong_means": {"J": 8, "schedule": [16, 32],
                     "corpus": {"families": ["spike"], "n_random": 0, "vp": 32}},
    "first_reduction": {"J": 8, "lams": [4.0, 8.0],
                        "corpus": {"families": ["spike", "noise"], "n_random": 1}},
    "second_reduction": {"J": 8, "lams": [4.0], "schedule": [16, 32],
                         "corpus": {"families": ["spike", "trig"], "n_random": 1}},
    "decay_kernel": {"J": 8, "schedule": [16, 32], "s_values": [1.5, 2.0],
                     "corpus": {"families": ["spike"], "n_random": 0}},
    "rect_moment": {"J": 6, "schedule": [4, 8],
                    "corpus": {"families": ["tspike"], "n_random": 0}},
    "density": {"options": {"kind": "quarter_power", "s": 1.0, "N_max": 256, "base": 4}},
    "density_2d": {"options": {"kind": "quarter_power", "s": 1.0, "N_max": 64, "base": 4}},
    "czd_suite": {"J": 6, "options": {"trials": 2}},
    "covering_suite": {"options": {"trials_1d": 2, "trials_2d": 2, "chain_level": 2,
                                   "max_level_1d": 4, "max_level_2d": 3}},
}
# a mutant of a field that sets a run's size is run only up to the
# shrunk config's value; above it, it is validated only
SIZES = ("J", "n_random", "trials", "trials_1d", "trials_2d", "max_level_1d",
         "max_level_2d", "chain_level", "N_max")
FUZZ_VALUES = ("x", True, None, {}, [], 0, -0.0, 1e308, INF, -INF, NAN, 2**70)


def mutants():
    """(path of the mutated field, its shrunk value or None, the fuzz
    value, the mutant) for every one-field mutant: each field, corpus
    field and option of each shrunk config takes each fuzz value; a
    list-valued one also takes each inside a one-entry list, and its own
    first entry once more."""
    for name, shrink in SHRUNK.items():
        raw = json.loads((ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))
        raw.update(shrink)
        paths = [(key,) for key in ExperimentConfig.__dataclass_fields__]
        paths += [("corpus", key) for key in cli.CORPUS[raw.get("d", 1)]]
        paths += [("options", key) for key in cli.EXPERIMENTS[raw["experiment"]].options]
        for path in paths:
            old = raw.get(path[0]) if len(path) == 1 else raw.get(path[0], {}).get(path[1])
            values = list(FUZZ_VALUES)
            if isinstance(old, list):
                values += [[v] for v in FUZZ_VALUES] + [old + old[:1]]
            for value in values:
                mutant = json.loads(json.dumps(raw))
                if len(path) == 1:
                    mutant[path[0]] = value
                else:
                    mutant.setdefault(path[0], {})[path[1]] = value
                yield path, old, value, mutant


def test_one_field_mutants_exit_0_1_or_2(tmp_path, capsys, monkeypatch):
    """Every mutant goes through `validate`, which raises nothing but
    ConfigError.  A refused one exits 2 with no work started; an
    accepted one within the shrunk sizes runs in full and exits 0, 1 or
    2.  No mutant exits 3, and no exception escapes `main`."""
    refused, accepted = [], []
    for path, old, value, mutant in mutants():
        try:
            ExperimentConfig.from_dict(mutant)
        except ConfigError:
            refused.append(mutant)
            continue
        if path[-1] not in SIZES or old is not None and value <= old:
            accepted.append(mutant)
    assert refused and accepted
    with monkeypatch.context() as m:
        refuse_all_work(m)
        for mutant in refused:
            assert run_exit_code(tmp_path, mutant) == 2, mutant
            assert capsys.readouterr().err.startswith("invalid config: "), mutant
    for mutant in accepted:
        assert run_exit_code(tmp_path, mutant) in (0, 1, 2), mutant
        assert "internal error" not in capsys.readouterr().err, mutant


def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    def bad_value(*args, **kwargs):
        raise ValueError("no such order")

    cfg = write_config(tmp_path, experiment="czd_suite", lams=[8.0], schedule=None,
                       corpus={}, options={"trials": 1})
    run = ["run", str(cfg), "--out", str(tmp_path / "o"),
           "--baselines", str(tmp_path / "bl")]
    monkeypatch.setitem(cli.EXPERIMENTS, "czd_suite",
                        replace(cli.EXPERIMENTS["czd_suite"], run=crash))
    assert cli.main(run) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
    # a crash inside a function runner takes the same exit (same config
    # file, rewritten)
    monkeypatch.setattr(cli.estimates, "averaged_moment", crash)
    write_config(tmp_path)
    assert cli.main(run) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
    # ... while a ValueError stays a failed run
    monkeypatch.setattr(cli.estimates, "averaged_moment", bad_value)
    assert cli.main(run) == 2
    assert capsys.readouterr().err == "run failed: no such order\n"


def test_determinism_across_parallelism(tmp_path):
    # the default config at --jobs 2, and one function with six heights
    # at --jobs 3: fewer functions, the unit of the fan-out, than workers
    one_fn = {"lams": [2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
              "corpus": {"families": ["spike"], "n_random": 0}, "output": "one"}
    for name, overrides, jobs in (("small", {}, "2"), ("one", one_fn, "3")):
        cfg = write_config(tmp_path, **overrides)
        common = ["--baselines", str(tmp_path / "bl" / name)]
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "seed_run"),
                         *common]) == 0  # records baseline
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "a"),
                         "--jobs", "1", *common]) == 0
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "b"),
                         "--jobs", jobs, *common]) == 0
        for out in (f"{name}.csv", f"{name}.summary.json"):
            assert ((tmp_path / "a" / out).read_bytes()
                    == (tmp_path / "b" / out).read_bytes())
    assert len((tmp_path / "b" / "one.csv").read_text().splitlines()) == 1 + 6 * 3


# the seven corpus experiments, shrunk, each with at least two functions
CORPUS_RUNS = {name: {**SHRUNK[name], **extra} for name, extra in {
    "averaged_moment": {}, "p4_moment": {}, "first_reduction": {},
    "second_reduction": {},
    "strong_means": {"corpus": {"families": ["spike", "trig"], "n_random": 1, "vp": 32}},
    "decay_kernel": {"corpus": {"families": ["spike", "kspikes"], "n_random": 1}},
    "rect_moment": {"corpus": {"families": ["tspike", "tkspikes"], "n_random": 1}},
}.items()}


def corpus_run(name: str, **overrides) -> dict:
    raw = json.loads((ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))
    return {**raw, **CORPUS_RUNS[name], **overrides}


@pytest.mark.parametrize("name", ["first_reduction", "second_reduction",
                                  "decay_kernel", "rect_moment"])
def test_all_heights_at_once_equal_one_at_a_time(monkeypatch, name):
    """A function runs at both heights from one selection (one per order
    for second_reduction, which smooths f at each order), and its rows
    and values equal those of a run per height, but for config_hash."""
    calls = []

    def counted(f, lams, _inner=cli.estimates.decompositions):
        calls.append(list(lams))
        return _inner(f, lams)

    cfg = ExperimentConfig.from_dict(corpus_run(name, lams=[4.0, 16.0]))
    fns = [fid for fid, _ in build_functions(cfg)]
    assert len(fns) >= 2
    with monkeypatch.context() as m:
        m.setattr(cli.estimates, "decompositions", counted)
        rows, values, inv = cli.execute(cfg)
    per_function = len(cfg.schedule) if name == "second_reduction" else 1
    assert calls == [[4.0, 16.0]] * (len(fns) * per_function)
    parts = [cli.execute(replace(cfg, lams=[lam])) for lam in cfg.lams]
    for part in (rows, *(part_rows for part_rows, _, _ in parts)):
        for row in part:
            del row["config_hash"]
    # function by function, each function's heights in order
    assert rows == [row for fid in fns for part_rows, _, _ in parts
                    for row in part_rows if row["fn_id"] == fid]
    assert (values, inv) == cli._merge(parts)[1:]


def test_every_corpus_experiment_byte_identical_across_jobs(tmp_path):
    """Criterion 12 for each corpus experiment: the CSV and summary at
    --jobs 2, where strong_means fans out too, equal those at --jobs 1."""
    for name in CORPUS_RUNS:
        assert len(build_functions(ExperimentConfig.from_dict(corpus_run(name)))) >= 2
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(corpus_run(name)), encoding="utf-8")
        for jobs in ("1", "2"):
            assert cli.main(["run", str(cfg), "--out", str(tmp_path / jobs),
                             "--baselines", str(tmp_path / "bl"), "--jobs", jobs,
                             "--record-baseline"]) == 0, name
        for out in (f"{name}.csv", f"{name}.summary.json"):
            assert (tmp_path / "1" / out).read_bytes() == \
                (tmp_path / "2" / out).read_bytes(), out


def test_rect_moment_selects_and_streams_once_per_function(monkeypatch):
    """Both geometries of a function come from one `averaged_moment_rect`
    call, so from one selection and one stream per factor; the run used
    to call it, and select and stream, once per geometry."""
    calls = dict.fromkeys(("averaged_moment_rect", "decompositions",
                           "_partial_sum_stream"), 0)
    for name in calls:
        def counted(*args, _inner=getattr(cli.estimates, name), _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(cli.estimates, name, counted)
    cfg = ExperimentConfig.from_dict(corpus_run("rect_moment", lams=[4.0, 16.0]))
    n = len(build_functions(cfg))
    assert n >= 2
    rows, values, _ = cli.execute(cfg)
    assert calls == {"averaged_moment_rect": n, "decompositions": n,
                     "_partial_sum_stream": 2 * n}
    assert len(values) == n * 2 * 2  # functions x heights x geometries


def test_baseline_compare_flags_drift(tmp_path):
    cfg = write_config(tmp_path)
    bl = tmp_path / "bl"
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "r1"),
                     "--baselines", str(bl)]) == 0
    base_path = bl / "small.json"
    recorded = json.loads(base_path.read_text(encoding="utf-8"))
    key = next(iter(recorded["values"]))
    recorded["values"][key] *= 1.5  # well outside the 10% band
    base_path.write_text(json.dumps(recorded), encoding="utf-8")
    rc = cli.main(["run", str(cfg), "--out", str(tmp_path / "r2"),
                   "--baselines", str(bl)])
    assert rc == 1
    summary = json.loads(
        (tmp_path / "r2" / "small.summary.json").read_text(encoding="utf-8"))
    assert key in summary["baseline"]["violations"]
    assert cli.main(["verify-baselines", str(tmp_path / "r2"),
                     "--baselines", str(bl)]) == 1


def test_verify_baselines_clean_roundtrip(tmp_path):
    cfg = write_config(tmp_path)
    bl = tmp_path / "bl"
    cli.main(["run", str(cfg), "--out", str(tmp_path / "r1"),
              "--baselines", str(bl)])
    assert cli.main(["verify-baselines", str(tmp_path / "r1"),
                     "--baselines", str(bl)]) == 0


def run_into(tmp_path, raw: dict, out: str, *flags) -> int:
    p = tmp_path / f"{out}.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    return cli.main(["run", str(p), "--out", str(tmp_path / out),
                     "--baselines", str(tmp_path / "bl"), *flags])


def test_baseline_of_another_config_is_named_not_compared(tmp_path, capsys):
    """A run was compared with whatever config last recorded its
    baseline: first_reduction with one height, against the committed
    baselines, exited 1 with 49 "missing" and "unrecorded" violations
    though every invariant held.  A baseline of another config_hash is
    now named by its hash, compares nothing and is kept; the exit code
    follows the invariants, and verify-baselines calls the summary
    unverified (exit 1).  --record-baseline replaces it."""
    shutil.copytree(ROOT / "baselines", tmp_path / "bl")
    base_path = tmp_path / "bl" / "first_reduction.json"
    committed = base_path.read_bytes()
    raw = json.loads((ROOT / "configs" / "first_reduction.json").read_text(encoding="utf-8"))
    raw["lams"] = [3.0]
    assert run_into(tmp_path, raw, "a") == 0
    summary = json.loads((tmp_path / "a" / "first_reduction.summary.json").read_text(
        encoding="utf-8"))
    assert summary["baseline"] == {"status": "unverified",
                                   "config_hash": json.loads(committed)["config_hash"]}
    assert summary["pass"] is True and base_path.read_bytes() == committed
    capsys.readouterr()
    verify = ["verify-baselines", str(tmp_path / "a"), "--baselines", str(tmp_path / "bl")]
    assert cli.main(verify) == 1
    assert capsys.readouterr().out == (
        f"first_reduction: unverified: run config {summary['config_hash']},"
        f" baseline config {json.loads(committed)['config_hash']}\n")
    assert run_into(tmp_path, raw, "b", "--record-baseline") == 0
    assert json.loads(base_path.read_text(encoding="utf-8"))["config_hash"] == \
        summary["config_hash"]
    assert run_into(tmp_path, raw, "a") == 0
    assert cli.main(verify) == 0


def test_verify_baselines_without_a_baseline_is_unverified(tmp_path, capsys):
    assert run_into(tmp_path, {"experiment": "first_reduction", "seed": 1, "J": 8,
                               "corpus": SPIKE, "output": "one"}, "a") == 0
    (tmp_path / "bl" / "one.json").unlink()
    capsys.readouterr()
    assert cli.main(["verify-baselines", str(tmp_path / "a"),
                     "--baselines", str(tmp_path / "bl")]) == 1
    assert capsys.readouterr().out.startswith("one: unverified: run config ")


def test_baselines_are_keyed_by_output_name(tmp_path):
    """Two rect_moment configs, at J = 7 and J = 8 with their own output
    names, keep their own baselines in one directory and each compares
    with its own: the second used to compare with the first's file,
    baselines/rect_moment.json, and fail on its keys."""
    for J in (7, 8):
        raw = {"experiment": "rect_moment", "seed": 7, "J": J, "d": 2,
               "lams": [32.0], "schedule": [4, 8, 16],
               "corpus": {"families": ["tspike"]}, "output": f"rect{J}"}
        assert run_into(tmp_path, raw, "first") == 0
        assert run_into(tmp_path, raw, "again") == 0
        summary = json.loads((tmp_path / "again" / f"rect{J}.summary.json").read_text(
            encoding="utf-8"))
        assert summary["baseline"]["status"] == "compared"
    assert sorted(p.name for p in (tmp_path / "bl").iterdir()) == ["rect7.json",
                                                                   "rect8.json"]
    assert cli.main(["verify-baselines", str(tmp_path / "again"),
                     "--baselines", str(tmp_path / "bl")]) == 0


def test_list_experiments(capsys):
    assert cli.main(["list-experiments"]) == 0
    out = capsys.readouterr().out.split()
    assert out == list(cli.EXPERIMENTS)


def readme_table(after: str) -> list:
    """Rows of the first Markdown table after a line of the README, as
    lists of stripped cells."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = text.split(after, 1)[1].lstrip("\n").splitlines()
    rows = []
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_tables_match_registry(capsys):
    columns = {}
    for names, cols in readme_table("CSV columns are fixed per experiment:"):
        for name in re.findall(r"`(\w+)`", names):
            columns[name] = cols.strip("`")
    assert cli.main(["list-experiments"]) == 0
    assert sorted(columns) == sorted(capsys.readouterr().out.split())
    for name, exp in cli.EXPERIMENTS.items():
        assert columns[name] == ",".join(exp.columns), name
    # the config table names only options some experiment takes
    fields = dict(readme_table("A config is one JSON object:"))
    named = set(re.findall(r"`(\w+)`", fields["`options`"]))
    taken = {o for exp in cli.EXPERIMENTS.values() for o in exp.options}
    assert named and named <= taken


def test_rect_run_emits_both_geometries(tmp_path):
    p = tmp_path / "rect.json"
    p.write_text(json.dumps({
        "experiment": "rect_moment", "seed": 5, "J": 6, "d": 2,
        "lams": [32.0], "schedule": [8, 16, 32],
        "corpus": {"families": ["tspike"]},
    }), encoding="utf-8")
    assert cli.main(["run", str(p), "--out", str(tmp_path / "o"),
                     "--baselines", str(tmp_path / "bl")]) == 0
    lines = (tmp_path / "o" / "rect_moment.csv").read_text().splitlines()
    assert lines[0].split(",")[1] == "geometry"
    geoms = {line.split(",")[1] for line in lines[1:]}
    assert geoms == {"cube", "slab"}


def test_rect_run_on_delayed_means(tmp_path):
    # a delayed mean of a tensor stays a tensor, so J = 7 takes the
    # separable path
    p = tmp_path / "rect.json"
    p.write_text(json.dumps({
        "experiment": "rect_moment", "seed": 5, "J": 7, "d": 2,
        "corpus": {"families": ["tspike"], "vp": 8},
    }), encoding="utf-8")
    assert cli.main(["run", str(p), "--out", str(tmp_path / "o"),
                     "--baselines", str(tmp_path / "bl")]) == 0
    lines = (tmp_path / "o" / "rect_moment.csv").read_text().splitlines()
    assert {line.split(",")[0] for line in lines[1:]} == {"tspike-J7-vp8"}


def test_density_run_invariants(tmp_path):
    p = tmp_path / "density.json"
    p.write_text(json.dumps({
        "experiment": "density", "seed": 5,
        "options": {"kind": "quarter_power", "s": 1.0, "N_max": 20000},
    }), encoding="utf-8")
    assert cli.main(["run", str(p), "--out", str(tmp_path / "o")]) == 0
    summary = json.loads(
        (tmp_path / "o" / "density.summary.json").read_text(encoding="utf-8"))
    assert summary["invariants"]["membership"] is True
    assert summary["invariants"]["density_floor"] is True
