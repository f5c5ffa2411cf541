"""Tests of the benchmark itself: the output check, absent layers, the metric list.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import run

REF = """fn_id,lambda,N,avg_moment,measure_E,config_hash
spike-J12,2,32,0.0123456789012,3/64,0b7c5e2a1f09
spike-J12,2,64,152.340000001,1/2,0b7c5e2a1f09
"""


def _with_cell(text, row, col, value):
    lines = [line.split(",") for line in text.splitlines()]
    lines[row][col] = value
    return "\n".join(",".join(cells) for cells in lines) + "\n"


def _scaled(cell, rel):
    return repr(float(cell) * (1 + rel))


def test_identical_csv_matches():
    assert run.compare_csv(REF, REF) == []


def test_float_drift_of_1e_13_passes_and_1e_9_fails():
    for row in (1, 2):
        cell = REF.splitlines()[row].split(",")[3]
        assert run.compare_csv(_with_cell(REF, row, 3, _scaled(cell, 1e-13)),
                               REF) == []
        diffs = run.compare_csv(_with_cell(REF, row, 3, _scaled(cell, 1e-9)),
                                REF)
        assert len(diffs) == 1 and "avg_moment" in diffs[0]


def test_float_drift_on_a_recorded_reference():
    ref = (run.refs_dir(0) / "averaged_moment.csv").read_text()
    lines = [line.split(",") for line in ref.splitlines()]
    for cells in lines[1:]:
        cells[3] = _scaled(cells[3], 1e-13)
    drifted = "\n".join(",".join(c) for c in lines) + "\n"
    assert run.compare_csv(drifted, ref) == []
    row = next(i for i, c in enumerate(lines[1:], 1) if float(c[3]) != 0)
    lines[row][3] = _scaled(lines[row][3], 1e-9)
    drifted = "\n".join(",".join(c) for c in lines) + "\n"
    assert len(run.compare_csv(drifted, ref)) == 1


def test_changed_fraction_fails():
    assert run.compare_csv(_with_cell(REF, 1, 4, "5/64"), REF)
    # a fraction may not turn into its float value either
    assert run.compare_csv(_with_cell(REF, 2, 4, "0.5"), REF)


def test_integer_and_string_cells_are_exact():
    assert run.compare_csv(_with_cell(REF, 1, 2, "33"), REF)
    assert run.compare_csv(_with_cell(REF, 1, 5, "0b7c5e2a1f0a"), REF)
    assert run.compare_csv(REF + "spike-J12,2,128,1.5,1/2,0b7c5e2a1f09\n", REF)


def test_missing_wrapped_function_is_absent():
    sys.path.insert(0, str(run.ROOT / "src"))
    try:
        from tracer import Recorder

        rec = Recorder()
        rec.install({"czd.decompose": ("strongmeans.czd", "no_such_function")})
    finally:
        sys.path.remove(str(run.ROOT / "src"))
    assert "no longer exists" in rec.absent["czd.decompose"]
    report = {**rec.dump(), "spans": [["cli.main", 0.0, 1.0, -1, None],
                                      ["cli.execute", 0.1, 0.9, 0, None]]}
    metrics, absent = run.layer_metrics(run.aggregate([("c", report)]),
                                        "exact_and_small", {})
    for name in ("czd.decompose_s", "czd.decompose_calls", "czd.exact_frac"):
        assert "no longer exists" in absent[name]
        assert metrics[name]["value"] == 0
    assert absent["covering.chain_scan_s"] == "not reached by exact_and_small"
    assert absent["cli.parallel_speedup"] == "does not apply to exact_and_small"
    assert set(metrics) == set(run.PER_LAYER)


def test_traced_launch_records_spans(tmp_path):
    cfg = tmp_path / "density.json"
    raw = json.loads((run.BENCH / "configs" / "density.json").read_text())
    raw["options"]["N_max"] = 1000
    cfg.write_text(json.dumps(raw))
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(run.LAUNCH), str(report), "--trace", "run",
         str(cfg), "--out", str(tmp_path / "out"), "--baselines",
         str(tmp_path / "base")], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rep = json.loads(report.read_text())
    names = [s[0] for s in rep["spans"]]
    assert names[0] == "cli.main"
    assert {"cli.execute", "cli.write_csv",
            "estimates.density_subsequence"} <= set(names)
    agg = run.aggregate([("density", rep)])
    metrics, absent = run.layer_metrics(agg, "exact_and_small", {})
    assert "cli.execute_s" not in absent and "cli.rows" not in absent
    assert metrics["cli.rows"]["value"] == len(
        (tmp_path / "out" / "density.csv").read_text().splitlines()) - 1
    assert rep["imported"] <= rep["start"] <= rep["end"]


def test_list_prints_every_metric_of_benchmark_json():
    out = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--list"],
                         capture_output=True, text=True, check=True).stdout
    listed = {}
    for line in out.splitlines():
        name, unit, better, kind = line.split("\t")
        listed[name] = (unit, better, kind)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: (m["unit"], m["better"], kind)
                for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    assert listed == expected
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "refs"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "moment_p2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench_work").exists()
