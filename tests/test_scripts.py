"""Every script under scripts/ still imports against the package, the
benchmark recorder reads and summarizes perfbench's result lines, and
the removal-geometry profile prints curves that meet its identities.

Each script is loaded by path, which runs its imports but not its
`main`, so a script that reaches for a removed or renamed name fails
here instead of at its next manual run.
"""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def load(path: Path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    assert callable(load(path).main)


def test_rect_geometry_profile_meets_identities(capsys):
    """Both removal curves match the inclusion-exclusion identities
    built from the script's own off-band average w_N, so a wrong arc
    for the band shows as a mismatch, and both verdict lines print."""
    load(ROOT / "scripts" / "rect_geometry_profile.py").main()
    out = capsys.readouterr().out
    table = [line.split() for line in out.splitlines()
             if line.split()[:1] and line.split()[0].isdigit()]
    assert [row[0] for row in table] == ["4", "8", "16", "32", "64"]
    for _, _, cube, cube_identity, slab, slab_identity in table:
        assert (cube, slab) == (cube_identity, slab_identity)
    for geometry in ("cube", "slab"):
        assert f"{geometry}: relative change 32 -> 64 = " in out


def test_bench_record_reads_result_lines():
    bench = load(ROOT / "scripts" / "bench_record.py")
    out = ("passes 1\n"
           '{"workload": "moment_p2", "absent": {"x": "gone"}}\n'
           '{"correct": true, "attempted": 4, "failed": 0, "metrics": {}}\n')
    info, res = bench.result_lines(out)
    assert info["absent"] == {"x": "gone"}
    assert res["attempted"] == 4
    with pytest.raises(ValueError):
        bench.result_lines("perfbench: nothing imports\n")


def test_bench_record_summarizes_runs():
    bench = load(ROOT / "scripts" / "bench_record.py")
    walls = [10.0, 12.0, 11.0, 13.0, 9.0]
    results = [{"failed": int(w == 13.0), "attempted": 8,
                "metrics": {"wall_s": {"value": w, "unit": "s"}}} for w in walls]
    out = bench.summarize(results)
    assert (out["failed"], out["attempted"]) == (1, 40)
    wall = out["metrics"]["wall_s"]
    q1, _, q3 = statistics.quantiles(walls, n=4)
    assert wall["median"] == 11.0 and wall["unit"] == "s" and wall["runs"] == 5
    assert wall["spread"] == pytest.approx((q3 - q1) / 11.0)
    assert wall["values"] == walls
    assert bench.spread([4.0])["spread"] == 0.0


def test_bench_seed_matches_seed_results():
    """BENCH_seed.json is perfbench's committed seed-commit results in the
    BENCH layout, marked as converted: same runs, medians and spreads."""
    seed = json.loads((ROOT / "perfbench" / "seed_results.json").read_text(encoding="utf-8"))
    data = json.loads((ROOT / "BENCH_seed.json").read_text(encoding="utf-8"))
    assert data["converted_from"] == "perfbench/seed_results.json"
    assert data["git_revision"] in seed["what"]
    for w, metrics in seed["end_to_end"].items():
        for name, m in metrics.items():
            got = data["end_to_end"][w]["metrics"][name]
            assert got["values"] == seed["end_to_end_runs"][w][name]
            assert got["median"] == pytest.approx(m["median"])
            assert got["spread"] == pytest.approx(m["spread"])
    for w, layers in seed["per_layer"].items():
        assert data["per_layer"][w]["metrics"] == {
            k: v.get("value", 0) for k, v in layers.items()}


def test_bench_files_share_one_layout():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        data = json.loads(path.read_text(encoding="utf-8"))
        assert set(data["machine"]) == {"nproc", "cpu", "python", "numpy"}, path.name
        assert data["git_revision"], path.name
        assert set(data["end_to_end"]) == workloads, path.name
        assert set(data["per_layer"]) == workloads, path.name
        for w in workloads:
            assert set(data["end_to_end"][w]["metrics"]) == metrics, (path.name, w)
            assert isinstance(data["per_layer"][w]["absent"], dict)


def test_bench_pairs_compares_sides():
    pairs = load(ROOT / "scripts" / "bench_pairs.py")
    parent = [10.0, 11.0, 12.0, 10.5, 11.5]
    change = [8.0, 8.5, 12.5, 8.2, 8.1]
    out = pairs.compare(parent, change, "lower")
    assert out["wins"] == 4 and out["pairs"] == 5
    assert out["parent"]["median"] == 11.0 and out["change"]["median"] == 8.2
    q1, _, q3 = statistics.quantiles(parent, n=4)
    assert (out["parent"]["q1"], out["parent"]["q3"]) == (q1, q3)
    assert out["beyond_spread"] and out["better"]
    # a gap within the parent's spread, and the direction of "higher"
    same = pairs.compare(parent, [x + 0.1 for x in parent], "higher")
    assert same["wins"] == 5 and not same["beyond_spread"] and same["better"]
    assert not pairs.compare(parent, change, "higher")["better"]
