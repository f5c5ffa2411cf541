"""Every script under scripts/ still imports against the package, the
benchmark recorder reads and summarizes perfbench's result lines, and
a terminated pairs run leaves no process or export behind.

Each script is loaded by path, which runs its imports but not its
`main`, so a script that reaches for a removed or renamed name fails
here instead of at its next manual run.
"""

import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
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


# stands in for perfbench/run.py: like it, it starts a program in its own
# process group and stops that group when SIGTERM ends it
STUB_RUN = """\
import os, signal, subprocess, sys, time
signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"],
                         start_new_session=True)
try:
    with open(os.environ["STUB_PIDS"], "a") as fh:
        fh.write(f"{os.getpid()} {child.pid}\\n")
    time.sleep(60)
finally:
    os.killpg(child.pid, signal.SIGKILL)
    child.wait()
"""


def alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_bench_pairs_stops_its_run_on_sigterm(tmp_path):
    """SIGTERM during a pair stops the running perfbench, which stops the
    program it started, and removes the exported trees."""
    repo, tmp, pids = tmp_path / "repo", tmp_path / "tmp", tmp_path / "pids"
    (repo / "scripts").mkdir(parents=True)
    (repo / "perfbench").mkdir()
    tmp.mkdir()
    for name in ("bench_pairs.py", "bench_record.py"):
        shutil.copy(ROOT / "scripts" / name, repo / "scripts" / name)
    (repo / "perfbench" / "run.py").write_text(STUB_RUN, encoding="utf-8")
    (repo / "BENCHMARK.json").write_text('{"run_seconds": 1, "end_to_end": []}')
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
        subprocess.run(git + args, cwd=repo, check=True, capture_output=True)
    env = {**os.environ, "TMPDIR": str(tmp), "STUB_PIDS": str(pids)}
    proc = subprocess.Popen([sys.executable, "scripts/bench_pairs.py", "HEAD", "--pairs", "1"],
                            cwd=repo, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    started = []
    try:
        deadline = time.monotonic() + 60
        while not pids.exists() or not pids.read_text().endswith("\n"):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        started = [int(pid) for pid in pids.read_text().split()]
        assert list(tmp.glob("bench_pairs_*"))
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        assert not [pid for pid in started if alive(pid)]
        assert not list(tmp.glob("bench_pairs_*"))
    finally:
        proc.kill()
        proc.wait()
        for pid in started:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
