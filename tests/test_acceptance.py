"""Acceptance gate: twelve criteria, one test and one verdict line each.

Each test prints `criterion NN: PASS/FAIL - detail`.  The verdicts are
also collected, and once all twelve criteria have run they are written
to acceptance_report.txt at the repo root in criterion order, so they
survive output capturing and a partial run (a -k filter, -x) leaves the
committed report as it was.  Wall times are printed but kept out of the
report, so a full run leaves it byte for byte as it was.  Criteria 06
and 08 measure quantities that obey exact laws: the power-decay moment
of a spike scales as N^(2-s), and the two 2-d removal geometries follow
inclusion-exclusion identities in the 1-d off-arc averages.  Their tests derive those laws in comments
and check them against closed-form oracles that do not use the code
under test.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from strongmeans import cli, corpus, estimates, spectral
from strongmeans.covering import exhaustive_chain_scan
from strongmeans.czd import decompose
from strongmeans.suites import covering_suite, czd_suite

from oracles import (axis_arcs, exponential, off_arc_moments,
                     plancherel_average, sliced, trig_poly)

ROOT = Path(__file__).resolve().parent.parent
REPORT = ROOT / "acceptance_report.txt"
CRITERIA = 12
_verdicts = {}  # criterion number -> verdict line

_corpus_cache = {}


def corpus_1d():
    if "1d" not in _corpus_cache:
        _corpus_cache["1d"] = corpus.standard_corpus(12, seed=7, n_random=2)
    return _corpus_cache["1d"]


def verdict(num: int, ok: bool, detail: str, timing: str = ""):
    """Print the verdict line and its wall time; record it without."""
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(f"{line}, {timing}" if timing else line)
    _verdicts[num] = line
    if len(_verdicts) == CRITERIA:
        REPORT.write_text("".join(_verdicts[k] + "\n" for k in sorted(_verdicts)),
                          encoding="utf-8")


def load_baseline(name: str) -> dict:
    return json.loads(
        (ROOT / "baselines" / f"{name}.json").read_text(encoding="utf-8")
    )["values"]


def test_criterion_01_covering_battery(once_per_session):
    # the same run as configs/covering_suite.json in the committed-output gate
    res = once_per_session(covering_suite)(10_000, 1_000, seed=1)
    ok = res.ok and res.elapsed < 60
    verdict(1, ok, f"{res.trials} families, failures={res.failures}",
            f"{res.elapsed:.1f}s (limit 60s)")
    assert res.failures["containment_1d"] == 0
    assert res.failures["containment_2d"] == 0
    assert res.elapsed < 60


def test_criterion_02_chain_bridge_exhaustive():
    t0 = time.perf_counter()
    scan = exhaustive_chain_scan(6)
    elapsed = time.perf_counter() - t0
    ok = not scan.violations and elapsed < 30
    verdict(2, ok, f"{scan.chains} chains at levels <= 6, "
                   f"violations={len(scan.violations)}",
            f"{elapsed:.2f}s (limit 30s)")
    assert scan.violations == []
    assert elapsed < 30


def test_criterion_03_czd_invariant_battery(once_per_session):
    # the same run as configs/czd_suite.json in the committed-output gate
    res = once_per_session(czd_suite)(10_000, J=12, seed=2)
    verdict(3, res.ok, f"{res.trials} (f, lambda) pairs at J=12, "
                       f"failures={res.failures}", f"{res.elapsed:.1f}s")
    assert res.ok, res.failures


def test_criterion_04_spike_plateau_contrast():
    f = corpus.spike(12)
    [reports] = estimates.averaged_moment(f, [8.0], (256, 2048), fn_id="spike")
    lo, hi = reports
    full_err = max(abs(lo.full_torus_avg - 258), abs(hi.full_torus_avg - 2050))
    plateau = hi.avg_moment / lo.avg_moment
    growth = hi.full_torus_avg / lo.full_torus_avg
    ok = (full_err < 1e-9 and plateau <= 1.1 and growth >= 7.5
          and lo.measure_E == Fraction(5, 16))
    verdict(4, ok, f"full-torus error {full_err:.1e}, plateau x{plateau:.4f} "
                   f"(<=1.1), growth x{growth:.3f} (>=7.5), "
                   f"measure(E)={lo.measure_E}")
    assert full_err < 1e-9
    assert plateau <= 1.1
    assert growth >= 7.5
    assert lo.measure_E == Fraction(5, 16)


def test_criterion_05_measure_bound_exact_sweep():
    lams = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    checked = 0
    worst = Fraction(0)
    for fn_id, f in corpus_1d():
        l1 = Fraction(f.l1())
        for lam in lams:
            exc = estimates.build_exceptional_set(decompose(f, lam), 5)
            bound = 5 * l1 / Fraction(lam)
            assert exc.measure <= bound, (fn_id, lam)
            if bound > 0:
                worst = max(worst, exc.measure / bound)
            checked += 1
    # same sweep for the 2-d families, with the dimension-squared factor
    for fn_id, f in corpus.standard_corpus(5, seed=7, d=2):
        l1 = Fraction(f.l1())
        for lam in lams:
            exc = estimates.build_exceptional_set(decompose(f, lam), 5)
            assert exc.measure <= 25 * l1 / Fraction(lam), (fn_id, lam)
            checked += 1
    verdict(5, True, f"{checked} (f, lambda, c=5) builds, all exact "
                     f"rational bounds hold; tightest fill {float(worst):.3f}")


def test_criterion_06_decay_kernel_exponents():
    # The kernel is K_N(x) = N (N|x|)^-s, truncated to N on |x| < 1/N.
    # The delayed mean f_N of the spike at x0 has ||f_N||_2^2 proportional
    # to N, and |f_N|^2 sits within O(1/N) of x0, deep inside E (measure
    # 5/16).  Off E the convolution is therefore ||f_N||_2^2 K_N(x - x0),
    # and the moment is
    #   ||f_N||_2^2 N^(1-s) int_{T \ E} |x - x0|^-s dx,
    # proportional to N^(2-s) for every s > 1: log-log slope 2 - s.
    f = corpus.spike(12)
    half_width = {1.5: 0.2, 2.0: 0.1, 3.0: 0.1}
    bands = {s: (2 - s - h, 2 - s + h) for s, h in half_width.items()}
    slopes = {s: slope for s, (slope, _) in zip(bands, estimates.decay_slope(
        f, [8.0], list(bands), (64, 128, 256, 512, 1024))[0])}
    in_band = {s: lo <= slopes[s] <= hi for s, (lo, hi) in bands.items()}
    verdict(6, all(in_band.values()),
            "slopes against the law 2-s: " + ", ".join(
                f"s={s:g}: {slopes[s]:+.4f} (band [{lo:.1f},{hi:.1f}])"
                for s, (lo, hi) in bands.items()))
    for s, ok in in_band.items():
        assert ok, (s, slopes[s], bands[s])
    # beyond s = 2 the moment decays; it never grows
    assert slopes[3.0] <= 0.1


def test_criterion_07_fourth_moment_log_normalized():
    sched = (32, 64, 128, 256, 512, 1024, 2048)
    base = load_baseline("p4_moment")
    fns = corpus.standard_corpus(14, seed=7, n_random=1)
    details = []
    for fn_id, f in fns:
        [reports] = estimates.averaged_moment(f, [8.0], sched, p=4, fn_id=fn_id)
        curve = [r.avg_moment for r in reports]
        peak = max(curve)
        cap = 1.25 * base[f"{fn_id}|8"]
        tail = curve[sched.index(256):]
        monotone = all(b <= a * (1 + 1e-12) for a, b in zip(tail, tail[1:]))
        details.append((fn_id, peak, cap, monotone))
        assert peak <= cap, (fn_id, peak, cap)
        assert monotone, (fn_id, curve)
    verdict(7, True, "curves within 1.25x baseline and non-increasing on "
                     "[256, 2048]: "
                     + ", ".join(f"{fid} peak {p:.3g}<= {c:.3g}"
                                 for fid, p, c, _ in details))


def test_criterion_08_rect_moment_geometries():
    f = corpus.spike(7, dim=2)
    sched = (4, 8, 16, 32, 64)
    [(cube, slab)] = estimates.averaged_moment_rect(f, [32.0], sched)
    full_err = max(abs(r.full_torus_avg - (r.N + 2) ** 2) for r in cube)
    # One bad cube Q; its dilated shadow on axis i is an arc B_i, so the
    # dilated cube is B_0 x B_1.  Every Fourier coefficient of the spike
    # factor g has modulus 1, so int_T |S_n g|^2 = 2n + 1 and its average
    # over n <= N is N + 2.  With w_i(N) = (1/N) sum_{n<=N} of
    # int_{T \ B_i} |S_n g|^2, inclusion-exclusion on the product
    # weights gives
    #   slab: complement (T \ B_0) x (T \ B_1), avg = w_0 w_1
    #   cube: complement T^2 \ (B_0 x B_1),
    #         avg = (N+2)^2 - (N+2-w_0)(N+2-w_1)
    # which is 2(N+2) w - w^2 when w_0 = w_1 = w.  The cube curve thus
    # grows affinely in N for any w > 0, while the slab curve plateaus.
    # The w_i come from per-order partial sums against exact arc weights,
    # not from the tensor fast path under test.
    cz = decompose(f, 32.0)
    assert len(cz.bad) == 1
    n_max = sched[-1]
    w0, w1 = (np.cumsum(off_arc_moments(g, axis_arcs(cz, 5, axis), n_max, 1))
              / np.arange(1, n_max + 1) for axis, g in enumerate(f.factors))
    cube_law = {N: (N + 2) ** 2 - (N + 2 - w0[N - 1]) * (N + 2 - w1[N - 1])
                for N in sched}
    slab_law = {N: w0[N - 1] * w1[N - 1] for N in sched}

    def rel_err(reports, law):
        return max(abs(r.avg_moment - law[r.N]) / law[r.N] for r in reports)

    cube_err = rel_err(cube, cube_law)
    slab_err = rel_err(slab, slab_law)
    cube_change = cube[-1].avg_moment / cube[-2].avg_moment - 1
    slab_change = abs(slab[-1].avg_moment / slab[-2].avg_moment - 1)
    # affine growth of the cube-complement curve: log-log slope toward 1
    tail = [r.avg_moment for r in cube[-3:]]
    slope = np.polyfit(np.log(sched[-3:]), np.log(tail), 1)[0]
    measures_ok = (cube[0].measure_E == Fraction(25, 64)
                   and slab[0].measure_E == Fraction(55, 64))
    ok = (full_err < 1e-6 and cube_err < 1e-12 and slab_err < 1e-12
          and measures_ok and 0.7 <= slope <= 1.05 and slab_change <= 0.15)
    verdict(8, ok,
            f"full-torus (N+2)^2 error {full_err:.1e}; cube curve against "
            f"(N+2)^2-(N+2-w0)(N+2-w1) rel {cube_err:.1e}, slab curve against "
            f"w0*w1 rel {slab_err:.1e} (<1e-12); cube grows "
            f"{cube_change:+.1%} from N=32 to 64 (slope {slope:.2f} in "
            f"[0.7,1.05]); slab changes {slab_change:.1%} (<=15%)")
    assert full_err < 1e-6
    assert cube_err < 1e-12
    assert slab_err < 1e-12
    assert cube[0].measure_E == Fraction(25, 64)
    assert slab[0].measure_E == Fraction(55, 64)
    assert 0.7 <= slope <= 1.05
    # removing both coordinate shadows restores the plateau
    assert slab_change <= 0.15


def test_criterion_09_strong_means_convergence():
    sched = (32, 64, 128, 256, 512, 1024, 2048)
    base = load_baseline("strong_means")
    f = spectral.valle_poussin(corpus.spike(12), 512)
    fn_id = "spike-J12-vp512"
    worst = 0.0
    eps_values = [factor * f.linf() ** 2 for factor in (0.5, 0.25)]
    rep = estimates.strong_means_measure(f, eps_values, sched, fn_id=fn_id)
    for measures in rep.measures:
        head = measures[:sched.index(1024) + 1]
        assert all(b <= a + 1e-15 for a, b in zip(head, head[1:])), head
        assert measures[-1] == 0.0
    for lam, ratio in zip(rep.lam_grid, rep.weak_ratios):
        ref = base[f"{fn_id}|{cli.fmt(lam)}"]
        drift = abs(ratio - ref) / max(abs(ref), 1e-30)
        worst = max(worst, drift)
        assert drift <= 0.10, (lam, ratio, ref)
    verdict(9, True, "super-level measures non-increasing on [32,1024], "
                     "exactly 0 at N=2048 for both eps factors; weak-type "
                     f"ratios within {worst:.2%} of baseline (tol 10%)")


def test_criterion_10_density_extractor():
    n = np.arange(1, 10**6 + 1, dtype=float)
    values = sliced(1.0 + n**-0.25)
    run = estimates.density_subsequence(values, 10**6, 1, 1.0,
                                        tuple(4**k for k in range(1, 10)))
    end_density = run.density[-1]
    assert run.eval_points[-1] == 10**6
    assert end_density >= 0.99
    assert run.check_membership(values)
    assert run.density_floor_ok()

    i = np.arange(1, 1001, dtype=float)
    rad = np.hypot(i[:, None], i[None, :])
    values2 = sliced(1.0 + rad**-0.25)
    run2 = estimates.density_subsequence(values2, 1000, 2, 1.0,
                                         (4, 16, 64, 256))
    assert run2.eval_points[-1] == 1000
    assert run2.density[-1] >= 0.98
    assert run2.check_membership(values2)
    verdict(10, True, f"1-d density at 10^6: {end_density:.4f} (>=0.99), "
                      f"membership exact; 2-d density at 10^3: "
                      f"{run2.density[-1]:.4f} (>=0.98)")


def test_criterion_11_spectral_exactness():
    rng = np.random.default_rng(5)
    f = trig_poly(10, rng, 100)
    [[eng]] = estimates.averaged_moment(f, [2.0], (256,))
    plan = plancherel_average(f, 256)
    rel = abs(eng.full_torus_avg - plan) / plan

    e3 = exponential(3, 6)
    s3 = spectral.partial_sum(e3, 3, refine=0)
    s2 = spectral.partial_sum(e3, 2, refine=0)
    err3 = float(np.max(np.abs(s3.samples - e3.samples)))
    err2 = float(np.max(np.abs(s2.samples)))

    g = trig_poly(9, rng, 60)
    vp = spectral.valle_poussin(g, 64)  # band 60 <= 64 is reproduced
    errvp = float(np.max(np.abs(vp.samples - g.samples)))

    ok = rel < 1e-10 and err3 < 1e-12 and err2 < 1e-12 and errvp < 1e-12
    verdict(11, ok, f"energy identity rel {rel:.1e} (<1e-10), "
                    f"pure-mode truncation errors {err3:.1e}/{err2:.1e} "
                    f"(<1e-12), band reproduction {errvp:.1e} (<1e-12)")
    assert rel < 1e-10
    assert err3 < 1e-12
    assert err2 < 1e-12
    assert errvp < 1e-12


def test_criterion_12_byte_identical_parallelism(tmp_path):
    cfg = tmp_path / "det.json"
    cfg.write_text(json.dumps({
        "experiment": "averaged_moment", "seed": 11, "J": 9,
        "lams": [4.0, 8.0], "schedule": [32, 64, 128],
        "corpus": {"families": ["spike", "kspikes", "trig", "noise"],
                   "n_random": 1},
        "output": "det",
    }), encoding="utf-8")
    bl = tmp_path / "bl"
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "r0"),
                     "--baselines", str(bl)]) == 0
    t0 = time.perf_counter()
    for out, jobs in (("r1", "1"), ("r2", "3")):
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / out),
                         "--baselines", str(bl), "--jobs", jobs]) == 0
    elapsed = time.perf_counter() - t0
    same_csv = ((tmp_path / "r1" / "det.csv").read_bytes()
                == (tmp_path / "r2" / "det.csv").read_bytes())
    same_json = ((tmp_path / "r1" / "det.summary.json").read_bytes()
                 == (tmp_path / "r2" / "det.summary.json").read_bytes())
    verdict(12, same_csv and same_json,
            "CSV and JSON byte-identical at --jobs 1 vs 3",
            f"{elapsed:.1f}s for both runs")
    assert same_csv
    assert same_json
