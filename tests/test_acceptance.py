"""Acceptance criteria, one test per criterion, one printed line each.

Every Monte Carlo criterion runs on a frozen seed so the suite is
deterministic; the bands were sized for run-to-run seed variation anyway.
Each test prints '[criterion N] PASS/FAIL ...' before asserting, so the
summary is visible even when an assertion trips (pytest runs with -s).
"""
import csv
import io
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from laptail.cli import main
from laptail.estimator import EstimatorConfig, estimate_cdf
from laptail.inversion import build_grid
from laptail.logtrack import track_log
from laptail.simulation import replication_rng, sample_compound_poisson
from laptail.studies import decompound_rows
from laptail.simulation import PoissonCounts
from laptail.transform_maps import (BinomialDecompound, Mg1Workload,
                                    NegBinomialDecompound, PoissonDecompound,
                                    apply_map)
from laptail.transforms import (Exponential, SampleSet,
                                empirical_transform_grid)
from oracles import invert_cdf_known

SEED = 1


def report(num: int, ok: bool, detail: str, t0: float) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} - {detail} ({time.time() - t0:.1f}s)")
    return ok


def run_cli(argv, capsys) -> list[dict]:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return list(csv.DictReader(io.StringIO(out)))


def test_criterion_1_percentile_table(capsys):
    t0 = time.time()
    rows = run_cli(["table1"], capsys)
    want = [0.1609, 0.3912, 0.6215, 1.0986, 2.2499, 3.4012,
            2.2513, 4.5539, 6.8565]
    got = [float(r["w"]) for r in rows]
    worst = max(abs(g - w) for g, w in zip(got, want))
    ok = len(got) == 9 and worst <= 5e-4
    with capsys.disabled():
        assert report(1, ok, f"all nine percentiles within 5e-4 (worst {worst:.2e})", t0)


def test_criterion_2_inversion_oracle():
    t0 = time.time()
    ws = [0.5, math.log(2.0), 1.0, 2.0]
    ok = True
    details = []
    for w in ws:
        truth = 1.0 - math.exp(-w)
        errs = {t: abs(invert_cdf_known(Exponential(1.0), w, t_max=t) - truth)
                for t in (100.0, 200.0, 400.0)}
        ok &= errs[200.0] <= 0.01
        ok &= errs[400.0] < errs[100.0]
        details.append(f"w={w:.3g}: err200={errs[200.0]:.1e}")
    assert report(2, ok, "exp(1) CDF within 0.01 at T=200, error falls from "
                  f"T=100 to T=400 at every w [{'; '.join(details)}]", t0)


def test_criterion_3_map_round_trips():
    t0 = time.time()
    grid = build_grid(1.0, 50.0, 1.0)
    s = grid.points
    bt = lambda z: 1.0 / (1.0 + z)
    b20 = lambda z: 20.0 / (20.0 + z)

    def tracked(ev):
        return track_log(ev, grid, ev(s))

    worst = 0.0
    path = tracked(lambda z: np.exp(1.0 * (b20(z) - 1.0)))
    got = Mg1Workload(0.1).values(path, SimpleNamespace(mean=0.05))
    want = s * 0.5 / (s - 10.0 + 10.0 * b20(s))
    worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))

    path = tracked(lambda z: np.exp(2.0 * (bt(z) - 1.0)))
    got = PoissonDecompound().values(
        path, SimpleNamespace(zero_fraction=math.exp(-2.0)))
    worst = max(worst, float(np.max(np.abs(got - bt(s)) / np.abs(bt(s)))))

    path = tracked(lambda z: (0.5 * bt(z) + 0.5) ** 2)
    got = BinomialDecompound(2).values(path, SimpleNamespace(zero_fraction=0.25))
    worst = max(worst, float(np.max(np.abs(got - bt(s)) / np.abs(bt(s)))))

    path = tracked(lambda z: 0.5 / (1.0 - 0.5 * bt(z)))
    got = NegBinomialDecompound(1).values(path,
                                          SimpleNamespace(zero_fraction=0.5))
    worst = max(worst, float(np.max(np.abs(got - bt(s)) / np.abs(bt(s)))))

    ok = worst <= 1e-6
    assert report(3, ok, "all four maps reproduce the exact transform on "
                  f"c=1, T=50 (worst relative error {worst:.1e})", t0)


def test_criterion_4_winding():
    t0 = time.time()
    grid = build_grid(0.5, 20.0, 1.0)
    path = track_log(lambda z: np.exp(-z), grid, np.exp(-grid.points))
    endpoint = path.values[-1].imag
    ok = abs(endpoint - (-20.0)) <= 1e-9 and endpoint < -math.pi
    assert report(4, ok, f"tracked log of exp(-s) reaches imag {endpoint:.6f} "
                  "at y=20 (principal branch would stay in (-pi, pi])", t0)


def test_criterion_5_estimator_comparison_study(capsys):
    t0 = time.time()
    rows = run_cli(["table2", "--rho", "0.5", "--reps", "100",
                    "--seed", str(SEED)], capsys)
    cell = {(r["p"], r["estimator"]): float(r["mean_rel_error"]) for r in rows}
    lap9 = cell[("0.9", "laplace")]
    emp9 = cell[("0.9", "empirical")]
    cen9 = cell[("0.9", "laplace_censored")]
    beats = all(cell[(p, "laplace")] < cell[(p, "empirical")]
                for p in ("0.9", "0.99", "0.999"))
    ok = (0.02 <= lap9 <= 0.09 and 0.3 <= emp9 <= 0.8
          and 0.08 <= cen9 <= 0.25 and beats)
    with capsys.disabled():
        assert report(5, ok, f"w_.9 errors laplace={lap9:.3f} in [0.02,0.09], "
                      f"empirical={emp9:.3f} in [0.3,0.8], "
                      f"censored={cen9:.3f} in [0.08,0.25]; "
                      f"laplace beats empirical at all w: {beats}", t0)


def test_criterion_6_convergence_rate(capsys):
    t0 = time.time()
    rows = run_cli(["convergence", "--reps", "200", "--seed", str(SEED)],
                   capsys)
    errors = [float(r["mean_abs_error"]) for r in rows]
    slope = float(rows[0]["slope"])
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    ok = -0.75 <= slope <= -0.30 and decreasing
    with capsys.disabled():
        assert report(6, ok, f"log-log slope {slope:.3f} in [-0.75,-0.30]; "
                      f"errors {', '.join(f'{e:.4f}' for e in errors)} "
                      f"strictly decreasing: {decreasing}", t0)


def test_criterion_7_decompounding():
    t0 = time.time()
    rows = decompound_rows(seed=SEED, counts=PoissonCounts(1.0),
                           jobs=Exponential(1.0),
                           transform_map=PoissonDecompound(),
                           ws=[math.log(2.0)], n=10**4, reps=50)
    mae = rows[0]["mean_abs_error"]

    rng = replication_rng(SEED, 0)
    ss = sample_compound_poisson(rng, 1.0, Exponential(1.0), 10**4)
    grid = build_grid(1.0, 100.0, math.log(2.0))
    via_map = apply_map(BinomialDecompound(1), ss, grid).values
    vals = empirical_transform_grid(ss, grid).values
    q = ss.zero_fraction
    reduction_gap = float(np.max(np.abs(via_map - (vals - q) / (1.0 - q))))

    ok = mae <= 0.05 and reduction_gap <= 1e-10
    assert report(7, ok, f"Poisson decompounding MAE {mae:.4f} <= 0.05 at "
                  f"F(ln 2)=0.5; binomial M=1 reduction gap {reduction_gap:.1e}", t0)


def test_criterion_8_transform_error_moment():
    t0 = time.time()
    s = 1.0 + 1.0j
    truth = 1.0 / (1.0 + s)
    rng = np.random.default_rng(SEED)
    ok = True
    details = []
    for n in (10, 100, 1000):
        reps = 300
        x = rng.exponential(1.0, (reps, n))
        emp = np.exp(-s * x).mean(axis=1)
        moment = float(np.mean(np.abs(truth - emp) ** 1.5))
        bound = 2.0 ** 1.5 / math.sqrt(n)
        ok &= moment <= bound
        details.append(f"n={n}: {moment:.4f}<={bound:.4f}")
    assert report(8, ok, "mean |transform gap|^1.5 at s=1+i under "
                  f"2^1.5 n^-1/2 [{'; '.join(details)}]", t0)


def test_criterion_9_fuzzed_robustness():
    t0 = time.time()
    rng = np.random.default_rng(90)
    maps = [Mg1Workload(0.1), Mg1Workload(2.0), PoissonDecompound(),
            BinomialDecompound(2), BinomialDecompound(1)]

    def fuzz_values(k: int) -> np.ndarray:
        case = k % 10
        if case == 0:
            return np.zeros(int(rng.integers(1, 6)))
        if case == 1:
            return np.array([rng.uniform(0.0, 3.0)])
        if case == 2:
            return rng.uniform(0.0, 1e12, int(rng.integers(1, 8)))
        if case == 3:
            v = rng.exponential(0.05, int(rng.integers(2, 40)))
            v[rng.random(v.size) < 0.5] = 0.0
            return v
        if case == 4:
            return rng.exponential(100.0, int(rng.integers(1, 20)))
        if case == 5:
            return np.full(int(rng.integers(1, 10)), rng.uniform(0.0, 2.0))
        if case == 6:
            return rng.uniform(0.0, 1e-9, int(rng.integers(1, 20)))
        if case == 7:
            return rng.pareto(0.5, int(rng.integers(1, 30))) * rng.uniform(0.0, 10.0)
        if case == 8:
            v = rng.exponential(1.0, int(rng.integers(2, 60)))
            v[0] = 0.0
            return v
        return rng.uniform(0.0, 5.0, int(rng.integers(1, 100)))

    total = 100_000
    violations = 0
    fallbacks = 0
    for k in range(total):
        ss = SampleSet(fuzz_values(k))
        cfg = EstimatorConfig(w=float(rng.uniform(0.05, 5.0)))
        try:
            res = estimate_cdf(ss, maps[k % len(maps)], cfg)
        except Exception:
            violations += 1
            continue
        coherent = (0.0 <= res.value <= 1.0
                    and res.on_domain_event == (res.fallback_reason is None)
                    and (res.on_domain_event or res.raw_value is None)
                    and res.n == ss.n)
        if not coherent:
            violations += 1
        if not res.on_domain_event:
            fallbacks += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 300.0
    assert report(9, ok, f"{total} fuzzed sample sets, {violations} "
                  f"violations, {fallbacks} fallbacks, never raised", t0)
