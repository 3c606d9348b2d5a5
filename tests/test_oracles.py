"""Whole estimates against references that share no code with the
estimate path: the slow reference estimator of ``oracles`` and the
gamma-input truth."""
import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from laptail import transforms
from laptail.estimator import CONTOUR_C, EstimatorConfig, estimate_cdf_batch
from laptail.inversion import build_grid
from laptail.transform_maps import (BinomialDecompound, Mg1Workload,
                                    NegBinomialDecompound, PoissonDecompound)
from laptail.transforms import (ContourGrid, Gamma, SampleSet,
                               empirical_transform_grid)
from oracles import (direct_transform, gamma_input_cdf, reference_estimate,
                     reference_log)


# The grid transform's error bound against the direct sums, the one that
# tests/test_transforms.py holds tied samples to (TIED_ERROR_BOUND)
TRANSFORM_ERROR_BOUND = 5e-14


@st.composite
def estimate_cases(draw):
    """Samples of n <= 200, atomless or of at most 4 tied values, with or
    without zeros (some zeros and some not for the decompounding maps,
    whose domain event needs both), scaled by 2^-8 .. 2^8; one of the four
    maps; w in 2^-6 .. 2^5; and t_max sqrt(n) or in [1, 100]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["mg1", "poisson", "binomial",
                                 "negbinomial"]))
    n = draw(st.integers(1 if kind == "mg1" else 2, 200))
    if draw(st.booleans()):
        x = rng.choice(rng.gamma(2.0, 1.0, draw(st.integers(1, 4))), n)
    else:
        x = rng.gamma(2.0 ** draw(st.floats(-3.0, 5.0)), 1.0, n)
    if kind == "mg1":
        share = draw(st.floats(0.0, 0.5)) if draw(st.booleans()) else 0.0
    else:
        share = draw(st.floats(0.01, 0.9))
    zeros = rng.random(n) < share
    if kind != "mg1":
        zeros[[0, -1]] = True, False
    x = np.where(zeros, 0.0, x) * 2.0 ** draw(st.floats(-8.0, 8.0))
    if kind == "mg1":
        mean = float(x.mean())
        transform_map = Mg1Workload(
            mean / draw(st.floats(0.05, 0.99)) if mean > 0 else 1.0)
    elif kind == "poisson":
        transform_map = PoissonDecompound()
    else:
        trials = draw(st.integers(1, 6))
        transform_map = (BinomialDecompound(trials) if kind == "binomial"
                         else NegBinomialDecompound(trials))
    w = 2.0 ** draw(st.floats(-6.0, 5.0))
    t_max = draw(st.one_of(st.just(math.sqrt(n)), st.floats(1.0, 100.0)))
    return x, transform_map, w, t_max


# 90 ties at x = ln 9 - 4e-4 and 10 zeros: the transform
# 0.1 + 0.9 e^{-s x} passes within 4.1e-5 of 0 near y = pi / x. One wide
# step there is not certified on the quadrature grid, nor on the grid 4
# times finer, where it is bisected: its chord passes 0 on the other side
# than the transform, which turns by the principal Arg of its ratio minus
# 2 pi
NEAR_ZERO = (np.concatenate([np.zeros(10), np.full(90, math.log(9.0) - 4e-4)]),
             PoissonDecompound(), 1.0, 2.0)


def hides_a_turn(samples: SampleSet, grid: ContourGrid) -> bool:
    """Whether a step of ``grid`` has its ratio in the disk |z - 1| <= 1/2
    while the transform turns across it by another amount than the
    principal Arg of that ratio, as ``reference_log`` shows. Log tracking
    accepts such a step as it is (ROADMAP item 16)."""
    f = direct_transform(samples, grid.points)
    ratios = f[1:] / f[:-1]
    turns = np.diff(reference_log(samples, grid).imag)
    return bool(np.any((np.abs(ratios - 1.0) <= 0.5)
                       & (np.abs(turns - np.angle(ratios)) > math.pi)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(estimate_cases())
@example(NEAR_ZERO)
def test_estimates_match_the_reference_estimator(case):
    # where the library does not fall back, its unclipped value is the
    # reference's within 1e-9 e^{cw}: the noise gain e^{cw} of the inversion
    # times the grid transform's rounding stays far below that, at most
    # 1.2e-13 e^{cw} over 3 800 cases measured. Two known causes are
    # excused and counted:
    # - the quadrature grid hides a turn in a step that log tracking
    #   accepts as it is (``hides_a_turn``, ROADMAP item 16);
    # - the map amplifies the grid transform's rounding where c = 1 is far
    #   from the data's units (ROADMAP item 5): the library's transform is
    #   within its bound of the direct sums, and the reference on the
    #   library's transform matches within 1e-9 e^{cw}
    values, transform_map, w, t_max = case
    samples = SampleSet(values)
    got = estimate_cdf_batch(samples, transform_map, [w],
                             EstimatorConfig(w=1.0, t_max_override=t_max))[0]
    if not got.on_domain_event:
        event(f"library fell back: {got.fallback_reason}")
        return
    want = reference_estimate(samples, transform_map, w, t_max)
    if want is None:
        event("reference gave up")
        return
    bound = 1e-9 * math.exp(CONTOUR_C * w)
    if abs(got.raw_value - want) <= bound:
        return
    grid = build_grid(CONTOUR_C, t_max, w)
    if hides_a_turn(samples, grid):
        event("a step in the disk hides a turn (ROADMAP item 16)")
        return
    library = empirical_transform_grid(samples, grid).values
    assert np.max(np.abs(library - direct_transform(samples, grid.points))) \
        <= TRANSFORM_ERROR_BOUND, (got.raw_value, want)
    assert abs(got.raw_value - reference_estimate(
        samples, transform_map, w, t_max, values=library)) <= bound, \
        (got.raw_value, want)
    event("the map amplifies the transform's rounding (ROADMAP item 5)")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 16: a step in the disk hides a turn")
def test_a_turn_of_2_pi_in_one_step_is_tracked():
    # one sample at x = 8 pi: on the grid of step 1/4 the transform
    # e^{-s x} turns by -2 pi per step, which log tracking takes for 0. The
    # library returns 0.730 where the reference gives 0.879
    samples = SampleSet([8.0 * math.pi])
    got = estimate_cdf_batch(samples, Mg1Workload(16.0 * math.pi), [1.0],
                             EstimatorConfig(w=1.0, t_max_override=1.0))[0]
    want = reference_estimate(samples, Mg1Workload(16.0 * math.pi), 1.0, 1.0)
    assert abs(got.raw_value - want) <= 1e-9 * math.e


def test_gamma_input_truth_is_converged():
    # the truths inverted at T = 2 000, against T = 4 000
    for w, want in ((2.5, 0.70939), (5.0, 0.88540)):
        truth = gamma_input_cdf(5.0, 1.0, 6.25, w)
        assert abs(truth - want) <= 5e-6
        assert abs(truth - gamma_input_cdf(5.0, 1.0, 6.25, w,
                                           t_max=4000.0)) <= 2e-6


def test_atomless_totals_refine_and_match_the_gamma_input_truth(monkeypatch):
    # slot totals Gamma(5, 1) with no atom at 0, drained 6.25 per slot
    # (rho = 0.8), n = 2 000: every rep has a wide uncertified step on the
    # quadrature grid and tracks its log on the grid 4 times finer, and
    # none falls back. Each mean lies within 4 Monte Carlo stderrs of the
    # truth. Measured: means 0.7012 / 0.8806 with sds 0.030 / 0.049
    refined = []
    refine = transforms._GridTransform.refined

    def counted(self, factor):
        refined[-1] += 1
        return refine(self, factor)

    monkeypatch.setattr(transforms._GridTransform, "refined", counted)
    ws, reps = [2.5, 5.0], 40
    estimates = []
    for rep in range(reps):
        refined.append(0)
        totals = Gamma(5.0, 1.0).sample(np.random.default_rng([17, rep]), 2000)
        results = estimate_cdf_batch(SampleSet(totals), Mg1Workload(6.25), ws,
                                     EstimatorConfig(w=1.0))
        assert all(r.on_domain_event for r in results)
        estimates.append([r.value for r in results])
    assert refined == [1] * reps
    estimates = np.array(estimates)
    for w, column in zip(ws, estimates.T):
        stderr = column.std(ddof=1) / math.sqrt(reps)
        assert abs(column.mean() - gamma_input_cdf(5.0, 1.0, 6.25, w)) \
            <= 4.0 * stderr, w


@pytest.mark.parametrize("rep", range(3))
def test_an_outlier_refines_from_its_own_spread(rep, monkeypatch):
    # Gamma(5, 1) totals with one total at x = 30, whose phase h x = 7.3 on
    # the quadrature grid of h near 1/4 is past 2 pi: the grid transform keeps
    # the runs of its spread all the same, so the grid 4 times finer is
    # folded from them and no sample is spread again. The estimates match
    # the reference's within the bound of
    # test_estimates_match_the_reference_estimator; measured 5e-15
    calls = []
    spread, refined = transforms._spread, transforms._GridTransform.refined

    def counted_spread(x, a, h, kernel):
        calls.append(("spread", h * x[-1] > 2.0 * math.pi))
        return spread(x, a, h, kernel)

    def counted_refined(self, factor):
        calls.append(("refined", factor))
        return refined(self, factor)

    monkeypatch.setattr(transforms, "_spread", counted_spread)
    monkeypatch.setattr(transforms._GridTransform, "refined", counted_refined)
    totals = Gamma(5.0, 1.0).sample(np.random.default_rng([17, rep]), 400)
    samples = SampleSet(np.append(totals, 30.0))
    ws = [2.5, 5.0]
    results = estimate_cdf_batch(samples, Mg1Workload(6.25), ws,
                                 EstimatorConfig(w=1.0))
    assert calls == [("spread", True), ("refined", 4)]
    for w, got in zip(ws, results):
        assert got.on_domain_event
        want = reference_estimate(samples, Mg1Workload(6.25), w,
                                  got.t_max_used)
        assert abs(got.raw_value - want) <= 1e-9 * math.exp(CONTOUR_C * w), w
