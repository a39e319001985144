"""Closed-form deviation bounds and the empirical tails they dominate."""
from __future__ import annotations

import math

import numpy as np
import pytest

from wignerlab.concentration import (
    MIN_TAIL_TRIALS,
    TailEstimate,
    bernstein_bound,
    bernstein_tail_check,
    empirical_tail,
    hoeffding_mgf_bound,
    spectral_bound,
)
from wignerlab.ensembles import EnsembleSpec, EntryLaw, VarianceProfile, wigner_unit_spec
from wignerlab.spectral_measures import RampFunction


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def test_spectral_bound_values():
    assert spectral_bound(32, 1.0) == pytest.approx(2.0 / math.e, rel=1e-14)
    with pytest.raises(ValueError, match="n must be positive"):
        spectral_bound(0, 1.0)
    with pytest.raises(ValueError, match="t must be positive"):
        spectral_bound(8, 0.0)


def test_spectral_bound_is_mcdiarmid_at_scaled_threshold():
    for n in (8, 64, 500):
        for t in (0.1, 0.5, 1.3):
            lam = t * math.sqrt(n) / 2.0
            assert spectral_bound(n, t) == pytest.approx(2.0 * math.exp(-lam * lam / 8.0), rel=1e-14)


def test_spectral_bound_doubling_identity():
    # doubling n squares the exponential factor: b(2n,t) = b(n,t)^2 / 2
    for t in (0.2, 0.7):
        for n in (16, 100):
            assert spectral_bound(2 * n, t) == pytest.approx(
                spectral_bound(n, t) ** 2 / 2.0, rel=1e-12
            )


def test_bernstein_values():
    assert bernstein_bound(1.0, 1.0) == pytest.approx(math.exp(-0.25), rel=1e-14)
    assert bernstein_bound(0.0, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert bernstein_bound(1.0, 1e-12) == pytest.approx(1.0, abs=1e-9)
    xs = np.linspace(0.1, 8.0, 40)
    vals = [bernstein_bound(0.5, x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # larger variance proxy weakens the bound
    assert bernstein_bound(2.0, 1.0) > bernstein_bound(0.5, 1.0)
    with pytest.raises(ValueError, match="second moment"):
        bernstein_bound(-0.1, 1.0)
    with pytest.raises(ValueError, match="x must be positive"):
        bernstein_bound(1.0, 0.0)


def test_hoeffding_mgf_values():
    assert hoeffding_mgf_bound(1.0, 1.0) == 1.0
    assert hoeffding_mgf_bound(-1.0, 1.0) == pytest.approx(math.exp(8.0), rel=1e-14)
    with pytest.raises(ValueError, match="need a <= b"):
        hoeffding_mgf_bound(1.0, 0.0)
    # a two-point variable on [-1, 1]: E exp(X - EX) = cosh(1) <= e^8
    assert math.cosh(1.0) <= hoeffding_mgf_bound(-1.0, 1.0)


def test_hoeffding_mgf_dominates_sampled_mgfs(rng):
    """E exp(X - EX) stays below the bound for bounded sampled laws."""
    n = 200_000
    cases = (
        (EntryLaw.rademacher().standard_sample(rng, n), -1.0, 1.0),
        (EntryLaw.uniform_bounded().standard_sample(rng, n), -math.sqrt(3.0), math.sqrt(3.0)),
        (rng.uniform(0.0, 1.0, n), 0.0, 1.0),
    )
    for x, a, b in cases:
        vals = np.exp(x - x.mean())
        se = vals.std(ddof=1) / math.sqrt(n)
        assert vals.mean() <= hoeffding_mgf_bound(a, b) + 3.0 * se


# ---------------------------------------------------------------------------
# TailEstimate
# ---------------------------------------------------------------------------


def test_tail_estimate_validation():
    TailEstimate("s", 1.0, 0.5, 0.9, 100)
    with pytest.raises(ValueError, match="empirical_prob"):
        TailEstimate("s", 1.0, 1.5, 0.9, 100)
    with pytest.raises(ValueError, match="bound must be nonnegative"):
        TailEstimate("s", 1.0, 0.5, -0.1, 100)
    with pytest.raises(ValueError, match="trials must be positive"):
        TailEstimate("s", 1.0, 0.5, 0.9, 0)


def test_tail_estimate_standard_error_and_domination():
    est = TailEstimate("s", 1.0, 0.25, 0.5, 400)
    assert est.standard_error == pytest.approx(math.sqrt(0.25 * 0.75 / 400), rel=1e-12)
    assert est.dominated
    # far above the bound with tiny sampling error: not dominated
    bad = TailEstimate("s", 1.0, 0.5, 0.1, 10_000)
    assert not bad.dominated
    # zero frequency has zero standard error and is dominated by any bound
    assert TailEstimate("s", 1.0, 0.0, 0.0, 100).dominated


# ---------------------------------------------------------------------------
# empirical spectral tails
# ---------------------------------------------------------------------------


def test_empirical_tail_validation():
    spec = wigner_unit_spec(8)
    ramp = RampFunction(-0.5, 0.5)
    with pytest.raises(ValueError, match=f"need at least {MIN_TAIL_TRIALS} trials"):
        empirical_tail(spec, ramp, [0.5], trials=10)
    with pytest.raises(ValueError, match="thresholds must be positive"):
        empirical_tail(spec, ramp, [0.5, 0.0], trials=100)


def test_empirical_tail_degenerate_ensemble_never_deviates():
    spec = EnsembleSpec(8, EntryLaw.constant_zero(), VarianceProfile.uniform(1.0))
    out = empirical_tail(spec, RampFunction(-0.5, 0.5), [0.25, 1.0], trials=100)
    assert [e.t for e in out] == [0.25, 1.0]
    for est in out:
        assert est.statistic_name == "ramp(-0.5,0.5)"
        assert est.empirical_prob == 0.0
        assert est.trials == 100
        assert est.dominated


def test_empirical_tail_unit_ensemble_dominated():
    spec = wigner_unit_spec(32, EntryLaw.rademacher(), seed=73)
    out = empirical_tail(spec, RampFunction(-0.5, 0.5), [0.25, 0.5], trials=150)
    for est in out:
        assert est.bound == pytest.approx(spectral_bound(32, est.t), rel=1e-14)
        assert est.dominated


def test_empirical_tail_thread_invariance():
    spec = wigner_unit_spec(16, seed=79)
    ramp = RampFunction(-1.0, 1.0)
    seq = empirical_tail(spec, ramp, [0.1, 0.3], trials=100, threads=1)
    par = empirical_tail(spec, ramp, [0.1, 0.3], trials=100, threads=4)
    assert seq == par


def test_empirical_tail_is_deterministic():
    spec = wigner_unit_spec(16, seed=83)
    ramp = RampFunction(-0.5, 0.5)
    a = empirical_tail(spec, ramp, [0.2], trials=100)
    b = empirical_tail(spec, ramp, [0.2], trials=100)
    assert a == b


# ---------------------------------------------------------------------------
# Bernoulli-sum tails under the Bernstein bound
# ---------------------------------------------------------------------------


def test_bernstein_tail_check_degenerate_coins():
    est = bernstein_tail_check([0.0] * 10, x=1.0, trials=200)
    assert est.statistic_name == "bernoulli_sum"
    assert est.empirical_prob == 0.0
    assert est.bound == pytest.approx(math.exp(-0.5), rel=1e-14)  # E[S^2] = 0
    assert est.dominated
    sure = bernstein_tail_check([1.0] * 10, x=0.5, trials=200)
    assert sure.empirical_prob == 0.0  # the sum never exceeds its mean


def test_bernstein_tail_check_rare_coins():
    """100 coins at p = 0.01: exceeding the mean by 5 is rare, bound ~ 0.124."""
    est = bernstein_tail_check([0.01] * 100, x=5.0, trials=2000)
    expect_bound = math.exp(-25.0 / (2.0 * (0.99 + 5.0)))
    assert est.bound == pytest.approx(expect_bound, rel=1e-12)
    assert est.empirical_prob <= 0.01
    assert est.dominated


def test_bernstein_tail_check_single_fair_coin():
    """One coin, threshold below 1/2: the tail is the heads frequency."""
    est = bernstein_tail_check([0.5], x=0.4, trials=2000)
    assert est.bound == pytest.approx(math.exp(-0.16 / (2.0 * (0.25 + 0.4))), rel=1e-12)
    assert abs(est.empirical_prob - 0.5) <= 0.05
    assert est.dominated


def test_bernstein_tail_check_determinism():
    a = bernstein_tail_check([0.3] * 20, x=2.0, trials=500, seed=7)
    b = bernstein_tail_check([0.3] * 20, x=2.0, trials=500, seed=7)
    assert a == b


def test_bernstein_tail_check_validation():
    with pytest.raises(ValueError, match="nonempty"):
        bernstein_tail_check([], x=1.0, trials=100)
    with pytest.raises(ValueError, match="lie in \\[0, 1\\]"):
        bernstein_tail_check([1.5], x=1.0, trials=100)
    with pytest.raises(ValueError, match="trials must be positive"):
        bernstein_tail_check([0.5], x=1.0, trials=0)
    with pytest.raises(ValueError, match="x must be positive"):
        bernstein_tail_check([0.5], x=0.0, trials=100)
