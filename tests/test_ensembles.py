"""Entry laws, variance profiles, ensemble sampling, and hypothesis sums.

Closed-form law moments are cross-checked two ways: against direct numeric
integration of the density (pareto) and against large Monte Carlo samples
drawn by the laws' own samplers (3 s.e. budgets, fixed seeds).
"""
from __future__ import annotations

import contextlib
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wignerlab import ensembles, hermitian_core, streams
from wignerlab.ensembles import (
    _MIRROR_BAND_BYTES,
    SMALL_N,
    EnsembleSpec,
    EntryLaw,
    VarianceProfile,
    condition_sums,
    diagonal_law_for,
    gaussian_row_check,
    heavy_tail_spec,
    sample,
    sample_trial,
    trial_eigenvalues,
    wigner_unit_spec,
)
from wignerlab.hermitian_core import _openblas_thread_calls, eigenvalues_desc, single_blas_thread
from wignerlab.streams import DOMAIN_SAMPLE, KeyedStreams, stream_keys

from _oracles import monte_carlo_lindeberg_term, per_row_sample, seed_sequence_rng

N_MC = 1_000_000

FINITE_REAL_LAWS = (
    EntryLaw.rademacher(),
    EntryLaw.gaussian_real(),
    EntryLaw.uniform_bounded(),
    EntryLaw.pareto_symmetric(5.0, 1.0),
)


def _phi(t: float) -> float:
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# entry laws: structure and validation
# ---------------------------------------------------------------------------


def test_law_validation_errors():
    with pytest.raises(ValueError, match="unknown entry law kind"):
        EntryLaw("cauchy")
    with pytest.raises(ValueError, match="alpha > 0 and scale > 0"):
        EntryLaw.pareto_symmetric(0.0, 1.0)
    with pytest.raises(ValueError, match="alpha > 0 and scale > 0"):
        EntryLaw.pareto_symmetric(2.0, -1.0)
    for alpha, scale in ((math.nan, 1.0), (math.inf, 1.0), (2.0, math.inf)):
        with pytest.raises(ValueError, match="alpha > 0 and scale > 0, both finite"):
            EntryLaw.pareto_symmetric(alpha, scale)


def test_pareto_law_rejects_draws_that_overflow():
    """The largest draw, scale * 2^(53/alpha), must be a finite float64."""
    for alpha, scale in ((0.01, 1.0), (0.05, 1.0), (53 / 1024, 1.0), (3.0, 1e305)):
        with pytest.raises(ValueError, match="overflow float64"):
            EntryLaw.pareto_symmetric(alpha, scale)
    for alpha, scale in ((0.052, 1.0), (3.0, 1e300)):
        law = EntryLaw.pareto_symmetric(alpha, scale)
        assert math.isfinite(scale * 2.0 ** (53.0 / alpha)), (alpha, scale)
        assert np.isfinite(law.standard_sample(np.random.default_rng(0), 1000)).all()


def test_law_structure_flags():
    assert EntryLaw.gaussian_complex().is_complex
    for law in FINITE_REAL_LAWS + (EntryLaw.constant_zero(),):
        assert not law.is_complex
    assert EntryLaw.pareto_symmetric(2.5, 1.0).has_finite_variance
    assert not EntryLaw.pareto_symmetric(2.0, 1.0).has_finite_variance
    assert EntryLaw.pareto_symmetric(2.0, 1.0).standard_variance == math.inf
    assert EntryLaw.constant_zero().standard_variance == 0.0
    for law in FINITE_REAL_LAWS + (EntryLaw.gaussian_complex(),):
        assert law.standard_variance == 1.0


def test_law_abs_bounds():
    assert EntryLaw.rademacher().abs_bound == 1.0
    assert EntryLaw.uniform_bounded().abs_bound == pytest.approx(math.sqrt(3.0))
    assert EntryLaw.constant_zero().abs_bound == 0.0
    assert EntryLaw.gaussian_real().abs_bound == math.inf
    assert EntryLaw.pareto_symmetric(3.0, 1.0).abs_bound == math.inf


def test_has_moments_to():
    assert EntryLaw.gaussian_real().has_moments_to(20)
    assert EntryLaw.pareto_symmetric(4.5, 1.0).has_moments_to(4)
    assert not EntryLaw.pareto_symmetric(4.0, 1.0).has_moments_to(4)
    assert not EntryLaw.pareto_symmetric(2.0, 1.0).has_moments_to(2)


# ---------------------------------------------------------------------------
# entry laws: closed-form moments
# ---------------------------------------------------------------------------


def test_moment_closed_forms():
    g = EntryLaw.gaussian_real()
    assert g.moment(0) == 1.0
    assert g.moment(2) == 1.0
    assert g.moment(4) == 3.0  # (4-1)!! = 3
    assert g.moment(6) == 15.0
    assert g.moment(8) == 105.0
    u = EntryLaw.uniform_bounded()
    for m in range(2, 13, 2):
        # sqrt(3)^m / (m + 1) is the rational 3^(m/2) / (m + 1), rounded once
        assert u.moment(m) == 3 ** (m // 2) / (m + 1), m
    r = EntryLaw.rademacher()
    assert r.moment(2) == 1.0 and r.moment(10) == 1.0
    for law in FINITE_REAL_LAWS:
        for m in (1, 3, 5):
            assert law.moment(m) == 0.0
    assert EntryLaw.constant_zero().moment(2) == 0.0


def test_moment_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        EntryLaw.gaussian_real().moment(-1)
    with pytest.raises(ValueError, match="use pair_moment"):
        EntryLaw.gaussian_complex().moment(2)
    with pytest.raises(ValueError, match="lacks moments of order"):
        EntryLaw.pareto_symmetric(4.0, 1.0).moment(4)


def test_pareto_moments_match_density_quadrature():
    """E[T^m] from the closed form vs numeric integration of the tail density."""
    alpha, scale = 5.0, 1.3
    law = EntryLaw.pareto_symmetric(alpha, scale)
    norm = scale * math.sqrt(alpha / (alpha - 2.0))
    for m in (2, 4):
        raw, err = quad(
            lambda t: t**m * alpha * scale**alpha * t ** (-alpha - 1.0),
            scale,
            math.inf,
        )
        assert err < 1e-9
        assert law.moment(m) == pytest.approx(raw / norm**m, rel=1e-10)
    assert law.moment(2) == pytest.approx(1.0, rel=1e-12)


def test_pair_moment_complex_gaussian():
    law = EntryLaw.gaussian_complex()
    assert law.pair_moment(0, 0) == 1.0
    assert law.pair_moment(1, 1) == 1.0
    assert law.pair_moment(2, 2) == 2.0
    assert law.pair_moment(3, 3) == 6.0
    assert law.pair_moment(1, 0) == 0.0
    assert law.pair_moment(2, 1) == 0.0
    # real laws reduce to the plain moment of the total power
    assert EntryLaw.gaussian_real().pair_moment(2, 2) == 3.0
    assert EntryLaw.rademacher().pair_moment(1, 1) == 1.0


def test_truncated_moment_closed_forms():
    g = EntryLaw.gaussian_real()
    for t in (0.5, 1.0, 2.5):
        expect = 1.0 - (2.0 * t * _phi(t) + math.erfc(t / math.sqrt(2.0)))
        assert g.m2_below(t) == pytest.approx(expect, rel=1e-14)
        assert g.m2_below(t) + g.m2_tail(t) == pytest.approx(1.0, abs=1e-15)
    u = EntryLaw.uniform_bounded()
    assert u.m2_below(math.sqrt(3.0)) == u.m2_below(2.0) == 1.0
    assert u.m2_tail(math.sqrt(3.0)) == 0.0
    assert u.m2_below(1.0) == pytest.approx(1.0 / (3.0 * math.sqrt(3.0)), rel=1e-14)
    r = EntryLaw.rademacher()
    assert r.m2_below(0.999) == 0.0
    assert r.m2_below(1.0) == 1.0
    # infinite-variance pareto: E[T^2; T <= u] = 2 ln u, tail is infinite
    p = EntryLaw.pareto_symmetric(2.0, 1.0)
    assert p.m2_below(math.e) == pytest.approx(2.0, rel=1e-12)
    assert p.m2_below(0.5) == 0.0
    assert p.m2_tail(10.0) == math.inf
    with pytest.raises(ValueError, match="nonnegative"):
        g.m2_below(-0.1)


def test_tail_prob_closed_forms():
    g = EntryLaw.gaussian_real()
    assert g.tail_prob(0.0) == pytest.approx(1.0, rel=1e-14)
    assert g.tail_prob(1.0) == pytest.approx(math.erfc(1.0 / math.sqrt(2.0)), rel=1e-14)
    c = EntryLaw.gaussian_complex()
    assert c.tail_prob(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    u = EntryLaw.uniform_bounded()
    assert u.tail_prob(math.sqrt(3.0)) == 0.0
    assert u.tail_prob(0.0) == 1.0
    p = EntryLaw.pareto_symmetric(2.0, 1.0)
    assert p.tail_prob(0.5) == 1.0  # below the left endpoint of the support
    assert p.tail_prob(2.0) == pytest.approx(0.25, rel=1e-14)
    with pytest.raises(ValueError, match="nonnegative"):
        u.tail_prob(-1.0)


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=6.0),
    idx=st.integers(min_value=0, max_value=len(FINITE_REAL_LAWS) - 1),
)
def test_truncated_second_moment_properties(t, idx):
    """m2_below is a sub-variance CDF: in [0, 1], complementary to the tail."""
    law = FINITE_REAL_LAWS[idx]
    below = law.m2_below(t)
    assert 0.0 <= below <= 1.0 + 1e-12
    assert below + law.m2_tail(t) == pytest.approx(1.0, abs=1e-12)
    assert law.m2_below(t + 0.5) >= below - 1e-12
    assert 0.0 <= law.tail_prob(t) <= 1.0
    assert law.tail_prob(t + 0.5) <= law.tail_prob(t) + 1e-12


# ---------------------------------------------------------------------------
# entry laws: sampler agrees with the closed forms (Monte Carlo, 3 s.e.)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("law", FINITE_REAL_LAWS, ids=lambda l: l.kind)
def test_standard_sample_mean_and_variance(law, rng):
    x = law.standard_sample(rng, N_MC)
    assert x.shape == (N_MC,)
    se_mean = x.std(ddof=1) / math.sqrt(N_MC)
    assert abs(x.mean()) <= 3.0 * se_mean
    x2 = x * x
    se_var = x2.std(ddof=1) / math.sqrt(N_MC)
    assert abs(x2.mean() - 1.0) <= 3.0 * se_var


def test_standard_sample_complex_gaussian(rng):
    z = EntryLaw.gaussian_complex().standard_sample(rng, N_MC)
    assert np.iscomplexobj(z)
    a2 = np.abs(z) ** 2
    se = a2.std(ddof=1) / math.sqrt(N_MC)
    assert abs(a2.mean() - 1.0) <= 3.0 * se
    # E[X^2] = 0 (balanced powers only) and E|X|^4 = 2
    sq = z * z
    assert abs(sq.mean()) <= 3.0 * np.abs(sq - sq.mean()).std() / math.sqrt(N_MC)
    a4 = a2 * a2
    se4 = a4.std(ddof=1) / math.sqrt(N_MC)
    assert abs(a4.mean() - 2.0) <= 3.0 * se4


def test_standard_sample_constant_zero(rng):
    x = EntryLaw.constant_zero().standard_sample(rng, 1000)
    assert np.all(x == 0.0)


def test_standard_sample_respects_bounds(rng):
    assert np.all(np.abs(EntryLaw.rademacher().standard_sample(rng, 10_000)) == 1.0)
    u = EntryLaw.uniform_bounded().standard_sample(rng, 10_000)
    assert np.all(np.abs(u) <= math.sqrt(3.0))


@pytest.mark.parametrize(
    "law",
    (
        EntryLaw.gaussian_real(),
        EntryLaw.uniform_bounded(),
        EntryLaw.pareto_symmetric(2.0, 1.0),
        EntryLaw.gaussian_complex(),
    ),
    ids=lambda l: l.kind,
)
def test_sampler_matches_truncated_closed_forms(law, rng):
    """Empirical E[|X|^2; |X| <= t] and P(|X| > t) track the formulas."""
    x = np.abs(law.standard_sample(rng, N_MC))
    for t in (0.7, 1.3):
        contrib = np.where(x <= t, x * x, 0.0)
        se = contrib.std(ddof=1) / math.sqrt(N_MC)
        assert abs(contrib.mean() - law.m2_below(t)) <= 3.0 * se + 1e-12
        hit = (x > t).astype(np.float64)
        se_p = hit.std(ddof=1) / math.sqrt(N_MC)
        assert abs(hit.mean() - law.tail_prob(t)) <= 3.0 * se_p + 1e-12


def test_sampler_matches_even_moments(rng):
    for law, m in ((EntryLaw.gaussian_real(), 4), (EntryLaw.uniform_bounded(), 6)):
        x = law.standard_sample(rng, N_MC)
        xm = x**m
        se = xm.std(ddof=1) / math.sqrt(N_MC)
        assert abs(xm.mean() - law.moment(m)) <= 3.0 * se


# ---------------------------------------------------------------------------
# variance profiles
# ---------------------------------------------------------------------------


def test_profile_validation_errors():
    for kind in ("diagonal", "explicit"):
        with pytest.raises(ValueError, match="unknown profile kind"):
            VarianceProfile(kind)
    with pytest.raises(ValueError, match="nonnegative"):
        VarianceProfile.uniform(-0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        VarianceProfile.banded(2, -1.0)


def test_profile_matrix_values():
    assert np.array_equal(VarianceProfile.uniform(0.25).matrix(3), np.full((3, 3), 0.25))
    b = VarianceProfile.banded(1, 2.0, 0.5).matrix(4)
    expect = np.array(
        [
            [2.0, 2.0, 0.5, 0.5],
            [2.0, 2.0, 2.0, 0.5],
            [0.5, 2.0, 2.0, 2.0],
            [0.5, 0.5, 2.0, 2.0],
        ]
    )
    assert np.array_equal(b, expect)


def test_profiles_and_specs_compare_by_parameters():
    """``==`` and ``hash`` read the parameters, never the level table."""
    a, b = VarianceProfile.banded(1, 0.5, 0.1), VarianceProfile.banded(1, 0.5, 0.1)
    assert a == b and hash(a) == hash(b)
    assert a != VarianceProfile.banded(2, 0.5, 0.1) and a != VarianceProfile.uniform(0.5)
    spec = EnsembleSpec(4, EntryLaw.gaussian_real(), a, seed=3)
    assert spec == EnsembleSpec(4, EntryLaw.gaussian_real(), b, seed=3)
    assert spec != EnsembleSpec(4, EntryLaw.gaussian_real(), VarianceProfile.uniform(0.5), seed=3)


PROFILES = {
    "uniform": VarianceProfile.uniform(0.2),
    "banded": VarianceProfile.banded(2, 1.5, 0.25),
    "band0": VarianceProfile.banded(0, 1.0),
    "wide": VarianceProfile.banded(10, 0.5, 0.25),
    "zero_band": VarianceProfile.banded(1, 0.0, 0.5),  # a zero level on the diagonal
}
PROFILE_CASES = pytest.mark.parametrize("profile", PROFILES.values(), ids=PROFILES.keys())

# (profile, law, diagonal law): every profile under the gaussian law, then a
# complex law under its default real gaussian diagonal, and non-default diagonals
ENTRY_LAW_PARAMS = [pytest.param(p, EntryLaw.gaussian_real(), None, id=name) for name, p in PROFILES.items()] + [
    pytest.param(PROFILES["banded"], EntryLaw.gaussian_complex(), None, id="complex-banded"),
    pytest.param(
        PROFILES["uniform"], EntryLaw.gaussian_complex(), EntryLaw.uniform_bounded(), id="complex-uniform_diag"
    ),
    pytest.param(PROFILES["uniform"], EntryLaw.gaussian_real(), EntryLaw.constant_zero(), id="zero_diag"),
    pytest.param(PROFILES["wide"], EntryLaw.rademacher(), EntryLaw.gaussian_real(), id="rademacher-gauss_diag"),
    pytest.param(
        PROFILES["zero_band"], EntryLaw.uniform_bounded(), EntryLaw.rademacher(), id="uniform-rademacher_diag-zero_band"
    ),
    pytest.param(PROFILES["band0"], EntryLaw.constant_zero(), EntryLaw.gaussian_real(), id="zero-gauss_diag-band0"),
]
ENTRY_LAW_CASES = pytest.mark.parametrize("profile, law, diagonal_law", ENTRY_LAW_PARAMS)


def _entrywise_row_sums(spec: EnsembleSpec, term) -> np.ndarray:
    """Per row, sum_j term(law of (i, j), sigma^2_ij) over the positive entries of matrix()."""
    dlaw = spec.effective_diagonal_law
    return np.array([
        sum(term(dlaw if i == j else spec.law, v) for j, v in enumerate(row) if v > 0)
        for i, row in enumerate(spec.profile.matrix(spec.n))
    ])


@PROFILE_CASES
def test_profile_views_agree_with_matrix(profile):
    """The row level counts re-derive from matrix(), whose diagonal is level 0."""
    n = 6
    m = profile.matrix(n)
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == profile.levels[0])
    ids, counts = profile._row_counts(n)
    assert counts.sum() == n * n
    for k, level in enumerate(profile.levels):
        assert np.array_equal(np.where(ids == k, counts, 0).sum(axis=1), np.count_nonzero(m == level, axis=1))


@ENTRY_LAW_CASES
def test_gaussian_row_check_matches_entrywise_row_sums(profile, law, diagonal_law):
    """The per-level row sums equal sums over the entries of matrix(), the diagonal under its own law."""
    spec = EnsembleSpec(6, law, profile, diagonal_law)
    eps = 0.75
    gauss = gaussian_row_check(spec, epsilons=(eps,))
    tail = _entrywise_row_sums(spec, lambda law, v: law.tail_prob(eps / math.sqrt(v)))
    assert gauss.tail_prob_sums[0][1] == pytest.approx(tail.max(), rel=1e-14)
    trunc_var = _entrywise_row_sums(spec, lambda law, v: v * law.m2_below(1.0 / math.sqrt(v)))
    worst = trunc_var[np.argmax(np.abs(trunc_var - 1.0))]
    assert gauss.truncated_variance_sum == pytest.approx(worst, rel=1e-14)


@ENTRY_LAW_CASES
def test_condition_sums_matches_entrywise_row_sums(profile, law, diagonal_law):
    """The three hypothesis sums equal sums over the entries of matrix(), the diagonal under its own law."""
    spec = EnsembleSpec(6, law, profile, diagonal_law)
    C, eps = 0.5, 0.75
    report = condition_sums(spec, C, epsilons=(eps,))
    rows = _entrywise_row_sums(spec, lambda law, v: v * law.standard_variance)
    assert report.var_row_sum_stat == pytest.approx(np.abs(rows - 1.0).sum(), rel=1e-14)
    assert report.row_excess_stat == pytest.approx(np.clip(rows - C, 0.0, None).sum(), rel=1e-14)
    lind = _entrywise_row_sums(spec, lambda law, v: v * law.m2_tail(eps / math.sqrt(v)))
    assert report.lindeberg[0][1] == pytest.approx(lind.sum(), rel=1e-14)


def _exact_lindeberg(spec: EnsembleSpec, eps: float) -> Fraction:
    """sum_ij of the float terms sigma^2_ij E[|X|^2; |X| > eps / sigma_ij] of matrix()'s positive
    entries, the diagonal under its own law, summed in exact rational arithmetic."""
    m = spec.profile.matrix(spec.n)
    on_diagonal = np.eye(spec.n, dtype=bool)
    total = Fraction(0)
    for law, entries in ((spec.law, m[~on_diagonal]), (spec.effective_diagonal_law, m[on_diagonal])):
        values, counts = np.unique(entries[entries > 0], return_counts=True)
        for v, c in zip(values.tolist(), counts.tolist()):
            total += c * Fraction(v * law.m2_tail(eps / math.sqrt(v)))
    return total


LINDEBERG_CASES = [
    pytest.param(6, *p.values, id=p.id) for p in ENTRY_LAW_PARAMS
] + [
    pytest.param(n, profile, EntryLaw.gaussian_real(), diagonal, id=f"{name}-{n}{suffix}")
    for n in (100, 1000)
    for name, profile in (
        ("uniform", VarianceProfile.uniform(1.0 / n)),
        ("banded", VarianceProfile.banded(n // 10, 4.0 / n, 0.5 / n)),
    )
    for diagonal, suffix in ((None, ""), (EntryLaw.constant_zero(), "-zero_diag"))
] + [
    # only the diagonal has a tail: the total is n equal diagonal terms
    pytest.param(100, VarianceProfile.uniform(0.01), EntryLaw.rademacher(), EntryLaw.gaussian_real(),
                 id="rademacher-gauss_diag-100"),
]


@pytest.mark.parametrize("n, profile, law, diagonal_law", LINDEBERG_CASES)
def test_condition_sums_lindeberg_within_two_ulp_of_exact_sum(n, profile, law, diagonal_law):
    """Each Lindeberg total, the correctly rounded sum of its row sums, lies within
    2 ulp of the exact sum of the per-entry float terms."""
    spec = EnsembleSpec(n, law, profile, diagonal_law)
    epsilons = (0.0625, 0.125, 0.25, 0.5, 1.0)
    report = condition_sums(spec, 1.0, epsilons)
    for eps, total in report.lindeberg:
        exact = _exact_lindeberg(spec, eps)
        assert abs(Fraction(total) - exact) <= 2 * Fraction(math.ulp(float(exact))), (eps, total, float(exact))


# ---------------------------------------------------------------------------
# ensemble specs and sampling
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="n must be positive"):
        EnsembleSpec(0, EntryLaw.gaussian_real(), VarianceProfile.uniform(1.0))
    with pytest.raises(ValueError, match="seed must fit in uint64"):
        EnsembleSpec(2, EntryLaw.gaussian_real(), VarianceProfile.uniform(1.0), seed=2**64)
    with pytest.raises(ValueError, match="diagonal law must be real-valued"):
        EnsembleSpec(
            2,
            EntryLaw.gaussian_real(),
            VarianceProfile.uniform(1.0),
            diagonal_law=EntryLaw.gaussian_complex(),
        )


def test_effective_diagonal_law():
    uniform = VarianceProfile.uniform(1.0)
    real = EnsembleSpec(2, EntryLaw.rademacher(), uniform)
    assert real.effective_diagonal_law == EntryLaw.rademacher()
    cplx = EnsembleSpec(2, EntryLaw.gaussian_complex(), uniform)
    assert cplx.effective_diagonal_law == EntryLaw.gaussian_real()
    override = EnsembleSpec(
        2, EntryLaw.gaussian_complex(), uniform, diagonal_law=EntryLaw.constant_zero()
    )
    assert override.effective_diagonal_law == EntryLaw.constant_zero()


def test_sample_constant_zero_is_zero_matrix():
    spec = EnsembleSpec(5, EntryLaw.constant_zero(), VarianceProfile.uniform(1.0))
    w = sample_trial(spec, 0)
    assert np.all(w.entries == 0.0)


def test_sample_is_exactly_hermitian():
    spec = EnsembleSpec(16, EntryLaw.gaussian_complex(), VarianceProfile.uniform(0.1), seed=4)
    w = sample_trial(spec, 0)
    assert np.array_equal(w.entries, w.entries.conj().T)
    assert np.all(w.entries.imag.diagonal() == 0.0)


def test_sample_one_by_one():
    spec = wigner_unit_spec(1, EntryLaw.rademacher(), seed=9)
    w = sample_trial(spec, 0)
    assert w.entries.shape == (1, 1)
    assert abs(w.entries[0, 0]) == pytest.approx(1.0)


def test_sample_rademacher_two_by_two_uniform_over_sign_patterns():
    """n=2 rademacher draws: three signs, eight equally likely matrices."""
    spec = wigner_unit_spec(2, EntryLaw.rademacher(), seed=17)
    scale = 1.0 / math.sqrt(2.0)
    counts: dict[tuple[int, int, int], int] = {}
    trials = 8000
    for r in range(trials):
        w = sample_trial(spec, r).entries
        assert np.allclose(np.abs(w), scale)
        key = (int(np.sign(w[0, 0])), int(np.sign(w[0, 1])), int(np.sign(w[1, 1])))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 8
    se = math.sqrt(0.125 * 0.875 / trials)
    for k, c in counts.items():
        assert abs(c / trials - 0.125) <= 3.0 * se, (k, c)


def test_sample_gaussian_entry_statistics():
    """Off-diagonal entries of a unit ensemble have mean 0 and variance 1/n."""
    n = 256
    spec = wigner_unit_spec(n, EntryLaw.gaussian_real(), seed=23)
    w = sample_trial(spec, 0).entries
    iu = np.triu_indices(n, k=1)
    off = w[iu]
    count = off.size
    assert count == n * (n - 1) // 2
    se_mean = math.sqrt(1.0 / n) / math.sqrt(count)
    assert abs(off.mean()) <= 3.0 * se_mean
    se_var = (1.0 / n) * math.sqrt(2.0 / count)
    assert abs(off.var() - 1.0 / n) <= 3.0 * se_var


def test_sample_banded_zero_outside_band():
    spec = EnsembleSpec(8, EntryLaw.gaussian_real(), VarianceProfile.banded(1, 1.0), seed=2)
    w = sample_trial(spec, 0).entries
    d = np.abs(np.subtract.outer(np.arange(8), np.arange(8)))
    assert np.all(w[d > 1] == 0.0)
    assert np.all(w[d <= 1] != 0.0)


def test_sample_trial_determinism():
    spec = wigner_unit_spec(32, EntryLaw.gaussian_real(), seed=5)
    a = sample_trial(spec, 3).entries
    b = sample_trial(spec, 3).entries
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_trial(spec, 4).entries)
    other = wigner_unit_spec(32, EntryLaw.gaussian_real(), seed=6)
    assert not np.array_equal(a, sample_trial(other, 3).entries)


def test_sample_trial_rejects_negative_index():
    with pytest.raises(ValueError, match="nonnegative"):
        sample_trial(wigner_unit_spec(4), -1)


# ---------------------------------------------------------------------------
# trial_eigenvalues: stacked blocks of ceil(SMALL_N / n) trials
# ---------------------------------------------------------------------------


def _uniform(n):
    return VarianceProfile.uniform(1.0 / n)


def _banded(n):
    return VarianceProfile.banded(max(1, n // 8), 1.0 / n, 0.1 / n)


def _diagonal_only(n):
    return VarianceProfile.banded(0, 1.0)


# (law, diagonal law, profile of n) by id; the block sampler places every law
TRIAL_CASES = {
    "gaussian_real": (EntryLaw.gaussian_real(), None, _uniform),
    "gaussian_complex": (EntryLaw.gaussian_complex(), None, _uniform),
    "rademacher_scaled": (EntryLaw.rademacher(), None, _uniform),
    "pareto_symmetric": (EntryLaw.pareto_symmetric(2.5, 1.0), None, _uniform),
    "gaussian_real-zero_diagonal": (EntryLaw.gaussian_real(), EntryLaw.constant_zero(), _uniform),
    "gaussian_complex-zero_diagonal": (EntryLaw.gaussian_complex(), EntryLaw.constant_zero(), _uniform),
    "gaussian_real-banded": (EntryLaw.gaussian_real(), None, _banded),
    "gaussian_complex-banded": (EntryLaw.gaussian_complex(), None, _banded),
    # a diagonal of +-1: every eigenvalue is tied with about half the others
    "rademacher-ties": (EntryLaw.rademacher(), EntryLaw.rademacher(), _diagonal_only),
}


def _trial_params():
    for n in (1, 3, 100, SMALL_N - 1, SMALL_N):
        # the non-gaussian cases run on two trial threads, the harder schedule
        for case in TRIAL_CASES:
            for threads in (1, 2) if case in ("gaussian_real", "gaussian_complex") else (2,):
                yield pytest.param(n, case, threads, 23, True, True, id=f"{n}-{case}-{threads}")
    # the largest seed has two entropy words where 23 has one
    for n in (1, 3, 100):
        for case in TRIAL_CASES:
            yield pytest.param(n, case, 2, 2**64 - 1, True, True, id=f"{n}-{case}-2-seed_max")
    yield pytest.param(SMALL_N, "gaussian_real", 2, 2**64 - 1, True, True, id=f"{SMALL_N}-gaussian_real-2-seed_max")
    # blocks of one solve in place: a size that is no power of two, the
    # default BLAS threading on both sides, and numpy's eigvalsh without the routine
    yield pytest.param(600, "gaussian_complex", 2, 23, True, True, id="600-gaussian_complex-2")
    for n, case in ((SMALL_N, "gaussian_real"), (600, "gaussian_complex")):
        yield pytest.param(n, case, 2, 23, False, True, id=f"{n}-{case}-2-default_blas")
        yield pytest.param(n, case, 2, 23, True, False, id=f"{n}-{case}-2-no_lapack_lookup")


@pytest.mark.parametrize("n, case, threads, seed, one_blas_thread, lapack", _trial_params())
def test_trial_eigenvalues_equal_per_trial_solves(monkeypatch, n, case, threads, seed, one_blas_thread, lapack):
    """One read-only (trials, n) array whose rows have the bytes of each trial's
    own eigenvalues_desc call under the same BLAS threads: one, or from
    SMALL_N up also the process's own count.

    Two full blocks of ceil(SMALL_N / n) trials and one more trial (blocks of
    one from SMALL_N up, which overwrite the sample in LAPACK's routine, or
    copy it in numpy's eigvalsh when the routine's lookup finds nothing).
    """
    law, diagonal, profile = TRIAL_CASES[case]
    block = -(-SMALL_N // n)
    trials = 2 * block + 1
    spec = EnsembleSpec(n, law, profile(n), diagonal_law=diagonal, seed=seed)
    if not lapack:
        monkeypatch.setattr(hermitian_core, "_lapack_evd", lambda: None)
    with single_blas_thread() if one_blas_thread else contextlib.nullcontext():
        got = trial_eigenvalues(spec, trials, threads)
        want = [eigenvalues_desc(sample_trial(spec, t)) for t in range(trials)]
    assert isinstance(got, np.ndarray) and got.shape == (trials, n) and got.dtype == np.float64
    assert got.flags.c_contiguous and not got.flags.writeable
    for t, (g, w) in enumerate(zip(got, want)):
        assert g.tobytes() == w.tobytes(), t


def test_trial_fan_out_runs_one_blas_thread_and_restores_the_count(monkeypatch):
    """One BLAS thread inside the block solves; the count from before after a
    normal return, after two concurrent fan-outs and after an exception raised
    inside a trial."""
    from concurrent.futures import ThreadPoolExecutor

    calls = _openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread calls")
    get, put = calls
    old = get()
    put(2)
    try:
        outside = get()
        seen = []
        stacked = ensembles.eigenvalues_desc_stacked
        monkeypatch.setattr(ensembles, "eigenvalues_desc_stacked", lambda mats: seen.append(get()) or stacked(mats))
        spec = wigner_unit_spec(64, seed=3)
        trial_eigenvalues(spec, 20, threads=2)
        assert seen and set(seen) == {1}
        assert get() == hermitian_core.blas_runtime_threads() == outside

        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda t: trial_eigenvalues(spec, 40, threads=t), (1, 2)))
        assert set(seen) == {1}
        assert get() == outside

        # each block replays its trials' stream keys; the block holding trial 13's fails
        bad = stream_keys(spec.seed, DOMAIN_SAMPLE, 13, 14)

        def failing(keys):
            if (keys == bad).all(axis=1).any():
                raise RuntimeError("trial 13 failed")
            return KeyedStreams(keys)

        monkeypatch.setattr(ensembles, "KeyedStreams", failing)
        with pytest.raises(RuntimeError, match="trial 13 failed"):
            trial_eigenvalues(spec, 20, threads=2)
        assert get() == outside
    finally:
        put(old)


def test_trial_eigenvalues_derive_no_stream_per_trial(monkeypatch):
    """The block path replays keys from one stream_keys pass and never calls
    derive_rng, yet keeps sample_trial's bytes."""
    spec = wigner_unit_spec(4, seed=41)
    with single_blas_thread():
        want = [eigenvalues_desc(sample_trial(spec, t)).tobytes() for t in range(300)]

    def forbidden(*args):
        raise AssertionError("derive_rng called on the trial path")

    monkeypatch.setattr(ensembles, "derive_rng", forbidden)
    monkeypatch.setattr(streams, "derive_rng", forbidden)
    got = trial_eigenvalues(spec, 300, threads=2)
    assert [g.tobytes() for g in got] == want


def test_trial_fan_out_without_blas_thread_calls_leaves_the_blas_alone(monkeypatch):
    """With no OpenBLAS thread calls the fan-out solves under the BLAS as it is,
    and the manifest's runtime count reads None."""
    real = _openblas_thread_calls()
    seen = []
    if real is not None:
        get, put = real
        old = get()
        put(2)
        monkeypatch.setattr(hermitian_core, "_openblas_thread_calls", lambda: None)
        stacked = ensembles.eigenvalues_desc_stacked
        monkeypatch.setattr(ensembles, "eigenvalues_desc_stacked", lambda mats: seen.append(get()) or stacked(mats))
    try:
        spec = wigner_unit_spec(64, seed=3)
        assert hermitian_core.blas_runtime_threads() is None
        got = trial_eigenvalues(spec, 9, threads=2)
        assert [g.tobytes() for g in got] == [eigenvalues_desc(sample_trial(spec, t)).tobytes() for t in range(9)]
        if real is not None:
            assert seen and set(seen) == {get()}
    finally:
        if real is not None:
            put(old)


@pytest.mark.parametrize("n", (SMALL_N - 1, SMALL_N))
def test_trial_fan_out_blas_threads_follow_the_block_size(monkeypatch, n):
    """A block of more than one trial (n < SMALL_N) solves on one BLAS thread; a
    block of one (n >= SMALL_N) solves on the process's own count."""
    calls = _openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread calls")
    get, put = calls
    old = get()
    put(2)
    try:
        outside = get()
        seen = []
        stacked = ensembles.eigenvalues_desc_stacked
        monkeypatch.setattr(ensembles, "eigenvalues_desc_stacked", lambda mats: seen.append(get()) or stacked(mats))
        trial_eigenvalues(wigner_unit_spec(n, seed=3), 3, threads=2)
        assert seen and set(seen) == ({1} if n < SMALL_N else {outside})
        assert get() == outside
    finally:
        put(old)


@pytest.mark.parametrize("blas", (2, 1))
def test_blocks_of_one_run_as_many_at_once_as_the_blas_threads_leave_cores(monkeypatch, blas):
    """From SMALL_N up a block of one solves on the process's OpenBLAS threads, so
    two trial threads over two BLAS threads solve one matrix at a time, and over
    one BLAS thread on two worker threads; the bytes are those of one trial thread."""
    calls = _openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread calls")
    get, put = calls
    old = get()
    put(blas)
    try:
        spec = wigner_unit_spec(SMALL_N, seed=5)
        want = trial_eigenvalues(spec, 4, threads=1)
        lock, solves = threading.Lock(), []
        stacked = ensembles.eigenvalues_desc_stacked

        def timed(stack):
            start = time.perf_counter()
            try:
                return stacked(stack)
            finally:
                with lock:
                    solves.append((start, time.perf_counter(), threading.get_ident()))

        monkeypatch.setattr(ensembles, "eigenvalues_desc_stacked", timed)
        assert ensembles.solve_workers(SMALL_N, 2) == 2 // blas
        got = trial_eigenvalues(spec, 4, threads=2)
        assert got.tobytes() == want.tobytes()
        assert len(solves) == 4
        if blas == 2:
            solves.sort()
            assert all(end <= start for (_, end, _), (start, _, _) in zip(solves, solves[1:]))
        else:
            assert len({thread for _, _, thread in solves}) == 2
        assert get() == blas
    finally:
        put(old)


@pytest.mark.parametrize(
    "n, law", [(SMALL_N, EntryLaw.gaussian_real()), (600, EntryLaw.gaussian_complex())], ids=["real", "complex"]
)
def test_trial_eigenvalues_from_small_n_up_do_not_depend_on_threads(n, law):
    """Blocks of one, under the BLAS threading as it is, give the same bytes on
    one trial thread and on two."""
    spec = wigner_unit_spec(n, law, seed=11)
    one = trial_eigenvalues(spec, 3, threads=1)
    two = trial_eigenvalues(spec, 3, threads=2)
    assert [a.tobytes() for a in one] == [b.tobytes() for b in two]


def _run_python(code: str, **env: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter that imports this wignerlab."""
    src = str(Path(ensembles.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_lone_solve_holds_one_matrix():
    """A lone complex n = 1024 trial raises the process's VmHWM by under 1.5 x
    its matrix: LAPACK overwrites the sample instead of a copy of it.

    Measured: 1.17 complex (zheevd_2stage, whose workspace is 1.15 MB; 1.13
    on one BLAS thread) and 1.13 real at n = 1024, 1.06 and 1.12 at
    n = 2048.  Numpy's eigvalsh, which solves a copy, read 2.06 and 2.03 at
    n = 1024 and 2.03 at n = 2048.
    """
    try:
        with open("/proc/self/status") as fh:
            if not any(line.startswith("VmHWM:") for line in fh):
                pytest.skip("/proc/self/status has no VmHWM")
    except OSError:
        pytest.skip("no /proc/self/status")
    ratio = _run_python(
        """
        from wignerlab.ensembles import EntryLaw, trial_eigenvalues, wigner_unit_spec

        def status(key):
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key + ":"))

        law = EntryLaw.gaussian_complex()
        trial_eigenvalues(wigner_unit_spec(64, law, seed=1), 1)  # imports and one-time state
        before = status("VmRSS")
        trial_eigenvalues(wigner_unit_spec(1024, law, seed=1), 1)
        print((status("VmHWM") - before) / (1024 * 1024 * 16))
        """
    )
    assert float(ratio) < 1.5, ratio


def test_lone_solves_in_place_run_two_at_once():
    """Under OPENBLAS_NUM_THREADS=1 two blocks of one solve at once, each in
    place with its own workspaces: four trials at SMALL_N on two trial threads
    give the bytes of one, real and complex, and the LAPACK calls overlap, so
    ``ctypes`` released the GIL while they ran."""
    _run_python(
        f"""
        import threading
        import time

        from wignerlab import ensembles, hermitian_core
        from wignerlab.ensembles import EntryLaw, trial_eigenvalues, wigner_unit_spec

        assert ensembles.solve_workers({SMALL_N}, 2) == 2
        routines = hermitian_core._lapack_evd()
        assert routines is not None
        lock, spans = threading.Lock(), []

        def timed(routine):
            def call(*args):
                start = time.perf_counter()
                routine(*args)
                with lock:
                    spans.append((start, time.perf_counter()))
            return call

        hermitian_core._lapack_evd = lambda: tuple(timed(routine) for routine in routines)
        for law in (EntryLaw.gaussian_real(), EntryLaw.gaussian_complex()):
            spec = wigner_unit_spec({SMALL_N}, law, seed=7)
            one = trial_eigenvalues(spec, 4, threads=1)
            spans.clear()
            two = trial_eigenvalues(spec, 4, threads=2)
            assert one.tobytes() == two.tobytes()
            spans.sort()
            assert any(start < end for (_, end), (start, _) in zip(spans, spans[1:])), spans
        """,
        OPENBLAS_NUM_THREADS="1",
    )


ONE_FILL_LAWS = (
    EntryLaw.gaussian_real(),
    EntryLaw.rademacher(),
    EntryLaw.uniform_bounded(),
    EntryLaw.gaussian_complex(),
)
LAYOUT_DIAGONALS = (
    None,
    EntryLaw.constant_zero(),
    EntryLaw.gaussian_real(),
    EntryLaw.rademacher(),
    EntryLaw.uniform_bounded(),
    EntryLaw.pareto_symmetric(1.5, 0.5),
)
# real columns per band of the lower-triangle mirror (complex bands are half as wide)
MIRROR_BAND = _MIRROR_BAND_BYTES // 8


def _layout_profiles(n: int) -> tuple[VarianceProfile, ...]:
    """Uniform, banded with zeros outside the band, a zero level on the diagonal
    only, and a band n - 1 wide (no entry outside it): negative draws at a zero
    level must keep their -0.0."""
    return (
        VarianceProfile.uniform(1.0 / n),
        VarianceProfile.banded(2, 1.0 / n, 0.0),
        VarianceProfile.banded(0, 0.0, 1.0 / n),
        VarianceProfile.banded(n - 1, 2.0 / n, 0.0),
    )


def _diagonal_id(diagonal: EntryLaw | None) -> str:
    return f"{diagonal.kind}{diagonal.alpha or ''}" if diagonal else "default"


@pytest.mark.parametrize("diagonal", LAYOUT_DIAGONALS, ids=_diagonal_id)
@pytest.mark.parametrize(
    "law",
    ONE_FILL_LAWS
    + (EntryLaw.pareto_symmetric(2.5, 1.0), EntryLaw.pareto_symmetric(1.5, 0.5), EntryLaw.constant_zero()),
    ids=lambda law: f"{law.kind}{law.alpha or ''}",
)
def test_sample_matches_per_row_reference_layout(law, diagonal):
    """Every trial's bytes and dtype equal the per-row stream of layout 3.

    3 * MIRROR_BAND + 9 spans three mirror bands and a partial fourth.  At
    SMALL_N - 1 and SMALL_N, as at every n, each row is one slice write,
    placed bottom-up over the packed fill before the diagonal goes in.
    """
    cases = [(n, _layout_profiles(n)) for n in (1, 2, 3, 17, 64, 3 * MIRROR_BAND + 9)]
    cases += [(n, _layout_profiles(n)[:2]) for n in (SMALL_N - 1, SMALL_N)]  # uniform and banded
    for n, profiles in cases:
        for profile in profiles:
            spec = EnsembleSpec(n, law, profile, diagonal_law=diagonal, seed=31)
            for trial in (0, 5):
                got = sample_trial(spec, trial).entries
                want = per_row_sample(n, law, profile, diagonal, seed_sequence_rng(31, DOMAIN_SAMPLE, trial))
                assert got.dtype == want.dtype, (n, profile, trial)
                assert got.tobytes() == want.tobytes(), (n, profile, trial)


@pytest.mark.parametrize("diagonal", (None, EntryLaw.rademacher()), ids=_diagonal_id)
@pytest.mark.parametrize(
    "law",
    (EntryLaw.gaussian_real(), EntryLaw.gaussian_complex(), EntryLaw.pareto_symmetric(1.5, 0.5)),
    ids=lambda law: law.kind,
)
def test_sample_stack_holds_upper_triangles_of_sample(law, diagonal):
    """A block's stack holds each slot's upper triangle and diagonal, byte for
    byte those of ``sample`` from the slot's stream, over a strictly lower
    triangle of zeros: no trial of the eigenvalue path is mirrored."""
    for n in (1, 2, 17, 3 * MIRROR_BAND + 9):
        spec = EnsembleSpec(n, law, _layout_profiles(n)[1], diagonal_law=diagonal, seed=31)
        stack = ensembles._sample_stack(spec, KeyedStreams(stream_keys(31, DOMAIN_SAMPLE, 0, 3)))
        upper = np.triu(np.ones((n, n), dtype=bool))
        assert stack.shape == (3, n, n) and not stack[:, ~upper].any(), n
        for t in range(3):
            want = sample_trial(spec, t).entries.astype(stack.dtype)  # n = 1 demotes a complex sample
            assert stack[t][upper].tobytes() == want[upper].tobytes(), (n, t)


class _CountingGenerator:
    """Generator proxy that counts the drawing calls made through it."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def _fill_calls(law: EntryLaw) -> int:
    """Generator calls in one fill: none for constant_zero, uniforms then signs for Pareto."""
    return {"constant_zero": 0, "pareto_symmetric": 2}.get(law.kind, 1)


@pytest.mark.parametrize("diagonal", LAYOUT_DIAGONALS, ids=_diagonal_id)
@pytest.mark.parametrize(
    "law",
    ONE_FILL_LAWS + (EntryLaw.pareto_symmetric(2.5, 1.0), EntryLaw.constant_zero()),
    ids=lambda law: law.kind,
)
def test_one_fill_laws_draw_a_matrix_in_one_call(law, diagonal):
    """A matrix is one fill of its law, after one fill of n values for a diagonal
    law other than the default; the call count does not grow with n."""
    dlaw = diagonal_law_for(law, diagonal)
    want = _fill_calls(law) + (0 if dlaw == diagonal_law_for(law) else _fill_calls(dlaw))
    for n in (9, MIRROR_BAND + 9):
        rng = _CountingGenerator(np.random.Generator(np.random.Philox(5)))
        sample(EnsembleSpec(n, law, VarianceProfile.uniform(1.0 / n), diagonal_law=diagonal), rng)
        assert rng.calls == want, n


# (law, diagonal law, limit) by id
MEMORY_CASES = {
    "gaussian_real": (EntryLaw.gaussian_real(), None, 1.15),
    "gaussian_complex": (EntryLaw.gaussian_complex(), None, 1.15),
    "rademacher": (EntryLaw.rademacher(), None, 1.65),
    "pareto_symmetric": (EntryLaw.pareto_symmetric(2.5, 1.0), None, 1.65),
    "gaussian_real_rademacher_diagonal": (EntryLaw.gaussian_real(), EntryLaw.rademacher(), 1.15),
}


@pytest.mark.parametrize(
    "law, diagonal, limit, n",
    [
        pytest.param(*case, n, id=name if n == SMALL_N else f"{name}-{n}")
        for name, case in MEMORY_CASES.items()
        for n in (SMALL_N, SMALL_N - 1)
    ],
)
def test_sample_peak_memory_is_one_matrix(law, diagonal, limit, n):
    """Normals are drawn into the matrix's own buffer: the peak is the matrix plus
    the n^2-byte finiteness mask of ``HermitianMatrix._trusted``.

    Measured at n = 512: 1.128 x the matrix's bytes for gaussian_real and
    1.066 x for gaussian_complex; filling a separate array instead measured
    1.63 x and 1.51 x.  Rademacher and Pareto signs pass through an int64
    temporary of n(n+1)/2 values, half the real matrix: 1.536 x for both.
    Pareto turns its signs into +-1 in place; a float copy of them measured
    2.0 x.  A rademacher diagonal under gaussian_real adds only its fill of n
    values ahead of the matrix: 1.130 x.  n = 511 reads the same: each row is
    one slice write with its own tail of the profile's sd, so the placement
    holds at most a row beyond the matrix.
    """
    import tracemalloc

    spec = EnsembleSpec(n, law, VarianceProfile.uniform(1.0 / n), diagonal_law=diagonal)
    matrix_bytes = n * n * (16 if law.is_complex else 8)
    sample_trial(spec, 1)  # the first draw in a process also allocates one-time state
    tracemalloc.start()
    try:
        w = sample_trial(spec, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.entries.nbytes == matrix_bytes
    assert peak <= limit * matrix_bytes, peak / matrix_bytes


@pytest.mark.parametrize("law", (EntryLaw.gaussian_real(), EntryLaw.gaussian_complex()), ids=("real", "complex"))
@pytest.mark.parametrize("n", (16, 32, 64))
def test_trial_block_peak_memory_per_held_matrix(law, n):
    """One block of ``trial_eigenvalues`` below n = 128 peaks within 1.6 x its
    matrices' bytes: the fill is placed one row at a time, so beyond the stack
    the placement holds a row of every slot and the gathered diagonal.

    Measured at n = 16, 32, 64: 1.40, 1.20, 1.18 real and 1.29, 1.15, 1.08
    complex.  The complex n = 64 peak read 1.53 while ``_mirror_lower``
    conjugated a band across the whole stack, which numpy copied first.
    Placing runs of short rows through a shared flat-index table measured
    3.30, 3.11, 2.03 real and 3.01, 3.04, 1.54 complex.
    """
    import tracemalloc

    spec = EnsembleSpec(n, law, VarianceProfile.uniform(1.0 / n), seed=3)
    block = ensembles.trial_block(n)
    held = block * n * n * (16 if law.is_complex else 8)
    trial_eigenvalues(spec, block)  # the first draw in a process also allocates one-time state
    tracemalloc.start()
    try:
        trial_eigenvalues(spec, block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * held, peak / held


@pytest.mark.parametrize(
    "n, dtype", [(1024, np.float64), (512, np.complex128)], ids=("real-1x1024", "complex-1x512")
)
def test_mirror_peak_memory_is_bounded(n, dtype):
    """``_mirror_lower``'s own peak is one band's diagonal-block copy and at
    most 4,096 bytes of ufunc buffers more.

    Measured: 33,796 B real n = 1024 and 17,412 B complex n = 512.
    Conjugating a band across a stack in one call peaked at 132,520 B real
    n = 1024: numpy copied the source of a stack first, and buffered 8,192
    elements per operand.
    """
    import tracemalloc

    w = np.zeros((n, n), dtype)
    ensembles._mirror_lower(w)  # the first call in a process also allocates one-time state
    tracemalloc.start()
    try:
        ensembles._mirror_lower(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    band = _MIRROR_BAND_BYTES // w.itemsize
    block = min(band, n) ** 2 * w.itemsize
    assert peak <= block + 4096, peak


# ---------------------------------------------------------------------------
# hypothesis sums: semicircle-theorem conditions
# ---------------------------------------------------------------------------


def test_condition_sums_unit_profile_is_exact():
    """Uniform 1/n profile: rows sum to exactly 1, no excess over C = 1."""
    report = condition_sums(wigner_unit_spec(64), C=1.0, epsilons=(0.5,))
    assert report.var_row_sum_stat == 0.0
    assert report.row_excess_stat == 0.0
    assert report.finite_variance
    # a tighter row bound turns the whole row sum into excess
    tight = condition_sums(wigner_unit_spec(64), C=0.5, epsilons=(0.5,))
    assert tight.row_excess_stat == pytest.approx(64 * 0.5, rel=1e-14)


def test_condition_sums_uniform_bounded_lindeberg_vanishes_above_entry_bound():
    """|w| <= sqrt(3/64) < 0.25 at n = 64, so no entry has a tail above eps >= 0.25."""
    spec = wigner_unit_spec(64, EntryLaw.uniform_bounded())
    report = condition_sums(spec, C=1.0, epsilons=(0.25, 0.5, 1.0))
    assert [s for _, s in report.lindeberg] == [0.0, 0.0, 0.0]


def test_condition_sums_rademacher_lindeberg_is_binary():
    """Entries have |w| = 1/sqrt(n) exactly: the tail sum is all-or-nothing."""
    n = 16
    spec = wigner_unit_spec(n, EntryLaw.rademacher())
    report = condition_sums(spec, C=1.0, epsilons=(0.2499, 0.25, 0.3))
    lind = dict(report.lindeberg)
    assert lind[0.2499] == pytest.approx(float(n), rel=1e-14)
    assert lind[0.25] == 0.0  # threshold equals the entry magnitude; tail is strict
    assert lind[0.3] == 0.0


def test_condition_sums_gaussian_closed_form():
    """Lindeberg sum for the gaussian unit ensemble via the erfc identity."""
    n, eps = 100, 0.5
    report = condition_sums(wigner_unit_spec(n), C=1.0, epsilons=(eps,))
    t = eps * math.sqrt(n)
    expect = n * (2.0 * t * _phi(t) + math.erfc(t / math.sqrt(2.0)))
    assert report.lindeberg[0][1] == pytest.approx(expect, rel=1e-12)
    assert report.lindeberg_normalized[0][1] == pytest.approx(expect / n, rel=1e-12)


def test_condition_sums_matches_monte_carlo(rng):
    """Closed-form per-cell Lindeberg term vs the independent MC estimator."""
    law = EntryLaw.gaussian_real()
    sigma2, eps = 0.01, 0.25
    est, se = monte_carlo_lindeberg_term(law, sigma2, eps, N_MC, rng)
    closed = sigma2 * law.m2_tail(eps / math.sqrt(sigma2))
    assert se > 0.0
    assert abs(est - closed) <= 3.0 * se


def test_monte_carlo_lindeberg_validation(rng):
    with pytest.raises(ValueError):
        monte_carlo_lindeberg_term(EntryLaw.gaussian_real(), -1.0, 0.5, 100, rng)
    with pytest.raises(ValueError):
        monte_carlo_lindeberg_term(EntryLaw.gaussian_real(), 1.0, 0.0, 100, rng)


def test_condition_sums_validation():
    with pytest.raises(ValueError, match="C must be positive"):
        condition_sums(wigner_unit_spec(8), C=0.0, epsilons=(0.5,))
    with pytest.raises(ValueError, match="epsilons must be positive"):
        condition_sums(wigner_unit_spec(8), C=1.0, epsilons=(0.5, -0.1))


def test_condition_sums_constant_zero():
    spec = EnsembleSpec(8, EntryLaw.constant_zero(), VarianceProfile.uniform(1.0))
    report = condition_sums(spec, C=1.0, epsilons=(0.5,))
    assert report.var_row_sum_stat == pytest.approx(8.0)  # |0 - 1| per row
    assert report.row_excess_stat == 0.0
    assert report.lindeberg[0][1] == 0.0


def test_condition_sums_infinite_variance_flagged():
    report = condition_sums(heavy_tail_spec(64), C=1.0, epsilons=(0.5, 1.0))
    assert not report.finite_variance
    assert report.var_row_sum_stat == math.inf
    assert report.row_excess_stat == math.inf
    assert all(v == math.inf for _, v in report.lindeberg)
    # an infinite-variance diagonal law alone makes the sums infinite too
    heavy_diagonal = EnsembleSpec(8, EntryLaw.gaussian_real(), VarianceProfile.uniform(0.125),
                                  EntryLaw.pareto_symmetric(1.5, 1.0))
    report = condition_sums(heavy_diagonal, C=1.0, epsilons=(0.5,))
    assert not report.finite_variance
    assert report.var_row_sum_stat == report.lindeberg[0][1] == math.inf


def test_lindeberg_normalized_decreases_with_n():
    """At fixed eps the normalized tail sum m2_tail(eps sqrt(n)) shrinks."""
    eps = 0.25
    values = []
    for n in (64, 256, 1024):
        report = condition_sums(wigner_unit_spec(n), C=1.0, epsilons=(eps,))
        values.append(report.lindeberg_normalized[0][1])
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-10


def test_report_normalization_properties():
    report = condition_sums(
        EnsembleSpec(4, EntryLaw.gaussian_real(), VarianceProfile.uniform(1.0)),
        C=1.0,
        epsilons=(10.0,),
    )
    # each row sums to 4, so |4 - 1| * 4 rows = 12 raw, 3 normalized
    assert report.var_row_sum_stat == pytest.approx(12.0)
    assert report.var_row_sum_normalized == pytest.approx(3.0)
    assert report.row_excess_normalized == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# gaussian-convergence row conditions
# ---------------------------------------------------------------------------


def test_gaussian_row_check_unit_gaussian():
    """Unit gaussian ensemble: all three row conditions essentially vanish."""
    gauss = gaussian_row_check(wigner_unit_spec(256), epsilons=(0.5, 1.0))
    for _, tail_sum in gauss.tail_prob_sums:
        assert tail_sum <= 1e-10
    assert gauss.truncated_mean_sum == 0.0
    assert gauss.truncated_variance_sum == pytest.approx(1.0, abs=1e-12)


def test_gaussian_row_check_uniform_bounded_truncated_variance_is_one():
    """Truncation at 1 keeps every entry of |w| <= sqrt(3/64): the row variance, exactly 1."""
    gauss = gaussian_row_check(wigner_unit_spec(64, EntryLaw.uniform_bounded()), epsilons=(0.5,))
    assert gauss.truncated_variance_sum == 1.0


def test_gaussian_row_check_tail_condition_closed_form():
    """Condition (i) for the unit gaussian is n * erfc(eps sqrt(n/2))."""
    n, eps = 16, 0.5
    gauss = gaussian_row_check(wigner_unit_spec(n), epsilons=(eps,))
    expect = n * math.erfc(eps * math.sqrt(n) / math.sqrt(2.0))
    assert gauss.tail_prob_sums[0] == (eps, pytest.approx(expect, rel=1e-12))


def test_gaussian_row_check_heavy_tail_calibration():
    """The heavy-tail family pins the truncated-variance row sum at exactly 1."""
    for n in (2048, 10_000):
        gauss = gaussian_row_check(heavy_tail_spec(n), epsilons=(1.0,))
        assert gauss.truncated_variance_sum == pytest.approx(1.0, abs=1e-9)
        assert gauss.truncated_mean_sum == 0.0
        eps, tail = gauss.tail_prob_sums[0]
        assert eps == 1.0
        assert 0.0 < tail <= 0.11


def test_heavy_tail_tail_condition_decreases_with_n():
    tails = []
    for n in (2048, 10_000, 100_000):
        tails.append(gaussian_row_check(heavy_tail_spec(n), epsilons=(1.0,)).tail_prob_sums[0][1])
    assert tails[0] > tails[1] > tails[2] > 0.0


def test_gaussian_row_check_validation():
    with pytest.raises(ValueError, match="epsilons must be positive"):
        gaussian_row_check(wigner_unit_spec(8), epsilons=(0.0,))


def test_heavy_tail_spec_validation():
    with pytest.raises(ValueError, match="n >= 8"):
        heavy_tail_spec(4)


def test_heavy_tail_sampler_truncated_row_sum(rng):
    """MC check of the calibration: n E[w^2; |w| <= 1] is close to 1."""
    n = 2048
    spec = heavy_tail_spec(n)
    x = math.sqrt(spec.profile.v)
    w = x * np.abs(spec.law.standard_sample(rng, N_MC))
    contrib = np.where(w <= 1.0, w * w, 0.0)
    est = n * contrib.mean()
    se = n * contrib.std(ddof=1) / math.sqrt(N_MC)
    assert abs(est - 1.0) <= 3.0 * se


def test_wigner_unit_spec_defaults():
    spec = wigner_unit_spec(10)
    assert spec.law == EntryLaw.gaussian_real()
    assert spec.profile.kind == "uniform"
    assert spec.profile.v == pytest.approx(0.1)
    assert spec.seed == 0
    custom = wigner_unit_spec(10, EntryLaw.rademacher(), seed=7)
    assert custom.law == EntryLaw.rademacher()
    assert custom.seed == 7
