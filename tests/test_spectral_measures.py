"""Distribution functions, metrics, moments, and the weak-convergence battery."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    brute_levy,
    exact_step_levy,
    levy_violation,
    quad_semicircle,
    random_hermitian,
    semicircle_quantile_atoms,
    step_kolmogorov_gap,
)
from wignerlab.ensembles import EntryLaw, sample_trial, wigner_unit_spec
from wignerlab.hermitian_core import (
    HermitianMatrix,
    eigenvalues_desc,
    frobenius_norm,
    numeric_rank,
)
from wignerlab.spectral_measures import (
    RampFunction,
    SemicircleLaw,
    StepDistribution,
    esd,
    expected_esd,
    kolmogorov_distance,
    levy_distance,
    semicircle_moment,
)


def delta(x: float) -> StepDistribution:
    return StepDistribution(np.array([x]), np.array([1.0]))


# -- StepDistribution ---------------------------------------------------------

def test_step_distribution_merges_equal_atoms():
    d = StepDistribution(np.array([1.0, 1.0, 0.0]), np.array([0.25, 0.25, 0.5]))
    assert np.array_equal(d.atoms, [0.0, 1.0])
    assert np.allclose(d.weights, [0.5, 0.5])


def test_step_distribution_rejects_bad_weights():
    with pytest.raises(ValueError, match="sum to 1"):
        StepDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="positive"):
        StepDistribution(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("build", ("step", "esd"))
def test_non_finite_atoms_rejected(build, bad):
    """A NaN atom would make the Kolmogorov distance to the semicircle nan and
    the Levy distance 1.0; an infinite one would make both read 0.5."""
    atoms = np.array([0.25, bad, 0.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        if build == "step":
            StepDistribution(atoms, np.full(4, 0.25))
        else:
            esd(atoms)


def test_step_cdf_right_continuous():
    d = StepDistribution(np.array([0.0, 1.0]), np.array([0.3, 0.7]))
    assert d.cdf(-0.5) == 0.0
    assert d.cdf(0.0) == pytest.approx(0.3)
    assert d.cdf(0.999999) == pytest.approx(0.3)
    assert d.cdf(1.0) == pytest.approx(1.0)


# -- esd ----------------------------------------------------------------------

def test_esd_collapses_repeated_eigenvalue():
    d = esd([1.0, 1.0, 1.0])
    assert np.array_equal(d.atoms, [1.0])
    assert np.array_equal(d.weights, [1.0])


def test_esd_two_point():
    d = esd([-1.0, 1.0])
    assert np.array_equal(d.atoms, [-1.0, 1.0])
    assert np.allclose(d.weights, [0.5, 0.5])


def test_esd_empty_rejected():
    with pytest.raises(ValueError):
        esd([])


def test_esd_cdf_ends_at_exactly_one():
    """CDF entries are integer counts over N: the last is 1.0 at every length,
    and for the pooled ESD of a 4,000-trial stack."""
    gen = np.random.default_rng(5)
    for n in range(1, 65):
        d = esd(gen.standard_normal(n))
        assert d._cum[-1] == 1.0, n
        assert np.array_equal(d._cum, np.arange(n + 1) / n), n
    stack = gen.standard_normal((4000, 64))
    pooled = esd(stack)
    assert pooled._cum[-1] == 1.0
    assert np.all(np.diff(pooled._cum) > 0)
    assert np.array_equal(pooled.atoms, np.sort(stack, axis=None))


def test_esd_counts_tied_values():
    """A value taken c times among N weighs c / N, with its CDF step from the counts."""
    d = esd([[2.0, 0.5, 0.5], [0.5, -1.0, 2.0], [0.0, 0.0, 2.0]])
    assert np.array_equal(d.atoms, [-1.0, 0.0, 0.5, 2.0])
    assert d.weights.tolist() == [1 / 9, 2 / 9, 3 / 9, 3 / 9]
    assert d._cum.tolist() == [0.0, 1 / 9, 3 / 9, 6 / 9, 1.0]
    assert not d.atoms.flags.writeable and not d.weights.flags.writeable


def test_pooled_esd_equals_expected_esd_of_trials():
    """At power-of-two sizes the pooled ESD of a stack has the atoms and weights
    of the mixture of the trials' ESDs, bit for bit."""
    stack = np.random.default_rng(9).standard_normal((64, 256))
    pooled = esd(stack)
    mixture = expected_esd(esd(row) for row in stack)
    assert pooled.atoms.tobytes() == mixture.atoms.tobytes()
    assert pooled.weights.tobytes() == mixture.weights.tobytes()
    assert mixture._cum[-1] == 1.0


@pytest.mark.parametrize("n", (9, 11))
def test_kolmogorov_distance_of_disjoint_supports_is_one(n):
    """Nine or eleven weights of 1/n sum past 1 in float; the counted CDF does not."""
    gen = np.random.default_rng(n)
    f = esd(gen.uniform(-2.0, -1.0, n))
    g = esd(gen.uniform(1.0, 2.0, n))
    assert kolmogorov_distance(f, g) == 1.0
    assert kolmogorov_distance(g, f) == 1.0


def test_esd_of_sampled_matrix_balanced_at_zero():
    lam = eigenvalues_desc(sample_trial(wigner_unit_spec(256, seed=21), 0))
    assert abs(esd(lam).cdf(0.0) - 0.5) < 0.08


# -- semicircle law -----------------------------------------------------------

def test_semicircle_cdf_symmetry_and_endpoints():
    sc = SemicircleLaw()
    assert sc.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert sc.cdf(-2.0) == 0.0
    assert sc.cdf(2.0) == 1.0
    assert sc.cdf(-5.0) == 0.0 and sc.cdf(5.0) == 1.0


def test_semicircle_cdf_matches_quadrature_at_one():
    want = quad_semicircle(lambda x: 1.0, -2.0, 1.0)
    assert SemicircleLaw().cdf(1.0) == pytest.approx(want, abs=1e-9)


def test_semicircle_density_integrates_to_one():
    assert quad_semicircle(lambda x: 1.0) == pytest.approx(1.0, abs=1e-10)
    sc = SemicircleLaw()
    xs = np.linspace(-2.0, 2.0, 20_001)
    # trapezoid converges only like h^(3/2) at the square-root edges
    assert np.trapezoid(sc.density(xs), xs) == pytest.approx(1.0, abs=5e-6)


def test_partial_first_moment_matches_quadrature():
    sc = SemicircleLaw()
    want = quad_semicircle(lambda x: x, -0.7, 1.3)
    assert sc.partial_first_moment(-0.7, 1.3) == pytest.approx(want, abs=1e-10)


# -- semicircle_moment --------------------------------------------------------

def test_catalan_moments_exact():
    assert [semicircle_moment(k) for k in (2, 4, 6, 8)] == [1, 2, 5, 14]
    assert semicircle_moment(3) == 0
    assert semicircle_moment(0) == 1
    assert isinstance(semicircle_moment(10), int)


def test_moment_rejects_negative_order():
    with pytest.raises(ValueError):
        semicircle_moment(-1)


def test_moments_match_quadrature_to_k12():
    for k in range(13):
        want = quad_semicircle(lambda x, k=k: x**k)
        assert semicircle_moment(k) == pytest.approx(want, abs=1e-8)


# -- kolmogorov_distance ------------------------------------------------------

def test_kolmogorov_identical_steps():
    d = esd([0.0, 1.0, 2.0])
    assert kolmogorov_distance(d, d) == 0.0


def test_kolmogorov_separated_deltas():
    assert kolmogorov_distance(delta(0.0), delta(1.0)) == pytest.approx(1.0)


def test_kolmogorov_nearby_atoms():
    k = kolmogorov_distance(esd([0.0]), esd([1e-9]))
    assert 0.0 < k <= 1.0


# -- levy_distance ------------------------------------------------------------

def test_levy_identity():
    d = esd([0.0, 0.5, 1.5])
    assert levy_distance(d, d) == 0.0


def test_levy_half_spaced_deltas_vs_brute_force():
    got = levy_distance(delta(0.0), delta(0.5))
    assert got == pytest.approx(0.5, abs=1e-6)
    brute = brute_levy(delta(0.0), delta(0.5), eps_step=1e-3)
    assert abs(got - brute) <= 2e-3


def test_levy_matches_brute_force_on_random_steps(rng):
    for _ in range(5):
        f = esd(rng.standard_normal(4))
        g = esd(rng.standard_normal(6))
        got = levy_distance(f, g)
        brute = brute_levy(f, g, eps_step=1e-3)
        assert abs(got - brute) <= 2e-3


def test_levy_matches_brute_force_against_semicircle(rng):
    sc = SemicircleLaw()
    for size in (3, 8):
        f = esd(rng.standard_normal(size))
        got = levy_distance(f, sc)
        assert levy_distance(sc, f) == got
        assert abs(got - brute_levy(f, sc, eps_step=1e-3)) <= 2e-3


def test_levy_exact_on_rademacher_esd():
    """The returned eps passes the atom test of the docstring with no slack and
    the next double below it fails, with F(x_i) and F(x_i-) counted from the
    eigenvalues; the sampled definition holds at eps.

    The same spectrum checks Kolmogorov against directly counted one-sided gaps.
    """
    lam = eigenvalues_desc(sample_trial(wigner_unit_spec(64, EntryLaw.rademacher(), seed=5), 4))
    f, sc = esd(lam), SemicircleLaw()
    x = f.atoms
    at = (lam[None, :] <= x[:, None]).sum(axis=1) / lam.size
    before = (lam[None, :] < x[:, None]).sum(axis=1) / lam.size

    def passes(eps: float) -> bool:
        return bool(np.all(at - sc.cdf(x + eps) <= eps) and np.all(sc.cdf(x - eps) - before <= eps))

    got = levy_distance(f, sc)
    assert passes(got)
    assert not passes(np.nextafter(got, 0.0))
    points = np.concatenate([f.atoms, np.nextafter(f.atoms, -np.inf)])
    assert levy_violation(points, f, sc, got) <= 0.0
    assert kolmogorov_distance(f, sc) == pytest.approx(step_kolmogorov_gap(lam, sc), abs=1e-15)


def test_levy_matches_exact_rational_oracle_on_dyadic_steps():
    """300 step pairs with atoms k/8 in [-2, 2] and weights 1/m, m in {1, 2, 4}.

    The exact distance is dyadic, so the test passes at it in floats and the
    result can only fall below it, by the rounding of x +- eps: at most half
    an ulp of the largest atom, 2.
    """
    gen = np.random.default_rng(23)
    for _ in range(300):
        xs, ys = (gen.integers(-16, 17, size=gen.choice((1, 2, 4))) / 8 for _ in range(2))
        want = float(exact_step_levy(xs, ys))
        for got in (levy_distance(esd(xs), esd(ys)), levy_distance(esd(ys), esd(xs))):
            assert 0.0 <= want - got <= 2.3e-16, (xs, ys)


def test_metrics_need_a_step_argument():
    sc = SemicircleLaw()
    with pytest.raises(TypeError):
        levy_distance(sc, sc)
    with pytest.raises(TypeError):
        kolmogorov_distance(sc, sc)


def test_levy_below_kolmogorov_on_100_pairs(rng):
    sc = SemicircleLaw()
    for trial in range(100):
        f = esd(rng.standard_normal(int(rng.integers(1, 12))))
        g = sc if trial % 3 == 0 else esd(rng.standard_normal(int(rng.integers(1, 12))))
        assert levy_distance(f, g) <= kolmogorov_distance(f, g)


# -- expected_esd -------------------------------------------------------------

def test_expected_esd_single_sample_identity():
    d = esd([0.0, 1.0])
    e = expected_esd([d])
    assert np.array_equal(e.atoms, d.atoms)
    assert np.allclose(e.weights, d.weights)


def test_expected_esd_two_deltas():
    e = expected_esd([delta(0.0), delta(1.0)])
    assert np.array_equal(e.atoms, [0.0, 1.0])
    assert np.allclose(e.weights, [0.5, 0.5])


def test_expected_esd_cdf_is_average_of_cdfs(rng):
    samples = [esd(rng.standard_normal(5)) for _ in range(50)]
    pooled = expected_esd(samples)
    xs = np.linspace(-3.0, 3.0, 41)
    avg = np.mean([s.cdf(xs) for s in samples], axis=0)
    assert np.max(np.abs(pooled.cdf(xs) - avg)) < 1e-12


def test_expected_esd_cdf_ends_at_exactly_one():
    """The float sum of 4,000 trials' weights 1/(64 * 4000) overshoots 1; the CDF is pinned and clipped."""
    gen = np.random.default_rng(13)
    pooled = expected_esd(esd(gen.standard_normal(64)) for _ in range(4000))
    assert pooled._cum[-1] == 1.0
    assert np.all(pooled._cum <= 1.0)
    hand = StepDistribution(np.arange(9.0), np.full(9, 1 / 9))
    assert hand._cum[-1] == 1.0
    assert kolmogorov_distance(hand, StepDistribution([100.0], [1.0])) == 1.0


def test_expected_esd_empty_rejected():
    with pytest.raises(ValueError):
        expected_esd([])


# -- ramps and weak convergence ----------------------------------------------

def test_ramp_requires_p_below_q():
    with pytest.raises(ValueError):
        RampFunction(1.0, 1.0)


def test_ramp_shape():
    f = RampFunction(-0.5, 0.5)
    assert f.value(-1.0) == 1.0
    assert f.value(1.0) == 0.0
    assert f.value(0.0) == pytest.approx(0.5)


def test_ramp_against_delta_at_zero():
    f = RampFunction(-0.5, 0.5)
    assert f.integrate_step(delta(0.0)) == pytest.approx(0.5)


def test_ramp_saturated_outside_support():
    """A ramp whose transition sits outside the support integrates exactly.

    The ramp is 1 left of p and 0 right of q, so a transition right of the
    support saturates at 1 and one left of it at 0; either way the step and
    semicircle integrals agree with no discretization gap.
    """
    quantized = esd(semicircle_quantile_atoms(10_000))
    for (p, q), expect in (((-3.0, -2.5), 0.0), ((2.5, 3.0), 1.0)):
        f = RampFunction(p, q)
        assert f.integrate_step(quantized) == pytest.approx(expect, abs=1e-12)
        assert f.integrate_semicircle() == pytest.approx(expect, abs=1e-12)


def test_ramp_semicircle_integral_matches_quadrature():
    f = RampFunction(-0.4, 0.9)
    want = quad_semicircle(f.value)
    assert f.integrate_semicircle() == pytest.approx(want, abs=1e-10)


# -- perturbation and rank inequalities ---------------------------------------

def test_levy_cubed_frobenius_perturbation_bound(rng):
    for _ in range(30):
        n = int(rng.integers(2, 65))
        a = random_hermitian(rng, n)
        b = a + 0.3 * random_hermitian(rng, n)
        fa = esd(eigenvalues_desc(HermitianMatrix(a)))
        fb = esd(eigenvalues_desc(HermitianMatrix(b)))
        lhs = levy_distance(fa, fb) ** 3
        rhs = frobenius_norm(HermitianMatrix(a) - HermitianMatrix(b)) ** 2 / n
        assert lhs <= rhs + 1e-6


def _low_rank_pair(rng, n: int, r: int):
    a = random_hermitian(rng, n)
    bump = np.zeros((n, n))
    for _ in range(r):
        v = rng.standard_normal(n)
        bump += float(rng.standard_normal()) * np.outer(v, v)
    return HermitianMatrix(a), HermitianMatrix(a + bump)


def test_kolmogorov_rank_inequality(rng):
    for _ in range(30):
        n = int(rng.integers(4, 65))
        r = int(rng.integers(1, 4))
        ma, mb = _low_rank_pair(rng, n, r)
        rank = numeric_rank(ma - mb)
        assert rank <= r
        fa = esd(eigenvalues_desc(ma))
        fb = esd(eigenvalues_desc(mb))
        assert kolmogorov_distance(fa, fb) <= rank / n + 1e-9


def test_bounded_variation_rank_inequality(rng):
    f = RampFunction(-0.5, 0.5)
    for _ in range(30):
        n = int(rng.integers(4, 65))
        r = int(rng.integers(1, 4))
        ma, mb = _low_rank_pair(rng, n, r)
        rank = numeric_rank(ma - mb)
        gap = abs(
            f.integrate_step(esd(eigenvalues_desc(ma)))
            - f.integrate_step(esd(eigenvalues_desc(mb)))
        )
        assert gap <= rank / n + 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 16))
@example(seed=207, n=9)  # disjoint supports; a float CDF once ended at 1 + 2**-52 here
def test_metric_axioms_property(seed, n):
    gen = np.random.default_rng(seed)
    f = esd(gen.standard_normal(n))
    g = esd(gen.standard_normal(max(1, n // 2)))
    lv, kv = levy_distance(f, g), kolmogorov_distance(f, g)
    assert 0.0 <= lv <= kv <= 1.0
    assert levy_distance(f, f) == 0.0
    assert abs(levy_distance(g, f) - lv) <= 4.4e-16
