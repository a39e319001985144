"""Truncation, centering, row rescaling, unit-variance replacement, pipeline.

Every stage's Frobenius accounting is checked against hand-computable cases
and against the closed-form tail sums it is supposed to match in
expectation (Monte Carlo, fixed seeds).
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from wignerlab.ensembles import (
    EnsembleSpec,
    EntryLaw,
    VarianceProfile,
    condition_sums,
    gaussian_row_check,
    heavy_tail_spec,
    sample_trial,
    wigner_unit_spec,
)
from wignerlab.hermitian_core import HermitianMatrix
from wignerlab.reductions import (
    _reduction_costs,
    auto_eta,
    centralize,
    pipeline,
    rescale_to_row_bound,
    truncate,
    truncated_profile,
    unit_variance_plan,
    unit_variance_replace,
)

from _oracles import chained_reduction_costs, random_hermitian


# ---------------------------------------------------------------------------
# truncate
# ---------------------------------------------------------------------------


def test_truncate_noop_below_level():
    w = HermitianMatrix(np.array([[0.5, -0.25], [-0.25, 0.1]]))
    out, trace = truncate(w, 1.0)
    assert np.array_equal(out.entries, w.entries)
    assert trace.truncated_count == 0
    assert trace.frobenius_delta_sq_per_stage == (0.0,)
    assert trace.eta == 1.0


def test_truncate_removes_large_entries_with_exact_cost():
    w = HermitianMatrix(np.array([[0.0, 3.0], [3.0, 0.0]]))
    out, trace = truncate(w, 1.0)
    assert np.all(out.entries == 0.0)
    assert trace.truncated_count == 2
    # ||before - after||_F^2 = 9 + 9 = 18, divided by n = 2
    assert trace.frobenius_delta_sq_per_stage[0] == pytest.approx(9.0)


def test_truncate_boundary_is_kept():
    w = HermitianMatrix(np.array([[0.0, 1.0], [1.0, -1.0]]))
    out, trace = truncate(w, 1.0)  # strictly-above entries go, equals stay
    assert np.array_equal(out.entries, w.entries)
    assert trace.truncated_count == 0


def test_truncate_random_accounting(rng):
    w = HermitianMatrix(random_hermitian(rng, 24, complex_entries=True))
    eta = 0.8
    out, trace = truncate(w, eta)
    assert np.all(np.abs(out.entries) <= eta)
    removed = w.entries - out.entries
    assert trace.frobenius_delta_sq_per_stage[0] == pytest.approx(
        float(np.sum(np.abs(removed) ** 2)) / w.n, rel=1e-12
    )
    assert trace.truncated_count == int(np.count_nonzero(removed))
    assert np.array_equal(out.entries, out.entries.conj().T)


def test_truncate_validation():
    w = HermitianMatrix(np.eye(2))
    with pytest.raises(ValueError, match="eta must be positive"):
        truncate(w, 0.0)


# ---------------------------------------------------------------------------
# centralize
# ---------------------------------------------------------------------------


def test_centralize_zero_means_is_identity():
    w = HermitianMatrix(np.array([[1.0, 2.0], [2.0, -1.0]]))
    out = centralize(w, np.zeros((2, 2)))
    assert np.array_equal(out.entries, w.entries)


def test_centralize_subtracts_exactly():
    w = HermitianMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    means = HermitianMatrix(np.full((2, 2), 0.1))
    out = centralize(w, means)
    assert np.allclose(out.entries, w.entries - 0.1)


def test_centralize_validation():
    w = HermitianMatrix(np.eye(2))
    with pytest.raises(ValueError, match="conditional means must be Hermitian"):
        centralize(w, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        centralize(w, HermitianMatrix(np.eye(3)))


# ---------------------------------------------------------------------------
# rescale_to_row_bound
# ---------------------------------------------------------------------------


def test_rescale_noop_when_rows_already_bounded():
    coeffs = rescale_to_row_bound(np.full((8, 8), 1.0 / 8), 1.0)
    assert np.array_equal(coeffs, np.ones((8, 8)))


def test_rescale_single_entry():
    # one cell of variance 4C: c^2 * 4C = C forces c = 1/2
    coeffs = rescale_to_row_bound(np.full((1, 1), 4.0), 1.0)
    assert coeffs[0, 0] == pytest.approx(0.5)


def test_rescale_two_by_two_hand_case():
    """Uniform variance 1 at n=2, C=1: every coefficient becomes 1/sqrt(2)."""
    coeffs = rescale_to_row_bound(np.ones((2, 2)), 1.0)
    assert np.allclose(coeffs, 1.0 / math.sqrt(2.0))
    rows = (coeffs**2 * 1.0).sum(axis=1)
    assert np.allclose(rows, 1.0)


def test_rescale_fixed_part_fallback():
    """A late row whose already-mirrored part alone exceeds C lowers wholesale."""
    sig = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 3.0], [3.0, 3.0, 0.0]])
    coeffs = rescale_to_row_bound(sig, 1.0)
    rows = (coeffs**2 * sig).sum(axis=1)
    assert np.all(rows <= 1.0 + 1e-12)
    assert rows[2] == pytest.approx(1.0)
    assert np.array_equal(coeffs, coeffs.T)
    # the wholesale cut shrinks the earlier rows strictly below the bound
    assert rows[0] == pytest.approx(0.5)


def test_rescale_validation():
    with pytest.raises(ValueError, match="C must be positive"):
        rescale_to_row_bound(np.ones((2, 2)), 0.0)


BAD_VARIANCES = {
    "non-square": (np.ones((2, 3)), "must be square"),
    "asymmetric": (np.array([[1.0, 2.0], [3.0, 1.0]]), "must be symmetric"),
    "negative": (np.array([[1.0, -2.0], [-2.0, 1.0]]), "must be nonnegative"),
    "nan": (np.array([[1.0, np.nan], [np.nan, 1.0]]), "finite"),
}
VARIANCE_STAGES = {
    "rescale_to_row_bound": lambda sig: rescale_to_row_bound(sig, 1.0),
    "unit_variance_plan": unit_variance_plan,
    "unit_variance_replace": lambda sig: unit_variance_replace(
        HermitianMatrix(np.eye(2)), sig, np.random.default_rng(0)
    ),
}


@pytest.mark.parametrize("bad", BAD_VARIANCES)
@pytest.mark.parametrize("stage", VARIANCE_STAGES)
def test_variance_stages_check_their_matrix(stage, bad):
    """The stages that read a variance matrix check it as an explicit profile is checked."""
    sig, message = BAD_VARIANCES[bad]
    with pytest.raises(ValueError, match=message):
        VARIANCE_STAGES[stage](sig)


def test_rescale_random_profiles_obey_bounds(rng):
    """Row bound, symmetry, [0,1] range, and the removed-variance bound."""
    for _ in range(100):
        n = int(rng.integers(2, 12))
        kind = rng.integers(0, 3)
        if kind == 0:
            profile = VarianceProfile.uniform(float(rng.uniform(0.0, 3.0)))
        elif kind == 1:
            profile = VarianceProfile.banded(
                int(rng.integers(0, n)),
                float(rng.uniform(0.0, 3.0)),
                float(rng.uniform(0.0, 1.0)),
            )
        else:
            a = rng.uniform(0.0, 3.0, (n, n))
            profile = VarianceProfile.explicit((a + a.T) / 2.0)
        C = float(rng.uniform(0.2, 2.0))
        sig = profile.matrix(n)
        coeffs = rescale_to_row_bound(sig, C)
        assert np.array_equal(coeffs, coeffs.T)
        assert np.all(coeffs >= 0.0) and np.all(coeffs <= 1.0 + 1e-12)
        rows = (coeffs**2 * sig).sum(axis=1)
        assert np.all(rows <= C + 1e-9)
        removed = float(np.sum((1.0 - coeffs**2) * sig))
        budget = 2.0 * float(np.sum(np.clip(sig.sum(axis=1) - C, 0.0, None)))
        assert removed <= budget + 1e-9


# ---------------------------------------------------------------------------
# unit-variance replacement
# ---------------------------------------------------------------------------


def test_replace_plan_unit_profile_is_identity():
    n = 16
    plan = unit_variance_plan(np.full((n, n), 1.0 / n))
    assert not plan.replace_mask.any()
    assert np.allclose(plan.scale, 1.0)
    assert plan.zero_diagonal_count == 0


def test_replace_unit_profile_leaves_matrix_unchanged(rng):
    n = 16
    spec = wigner_unit_spec(n, seed=3)
    w = sample_trial(spec, 0)
    out = unit_variance_replace(w, spec.profile.matrix(n), rng)
    assert np.array_equal(out.entries, w.entries)


def test_replace_zero_variance_entries(rng):
    """All-zero profile: off-diagonal becomes fresh signs, diagonal stays 0."""
    n = 8
    sig = np.zeros((n, n))
    w = HermitianMatrix(np.zeros((n, n)))
    plan = unit_variance_plan(sig)
    assert plan.zero_diagonal_count == n
    assert plan.replace_mask.sum() == n * n - n
    out = unit_variance_replace(w, sig, rng).entries
    off = ~np.eye(n, dtype=bool)
    assert np.all(np.abs(out[off]) == pytest.approx(1.0 / math.sqrt(n)))
    assert np.all(np.diag(out) == 0.0)
    assert np.array_equal(out, out.T)


def test_replace_rescales_oversized_variance(rng):
    """Uniform variance 4/n: every entry is multiplied by exactly 1/2."""
    n = 8
    profile = VarianceProfile.uniform(4.0 / n)
    spec = EnsembleSpec(n, EntryLaw.gaussian_real(), profile, seed=11)
    w = sample_trial(spec, 0)
    out = unit_variance_replace(w, profile.matrix(n), rng)
    assert np.allclose(out.entries, w.entries / 2.0)


def test_replace_scale_restores_unit_variance_exactly():
    """scale^2 * sigma^2 == 1/n on every kept cell with positive variance."""
    n = 6
    base = np.array(
        [
            [0.0, 2.0, 0.5, 0.0, 1.0, 3.0],
            [2.0, 1.0, 0.0, 0.25, 0.5, 1.0],
            [0.5, 0.0, 2.0, 1.0, 0.0, 0.5],
            [0.0, 0.25, 1.0, 0.0, 2.0, 1.0],
            [1.0, 0.5, 0.0, 2.0, 1.0, 0.0],
            [3.0, 1.0, 0.5, 1.0, 0.0, 2.0],
        ]
    ) / n
    plan = unit_variance_plan(base)
    sig = base
    kept = (sig > 1.0 / (2.0 * n)) & ~np.eye(n, dtype=bool)
    assert np.allclose((plan.scale**2 * sig)[kept], 1.0 / n)
    # replaced cells are exactly the small-variance off-diagonal ones
    expect_mask = (sig <= 1.0 / (2.0 * n)) & ~np.eye(n, dtype=bool)
    assert np.array_equal(plan.replace_mask, expect_mask)


def test_replace_expected_change_is_bounded(rng):
    """E sum_E |new - old|^2 = |E| (Var + 1/n) <= (3/(2n)) |E| on the swap set."""
    n = 16
    sig = np.full((n, n), 1.0 / (4.0 * n))  # below the 1/(2n) cutoff
    np.fill_diagonal(sig, 1.0 / n)
    spec = EnsembleSpec(n, EntryLaw.gaussian_real(), VarianceProfile.explicit(sig), seed=29)
    plan = unit_variance_plan(sig)
    e_size = int(plan.replace_mask.sum())
    assert e_size == n * n - n
    trials = 400
    changes = np.empty(trials)
    for r in range(trials):
        w = sample_trial(spec, r)
        out = unit_variance_replace(w, sig, rng)
        diff = (out.entries - w.entries)[plan.replace_mask]
        changes[r] = float(np.sum(np.abs(diff) ** 2))
    expect = e_size * (1.0 / (4.0 * n) + 1.0 / n)  # Var(old) + Var(new), independent
    se = changes.std(ddof=1) / math.sqrt(trials)
    assert abs(changes.mean() - expect) <= 4.0 * se
    assert changes.mean() <= (3.0 / (2.0 * n)) * e_size + 4.0 * se


def test_replace_preserves_hermitian_structure(rng):
    n = 10
    sig = np.full((n, n), 1.0 / (8.0 * n))
    spec = EnsembleSpec(n, EntryLaw.gaussian_real(), VarianceProfile.explicit(sig), seed=1)
    out = unit_variance_replace(sample_trial(spec, 0), sig, rng)
    assert np.array_equal(out.entries, out.entries.conj().T)


# ---------------------------------------------------------------------------
# truncated profiles
# ---------------------------------------------------------------------------


def test_truncated_profile_gaussian_uniform():
    n, eta = 64, 0.15
    spec = wigner_unit_spec(n)
    m = truncated_profile(spec, eta)
    law = EntryLaw.gaussian_real()
    assert m.shape == (n, n) and np.all(m == m[0, 0])
    assert m[0, 0] == pytest.approx((1.0 / n) * law.m2_below(eta * math.sqrt(n)), rel=1e-12)


def test_truncated_profile_heavy_tail_rows_are_unit():
    """Truncation at 1 turns the infinite-variance profile into rows of sum 1."""
    for n in (64, 2048):
        spec = heavy_tail_spec(n)
        assert np.allclose(truncated_profile(spec, 1.0).sum(axis=1), 1.0, atol=1e-9)


def test_truncated_profile_preserves_kind():
    """Each entry keeps its profile level: a banded profile's two levels stay a band."""
    law = EntryLaw.gaussian_real()
    profile_b = VarianceProfile.banded(1, 0.5, 0.1)
    m_b = truncated_profile(EnsembleSpec(8, law, profile_b), 0.5)
    levels = [v * law.m2_below(0.5 / math.sqrt(v)) for v in (0.5, 0.1)]
    assert np.array_equal(m_b, VarianceProfile.banded(1, *levels).matrix(8))
    spec_e = EnsembleSpec(3, law, VarianceProfile.explicit(np.eye(3)))
    out = truncated_profile(spec_e, 0.5)
    assert out[1, 1] == pytest.approx(law.m2_below(0.5), rel=1e-12)
    assert out[0, 1] == 0.0


def test_truncated_profile_puts_the_diagonal_law_on_the_diagonal():
    """A constant_zero diagonal truncates to 0: each row keeps only its 63 off-diagonal terms."""
    n, eta = 64, 0.25
    law = EntryLaw.gaussian_real()
    spec = EnsembleSpec(n, law, VarianceProfile.uniform(1.0 / n), diagonal_law=EntryLaw.constant_zero())
    m = truncated_profile(spec, eta)
    off = (1.0 / n) * law.m2_below(eta * math.sqrt(n))
    assert np.all(np.diag(m) == 0.0)
    assert np.all(m[~np.eye(n, dtype=bool)] == off)
    assert m.sum(axis=1) == pytest.approx(np.full(n, 0.72700), abs=5e-6)
    # on its default diagonal law the same spec's rows keep a diagonal term
    default = truncated_profile(EnsembleSpec(n, law, VarianceProfile.uniform(1.0 / n)), eta)
    assert default.sum(axis=1) == pytest.approx(np.full(n, 0.73854), abs=5e-6)
    # a complex law's real gaussian diagonal truncates by the real law's moment
    spec_c = EnsembleSpec(n, EntryLaw.gaussian_complex(), VarianceProfile.uniform(1.0 / n))
    m_c = truncated_profile(spec_c, eta)
    assert np.all(np.diag(m_c) == off)
    assert m_c[0, 1] == (1.0 / n) * EntryLaw.gaussian_complex().m2_below(eta * math.sqrt(n))


def test_truncated_profile_validation():
    with pytest.raises(ValueError, match="eta must be positive"):
        truncated_profile(wigner_unit_spec(4), 0.0)


_SPEC4 = wigner_unit_spec(4)
NON_FINITE_INPUTS = {
    "uniform_level": lambda x: VarianceProfile.uniform(x),
    "banded_inside": lambda x: VarianceProfile.banded(2, x, 0.1),
    "banded_outside": lambda x: VarianceProfile.banded(2, 0.1, x),
    "explicit_entry": lambda x: VarianceProfile.explicit(np.array([[1.0, x], [x, 1.0]])),
    "condition_sums_C": lambda x: condition_sums(_SPEC4, C=x, epsilons=(0.5,)),
    "condition_sums_eps": lambda x: condition_sums(_SPEC4, C=1.0, epsilons=(0.5, x)),
    "gaussian_row_check_eps": lambda x: gaussian_row_check(_SPEC4, (x,)),
    "truncate_eta": lambda x: truncate(HermitianMatrix(np.eye(4)), x),
    "truncated_profile_eta": lambda x: truncated_profile(_SPEC4, x),
    "rescale_C": lambda x: rescale_to_row_bound(np.eye(4), x),
    "pipeline_C": lambda x: pipeline(sample_trial(_SPEC4, 0), _SPEC4, 0.5, x),
}


@pytest.mark.parametrize("value", (math.nan, math.inf), ids=("nan", "inf"))
@pytest.mark.parametrize("case", NON_FINITE_INPUTS)
def test_non_finite_inputs_are_rejected(case, value):
    """Profile levels, row bounds C, epsilons and truncation levels eta must be finite.

    A NaN passes every ``x <= 0`` guard: a NaN profile read var_row_sum 4.0
    and Lindeberg 0.0 at n = 4, ``truncate(w, nan)`` removed nothing and
    ``rescale_to_row_bound`` at C = nan returned an all-NaN table.
    """
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_INPUTS[case](value)


def test_truncated_entry_variance_matches_profile():
    """Pooled variance of truncated off-diagonal entries hits the closed form."""
    n, eta = 64, 0.15
    spec = wigner_unit_spec(n, seed=31)
    target = truncated_profile(spec, eta)[0, 1]
    iu = np.triu_indices(n, k=1)
    squares = []
    for r in range(10):
        w = sample_trial(spec, r).entries[iu]
        squares.append(np.where(np.abs(w) <= eta, w * w, 0.0))
    x2 = np.concatenate(squares)
    se = x2.std(ddof=1) / math.sqrt(x2.size)
    assert abs(x2.mean() - target) <= 3.0 * se


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def test_pipeline_validation():
    spec = wigner_unit_spec(4)
    w = HermitianMatrix(np.eye(3))
    with pytest.raises(ValueError, match="does not match spec"):
        pipeline(w, spec, eta=1.0, C=1.0)
    with pytest.raises(ValueError, match="coefficients dimension mismatch"):
        pipeline(sample_trial(spec, 0), spec, eta=1.0, C=1.0, coeffs=np.ones((3, 3)))


def test_pipeline_given_table_matches_its_own():
    """A table built once per size gives the bytes pipeline builds per trial."""
    spec = heavy_tail_spec(64, seed=53)
    table = rescale_to_row_bound(truncated_profile(spec, 1.0), 1.0)
    for trial in range(3):
        w = sample_trial(spec, trial)
        own, own_trace = pipeline(w, spec, eta=1.0, C=1.0)
        given, given_trace = pipeline(w, spec, eta=1.0, C=1.0, coeffs=table)
        assert given.entries.tobytes() == own.entries.tobytes()
        assert given_trace.frobenius_delta_sq_per_stage == own_trace.frobenius_delta_sq_per_stage
        assert given_trace.rescale_coeffs is table


def test_pipeline_no_work_when_level_is_generous():
    """Huge eta: nothing truncated, centering exact zero, rows already bounded."""
    spec = wigner_unit_spec(64, seed=41)
    w = sample_trial(spec, 0)
    out, trace = pipeline(w, spec, eta=10.0, C=1.0)
    assert trace.truncated_count == 0
    assert trace.centering_norm_sq == 0.0
    assert trace.frobenius_delta_sq_per_stage == (0.0, 0.0, 0.0)
    assert np.array_equal(out.entries, w.entries)
    assert np.array_equal(trace.rescale_coeffs, np.ones((64, 64)))


def test_pipeline_truncation_cost_matches_tail_sum():
    """Average first-stage cost equals the normalized truncation tail sum."""
    n, eta, trials = 256, 0.1, 20
    spec = wigner_unit_spec(n, seed=43)
    expect = condition_sums(spec, C=1.0, epsilons=(eta,)).lindeberg_normalized[0][1]
    deltas = np.empty(trials)
    counts = np.empty(trials)
    for r in range(trials):
        w = sample_trial(spec, r)
        _, trace = pipeline(w, spec, eta=eta, C=1.0)
        deltas[r] = trace.frobenius_delta_sq_per_stage[0]
        counts[r] = trace.truncated_count
    se = deltas.std(ddof=1) / math.sqrt(trials)
    assert abs(deltas.mean() - expect) <= 4.0 * se
    # the count tracks n^2 P(|w| > eta) the same way
    p = EntryLaw.gaussian_real().tail_prob(eta * math.sqrt(n))
    se_c = counts.std(ddof=1) / math.sqrt(trials)
    assert abs(counts.mean() - n * n * p) <= 4.0 * se_c


def test_pipeline_truncation_cost_decreases_with_n():
    """At fixed eta the per-size average truncation cost shrinks as n grows."""
    eta, trials = 0.1, 3
    means = []
    for n in (64, 128, 256, 512):
        spec = wigner_unit_spec(n, seed=47)
        vals = []
        for r in range(trials):
            _, trace = pipeline(sample_trial(spec, r), spec, eta=eta, C=1.0)
            vals.append(trace.frobenius_delta_sq_per_stage[0])
        means.append(float(np.mean(vals)))
    assert means[0] > means[1] > means[2] > means[3]


def test_pipeline_output_is_reduced():
    """Output is Hermitian with bounded entries and valid coefficient matrix."""
    spec = heavy_tail_spec(64, seed=53)
    w = sample_trial(spec, 0)
    out, trace = pipeline(w, spec, eta=1.0, C=1.0)
    assert np.all(np.abs(out.entries) <= 1.0 + 1e-12)
    assert np.array_equal(out.entries, out.entries.conj().T)
    c = trace.rescale_coeffs
    assert np.array_equal(c, c.T)
    assert np.all(c >= 0.0) and np.all(c <= 1.0 + 1e-12)
    assert all(d >= 0.0 for d in trace.frobenius_delta_sq_per_stage)
    assert len(trace.frobenius_delta_sq_per_stage) == 3


def test_pipeline_builds_one_matrix_per_working_stage(monkeypatch):
    """Only the rescaled matrix is built: the costs come from the sample itself, so
    neither the truncated matrix nor a centered one is."""
    import wignerlab.reductions as reductions

    built = []

    class Counting(HermitianMatrix):
        def __post_init__(self):
            built.append(1)
            super().__post_init__()

        @classmethod
        def _trusted(cls, a):
            built.append(1)
            return super()._trusted(a)

    monkeypatch.setattr(reductions, "HermitianMatrix", Counting)
    spec = wigner_unit_spec(16, seed=61)
    pipeline(sample_trial(spec, 0), spec, eta=0.1, C=0.5)
    assert len(built) == 1


def test_pipeline_peak_memory_is_three_matrices():
    """Within three matrices, and now near two: the cost pass holds one difference
    array beside the truncation mask, squared in place, and then the rescaled
    matrix is built alone.  Measured 2.13 x a matrix at n = 512; building the
    truncated matrix, the rescaled one and their difference measured 3.00."""
    import tracemalloc

    n = 512
    spec = EnsembleSpec(
        n, EntryLaw.pareto_symmetric(2.5, 1.0), VarianceProfile.banded(64, 1.0 / n, 5e-4), seed=29
    )
    eta = auto_eta(spec)
    # C below the truncated row sums, so the rescale stage does work
    table = rescale_to_row_bound(truncated_profile(spec, eta), 0.25)
    w = sample_trial(spec, 0)
    tracemalloc.start()
    try:
        _, trace = pipeline(w, spec, eta=eta, C=0.25, coeffs=table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.frobenius_delta_sq_per_stage[2] > 0.0
    assert peak <= 2.5 * n * n * 8, peak / (n * n * 8)


# (spec, eta, C): the benchmark's banded Pareto spec, a complex law, whose real
# diagonal law makes the truncated profile explicit, and a constant_zero diagonal;
# each C lies below some truncated row sums, so the rescale stage does work
COST_CASES = {
    "banded_pareto": (
        EnsembleSpec(100, EntryLaw.pareto_symmetric(2.5, 1.0), VarianceProfile.banded(64, 0.01, 5e-4), seed=7),
        None,
        0.25,
    ),
    "gaussian_complex": (wigner_unit_spec(64, EntryLaw.gaussian_complex(), seed=7), 0.25, 0.7),
    "constant_zero_diagonal": (
        EnsembleSpec(64, EntryLaw.gaussian_real(), VarianceProfile.uniform(1 / 64), EntryLaw.constant_zero(), seed=7),
        0.25,
        0.7,
    ),
}


@pytest.mark.parametrize("case", COST_CASES)
def test_pipeline_trace_is_the_cost_rule(case):
    """pipeline's trace is ``_reduction_costs``' bit for bit, both equal the stage
    chain that builds the truncated and rescaled matrices whole, and the returned
    matrix has the bytes of c times the truncated matrix."""
    spec, eta, C = COST_CASES[case]
    eta = auto_eta(spec) if eta is None else eta
    coeffs = rescale_to_row_bound(truncated_profile(spec, eta), C)
    for trial in range(3):
        w = sample_trial(spec, trial)
        out, trace = pipeline(w, spec, eta, C, coeffs)
        removed, delta_truncate, delta_rescale = _reduction_costs(w.entries, eta, coeffs)
        assert trace.truncated_count == removed
        assert trace.frobenius_delta_sq_per_stage == (delta_truncate, 0.0, delta_rescale)
        assert (removed, delta_truncate, delta_rescale) == chained_reduction_costs(w.entries, eta, coeffs)
        assert removed > 0 and delta_rescale > 0.0
        w1, _ = truncate(w, eta)
        want = HermitianMatrix._trusted(coeffs * w1.entries).entries
        assert out.entries.dtype == want.dtype and out.entries.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", (np.inf, np.nan))
def test_cost_rule_rejects_non_finite_coefficients(bad):
    """A non-finite coefficient is rejected, also on an entry that truncation zeroes."""
    spec = wigner_unit_spec(16, seed=61)
    w = sample_trial(spec, 0)
    for i, j in (np.argwhere(np.abs(w.entries) > 0.1)[0], np.argwhere(np.abs(w.entries) <= 0.1)[0]):
        coeffs = np.ones((16, 16))
        coeffs[i, j] = coeffs[j, i] = bad
        with pytest.raises(ValueError, match="finite"):
            _reduction_costs(w.entries, 0.1, coeffs)
        with pytest.raises(ValueError, match="finite"):
            pipeline(w, spec, 0.1, 0.5, coeffs)


def test_pipeline_stage_costs_recompose():
    """Stage deltas re-derive from the intermediate matrices they separate."""
    spec = wigner_unit_spec(32, seed=59)
    w = sample_trial(spec, 0)
    out, trace = pipeline(w, spec, eta=0.1, C=0.5)
    w1, _ = truncate(w, 0.1)
    coeffs = rescale_to_row_bound(truncated_profile(spec, 0.1), 0.5)
    assert np.array_equal(trace.rescale_coeffs, coeffs)
    d_trunc = float(np.sum(np.abs(w.entries - w1.entries) ** 2)) / 32
    d_scale = float(np.sum(np.abs(w1.entries - coeffs * w1.entries) ** 2)) / 32
    assert trace.frobenius_delta_sq_per_stage[0] == pytest.approx(d_trunc, rel=1e-12)
    assert trace.frobenius_delta_sq_per_stage[1] == 0.0
    assert trace.frobenius_delta_sq_per_stage[2] == pytest.approx(d_scale, rel=1e-12)
    assert np.allclose(out.entries, coeffs * w1.entries)


# ---------------------------------------------------------------------------
# auto_eta
# ---------------------------------------------------------------------------


def test_auto_eta_gaussian_grid_choice():
    # n = 256: the tail sum first drops under eps at 0.25, matching the floor
    assert auto_eta(wigner_unit_spec(256)) == pytest.approx(0.25)
    # n = 4096: the grid would allow 0.0625 but the n^(-1/4) floor binds
    assert auto_eta(wigner_unit_spec(4096)) == pytest.approx(4096.0**-0.25)


def test_auto_eta_floor_binds_for_bounded_law():
    # rademacher n = 16: tail sum is 0 from eps = 0.25 on, floor is 16^(-1/4)
    assert auto_eta(wigner_unit_spec(16, EntryLaw.rademacher())) == pytest.approx(0.5)


def test_auto_eta_infinite_variance_takes_largest_grid_point():
    assert auto_eta(heavy_tail_spec(64)) == pytest.approx(4.0)
