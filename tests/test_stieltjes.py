"""Stieltjes transforms, the Herglotz branch, inversion, and the recursion.

The closed-form semicircle transform is cross-checked by adaptive
quadrature of the density, by quantile discretizations, and by sampled
spectra; the recursion residual gets an exact degenerate case plus a
scaling check.
"""
from __future__ import annotations

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from wignerlab import stieltjes
from wignerlab.cli_runner import _KEPT_SPECTRA
from wignerlab.ensembles import EnsembleSpec, EntryLaw, VarianceProfile, sample_trial, wigner_unit_spec
from wignerlab.hermitian_core import eigenvalues_desc
from wignerlab.spectral_measures import SemicircleLaw, StepDistribution, esd
from wignerlab.stieltjes import (
    MASS_CAP,
    GridDensity,
    atomic_density,
    invert_on_grid,
    recursion_residual,
    semicircle_stieltjes,
    sqrt_z2_minus_4,
    stieltjes_atomic,
)

from _oracles import exact_poisson_density, quad_semicircle, semicircle_quantile_atoms

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# points and densities
# ---------------------------------------------------------------------------


def test_transform_rejects_lower_half_plane():
    with pytest.raises(ValueError, match="upper half plane"):
        semicircle_stieltjes(1.0 - 0.5j)
    with pytest.raises(ValueError, match="upper half plane"):
        stieltjes_atomic(esd([0.0]), 2.0 + 0.0j)


def test_grid_density_validation():
    grid = np.linspace(-1.0, 1.0, 5)
    GridDensity(grid, np.full(5, 0.25), 0.1)
    with pytest.raises(ValueError, match="matching 1-d arrays"):
        GridDensity(grid, np.zeros(4), 0.1)
    with pytest.raises(ValueError, match="strictly increasing"):
        GridDensity(grid[::-1].copy(), np.zeros(5), 0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        GridDensity(grid, np.full(5, -0.1), 0.1)
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        GridDensity(grid, np.zeros(5), 0.0)
    with pytest.raises(ValueError, match=f"exceeds {MASS_CAP}"):
        GridDensity(grid, np.full(5, 10.0), 0.1)


@pytest.mark.parametrize(
    "grid, values, bandwidth, message",
    [
        ([0.0, 1.0], [math.nan, 1.0], 0.1, "density values must be finite"),
        ([0.0, 1.0], [0.0, math.inf], 0.1, "density values must be finite"),
        ([math.nan], [1.0], 0.1, "grid must be finite"),
        ([-math.inf, 0.0], [0.0, 0.0], 0.1, "grid must be finite"),
        ([0.0, 1.0], [0.5, 0.5], math.inf, "bandwidth must be positive and finite"),
    ],
)
def test_grid_density_rejects_non_finite(grid, values, bandwidth, message):
    with pytest.raises(ValueError, match=message):
        GridDensity(np.array(grid), np.array(values), bandwidth)


def test_grid_density_mass():
    grid = np.linspace(0.0, 1.0, 101)
    d = GridDensity(grid, np.ones(101), 0.05)
    assert d.mass == pytest.approx(1.0, rel=1e-12)
    assert GridDensity(np.array([0.0]), np.array([3.0]), 0.1).mass == 0.0


# ---------------------------------------------------------------------------
# the branch
# ---------------------------------------------------------------------------


def test_branch_at_the_imaginary_axis():
    assert sqrt_z2_minus_4(1j) == pytest.approx(1j * math.sqrt(5.0), abs=1e-14)
    # far from the support the root looks like z itself
    far = sqrt_z2_minus_4(100j)
    assert abs(far - cmath.sqrt(-(100.0**2) - 4.0)) < 1e-10
    assert far.imag > 0


def test_branch_upper_half_plane_positivity():
    for x in np.linspace(-3.0, 3.0, 101):
        for y in (1e-6, 0.02, 1.0):
            root = sqrt_z2_minus_4(complex(x, y))
            assert root.imag >= 0.0, (x, y)


def test_branch_is_continuous_across_the_edges():
    """No jump when the horizontal line Im z = 0.02 crosses Re z = +-2."""
    xs = np.arange(-3.0, 3.0 + 1e-9, 1e-4)
    vals = np.array([sqrt_z2_minus_4(complex(x, 0.02)) for x in xs])
    jumps = np.abs(np.diff(vals))
    assert jumps.max() <= 1e-3


# ---------------------------------------------------------------------------
# atomic transforms
# ---------------------------------------------------------------------------


def test_atomic_transform_single_atom():
    assert stieltjes_atomic(esd([0.0]), 1j) == pytest.approx(1j)
    lam, z = 1.5, 0.3 + 0.4j
    assert stieltjes_atomic(esd([lam]), z) == pytest.approx(1.0 / (lam - z))


def test_atomic_transform_two_atoms():
    s = stieltjes_atomic(esd([-1.0, 1.0]), 1j)
    assert s == pytest.approx(0.5j)


def test_atomic_transform_herglotz_properties(rng):
    for _ in range(50):
        atoms = rng.standard_normal(int(rng.integers(1, 9)))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 3.0))
        s = stieltjes_atomic(esd(atoms), z)
        assert s.imag > 0.0
        assert abs(s) <= 1.0 / z.imag + 1e-12


def test_sampled_esd_transform_close_to_semicircle():
    lam = eigenvalues_desc(sample_trial(wigner_unit_spec(512, seed=61), 0))
    for z in (1j, 0.5 + 1.0j, 2j):
        got = stieltjes_atomic(esd(lam), z)
        assert abs(got - semicircle_stieltjes(z)) <= 0.06


# ---------------------------------------------------------------------------
# the semicircle transform
# ---------------------------------------------------------------------------


def test_semicircle_transform_at_i_is_golden_ratio():
    s = semicircle_stieltjes(1j)
    assert s == pytest.approx(1j * GOLDEN, abs=1e-12)


def test_semicircle_transform_solves_its_fixed_point():
    for z in (1j, 2j, 0.5 + 0.25j, -1.3 + 0.8j, 2.5 + 0.05j):
        s = semicircle_stieltjes(z)
        assert abs(s + 1.0 / (z + s)) <= 1e-12
        assert s.imag > 0.0


def test_semicircle_transform_matches_quadrature():
    for z in (1j, 0.3 + 0.5j, -0.8 + 0.2j):
        re = quad_semicircle(lambda x: (1.0 / (x - z)).real)
        im = quad_semicircle(lambda x: (1.0 / (x - z)).imag)
        assert semicircle_stieltjes(z) == pytest.approx(complex(re, im), abs=1e-8)


def test_semicircle_transform_tail_normalization():
    # b Im s(ib) -> total mass 1 as b grows
    b = 100.0
    assert abs(b * semicircle_stieltjes(b * 1j).imag - 1.0) <= 1e-3


def test_semicircle_transform_matches_quantile_discretization():
    quantized = esd(semicircle_quantile_atoms(100_000))
    z = 0.3 + 0.5j
    assert stieltjes_atomic(quantized, z) == pytest.approx(
        semicircle_stieltjes(z), abs=1e-3
    )


# ---------------------------------------------------------------------------
# inversion back to a density
# ---------------------------------------------------------------------------


def test_invert_on_grid_validation():
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        invert_on_grid(semicircle_stieltjes, 0.0, [0.0, 1.0])
    with pytest.raises(ValueError, match="nonempty"):
        invert_on_grid(semicircle_stieltjes, 0.1, [])
    with pytest.raises(ValueError, match="strictly increasing"):
        invert_on_grid(semicircle_stieltjes, 0.1, [1.0, 0.0])


def test_invert_on_grid_rejects_a_nan_transform():
    with pytest.raises(ValueError, match="density values must be finite"):
        invert_on_grid(lambda z: complex(0.0, math.nan), 0.1, [0.0, 1.0])


def test_invert_semicircle_center_value():
    d = invert_on_grid(semicircle_stieltjes, 1e-3, [0.0])
    assert d.values[0] == pytest.approx(1.0 / math.pi, abs=2e-3)
    assert d.bandwidth == 1e-3


def test_invert_atomic_transform_is_cauchy_kernel():
    """A point mass at 0 smears into exactly the Cauchy density of scale b."""
    delta = esd([0.0])
    b = 0.05
    grid = np.linspace(-1.0, 1.0, 41)
    d = invert_on_grid(lambda z: stieltjes_atomic(delta, z), b, grid)
    expect = b / (math.pi * (grid**2 + b**2))
    assert np.allclose(d.values, expect, atol=1e-12)


def test_invert_semicircle_recovers_unit_mass():
    grid = np.arange(-3.0, 3.0 + 1e-9, 1e-3)
    d = invert_on_grid(semicircle_stieltjes, 1e-2, grid)
    assert abs(d.mass - 1.0) <= 5e-3


def test_invert_semicircle_density_l1_error_small():
    """L1 gap between the smeared density and the true one at b = 0.01."""
    grid = np.arange(-3.0, 3.0 + 1e-9, 1e-3)
    d = invert_on_grid(semicircle_stieltjes, 1e-2, grid)
    law = SemicircleLaw()
    true_vals = np.array([law.density(a) for a in grid])
    l1 = float(np.trapezoid(np.abs(d.values - true_vals), grid))
    assert l1 <= 0.02


# ---------------------------------------------------------------------------
# the blocked atomic density
# ---------------------------------------------------------------------------

DENSITY_CASES = {
    "distinct": esd(np.random.default_rng(71).standard_normal(256)),
    "merged": StepDistribution([0.5, -1.25, 0.5, 2.0, -1.25, 0.5], [0.05, 0.1, 0.2, 0.15, 0.3, 0.2]),
    "single": esd([0.25]),  # the Cauchy kernel of scale b
}

BLOCK_ATOMS = 4096
BLOCK_ROWS = stieltjes._DENSITY_BLOCK_BYTES // (8 * BLOCK_ATOMS)


@pytest.mark.parametrize("case", sorted(DENSITY_CASES))
def test_atomic_density_matches_exact_poisson_sum(case):
    dist = DENSITY_CASES[case]
    grid = np.linspace(-3.0, 3.0, 41)
    for b in (0.05, 0.5):
        got = atomic_density(dist, b, grid).values
        exact = exact_poisson_density(dist.atoms, dist.weights, b, grid)
        assert np.all(np.abs(got - exact) <= 1e-15 * exact), (case, b)


@pytest.mark.parametrize("case", sorted(DENSITY_CASES))
def test_atomic_density_matches_pointwise_inversion(case):
    dist = DENSITY_CASES[case]
    grid = np.linspace(-3.0, 3.0, 121)
    got = atomic_density(dist, 0.05, grid)
    ref = invert_on_grid(lambda z: stieltjes_atomic(dist, z), 0.05, grid)
    assert np.array_equal(got.grid, ref.grid) and got.bandwidth == ref.bandwidth
    assert np.all(np.abs(got.values - ref.values) <= 1e-14 * ref.values)


@pytest.mark.parametrize("size", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_atomic_density_bytes_do_not_depend_on_threads_or_blocks(size, monkeypatch):
    dist = esd(np.random.default_rng(73).standard_normal(BLOCK_ATOMS))
    grid = np.linspace(-2.5, 2.5, size)
    ref = atomic_density(dist, 0.02, grid).values
    for threads in (1, 2, 3):
        assert atomic_density(dist, 0.02, grid, threads).values.tobytes() == ref.tobytes()
    for block in (1, 2, 5):
        monkeypatch.setattr(stieltjes, "_DENSITY_BLOCK_BYTES", block * 8 * BLOCK_ATOMS)
        for threads in (1, 3):
            assert atomic_density(dist, 0.02, grid, threads).values.tobytes() == ref.tobytes()


def test_atomic_density_peak_memory_is_one_block():
    """6,001 points x 16,384 atoms in one 2-d pass would take 786 MB."""
    dist = esd(np.linspace(-2.0, 2.0, 16384))
    grid = np.arange(-3.0, 3.0 + 5e-4, 1e-3)
    assert grid.size == 6001
    tracemalloc.start()
    try:
        atomic_density(dist, 0.02, grid, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_atomic_density_validation():
    delta = esd([0.0])
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        atomic_density(delta, 0.0, [0.0, 1.0])
    with pytest.raises(ValueError, match="nonempty"):
        atomic_density(delta, 0.1, [])
    with pytest.raises(ValueError, match="strictly increasing"):
        atomic_density(delta, 0.1, [1.0, 0.0])
    with pytest.raises(ValueError, match=f"exceeds {MASS_CAP}"):
        atomic_density(delta, 0.01, [-1.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# the recursion certificate
# ---------------------------------------------------------------------------


def test_pooled_esd_peak_memory_within_the_counted_copies():
    """The stack plus the pooled esd's build peak stay within the copies the
    memory preflight counts for stieltjes."""
    stack = np.random.default_rng(79).standard_normal((300, 512))
    tracemalloc.start()
    try:
        pooled = esd(stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pooled._cum[-1] == 1.0
    assert stack.nbytes + peak <= _KEPT_SPECTRA["stieltjes"] * stack.nbytes


def test_recursion_residual_zero_matrix():
    spec = EnsembleSpec(8, EntryLaw.constant_zero(), VarianceProfile.uniform(1.0))
    assert recursion_residual(spec, 1j, trials=2) == pytest.approx(0.5, abs=1e-12)


def test_recursion_residual_shrinks_for_unit_ensemble():
    small = recursion_residual(wigner_unit_spec(16, seed=67), 1j, trials=8)
    large = recursion_residual(wigner_unit_spec(1024, seed=67), 1j, trials=8)
    assert large < small
    assert large <= 0.05


def test_recursion_residual_validation():
    with pytest.raises(ValueError, match="at least one trial"):
        recursion_residual(wigner_unit_spec(8), 1j, trials=0)

