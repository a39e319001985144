"""Stieltjes transforms on the upper half plane.

Atomic and semicircle transforms, the branch-correct closed form for the
semicircle, grid inversion back to a density, and the fixed-point
recursion residual that certifies convergence to the semicircle.

A closed-form transform is inverted point by point (``invert_on_grid``).
An atomic distribution's smoothed density is the Poisson-kernel sum
(b/pi) sum_i w_i / ((x_i - a)^2 + b^2), computed in real arithmetic over
blocks of grid rows fanned out to worker threads (``atomic_density``); each
grid value is its own row reduction, so its bytes depend neither on the
block size nor on the thread count.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ensembles import EnsembleSpec, trial_eigenvalues
from .spectral_measures import StepDistribution, esd
from .streams import parallel_map

__all__ = [
    "GridDensity",
    "sqrt_z2_minus_4",
    "stieltjes_atomic",
    "semicircle_stieltjes",
    "invert_on_grid",
    "atomic_density",
    "recursion_residual",
]

MASS_CAP = 1.05

# float64 scratch of one block of atomic_density: grid rows x atoms, at least one row
_DENSITY_BLOCK_BYTES = 1 << 20


def _as_z(z: complex) -> complex:
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError("point must lie in the open upper half plane")
    return z


@dataclass(frozen=True)
class GridDensity:
    """Finite nonnegative density values on a finite sorted grid, tagged with the bandwidth.

    The trapezoid mass may fall short of 1 (grid truncation) but must not
    exceed 1.05; the smoothing kernel never adds mass.
    """

    grid: np.ndarray
    values: np.ndarray
    bandwidth: float

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if grid.ndim != 1 or grid.size == 0 or grid.shape != values.shape:
            raise ValueError("grid and values must be matching 1-d arrays")
        if not np.all(np.isfinite(grid)):
            raise ValueError("grid must be finite")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        if not 0 < self.bandwidth < math.inf:
            raise ValueError("bandwidth must be positive and finite")
        m = float(np.trapezoid(values, grid)) if grid.size > 1 else 0.0
        if m > MASS_CAP:
            raise ValueError(f"trapezoid mass {m} exceeds {MASS_CAP}")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bandwidth", float(self.bandwidth))

    @property
    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.grid)) if self.grid.size > 1 else 0.0


def sqrt_z2_minus_4(z: complex) -> complex:
    """sqrt(z^2 - 4) on the branch sqrt(z-2)*sqrt(z+2).

    Both principal square roots have nonnegative imaginary part for z in the
    closed upper half plane, so the product is continuous there, including
    across Re z = +-2 on the real axis.
    """
    z = complex(z)
    return cmath.sqrt(z - 2.0) * cmath.sqrt(z + 2.0)


def stieltjes_atomic(dist: StepDistribution, z: complex) -> complex:
    """s_F(z) = sum_atoms w/(x - z); Im > 0 and |s| <= 1/Im z."""
    d = dist.atoms - _as_z(z)
    return complex(np.sum(np.divide(dist.weights, d, out=d)))


def semicircle_stieltjes(z: complex) -> complex:
    """Transform of the semicircle: (-z + sqrt(z^2-4))/2 on the Herglotz branch.

    Satisfies s + 1/(z + s) = 0, i.e. s is the fixed point of the
    semicircle recursion with Im s > 0.
    """
    zz = _as_z(z)
    return (-zz + sqrt_z2_minus_4(zz)) / 2.0


def _checked_grid(bandwidth: float, grid: Sequence[float]) -> np.ndarray:
    """The grid as a float64 array, after the checks both inversions need first."""
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    return grid


def invert_on_grid(
    transform: Callable[[complex], complex],
    bandwidth: float,
    grid: Sequence[float],
) -> GridDensity:
    """Recover a density from a transform: a -> (1/pi) Im s(a + i*b).

    As the bandwidth b shrinks the result converges weakly to the measure
    behind the transform.
    """
    grid = _checked_grid(bandwidth, grid)
    vals = np.array(
        [complex(transform(complex(a, bandwidth))).imag / math.pi for a in grid]
    )
    return GridDensity(grid, vals, bandwidth)


def atomic_density(
    dist: StepDistribution, bandwidth: float, grid: Sequence[float], threads: int = 1
) -> GridDensity:
    """(1/pi) Im s_F(a + i*b) = (b/pi) sum_i w_i / ((x_i - a)^2 + b^2) on the grid.

    The same density as ``invert_on_grid`` of ``stieltjes_atomic``, in real
    arithmetic: blocks of at most ``_DENSITY_BLOCK_BYTES`` of grid rows by
    atoms, mapped over ``threads`` workers.  Every value is one row's sum, so
    the result does not depend on the block size or on ``threads``.
    """
    grid = _checked_grid(bandwidth, grid)
    atoms, weights = dist.atoms, dist.weights
    b2 = bandwidth * bandwidth
    rows = max(1, _DENSITY_BLOCK_BYTES // (8 * atoms.size))

    def block(start: int) -> np.ndarray:
        d = np.subtract.outer(grid[start:start + rows], atoms)
        np.square(d, out=d)
        d += b2
        np.divide(weights, d, out=d)
        return np.sum(d, axis=1)

    sums = parallel_map(block, range(0, grid.size, rows), threads)
    return GridDensity(grid, np.concatenate(sums) * (bandwidth / math.pi), bandwidth)


def recursion_residual(
    spec: EnsembleSpec, z: complex, trials: int
) -> float:
    """|s_n + 1/(z + s_n)| with s_n the transform of the trials' pooled ESD.

    The residual tends to 0 for unit-profile ensembles as n grows; it stays
    bounded away from 0 for degenerate ensembles (0.5 at z = i for the zero
    matrix), which makes it a usable convergence certificate.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    zz = _as_z(z)
    s_n = stieltjes_atomic(esd(trial_eigenvalues(spec, trials)), zz)
    return abs(s_n + 1.0 / (zz + s_n))
