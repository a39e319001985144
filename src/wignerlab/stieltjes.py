"""Stieltjes transforms on the upper half plane.

Atomic and semicircle transforms, the branch-correct closed form for the
semicircle, grid inversion back to a density, resolvent traces and
quadratic forms, the Schur determinant identity, and the fixed-point
recursion residual that certifies convergence to the semicircle.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ensembles import EnsembleSpec, trial_eigenvalues
from .hermitian_core import (
    HermitianMatrix,
    eigen_decomposition,
    eigenvalues_desc,
    principal_minor,
)
from .spectral_measures import StepDistribution, esd, expected_esd

__all__ = [
    "UpperHalfPoint",
    "GridDensity",
    "sqrt_z2_minus_4",
    "stieltjes_atomic",
    "semicircle_stieltjes",
    "invert_on_grid",
    "resolvent_trace",
    "resolvent_quadratic_form",
    "resolvent_second_moment",
    "recursion_residual",
    "schur_det_check",
    "minor_comparison_gap",
]

SCHUR_SINGULAR_TOL = 1e-12
MASS_CAP = 1.05


@dataclass(frozen=True)
class UpperHalfPoint:
    """A point z = re + i*im with im > 0."""

    re: float
    im: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", float(self.re))
        object.__setattr__(self, "im", float(self.im))
        if not self.im > 0.0:
            raise ValueError("point must lie in the open upper half plane")

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)


def _as_z(z: "complex | UpperHalfPoint") -> complex:
    if isinstance(z, UpperHalfPoint):
        return z.z
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError("point must lie in the open upper half plane")
    return z


@dataclass(frozen=True)
class GridDensity:
    """Nonnegative density values on a sorted grid, tagged with the bandwidth.

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
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")
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


def sqrt_z2_minus_4(z: "complex | UpperHalfPoint") -> complex:
    """sqrt(z^2 - 4) on the branch sqrt(z-2)*sqrt(z+2).

    Both principal square roots have nonnegative imaginary part for z in the
    closed upper half plane, so the product is continuous there, including
    across Re z = +-2 on the real axis.
    """
    if isinstance(z, UpperHalfPoint):
        z = z.z
    z = complex(z)
    return cmath.sqrt(z - 2.0) * cmath.sqrt(z + 2.0)


def stieltjes_atomic(dist: StepDistribution, z: "complex | UpperHalfPoint") -> complex:
    """s_F(z) = sum_atoms w/(x - z); Im > 0 and |s| <= 1/Im z."""
    zz = _as_z(z)
    return complex(np.sum(dist.weights / (dist.atoms - zz)))


def semicircle_stieltjes(z: "complex | UpperHalfPoint") -> complex:
    """Transform of the semicircle: (-z + sqrt(z^2-4))/2 on the Herglotz branch.

    Satisfies s + 1/(z + s) = 0, i.e. s is the fixed point of the
    semicircle recursion with Im s > 0.
    """
    zz = _as_z(z)
    return (-zz + sqrt_z2_minus_4(zz)) / 2.0


def invert_on_grid(
    transform: Callable[[complex], complex],
    bandwidth: float,
    grid: Sequence[float],
) -> GridDensity:
    """Recover a density from a transform: a -> (1/pi) Im s(a + i*b).

    As the bandwidth b shrinks the result converges weakly to the measure
    behind the transform.
    """
    if not bandwidth > 0:
        raise ValueError("bandwidth must be positive")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing")
    vals = np.array(
        [complex(transform(complex(a, bandwidth))).imag / math.pi for a in grid]
    )
    return GridDensity(grid, vals, bandwidth)


def resolvent_trace(matrix: HermitianMatrix, z: "complex | UpperHalfPoint") -> complex:
    """(1/n) tr (W - z)^{-1} = (1/n) sum 1/(lambda_i - z), from eigenvalues."""
    zz = _as_z(z)
    lam = eigenvalues_desc(matrix)
    return complex(np.mean(1.0 / (lam - zz)))


def resolvent_quadratic_form(
    matrix: HermitianMatrix, vector: np.ndarray, z: "complex | UpperHalfPoint"
) -> complex:
    """u^* (W - z)^{-1} u via the eigenbasis; Im > 0 for any nonzero u."""
    zz = _as_z(z)
    dec = eigen_decomposition(matrix)
    u = np.asarray(vector).reshape(-1)
    if u.shape[0] != matrix.n:
        raise ValueError("vector length must match the matrix dimension")
    coeffs = dec.basis.conj().T @ u
    return complex(np.sum(np.abs(coeffs) ** 2 / (dec.eigenvalues - zz)))


def resolvent_second_moment(
    matrix: HermitianMatrix, z: "complex | UpperHalfPoint"
) -> float:
    """tr((W-z)(W-conj(z)))^{-1} = sum 1/|lambda-z|^2, at most n/(Im z)^2."""
    zz = _as_z(z)
    lam = eigenvalues_desc(matrix)
    return float(np.sum(1.0 / np.abs(lam - zz) ** 2))


def recursion_residual(
    spec: EnsembleSpec, z: "complex | UpperHalfPoint", trials: int
) -> float:
    """|s_n + 1/(z + s_n)| with s_n the transform of the trials' pooled ESD.

    The residual tends to 0 for unit-profile ensembles as n grows; it stays
    bounded away from 0 for degenerate ensembles (0.5 at z = i for the zero
    matrix), which makes it a usable convergence certificate.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    zz = _as_z(z)
    s_n = stieltjes_atomic(expected_esd(esd(lam) for lam in trial_eigenvalues(spec, trials)), zz)
    return abs(s_n + 1.0 / (zz + s_n))


def schur_det_check(matrix: np.ndarray, split: int) -> float:
    """Relative gap in det M = det(A) det(D - C A^{-1} B) at a block split.

    A is the leading split x split block.  Raises when A is numerically
    singular, since the complement is then undefined.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    n = m.shape[0]
    if not 1 <= split < n:
        raise ValueError("split must leave both diagonal blocks nonempty")
    a = m[:split, :split]
    b = m[:split, split:]
    c = m[split:, :split]
    d = m[split:, split:]
    det_a = complex(np.linalg.det(a))
    if abs(det_a) <= SCHUR_SINGULAR_TOL:
        raise ArithmeticError("schur split singular")
    comp = d - c @ np.linalg.solve(a, b)
    det_m = complex(np.linalg.det(m))
    det_split = det_a * complex(np.linalg.det(comp))
    return abs(det_m - det_split) / max(1.0, abs(det_m))


def minor_comparison_gap(
    matrix: HermitianMatrix, z: "complex | UpperHalfPoint"
) -> float:
    """Average over i of |w_i^* S_{W^(i)}(z) w_i - (1/n) tr S_{W^(i)}(z)|.

    W^(i) removes row and column i and w_i is column i without its diagonal
    entry.  For unit-profile ensembles the quadratic form concentrates on
    the normalized minor trace, so the gap shrinks with n.
    """
    zz = _as_z(z)
    n = matrix.n
    if n < 2:
        raise ValueError("need dimension at least 2 to remove a row")
    total = 0.0
    entries = matrix.entries
    for i in range(n):
        keep = [j for j in range(n) if j != i]
        sub = principal_minor(matrix, keep)
        w_i = entries[keep, i]
        quad = resolvent_quadratic_form(sub, w_i, zz)
        lam = eigenvalues_desc(sub)
        tr_scaled = complex(np.sum(1.0 / (lam - zz))) / n
        total += abs(quad - tr_scaled)
    return total / n
