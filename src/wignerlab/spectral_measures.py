"""Spectral distribution functions and metrics between them.

Empirical spectral distributions are step CDFs; the semicircle law is the
reference limit, with closed-form CDF

    F(x) = 1/2 + x sqrt(4 - x^2) / (4 pi) + arcsin(x/2) / pi   on [-2, 2].

When one argument is a step CDF, Kolmogorov distances are exact and Levy
distances exact up to the rounding of x +- eps, both read off its atoms;
ramp test functions give exact weak-convergence integrals on both sides.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "StepDistribution",
    "SemicircleLaw",
    "RampFunction",
    "esd",
    "expected_esd",
    "levy_distance",
    "kolmogorov_distance",
    "semicircle_moment",
]

# weights must sum to 1 within this slack
WEIGHT_TOL = 1e-12


def _check_finite(atoms: np.ndarray) -> None:
    """Reject non-finite atoms; ``np.unique``'s sorted output puts -inf first and inf, then NaN, last."""
    if not (np.isfinite(atoms[0]) and np.isfinite(atoms[-1])):
        raise ValueError("atoms must be finite")


@dataclass(frozen=True)
class StepDistribution:
    """Purely atomic probability distribution with sorted distinct atoms."""

    atoms: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.atoms, dtype=np.float64).ravel()
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        if a.size == 0:
            raise ValueError("distribution needs at least one atom")
        if a.size != w.size:
            raise ValueError("atoms and weights must have equal length")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        # merge exactly equal positions, summing their weights in input order
        a, inverse = np.unique(a, return_inverse=True)
        _check_finite(a)
        w = np.bincount(inverse, weights=w)
        if abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError("weights must sum to 1")
        # the float sum may stray past 1 by the tolerance; the CDF may not
        cum = np.minimum(np.concatenate([[0.0], np.cumsum(w)]), 1.0)
        cum[-1] = 1.0
        _freeze(self, a, w, cum)

    def cdf(self, x):
        """Right-continuous CDF, vectorized."""
        return self._cdf(x, "right")

    def cdf_left(self, x):
        """Left limit F(x-) = P(X < x), vectorized."""
        return self._cdf(x, "left")

    def _cdf(self, x, side: str):
        idx = np.searchsorted(self.atoms, np.asarray(x, dtype=np.float64), side=side)
        out = self._cum[idx]
        return float(out) if np.isscalar(x) else out

    def mean_of(self, f) -> float:
        """integral of f against the distribution; exact for atomic measures."""
        return float(np.sum(self.weights * np.asarray(f(self.atoms), dtype=np.float64)))


@dataclass(frozen=True)
class SemicircleLaw:
    """Standard semicircle distribution on [-2, 2], density sqrt(4-x^2)/(2 pi)."""

    def density(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2.0 * np.pi)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        xm = np.clip(x, -2.0, 2.0)
        out = 0.5 + xm * np.sqrt(4.0 - xm * xm) / (4.0 * np.pi) + np.arcsin(xm / 2.0) / np.pi
        out = np.clip(out, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    # continuous, so the left limit is the CDF itself
    cdf_left = cdf

    def partial_first_moment(self, a: float, b: float) -> float:
        """integral of x over [a, b] against the law, exact antiderivative."""
        def anti(x: float) -> float:
            x = min(max(x, -2.0), 2.0)
            return -((4.0 - x * x) ** 1.5) / (6.0 * np.pi)
        return anti(b) - anti(a)


def semicircle_moment(k: int) -> int:
    """Exact k-th semicircle moment: 0 for odd k, Catalan(k/2) for even k."""
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    if k % 2 == 1:
        return 0
    m = k // 2
    return math.comb(2 * m, m) // (m + 1)


def _freeze(dist: StepDistribution, atoms, weights, cum) -> StepDistribution:
    """Set ``dist``'s sorted distinct atoms, their weights and its CDF, read-only."""
    for name, val in (("atoms", atoms), ("weights", weights), ("_cum", cum)):
        val.setflags(write=False)
        object.__setattr__(dist, name, val)
    return dist


def esd(eigenvalues: Sequence[float] | np.ndarray) -> StepDistribution:
    """Empirical spectral distribution: weight c/N at a value taken c times among the N given.

    ``eigenvalues`` is one spectrum or a stack of them of any shape; a
    (trials, n) stack gives the trials' pooled ESD, the estimate of E mu_n.
    One sort gives the distinct values and their integer counts; the CDF at
    atom i is (counts up to i) / N, so each entry is correctly rounded and
    the last is exactly 1.
    """
    atoms, counts = np.unique(np.asarray(eigenvalues, dtype=np.float64), return_counts=True)
    if atoms.size == 0:
        raise ValueError("esd needs at least one eigenvalue")
    _check_finite(atoms)
    cum = np.concatenate(([0.0], np.cumsum(counts, dtype=np.float64)))  # exact below 2**53
    total = cum[-1]
    cum /= total
    return _freeze(object.__new__(StepDistribution), atoms, counts / total, cum)


def expected_esd(samples: Iterable[StepDistribution]) -> StepDistribution:
    """Equal-weight mixture of step distributions (CDF = average of CDFs)."""
    samples = list(samples)
    if not samples:
        raise ValueError("expected_esd needs at least one sample")
    atoms = np.concatenate([s.atoms for s in samples])
    weights = np.concatenate([s.weights for s in samples]) / len(samples)
    return StepDistribution(atoms, weights)


def _step_first(f, g):
    """Order the pair so the first CDF is a step CDF; both metrics are symmetric."""
    if isinstance(f, StepDistribution):
        return f, g
    if isinstance(g, StepDistribution):
        return g, f
    raise TypeError("one of the two distributions must be a StepDistribution")


def kolmogorov_distance(f, g) -> float:
    """sup_x |F(x) - G(x)|, the max over the step argument's atoms and left limits."""
    f, g = _step_first(f, g)
    x = f.atoms
    return float(np.max(np.abs([f.cdf(x) - g.cdf(x), f.cdf_left(x) - g.cdf_left(x)])))


def levy_distance(f, g) -> float:
    """Levy metric: inf of eps with F(x-eps)-eps <= G(x) <= F(x+eps)+eps for all x.

    With F the step argument, eps is feasible iff at every atom x_i
    F(x_i) <= G(x_i+eps)+eps and F(x_i-) >= G((x_i-eps)-)-eps: between atoms
    F is constant and G monotone, so no other point can bind.  The result is
    the smallest double that passes this test, exact up to the rounding of
    x_i +- eps.  Nonnegative doubles are ordered as their bit patterns, so a
    bisection over the patterns of [0, 1] ends on two adjacent doubles; eps = 1
    always passes, and pattern -1 stands below 0.0 and is never tested.
    """
    f, g = _step_first(f, g)
    x = f.atoms
    upper, lower = f.cdf(x), f.cdf_left(x)

    def feasible(bits: int) -> bool:
        eps = float(np.int64(bits).view(np.float64))
        return max(np.max(upper - g.cdf(x + eps)), np.max(g.cdf_left(x - eps) - lower)) <= eps

    lo, hi = -1, int(np.float64(1.0).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


@dataclass(frozen=True)
class RampFunction:
    """Continuous ramp: 1 on (-inf, p], 0 on [q, inf), linear in between.

    Total variation is exactly 1, which makes ramps the test functions for
    both the weak-convergence criterion and the bounded-variation rank bound.
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        if not (self.p < self.q):
            raise ValueError("ramp requires p < q")

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        # one result buffer and no temporaries: x may be a whole stack of spectra
        out = np.subtract(self.q, x, out=np.empty_like(x))
        out /= self.q - self.p
        np.clip(out, 0.0, 1.0, out=out)
        return float(out) if out.ndim == 0 else out

    def integrate_step(self, dist: StepDistribution) -> float:
        return dist.mean_of(self.value)

    def integrate_semicircle(self, law: SemicircleLaw | None = None) -> float:
        """Exact integral against the semicircle via the first-moment antiderivative."""
        law = law or SemicircleLaw()
        fp, fq = law.cdf(self.p), law.cdf(self.q)
        m1 = law.partial_first_moment(self.p, self.q)
        return float(fp + (self.q * (fq - fp) - m1) / (self.q - self.p))
