"""The reduction pipeline: truncate, centralize, rescale, replace.

Each stage transforms a Hermitian matrix toward the normalized form the
semicircle theorem is proved for (bounded entries, zero conditional mean,
row variance sums below a bound C, unit off-diagonal variances), and each
records the exact Frobenius cost (1/n)||before - after||_F^2 so the
distance to the original spectrum stays accountable.

The rescale and replacement stages read an n x n variance matrix, such as
``truncated_profile``'s, and check it square, symmetric, finite and
nonnegative (``_checked_variances``).  The
truncation and rescaling costs have one rule, ``_reduction_costs``,
which reads them off the sampled entries without building the truncated
or rescaled matrix: ``pipeline`` takes its trace from it, and the
``reduce`` command calls it on each sample alone.  ``truncate`` shares
its mask and removed-mass sum (``_truncation``).  Non-finite values can
only enter through the sample, which ``HermitianMatrix._trusted`` checks,
or through a coefficient table, which the cost rule's one finiteness
pass over the rescaling difference rejects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hermitian_core import HermitianMatrix
from .ensembles import EnsembleSpec, EntryLaw, _level_terms, condition_sums

__all__ = [
    "ReductionTrace",
    "ReplacePlan",
    "truncate",
    "centralize",
    "rescale_to_row_bound",
    "unit_variance_replace",
    "unit_variance_plan",
    "truncated_profile",
    "pipeline",
    "auto_eta",
]

# the truncation levels auto_eta tries, in increasing order
ETA_GRID = (0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0)
# rows per band of the symmetry check of variance matrices: each band meets a
# contiguous copy of the matching columns (n x 32 float64s).  On a 2-vCPU VM,
# comparing the matrix with its strided transpose whole took 4.2 ms at
# n = 1024, 92 ms at 2048 and 0.9 s at 4096; in bands 0.5, 2.7 and 11 ms
_SYMMETRY_BAND = 32


@dataclass(frozen=True)
class ReductionTrace:
    """Accounting for a pipeline run.

    frobenius_delta_sq_per_stage holds (1/n)||before - after||_F^2 per
    applied stage, in order (truncate, centralize, rescale).
    """

    eta: float
    truncated_count: int
    centering_norm_sq: float
    rescale_coeffs: np.ndarray | None = field(default=None, repr=False)
    frobenius_delta_sq_per_stage: tuple[float, ...] = ()


def _truncation(a: np.ndarray, eta: float) -> tuple[np.ndarray, int, float]:
    """The mask |a| > eta of the entries truncation removes, their count, and
    the sum of their squared moduli."""
    if not 0 < eta < math.inf:
        raise ValueError("truncation level eta must be positive and finite")
    mask = np.abs(a) > eta
    return mask, int(mask.sum()), float(np.sum(np.abs(a[mask]) ** 2))


def _reduction_costs(a: np.ndarray, eta: float, coeffs: np.ndarray) -> tuple[int, float, float]:
    """(truncated count, delta_truncate, delta_rescale) of ``pipeline`` on the entries ``a``.

    The rescaling cost (1/n)||W1 - c W1||^2 of the truncated matrix W1 is
    taken as a - c a with the truncated entries set to +0, the value and
    summation order of W1 - c W1 (there 0 - c 0), so neither W1 nor c W1 is
    built: the pass holds one n x n difference array, squared in place when
    real, and the mask.  The difference is checked finite before the mask
    zeroes anything, so a non-finite coefficient is rejected wherever it is.
    """
    n = a.shape[0]
    mask, removed, removed_sq = _truncation(a, eta)
    diff = coeffs * a
    np.subtract(a, diff, out=diff)
    if not np.isfinite(diff).all():
        raise ValueError("matrix entries must be finite")
    diff[mask] = 0.0
    sq = np.abs(diff, out=None if np.iscomplexobj(diff) else diff)
    return removed, removed_sq / n, float(np.sum(np.square(sq, out=sq))) / n


def truncate(w: HermitianMatrix, eta: float) -> tuple[HermitianMatrix, ReductionTrace]:
    """Zero every entry with modulus above eta.

    ||W - W'||_F^2 is exactly the sum of squared moduli of removed entries,
    by the mask and sum that ``pipeline``'s cost rule takes too; Hermitian
    symmetry survives because |w_ij| = |w_ji|.
    """
    a = w.entries
    mask, removed, removed_sq = _truncation(a, eta)
    trace = ReductionTrace(eta, removed, 0.0, None, (removed_sq / w.n,))
    return HermitianMatrix._trusted(np.where(mask, 0.0, a)), trace


def centralize(w: HermitianMatrix, conditional_means) -> HermitianMatrix:
    """Subtract the matrix of conditional means E[w_ij; |w_ij| <= eta].

    The means must themselves form a Hermitian matrix, otherwise the result
    would not be.
    """
    if not isinstance(conditional_means, HermitianMatrix):
        try:
            conditional_means = HermitianMatrix(conditional_means)
        except ValueError as e:
            raise ValueError(f"conditional means must be Hermitian: {e}") from e
    if conditional_means.n != w.n:
        raise ValueError("conditional means dimension mismatch")
    return HermitianMatrix._trusted(w.entries - conditional_means.entries)


def _checked_variances(values) -> np.ndarray:
    """``values`` as a float64 square, symmetric matrix of finite nonnegative variances:
    the check every stage that reads a variance matrix makes."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("variance matrix must be square")
    if not ((m >= 0) & (m < math.inf)).all():
        raise ValueError("variance matrix must be nonnegative and finite")
    if not _is_symmetric(m):
        raise ValueError("variance matrix must be symmetric")
    return m


def _is_symmetric(m: np.ndarray) -> bool:
    """``np.array_equal(m, m.T)`` for a finite square ``m``, one band of rows at a time.

    Rows a..b-1 right of column a meet the transpose of a copy of columns
    a..b-1 below row a; together the bands cover every entry above the
    diagonal and its mirror.
    """
    band = _SYMMETRY_BAND
    return all((m[a : a + band, a:] == m[a:, a : a + band].copy().T).all() for a in range(0, len(m), band))


def rescale_to_row_bound(variances: np.ndarray, C: float) -> np.ndarray:
    """Symmetric coefficients c in [0, 1] with sum_j c_ij^2 sigma^2_ij <= C per row of ``variances``.

    Greedy row sweep: row k keeps the coefficients already fixed by earlier
    rows and lowers its free coefficients (j >= k) by one uniform multiplier
    until the row sum is exactly C, then mirrors.  When the fixed part alone
    already exceeds C (possible when variance concentrates in late columns)
    the whole row is lowered uniformly instead, which only shrinks earlier
    rows' sums.  Either way the total variance removed obeys
    sum_ij (1 - c_ij^2) sigma^2_ij <= 2 sum_i (sum_j sigma^2_ij - C)_+.
    """
    if not 0 < C < math.inf:
        raise ValueError("row bound C must be positive and finite")
    sig = _checked_variances(variances)
    c = np.ones_like(sig)
    for k in range(len(c)):
        weighted = c[k] ** 2 * sig[k]
        total = float(weighted.sum())
        if total <= C:
            continue
        fixed = float(weighted[:k].sum())
        if fixed <= C:
            free = total - fixed
            mult = math.sqrt((C - fixed) / free)
            c[k, k:] *= mult
        else:
            c[k, :] *= math.sqrt(C / total)
        c[:, k] = c[k, :]
    return c


@dataclass(frozen=True)
class ReplacePlan:
    """Which entries unit_variance_replace rewrites and how.

    replace_mask marks off-diagonal entries with sigma^2 <= 1/(2n), to be
    replaced by fresh Rademacher +-1/sqrt(n); scale multiplies the rest;
    zero-variance diagonal entries stay 0 and are only counted.
    """

    replace_mask: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)
    zero_diagonal_count: int


def unit_variance_plan(variances: np.ndarray) -> ReplacePlan:
    """The ``ReplacePlan`` of the n x n matrix ``variances`` of sigma^2_ij."""
    sig = _checked_variances(variances)
    n = sig.shape[0]
    off = ~np.eye(n, dtype=bool)
    replace = off & (sig <= 1.0 / (2.0 * n))
    scale = np.zeros_like(sig)
    pos = sig > 0
    scale[pos] = 1.0 / np.sqrt(n * sig[pos])
    zero_diag = int(np.count_nonzero(np.diag(sig) == 0.0))
    replace.setflags(write=False)
    scale.setflags(write=False)
    return ReplacePlan(replace, scale, zero_diag)


def unit_variance_replace(
    w: HermitianMatrix,
    variances: np.ndarray,
    rng: np.random.Generator,
) -> HermitianMatrix:
    """Force every off-diagonal entry variance to exactly 1/n at the law level.

    Off-diagonal entries whose variance in ``variances`` is at most 1/(2n) are
    replaced by fresh symmetric signs +-1/sqrt(n); every other entry with
    positive variance is multiplied by 1/sqrt(n sigma^2).  Zero-variance
    diagonal entries stay 0.  The expected squared change on the replaced
    set E is at most (3/(2n)) |E| since Var(w) + 1/n <= 3/(2n) there.
    """
    n = w.n
    plan = unit_variance_plan(variances)
    if plan.scale.shape != (n, n):
        raise ValueError("variance matrix dimension does not match the matrix")
    out = w.entries * plan.scale
    iu, ju = np.where(np.triu(plan.replace_mask, 1))
    if iu.size:
        vals = EntryLaw.rademacher().standard_sample(rng, iu.size) / math.sqrt(n)
        out[iu, ju] = vals
        out[ju, iu] = vals  # real, so the conjugate mirror is the value itself
    return HermitianMatrix._trusted(out)


def truncated_profile(spec: EnsembleSpec, eta: float) -> np.ndarray:
    """The n x n variances of the truncated (and centralized) entries.

    Var[w 1(|w| <= eta)] = sigma^2 E[X^2; |X| <= eta/sigma] for symmetric
    laws; finite even when the raw variance is infinite.  One gather of the
    entry law's term per profile level, with a separate diagonal law's term
    for level 0 on the diagonal, as ``_entry_row_sums`` swaps it into the
    row sums.
    """
    if not 0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    off, diag = _level_terms(spec, lambda law, v: v * law.m2_below(eta / math.sqrt(v)))
    r = np.arange(spec.n)
    m = off[spec.profile._level_of(r[:, None], r[None, :])]
    if diag is not None:
        np.fill_diagonal(m, diag[0])
    return m


def pipeline(
    w: HermitianMatrix,
    spec: EnsembleSpec,
    eta: float,
    C: float,
) -> tuple[HermitianMatrix, ReductionTrace]:
    """Truncate at eta, centralize, then rescale rows to the bound C.

    Every entry law is symmetric, so the conditional means E[w; |w| <= eta]
    vanish: the centralize stage changes nothing, and its Frobenius cost and
    ``centering_norm_sq`` are exact zeros.  Rescaling uses the truncated
    variances, since those are the variances the row bound applies to
    after the first two stages: the coefficients are
    ``rescale_to_row_bound(truncated_profile(spec, eta), C)``.

    The trace comes from ``_reduction_costs``, the rule the ``reduce``
    command runs on its samples.  The returned matrix is c * w with the
    truncated entries zeroed, built without the truncated matrix and
    checked by ``HermitianMatrix._trusted``.
    """
    if w.n != spec.n:
        raise ValueError("matrix dimension does not match spec")
    a = w.entries
    coeffs = rescale_to_row_bound(truncated_profile(spec, eta), C)
    removed, delta_truncate, delta_rescale = _reduction_costs(a, eta, coeffs)
    out = coeffs * a
    out[np.abs(a) > eta] = 0.0
    trace = ReductionTrace(eta, removed, 0.0, coeffs, (delta_truncate, 0.0, delta_rescale))
    return HermitianMatrix._trusted(out), trace


def auto_eta(spec: EnsembleSpec) -> float:
    """Truncation level max(n^(-1/4), smallest ``ETA_GRID`` eps with normalized Lindeberg <= eps).

    The normalized Lindeberg sum is (1/n) sum_ij E[|w|^2; |w| > eps]; when no
    grid point satisfies the bound the largest one is used.
    """
    rep = condition_sums(spec, C=1.0, epsilons=ETA_GRID)
    chosen = ETA_GRID[-1]
    for eps, val in rep.lindeberg_normalized:
        if val <= eps:
            chosen = eps
            break
    return max(spec.n ** -0.25, chosen)
