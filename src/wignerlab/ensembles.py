"""Configurable Hermitian random-matrix ensembles.

An ensemble is an entry law plus a variance profile.  Entry laws are mean
zero and symmetric by construction; finite-variance kinds are standardized
to unit variance so the profile entry sigma^2_ij is the exact entry
variance.  Infinite-variance kinds (pareto_symmetric with alpha <= 2) treat
the profile value as a squared scale instead.

Closed-form truncated moments for every kind drive the hypothesis checkers:
the row-variance / row-bound / Lindeberg sums behind the semicircle theorem
and the three row conditions behind the gaussian-convergence theorem.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .hermitian_core import (
    SMALL_N,
    HermitianMatrix,
    blas_runtime_threads,
    eigenvalues_desc_stacked,
    single_blas_thread,
)
from .streams import DOMAIN_SAMPLE, KeyedStreams, derive_rng, parallel_map, stream_keys

__all__ = [
    "EntryLaw",
    "VarianceProfile",
    "EnsembleSpec",
    "diagonal_law_for",
    "GaussConditions",
    "ConditionReport",
    "sample",
    "sample_trial",
    "trial_eigenvalues",
    "condition_sums",
    "gaussian_row_check",
    "wigner_unit_spec",
    "heavy_tail_spec",
]

_SQRT3 = math.sqrt(3.0)
_LOG2_FLOAT_MAX = math.log2(np.finfo(np.float64).max)

LAW_KINDS = (
    "rademacher_scaled",
    "gaussian_real",
    "gaussian_complex",
    "uniform_bounded",
    "pareto_symmetric",
    "constant_zero",
)
# bytes of a row per band of the lower-triangle mirror in sample: 64 real or
# 32 complex columns, the fastest band widths measured at n = 1024, 2048, 4096
_MIRROR_BAND_BYTES = 512
# strictly lower triangle of the widest band's diagonal block (64 float64 columns)
_BELOW_DIAGONAL = np.tri(_MIRROR_BAND_BYTES // 8, k=-1, dtype=bool)
# elements per ufunc buffer inside the mirror, two buffers per call: at most 2 kB,
# where numpy's default of 8,192 allocates 128 kB (real) or 256 kB (complex) for
# every conjugate it cannot run as one flat loop
_MIRROR_BUFFER = 64
# rows per band of the symmetry check of variance matrices: each band meets a
# contiguous copy of the matching columns (n x 32 float64s).  On a 2-vCPU VM,
# comparing the matrix with its strided transpose whole took 4.2 ms at
# n = 1024, 92 ms at 2048 and 0.9 s at 4096; in bands 0.5, 2.7 and 11 ms
_SYMMETRY_BAND = 32


def _phi(t: float) -> float:
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class EntryLaw:
    """Distribution of a single (pre-profile) matrix entry.

    The standard draw has unit variance for finite-variance kinds; for
    pareto_symmetric with alpha <= 2 it is sign * T with T Pareto(alpha,
    scale), and the profile supplies the squared scale multiplier.
    """

    kind: str
    alpha: float = 0.0
    scale: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in LAW_KINDS:
            raise ValueError(f"unknown entry law kind: {self.kind!r}")
        if self.kind == "pareto_symmetric":
            if not (0 < self.alpha < math.inf and 0 < self.scale < math.inf):
                raise ValueError("pareto_symmetric requires alpha > 0 and scale > 0, both finite")
            # rng.random() steps by 2^-53, so a draw reaches scale * 2^(53/alpha)
            if math.log2(self.scale) + 53.0 / self.alpha >= _LOG2_FLOAT_MAX:
                raise ValueError(f"pareto_symmetric(alpha={self.alpha}, scale={self.scale}) "
                                 "draws overflow float64: scale * 2^(53/alpha) is too large")

    # -- constructors ------------------------------------------------------
    @classmethod
    def rademacher(cls) -> "EntryLaw":
        return cls("rademacher_scaled")

    @classmethod
    def gaussian_real(cls) -> "EntryLaw":
        return cls("gaussian_real")

    @classmethod
    def gaussian_complex(cls) -> "EntryLaw":
        return cls("gaussian_complex")

    @classmethod
    def uniform_bounded(cls) -> "EntryLaw":
        return cls("uniform_bounded")

    @classmethod
    def pareto_symmetric(cls, alpha: float, scale: float) -> "EntryLaw":
        return cls("pareto_symmetric", alpha=alpha, scale=scale)

    @classmethod
    def constant_zero(cls) -> "EntryLaw":
        return cls("constant_zero")

    # -- structure ---------------------------------------------------------
    @property
    def is_complex(self) -> bool:
        return self.kind == "gaussian_complex"

    @property
    def has_finite_variance(self) -> bool:
        if self.kind == "pareto_symmetric":
            return self.alpha > 2.0
        return True

    @property
    def standard_variance(self) -> float:
        """Variance of the standard draw: 1, 0 for constant_zero, inf for heavy tails."""
        if self.kind == "constant_zero":
            return 0.0
        return 1.0 if self.has_finite_variance else math.inf

    @property
    def abs_bound(self) -> float:
        """sup |X| of the standard draw, inf when unbounded."""
        if self.kind == "rademacher_scaled":
            return 1.0
        if self.kind == "uniform_bounded":
            return _SQRT3
        if self.kind == "constant_zero":
            return 0.0
        return math.inf

    def _pareto_norm(self) -> float:
        # unit-variance normalizer for alpha > 2: Var(T) scaled out
        return self.scale * math.sqrt(self.alpha / (self.alpha - 2.0))

    def _pareto_m2_below(self, u: float) -> float:
        """E[T^2; T <= u] for T Pareto(alpha, scale)."""
        a, s = self.alpha, self.scale
        if u <= s:
            return 0.0
        if a == 2.0:
            return 2.0 * s * s * math.log(u / s)
        return a * s**a * (u ** (2.0 - a) - s ** (2.0 - a)) / (2.0 - a)

    # -- closed-form moments -----------------------------------------------
    def m2_below(self, t: float) -> float:
        """E[|X|^2; |X| <= t] for the standard draw; finite for every kind."""
        if t < 0:
            raise ValueError("threshold must be nonnegative")
        k = self.kind
        if k == "constant_zero":
            return 0.0
        if k == "rademacher_scaled":
            return 1.0 if t >= 1.0 else 0.0
        if k == "gaussian_real":
            return 1.0 - (2.0 * t * _phi(t) + math.erfc(t / math.sqrt(2.0)))
        if k == "gaussian_complex":
            # |X|^2 ~ Exp(1)
            return 1.0 - (t * t + 1.0) * math.exp(-t * t)
        if k == "uniform_bounded":
            if t >= _SQRT3:
                return 1.0
            return t**3 / (3.0 * _SQRT3)
        # pareto
        if self.has_finite_variance:
            c = self._pareto_norm()
            return self._pareto_m2_below(c * t) / (c * c)
        return self._pareto_m2_below(t)

    def m2_tail(self, t: float) -> float:
        """E[|X|^2; |X| > t]; inf for infinite-variance kinds."""
        v = self.standard_variance
        if math.isinf(v):
            return math.inf
        return max(v - self.m2_below(t), 0.0)

    def tail_prob(self, t: float) -> float:
        """P(|X| > t) for the standard draw."""
        if t < 0:
            raise ValueError("threshold must be nonnegative")
        k = self.kind
        if k == "constant_zero":
            return 0.0
        if k == "rademacher_scaled":
            return 1.0 if t < 1.0 else 0.0
        if k == "gaussian_real":
            return math.erfc(t / math.sqrt(2.0))
        if k == "gaussian_complex":
            return math.exp(-t * t)
        if k == "uniform_bounded":
            return max(0.0, 1.0 - t / _SQRT3)
        u = (self._pareto_norm() if self.has_finite_variance else 1.0) * t
        if u < self.scale:
            return 1.0
        return (self.scale / u) ** self.alpha

    def has_moments_to(self, k: int) -> bool:
        if self.kind == "pareto_symmetric":
            return self.alpha > k
        return True

    def moment(self, m: int) -> float:
        """E[X^m] for real kinds (odd moments vanish by symmetry)."""
        if m < 0:
            raise ValueError("moment order must be nonnegative")
        if m == 0:
            return 1.0
        if self.is_complex:
            raise ValueError("use pair_moment for complex laws")
        if m % 2 == 1:
            return 0.0
        k = self.kind
        if k == "constant_zero":
            return 0.0
        if k == "rademacher_scaled":
            return 1.0
        if k == "gaussian_real":
            return float(math.prod(range(m - 1, 0, -2)))  # (m-1)!!
        if k == "uniform_bounded":
            return 3 ** (m // 2) / (m + 1)  # sqrt(3)^m / (m + 1), one rounding
        if not self.has_moments_to(m):
            raise ValueError(f"pareto_symmetric(alpha={self.alpha}) lacks moments of order {m}")
        raw = self.alpha * self.scale**m / (self.alpha - m)  # E[T^m]
        if self.has_finite_variance:
            return raw / self._pareto_norm() ** m
        return raw

    def pair_moment(self, fwd: int, bwd: int) -> float:
        """E[X^fwd * conj(X)^bwd]; for real kinds this is moment(fwd + bwd)."""
        if not self.is_complex:
            return self.moment(fwd + bwd)
        # standard complex gaussian, E|X|^2 = 1: nonzero only on balanced powers
        return float(math.factorial(fwd)) if fwd == bwd else 0.0

    # -- sampling ------------------------------------------------------------
    def _fill(self, rng: np.random.Generator, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """``count`` base draws, in ``out[:count]``: one generator call, two for Pareto.

        A Pareto fill draws all its uniforms, then all its signs; constant_zero
        writes zeros and draws nothing.  Normals and Pareto uniforms are drawn
        straight into ``out``.  ``Generator.integers`` and ``Generator.uniform``
        take no ``out``, so rademacher signs, Pareto signs and uniform draws
        pass through one temporary of ``count`` 8-byte values.
        """
        dest = np.empty(count) if out is None else out[:count]
        if self.kind == "constant_zero":
            dest[...] = 0.0
        elif self.kind == "rademacher_scaled":
            np.multiply(rng.integers(0, 2, count), 2.0, out=dest)
            dest -= 1.0
        elif self.kind == "uniform_bounded":
            dest[...] = rng.uniform(-_SQRT3, _SQRT3, count)
        elif self.kind == "pareto_symmetric":
            rng.random(count, out=dest)
            np.subtract(1.0, dest, out=dest)
            dest **= -1.0 / self.alpha
            dest *= self.scale
            sign = rng.integers(0, 2, count)
            sign <<= 1
            sign -= 1  # +-1 in place; the product below casts it chunk by chunk
            np.multiply(dest, sign, out=dest)
            if self.has_finite_variance:
                dest /= self._pareto_norm()
        else:
            rng.standard_normal(count, out=dest)
        return dest

    def _entries(self, base: np.ndarray) -> np.ndarray:
        """Standard draws from base draws; a complex block is all real parts, then all imaginary parts."""
        if not self.is_complex:
            return base
        m = base.shape[-1] // 2
        return (base[..., :m] + 1j * base[..., m:]) / math.sqrt(2.0)

    def standard_sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._entries(self._fill(rng, 2 * size if self.is_complex else size))


def _checked_variances(values) -> np.ndarray:
    """``values`` as a float64 square, symmetric matrix of finite nonnegative variances:
    the check of explicit profiles and of the reduction stages' variance matrices."""
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


@dataclass(frozen=True)
class VarianceProfile:
    """Symmetric nonnegative matrix of per-entry variances (or squared scales).

    Kinds: uniform (one value), banded (inside/outside a |i-j| <= width
    band), explicit (full matrix, validated symmetric).

    Every view is derived from one structure: a short table of ``levels``
    plus two per-kind rules, the level of entry (i, j) and each row's level
    counts.  Uniform and banded profiles answer both rules in O(n); only
    explicit profiles pay O(n^2).
    """

    kind: str
    v: float = 0.0
    width: int = 0
    inside: float = 0.0
    outside: float = 0.0
    values: np.ndarray | None = field(default=None, repr=False)
    # the level table, and for explicit profiles each entry's index into it
    levels: np.ndarray = field(init=False, repr=False, compare=False)
    _index: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "banded", "explicit"):
            raise ValueError(f"unknown profile kind: {self.kind!r}")
        if self.kind == "uniform":
            if not 0 <= self.v < math.inf:
                raise ValueError("uniform variance must be nonnegative and finite")
            levels = np.array([self.v])
        elif self.kind == "banded":
            if self.width < 0 or not all(0 <= v < math.inf for v in (self.inside, self.outside)):
                raise ValueError("banded profile values must be nonnegative and finite")
            levels = np.array([self.inside, self.outside])
        else:
            m = _checked_variances(self.values).copy()
            m.setflags(write=False)
            object.__setattr__(self, "values", m)
            levels, index = np.unique(m, return_inverse=True)
            object.__setattr__(self, "_index", index.reshape(m.shape))
        levels.setflags(write=False)
        object.__setattr__(self, "levels", levels)

    @classmethod
    def uniform(cls, v: float) -> "VarianceProfile":
        return cls("uniform", v=float(v))

    @classmethod
    def banded(cls, width: int, inside: float, outside: float = 0.0) -> "VarianceProfile":
        return cls("banded", width=int(width), inside=float(inside), outside=float(outside))

    @classmethod
    def explicit(cls, values: np.ndarray) -> "VarianceProfile":
        return cls("explicit", values=values)

    def check_dimension(self, n: int) -> None:
        if self.kind == "explicit" and self.values.shape[0] != n:
            raise ValueError("explicit profile dimension does not match n")

    # -- the two per-kind rules ----------------------------------------------
    def _level_of(self, i, j) -> np.ndarray:
        """Index into ``levels`` of entry (i, j); i and j broadcast."""
        if self.kind == "uniform":
            return np.zeros(np.broadcast(i, j).shape, dtype=np.intp)
        if self.kind == "banded":
            return (np.abs(i - j) > self.width).astype(np.intp)
        return self._index[i, j]

    def _row_counts(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, counts), both (n, K): row i has counts[i, k] entries at level ids[i, k]."""
        if self.kind == "uniform":
            return np.zeros((n, 1), dtype=np.intp), np.full((n, 1), n)
        if self.kind == "banded":
            i = np.arange(n)
            inside = np.minimum(i, self.width) + np.minimum(n - 1 - i, self.width) + 1
            return np.broadcast_to(np.arange(2), (n, 2)), np.column_stack([inside, n - inside])
        r = np.arange(n)
        return self._level_of(r[:, None], r[None, :]), np.ones((n, n), dtype=np.int64)

    # -- derived views -------------------------------------------------------
    def matrix(self, n: int) -> np.ndarray:
        self.check_dimension(n)
        r = np.arange(n)
        return self.levels[self._level_of(r[:, None], r[None, :])]

    def _row_tails(self, values: np.ndarray, n: int):
        """i -> ``values[level of (i, j)]`` for j = i..n-1, one entry of ``values`` per level.

        Uniform and banded levels depend only on j - i, so every row's tail
        is a prefix view of one table; explicit profiles gather row i.
        """
        self.check_dimension(n)
        if self.kind == "explicit":
            return lambda i: values[self._index[i, i:]]
        by_offset = values[self._level_of(0, np.arange(n))]
        return lambda i: by_offset[: n - i]


def diagonal_law_for(law: EntryLaw, diagonal_law: EntryLaw | None = None) -> EntryLaw:
    """Law of the diagonal entries: ``diagonal_law`` if given, else ``law``."""
    if diagonal_law is not None:
        return diagonal_law
    # Hermitian diagonals are real; complex laws fall back to the real gaussian
    return EntryLaw.gaussian_real() if law.is_complex else law


@dataclass(frozen=True)
class EnsembleSpec:
    """Everything needed to reproduce an ensemble draw: n, law, profile, seed."""

    n: int
    law: EntryLaw
    profile: VarianceProfile
    diagonal_law: EntryLaw | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        self.profile.check_dimension(self.n)
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in uint64")
        if self.diagonal_law is not None and self.diagonal_law.is_complex:
            raise ValueError("diagonal law must be real-valued")

    @property
    def effective_diagonal_law(self) -> EntryLaw:
        return diagonal_law_for(self.law, self.diagonal_law)


def sample(spec: EnsembleSpec, rng: np.random.Generator) -> HermitianMatrix:
    """One matrix draw; upper triangle independent, lower mirrored by conjugation.

    Stream layout 3 (``streams.STREAM_LAYOUT``) packs the upper triangle row
    by row, i = 0..n-1: row i's n-i-1 entries j > i in column order, a
    complex row taking all real parts of that tail, then all imaginary parts.
    Under the default diagonal law, ``diagonal_law_for(law)``, each row's
    diagonal draw leads its row inside the packed fill.  Any other diagonal
    law is drawn first, as one fill of n values (none for constant_zero), and
    the packed strict upper triangle follows as a fill of its own.  A given
    generator state therefore always yields the same matrix.

    Philox fills of one kind compose, so a gaussian, rademacher or uniform
    fill gives the bytes of per-row draws; a pareto_symmetric fill draws all
    uniforms, then all signs (``EntryLaw._fill``).  Normals and Pareto
    uniforms are drawn into the matrix's own buffer; rademacher, uniform and
    Pareto sign fills pass through one temporary of n(n+1)/2 values (8 bytes
    each).

    The matrix is a stack of one from ``_sample_stack``, the sampler that
    ``trial_eigenvalues`` runs on each block of trials: the packed rows move
    to their places bottom-up, one slice write each, and the diagonal goes
    in after them.  ``_mirror_lower`` then fills the lower triangle, which
    only a ``HermitianMatrix`` needs, over the fill's leftovers.
    """
    return HermitianMatrix._trusted(_sample_stack(spec, (rng,), mirror=True)[0])


def _sample_stack(spec: EnsembleSpec, rngs: Sequence[np.random.Generator], mirror: bool = False) -> np.ndarray:
    """A fresh (len(rngs), n, n) stack of upper triangles, slot s drawn from ``rngs[s]``.

    Each slot's draws are ``sample``'s: its fills come from its own
    generator, packed at the front of the slot's buffer (its float view when
    complex), with a non-default diagonal law's fill in a row of its own.
    The generators are taken in slot order, each drawn from before the next
    is taken, so ``rngs`` may be a ``streams.KeyedStreams``.
    All the rest runs once for the stack.  The rows are placed bottom-up,
    one slice write per row across every slot: row i's packed draws start
    no later than the spot where its upper part lands, and a row writes
    only right of its own diagonal, so no row that is still packed is
    overwritten.  Leading diagonal draws are gathered before the rows
    overwrite them, and the diagonal goes in after the rows.  Last, the
    fill's leftovers below the diagonal are zeroed, so the stack's checks
    (finite entries, any imaginary part) see the matrices alone; no solve
    reads that triangle.  With ``mirror``, for ``sample``'s stack of one,
    ``_mirror_lower`` writes the slot's conjugate mirror over them instead.
    Entries are not checked here: the caller wraps a mirrored slot with
    ``HermitianMatrix._trusted`` or hands the stack to
    ``eigenvalues_desc_stacked``.
    """
    n, law, dlaw, prof, count = spec.n, spec.law, spec.effective_diagonal_law, spec.profile, len(rngs)
    w = np.zeros((count, n, n), dtype=np.complex128 if law.is_complex else np.float64)
    width = 2 if law.is_complex else 1  # base draws per off-diagonal entry
    lead = int(dlaw == diagonal_law_for(law))  # 1 if each row's diagonal draw leads it
    base = w.reshape(count, -1).view(np.float64)
    diag = None if lead else np.empty((count, n))
    fill = lead * n + width * (n * (n - 1) // 2)  # base draws per slot
    for s, rng in enumerate(rngs):
        if not lead:
            dlaw._fill(rng, n, diag[s])
        law._fill(rng, fill, base[s])
    r = np.arange(n)
    starts = lead * r + width * (r * (2 * n - r - 1) // 2)  # row i's first packed draw
    if lead:
        diag = base[:, starts]  # a copy: the rows placed below overwrite the fill
    sd = np.sqrt(prof.levels)
    sd_rows = prof._row_tails(sd, n)
    for i in range(n - 2, -1, -1):
        start = starts[i] + lead
        draws = base[:, start : start + width * (n - i - 1)]
        np.multiply(law._entries(draws), sd_rows(i)[1:], out=w[:, i, i + 1 :])
    w.reshape(count, -1)[:, :: n + 1] = diag * sd[prof._level_of(r, r)]
    if mirror:
        (matrix,) = w  # sample's stack of one
        _mirror_lower(matrix)
    else:
        for i in range(1, -(-fill // (width * n))):  # the rows the fill reached
            w[:, i, :i] = 0
    return w


def _mirror_lower(w: np.ndarray) -> np.ndarray:
    """Write the conjugate of the (n, n) matrix ``w``'s upper triangle over its lower one; return ``w``.

    Band [a, b) of ``_MIRROR_BAND_BYTES`` worth of columns takes rows b..
    from the conjugate transpose of rows a..b-1 right of column b; numpy
    proves the two regions disjoint and writes in place.  A real band is a
    plain copy; a complex band's conjugate runs through ufunc buffers of
    ``_MIRROR_BUFFER`` elements.  The band's own diagonal block then takes
    its lower part from a conjugate-transposed copy of the block, at most
    32 kB (a real band's).
    """
    n, band, conjugate = len(w), _MIRROR_BAND_BYTES // w.itemsize, np.iscomplexobj(w)
    with np.errstate():
        np.setbufsize(_MIRROR_BUFFER)
        for a in range(0, n, band):
            b = min(a + band, n)
            if conjugate:
                np.conjugate(w[a:b, b:].T, out=w[b:, a:b])
            else:
                np.copyto(w[b:, a:b], w[a:b, b:].T)
            block = w[a:b, a:b]
            upper = block.T.copy()  # a copy, then a flat conjugate: no ufunc buffer
            if conjugate:
                np.conjugate(upper, out=upper)
            np.copyto(block, upper, where=_BELOW_DIAGONAL[: b - a, : b - a])
            del upper  # before the next band's copy
    return w


def sample_trial(spec: EnsembleSpec, trial: int) -> HermitianMatrix:
    """Trial r of the ensemble; independent of how trials are scheduled."""
    if trial < 0:
        raise ValueError("trial index must be nonnegative")
    return sample(spec, derive_rng(spec.seed, DOMAIN_SAMPLE, trial))


def trial_block(n: int) -> int:
    """Trials per block of ``trial_eigenvalues`` at size n: ceil(SMALL_N / n), one from ``SMALL_N`` up."""
    return -(-SMALL_N // n)


def solve_workers(n: int, threads: int) -> int:
    """Workers of ``trial_eigenvalues``' fan-out at size n, each holding one block at a time.

    A block of more than one trial solves on one BLAS thread, so `threads`
    blocks run at once.  A block of one solves on the process's b OpenBLAS
    threads, so only max(1, threads // b) run at once: more would share the
    cores b times over, each holding its matrix.  When b cannot be read,
    `threads` blocks run.
    """
    blas = blas_runtime_threads() if trial_block(n) == 1 else None
    return threads if blas is None else max(1, threads // blas)


def trial_eigenvalues(spec: EnsembleSpec, trials: int, threads: int = 1) -> np.ndarray:
    """Descending eigenvalues of trials 0..trials-1, fanned out over up to `threads` workers.

    Row t of the read-only (trials, n) float64 result is trial t's spectrum.
    The trials run in fixed blocks of ceil(SMALL_N / n) consecutive indices,
    one trial per block from ``SMALL_N`` up; each block's worker writes its
    rows.  A block is sampled straight into one (B, n, n) stack by
    ``_sample_stack``: trial t draws from its own stream, that of
    ``derive_rng(spec.seed, DOMAIN_SAMPLE, t)``, into its own slot, and the
    placement (one slice write per row across every slot) and checks run
    once for the block; the stack holds upper triangles, the triangle LAPACK
    reads, so no trial is mirrored.  The keys come from one ``stream_keys``
    pass per call, replayed by each block through one reused generator
    (``KeyedStreams``), so no trial builds a ``SeedSequence``.  The stack is
    then solved with the GIL released (``eigenvalues_desc_stacked``): a block of
    more than one trial by one ``eigvalsh`` call on copies of its matrices, a
    block of one by LAPACK's routine on the sample itself, which it
    overwrites (``zheevd_2stage`` for a complex trial).  Each row has the
    bytes of ``eigenvalues_desc(sample_trial(spec, t))``, which solves on the
    same route, under the same BLAS threads.
    Block boundaries depend only on n and the trial index, so the result
    does not depend on `threads`.  A block of more than one trial (n below
    ``SMALL_N``) solves with OpenBLAS on one thread (``single_blas_thread``),
    so its result does not depend on the BLAS thread count either; a block
    of one leaves the BLAS threading alone, and ``solve_workers`` runs only
    as many of them at once as the BLAS threads leave cores for.
    """
    block = trial_block(spec.n)
    keys = stream_keys(spec.seed, DOMAIN_SAMPLE, 0, trials)
    out = np.empty((trials, spec.n))

    def solve(first: int) -> None:
        rows = slice(first, first + block)
        out[rows] = eigenvalues_desc_stacked(_sample_stack(spec, KeyedStreams(keys[rows])))

    with single_blas_thread() if block > 1 else contextlib.nullcontext():
        parallel_map(solve, range(0, trials, block), solve_workers(spec.n, threads))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GaussConditions:
    """Worst-row sums for the three triangular-array conditions.

    tail_prob_sums: per epsilon, max_i sum_j P(|w_ij| > eps)   (condition i)
    truncated_mean_sum: max_i |sum_j E[w_ij; |w_ij| <= 1]|      (condition ii)
    truncated_variance_sum: the row sum_j Var[w_ij 1(|w_ij|<=1)] farthest
    from 1                                                      (condition iii)
    """

    tail_prob_sums: tuple[tuple[float, float], ...]
    truncated_mean_sum: float
    truncated_variance_sum: float


@dataclass(frozen=True)
class ConditionReport:
    """Raw hypothesis sums for the semicircle theorem (no 1/n normalization).

    The theorem's conditions ask each raw sum, divided by n, to vanish as n
    grows; the *_normalized properties expose that scaling.
    """

    n: int
    C: float
    var_row_sum_stat: float
    row_excess_stat: float
    lindeberg: tuple[tuple[float, float], ...]
    finite_variance: bool = True

    @property
    def var_row_sum_normalized(self) -> float:
        return self.var_row_sum_stat / self.n

    @property
    def row_excess_normalized(self) -> float:
        return self.row_excess_stat / self.n

    @property
    def lindeberg_normalized(self) -> tuple[tuple[float, float], ...]:
        return tuple((eps, val / self.n) for eps, val in self.lindeberg)


def _level_terms(spec: EnsembleSpec, term) -> tuple[np.ndarray, np.ndarray | None]:
    """Per profile level v: term(law, v), and term(diagonal law, v) or None when the two laws are one.

    ``term`` is called once per level and law, and never on a zero level,
    whose entries contribute 0.
    """
    law, dlaw = spec.law, spec.effective_diagonal_law

    def terms(entry_law: EntryLaw) -> np.ndarray:
        return np.array([term(entry_law, float(v)) if v > 0 else 0.0 for v in spec.profile.levels])

    return terms(law), None if dlaw == law else terms(dlaw)


def _entry_row_sums(spec: EnsembleSpec, term) -> np.ndarray:
    """Per row i, sum_j term(law of w_ij, sigma^2_ij): level counts times level terms, O(n)
    for uniform and banded profiles, then the diagonal law's term swapped in on the diagonal."""
    off, diag = _level_terms(spec, term)
    ids, counts = spec.profile._row_counts(spec.n)
    rows = (counts * off[ids]).sum(axis=1)
    if diag is not None:
        r = np.arange(spec.n)
        level = spec.profile._level_of(r, r)
        rows += diag[level] - off[level]
    return rows


def condition_sums(
    spec: EnsembleSpec,
    C: float,
    epsilons: Sequence[float],
) -> ConditionReport:
    """Exact hypothesis sums from closed-form law moments.

    var_row_sum_stat = sum_i |sum_j (Var w_ij - 1/n)|
    row_excess_stat  = sum_i (sum_j Var w_ij - C)_+
    lindeberg(eps)   = sum_ij E[|w_ij|^2; |w_ij| > eps]

    Each is a sum over the rows of ``_entry_row_sums``; a Lindeberg total is
    the correctly rounded sum (``math.fsum``) of its row sums.  Diagonal
    entries follow the diagonal law.  An infinite-variance law on
    or off the diagonal makes all three inf (flagged via finite_variance);
    the truncated statistics live in gaussian_row_check.
    """
    if not 0 < C < math.inf:
        raise ValueError("row bound C must be positive and finite")
    eps_list = [float(e) for e in epsilons]
    if not all(0 < e < math.inf for e in eps_list):
        raise ValueError("epsilons must be positive and finite")
    n = spec.n
    if not (spec.law.has_finite_variance and spec.effective_diagonal_law.has_finite_variance):
        lind = tuple((e, math.inf) for e in eps_list)
        return ConditionReport(n, C, math.inf, math.inf, lind, False)

    rows = _entry_row_sums(spec, lambda law, v: v * law.standard_variance)
    var_row = float(np.sum(np.abs(rows - 1.0)))
    excess = float(np.sum(np.clip(rows - C, 0.0, None)))
    lind = tuple(
        (eps, math.fsum(_entry_row_sums(spec, lambda law, v: v * law.m2_tail(eps / math.sqrt(v)))))
        for eps in eps_list
    )
    return ConditionReport(n, C, var_row, excess, lind, True)


def gaussian_row_check(spec: EnsembleSpec, epsilons: Sequence[float]) -> GaussConditions:
    """Worst-row triangular-array conditions at truncation level 1.

    Every entry law is symmetric, so condition (ii) is exactly 0.  The
    worst row is taken per condition: the largest tail-probability sum for
    (i), and the truncated-variance sum farthest from 1 for (iii).
    Diagonal entries follow the diagonal law.
    """
    eps_list = [float(e) for e in epsilons]
    if not all(0 < e < math.inf for e in eps_list):
        raise ValueError("epsilons must be positive and finite")
    tail_sums = []
    for eps in eps_list:
        per_row = _entry_row_sums(spec, lambda law, v: law.tail_prob(eps / math.sqrt(v)))
        tail_sums.append((eps, float(per_row.max())))
    trunc_var = _entry_row_sums(spec, lambda law, v: v * law.m2_below(1.0 / math.sqrt(v)))
    worst = float(trunc_var[np.argmax(np.abs(trunc_var - 1.0))])
    return GaussConditions(tuple(tail_sums), 0.0, worst)


def wigner_unit_spec(n: int, law: EntryLaw | None = None, seed: int = 0) -> EnsembleSpec:
    """Unit Wigner ensemble: chosen law at uniform variance 1/n."""
    return EnsembleSpec(n, law or EntryLaw.gaussian_real(), VarianceProfile.uniform(1.0 / n), seed=seed)


def _heavy_tail_squared_scale(n: int) -> float:
    # root of n * x * ln(1/x) = 1 on (0, 1/e); left side increases in x there
    lo, hi = 1e-300, 1.0 / math.e
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if n * mid * math.log(1.0 / mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def heavy_tail_spec(n: int, seed: int = 0) -> EnsembleSpec:
    """Infinite-variance ensemble that still obeys the semicircle law.

    Entries are sign * T * scale with T Pareto(2, 1), so the per-entry
    variance is infinite.  The squared scale x_n solves n x ln(1/x) = 1,
    which makes the truncated-variance row sum sum_j Var[w 1(|w|<=1)]
    exactly 1 and the tail-probability row sum at eps=1 equal to n x_n
    (vanishing as 1/ln n).
    """
    if n < 8:
        raise ValueError("heavy_tail_spec needs n >= 8")
    x = _heavy_tail_squared_scale(n)
    return EnsembleSpec(
        n,
        EntryLaw.pareto_symmetric(2.0, 1.0),
        VarianceProfile.uniform(x),
        seed=seed,
    )
