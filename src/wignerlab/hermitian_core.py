"""Dense Hermitian matrices and their spectra.

The substrate for everything downstream: validated construction, descending
eigenvalues (one matrix or a stack), Frobenius norm, numeric rank and
principal minors.  Instances are immutable and all operations are pure
functions of their arguments, so they are safe to share across threads.
``single_blas_thread`` runs a section with OpenBLAS on one thread, whose
eigenvalue bytes then do not depend on the process's BLAS thread count.

Trust boundary: ``HermitianMatrix(x)`` is the checked constructor for any
caller.  It copies ``x``, rejects asymmetry beyond ``SYMMETRY_TOL`` and
averages ``x`` with its conjugate transpose unless the mirror is already
exact.  Code inside this package that has just written a fresh array as an
exact conjugate mirror (``sample``, the reduction stages, ``principal_minor``,
``+`` and ``-``) wraps it with ``HermitianMatrix._trusted`` instead, which
skips the asymmetry pass, the averaging and the copy, but still rejects
non-finite entries, stores float64 or complex128, demotes complex storage
with no imaginary part to real, and makes the array read-only.  The block
sampler behind ``ensembles.trial_eigenvalues`` (``ensembles._sample_stack``)
produces a fresh (B, n, n) stack of upper triangles, B = 1 from ``SMALL_N``
up, and hands it straight to ``eigenvalues_desc_stacked``, which applies the
same checks to the whole stack through one shared helper and reads only the
upper triangles; no ``HermitianMatrix`` is built for any trial of the
eigenvalue path.

One solve rule serves the library: ``eigenvalues_desc`` is
``eigenvalues_desc_stacked`` on a fresh copy of its matrix as a stack of
one.  A stack of more than one matrix is one ``eigvalsh`` call, which
solves a copy of each matrix with ``dsyevd`` or ``zheevd``.  A lone matrix
is handed to a LAPACK routine found through ``ctypes`` in the OpenBLAS
bundled with numpy, and is overwritten in place, so its solve holds one
matrix, not two.  The routine follows the dtype and n: ``dsyevd`` for a real
matrix and ``zheevd`` for a complex one below ``SMALL_N``, the routines
``eigvalsh`` calls, with its bytes; ``zheevd_2stage`` for a complex matrix
from ``SMALL_N`` up, whose reduction to tridiagonal form passes through a
band matrix and runs mostly as level-3 BLAS.  Without the routines, every
matrix goes to ``eigvalsh``.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "HermitianMatrix",
    "eigenvalues_desc",
    "eigenvalues_desc_stacked",
    "blas_runtime_threads",
    "single_blas_thread",
    "frobenius_norm",
    "numeric_rank",
    "principal_minor",
]

# max-norm asymmetry beyond which input is rejected instead of symmetrized
SYMMETRY_TOL = 1e-12
# ensembles.trial_eigenvalues solves blocks of ceil(SMALL_N / n) trials, so
# from this size up a block is one lone matrix; from here up, too, a complex
# matrix solves through zheevd_2stage
SMALL_N = 512


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _checked_fresh(a: np.ndarray) -> np.ndarray:
    """``_trusted``'s checks on a fresh matrix or stack of them.

    Rejects non-finite entries, stores float64 or complex128, and demotes
    complex storage with no imaginary part anywhere in ``a`` to real.
    """
    a = np.asarray(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if np.iscomplexobj(a) and not a.imag.any():
        a = a.real.copy()
    return a


@dataclass(frozen=True)
class HermitianMatrix:
    """Square matrix with entries[i, j] == conj(entries[j, i]) exactly.

    Construction accepts any finite square array whose asymmetry max|A - A*|
    is at most ``SYMMETRY_TOL`` and symmetrizes it by averaging with its
    conjugate transpose; anything more asymmetric is an error, not a silent
    repair.  Real input stays real (float64), complex input with vanishing
    imaginary part is demoted to real storage so the eigensolver can take
    the symmetric path.

    In-package producers that build an exact mirror use ``_trusted``; see
    the module docstring for what it still checks.
    """

    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        a = np.asarray(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("entries must be a square matrix")
        if a.shape[0] == 0:
            raise ValueError("matrix must be nonempty")
        if not np.issubdtype(a.dtype, np.number):
            raise ValueError("entries must be numeric")
        a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=True)
        # a non-finite entry meets itself or its mirror here: inf - inf is NaN
        with np.errstate(invalid="ignore"):
            asym = np.max(np.abs(a - a.conj().T))
        if not asym <= SYMMETRY_TOL:
            if np.isnan(asym):
                raise ValueError("matrix entries must be finite")
            raise ValueError(f"matrix is not Hermitian: asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
        # an exact mirror needs no average; halving first keeps finite entries finite
        h = a if asym == 0.0 else a / 2.0 + a.conj().T / 2.0
        if np.iscomplexobj(h):
            if not h.imag.any():
                h = h.real.copy()
            else:
                # exact realness on the diagonal after averaging
                h[np.diag_indices_from(h)] = h.diagonal().real
        object.__setattr__(self, "entries", _readonly(h))

    @classmethod
    def _trusted(cls, a: np.ndarray) -> "HermitianMatrix":
        """Wrap ``a``, a fresh square array that is an exact conjugate mirror.

        For in-package producers only: ``a[i, j] == conj(a[j, i])`` must hold
        exactly, with a real diagonal, and no one else may hold ``a``, which
        becomes read-only in place.  Only finiteness is checked.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "entries", _readonly(_checked_fresh(a)))
        return self

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.entries)

    def _same_n(self, other: "HermitianMatrix") -> "HermitianMatrix":
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} and {other.n}")
        return other

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return HermitianMatrix._trusted(self.entries + self._same_n(other).entries)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return HermitianMatrix._trusted(self.entries - self._same_n(other).entries)


def eigenvalues_desc(a: HermitianMatrix) -> np.ndarray:
    """All eigenvalues of ``a``, repeated by multiplicity, descending.

    The row of ``eigenvalues_desc_stacked`` on a fresh copy of ``a.entries``
    as a stack of one, so ``a`` solves on the route, and with the routine,
    of a trial of its size and dtype.  Without the routines that route is
    ``eigvalsh``, which copies the matrix itself, so ``a.entries`` goes to
    it directly, with the same bytes.
    """
    if _lapack_evd() is None:
        return _readonly(np.linalg.eigvalsh(a.entries)[::-1].copy())
    return eigenvalues_desc_stacked(a.entries[None].copy())[0]


def eigenvalues_desc_stacked(stack: np.ndarray) -> np.ndarray:
    """Rows of descending eigenvalues of the matrices whose upper triangles fill a fresh (B, n, n) stack.

    For in-package producers only, as ``HermitianMatrix._trusted``: no one
    else may hold the stack, and it gets ``_trusted``'s checks (finite
    entries, real storage when no entry has an imaginary part).  Nothing
    below the diagonals is read.  ``eigvalsh`` of a full matrix has LAPACK
    (``?syevd`` or ``?heevd``, uplo 'L') read the lower triangle of a
    Fortran-order copy, the conjugate transpose of the upper triangle.  So a
    complex stack is conjugated once (into a copy unless it is writable and
    C-order), and both routes hand LAPACK each matrix's transpose.  A stack
    of more than one matrix is one ``eigvalsh`` call on the swapped axes:
    LAPACK solves one matrix at a time on numpy's copy, with the routine and
    workspace of a single call, and numpy releases the GIL for the whole
    stack once B times n reaches 512.  A lone matrix of a writable C-order
    stack goes straight to the routine ``_eigvalsh_in_place`` picks from its
    dtype and n, which reads it as Fortran and overwrites it; without the
    routines it is an ``eigvalsh`` call too.  Below ``SMALL_N``, and for a
    real matrix at every n, each spectrum has the bytes of ``eigvalsh`` on
    the full matrix; a complex lone matrix from ``SMALL_N`` up solves through
    ``zheevd_2stage``, whose bytes differ from ``zheevd``'s by rounding.
    """
    stack = _checked_fresh(stack)
    if np.iscomplexobj(stack):
        stack = np.conjugate(stack, out=stack if stack.flags.carray else None)
    if len(stack) == 1 and stack.flags.carray and _lapack_evd() is not None:
        ascending = _eigvalsh_in_place(stack[0])[None]
    else:
        ascending = np.linalg.eigvalsh(stack.swapaxes(-1, -2))
    return _readonly(ascending[:, ::-1].copy())


def _eigvalsh_in_place(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``a.T`` from a LAPACK routine run on ``a``'s own buffer.

    ``a`` is a fresh C-order (n, n) array, which the routine (jobz 'N', uplo
    'L') reads as Fortran, that is as ``a.T``, and overwrites.  The routine
    is numpy's ``dsyevd`` for a real ``a`` and, below ``SMALL_N``, its
    ``zheevd`` for a complex one, giving the bytes of
    ``np.linalg.eigvalsh(a.T)``; a complex ``a`` from ``SMALL_N`` up goes to
    ``zheevd_2stage``, which takes ``zheevd``'s arguments.  The workspaces
    come from the routine's own size query and belong to this call;
    ``ctypes`` releases the GIL while the routine runs.
    """
    is_complex = np.iscomplexobj(a)
    n = a.shape[0]
    routine = _lapack_evd()[(2 if n >= SMALL_N else 1) if is_complex else 0]
    w = np.empty(n)

    def call(*workspaces: tuple[np.ndarray, int]) -> None:
        """The routine with a (buffer, length) each for work, rwork (complex only) and iwork."""
        info = ctypes.c_int64()
        sized = (x for buf, length in workspaces for x in (buf.ctypes.data, _int_ref(length)))
        routine(b"N", b"L", _int_ref(n), a.ctypes.data, _int_ref(n), w.ctypes.data, *sized, ctypes.pointer(info))
        if info.value:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

    query = [np.zeros(1, dtype) for dtype in ((a.dtype, np.float64, np.int64) if is_complex else (a.dtype, np.int64))]
    call(*((q, -1) for q in query))
    lengths = [int(q[0].real) for q in query]
    call(*((np.empty(length, q.dtype), length) for q, length in zip(query, lengths)))
    return w


def _int_ref(value: int):
    """A pointer to a fresh 64-bit LAPACK integer holding ``value``."""
    return ctypes.pointer(ctypes.c_int64(value))


def _bundled(name: str) -> str:
    """``name`` as the OpenBLAS bundled with numpy's wheels exports it (64-bit integers)."""
    return f"scipy_{name}64_"


@functools.cache
def _numpy_openblas() -> ctypes.CDLL | None:
    """Numpy's core extension as a ``ctypes`` library, through which the OpenBLAS
    it links resolves; None if it cannot be opened."""
    try:
        return ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None


@functools.cache
def _openblas_thread_calls():
    """(get, set) for the thread count of the OpenBLAS numpy loaded, or None.

    Looked up once, on first use, among the symbols numpy's core extension
    reaches: the OpenBLAS bundled with numpy's wheels exports them with a
    ``scipy_`` prefix and a ``64_`` suffix, a system OpenBLAS without.
    """
    lib = _numpy_openblas()
    if lib is None:
        return None
    for stem in (_bundled("openblas_{}_num_threads"), "openblas_{}_num_threads"):
        get, put = (getattr(lib, stem.format(verb), None) for verb in ("get", "set"))
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


_INT_P = ctypes.POINTER(ctypes.c_int64)
# (jobz, uplo, n, a, lda, w), then per workspace (buffer, length), then info
_EVD_HEAD = [ctypes.c_char_p, ctypes.c_char_p, _INT_P, ctypes.c_void_p, _INT_P, ctypes.c_void_p]


@functools.cache
def _lapack_evd():
    """(dsyevd, zheevd, zheevd_2stage) of the OpenBLAS bundled with numpy, or None.

    The first two are the routines numpy's ``eigvalsh`` calls; the third
    takes ``zheevd``'s arguments.  They are found by the name rule of
    ``_openblas_thread_calls`` on the same library, all three or none, so
    that without one of them every matrix solves through ``eigvalsh``; a
    system OpenBLAS, whose integer width is unknown, gives None.
    """
    lib = _numpy_openblas()  # None resolves no name
    names = ("dsyevd_", "zheevd_", "zheevd_2stage_")
    routines = tuple(getattr(lib, _bundled(name), None) for name in names)
    if None in routines:
        return None
    for routine, workspaces in zip(routines, (2, 3, 3)):
        routine.argtypes = _EVD_HEAD + [ctypes.c_void_p, _INT_P] * workspaces + [_INT_P]
        routine.restype = None
    return routines


class _SingleThreadSection:
    """Reference count of the callers inside ``single_blas_thread``.

    The first to enter saves OpenBLAS's thread count and sets 1; the last to
    leave restores the saved count.
    """

    lock = threading.Lock()
    inside = 0
    saved: int | None = None


def blas_runtime_threads() -> int | None:
    """OpenBLAS's thread count outside ``single_blas_thread``; None if it cannot be read."""
    calls = _openblas_thread_calls()
    if calls is None:
        return None
    with _SingleThreadSection.lock:
        return _SingleThreadSection.saved if _SingleThreadSection.inside else calls[0]()


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore its count.

    The count is process-global, so concurrent sections share one saved
    count and the last to leave restores it, also on an exception.  Without
    the OpenBLAS symbols the BLAS is left alone.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    section = _SingleThreadSection
    with section.lock:
        if not section.inside:
            section.saved = get()
            put(1)
        section.inside += 1
    try:
        yield
    finally:
        with section.lock:
            section.inside -= 1
            if not section.inside:
                put(section.saved)


def frobenius_norm(a: HermitianMatrix) -> float:
    """sqrt(sum_ij |a_ij|^2)."""
    return float(np.linalg.norm(a.entries))


def numeric_rank(a: HermitianMatrix, tol: float | None = None) -> int:
    """Number of eigenvalues exceeding ``tol`` in modulus.

    Default tolerance is 1e-9 * n * max|entry|, zero for the zero matrix.
    """
    if tol is None:
        tol = 1e-9 * a.n * float(np.max(np.abs(a.entries)))
    return int(np.count_nonzero(np.abs(eigenvalues_desc(a)) > tol))


def principal_minor(a: HermitianMatrix, keep: Iterable[int] | Sequence[int]) -> HermitianMatrix:
    """Submatrix on the 0-based index subset ``keep`` (rows and columns alike)."""
    idx = np.unique(np.asarray(sorted(set(int(i) for i in keep)), dtype=np.intp))
    if idx.size == 0:
        raise ValueError("empty minor")
    if idx[0] < 0 or idx[-1] >= a.n:
        raise ValueError("minor indices out of range")
    return HermitianMatrix._trusted(a.entries[np.ix_(idx, idx)])
