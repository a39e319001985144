"""Hermitian substrate: construction, spectra, norms, minors."""
import ctypes
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import charpoly_eigenvalues, random_hermitian
from wignerlab.ensembles import EnsembleSpec, EntryLaw, VarianceProfile, sample_trial
from wignerlab import hermitian_core
from wignerlab.hermitian_core import (
    HermitianMatrix,
    eigenvalues_desc,
    eigenvalues_desc_stacked,
    frobenius_norm,
    numeric_rank,
    principal_minor,
)
from wignerlab.reductions import centralize, pipeline, truncate, unit_variance_replace


# -- construction -------------------------------------------------------------

def test_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        HermitianMatrix(np.zeros((2, 3)))


def test_rejects_empty():
    with pytest.raises(ValueError):
        HermitianMatrix(np.zeros((0, 0)))


def test_rejects_asymmetric_beyond_tolerance():
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "a",
    (
        np.array([[0.0, np.nan], [np.nan, 0.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[0.0, np.inf], [np.inf, 0.0]]),
        np.array([[0.0, complex(np.inf, 1.0)], [complex(np.inf, -1.0), 0.0]]),
    ),
    ids=("nan", "inf_diagonal", "inf_symmetric_pair", "complex_inf"),
)
def test_rejects_non_finite_entries(a):
    with pytest.raises(ValueError, match="must be finite"):
        HermitianMatrix(a)


def test_symmetrizes_tiny_asymmetry():
    a = np.array([[1.0, 0.5 + 1e-13], [0.5, 2.0]])
    m = HermitianMatrix(a)
    assert np.array_equal(m.entries, m.entries.T)


def test_diagonal_made_exactly_real():
    a = np.array([[1.0 + 1e-14j, 2.0 - 1.0j], [2.0 + 1.0j, 3.0]])
    m = HermitianMatrix(a)
    assert np.all(m.entries.diagonal().imag == 0.0)
    assert np.array_equal(m.entries, m.entries.conj().T)


def test_real_valued_complex_input_demoted_to_real():
    m = HermitianMatrix(np.eye(2, dtype=np.complex128))
    assert not m.is_complex


def test_huge_finite_entries_stay_finite():
    """An exact mirror is stored as given; no averaging overflows it."""
    m = HermitianMatrix(np.array([[1e308, 0.0], [0.0, 1.0]]))
    assert m.entries[0, 0] == 1e308
    # a tiny asymmetry is still averaged, and halving first keeps the average finite
    near = HermitianMatrix(np.array([[1.7e308, 0.5 + 1e-13], [0.5, 1.0]]))
    assert near.entries[0, 0] == 1.7e308
    assert near.entries[0, 1] == near.entries[1, 0]


def test_sum_and_difference_reject_mismatched_dimensions():
    big, one = HermitianMatrix(np.eye(3)), HermitianMatrix(np.array([[2.0]]))
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ValueError, match="dimension mismatch"):
            op(big, one)
        with pytest.raises(ValueError, match="dimension mismatch"):
            op(one, big)


def test_one_by_one_is_legal():
    m = HermitianMatrix(np.array([[4.0]]))
    assert m.n == 1
    assert eigenvalues_desc(m)[0] == 4.0


def test_entries_immutable():
    m = HermitianMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


# -- eigenvalues_desc ---------------------------------------------------------

def test_eigenvalues_diagonal_matrix():
    m = HermitianMatrix(np.diag([1.0, 3.0, 2.0]))
    assert np.allclose(eigenvalues_desc(m), [3.0, 2.0, 1.0], atol=1e-14)


def test_eigenvalues_two_by_two_swap():
    m = HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(eigenvalues_desc(m), [1.0, -1.0], atol=1e-14)


def test_eigenvalues_match_charpoly_oracle_5x5(rng):
    for complex_entries in (False, True):
        a = random_hermitian(rng, 5, complex_entries)
        got = eigenvalues_desc(HermitianMatrix(a))
        want = charpoly_eigenvalues(a)
        assert np.max(np.abs(want.imag)) < 1e-8
        assert np.max(np.abs(got - want.real)) < 1e-8


def test_eigenvalue_sum_equals_trace(rng):
    for n in (1, 2, 7, 16, 32):
        a = random_hermitian(rng, n, complex_entries=bool(n % 2))
        m = HermitianMatrix(a)
        budget = 1e-10 * n * float(np.max(np.abs(m.entries)))
        assert abs(eigenvalues_desc(m).sum() - np.trace(m.entries).real) <= budget


def test_spectrum_real_for_200_random_matrices(rng):
    """The complex-path solver agrees and its imaginary parts vanish."""
    for _ in range(200):
        n = int(rng.integers(1, 33))
        a = random_hermitian(rng, n, complex_entries=bool(rng.integers(2)))
        lam = eigenvalues_desc(HermitianMatrix(a))
        assert lam.dtype == np.float64
        # independent general (non-symmetric) solver takes the complex route
        general = np.linalg.eigvals(a)
        scale = max(1.0, float(np.max(np.abs(a))))
        assert np.max(np.abs(general.imag)) <= 1e-10 * n * scale
        assert np.max(np.abs(np.sort(general.real) - np.sort(lam))) <= 1e-9 * n * scale


def test_eigenvalues_descending_order(rng):
    a = random_hermitian(rng, 12)
    lam = eigenvalues_desc(HermitianMatrix(a))
    assert np.all(np.diff(lam) <= 0)


# -- frobenius_norm -----------------------------------------------------------

def test_frobenius_zero_matrix():
    assert frobenius_norm(HermitianMatrix(np.zeros((3, 3)))) == 0.0


def test_frobenius_identity():
    assert frobenius_norm(HermitianMatrix(np.eye(7))) == pytest.approx(math.sqrt(7), rel=1e-15)


def test_frobenius_hand_example():
    m = HermitianMatrix(np.array([[0.0, 3.0], [3.0, 0.0]]))
    assert frobenius_norm(m) == pytest.approx(math.sqrt(18.0), rel=1e-15)


def test_frobenius_equals_sqrt_trace_square(rng):
    a = random_hermitian(rng, 11, complex_entries=True)
    m = HermitianMatrix(a)
    assert frobenius_norm(m) == pytest.approx(math.sqrt(np.sum(eigenvalues_desc(m) ** 2)), rel=1e-10)


# -- numeric_rank -------------------------------------------------------------

def test_rank_zero_matrix():
    assert numeric_rank(HermitianMatrix(np.zeros((3, 3)))) == 0


def test_rank_identity():
    assert numeric_rank(HermitianMatrix(np.eye(4))) == 4


def test_rank_one_outer_product(rng):
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v /= np.linalg.norm(v)
    assert numeric_rank(HermitianMatrix(np.outer(v, v.conj()))) == 1


def test_rank_respects_explicit_tolerance():
    m = HermitianMatrix(np.diag([1.0, 1e-3]))
    assert numeric_rank(m, tol=1e-2) == 1
    assert numeric_rank(m, tol=1e-4) == 2


# -- principal_minor ----------------------------------------------------------

def test_minor_full_index_set(rng):
    a = random_hermitian(rng, 4)
    m = HermitianMatrix(a)
    assert np.array_equal(principal_minor(m, range(4)).entries, m.entries)


def test_minor_diagonal_example():
    m = HermitianMatrix(np.diag([3.0, 1.0, 2.0]))
    got = principal_minor(m, [0, 2])
    assert np.array_equal(got.entries, np.diag([3.0, 2.0]))


def test_minor_matches_entrywise_removal(rng):
    a = random_hermitian(rng, 4, complex_entries=True)
    got = principal_minor(HermitianMatrix(a), [1, 2, 3])
    assert np.max(np.abs(got.entries - a[1:, 1:])) < 1e-15


def test_minor_empty_set_rejected():
    with pytest.raises(ValueError, match="empty minor"):
        principal_minor(HermitianMatrix(np.eye(2)), [])


def test_minor_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        principal_minor(HermitianMatrix(np.eye(2)), [0, 2])


# -- trusted construction -----------------------------------------------------

TRUST_N = 12
TRUST_SPECS = {
    "rademacher": (EntryLaw.rademacher(), VarianceProfile.uniform(1 / TRUST_N), None),
    "gaussian_real": (EntryLaw.gaussian_real(), VarianceProfile.uniform(1 / TRUST_N), None),
    "gaussian_complex": (EntryLaw.gaussian_complex(), VarianceProfile.uniform(1 / TRUST_N), None),
    "uniform_bounded": (EntryLaw.uniform_bounded(), VarianceProfile.uniform(1 / TRUST_N), None),
    "pareto": (EntryLaw.pareto_symmetric(2.5, 1.0), VarianceProfile.uniform(1 / TRUST_N), None),
    "constant_zero": (EntryLaw.constant_zero(), VarianceProfile.uniform(1 / TRUST_N), None),
    "complex_rademacher_diagonal": (
        EntryLaw.gaussian_complex(), VarianceProfile.uniform(1 / TRUST_N), EntryLaw.rademacher(),
    ),
    "banded_complex": (
        EntryLaw.gaussian_complex(), VarianceProfile.banded(2, 1 / TRUST_N, 1e-3), None,
    ),
    "banded_pareto": (
        EntryLaw.pareto_symmetric(3.0, 1.0), VarianceProfile.banded(3, 2 / TRUST_N, 0.5 / TRUST_N), None,
    ),
}

TRUSTED_PRODUCERS = {
    "sample": lambda spec, w, other: w,
    "truncate": lambda spec, w, other: truncate(w, 0.5)[0],
    "centralize": lambda spec, w, other: centralize(w, other),
    "unit_variance_replace": lambda spec, w, other: unit_variance_replace(
        w, spec.profile.matrix(spec.n), np.random.default_rng(9)
    ),
    # C well below the truncated row sums, so the rescale stage does work
    "pipeline": lambda spec, w, other: pipeline(w, spec, 0.5, 0.25)[0],
    "principal_minor": lambda spec, w, other: principal_minor(w, [0, 2, 3, 7, 11]),
    "add": lambda spec, w, other: w + other,
    "sub": lambda spec, w, other: w - other,
}


def _assert_checked_copy_is_identical(x: HermitianMatrix) -> None:
    checked = HermitianMatrix(x.entries).entries
    assert x.entries.dtype == checked.dtype
    assert x.entries.tobytes() == checked.tobytes()
    assert not x.entries.flags.writeable


@pytest.mark.parametrize("case", TRUST_SPECS)
@pytest.mark.parametrize("producer", TRUSTED_PRODUCERS)
def test_trusted_producers_write_exact_mirrors(producer, case):
    """Every producer on the trusted path builds what the checked constructor would."""
    law, profile, diagonal_law = TRUST_SPECS[case]
    spec = EnsembleSpec(TRUST_N, law, profile, diagonal_law, seed=17)
    x = TRUSTED_PRODUCERS[producer](spec, sample_trial(spec, 0), sample_trial(spec, 1))
    _assert_checked_copy_is_identical(x)


def test_trusted_truncation_to_zero_imaginary_parts_is_real():
    w = HermitianMatrix(np.array([[1.0, 5 + 5j, 0.5], [5 - 5j, -2.0, 3j], [0.5, -3j, 0.25]]))
    x, _ = truncate(w, 2.5)
    assert x.entries.dtype == np.float64
    assert np.array_equal(x.entries, [[1.0, 0.0, 0.5], [0.0, -2.0, 0.0], [0.5, 0.0, 0.25]])
    _assert_checked_copy_is_identical(x)


def test_trusted_path_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        HermitianMatrix._trusted(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    big = HermitianMatrix._trusted(np.array([[1e308, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        big + big


# -- lone matrices solved in place ---------------------------------------------

@pytest.mark.parametrize("complex_entries", (False, True), ids=("real", "complex"))
def test_lone_stack_has_eigenvalues_desc_bytes(monkeypatch, rng, complex_entries):
    """A stack of one is solved by LAPACK's routine on its own buffer, whose
    lower triangle read as Fortran (uplo 'L'), the triangle LAPACK reads, holds
    that of numpy's copy of the matrix, and gives the bytes of numpy's
    eigvalsh, which solves that copy, at every n below SMALL_N.  So does
    eigenvalues_desc, which solves a copy of its matrix as a stack of one.  A
    read-only stack is never overwritten: a real one goes to eigvalsh, a
    complex one is conjugated into a copy that the routine solves."""
    routines, fortran_reads, solves = hermitian_core._lapack_evd(), [], 0
    if routines is not None:

        def reading(routine):
            def call(jobz, uplo, size, a, *rest):
                raw = (ctypes.c_char * m.entries.nbytes).from_address(a)
                fortran = np.frombuffer(raw, m.entries.dtype).reshape(m.n, m.n, order="F")
                fortran_reads.append(uplo == b"L" and np.array_equal(np.tril(fortran), np.tril(m.entries)))
                routine(jobz, uplo, size, a, *rest)

            return call

        monkeypatch.setattr(hermitian_core, "_lapack_evd", lambda: tuple(map(reading, routines)))
    for n in range(1, 65):
        m = HermitianMatrix(random_hermitian(rng, n, complex_entries=complex_entries))
        want, entries = np.linalg.eigvalsh(m.entries)[::-1].tobytes(), m.entries.tobytes()
        assert eigenvalues_desc(m).tobytes() == want
        got = eigenvalues_desc_stacked(m.entries.copy()[None])
        assert got.shape == (1, n) and not got.flags.writeable
        assert got[0].tobytes() == want, n
        assert eigenvalues_desc_stacked(m.entries[None])[0].tobytes() == want
        assert m.entries.tobytes() == entries
        solves += 3 if m.is_complex else 2
    assert all(fortran_reads) and len(fortran_reads) == (0 if routines is None else 2 * solves)


@pytest.mark.parametrize("lapack", (True, False), ids=("lapack", "no-lapack"))
@pytest.mark.parametrize("complex_entries", (False, True), ids=("real", "complex"))
@pytest.mark.parametrize("count, n", [(3, 1), (4, 5), (8, 64), (2, 300), (1, 600), (1, 3)])
def test_stack_is_read_from_its_upper_triangle(monkeypatch, rng, count, n, complex_entries, lapack):
    """Whatever finite values lie below the diagonals, each row has the bytes of
    eigenvalues_desc of the Hermitian matrix of that matrix's upper triangle and
    diagonal, on either solve route, with LAPACK's routine or without it.  A
    read-only stack and a strided view give the same rows and are left as they
    were."""
    if not lapack:
        monkeypatch.setattr(hermitian_core, "_lapack_evd", lambda: None)
    mats = [HermitianMatrix(random_hermitian(rng, n, complex_entries=complex_entries)) for _ in range(count)]
    want = [eigenvalues_desc(m).tobytes() for m in mats]
    stack = np.stack([m.entries for m in mats])
    below = np.tri(n, k=-1, dtype=bool)
    noise = 1e3 * rng.standard_normal((count, n, n, 2)).view(np.complex128)[..., 0]
    stack[:, below] = (noise if stack.dtype == np.complex128 else noise.real)[:, below]
    frozen = stack.copy()
    frozen.setflags(write=False)
    strided = np.empty((count, n, 2 * n), stack.dtype)[..., ::2]
    strided[...] = stack
    kept = frozen.tobytes(), strided.tobytes()
    for s in (stack, frozen, strided):
        assert [row.tobytes() for row in eigenvalues_desc_stacked(s)] == want
    assert (frozen.tobytes(), strided.tobytes()) == kept


def test_lapack_lookup_resolves_beside_the_bundled_thread_calls():
    """Where the thread calls resolve under the names of the OpenBLAS bundled
    with numpy's wheels, so do its dsyevd, zheevd and zheevd_2stage: a numpy
    that drops them would silently copy every lone matrix again, and solve
    complex ones from SMALL_N up through the one-stage reduction."""
    calls = hermitian_core._openblas_thread_calls()
    if calls is None or not calls[0].__name__.startswith("scipy_"):
        pytest.skip("numpy's BLAS is not the OpenBLAS bundled with its wheels")
    lib = hermitian_core._numpy_openblas()
    for name in ("dsyevd_", "zheevd_", "zheevd_2stage_"):
        assert getattr(lib, hermitian_core._bundled(name), None) is not None, name
    routines = hermitian_core._lapack_evd()
    assert routines is not None
    assert [r.__name__ for r in routines] == ["scipy_dsyevd_64_", "scipy_zheevd_64_", "scipy_zheevd_2stage_64_"]


@pytest.mark.parametrize(
    "n, complex_entries, routine",
    [
        (hermitian_core.SMALL_N - 1, True, "zheevd"),
        (hermitian_core.SMALL_N, True, "zheevd_2stage"),
        (600, True, "zheevd_2stage"),
        (2048, False, "dsyevd"),
    ],
    ids=lambda v: str(v) if not isinstance(v, bool) else ("complex" if v else "real"),
)
def test_lone_routine_follows_dtype_and_n(monkeypatch, rng, n, complex_entries, routine):
    """A lone matrix solves through zheevd_2stage when it is complex and n is at
    least SMALL_N, else through the routine numpy's eigvalsh calls; the size
    query and the solve both go to that routine, for eigenvalues_desc and a
    stack of one alike."""
    routines, used = hermitian_core._lapack_evd(), []
    if routines is None:
        pytest.skip("numpy's BLAS is not the OpenBLAS bundled with its wheels")

    def named(routine):
        def call(*args):
            used.append(routine.__name__.removeprefix("scipy_").removesuffix("_64_"))
            routine(*args)

        return call

    monkeypatch.setattr(hermitian_core, "_lapack_evd", lambda: tuple(map(named, routines)))
    m = HermitianMatrix(random_hermitian(rng, n, complex_entries=complex_entries))
    eigenvalues_desc(m)
    eigenvalues_desc_stacked(m.entries[None].copy())
    assert used == [routine] * 4


@pytest.mark.parametrize("n", (512, 600, 1024))
def test_two_stage_spectra_agree_with_eigvalsh(rng, n):
    """A complex lone matrix from SMALL_N up (zheevd_2stage) gives the spectrum of
    numpy's eigvalsh (zheevd) within 64 n eps max|lambda|, descending."""
    m = HermitianMatrix(random_hermitian(rng, n, complex_entries=True))
    want = np.linalg.eigvalsh(m.entries)[::-1]
    got = eigenvalues_desc(m)
    assert np.all(np.diff(got) <= 0)
    bound = 64 * n * np.finfo(np.float64).eps * np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= bound


def test_without_the_lookup_both_routes_are_eigvalsh(monkeypatch, rng):
    """With no routines found, a complex n = 600 matrix, alone or in a stack of
    one, solves through numpy's eigvalsh, with its bytes.  eigvalsh copies its
    input itself, so eigenvalues_desc hands it the matrix and allocates no copy
    of its own: a tracemalloc peak of 0.002 matrices, against 1.12 with a copy."""
    m = HermitianMatrix(random_hermitian(rng, 600, complex_entries=True))
    want = np.linalg.eigvalsh(m.entries)[::-1].tobytes()
    monkeypatch.setattr(hermitian_core, "_lapack_evd", lambda: None)
    tracemalloc.start()
    try:
        got = eigenvalues_desc(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want
    assert peak < 0.1 * m.entries.nbytes, peak
    assert eigenvalues_desc_stacked(m.entries[None].copy())[0].tobytes() == want


# -- spectral inequalities ----------------------------------------------------

def test_cauchy_interlacing_against_leading_minor(rng):
    for _ in range(200):
        n = int(rng.integers(2, 33))
        a = random_hermitian(rng, n, complex_entries=bool(rng.integers(2)))
        m = HermitianMatrix(a)
        lam = eigenvalues_desc(m)
        mu = eigenvalues_desc(principal_minor(m, range(n - 1)))
        assert np.all(lam[1:] <= mu + 1e-8)
        assert np.all(mu <= lam[:-1] + 1e-8)


def test_largest_eigenvalue_is_rayleigh_max(rng):
    """10,000 random unit vectors approach lambda_1 from below, never above."""
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = random_hermitian(rng, n)
        lam = eigenvalues_desc(HermitianMatrix(a))
        v = rng.standard_normal((10_000, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        quotients = np.einsum("ti,ij,tj->t", v, a, v)
        best = float(np.max(quotients))
        spread = float(lam[0] - lam[-1])
        assert best <= lam[0] + 1e-10
        assert best >= lam[0] - 0.05 * max(spread, 1e-12)


def test_hoffman_wielandt_inequality(rng):
    for _ in range(200):
        n = int(rng.integers(1, 33))
        cplx = bool(rng.integers(2))
        a = random_hermitian(rng, n, cplx)
        b = random_hermitian(rng, n, cplx)
        la = eigenvalues_desc(HermitianMatrix(a))
        lb = eigenvalues_desc(HermitianMatrix(b))
        lhs = float(np.sum((la - lb) ** 2))
        rhs = frobenius_norm(HermitianMatrix(a) - HermitianMatrix(b)) ** 2
        assert lhs <= rhs + 1e-8


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**31 - 1), cplx=st.booleans())
def test_spectrum_invariants_property(n, seed, cplx):
    """Trace identity, descending order, and interlacing under one roof."""
    a = random_hermitian(np.random.default_rng(seed), n, cplx)
    m = HermitianMatrix(a)
    lam = eigenvalues_desc(m)
    assert np.all(np.diff(lam) <= 0)
    assert abs(lam.sum() - np.trace(a).real) <= 1e-10 * n * max(1.0, np.max(np.abs(a)))
    if n >= 2:
        mu = eigenvalues_desc(principal_minor(m, range(n - 1)))
        assert np.all(lam[1:] <= mu + 1e-8) and np.all(mu <= lam[:-1] + 1e-8)
