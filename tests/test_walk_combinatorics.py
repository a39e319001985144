"""Canonical closed walks, their census, the Dyck bijection, the moment oracle.

Independent oracles: a brute-force canonicalization of every closed walk on
a small alphabet, the falling-factorial census identity
sum_t |Gamma(k,t)| (v)_t = v^k, an edge-count graph classifier, all n^k
index walks, the Harer-Zagier recursion, and an exhaustive sign-assignment
trace moment.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from wignerlab import walk_combinatorics
from wignerlab.ensembles import EntryLaw, VarianceProfile
from wignerlab.spectral_measures import semicircle_moment
from wignerlab.walk_combinatorics import (
    ORACLE_MAX_K,
    ORACLE_MAX_N,
    CanonicalWalk,
    DyckPath,
    WalkClass,
    all_dyck_paths,
    census_blocks,
    classify,
    dyck_of,
    enumerate_canonical_walks,
    enumerate_gamma,
    walk_sum_moment,
)

from _oracles import (
    brute_walk_sum_moment,
    exhaustive_rademacher_moment,
    first_appearance_relabelling,
    graph_classify,
    harer_zagier,
    mc_trace_moments,
    permutation_walk_sum_moment,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


def _catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def _falling(v: int, t: int) -> int:
    out = 1
    for j in range(t):
        out *= v - j
    return out


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def test_canonical_walk_validation():
    with pytest.raises(ValueError, match="start and end at 1"):
        CanonicalWalk((2, 1, 2))
    with pytest.raises(ValueError, match="restricted-growth"):
        CanonicalWalk((1, 3, 1))
    with pytest.raises(ValueError, match="at least one step"):
        CanonicalWalk((1,))


def test_canonical_walk_k_and_t():
    w = CanonicalWalk((1, 2, 3, 2, 1))
    assert w.k == 4
    assert w.t == 3
    assert CanonicalWalk((1, 1)).k == 1
    assert CanonicalWalk((1, 1)).t == 1


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_examples():
    assert classify(CanonicalWalk((1, 2, 1))) is WalkClass.DOUBLE_TREE
    assert classify(CanonicalWalk((1, 2, 3, 1))) is WalkClass.SINGLE_EDGE
    assert classify(CanonicalWalk((1, 2, 1, 2, 1))) is WalkClass.MULTI_OTHER
    assert classify(CanonicalWalk((1, 1, 1))) is WalkClass.MULTI_OTHER
    assert classify(CanonicalWalk((1, 2, 3, 2, 1))) is WalkClass.DOUBLE_TREE
    assert classify(CanonicalWalk((1, 2, 1, 3, 1))) is WalkClass.DOUBLE_TREE


def test_classify_length_four_census():
    walks = enumerate_canonical_walks(4)
    by_class = {c: [] for c in WalkClass}
    for w in walks:
        by_class[classify(w)].append(w)
    assert len(by_class[WalkClass.DOUBLE_TREE]) == 2
    assert {w.sequence for w in by_class[WalkClass.DOUBLE_TREE]} == {
        (1, 2, 1, 3, 1),
        (1, 2, 3, 2, 1),
    }


def test_classify_matches_graph_classifier():
    """The crossing-table classifier agrees with a BFS tree test on every walk."""
    checked = 0
    for k in range(1, 10):
        for w in enumerate_canonical_walks(k):
            assert classify(w) is graph_classify(w), w.sequence
            checked += 1
    assert checked == 26442  # Bell(1) + ... + Bell(9)


def test_block_classifier_matches_classify():
    """The census's per-block class codes are classify's verdict on every walk, k <= 10."""
    classes = list(WalkClass)
    checked = 0
    for k in range(1, 11):
        for t, rows, codes in census_blocks(k):
            assert rows.dtype == codes.dtype == np.int8
            assert rows.shape == (len(codes), k + 1)
            for row, code in zip(rows.tolist(), codes.tolist()):
                walk = CanonicalWalk(tuple(row))
                assert walk.t == t
                assert classes[code] is classify(walk), row
            checked += len(rows)
    assert checked == 142417  # Bell(1) + ... + Bell(10)


def test_block_classifier_keeps_the_double_tree_guard():
    """A t = k/2 + 1 row with no single edge whose skeleton is no double tree is refused."""
    rows = np.array([[1, 2, 1, 2, 1]], dtype=np.int8)  # (1,2) four times: no single edge
    with pytest.raises(AssertionError, match="double-tree skeleton"):
        walk_combinatorics._classify_block(rows, 3)


def test_odd_length_has_no_double_trees():
    for k in (3, 5, 7):
        assert all(classify(w) is not WalkClass.DOUBLE_TREE for w in enumerate_canonical_walks(k))


# ---------------------------------------------------------------------------
# census enumeration
# ---------------------------------------------------------------------------


def test_enumerate_gamma_small_cases():
    assert [w.sequence for w in enumerate_gamma(2, 1)] == [(1, 1, 1)]
    assert [w.sequence for w in enumerate_gamma(2, 2)] == [(1, 2, 1)]
    assert enumerate_gamma(2, 4) == []
    assert [w.sequence for w in enumerate_gamma(1, 1)] == [(1, 1)]
    assert enumerate_gamma(1, 2) == []
    with pytest.raises(ValueError, match="k >= 1 and t >= 1"):
        enumerate_gamma(0, 1)


def test_enumerate_gamma_equals_census_block_rows():
    """enumerate_gamma wraps exactly the census rows on t labels, for k <= 9 and t <= k + 2."""
    for k in range(1, 10):
        rows_by_t = {}
        for t, rows, _ in census_blocks(k):
            rows_by_t.setdefault(t, []).extend(tuple(r) for r in rows.tolist())
        assert max(rows_by_t) <= k + 1
        for t in range(1, k + 3):
            assert [w.sequence for w in enumerate_gamma(k, t)] == rows_by_t.get(t, []), (k, t)
        assert enumerate_gamma(k, k + 2) == []
    for k, t in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValueError, match="k >= 1 and t >= 1"):
            enumerate_gamma(k, t)
    with pytest.raises(ValueError, match="k >= 1"):
        next(census_blocks(0))


def test_enumerate_gamma_walks_pass_the_public_check():
    """Walks wrapped without the re-check equal the checked constructor's, for k <= 8."""
    for k in range(1, 9):
        for t in range(1, k + 2):
            for w in enumerate_gamma(k, t):
                assert all(type(v) is int for v in w.sequence)
                assert CanonicalWalk(w.sequence) == w


def test_enumerate_gamma_is_sorted_and_consistent():
    for k in (3, 4, 5):
        for t in range(1, k + 2):
            walks = enumerate_gamma(k, t)
            seqs = [w.sequence for w in walks]
            assert seqs == sorted(seqs)
            assert all(w.k == k and w.t == t for w in walks)
            assert len(set(seqs)) == len(seqs)


def test_census_matches_brute_force_canonicalization():
    """Every closed walk on a k-letter alphabet canonicalizes into the census."""
    for k in (2, 3, 4, 6):
        brute = {
            first_appearance_relabelling(tup + (tup[0],))
            for tup in itertools.product(range(k), repeat=k)
        }
        census = {w.sequence for w in enumerate_canonical_walks(k)}
        assert brute == census


def test_census_sizes_are_bell_numbers():
    for k, bell in BELL.items():
        assert len(enumerate_canonical_walks(k)) == bell


def test_census_falling_factorial_identity():
    """sum_t |Gamma(k,t)| (v)_t counts all closed walks on v labels: v^k."""
    for k in range(1, ORACLE_MAX_K + 1):
        sizes = {t: len(enumerate_gamma(k, t)) for t in range(1, k + 2)}
        for v in range(1, k + 2):
            total = sum(cnt * _falling(v, t) for t, cnt in sizes.items())
            assert total == v**k, (k, v)


def test_double_tree_counts_are_catalan():
    """Walks with every edge doubled over a tree are counted by Catalan numbers."""
    for k in (2, 4, 6, 8, 10):
        walks = enumerate_gamma(k, k // 2 + 1)
        count = sum(1 for w in walks if classify(w) is WalkClass.DOUBLE_TREE)
        assert count == _catalan(k // 2)
        assert count == pytest.approx(semicircle_moment(k))


# ---------------------------------------------------------------------------
# Dyck paths and the bijection
# ---------------------------------------------------------------------------


def test_dyck_path_validation():
    DyckPath((0, 1, 0))
    with pytest.raises(ValueError, match="start and end at height 0"):
        DyckPath((1, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        DyckPath((0, -1, 0))
    with pytest.raises(ValueError, match="\\+-1"):
        DyckPath((0, 2, 0))
    assert DyckPath((0, 1, 2, 1, 0)).length == 4


def test_all_dyck_paths_counts():
    assert [p.heights for p in all_dyck_paths(2)] == [(0, 1, 0)]
    for k in (0, 2, 4, 6, 8, 10):
        assert len(all_dyck_paths(k)) == _catalan(k // 2)
    assert all_dyck_paths(5) == []
    with pytest.raises(ValueError, match="nonnegative"):
        all_dyck_paths(-2)


def test_dyck_of_examples():
    assert dyck_of(CanonicalWalk((1, 2, 1))).heights == (0, 1, 0)
    assert dyck_of(CanonicalWalk((1, 2, 1, 3, 1))).heights == (0, 1, 0, 1, 0)
    assert dyck_of(CanonicalWalk((1, 2, 3, 2, 1))).heights == (0, 1, 2, 1, 0)
    with pytest.raises(ValueError, match="requires a double-tree walk"):
        dyck_of(CanonicalWalk((1, 2, 3, 1)))


def test_dyck_bijection_on_double_trees():
    """Root-distance profiles map double trees onto Dyck paths bijectively."""
    for k in (2, 4, 6, 8):
        doubles = [
            w
            for w in enumerate_gamma(k, k // 2 + 1)
            if classify(w) is WalkClass.DOUBLE_TREE
        ]
        images = {dyck_of(w).heights for w in doubles}
        assert len(images) == len(doubles)  # injective
        assert images == {p.heights for p in all_dyck_paths(k)}  # onto


def test_double_tree_count_length_twelve():
    """Only t = 7 can host a length-12 double tree; the count is Catalan(6).

    Read from the census's k = 12, t = 7 block (627,396 rows) and its class
    codes, with no walk object built.
    """
    codes = walk_combinatorics._classify_block(walk_combinatorics._rgs_block(12, 7), 7)
    count = int(np.count_nonzero(codes == list(WalkClass).index(WalkClass.DOUBLE_TREE)))
    assert count == _catalan(6) == 132


# ---------------------------------------------------------------------------
# the exact trace-moment oracle
# ---------------------------------------------------------------------------


def _ulps(a: float, b: float) -> int:
    """Distance between two positive floats in units in the last place."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_walk_sum_moment_matches_harer_zagier_for_gue(k):
    """gaussian_complex at uniform(1/n) with a gaussian_real diagonal is the GUE,
    whose moments b_(k/2) / n^(k/2+1) the Harer-Zagier recursion gives exactly.

    Exact at n = 1, 2 and 4.  At n = 3, 5 and 6 the oracle rounds each labelled
    walk's product and takes v = 1/n as a float, and lands up to 2 ulp away
    (n = 5, k = 8 gives 16.833600000000008 against 16.8336); the second pin
    records that gap.
    """
    law, diagonal = EntryLaw.gaussian_complex(), EntryLaw.gaussian_real()
    for n in (1, 2, 3, 4, 5, 6):
        exact = float(harer_zagier(n, k // 2) / n ** (k // 2 + 1))
        got = walk_sum_moment(law, VarianceProfile.uniform(1.0 / n), n, k, diagonal)
        if n in (1, 2, 4):
            assert got == exact, (n, got, exact)
        else:
            assert _ulps(got, exact) <= 2, (n, got, exact)


def test_harer_zagier_oracle_small_values():
    """E tr H^(2k) for k = 0..3 (n, n^2, 2n^3 + n, 5n^4 + 10n^2) for the GUE with unit variance."""
    for n in (1, 2, 7):
        assert harer_zagier(n, 0) == n
        assert harer_zagier(n, 1) == n * n
        assert harer_zagier(n, 2) == 2 * n**3 + n
        assert harer_zagier(n, 3) == 5 * n**4 + 10 * n**2


def test_walk_sum_moment_small_exact_values():
    one = VarianceProfile.uniform(1.0)
    assert walk_sum_moment(EntryLaw.rademacher(), one, 1, 2) == pytest.approx(1.0)
    # unit ensembles have (1/n) E tr W^2 = 1 exactly at every size, bit for bit
    laws = (
        EntryLaw.gaussian_real(),
        EntryLaw.rademacher(),
        EntryLaw.gaussian_complex(),
        EntryLaw.uniform_bounded(),
    )
    for n in range(1, 7):
        prof = VarianceProfile.uniform(1.0 / n)
        for law in laws:
            assert walk_sum_moment(law, prof, n, 2) == 1.0, (law.kind, n)
    # odd moments vanish for symmetric laws
    assert walk_sum_moment(EntryLaw.gaussian_real(), one, 3, 3) == 0.0
    # a zero diagonal leaves only off-diagonal walks: 30/9 summed, 10/9 per row
    third = VarianceProfile.uniform(1.0 / 3)
    zero = EntryLaw.constant_zero()
    assert walk_sum_moment(EntryLaw.gaussian_real(), third, 3, 4, zero) == pytest.approx(10 / 9)


def test_walk_sum_moment_matches_exhaustive_signs():
    """Full 2^(n(n+1)/2) sign enumeration agrees with the moment oracle."""
    for n, k in ((2, 2), (2, 4), (3, 2), (3, 4)):
        prof = VarianceProfile.uniform(1.0 / n)
        oracle = exhaustive_rademacher_moment(prof, n, k)
        assert walk_sum_moment(EntryLaw.rademacher(), prof, n, k) == pytest.approx(
            oracle, abs=1e-12
        )


def _symmetric_profile(rng, n: int) -> VarianceProfile:
    a = rng.uniform(0.05, 0.5, (n, n))
    return VarianceProfile.explicit((a + a.T) / 2.0)


def test_walk_sum_moment_matches_index_tuple_brute_force(rng):
    """The class sum equals the plain sum over all n^k index walks."""
    zero = EntryLaw.constant_zero()
    cases = (
        (EntryLaw.rademacher(), VarianceProfile.banded(1, 0.25, 0.05), 4, 8, None),
        (EntryLaw.gaussian_complex(), _symmetric_profile(rng, 4), 4, 6, None),
        (EntryLaw.gaussian_complex(), VarianceProfile.banded(1, 0.3, 0.1), 3, 8, zero),
        (EntryLaw.gaussian_real(), _symmetric_profile(rng, 4), 4, 6, zero),
        (EntryLaw.pareto_symmetric(9.0, 1.0), _symmetric_profile(rng, 3), 3, 8, None),
        (EntryLaw.uniform_bounded(), VarianceProfile.banded(2, 0.2, 0.02), 4, 6, None),
    )
    for law, prof, n, k, diag in cases:
        expect = brute_walk_sum_moment(law, prof, n, k, diag)
        got = walk_sum_moment(law, prof, n, k, diag)
        assert got == pytest.approx(expect, rel=1e-12, abs=0.0), (law.kind, prof.kind, n, k)


def test_walk_sum_moment_equals_permutation_loop_bit_for_bit(rng):
    """The gathered class sums equal the per-relabeling loop exactly, at every n and k
    the oracle allows, on uniform and banded profiles; then on explicit profiles,
    a constant_zero diagonal and a Pareto law up to n = 4."""
    laws = (
        EntryLaw.rademacher(),
        EntryLaw.gaussian_real(),
        EntryLaw.gaussian_complex(),
        EntryLaw.uniform_bounded(),
    )
    for n in range(1, ORACLE_MAX_N + 1):
        for prof in (VarianceProfile.uniform(1.0 / n), VarianceProfile.banded(1, 1.0 / n, 0.05)):
            for law in laws:
                for k in range(1, ORACLE_MAX_K + 1):
                    want = permutation_walk_sum_moment(law, prof, n, k)
                    assert walk_sum_moment(law, prof, n, k) == want, (n, prof.kind, law.kind, k)
    zero = EntryLaw.constant_zero()
    for n in (2, 3, 4):
        prof = _symmetric_profile(rng, n)
        for law, diag in ((EntryLaw.gaussian_complex(), None), (EntryLaw.rademacher(), zero),
                          (EntryLaw.pareto_symmetric(9.0, 1.0), None)):
            for k in (4, 6, 8):
                want = permutation_walk_sum_moment(law, prof, n, k, diag)
                assert walk_sum_moment(law, prof, n, k, diag) == want, (n, law.kind, k)


def test_walk_sum_moment_exact_on_banded_rademacher():
    """Exact rational value of the float-level sum, 1.91685, to within 1e-14."""
    prof = VarianceProfile.banded(1, 0.25, 0.05)
    assert abs(walk_sum_moment(EntryLaw.rademacher(), prof, 4, 8) - 1.91685) <= 1e-14


def test_walk_sum_moment_builds_each_census_block_once(monkeypatch):
    """Oracle calls at n = 4, then n = 5, both at k = 8, share one census per (k, t)."""
    built = []
    build = walk_combinatorics._rgs_block

    def counting(k, t):
        built.append((k, t))
        return build(k, t)

    walk_combinatorics._oracle_classes.cache_clear()
    monkeypatch.setattr(walk_combinatorics, "_rgs_block", counting)
    prof = VarianceProfile.banded(1, 0.25, 0.05)
    for n in (4, 5):
        walk_sum_moment(EntryLaw.rademacher(), prof, n, 8)
    walk_combinatorics._oracle_classes.cache_clear()
    assert sorted(built) == [(8, t) for t in range(1, 6)]


def test_walk_sum_moment_validation():
    prof = VarianceProfile.uniform(1.0)
    with pytest.raises(ValueError, match="oracle scale exceeded"):
        walk_sum_moment(EntryLaw.gaussian_real(), prof, ORACLE_MAX_N + 1, 2)
    with pytest.raises(ValueError, match="oracle scale exceeded"):
        walk_sum_moment(EntryLaw.gaussian_real(), prof, 2, ORACLE_MAX_K + 1)
    with pytest.raises(ValueError, match="n >= 1 and k >= 1"):
        walk_sum_moment(EntryLaw.gaussian_real(), prof, 2, 0)
    with pytest.raises(ValueError, match="finite moments"):
        walk_sum_moment(EntryLaw.pareto_symmetric(2.0, 1.0), prof, 2, 2)


def test_walk_sum_moment_matches_monte_carlo(rng):
    """Independent sampler + eigenvalue powers agree within 4 standard errors."""
    n = 4
    prof = VarianceProfile.uniform(1.0 / n)
    for law in (EntryLaw.gaussian_real(), EntryLaw.uniform_bounded()):
        mc = mc_trace_moments(law, prof, n, (2, 4, 6), 100_000, rng)
        for k in (2, 4, 6):
            exact = walk_sum_moment(law, prof, n, k)
            mean, se = mc[k]
            assert abs(exact - mean) <= 4.0 * se, (law.kind, k)
