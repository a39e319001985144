"""Independent oracles the tests compare library results against.

Every oracle recomputes its quantity by a different route than the library:
characteristic-polynomial roots instead of the symmetric eigensolver,
brute-force feasibility scans and rational candidate checks instead of
bisection over the doubles, exhaustive sign assignments instead of moment
bookkeeping, all n^k index walks instead of walk classes, an edge-count
tree test instead of the vertex-count argument,
first-appearance relabelling instead of restricted-growth enumeration,
sampled tail contributions instead of closed-form truncated moments, the
Harer-Zagier recursion instead of walk classes, raw per-row generator
calls instead of the one-fill sampler, rational Poisson-kernel sums
instead of blocked float ones, one relabeling at a time instead of
gathered class sums, the truncated and rescaled matrices built whole
instead of one fused cost pass, and a ``SeedSequence`` per stream instead
of Philox keys derived in vectorised passes.
Agreement between unrelated routes is what the suite certifies.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from wignerlab.ensembles import EntryLaw, VarianceProfile, diagonal_law_for
from wignerlab.walk_combinatorics import WalkClass, classify, enumerate_gamma


def charpoly_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues as roots of the characteristic polynomial, descending.

    Coefficients come from the Faddeev-LeVerrier recurrence, roots from the
    companion matrix; no symmetric solver involved.  Only trustworthy at
    small n (the recurrence is numerically unstable beyond ~10).
    """
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    coeffs = [1.0 + 0.0j]
    m = np.zeros_like(a)
    c = 1.0 + 0.0j
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(c)
    roots = np.roots(np.array(coeffs))
    order = np.argsort(roots.real)[::-1]
    return roots[order]


def brute_levy(f, g, eps_step: float = 1e-3, pad: float = 1.0) -> float:
    """Smallest feasible epsilon on a grid, by scanning the definition.

    Feasibility of eps means F(x-eps)-eps <= G(x) <= F(x+eps)+eps for all x;
    the scan covers the atoms of either step argument, their shifts, left
    limits, and a dense uniform grid.  The semicircle has no atoms and
    contributes only the ends of its support [-2, 2] to the grid's hull.
    """
    pts = np.concatenate([getattr(d, "atoms", np.array([-2.0, 2.0])) for d in (f, g)])
    grid = np.linspace(pts.min() - pad, pts.max() + pad, 2001)
    base = np.unique(np.concatenate([pts, grid]))
    for step in itertools.count():
        eps = step * eps_step
        xs = np.unique(np.concatenate([base, base - eps, base + eps]))
        xs = np.concatenate([xs, np.nextafter(xs, -np.inf)])
        fx_hi = np.asarray(f.cdf(xs + eps)) + eps
        fx_lo = np.asarray(f.cdf(xs - eps)) - eps
        gx = np.asarray(g.cdf(xs))
        if np.all(gx <= fx_hi + 1e-12) and np.all(gx >= fx_lo - 1e-12):
            return eps
        if eps > 1.0 + 2 * pad:
            raise AssertionError("no feasible epsilon found")


def levy_violation(points: np.ndarray, f, g, eps: float) -> float:
    """Largest breach of the Levy constraints at eps over a sample of points.

    Checks G(x-eps)-eps <= F(x) <= G(x+eps)+eps at every sample point x, the
    definition with the two (symmetric) roles exchanged, using nothing but
    each distribution's right-continuous CDF.  Sampling F's atoms and the
    float just left of each one covers every point where a step F can bind.
    Positive means infeasible.
    """
    x = np.asarray(points, dtype=np.float64)
    fx = np.asarray(f.cdf(x))
    above = fx - np.asarray(g.cdf(x + eps)) - eps
    below = np.asarray(g.cdf(x - eps)) - eps - fx
    return float(max(above.max(), below.max()))


def exact_step_levy(xs, ys) -> Fraction:
    """Levy distance between the equal-weight step laws of two samples, in rationals.

    The definition splits into F(x) <= G(x+eps)+eps for all x and the same
    with F and G exchanged; each side steps up only at its own atoms, so it
    is checked there.  The smallest feasible eps makes some constraint tight,
    either at a jump of G(x+eps) (eps = b - a for atoms a, b) or where its
    level plus eps meets F's (eps = a gap between CDF levels), so the answer
    is the first of those candidates, or 0, that passes in exact arithmetic.
    """
    xs = [Fraction(float(v)) for v in np.ravel(xs)]
    ys = [Fraction(float(v)) for v in np.ravel(ys)]

    def cdf(sample, t):
        return Fraction(sum(v <= t for v in sample), len(sample))

    def feasible(eps):
        return all(
            cdf(p, a) <= cdf(q, a + eps) + eps for p, q in ((xs, ys), (ys, xs)) for a in p
        )

    levels = {cdf(xs, a) for a in xs} | {cdf(ys, b) for b in ys} | {Fraction(0)}
    gaps = {abs(b - a) for a in xs for b in ys} | {abs(u - v) for u in levels for v in levels}
    return next(eps for eps in sorted(gaps) if feasible(eps))  # 1 is a level gap, and passes


def step_kolmogorov_gap(eigenvalues: np.ndarray, g) -> float:
    """max over atoms of |F(x)-G(x)| and |F(x-)-G(x)| for the ESD F, G continuous.

    F(x) and F(x-) are counted directly from the eigenvalues, not read from
    the library's cumulative weights.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    x = np.unique(lam)
    at = (lam[None, :] <= x[:, None]).sum(axis=1) / lam.size
    before = (lam[None, :] < x[:, None]).sum(axis=1) / lam.size
    gx = np.asarray(g.cdf(x))
    return float(max(np.abs(at - gx).max(), np.abs(before - gx).max()))


def first_appearance_relabelling(walk) -> tuple[int, ...]:
    """Relabel a closed walk's vertices 1, 2, ... in order of first appearance.

    Two walks get the same relabelling exactly when they have the same
    equality pattern among their vertices.
    """
    labels: dict[int, int] = {}
    return tuple(labels.setdefault(v, len(labels) + 1) for v in walk)


def graph_classify(walk) -> WalkClass:
    """Walk class from the walk's multigraph, with double trees found by an edge count.

    Counts undirected multiplicities and directed crossings step by step.  A
    double tree is a walk whose skeleton is a tree, crossing every edge
    exactly once in each direction; t = k/2 + 1 is never consulted.  The
    skeleton of a closed walk is connected, since the walk itself joins every
    vertex it visits, so it is a tree exactly when it has no loop and
    |E| = |V| - 1; no BFS is needed.
    """
    seq = walk.sequence
    mult: dict[tuple[int, int], int] = {}
    directed: dict[tuple[int, int], int] = {}
    for a, b in zip(seq, seq[1:]):
        edge = (min(a, b), max(a, b))
        mult[edge] = mult.get(edge, 0) + 1
        directed[a, b] = directed.get((a, b), 0) + 1
    if 1 in mult.values():
        return WalkClass.SINGLE_EDGE
    if any(a == b for a, b in mult) or len(mult) != len(set(seq)) - 1:
        return WalkClass.MULTI_OTHER
    once_each_way = all(directed.get((a, b)) == directed.get((b, a)) == 1 for a, b in mult)
    return WalkClass.DOUBLE_TREE if once_each_way else WalkClass.MULTI_OTHER


def brute_walk_sum_moment(
    law: EntryLaw, profile: VarianceProfile, n: int, k: int, diagonal_law: EntryLaw | None = None
) -> float:
    """(1/n) E tr W^k summed over every one of the n^k closed index walks.

    Each walk's expectation factors over unordered index pairs: the law's
    mixed moment of the (forward, backward) crossing counts times
    sigma^(forward + backward).  No walk is skipped or grouped by class.
    """
    sig = profile.matrix(n)
    dlaw = diagonal_law_for(law, diagonal_law)
    total = 0.0
    for tup in itertools.product(range(n), repeat=k):
        crossings: dict[tuple[int, int], list[int]] = {}
        for a, b in zip(tup, tup[1:] + tup[:1]):
            counts = crossings.setdefault((min(a, b), max(a, b)), [0, 0])
            counts[a > b] += 1
        prod = 1.0
        for (a, b), (f, r) in crossings.items():
            use = dlaw if a == b else law
            prod *= use.pair_moment(f, r) * math.sqrt(sig[a, b]) ** (f + r)
        total += prod
    return total / n


def permutation_walk_sum_moment(
    law: EntryLaw, profile: VarianceProfile, n: int, k: int, diagonal_law: EntryLaw | None = None
) -> float:
    """(1/n) E tr W^k class by class, each class relabelled one permutation at a time.

    The per-relabeling loop that ``walk_sum_moment``'s array gathers replaced:
    the same classes (every canonical walk that is not single_edge), each
    class's terms summed by ``math.fsum``, then the class sums by
    ``math.fsum``, so the two agree bit for bit.
    """
    sig = profile.matrix(n)
    dlaw = diagonal_law_for(law, diagonal_law)
    return math.fsum(
        permutation_class_sum(walk.sequence, t, law, dlaw, sig)
        for t in range(1, n + 1)
        for walk in enumerate_gamma(k, t)
        if classify(walk) is not WalkClass.SINGLE_EDGE
    ) / n


def permutation_class_sum(seq, t: int, law: EntryLaw, dlaw: EntryLaw, sig: np.ndarray) -> float:
    """Sum of E[prod w] over every injective relabeling of ``seq``'s t labels into {0..n-1}."""
    seq = [c - 1 for c in seq]
    steps = Counter(zip(seq, seq[1:]))
    factors = []
    for a, b in {(min(e), max(e)) for e in steps}:
        f, r = steps[a, b], (steps[b, a] if a != b else 0)
        mom = (dlaw if a == b else law).pair_moment(f, r)
        if mom == 0.0:
            return 0.0
        factors.append((a, b, mom, f + r))

    def expectation(image) -> float:
        out = 1.0
        for a, b, mom, m in factors:
            s = sig[image[a], image[b]]
            out *= mom * (s ** (m // 2) if m % 2 == 0 else math.sqrt(s) ** m)
        return out

    return math.fsum(expectation(image) for image in itertools.permutations(range(len(sig)), t))


def harer_zagier(n: int, k: int) -> Fraction:
    """E tr H^(2k) for the n x n GUE with E|h_ij|^2 = 1, exactly.

    The Harer-Zagier recursion (k+2) b_(k+1) = (4k+2) n b_k + k(4k^2-1) b_(k-1),
    with b_0 = n and b_1 = n^2, in exact rationals.
    """
    b = [Fraction(n), Fraction(n * n)]
    for j in range(1, k):
        b.append(((4 * j + 2) * n * b[j] + j * (4 * j * j - 1) * b[j - 1]) / (j + 2))
    return b[k]


def seed_sequence_rng(master_seed: int, domain: int, index: int) -> np.random.Generator:
    """Stream (domain, index) as numpy seeds it: Philox from ``SeedSequence(master_seed, spawn_key=(domain, index))``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(master_seed, spawn_key=(domain, index))))


def _row_draws(law: EntryLaw, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` standard draws of ``law``, one generator call per part."""
    k = law.kind
    if k == "constant_zero":
        return np.zeros(size)
    if k == "rademacher_scaled":
        return rng.integers(0, 2, size).astype(np.float64) * 2.0 - 1.0
    if k == "gaussian_real":
        return rng.standard_normal(size)
    if k == "gaussian_complex":
        return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)
    if k == "uniform_bounded":
        return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size)
    t = law.scale * (1.0 - rng.random(size)) ** (-1.0 / law.alpha)
    x = (rng.integers(0, 2, size).astype(np.float64) * 2.0 - 1.0) * t
    if law.alpha > 2.0:
        x /= law.scale * math.sqrt(law.alpha / (law.alpha - 2.0))
    return x


def per_row_sample(
    n: int,
    law: EntryLaw,
    profile: VarianceProfile,
    diagonal_law: EntryLaw | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """The sampler's stream layout drawn the plain way: each row by its own calls.

    Under the default diagonal law row i draws its diagonal entry, then its
    n-i-1 entries right of the diagonal (a complex tail as all real parts,
    then all imaginary parts).  Stream layout 3 draws any other diagonal law
    first, as one ``_row_draws`` call of n values, and then the rows' tails.
    A pareto_symmetric law draws its whole packed triangle (diagonal
    included only under the default diagonal) as one ``_row_draws`` call,
    placed row by row.  Each entry's conjugate is written below the diagonal.
    """
    sd = np.sqrt(profile.matrix(n))
    dlaw = diagonal_law_for(law, diagonal_law)
    lead = int(dlaw == diagonal_law_for(law))
    w = np.zeros((n, n), dtype=np.complex128 if law.is_complex else np.float64)
    diags = None if lead else _row_draws(dlaw, rng, n)
    fused = law.kind == "pareto_symmetric"
    packed = _row_draws(law, rng, lead * n + n * (n - 1) // 2) if fused else None
    at = 0
    for i in range(n):
        if fused:
            diag = packed[at] if lead else diags[i]
            off = packed[at + lead : at + lead + n - i - 1]
            at += lead + n - i - 1
        else:
            diag = _row_draws(dlaw, rng, 1)[0] if lead else diags[i]
            off = _row_draws(law, rng, n - i - 1)
        w[i, i] = float(np.real(diag)) * sd[i, i]
        if i + 1 < n:
            off = off * sd[i, i + 1 :]
            w[i, i + 1 :] = off
            w[i + 1 :, i] = np.conj(off)
    # Hermitian storage keeps a complex matrix with no imaginary part as real
    return w.real.copy() if law.is_complex and not w.imag.any() else w


def monte_carlo_lindeberg_term(
    law: EntryLaw,
    sigma2: float,
    eps: float,
    samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo E[|w|^2; |w| > eps] for one (law, sigma^2) cell, with s.e.

    The closed forms in condition_sums cover every bundled kind; this is the
    independent estimator used to cross-check them.
    """
    if sigma2 < 0 or eps <= 0 or samples < 1:
        raise ValueError("need sigma2 >= 0, eps > 0, samples >= 1")
    w = math.sqrt(sigma2) * law.standard_sample(rng, samples)
    contrib = np.where(np.abs(w) > eps, np.abs(w) ** 2, 0.0)
    est = float(contrib.mean())
    se = float(contrib.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return est, se


def exhaustive_rademacher_moment(profile: VarianceProfile, n: int, k: int) -> float:
    """(1/n) E tr W^k for scaled-sign entries, over all sign assignments.

    The upper triangle (diagonal included) has n(n+1)/2 independent signs;
    the expectation is the plain average of tr W^k over all 2^m assignments.
    """
    sd = np.sqrt(profile.matrix(n))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    m = len(pairs)
    total = 0.0
    for bits in itertools.product((-1.0, 1.0), repeat=m):
        w = np.zeros((n, n))
        for (i, j), s in zip(pairs, bits):
            w[i, j] = s * sd[i, j]
            w[j, i] = s * sd[i, j]
        total += np.trace(np.linalg.matrix_power(w, k))
    return total / (2**m * n)


def mc_trace_moments(
    law: EntryLaw,
    profile: VarianceProfile,
    n: int,
    k_list: list[int],
    trials: int,
    rng: np.random.Generator,
) -> dict[int, tuple[float, float]]:
    """Monte Carlo (1/n) tr W^k means with standard errors, batched.

    Samples the upper triangle directly from the entry law with an
    independent generator (not the library's derived streams) and reads the
    moments off batched eigenvalues.
    """
    sd = np.sqrt(profile.matrix(n))
    dtype = np.complex128 if law.is_complex else np.float64
    w = np.zeros((trials, n, n), dtype=dtype)
    diag_law = diagonal_law_for(law)
    for i in range(n):
        w[:, i, i] = np.real(diag_law.standard_sample(rng, trials)) * sd[i, i]
        for j in range(i + 1, n):
            x = law.standard_sample(rng, trials) * sd[i, j]
            w[:, i, j] = x
            w[:, j, i] = np.conj(x)
    lam = np.linalg.eigvalsh(w)
    out = {}
    for k in k_list:
        stats = np.mean(lam**k, axis=1)
        mean = float(np.mean(stats))
        se = float(np.std(stats, ddof=1) / math.sqrt(trials))
        out[k] = (mean, se)
    return out


def semicircle_quantile_atoms(count: int) -> np.ndarray:
    """Quantile discretization of the semicircle: F^{-1}((j-1/2)/count)."""
    def cdf(x):
        x = np.clip(x, -2.0, 2.0)
        return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi

    targets = (np.arange(count) + 0.5) / count
    lo = np.full(count, -2.0)
    hi = np.full(count, 2.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def exact_poisson_density(atoms, weights, bandwidth: float, grid) -> np.ndarray:
    """(b/pi) sum_i w_i / ((x_i - a)^2 + b^2) in exact rationals, rounded once per point.

    Every input, the float pi included, is taken exactly as its float value.
    """
    b = Fraction(bandwidth)
    pairs = [(Fraction(float(x)), Fraction(float(w))) for x, w in zip(atoms, weights)]
    out = []
    for a in grid:
        a = Fraction(float(a))
        total = sum(w / ((x - a) ** 2 + b * b) for x, w in pairs)
        out.append(float(b * total / Fraction(math.pi)))
    return np.array(out)


def quad_semicircle(f, a: float = -2.0, b: float = 2.0) -> float:
    """Adaptive quadrature of f against the semicircle density."""
    val, _ = quad(
        lambda x: f(x) * math.sqrt(max(4.0 - x * x, 0.0)) / (2.0 * math.pi),
        a,
        b,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    return val


def random_hermitian(rng: np.random.Generator, n: int, complex_entries: bool = False) -> np.ndarray:
    """Dense random Hermitian array with O(1) entries."""
    if complex_entries:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    else:
        a = rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def chained_reduction_costs(w: np.ndarray, eta: float, coeffs: np.ndarray) -> tuple[int, float, float]:
    """(truncated count, delta_truncate, delta_rescale) by the stage chain: the
    truncated matrix W1 built whole, then W3 = c W1, then W1 - W3 and the sum of
    its squared moduli, each cost over n."""
    n = w.shape[0]
    mask = np.abs(w) > eta
    w1 = np.where(mask, 0.0, w)
    w3 = coeffs * w1
    return int(mask.sum()), float(np.sum(np.abs(w[mask]) ** 2)) / n, float(np.sum(np.abs(w1 - w3) ** 2)) / n
