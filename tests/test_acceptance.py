"""Acceptance suite: eleven numbered end-to-end criteria.

Each criterion is one test whose ``pytest -v`` line is its pass/fail verdict;
on success it also prints a one-line summary (visible with ``-s``).  The
underlying theorems are asymptotic, so the checks pair exact small-scale
oracles with finite-size tolerances, and criteria with stated wall-time
budgets assert the elapsed time as well.
"""
from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from wignerlab.cli_runner import ExperimentConfig, parse_config_text, run
from wignerlab.concentration import (
    bernstein_tail_check,
    empirical_tail,
    hoeffding_mgf_bound,
    spectral_bound,
)
from wignerlab.ensembles import (
    EntryLaw,
    VarianceProfile,
    condition_sums,
    gaussian_row_check,
    heavy_tail_spec,
    sample_trial,
    wigner_unit_spec,
)
from wignerlab.hermitian_core import (
    HermitianMatrix,
    eigenvalues_desc,
    frobenius_norm,
    numeric_rank,
    principal_minor,
)
from wignerlab.reductions import pipeline, rescale_to_row_bound, unit_variance_plan
from wignerlab.spectral_measures import (
    RampFunction,
    SemicircleLaw,
    esd,
    kolmogorov_distance,
    levy_distance,
    semicircle_moment,
)
from wignerlab.stieltjes import (
    invert_on_grid,
    recursion_residual,
    semicircle_stieltjes,
    stieltjes_atomic,
)
from wignerlab.walk_combinatorics import (
    WalkClass,
    all_dyck_paths,
    classify,
    dyck_of,
    enumerate_canonical_walks,
    walk_sum_moment,
)

from _oracles import exhaustive_rademacher_moment, mc_trace_moments, random_hermitian

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def announce(number: int, text: str) -> None:
    print(f"criterion {number:02d} PASS — {text}")


def rand_hm(rng: np.random.Generator, n: int, complex_entries: bool = False) -> HermitianMatrix:
    return HermitianMatrix(random_hermitian(rng, n, complex_entries))


def trace_moment_mean(spec, k: int, trials: int) -> float:
    """Mean of (1/n) tr W^k over derived-stream trials."""
    vals = [float(np.mean(eigenvalues_desc(sample_trial(spec, r)) ** k)) for r in range(trials)]
    return float(np.mean(vals))


def test_criterion_01_catalan_moments():
    """Even semicircle moments are the Catalan numbers, exactly and instantly."""
    t0 = time.perf_counter()
    values = tuple(semicircle_moment(k) for k in (2, 4, 6, 8, 10))
    elapsed = time.perf_counter() - t0
    assert values == (1, 2, 5, 14, 42)
    assert all(isinstance(v, int) for v in values)
    assert elapsed < 1e-3
    announce(1, f"semicircle moments k=2..10 equal (1, 2, 5, 14, 42) in {elapsed * 1e6:.0f} us")


def test_criterion_02_moment_method_end_to_end():
    """Sampled trace moments at n=512 hit the Catalan targets within tolerance."""
    t0 = time.perf_counter()
    spec = wigner_unit_spec(512, EntryLaw.gaussian_real(), seed=2)
    eigs = [eigenvalues_desc(sample_trial(spec, r)) for r in range(20)]
    tol = {2: 0.05, 3: 0.15, 4: 0.15, 5: 0.5, 6: 0.5}
    gaps = {}
    for k, bound in tol.items():
        mean = float(np.mean([np.mean(lam**k) for lam in eigs]))
        gaps[k] = abs(mean - semicircle_moment(k))
        assert gaps[k] <= bound, f"k={k}: |{mean}| off by {gaps[k]} > {bound}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    worst = max(gaps, key=gaps.get)
    announce(2, f"20-trial moments k=2..6 within tolerance (worst k={worst}: {gaps[worst]:.3f})")


def test_criterion_03_oracle_equivalence():
    """The walk-sum oracle matches exhaustive enumeration and Monte Carlo."""
    for n in (1, 2, 3):
        profile = VarianceProfile.uniform(1.0 / n)
        law = EntryLaw.rademacher()
        for k in (1, 2, 3, 4):
            exact = exhaustive_rademacher_moment(profile, n, k)
            assert abs(walk_sum_moment(law, profile, n, k) - exact) <= 1e-12
    n, trials = 3, 100_000
    profile = VarianceProfile.uniform(1.0 / n)
    law = EntryLaw.rademacher()
    mc = mc_trace_moments(law, profile, n, [1, 2, 3, 4], trials, np.random.default_rng(3))
    for k, (mean, se) in mc.items():
        gap = abs(walk_sum_moment(law, profile, n, k) - mean)
        assert gap <= 4.0 * se + 1e-12, f"k={k}: {gap} > 4 x {se}"
    announce(3, "walk sums equal sign-enumeration exactly and Monte Carlo within 4 s.e.")


def test_criterion_04_walk_census_and_dyck_bijection():
    """Double-tree counts are Catalan and the Dyck map is a bijection, k <= 10."""
    t0 = time.perf_counter()
    for k in range(2, 11, 2):
        doubles = [w for w in enumerate_canonical_walks(k) if classify(w) is WalkClass.DOUBLE_TREE]
        catalan = math.comb(k, k // 2) // (k // 2 + 1)
        assert len(doubles) == catalan
        images = {tuple(dyck_of(w).heights) for w in doubles}
        assert len(images) == len(doubles)  # injective
        assert images == {tuple(p.heights) for p in all_dyck_paths(k)}  # onto
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(4, f"double-tree classes match Catalan counts and Dyck paths up to k=10 in {elapsed:.1f}s")


def test_criterion_05_metric_convergence():
    """Single-trial Levy distance to the semicircle shrinks as n grows."""
    t0 = time.perf_counter()
    sc = SemicircleLaw()
    dist = {}
    for n in (256, 1024, 4096):
        spec = wigner_unit_spec(n, EntryLaw.gaussian_real(), seed=5)
        dist[n] = levy_distance(esd(eigenvalues_desc(sample_trial(spec, 0))), sc)
    assert dist[1024] <= 0.08
    assert dist[4096] <= 0.05
    assert dist[256] > dist[1024] > dist[4096]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    announce(
        5,
        "Levy distance to semicircle fell "
        f"{dist[256]:.4f} -> {dist[1024]:.4f} -> {dist[4096]:.4f} over n=256,1024,4096 "
        f"in {elapsed:.0f}s",
    )


def test_criterion_06_inequality_suite():
    """Five perturbation inequalities hold on 200 random instances each."""
    rng = np.random.default_rng(6)
    checked = {name: 0 for name in ("hoffman_wielandt", "interlacing", "levy_cube", "rank", "bv_rank")}

    for _ in range(200):  # Hoffman-Wielandt: spectra move less than the matrices
        n = int(rng.integers(2, 65))
        a, b = rand_hm(rng, n, True), rand_hm(rng, n, True)
        gap = float(np.sum((eigenvalues_desc(a) - eigenvalues_desc(b)) ** 2))
        diff = HermitianMatrix(a.entries - b.entries)
        assert gap <= frobenius_norm(diff) ** 2 + 1e-8
        checked["hoffman_wielandt"] += 1

    for _ in range(200):  # eigenvalues of the leading principal minor interlace
        n = int(rng.integers(2, 65))
        a = rand_hm(rng, n, True)
        lam = eigenvalues_desc(a)
        mu = eigenvalues_desc(principal_minor(a, range(n - 1)))
        assert np.all(lam[1:] <= mu + 1e-8)
        assert np.all(mu <= lam[:-1] + 1e-8)
        checked["interlacing"] += 1

    for trial in range(200):  # cubed Levy distance vs normalized Frobenius gap
        n = int(rng.integers(2, 65))
        a = rand_hm(rng, n, True)
        if trial % 2:
            b = rand_hm(rng, n, True)
        else:
            delta = 10.0 ** rng.uniform(-3, 0)
            b = HermitianMatrix(a.entries + delta * random_hermitian(rng, n, True))
        lv = levy_distance(esd(eigenvalues_desc(a)), esd(eigenvalues_desc(b)))
        diff = HermitianMatrix(a.entries - b.entries)
        assert lv**3 <= frobenius_norm(diff) ** 2 / n + 1e-6
        checked["levy_cube"] += 1

    def low_rank_pair(n: int) -> tuple[HermitianMatrix, HermitianMatrix, int]:
        a = rand_hm(rng, n, True)
        r = int(rng.integers(0, min(6, n)))
        bump = np.zeros((n, n), dtype=complex)
        for _ in range(r):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            tau = float(rng.uniform(0.5, 1.5) * rng.choice((-1.0, 1.0)))
            bump += tau * np.outer(v, v.conj())
        b = HermitianMatrix(a.entries + bump)
        rank = numeric_rank(HermitianMatrix(bump))
        return a, b, rank

    for _ in range(200):  # Kolmogorov distance vs perturbation rank
        n = int(rng.integers(2, 65))
        a, b, rank = low_rank_pair(n)
        kd = kolmogorov_distance(esd(eigenvalues_desc(a)), esd(eigenvalues_desc(b)))
        assert kd <= rank / n + 1e-9
        checked["rank"] += 1

    for _ in range(200):  # ramp integrals (total variation 1) vs perturbation rank
        n = int(rng.integers(2, 65))
        a, b, rank = low_rank_pair(n)
        p = float(rng.uniform(-2.0, 1.5))
        f = RampFunction(p, p + float(rng.uniform(0.1, 1.0)))
        gap = abs(
            f.integrate_step(esd(eigenvalues_desc(a))) - f.integrate_step(esd(eigenvalues_desc(b)))
        )
        assert gap <= rank / n + 1e-9
        checked["bv_rank"] += 1

    assert all(count == 200 for count in checked.values())
    announce(6, "0 violations in 5 x 200 random instances of the perturbation inequalities")


def test_criterion_07_stieltjes_route():
    """Sampled transforms sit at the semicircle fixed point and invert cleanly."""
    golden = complex(0.0, (math.sqrt(5.0) - 1.0) / 2.0)
    spec = wigner_unit_spec(1024, EntryLaw.gaussian_real(), seed=7)
    values = [
        stieltjes_atomic(esd(eigenvalues_desc(sample_trial(spec, r))), 1j) for r in range(50)
    ]
    gap = abs(np.mean(values) - golden)
    assert gap <= 0.05

    residuals = {
        n: recursion_residual(wigner_unit_spec(n, EntryLaw.gaussian_real(), seed=7), 1j, trials=8)
        for n in (16, 256, 1024)
    }
    assert residuals[16] > residuals[256] > residuals[1024]
    assert residuals[1024] <= 0.05

    grid = np.arange(-3.0, 3.0 + 1e-9, 1e-3)
    approx = invert_on_grid(semicircle_stieltjes, 1e-2, grid)
    sc = SemicircleLaw()
    l1 = float(np.trapezoid(np.abs(approx.values - np.array([sc.density(a) for a in grid])), grid))
    assert l1 <= 0.02
    announce(
        7,
        f"s_n(i) within {gap:.3f} of the fixed point; residual {residuals[1024]:.3f} at n=1024; "
        f"inversion L1 error {l1:.3f}",
    )


def test_criterion_08_concentration_domination():
    """Closed-form tail bounds dominate the observed deviation frequencies."""
    spec = wigner_unit_spec(64, EntryLaw.gaussian_real(), seed=8)
    estimates = empirical_tail(spec, RampFunction(-0.5, 0.5), [0.25, 0.5, 1.0], 2000, threads=4)
    for est in estimates:
        assert est.bound == spectral_bound(64, est.t)
        assert est.dominated, f"t={est.t}: {est.empirical_prob} > {est.bound} + 3 s.e."

    coins = bernstein_tail_check([0.01] * 100, 5.0, trials=10_000, seed=8)
    assert coins.bound == pytest.approx(math.exp(-25.0 / (2.0 * (0.99 + 5.0))), rel=1e-12)
    assert coins.dominated
    single = bernstein_tail_check([0.5], 0.4, trials=10_000, seed=8)
    assert single.empirical_prob == pytest.approx(0.5, abs=3.0 * single.standard_error)
    assert single.dominated

    rng = np.random.default_rng(88)
    for law in (EntryLaw.rademacher(), EntryLaw.uniform_bounded()):
        x = law.standard_sample(rng, 200_000)
        vals = np.exp(x - x.mean())
        se = vals.std(ddof=1) / math.sqrt(x.size)
        assert vals.mean() <= hoeffding_mgf_bound(-law.abs_bound, law.abs_bound) + 3.0 * se
    announce(8, "spectral, Bernstein, and Hoeffding bounds dominate their empirical tails")


def test_criterion_09_reductions_contract():
    """Rescaling, replacement, and truncation obey their perturbation bounds."""
    rng = np.random.default_rng(9)
    C = 1.0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        sig = rng.uniform(0.0, 3.0 / n, size=(n, n))
        sig = np.triu(sig) + np.triu(sig, 1).T
        coeffs = rescale_to_row_bound(sig, C)
        rows = np.sum(coeffs**2 * sig, axis=1)
        assert np.all(rows <= C + 1e-12)
        removed = float(np.sum((1.0 - coeffs**2) * sig))
        budget = 2.0 * float(np.sum(np.clip(sig.sum(axis=1) - C, 0.0, None)))
        assert removed <= budget + 1e-9

    n = 32
    sig = rng.uniform(0.0, 4.0 / n, size=(n, n))
    sig = np.triu(sig) + np.triu(sig, 1).T
    plan = unit_variance_plan(sig)
    off = ~np.eye(n, dtype=bool)
    assert np.array_equal(plan.replace_mask, (sig <= 1.0 / (2 * n)) & off)
    kept = off & ~plan.replace_mask
    assert plan.scale[kept] ** 2 * sig[kept] == pytest.approx(np.full(kept.sum(), 1.0 / n))

    n, eta, trials = 256, 0.1, 20  # eta well inside the entry range so truncation actually fires
    spec = wigner_unit_spec(n, EntryLaw.gaussian_real(), seed=9)
    expect = condition_sums(spec, C, epsilons=(eta,)).lindeberg_normalized[0][1]
    deltas = np.array(
        [
            pipeline(sample_trial(spec, r), spec, eta=eta, C=C)[1].frobenius_delta_sq_per_stage[0]
            for r in range(trials)
        ]
    )
    se = deltas.std(ddof=1) / math.sqrt(trials)
    assert abs(deltas.mean() - expect) <= 4.0 * se
    announce(9, "row bound, change bound, exact 1/n replacement, and truncation identity hold")


def test_criterion_10_infinite_variance_regime():
    """The heavy-tail ensemble still satisfies the row conditions and the law."""
    t0 = time.perf_counter()
    gauss = gaussian_row_check(heavy_tail_spec(10_000, seed=10), epsilons=(1.0,))
    tail_sum = dict(gauss.tail_prob_sums)[1.0]
    assert tail_sum <= 0.1
    assert abs(gauss.truncated_variance_sum - 1.0) <= 0.1

    spec = heavy_tail_spec(2048, seed=10)
    lv = levy_distance(esd(eigenvalues_desc(sample_trial(spec, 0))), SemicircleLaw())
    elapsed = time.perf_counter() - t0
    assert lv <= 0.1
    assert elapsed < 300.0
    announce(
        10,
        f"heavy-tail conditions (i)={tail_sum:.4f}, (iii) gap "
        f"{abs(gauss.truncated_variance_sum - 1.0):.2e}; Levy distance {lv:.4f} at n=2048",
    )


def test_criterion_11_reproducibility(tmp_path):
    """Bundled configs give byte-identical CSVs at 1, 2, and 8 threads."""
    for name in ("moments.cfg", "concentration.cfg"):
        mapping = parse_config_text((CONFIG_DIR / name).read_text())
        mapping["command"] = name.split(".")[0]
        outputs = []
        for threads in (1, 2, 8):
            mapping["out"] = str(tmp_path / f"{mapping['command']}-t{threads}")
            mapping["threads"] = str(threads)
            run(ExperimentConfig.from_mapping(mapping))
            manifest = json.loads(Path(mapping["out"], "manifest.json").read_text())
            outputs.append(manifest["checksums"])
        assert outputs[0] == outputs[1] == outputs[2]
    announce(11, "bundled configs reproduce byte-identical CSVs at 1, 2, and 8 threads")
