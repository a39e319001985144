"""Concentration bounds and the empirical tails they must dominate.

Closed-form bounds (Hoeffding mgf, Bernstein, and the spectral bound for
linear eigenvalue statistics of bounded-variation test functions) plus
Monte Carlo tail estimators.  Every bound here is used by tests that
check domination: observed deviation frequencies stay below the bound up to
binomial sampling error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import EnsembleSpec, trial_eigenvalues
from .spectral_measures import RampFunction
from .streams import DOMAIN_BERNOULLI, KeyedStreams, stream_keys

__all__ = [
    "TailEstimate",
    "spectral_bound",
    "bernstein_bound",
    "hoeffding_mgf_bound",
    "empirical_tail",
    "bernstein_tail_check",
]

MIN_TAIL_TRIALS = 100


@dataclass(frozen=True)
class TailEstimate:
    """Observed deviation frequency at threshold t next to its closed-form bound.

    The centering in empirical estimates is the cross-trial mean, a surrogate
    for the true expectation with O(1/sqrt(trials)) bias.
    """

    statistic_name: str
    t: float
    empirical_prob: float
    bound: float
    trials: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.empirical_prob <= 1.0:
            raise ValueError("empirical_prob must lie in [0, 1]")
        if self.bound < 0.0:
            raise ValueError("bound must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be positive")

    @property
    def standard_error(self) -> float:
        p = self.empirical_prob
        return math.sqrt(p * (1.0 - p) / self.trials)

    @property
    def dominated(self) -> bool:
        return self.empirical_prob <= self.bound + 3.0 * self.standard_error


def spectral_bound(n: int, t: float) -> float:
    """2 exp(-n t^2/32): deviation of int f dmu_W for BV-1 test functions.

    McDiarmid's 2 exp(-lambda^2/8) at lambda = t sqrt(n)/2: replacing one
    independent row moves the statistic by at most 4/n via rank-two
    perturbation.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not t > 0:
        raise ValueError("t must be positive")
    return 2.0 * math.exp(-n * t * t / 32.0)


def bernstein_bound(second_moment: float, x: float) -> float:
    """exp(-x^2/(2(E[S^2] + x))) for sums of centered variables bounded by 1."""
    if second_moment < 0:
        raise ValueError("second moment must be nonnegative")
    if not x > 0:
        raise ValueError("x must be positive")
    return math.exp(-x * x / (2.0 * (second_moment + x)))


def hoeffding_mgf_bound(a: float, b: float) -> float:
    """exp(2(b-a)^2) >= E exp(X - EX) for X supported on [a, b]."""
    if b < a:
        raise ValueError("need a <= b")
    return math.exp(2.0 * (b - a) ** 2)


def empirical_tail(
    spec: EnsembleSpec,
    ramp: RampFunction,
    t_list: list[float],
    trials: int,
    threads: int = 1,
) -> list[TailEstimate]:
    """Deviation frequencies of int ramp dmu_W across trials vs the spectral bound.

    Per trial the statistic is the ESD integral of the ramp; deviations are
    measured from the cross-trial mean.  Trials use independent derived
    streams indexed by trial number, so the estimate does not depend on how
    many threads compute it.
    """
    if trials < MIN_TAIL_TRIALS:
        raise ValueError(f"need at least {MIN_TAIL_TRIALS} trials")
    if any(not t > 0 for t in t_list):
        raise ValueError("thresholds must be positive")
    stats = ramp.value(trial_eigenvalues(spec, trials, threads)).mean(axis=1)
    center = float(np.mean(stats))
    dev = np.abs(stats - center)
    name = f"ramp({ramp.p:g},{ramp.q:g})"
    out = []
    for t in t_list:
        emp = float(np.mean(dev >= t))
        out.append(TailEstimate(name, float(t), emp, spectral_bound(spec.n, t), trials))
    return out


def bernstein_tail_check(
    bernoulli_probs: list[float],
    x: float,
    trials: int,
    seed: int = 0,
) -> TailEstimate:
    """Empirical P(sum(B_i - p_i) >= x) against the Bernstein bound.

    The bound uses the exact second moment sum p_i(1 - p_i); each trial draws
    the coin vector from its own derived stream, that of
    ``derive_rng(seed, DOMAIN_BERNOULLI, trial)``, replayed from one
    ``stream_keys`` pass through one reused generator.
    """
    probs = np.asarray(bernoulli_probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size == 0:
        raise ValueError("need a nonempty vector of probabilities")
    if np.any(probs < 0) or np.any(probs > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be positive")
    if not x > 0:
        raise ValueError("x must be positive")
    hits = 0
    for rng in KeyedStreams(stream_keys(seed, DOMAIN_BERNOULLI, 0, trials)):
        coins = rng.random(probs.size) < probs
        if float(coins.sum() - probs.sum()) >= x:
            hits += 1
    second_moment = float(np.sum(probs * (1.0 - probs)))
    return TailEstimate(
        "bernoulli_sum", float(x), hits / trials, bernstein_bound(second_moment, x), trials
    )
