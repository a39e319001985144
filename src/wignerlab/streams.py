"""Deterministic random-stream derivation and the trial fan-out.

Every stochastic routine takes an explicit numpy ``Generator``.  Streams for
distinct purposes are derived from a single master seed through
``SeedSequence`` spawn keys feeding a counter-based Philox generator, so
trials can be dispatched to any number of threads by ``parallel_map`` and
the result of trial r never depends on scheduling order.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

# version of the sampler's stream layout (ensembles.sample); 1 is every
# release before Pareto matrices were drawn in one fill, 2 every release
# before a non-default diagonal law was drawn as one fill ahead of the rest
STREAM_LAYOUT = 3

# domain tags keep unrelated consumers of the same master seed independent
DOMAIN_SAMPLE = 0      # ensemble matrix sampling, path (DOMAIN_SAMPLE, trial)
DOMAIN_REPLACE = 1     # unit-variance replacement draws
DOMAIN_BERNOULLI = 2   # bernstein tail simulations


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by ``path`` under ``master_seed``."""
    if master_seed < 0:
        raise ValueError("master seed must be a nonnegative integer")
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def parallel_map(fn: Callable, items: Sequence, threads: int) -> list:
    """Order-preserving map; results do not depend on the thread count."""
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
