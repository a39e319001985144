"""Deterministic random-stream derivation and the trial fan-out.

Every stochastic routine takes an explicit numpy ``Generator``.  Stream
(domain, t) of a master seed is a counter-based Philox generator with the
key ``SeedSequence(master_seed, spawn_key=(domain, t))`` would give it, so
trials can be dispatched to any number of threads by ``parallel_map`` and
the result of trial r never depends on scheduling order.

A Philox stream is fixed by its 128-bit key and a zero counter, so no stream
builds a ``SeedSequence``: ``stream_keys`` computes the keys of a run of
trial indices in vectorised passes, and ``KeyedStreams`` replays them
through one generator whose state is reset to each key in turn.  The
one-stream API, ``derive_rng``, is a run of one.
"""
from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

# version of the sampler's stream layout (ensembles.sample); 1 is every
# release before Pareto matrices were drawn in one fill, 2 every release
# before a non-default diagonal law was drawn as one fill ahead of the rest
STREAM_LAYOUT = 3

# domain tags keep unrelated consumers of the same master seed independent
DOMAIN_SAMPLE = 0      # ensemble matrix sampling, path (DOMAIN_SAMPLE, trial)
DOMAIN_REPLACE = 1     # unit-variance replacement draws
DOMAIN_BERNOULLI = 2   # bernstein tail simulations

# numpy's SeedSequence: pool size, entropy hash, output hash and mix constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# trials per array pass of stream_keys; its temporaries take about 80 bytes a trial
_KEY_CHUNK = 1024


def derive_rng(master_seed: int, domain: int, index: int) -> np.random.Generator:
    """A fresh generator for stream (domain, index) under ``master_seed``: item 0 of
    the ``KeyedStreams`` of ``stream_keys(master_seed, domain, index, index + 1)``."""
    return KeyedStreams(stream_keys(master_seed, domain, index, index + 1))[0]


def _word_count(value: int) -> int:
    """How many 32-bit entropy words ``SeedSequence`` makes of a nonnegative int."""
    return max(1, -(-value.bit_length() // 32))


def _hashmix(value, const: int, mult: int = _MULT_A):
    """(hash of ``value`` under hash constant ``const``, the next constant).

    ``value`` is a uint32 array; the constants follow a fixed sequence, so
    they never depend on the data.
    """
    const2 = const * mult & _MASK32
    value = (value ^ const) * const2 & _MASK32
    return value ^ value >> 16, const2


def _mix(x, y):
    """``SeedSequence``'s mix of pool word ``x`` with hashed word ``y``."""
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def stream_keys(master_seed: int, domain: int, first: int, stop: int) -> np.ndarray:
    """Philox keys of streams (domain, t) for t = first..stop-1, as a (stop - first, 2) uint64 array.

    Row t - first equals ``SeedSequence(master_seed, spawn_key=(domain,
    t)).generate_state(2, np.uint64)``, the Philox key numpy would seed from
    that ``SeedSequence``.  The seed words, padded to the pool of 4, and the
    domain word mix the same way for every trial, so numpy mixes them once.  Only
    the trial word's four mixes (eight for t >= 2**32, which has two words)
    and the four output hashes run per trial, on arrays of ``_KEY_CHUNK``
    trials at a time, so the pass holds little beyond its 16-byte rows.
    """
    if master_seed < 0:
        raise ValueError("master seed must be a nonnegative integer")
    if domain < 0:
        raise ValueError("domain must be a nonnegative integer")
    if not (0 <= first < 2**64 and first <= stop <= 2**64):
        raise ValueError("trial indices must lie in [0, 2**64), with first <= stop")
    pool = [int(w) for w in np.random.SeedSequence(master_seed, spawn_key=(domain,)).pool]
    # the hash constant steps once per hash: 4 fill the pool, 12 cross-mix it, and
    # 4 mix in each word past the pool (the seed's, padded to 4, then the domain's)
    later = max(_POOL_SIZE, _word_count(master_seed)) - _POOL_SIZE + _word_count(domain)
    const = _INIT_A * pow(_MULT_A, _POOL_SIZE**2 + _POOL_SIZE * later, 2**32) & _MASK32
    keys = np.empty((stop - first, 2), dtype=np.uint64)
    for lo in range(first, stop, _KEY_CHUNK):
        hi = min(lo + _KEY_CHUNK, stop)
        keys[lo - first : hi - first] = _chunk_keys(pool, const, lo, hi)
    return keys


def _chunk_keys(pool: list[int], const: int, lo: int, hi: int) -> np.ndarray:
    """``stream_keys`` rows of trials lo..hi-1 from the pool and hash constant after the domain word."""
    t = np.uint64(lo) + np.arange(hi - lo, dtype=np.uint64)
    low = (t & _MASK32).astype(np.uint32)
    words = list(pool)
    for dst in range(_POOL_SIZE):
        h, const = _hashmix(low, const)
        words[dst] = _mix(words[dst], h)
    if hi > 2**32:  # some t >= 2**32: its high word mixes in too
        high, two = (t >> 32).astype(np.uint32), t >> 32 > 0
        for dst in range(_POOL_SIZE):
            h, const = _hashmix(high, const)
            words[dst] = np.where(two, _mix(words[dst], h), words[dst])
    const = _INIT_B
    out = []
    for word in words:
        h, const = _hashmix(word, const, _MULT_B)
        out.append(h.astype(np.uint64))
    return np.stack((out[0] | out[1] << 32, out[2] | out[3] << 32), axis=1)


class KeyedStreams(Sequence):
    """The streams of ``keys`` (rows of ``stream_keys``) through one reused generator.

    Item i resets the generator's Philox state to key i with a zero counter
    and an empty buffer, the state a fresh Philox seeded with that key
    starts from, and returns it.  An item therefore draws its stream only
    until the next item is taken: use each one before taking the next, and
    one instance per thread.
    """

    def __init__(self, keys: np.ndarray) -> None:
        self._keys = keys
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": None},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._bitgen = np.random.Philox(0)
        self._rng = np.random.Generator(self._bitgen)

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i: int) -> np.random.Generator:
        self._state["state"]["key"] = self._keys[i].tolist()  # the state setter reads Python ints fastest
        self._bitgen.state = self._state
        return self._rng


def parallel_map(fn: Callable, items: Sequence, threads: int) -> list:
    """Order-preserving map; results do not depend on the thread count.

    Worker w maps items w, w + threads, ...: one future (1.6 kB) per worker, and no more
    workers than items."""
    threads = min(threads, len(items))
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        stripes = list(pool.map(lambda w: [fn(x) for x in items[w::threads]], range(threads)))
    return [stripes[i % threads][i // threads] for i in range(len(items))]
