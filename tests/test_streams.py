"""Derived random streams: addressable, independent, scheduling-proof."""
from __future__ import annotations

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import seed_sequence_rng
from wignerlab.streams import (
    _KEY_CHUNK,
    DOMAIN_BERNOULLI,
    DOMAIN_REPLACE,
    DOMAIN_SAMPLE,
    KeyedStreams,
    derive_rng,
    parallel_map,
    stream_keys,
)


def test_same_address_reproduces_the_stream():
    a = derive_rng(123, DOMAIN_SAMPLE, 7).standard_normal(32)
    b = derive_rng(123, DOMAIN_SAMPLE, 7).standard_normal(32)
    assert np.array_equal(a, b)


def test_domains_are_disjoint():
    assert tuple(sorted((DOMAIN_SAMPLE, DOMAIN_REPLACE, DOMAIN_BERNOULLI))) == (0, 1, 2)
    draws = {
        domain: derive_rng(5, domain, 0).standard_normal(8).tobytes()
        for domain in (DOMAIN_SAMPLE, DOMAIN_REPLACE, DOMAIN_BERNOULLI)
    }
    assert len(set(draws.values())) == 3


def test_trials_and_seeds_address_distinct_streams():
    streams = {
        (seed, trial): derive_rng(seed, DOMAIN_SAMPLE, trial).standard_normal(8).tobytes()
        for seed in (0, 1)
        for trial in range(4)
    }
    assert len(set(streams.values())) == len(streams)


def test_negative_master_seed_rejected():
    with pytest.raises(ValueError, match="master seed must be a nonnegative integer"):
        derive_rng(-1, DOMAIN_SAMPLE, 0)


# ---------------------------------------------------------------------------
# stream_keys and KeyedStreams: the trial loops' streams without a SeedSequence each
# ---------------------------------------------------------------------------

DOMAINS = (DOMAIN_SAMPLE, DOMAIN_REPLACE, DOMAIN_BERNOULLI)


def _seed_sequence_key(seed: int, domain: int, trial: int) -> np.ndarray:
    return np.random.SeedSequence(seed, spawn_key=(domain, trial)).generate_state(2, np.uint64)


@pytest.mark.parametrize("seed", (0, 1, 2**32 - 1, 2**32, 2**64 - 1))
@pytest.mark.parametrize("domain", DOMAINS)
def test_stream_keys_equal_seed_sequence(seed, domain):
    """One word of seed or two; trial indices up to the last one-word index and past it,
    and a range whose last index alone has two words."""
    for first, stop in ((0, 2), (4095, 4096), (2**32 - 1, 2**32 + 2), (2**32 - 4, 2**32 + 1), (2**64 - 2, 2**64)):
        keys = stream_keys(seed, domain, first, stop)
        assert keys.shape == (stop - first, 2) and keys.dtype == np.uint64
        want = np.array([_seed_sequence_key(seed, domain, t) for t in range(first, stop)])
        assert np.array_equal(keys, want), (first, stop)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    domain=st.sampled_from(DOMAINS),
    first=st.integers(0, 2**64 - 1),
    count=st.integers(1, 5),
)
def test_stream_keys_equal_seed_sequence_over_uint64(seed, domain, first, count):
    stop = min(first + count, 2**64)
    want = np.array([_seed_sequence_key(seed, domain, t) for t in range(first, stop)])
    assert np.array_equal(stream_keys(seed, domain, first, stop), want)


def test_stream_keys_of_a_range_are_its_rows():
    """Keys depend on the trial index only, not on where a range starts or where
    its passes of _KEY_CHUNK trials begin; a later pass may reach t >= 2**32."""
    whole = stream_keys(17, DOMAIN_SAMPLE, 0, 3 * _KEY_CHUNK + 5)
    for first, stop in ((128, 256), (_KEY_CHUNK - 3, 2 * _KEY_CHUNK + 9)):
        assert np.array_equal(stream_keys(17, DOMAIN_SAMPLE, first, stop), whole[first:stop])
    assert stream_keys(17, DOMAIN_SAMPLE, 5, 5).shape == (0, 2)
    first, stop = 2**32 - _KEY_CHUNK - 500, 2**32 + 600
    want = np.array([_seed_sequence_key(2**32, DOMAIN_REPLACE, t) for t in range(first, stop)])
    assert np.array_equal(stream_keys(2**32, DOMAIN_REPLACE, first, stop), want)


def test_stream_keys_hold_about_their_16_bytes_a_trial():
    """The pass runs _KEY_CHUNK trials at a time, so beyond the (count, 2) uint64
    result it holds a fixed 100 kB or so, not about 80 bytes per trial."""
    stream_keys(5, DOMAIN_SAMPLE, 0, 10)
    for count in (20_000, 200_000):
        tracemalloc.start()
        try:
            keys = stream_keys(5, DOMAIN_SAMPLE, 0, count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert keys.nbytes == 16 * count
        assert peak <= keys.nbytes + 128 * _KEY_CHUNK, count


@pytest.mark.parametrize(
    "args, match",
    [
        ((-1, DOMAIN_SAMPLE, 0, 1), "master seed"),
        ((0, -1, 0, 1), "domain"),
        ((0, DOMAIN_SAMPLE, -1, 1), "trial indices"),
        ((0, DOMAIN_SAMPLE, 3, 2), "trial indices"),
        ((0, DOMAIN_SAMPLE, 0, 2**64 + 1), "trial indices"),
    ],
)
def test_stream_keys_reject_invalid_addresses(args, match):
    with pytest.raises(ValueError, match=match):
        stream_keys(*args)


# every generator call the fills make: gaussian, rademacher, uniform and pareto
FILL_DRAWS = {
    "standard_normal": lambda rng: rng.standard_normal(37),
    "integers": lambda rng: rng.integers(0, 2, 37),
    "uniform": lambda rng: rng.uniform(-1.5, 1.5, 37),
    "pareto": lambda rng: np.concatenate((rng.random(37), rng.integers(0, 2, 37))),
}


@pytest.mark.parametrize("kind", FILL_DRAWS)
@pytest.mark.parametrize("seed", (0, 2**64 - 1))
def test_keyed_streams_draw_derive_rng_bytes(kind, seed):
    """Each item of one reused generator, and each derive_rng stream, draws what
    numpy's Philox seeded through a SeedSequence draws, even after the previous
    item left a half-used buffer and a spare 32-bit word."""
    draw = FILL_DRAWS[kind]
    streams = KeyedStreams(stream_keys(seed, DOMAIN_SAMPLE, 7, 12))
    assert len(streams) == 5
    for t, rng in enumerate(streams, start=7):
        want = draw(seed_sequence_rng(seed, DOMAIN_SAMPLE, t)).tobytes()
        assert draw(rng).tobytes() == want, t
        assert draw(derive_rng(seed, DOMAIN_SAMPLE, t)).tobytes() == want, t
        rng.integers(0, 2**16, 3, dtype=np.uint32)  # leaves buffer_pos and has_uint32 set
        rng.random(3)
    assert streams[2] is streams[0]
    assert draw(streams[2]).tobytes() == draw(seed_sequence_rng(seed, DOMAIN_SAMPLE, 9)).tobytes()


# ---------------------------------------------------------------------------
# parallel_map: the trial fan-out
# ---------------------------------------------------------------------------


def test_parallel_map_starts_no_more_workers_than_items(monkeypatch):
    """Three items on 64 requested threads start a pool of three workers, one
    item starts none, and the results keep item order."""
    pools = []

    class Recorder(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr("wignerlab.streams.ThreadPoolExecutor", Recorder)
    assert parallel_map(lambda x: x * x, [3, 1, 2], 64) == [9, 1, 4]
    assert pools == [3]
    assert parallel_map(lambda x: -x, [5], 8) == [-5]
    assert pools == [3]
