"""Closed-walk combinatorics behind the moment method.

(1/n) E tr W^k expands into a sum over closed walks of length k; walks group
into isomorphism classes represented by canonical walks (first-appearance
relabelings, a restricted-growth condition).  Without its closing 1 a
canonical walk of length k is a restricted-growth string of k items, so the
census is the partition lattice of k items, counted by Bell numbers.  The
census is built as one int8 array per (k, t), a row per walk and no object
per walk; the CLI and the exact oracle read these blocks, and
``enumerate_gamma`` wraps their rows in ``CanonicalWalk`` for per-walk
callers.  Every walk is read through one crossing table, how often it steps
a -> b.  Classes split into those with an edge traversed exactly once
(expectation zero for centered entries), double trees (each edge exactly
twice, t = k/2 + 1 vertices, counted by Catalan numbers via a height
bijection with Dyck paths), and the rest (vanishing weight in the limit).
``classify`` is the per-walk reference rule; the census classifies a whole
block at once from sorted crossing codes, and a test ties that block rule to
``classify`` on every walk up to k = 10.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .ensembles import EntryLaw, VarianceProfile, diagonal_law_for

__all__ = [
    "CanonicalWalk",
    "WalkClass",
    "DyckPath",
    "enumerate_gamma",
    "enumerate_canonical_walks",
    "census_blocks",
    "classify",
    "dyck_of",
    "all_dyck_paths",
    "walk_sum_moment",
]

# run-time policy caps for the exact trace-moment oracle (cost: see walk_sum_moment)
ORACLE_MAX_N = 6
ORACLE_MAX_K = 8

# rows per census block handed to a caller; bounds the memory of per-row work
_CHUNK = 1 << 14


@dataclass(frozen=True)
class CanonicalWalk:
    """Closed walk on labels {1..t} with the restricted-growth property.

    sequence[0] == sequence[-1] == 1 and each new label exceeds the previous
    maximum by exactly 1, so the walk is the lexicographically least member
    of its isomorphism class.
    """

    sequence: tuple[int, ...]

    def __post_init__(self) -> None:
        seq = tuple(int(v) for v in self.sequence)
        object.__setattr__(self, "sequence", seq)
        if len(seq) < 2:
            raise ValueError("a closed walk has at least one step")
        if seq[0] != 1 or seq[-1] != 1:
            raise ValueError("canonical walk must start and end at 1")
        mx = 1
        for v in seq:
            if v < 1 or v > mx + 1:
                raise ValueError("labels must satisfy the restricted-growth condition")
            mx = max(mx, v)

    @classmethod
    def _trusted(cls, sequence: tuple[int, ...]) -> "CanonicalWalk":
        """Wrap ``sequence`` without the restricted-growth re-check.

        For in-package producers only, as ``HermitianMatrix._trusted``:
        ``sequence`` must be a tuple of ints that is already a canonical walk,
        as every row of ``_rgs_block`` is by construction.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "sequence", sequence)
        return self

    @property
    def k(self) -> int:
        return len(self.sequence) - 1

    @property
    def t(self) -> int:
        return max(self.sequence)


def _crossings(seq: Sequence[int]) -> Counter:
    """The crossing table of a walk: how often it steps a -> b."""
    return Counter(zip(seq, seq[1:]))


class WalkClass(Enum):
    SINGLE_EDGE = "single_edge"
    DOUBLE_TREE = "double_tree"
    MULTI_OTHER = "multi_other"


_CLASS_CODE = {c: i for i, c in enumerate(WalkClass)}


def classify(walk: CanonicalWalk) -> WalkClass:
    """Sort a canonical walk into the three expectation regimes.

    Reads only the crossing table.  single_edge: some edge traversed exactly
    once, its two directions summing to 1 (zero expectation for centered
    entries).  double_tree: no such edge and t = k/2 + 1.  Every edge is then
    crossed at least twice, so the walk's skeleton has at most k/2 edges; a
    connected graph on k/2 + 1 vertices needs k/2, so the skeleton of the
    connected walk is a tree whose edges are each crossed twice.  A closed
    walk crosses a tree edge as often in each direction, hence once each way;
    the table is checked for exactly that rather than trusted.
    multi_other: everything else.
    """
    steps = _crossings(walk.sequence)
    if any(c + (steps[b, a] if a != b else 0) == 1 for (a, b), c in steps.items()):
        return WalkClass.SINGLE_EDGE
    if walk.k % 2 == 0 and walk.t == walk.k // 2 + 1:
        if not all(a != b and c == 1 and steps[b, a] == 1 for (a, b), c in steps.items()):
            raise AssertionError("t = k/2 + 1 walk without a double-tree skeleton")
        return WalkClass.DOUBLE_TREE
    return WalkClass.MULTI_OTHER


def _rgs_block(k: int, t: int) -> np.ndarray:
    """Every canonical walk of length k on exactly t labels: an (N, k+1) int8 array.

    Rows are in lex order and end with the closing 1.  The walks grow one step
    at a time over the whole block: a prefix with maximum m takes the labels
    lo..min(m+1, t) in order, where lo = m + 1 when only a new label still
    leaves enough steps to reach t labels and lo = 1 otherwise, and none when
    not even that does.  Each prefix's children follow it in label order, so
    the block stays in lex order.
    """
    rows = np.ones((1, 1), dtype=np.int8)
    top = np.ones(1, dtype=np.int8)
    for s in range(1, k):
        left = k - 1 - s  # free steps after this one
        lo = np.where(top + left >= t, 1, top + 1)
        count = np.where(top + 1 + left >= t, np.minimum(top + 1, t) - lo + 1, 0)
        parent = np.repeat(np.arange(len(rows)), count)
        first = np.cumsum(count) - count  # where each prefix's children start
        label = (lo[parent] + np.arange(len(parent)) - first[parent]).astype(np.int8)
        rows = np.column_stack((rows[parent], label))
        top = np.maximum(top[parent], label)
    rows = rows[top == t]
    return np.column_stack((rows, np.ones(len(rows), dtype=np.int8)))


def _classify_block(rows: np.ndarray, t: int) -> np.ndarray:
    """``classify`` over a block of canonical walks on t labels, as class codes.

    Code i stands for ``list(WalkClass)[i]``.  Each step a -> b has the
    undirected crossing code min(a, b)(k+2) + max(a, b); a row is single_edge
    exactly when some code occurs once in it.  Rows on t = k/2 + 1 labels
    that are not single_edge get ``classify``'s check: no loop, and no
    directed step taken twice.
    """
    k = rows.shape[1] - 1
    a, b = rows[:, :-1].astype(np.int16), rows[:, 1:].astype(np.int16)
    codes = np.sort(np.minimum(a, b) * (k + 2) + np.maximum(a, b), axis=1)
    edge = np.ones((len(rows), 1), dtype=bool)
    new = codes[:, 1:] != codes[:, :-1]
    single = (np.hstack((edge, new)) & np.hstack((new, edge))).any(axis=1)
    out = np.where(single, _CLASS_CODE[WalkClass.SINGLE_EDGE], _CLASS_CODE[WalkClass.MULTI_OTHER])
    if k % 2 == 0 and t == k // 2 + 1:
        tree = ~single
        directed = np.sort(a[tree] * (k + 2) + b[tree], axis=1)
        if (a[tree] == b[tree]).any() or (directed[:, 1:] == directed[:, :-1]).any():
            raise AssertionError("t = k/2 + 1 walk without a double-tree skeleton")
        out[tree] = _CLASS_CODE[WalkClass.DOUBLE_TREE]
    return out.astype(np.int8)


def census_blocks(k: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The length-k census as ``(t, rows, class codes)`` blocks, with no object per walk.

    Rows come in ``enumerate_canonical_walks`` order, at most ``_CHUNK`` per
    block: int8 arrays of canonical walks on exactly t labels, closing 1
    included.  Code i in the int8 codes stands for ``list(WalkClass)[i]``.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    for t in range(1, k + 2):
        block = _rgs_block(k, t)
        for lo in range(0, len(block), _CHUNK):
            rows = block[lo : lo + _CHUNK]
            yield t, rows, _classify_block(rows, t)


def enumerate_gamma(k: int, t: int) -> list[CanonicalWalk]:
    """All canonical closed walks of length k on exactly t labels, lex order.

    Empty whenever t > k + 1 (a walk of length k meets at most k+1 vertices).
    """
    if k < 1 or t < 1:
        raise ValueError("need k >= 1 and t >= 1")
    if t > k + 1:
        return []
    return [CanonicalWalk._trusted(tuple(row)) for row in _rgs_block(k, t).tolist()]


def enumerate_canonical_walks(k: int) -> list[CanonicalWalk]:
    """All canonical closed walks of length k, grouped by t, lex within each t."""
    walks: list[CanonicalWalk] = []
    for t in range(1, k + 2):
        walks.extend(enumerate_gamma(k, t))
    return walks


@dataclass(frozen=True)
class DyckPath:
    """Nonnegative +-1 height sequence from 0 back to 0."""

    heights: tuple[int, ...]

    def __post_init__(self) -> None:
        h = tuple(int(x) for x in self.heights)
        object.__setattr__(self, "heights", h)
        if len(h) < 1 or h[0] != 0 or h[-1] != 0:
            raise ValueError("Dyck path must start and end at height 0")
        if any(x < 0 for x in h):
            raise ValueError("Dyck path heights must be nonnegative")
        if any(abs(b - a) != 1 for a, b in zip(h, h[1:])):
            raise ValueError("Dyck path steps must be +-1")

    @property
    def length(self) -> int:
        return len(self.heights) - 1


def dyck_of(walk: CanonicalWalk) -> DyckPath:
    """Height profile of a double-tree walk: distance from the root vertex 1.

    A double tree crosses each edge once each way, first onto the vertex it
    has not yet visited, so the height rises by 1 on a step to a new vertex
    and falls by 1 on every other step.  This map is the Catalan bijection:
    distinct double trees give distinct Dyck paths of the same length, and
    every Dyck path arises.
    """
    if classify(walk) is not WalkClass.DOUBLE_TREE:
        raise ValueError("dyck_of requires a double-tree walk")
    heights, seen = [0], 1
    for v in walk.sequence[1:]:
        # canonical labels appear in order, so v is new exactly when it exceeds them all
        heights.append(heights[-1] + (1 if v > seen else -1))
        seen = max(seen, v)
    return DyckPath(tuple(heights))


def all_dyck_paths(k: int) -> list[DyckPath]:
    """Every Dyck path of length k (empty for odd k)."""
    if k < 0:
        raise ValueError("length must be nonnegative")
    out: list[DyckPath] = []
    if k % 2 == 1:
        return out
    heights = [0] * (k + 1)

    def rec(s: int) -> None:
        if s == k:
            if heights[k] == 0:
                out.append(DyckPath(tuple(heights)))
            return
        h = heights[s]
        for step in (+1, -1):
            nh = h + step
            if nh < 0 or nh > k - s - 1:
                continue  # cannot return to 0 in the remaining steps
            heights[s + 1] = nh
            rec(s + 1)

    rec(0)
    return out


@functools.lru_cache(maxsize=ORACLE_MAX_K * ORACLE_MAX_N)
def _oracle_classes(k: int, t: int) -> tuple[tuple[int, ...], ...]:
    """The classes of length k on t labels that can weigh non-zero: all but single_edge.

    Plain int rows of the census block, canonical by construction.  Cached
    for the process: ``walk_sum_moment`` needs the same classes at every n,
    and its caps bound the cache to k <= ORACLE_MAX_K and t <= ORACLE_MAX_N.
    """
    rows = _rgs_block(k, t)
    keep = _classify_block(rows, t) != _CLASS_CODE[WalkClass.SINGLE_EDGE]
    return tuple(map(tuple, rows[keep].tolist()))


def walk_sum_moment(
    law: EntryLaw, profile: VarianceProfile, n: int, k: int, diagonal_law: EntryLaw | None = None
) -> float:
    """Exact (1/n) E tr W^k as the sum of walk-class weights.

    Classes with an edge crossed once weigh zero (every law is symmetric with
    mean zero) and classes on t > n labels are empty, so the cost is one
    expectation per labelled walk: the sum of (n)_t over the other classes.
    The law must have finite moments to order k.  ``diagonal_law`` is as in
    ``EnsembleSpec``.
    """
    if n > ORACLE_MAX_N or k > ORACLE_MAX_K:
        raise ValueError("oracle scale exceeded")
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if not law.has_moments_to(k):
        raise ValueError("oracle requires finite moments")
    profile.check_dimension(n)
    r = np.arange(n)
    level_of = profile._level_of(r[:, None], r[None, :])
    dlaw = diagonal_law_for(law, diagonal_law)
    return math.fsum(
        _class_sum(seq, t, law, dlaw, profile.levels, level_of)
        for t in range(1, n + 1)
        for seq in _oracle_classes(k, t)
    ) / n


@functools.lru_cache(maxsize=ORACLE_MAX_N * ORACLE_MAX_N)
def _images(n: int, t: int) -> np.ndarray:
    """Every injective map of t labels into {0..n-1}: a row each, in ``itertools.permutations`` order."""
    return np.array(list(itertools.permutations(range(n), t)), dtype=np.intp).reshape(-1, t)


def _class_sum(
    seq: Sequence[int], t: int, law: EntryLaw, dlaw: EntryLaw, levels: np.ndarray, level_of: np.ndarray
) -> float:
    """Sum of E[prod w] over all walks in {0..n-1} isomorphic to the canonical walk ``seq``.

    Members of the class are exactly the injective relabelings of the t
    labels (``_images``), so this is the walk-class weight in the trace
    expansion, its terms summed by ``math.fsum``.  Per unordered pair a <= b
    the crossing table gives f steps a -> b and r steps b -> a (r = 0 for a
    loop).  The law's (direction-aware, for complex laws) mixed moment of
    (f, r), ``dlaw``'s on the diagonal, does not depend on the labels, and
    the factor's value depends on a relabeling only through the profile
    level its entry lands on.  So each factor is computed once per entry of
    ``levels`` and gathered for every relabeling at once through
    ``level_of``, the n x n table of level indices; the products run in
    factor order, one relabeling per element.
    """
    steps = _crossings([c - 1 for c in seq])
    factors = []
    for a, b in {(min(e), max(e)) for e in steps}:
        f, r = steps[a, b], (steps[b, a] if a != b else 0)
        mom = (dlaw if a == b else law).pair_moment(f, r)
        if mom == 0.0:
            return 0.0
        factors.append((a, b, mom, f + r))
    images = _images(len(level_of), t)
    out = np.ones(len(images))
    for a, b, mom, m in factors:
        # symmetric laws leave only even total powers, where sigma^2 is exact
        value = np.array([mom * (s ** (m // 2) if m % 2 == 0 else math.sqrt(s) ** m) for s in levels])
        out *= value[level_of[images[:, a], images[:, b]]]
    return math.fsum(out)
