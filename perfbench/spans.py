"""Span recording around wignerlab's public functions, and per-layer statistics.

A span is one call into a traced function: ``(id, parent, name, start_ns,
end_ns, command, thread, work)``.  Times come from ``time.monotonic_ns``
(CLOCK_MONOTONIC on Linux, shared by every process on the host).  ``parent``
is the id of the span that was open on the calling thread, or, for work
submitted to a ``ThreadPoolExecutor``, the span open on the submitting
thread; 0 means no parent.  ``work`` is an optional count the span carries,
such as the number of walks a census returned.

Spans stay in the tracer's list until the child dumps them at the end of its
run.  The statistics below need only that list, so they are shared by the
child, the parent benchmark process and the benchmark's tests.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start_ns: int
    end_ns: int
    command: str
    thread: int
    work: float | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


WorkFn = Callable[[tuple, dict, object], float]


class Tracer:
    """Collects spans in memory; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.command = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()

    def current(self) -> int:
        return getattr(self._local, "parent", 0)

    def span(self, name: str, fn: Callable, work: WorkFn | None = None) -> Callable:
        """``fn`` wrapped so that every call records one span named ``name``."""
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = getattr(local, "parent", 0)
            sid = next(self._ids)
            local.parent = sid
            result = None
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                local.parent = parent
                count = work(args, kwargs, result) if work is not None and result is not None else None
                self.spans.append(
                    Span(sid, parent, name, start, end, self.command, threading.get_ident(), count)
                )

        return traced

    def adopt_parent(self, parent: int, fn: Callable) -> Callable:
        """``fn`` run with ``parent`` as the open span of whichever thread runs it."""
        local = self._local

        def adopted(*args, **kwargs):
            saved = getattr(local, "parent", 0)
            local.parent = parent
            try:
                return fn(*args, **kwargs)
            finally:
                local.parent = saved

        return adopted


def propagate_into_thread_pools(tracer: Tracer) -> Callable[[], None]:
    """Make spans opened by pool workers children of the span that submitted them.

    Returns a function that undoes the change.
    """
    original = ThreadPoolExecutor.submit

    def submit(pool, fn, /, *args, **kwargs):
        return original(pool, tracer.adopt_parent(tracer.current(), fn), *args, **kwargs)

    ThreadPoolExecutor.submit = submit

    def restore() -> None:
        ThreadPoolExecutor.submit = original

    return restore


def install(tracer: Tracer, targets: Iterable[tuple[str, str, WorkFn | None]]) -> Callable[[], None]:
    """Rebind each ``wignerlab.<module>.<attr>`` to a span-recording wrapper.

    A function is replaced in every loaded ``wignerlab`` module that holds a
    reference to it, so calls made through ``from .x import f`` are traced
    too.  For a class, its ``__init__`` is wrapped, which records every
    construction whichever module makes it.  Returns a function that undoes
    every rebinding.
    """
    undo: list[Callable[[], None]] = []
    for module_name, attr, work in targets:
        module = importlib.import_module(f"wignerlab.{module_name}")
        original = getattr(module, attr)
        name = f"{module_name}.{attr}"
        if isinstance(original, type):
            init = original.__init__
            original.__init__ = tracer.span(name, init, work)
            undo.append(functools.partial(setattr, original, "__init__", init))
            continue
        wrapped = tracer.span(name, original, work)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "wignerlab" and not mod_name.startswith("wignerlab."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append(functools.partial(setattr, mod, key, original))
    return lambda: [u() for u in reversed(undo)]


# -- statistics --------------------------------------------------------------

def covered_ns(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start_ns, s.end_ns))
    return {
        s.id: s.duration_ns - covered_ns(children.get(s.id, ()), s.start_ns, s.end_ns)
        for s in spans
    }


class LayerStats(NamedTuple):
    calls: int
    busy_s: float
    self_s: float
    p50_ms: float
    work: float


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Per span name: calls, inclusive busy time, self time, median call, work.

    Busy time sums the durations of a name's outermost spans only, so a
    function that reaches itself again is not counted twice.  Calls on
    different threads each count, so busy time is thread-seconds.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times_ns(spans)

    def nested_in_same_name(s: Span) -> bool:
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == s.name:
                return True
            p = by_id.get(p.parent)
        return False

    grouped: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        grouped[s.name].append(s)
    out = {}
    for name, group in grouped.items():
        busy = sum(s.duration_ns for s in group if not nested_in_same_name(s))
        out[name] = LayerStats(
            calls=len(group),
            busy_s=busy / 1e9,
            self_s=sum(selfs[s.id] for s in group) / 1e9,
            p50_ms=statistics.median(s.duration_ns for s in group) / 1e6,
            work=float(sum(s.work for s in group if s.work is not None)),
        )
    return out


def from_rows(rows: list[list]) -> list[Span]:
    return [Span(*r) for r in rows]
