"""Outside-in span tracing: wrap a layer's public functions at their import sites.

The benchmark never edits the program.  :meth:`Tracer.install` replaces
a function (or method) on the module or class that *calls* it with a
wrapper that records one span per call.  Spans nest per thread, stay in
memory, and are reduced once the run ends (:func:`self_times`,
:func:`layer_totals`).

A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import threading
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional


class Span(NamedTuple):
    span_id: int
    parent: int  # 0 for a root span
    name: str
    t0: int  # perf_counter_ns at entry
    t1: int  # perf_counter_ns at exit
    attrs: Optional[dict]


#: ``attrs(args, kwargs, result) -> dict`` computes per-call counters.
AttrsFn = Callable[[tuple, dict, object], dict]


class Tracer:
    """Records spans for wrapped callables; restores the originals on demand."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, t0, t1, None))

    def wrap(self, name: str, fn: Callable, attrs: Optional[AttrsFn] = None) -> Callable:
        """``fn`` with one ``name`` span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append(Span(span_id, parent, name, t0, perf_counter_ns(), None))
                raise
            finally:
                stack.pop()
            t1 = perf_counter_ns()
            extra = attrs(args, kwargs, result) if attrs is not None else None
            self.spans.append(Span(span_id, parent, name, t0, t1, extra))
            return result

        return traced

    def install(self, owner, attr: str, name: str, attrs: Optional[AttrsFn] = None) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute) by a traced twin."""
        original = getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attrs))

    def restore(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def self_times(spans: List[Span]) -> Dict[int, int]:
    """Self time (ns) per span id: duration minus the union of its children."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0
        end = span.t0
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.t0):
            lo = max(child.t0, end)
            hi = min(child.t1, span.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        result[span.span_id] = (span.t1 - span.t0) - covered
    return result


class LayerTotals(NamedTuple):
    calls: int
    self_s: float
    self_ms: List[float]  # per-call self times, for percentiles
    wall_ms: List[float]  # per-call durations
    attrs: Dict[str, float]  # summed per-call counters


def layer_totals(spans: List[Span]) -> Dict[str, LayerTotals]:
    """Per span name: calls, summed self time, per-call times and counters."""
    own = self_times(spans)
    grouped: Dict[str, list] = {}
    for span in spans:
        grouped.setdefault(span.name, []).append(span)
    totals = {}
    for name, group in grouped.items():
        counters: Dict[str, float] = {}
        for span in group:
            for key, value in (span.attrs or {}).items():
                counters[key] = counters.get(key, 0) + value
        self_ms = [own[s.span_id] / 1e6 for s in group]
        totals[name] = LayerTotals(
            calls=len(group),
            self_s=sum(self_ms) / 1e3,
            self_ms=self_ms,
            wall_ms=[(s.t1 - s.t0) / 1e6 for s in group],
            attrs=counters,
        )
    return totals
