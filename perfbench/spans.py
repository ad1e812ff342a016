"""In-memory spans and the arithmetic on them.

A span is one timed call at a layer boundary: its name, start and end on
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so a parent process and its
child read the same clock), the id of the span that caused it and the id of
the run it belongs to. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent_id: int | None
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.span_id, self.name, self.start, self.end, self.parent_id, self.run_id]

    @classmethod
    def from_list(cls, row) -> "Span":
        return cls(*row)


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, run_id: int, clock=time.perf_counter):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._clock = clock
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self._clock()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run_id))

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` wrapped in a span; ``on_call(args, kwargs, result)`` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Keys are ``(run_id, span_id)`` pairs, since span ids repeat across runs.
    """
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault((s.run_id, s.parent_id), []).append((s.start, s.end))
    out = {}
    for s in spans:
        inside = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get((s.run_id, s.span_id), [])
            if min(b, s.end) > max(a, s.start)
        ]
        out[(s.run_id, s.span_id)] = s.duration - covered(inside)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed duration, summed self time and call count."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"total": 0.0, "self": 0.0, "calls": 0})
        row["total"] += s.duration
        row["self"] += selfs[(s.run_id, s.span_id)]
        row["calls"] += 1
    return out


def uncovered(spans: list[Span], start: float, end: float) -> float:
    """Part of ``[start, end]`` that no span covers."""
    inside = [(max(s.start, start), min(s.end, end)) for s in spans if min(s.end, end) > max(s.start, start)]
    return (end - start) - covered(inside)
