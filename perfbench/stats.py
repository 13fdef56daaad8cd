"""Summary statistics and span bookkeeping for the benchmark.

Pure Python, no Ray: imported by the workload process and by the tests.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# percentiles a tail may be reported at, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10  # a tail percentile needs this many samples above it


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile (the smallest value with at least p% of the
    samples at or below it)."""
    if not samples:
        raise ValueError("percentile of no samples")
    xs = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def supports(n: int, p: float) -> bool:
    """True when n samples leave at least MIN_BEYOND of them above the p-th
    percentile."""
    return n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9


def tail_percentile(n: int) -> float:
    """The highest ladder percentile that n samples support."""
    for p in TAIL_LADDER:
        if supports(n, p):
            return p
    raise ValueError(f"{n} samples support no tail percentile")


def tail_at(samples, p: float) -> float:
    """The p-th percentile, refusing a tail the sample count cannot carry
    (a p99 from 300 samples is its third-highest value, not a p99)."""
    if not supports(len(samples), p):
        raise ValueError(
            f"p{p:g} needs {math.ceil(MIN_BEYOND * 100 / (100 - p))} samples, got {len(samples)}"
        )
    return percentile(samples, p)


def median(samples) -> float:
    xs = sorted(samples)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2.0


@dataclass
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span: its duration minus the part of its interval that its
    direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - _covered(children.get(s.sid, []), s.start, s.end)
        for s in spans
    }


def self_time_by_layer(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    st = self_times(spans)
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + st[s.sid]
    return out


@dataclass
class Tracer:
    """In-memory span recorder. Spans nest by call order on one thread; the
    benchmark process is single-threaded."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, layer: str, name: str):
        sp = Span(len(self.spans), self._stack[-1] if self._stack else None,
                  layer, name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.sid)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, layer: str, name: str, fn):
        """fn wrapped so every call records a span."""
        def traced(*args, **kwargs):
            with self.span(layer, name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def durations(self, layer: str, name: str, since: int = 0) -> list[float]:
        return [s.duration for s in self.spans[since:] if s.layer == layer and s.name == name]
