"""The benchmark's own arithmetic: step-time summaries, times relative to
the reference block, span self time and failure counting.  Pure functions of
their inputs, pinned by test_bench.py."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

TAIL_MIN_BEYOND = 10


def tail_percentile(n: int) -> int | None:
    """Highest integer percentile p whose nearest-rank value has at least
    TAIL_MIN_BEYOND of n steps strictly beyond its rank, or None when n is too
    small for any percentile to qualify."""
    if n <= TAIL_MIN_BEYOND:
        return None
    return 100 * (n - TAIL_MIN_BEYOND) // n


def nearest_rank(sorted_values: list[float], p: int) -> float:
    """Nearest-rank p-th percentile of an ascending list: the value at rank
    ceil(p * n / 100), with rank 1 for p = 0."""
    rank = max(1, -(-p * len(sorted_values) // 100))
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class StepSummary:
    count: int
    p50: float
    tail: float
    tail_pct: int  # 100 when too few steps: tail is then the maximum


def summarize_steps(times: list[float]) -> StepSummary:
    ordered = sorted(times)
    p = tail_percentile(len(ordered))
    tail = ordered[-1] if p is None else nearest_rank(ordered, p)
    return StepSummary(len(ordered), statistics.median(ordered), tail, 100 if p is None else p)


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals (each clipped)."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its direct children.

    Grandchildren lie inside their parent child span, so only direct children
    are subtracted; overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


@dataclass
class Tally:
    """Attempted and failed operations: timed steps plus correctness checks."""

    steps: int = 0
    failed_steps: int = 0
    checks: int = 0
    failed_checks: int = 0

    def step(self, ok: bool, count: int = 1) -> None:
        self.steps += count
        if not ok:
            self.failed_steps += count

    def check(self, ok: bool) -> None:
        self.checks += 1
        if not ok:
            self.failed_checks += 1

    @property
    def attempted(self) -> int:
        return self.steps + self.checks

    @property
    def failed(self) -> int:
        return self.failed_steps + self.failed_checks

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def ratios(times: list[float], refs: list[float]) -> list[float]:
    """Each time as a multiple of the reference time measured around it."""
    return [t / r for t, r in zip(times, refs, strict=True)]


def quartile_spread(values: list[float]) -> tuple[float, float, float]:
    """Q1, Q3 and (Q3 - Q1) / median, with quartiles as statistics.quantiles
    gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)
