"""Throughput measurement (queries per second).

``QPS = #queries / total response time`` — the paper's efficiency metric
(§VIII-A).  Wall-clock is measured with ``perf_counter``; callers decide
warm-up policy.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

__all__ = [
    "TimedRun",
    "measure_qps",
    "measure_batch_qps",
    "PercentileTracker",
]

Q = TypeVar("Q")


class PercentileTracker:
    """Latency-sample collector with percentile summaries (p50/p95/p99).

    The serving layer's per-request instrument: ``record`` each
    observation, read tail behaviour via :meth:`percentile` or the
    ``p50``/``p95``/``p99`` shorthands.  ``max_samples`` bounds memory by
    keeping only the most recent window (a sliding window, not a
    reservoir — serving dashboards care about *current* tails);
    :attr:`count` still reports every observation ever recorded.

    Not thread-safe by itself — concurrent writers must serialise
    externally (``ServiceStats`` wraps every tracker in its own lock).
    """

    def __init__(self, max_samples: int | None = None):
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be positive or None")
        self._samples: deque[float] = deque(maxlen=max_samples)
        self._count = 0
        self._total = 0.0
        self._max = float("-inf")

    def record(self, value: float) -> None:
        value = float(value)
        self._samples.append(value)
        self._count += 1
        self._total += value
        if value > self._max:
            self._max = value

    def __len__(self) -> int:
        """Samples currently held (≤ :attr:`count` under a window cap)."""
        return len(self._samples)

    @property
    def count(self) -> int:
        """Observations ever recorded, including evicted ones."""
        return self._count

    @property
    def mean(self) -> float:
        """Mean over *all* recorded observations (not just the window)."""
        return self._total / self._count if self._count else float("nan")

    @property
    def max(self) -> float:
        return self._max if self._count else float("nan")

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0–100) of the held samples; NaN if empty."""
        if not self._samples:
            return float("nan")
        return float(np.percentile(np.fromiter(self._samples, float), q))

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def merge(self, other: "PercentileTracker") -> None:
        """Fold *other*'s held samples (and totals) into this tracker."""
        for value in other._samples:
            self._samples.append(value)
        self._count += other._count
        self._total += other._total
        if other._count and other._max > self._max:
            self._max = other._max

    def summary(self, scale: float = 1.0) -> dict:
        """JSON-ready snapshot; ``scale`` converts units (e.g. s → ms)."""
        if not self._count:
            return {"count": 0}
        return {
            "count": self._count,
            "mean": self.mean * scale,
            "p50": self.p50 * scale,
            "p95": self.p95 * scale,
            "p99": self.p99 * scale,
            "max": self.max * scale,
        }


@dataclass
class TimedRun:
    """Outcome of a timed batch: results, elapsed seconds, and QPS."""

    results: list
    elapsed: float
    num_queries: int

    @property
    def qps(self) -> float:
        """Queries per second; raises on a degenerate measurement.

        A non-positive ``elapsed`` used to yield ``inf``, which
        ``json.dump`` emits as spec-invalid ``Infinity`` and which makes
        every regression floor (``inf * (1 - tol)``) vacuously pass — a
        broken timer would read as infinitely fast.  Benches must reject
        the measurement instead of gating on it.
        """
        if self.elapsed <= 0.0 or not np.isfinite(self.elapsed):
            raise ValueError(
                f"non-finite QPS: elapsed={self.elapsed!r} over "
                f"{self.num_queries} queries — the timed region measured "
                f"no wall-clock time; the measurement is invalid"
            )
        return self.num_queries / self.elapsed

    @property
    def mean_latency(self) -> float:
        """Average seconds per query."""
        return self.elapsed / max(self.num_queries, 1)


def measure_qps(
    search_fn: Callable[[Q], object],
    queries: Sequence[Q] | Iterable[Q],
    warmup: int = 0,
) -> TimedRun:
    """Run *search_fn* over *queries*, timing only the measured portion.

    ``warmup`` queries are executed first without timing to populate CPU
    caches, mirroring the repeated-trials protocol of §VIII-A.
    """
    queries = list(queries)
    for q in queries[:warmup]:
        search_fn(q)
    start = time.perf_counter()
    results = [search_fn(q) for q in queries]
    elapsed = time.perf_counter() - start
    return TimedRun(results=results, elapsed=elapsed, num_queries=len(queries))


def measure_batch_qps(
    batch_fn: Callable[[list], object],
    queries: Sequence[Q] | Iterable[Q],
    warmup: int = 0,
) -> TimedRun:
    """Time a *batch* entry point (one call over all queries).

    The executor-era counterpart of :func:`measure_qps`: ``batch_fn``
    receives the whole query list and returns an iterable of per-query
    results (a plain list or a
    :class:`~repro.index.executor.BatchResult`).  QPS then reflects true
    batch throughput — GEMM and lockstep graph waves included — rather
    than a sum of single-query latencies.
    """
    queries = list(queries)
    if warmup > 0:
        batch_fn(queries[:warmup])
    start = time.perf_counter()
    out = batch_fn(queries)
    elapsed = time.perf_counter() - start
    return TimedRun(
        results=list(out), elapsed=elapsed, num_queries=len(queries)
    )
