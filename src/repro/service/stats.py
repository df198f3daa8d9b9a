"""Serving-side observability: request counters, latency percentiles,
batch-size and queue-depth histograms.

:class:`ServiceStats` is the one mutable object shared between client
threads (submits, rejections) and the dispatcher (batches, completions),
so every update goes through its lock — the trackers themselves
(:class:`~repro.metrics.timing.PercentileTracker`) are not thread-safe.
Latencies are recorded in **seconds** and reported in milliseconds by
:meth:`ServiceStats.summary`.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Any, Iterable

from repro.metrics.timing import PercentileTracker

__all__ = ["ServiceStats"]


class ServiceStats:
    """Live counters for one :class:`~repro.service.MustService`.

    * ``submitted`` / ``completed`` / ``failed`` / ``rejected`` —
      per-request outcomes (``rejected`` counts admission-control drops,
      which never reach the queue).
    * ``batches`` / ``coalesced_batches`` / ``coalesced_requests`` — how
      often the dispatcher actually merged concurrent callers into one
      wave (a batch of one is dispatch overhead, not coalescing).
    * ``latency`` — submit→response seconds per request (the number a
      client experiences); ``wait`` — submit→dispatch queueing delay.
    * ``batch_sizes`` / ``queue_depths`` — histograms (size → count,
      depth-at-dispatch → count) for tuning ``max_batch`` /
      ``max_wait_ms`` / ``max_queue``.
    * ``graph_waves`` / ``wave_frontier_sizes`` — histograms of the
      lockstep graph waves (waves-per-coalesced-group → count, stacked
      frontier size → count), recorded once per ``engine="wave"``
      group the dispatcher executes; both empty unless clients opt
      into the wave engine.
    * ``wave_retries`` — coalesced groups (exact or graph) that raised
      as a whole and were re-run request by request; each also leaves
      an ``event=wave_retry`` log record.
    """

    def __init__(self, latency_window: int = 10_000) -> None:
        self._lock = threading.Lock()
        self._latency_window = latency_window
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.batches = 0
        self.coalesced_batches = 0
        self.coalesced_requests = 0
        self.latency = PercentileTracker(latency_window)
        self.wait = PercentileTracker(latency_window)
        self.batch_sizes: Counter[int] = Counter()
        self.queue_depths: Counter[int] = Counter()
        self.graph_waves: Counter[int] = Counter()
        self.wave_frontier_sizes: Counter[int] = Counter()
        self.wave_retries = 0
        # Per-shard instruments (populated only by ShardedService): for
        # each shard, round-trip latency percentiles of its scatter
        # waves and a histogram of how many queries each wave carried —
        # the numbers that expose a skewed partition or a straggler
        # worker.  ``shards_lost`` counts workers declared dead.
        self.shard_latency: dict[int, PercentileTracker] = {}
        self.shard_wave_sizes: dict[int, Counter[int]] = {}
        self.shard_waves: Counter[int] = Counter()
        self.shards_lost = 0

    # ------------------------------------------------------------------
    # Recording (called by the service)
    # ------------------------------------------------------------------
    def record_submitted(self) -> None:
        with self._lock:
            self.submitted += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def record_batch(self, size: int, queue_depth: int) -> None:
        with self._lock:
            self.batches += 1
            self.batch_sizes[int(size)] += 1
            self.queue_depths[int(queue_depth)] += 1
            if size > 1:
                self.coalesced_batches += 1
                self.coalesced_requests += int(size)

    def record_graph_wave(
        self, waves: int, frontier_sizes: Iterable[int]
    ) -> None:
        """One coalesced ``engine="wave"`` group: its wave count and
        the per-wave stacked frontier sizes."""
        with self._lock:
            self.graph_waves[int(waves)] += 1
            for size in frontier_sizes:
                self.wave_frontier_sizes[int(size)] += 1

    def record_wave_retry(self) -> None:
        with self._lock:
            self.wave_retries += 1

    def record_shard_wave(
        self, shard: int, seconds: float, size: int
    ) -> None:
        """One scatter round-trip to *shard*: latency and queries carried."""
        with self._lock:
            shard = int(shard)
            self.shard_waves[shard] += 1
            tracker = self.shard_latency.get(shard)
            if tracker is None:
                tracker = PercentileTracker(self._latency_window)
                self.shard_latency[shard] = tracker
            tracker.record(seconds)
            sizes: Counter[int] | None = self.shard_wave_sizes.get(shard)
            if sizes is None:
                sizes = Counter()
                self.shard_wave_sizes[shard] = sizes
            sizes[int(size)] += 1

    def record_shard_lost(self, shard: int) -> None:
        with self._lock:
            self.shards_lost += 1

    def record_wait(self, seconds: float) -> None:
        with self._lock:
            self.wait.record(seconds)

    def record_done(self, latency_seconds: float, ok: bool = True) -> None:
        with self._lock:
            self.latency.record(latency_seconds)
            if ok:
                self.completed += 1
            else:
                self.failed += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests accepted but not yet answered."""
        with self._lock:
            return self.submitted - self.completed - self.failed

    @property
    def mean_batch_size(self) -> float:
        with self._lock:
            total = sum(s * c for s, c in self.batch_sizes.items())
            count = sum(self.batch_sizes.values())
        return total / count if count else float("nan")

    def summary(self) -> dict[str, Any]:
        """JSON-ready snapshot of every counter (latencies in ms)."""
        with self._lock:
            batch_sizes = {
                int(size): int(count)
                for size, count in sorted(self.batch_sizes.items())
            }
            queue_depths = {
                int(depth): int(count)
                for depth, count in sorted(self.queue_depths.items())
            }
            graph_waves = {
                int(waves): int(count)
                for waves, count in sorted(self.graph_waves.items())
            }
            wave_frontier_sizes = {
                int(size): int(count)
                for size, count in sorted(self.wave_frontier_sizes.items())
            }
            shards = {
                int(shard): {
                    "waves": int(self.shard_waves[shard]),
                    "latency_ms": self.shard_latency[shard].summary(scale=1e3),
                    "wave_sizes": {
                        int(size): int(count)
                        for size, count in sorted(
                            self.shard_wave_sizes.get(shard, Counter()).items()
                        )
                    },
                }
                for shard in sorted(self.shard_latency)
            }
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "batches": self.batches,
                "coalesced_batches": self.coalesced_batches,
                "coalesced_requests": self.coalesced_requests,
                "latency_ms": self.latency.summary(scale=1e3),
                "wait_ms": self.wait.summary(scale=1e3),
                "batch_sizes": batch_sizes,
                "queue_depths": queue_depths,
                "graph_waves": graph_waves,
                "wave_frontier_sizes": wave_frontier_sizes,
                "wave_retries": self.wave_retries,
                "shards": shards,
                "shards_lost": self.shards_lost,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServiceStats(submitted={self.submitted}, "
            f"completed={self.completed}, failed={self.failed}, "
            f"rejected={self.rejected}, batches={self.batches})"
        )
