"""The four workloads.  Each owns its seeded inputs, the program's own
set-up calls (what ``setup_s`` times), a fully busy timed pass (``qps``
and the latency samples), and the checks on what the program answered.

Every timed slice is bracketed by host-speed calibration and reported at
reference host speed (see :mod:`perfbench.calibrate`).  ``README.md``
says why each workload was chosen and which layers it stresses or
bypasses.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from perfbench import inputs as gen
from perfbench import load
from perfbench.calibrate import SLICE_S, Bracket
from repro import MUST
from repro.core.query import Query, SearchOptions
from repro.core.results import SearchResult, SearchStats
from repro.core.weights import Weights
from repro.index.segments import SegmentPolicy
from repro.service import ServiceOverloaded

__all__ = ["WORKLOADS", "Workload", "Timed", "Checks"]

Hook = Optional[Callable[[], None]]

WARMUP_SHARE = 0.1
PARITY_EVERY = 16
PARITY_MOST = 128
MS = 1e3


@dataclass
class Timed:
    """A fully busy pass: the caller was never idle during ``wall_s``.

    ``wall_s`` is as measured (span shares are taken against it);
    ``round_qps`` and ``round_latencies_s`` are at reference host speed,
    each round scaled by its own entry of ``round_speed``.
    """

    wall_s: float
    queries: int  # answered
    calls: int  # query calls the caller made (batches, or single queries)
    round_qps: list[float]
    round_speed: list[float]
    round_latencies_s: list[np.ndarray]  # per call
    weight: int  # queries per call
    attempted: int
    failed: int
    results: list  # SearchResult per answered query
    stats: SearchStats
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def speed(self) -> float:
        return statistics.median(self.round_speed)

    @property
    def latency_samples(self) -> int:
        """Queries behind the latency percentiles."""
        return sum(r.size for r in self.round_latencies_s) * self.weight

    def median_percentile_ms(self, q: float, min_beyond: int) -> float:
        """Median over rounds of each round's *q*-th latency percentile,
        refused unless the rounds together leave *min_beyond* samples
        beyond it."""
        load.percentile(
            np.concatenate(self.round_latencies_s), q, self.weight, min_beyond
        )
        return MS * statistics.median(
            float(np.percentile(r, q)) for r in self.round_latencies_s
        )


@dataclass
class Checks:
    recall_at_10: float
    checked: int
    failed: int
    #: work counters of the held-out queries answered by the timed path:
    #: a fixed set, so with one seed they repeat exactly (the timed pass
    #: is time-boxed and answers a different number of queries each run)
    stats: SearchStats | None = None
    stats_queries: int = 0
    stats_calls: int = 0


def _valid(result: SearchResult, k: int = gen.K) -> bool:
    ids, sims = result.ids, result.similarities
    return bool(
        ids.shape[0] == k
        and sims.shape[0] == k
        and np.unique(ids).shape[0] == k
        and np.isfinite(sims).all()
        and (sims[:-1] >= sims[1:]).all()
    )


def _same(a: SearchResult, b: SearchResult) -> bool:
    return bool(
        np.array_equal(a.ids, b.ids)
        and np.array_equal(a.similarities, b.similarities)
    )


def _recall(found: Sequence[SearchResult], truth: Sequence[SearchResult]) -> float:
    hits = [
        np.isin(f.ids[: gen.K], t.ids[: gen.K]).sum() / gen.K
        for f, t in zip(found, truth)
    ]
    return float(np.mean(hits))


def _batches(queries: list[Query], order: np.ndarray) -> list[list[Query]]:
    picked = [queries[i] for i in order]
    return [
        picked[lo : lo + gen.BATCH]
        for lo in range(0, len(picked) - gen.BATCH + 1, gen.BATCH)
    ]


def _answer_in_batches(
    must: MUST, queries: list[Query], options: SearchOptions
) -> tuple[list[SearchResult], SearchStats, int]:
    """Answers, summed batch counters and the number of batch calls."""
    found: list[SearchResult] = []
    stats = SearchStats()
    calls = 0
    for lo in range(0, len(queries), gen.BATCH):
        answer = must.query(queries[lo : lo + gen.BATCH], options)
        found.extend(answer.results)
        stats.merge(answer.stats)
        calls += 1
    return found, stats, calls


def _slices(
    seconds: float, nominal: float, calibration_s: float = SLICE_S
) -> tuple[int, float]:
    """Cut *seconds* into timed slices of about *nominal* seconds with a
    calibration slice before, between and after: ``(count, length)``.
    Short slices matter: the host's speed changes within a second."""
    count = max(1, int((seconds - calibration_s) / (nominal + calibration_s)))
    return count, max(
        (seconds - calibration_s) / count - calibration_s, 0.02
    )


class Workload:
    """Protocol shared by the four workloads (see module docstring)."""

    name = ""
    #: the timed pass changes the index, so every pass needs a fresh set-up
    mutates = False
    #: with --trace 1, the share of ``--seconds`` given to the untraced
    #: timed pass, the traced one, and traced_extra
    shares1 = (0.35, 0.65, 0.0)

    def __init__(
        self, seed: int, scale: gen.Scale, seconds: float, workdir: Path
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.workdir = workdir
        self.must: MUST | None = None
        self.service: Any = None  # serve_open only

    # -- the program's own set-up calls: everything in here is setup_s --
    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        self.must = None

    def timed(self, seconds: float, on_warm: Hook = None) -> Timed:
        """The busy pass.  *on_warm* is called once the warm-up is over
        (a traced run drops the warm-up's spans there)."""
        raise NotImplementedError

    def traced_extra(self, seconds: float) -> dict[str, float]:
        """Per-layer numbers that need their own traced load."""
        return {}

    def verify(self, timed: Timed) -> Checks:
        raise NotImplementedError

    def filter_selectivity(self) -> float:
        """Admissible share of the corpus under the workload's filters."""
        return 0.0

    def input_digest(self) -> str:
        return gen.digest(self.inputs.arrays())  # type: ignore[attr-defined]

    # -- public counters --------------------------------------------------
    def active_objects(self) -> int:
        must = self.must
        assert must is not None
        if must.is_segmented:
            return int(must.segments.num_active)
        return int(must.index.num_active)

    def memory_per_obj(self) -> dict[str, float]:
        assert self.must is not None
        active = self.active_objects()
        return {
            key: value / active
            for key, value in self.must.memory_stats().items()
        }

    # -- shared closed-loop driver ---------------------------------------
    def _closed_rounds(
        self, call: Any, items: Sequence[Any], seconds: float, weight: int,
        slice_s: float, on_warm: Hook, calibration_s: float = SLICE_S,
    ) -> Timed:
        warm = load.closed_round(call, items, 0, seconds * WARMUP_SHARE)
        if on_warm is not None:
            on_warm()
        cursor = len(warm.results)
        rounds, each = _slices(
            seconds * (1.0 - WARMUP_SHARE), slice_s, calibration_s
        )
        bracket = Bracket(calibration_s)
        done: list[tuple[load.ClosedRound, float]] = []
        for _ in range(rounds):
            ran = load.closed_round(call, items, cursor, each)
            done.append((ran, bracket.next()))
            cursor += len(ran.results)
        results: list[SearchResult] = []
        stats = SearchStats()
        for ran, _ in done:
            for answer in ran.results:
                if isinstance(answer, SearchResult):
                    results.append(answer)
                else:  # a BatchResult
                    results.extend(answer.results)
                stats.merge(answer.stats)
        calls = sum(len(ran.results) for ran, _ in done)
        return Timed(
            wall_s=sum(ran.elapsed_s for ran, _ in done),
            queries=calls * weight,
            calls=calls,
            round_qps=[
                len(ran.results) * weight / ran.elapsed_s / speed
                for ran, speed in done
            ],
            round_speed=[speed for _, speed in done],
            round_latencies_s=[ran.latencies_s * speed for ran, speed in done],
            weight=weight,
            attempted=calls * weight,
            failed=0,
            results=results,
            stats=stats,
        )


# ----------------------------------------------------------------------
class SingleQuery(Workload):
    name = "single_query"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.inputs = gen.SingleInputs.generate(self.seed, self.scale)
        self.items = [self.inputs.pool[i] for i in self.inputs.order]

    def setup(self) -> None:
        self.must = MUST(self.inputs.objects).build()
        self.must.query(self.inputs.heldout[0], self.inputs.options)

    def _one(self, query: Query) -> SearchResult:
        return self.must.query(query, self.inputs.options)  # type: ignore[union-attr,return-value]

    def timed(self, seconds: float, on_warm: Hook = None) -> Timed:
        return self._closed_rounds(
            self._one, self.items, seconds, 1, 0.2, on_warm
        )

    def verify(self, timed: Timed) -> Checks:
        must, opts = self.must, self.inputs.options
        assert must is not None
        failed = sum(not _valid(r) for r in timed.results)
        checked = len(timed.results)
        # The same call must give the same bits: re-ask a 1-in-16 sample
        # of the pool and compare with a second answer.
        for query in self.items[::PARITY_EVERY]:
            checked += 1
            failed += not _same(must.query(query, opts), must.query(query, opts))
        found = [must.query(q, opts) for q in self.inputs.heldout]
        truth = must.query(self.inputs.heldout, SearchOptions(k=gen.K, exact=True))
        return Checks(
            _recall(found, truth.results), checked, failed,
            SearchStats.aggregate(r.stats for r in found), len(found),
            len(found),
        )


# ----------------------------------------------------------------------
class HybridCompressed(Workload):
    name = "hybrid_compressed"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.inputs = gen.HybridInputs.generate(self.seed, self.scale)
        self.items = _batches(self.inputs.pool, self.inputs.order)
        self.data_dir: Path | None = None

    def setup(self) -> None:
        self.data_dir = Path(tempfile.mkdtemp(dir=self.workdir, prefix="cold-"))
        self.must = MUST(
            self.inputs.objects,
            weights=Weights([1.0]),
            compression="pq",
            cold_storage="mmap",
            data_dir=self.data_dir,
        ).build()
        self.must.query(self.inputs.heldout[: gen.BATCH], self.inputs.options)

    def teardown(self) -> None:
        super().teardown()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None

    def _batch(self, batch: list[Query]) -> Any:
        return self.must.query(batch, self.inputs.options)  # type: ignore[union-attr]

    def timed(self, seconds: float, on_warm: Hook = None) -> Timed:
        # Long slices: a batch call takes ~80 ms, and a slice's p95 needs
        # some twenty of them.
        return self._closed_rounds(
            self._batch, self.items, seconds, gen.BATCH, 1.5, on_warm,
            calibration_s=2 * SLICE_S,
        )

    def verify(self, timed: Timed) -> Checks:
        must, opts = self.must, self.inputs.options
        assert must is not None
        failed = sum(not _valid(r) for r in timed.results)
        checked = len(timed.results)
        for batch in self.items[::PARITY_EVERY]:
            first, second = must.query(batch, opts), must.query(batch, opts)
            checked += len(batch)
            failed += sum(not _same(a, b) for a, b in zip(first, second))
        found, stats, calls = _answer_in_batches(must, self.inputs.heldout, opts)
        truth = must.query(self.inputs.heldout, self.inputs.oracle_options)
        return Checks(
            _recall(found, truth.results), checked, failed,
            stats, len(found), calls,
        )


# ----------------------------------------------------------------------
class Churn(Workload):
    name = "churn"
    mutates = True

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.inputs = gen.ChurnInputs.generate(
            self.seed, self.scale,
            self.laps(self.seconds) * self.scale.churn_cycles_per_lap,
        )
        self.save_dir: Path | None = None
        self.reloaded: MUST | None = None

    def laps(self, seconds: float) -> int:
        """The trace is count-based, so its counters repeat exactly; its
        length is sized from the requested seconds by the nominal lap
        duration on the reference host."""
        return max(1, round(seconds / self.scale.churn_lap_seconds))

    def setup(self) -> None:
        self.save_dir = Path(tempfile.mkdtemp(dir=self.workdir, prefix="churn-"))
        self.must = MUST(
            self.inputs.base,
            segment_policy=SegmentPolicy(
                seal_size=self.scale.churn_seal,
                max_segments=gen.CHURN_MAX_SEGMENTS,
                max_deleted_fraction=0.3,
                min_compact_size=256,
            ),
        ).build()
        self.must.query(self.inputs.heldout[: gen.BATCH], self.inputs.options)

    def teardown(self) -> None:
        super().teardown()
        self.reloaded = None
        if self.save_dir is not None:
            shutil.rmtree(self.save_dir, ignore_errors=True)
            self.save_dir = None

    def timed(self, seconds: float, on_warm: Hook = None) -> Timed:
        # No warm-up: the trace is one pass and every lap counts.
        must, inputs, opts = self.must, self.inputs, self.inputs.options
        assert must is not None and self.save_dir is not None
        clock = time.perf_counter
        per_lap = self.scale.churn_cycles_per_lap
        laps = self.laps(seconds)
        lap_walls: list[float] = []  # as measured
        lap_walls_ref: list[float] = []  # at reference host speed
        lap_speed: list[float] = []
        lap_query_lat: list[np.ndarray] = []
        insert_lat_ref: list[float] = []
        save_lat_ref: list[float] = []
        segment_counts: list[int] = []
        results: list[SearchResult] = []
        stats = SearchStats()
        # Host speed is measured between cycles, not just between laps:
        # a lap lasts seconds and the host does not hold still that long.
        bracket = Bracket()
        for lap in range(laps):
            lap_wall = lap_wall_ref = 0.0
            speeds: list[float] = []
            query_lat_ref: list[float] = []
            for cycle in range(lap * per_lap, (lap + 1) * per_lap):
                query_lat: list[float] = []
                insert_lat: list[float] = []
                save_lat: list[float] = []
                cycle_begin = clock()
                for j in range(gen.INSERTS_PER_CYCLE):
                    objects = inputs.inserts[cycle * gen.INSERTS_PER_CYCLE + j]
                    t = clock()
                    must.insert(objects)
                    insert_lat.append(clock() - t)
                for j in range(gen.QUERY_CALLS_PER_CYCLE):
                    batch = inputs.batch(cycle * gen.QUERY_CALLS_PER_CYCLE + j)
                    t = clock()
                    answer = must.query(batch, opts)
                    query_lat.append(clock() - t)
                    results.extend(answer.results)
                    stats.merge(answer.stats)
                must.mark_deleted(inputs.deletes[cycle])
                if cycle % per_lap == per_lap // 2:
                    t = clock()
                    must.save_index(self.save_dir / "periodic")
                    save_lat.append(clock() - t)
                cycle_wall = clock() - cycle_begin
                speed = bracket.next()
                speeds.append(speed)
                lap_wall += cycle_wall
                lap_wall_ref += cycle_wall * speed
                query_lat_ref.extend(t * speed for t in query_lat)
                insert_lat_ref.extend(t * speed for t in insert_lat)
                save_lat_ref.extend(t * speed for t in save_lat)
                segment_counts.append(must.segments.num_segments)
            lap_walls.append(lap_wall)
            lap_walls_ref.append(lap_wall_ref)
            lap_speed.append(lap_wall_ref / lap_wall)
            lap_query_lat.append(np.asarray(query_lat_ref))
        # The final state is saved and loaded back outside the laps; the
        # reloaded index must answer like the live one (see verify).
        final = self.save_dir / "final"
        shutil.rmtree(final, ignore_errors=True)
        must.save_index(final)
        t = clock()
        self.reloaded = MUST.from_saved(final)
        load_s = (clock() - t) * bracket.next()
        lap_queries = per_lap * gen.QUERY_CALLS_PER_CYCLE * gen.BATCH
        inserts = np.asarray(insert_lat_ref)
        disk = sum(f.stat().st_size for f in final.iterdir() if f.is_file())
        return Timed(
            wall_s=sum(lap_walls),
            queries=laps * lap_queries,
            calls=laps * per_lap * gen.QUERY_CALLS_PER_CYCLE,
            round_qps=[lap_queries / wall for wall in lap_walls_ref],
            round_speed=lap_speed,
            round_latencies_s=lap_query_lat,
            weight=gen.BATCH,
            attempted=laps * lap_queries,
            failed=0,
            results=results,
            stats=stats,
            extra={
                "index.segments.ingest_obj_s":
                    inserts.size * gen.INSERT_SIZE / float(inserts.sum()),
                "index.segments.insert_lat_p50_ms":
                    float(np.median(inserts)) * MS,
                "index.segments.stall_max_ms": float(inserts.max()) * MS,
                "index.segments.save_ms_mean":
                    statistics.fmean(save_lat_ref) * MS,
                "index.segments.load_ms": load_s * MS,
                "index.segments.num_segments_mean":
                    statistics.fmean(segment_counts),
                "index.segments.disk_bytes_per_obj":
                    disk / must.segments.num_active,
            },
        )

    def verify(self, timed: Timed) -> Checks:
        must, opts = self.must, self.inputs.options
        assert must is not None and self.reloaded is not None
        failed = sum(not _valid(r) for r in timed.results)
        checked = len(timed.results)
        heldout = self.inputs.heldout
        live, stats, calls = _answer_in_batches(must, heldout, opts)
        # Answer parity of the reloaded index on 64 queries.
        again, _, _ = _answer_in_batches(
            self.reloaded, heldout[: 2 * gen.BATCH], opts
        )
        checked += len(again)
        failed += sum(not _same(a, b) for a, b in zip(live, again))
        truth = must.query(heldout, SearchOptions(k=gen.K, exact=True))
        return Checks(
            _recall(live, truth.results), checked, failed,
            stats, len(live), calls,
        )


# ----------------------------------------------------------------------
class ServeOpen(Workload):
    name = "serve_open"
    shares1 = (0.15, 0.25, 0.6)
    #: how traced_extra's time is split over SERVE_RATES: the step at
    #: each rate needs enough requests for the percentile it reports
    STEP_SHARES = (0.28, 0.52, 0.2)
    WINDOW = 64
    LATENCY_LIMIT_MS = 250.0

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.inputs = gen.ServeInputs.generate(
            self.seed, self.scale, self.seconds
        )
        self.items = [self.inputs.requests[i] for i in self.inputs.order]
        self.cursor = 0
        #: (item index, served answer) pairs re-asked of the snapshot
        self.parity_sample: list = []
        #: open-loop requests sent by traced_extra, and how many failed
        self.open_attempted = self.open_failed = 0

    def setup(self) -> None:
        self.must = MUST(
            self.inputs.base,
            segment_policy=SegmentPolicy(
                seal_size=self.scale.serve_seal, max_segments=4
            ),
        ).build()
        for part in self.inputs.inserts:
            self.must.insert(part)
        self.service = self.must.serve(
            max_batch=32, max_wait_ms=2.0, max_queue=4096,
            backpressure="reject",
        )
        for item in self.items[:2]:
            self._submit(item).result(timeout=load.ANSWER_TIMEOUT_S)

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        super().teardown()

    def _submit(self, item: tuple[Query, SearchOptions]) -> Any:
        return self.service.submit(item[0], item[1])

    def _saturate(self, seconds: float) -> load.Saturation:
        ran = load.saturate(
            self._submit, self.items, self.cursor, seconds, self.WINDOW
        )
        self.cursor += ran.attempted
        return ran

    def timed(self, seconds: float, on_warm: Hook = None) -> Timed:
        """Closed-loop saturation: 64 futures in flight from one thread."""
        self._saturate(seconds * WARMUP_SHARE)
        if on_warm is not None:
            on_warm()
        rounds, each = _slices(seconds * (1.0 - WARMUP_SHARE), 0.5)
        before = self.service.stats.summary()
        bracket = Bracket()
        done = []
        for _ in range(rounds):
            ran = self._saturate(each)
            done.append((ran, bracket.next()))
        after = self.service.stats.summary()
        indexed = [pair for ran, _ in done for pair in ran.results]
        results = [answer for _, answer in indexed]
        timed = Timed(
            wall_s=sum(ran.elapsed_s for ran, _ in done),
            queries=len(results),
            calls=after["batches"] - before["batches"],
            round_qps=[
                ran.answered / ran.elapsed_s / speed for ran, speed in done
            ],
            round_speed=[speed for _, speed in done],
            round_latencies_s=[ran.latencies_s * speed for ran, speed in done],
            weight=1,
            attempted=sum(ran.attempted for ran, _ in done),
            failed=sum(ran.failed for ran, _ in done),
            results=results,
            stats=SearchStats.aggregate(r.stats for r in results),
        )
        # Wave-level counters are per dispatched group: read them from
        # the service's own histograms, not from per-request copies.
        waves = _hist_delta(before["graph_waves"], after["graph_waves"])
        frontier = _hist_delta(
            before["wave_frontier_sizes"], after["wave_frontier_sizes"]
        )
        timed.stats.waves = sum(w * c for w, c in waves.items())
        timed.stats.frontier_sizes = [
            size for size, count in frontier.items() for _ in range(count)
        ]
        timed.extra["wave_groups"] = float(sum(waves.values()))
        timed.extra["service.rejected"] = float(
            after["rejected"] - before["rejected"]
        )
        # 1 in 16, thinned to at most PARITY_MOST: each check is a whole
        # single-query search on the snapshot.
        step = max(PARITY_EVERY, len(indexed) // PARITY_MOST)
        self.parity_sample = indexed[::step]
        return timed

    def _open(
        self, rate: float, seconds: float, bracket: Bracket
    ) -> load.OpenStep:
        """One open-loop step at *rate* req/s of reference host speed,
        *seconds* long at that speed.  The number of requests is fixed
        (``rate * seconds``): a slower host gets them more slowly, not
        fewer of them, so the percentiles always have their samples.

        The offered rate follows the host's measured speed, so the
        service's utilisation is what is fixed.  Under that load the
        measured latencies showed no remaining dependence on the speed
        factor (fitted exponent -0.14 over 119 half-second steps), and
        multiplying by each step's factor only added the factor's own
        noise (A/A spread 23 % against 9.5 %) — so open-loop latencies
        are reported as measured."""
        due = self.inputs.due_times(
            rate * bracket.before, max(int(rate * seconds), 1)
        )
        step = load.open_step(
            self._submit, self.items, self.cursor, due, ServiceOverloaded
        )
        self.cursor += step.attempted
        bracket.next()
        return step

    def traced_extra(self, seconds: float) -> dict[str, float]:
        """One open-loop step per fixed rate, queue drained between."""
        out: dict[str, float] = {}
        late = []
        max_ok = 0.0
        bracket = Bracket()
        for rate, share in zip(gen.SERVE_RATES, self.STEP_SHARES):
            step = self._open(rate, seconds * share, bracket)
            self.open_attempted += step.attempted
            self.open_failed += step.failed
            late.append(step.late_s)
            # A failed request misses any latency limit.
            missed = np.full(step.failed, np.inf)
            answered = step.latencies_s
            load.percentile(answered, 95, 1, self.scale.min_beyond)
            p95 = MS * float(
                np.percentile(np.concatenate([answered, missed]), 95)
            )
            out[f"service.lat_p95_ms.r{rate}"] = p95
            out[f"backlog_at_end.r{rate}"] = float(step.backlog_at_end)
            # Backlog: more left unanswered at the step's end than two
            # coalescing windows hold.
            if p95 <= self.LATENCY_LIMIT_MS and step.backlog_at_end <= 2 * 32:
                max_ok = float(rate)
            if rate == gen.SERVE_MID_RATE:
                out["service.lat_p50_ms.r300"] = MS * float(np.median(answered))
                out["harness.lat_p99_ms"] = MS * load.percentile(
                    answered, 99, 1, self.scale.min_beyond
                )
        out["service.max_rate_ok"] = max_ok
        out["harness.gen_late_p99_ms"] = MS * float(
            np.percentile(np.concatenate(late), 99)
        )
        return out

    def verify(self, timed: Timed) -> Checks:
        must = self.must
        assert must is not None
        failed = self.open_failed + sum(not _valid(r) for r in timed.results)
        checked = self.open_attempted + len(timed.results)
        # A 1-in-16 sample of served answers must equal what the
        # service's own snapshot answers, bit for bit.
        snapshot = self.service.snapshot()
        for index, served in self.parity_sample:
            query, options = self.items[index]
            checked += 1
            failed += not _same(served, snapshot.query(query, options))
        # Recall of the graph share through the service (the exact
        # share is its own oracle).
        futures = [
            self.service.submit(q, self.inputs.graph_options)
            for q in self.inputs.heldout
        ]
        found = [f.result(timeout=load.ANSWER_TIMEOUT_S) for f in futures]
        truth = must.query(
            self.inputs.heldout, SearchOptions(k=gen.K, exact=True)
        )
        return Checks(_recall(found, truth.results), checked, failed)

    def filter_selectivity(self) -> float:
        category = self.inputs.attributes["category"]
        cheap = self.inputs.attributes["price"] <= 50.0
        picked = self.inputs.category[self.inputs.is_exact]
        return float(
            np.mean([np.mean((category == c) & cheap) for c in picked])
        )


def _hist_delta(before: dict[int, int], after: dict[int, int]) -> dict[int, int]:
    return {
        key: count - before.get(key, 0)
        for key, count in after.items()
        if count - before.get(key, 0) > 0
    }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SingleQuery, ServeOpen, Churn, HybridCompressed)
}
