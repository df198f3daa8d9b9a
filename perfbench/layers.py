"""Per-layer metrics: span totals and public counters -> declared names.

``*_ms_per_query`` is a layer's **self** time in the traced timed pass
divided by the queries answered in it.  Set-up work (build, encode,
spill, snapshot capture, and on ``serve_open`` the pre-load inserts and
seals) comes from the spans of the traced set-up.  A layer a workload
never enters reads 0, which is the contrast the workloads were chosen
to show.
"""

from __future__ import annotations

import statistics

import numpy as np

from perfbench import load, spec
from perfbench.trace import Totals

__all__ = ["edges_per_obj", "layer_metrics"]

_NONE = Totals()


def edges_per_obj(must) -> float:
    """Graph edges per object of a freshly set-up index."""
    if must.is_segmented:
        segments = must.segments.describe()["segments"]
        return sum(s["edges"] for s in segments) / sum(s["n"] for s in segments)
    return must.index.num_edges / must.index.n


def layer_metrics(
    workload,
    setup: dict[str, Totals],
    setup_speed: float,
    timed: dict[str, Totals],
    edges_per_object: float,
    untraced,
    traced,
    checks,
    extra: dict[str, float],
) -> dict[str, float]:
    """Every declared per-layer metric for one traced run."""
    queries = traced.queries
    must = workload.must
    # Work counters per query: from the fixed held-out set where the
    # workload has one caller (they then repeat exactly), from the
    # traced pass itself on serve_open's mixed traffic.
    if checks.stats is not None:
        stats, counted, wave_batches = (
            checks.stats, checks.stats_queries, float(checks.stats_calls)
        )
    else:
        stats, counted = traced.stats, traced.queries
        wave_batches = traced.extra["wave_groups"]

    # Span times are scaled to reference host speed like every other
    # timing: set-up spans by the speed measured around the set-up,
    # timed-pass spans by the median speed of its rounds.
    speed = traced.speed

    def self_ms(span: str) -> float:
        return timed.get(span, _NONE).self_ns / 1e6 / queries * speed

    def both(span: str) -> Totals:
        total = Totals()
        for totals, factor in ((setup, setup_speed), (timed, speed)):
            part = totals.get(span, _NONE)
            total.add(
                Totals(
                    part.calls, part.total_ns * factor,
                    part.self_ns * factor, part.count,
                )
            )
        return total

    def seconds(totals: Totals) -> float:
        return totals.total_ns / 1e9

    def set_up_s(span: str) -> float:
        return setup.get(span, _NONE).total_ns / 1e9 * setup_speed

    build = setup.get("index.pipeline.build", _NONE)
    insert = both("index.segments.insert")
    capture = both("service.snapshot.capture")
    execute = timed.get("service.execute", _NONE)
    memory = workload.memory_per_obj()
    # Rounds are compared like with like: churn's laps differ (the
    # corpus grows), so only the laps both passes ran are used.
    common = min(len(traced.round_qps), len(untraced.round_qps))
    traced_qps = statistics.median(traced.round_qps[:common])
    untraced_qps = statistics.median(untraced.round_qps[:common])
    attributed_s = sum(t.self_ns for t in timed.values()) / 1e9

    values = {
        "core.framework.dispatch_self_ms_per_query":
            self_ms("core.framework.query"),
        "core.query.compile_filter_ms_per_query":
            self_ms("core.query.compile_filter"),
        "core.query.filter_selectivity": workload.filter_selectivity(),
        "index.search.joint_search_ms_per_query":
            self_ms("index.search.joint_search"),
        "index.search.joint_evals_per_query": stats.joint_evals / counted,
        "index.search.hops_per_query": stats.hops / counted,
        "index.search.visited_per_query": stats.visited_vertices / counted,
        "index.graph_wave.search_ms_per_query":
            self_ms("index.graph_wave.search"),
        "index.graph_wave.waves_per_batch":
            stats.waves / wave_batches if stats.waves else 0.0,
        "index.graph_wave.frontier_rows_per_query":
            sum(stats.frontier_sizes) / counted,
        "index.scoring.batch_score_all_ms_per_query":
            self_ms("index.scoring.batch_score_all"),
        "index.scoring.rerank_exact_ms_per_query":
            self_ms("index.scoring.rerank_exact"),
        "index.scoring.reranked_per_query": stats.reranked / counted,
        "index.scoring.pruned_early_per_query": stats.pruned_early / counted,
        "index.executor.self_ms_per_query": self_ms("index.executor.run"),
        "index.segments.graph_wave_ms_per_query":
            self_ms("index.segments.graph_wave"),
        "index.segments.exact_wave_ms_per_query":
            self_ms("index.segments.exact_wave"),
        "index.segments.segments_probed_per_query":
            stats.segments_probed / counted,
        "index.segments.insert_ms_per_obj":
            insert.self_ns / 1e6 / insert.count if insert.count else 0.0,
        "index.segments.seal_s_total": seconds(both("index.segments.seal")),
        "index.segments.compact_s_total":
            seconds(both("index.segments.compact")),
        "index.pipeline.build_s": set_up_s("index.pipeline.build"),
        "index.pipeline.build_obj_s": (
            build.count / set_up_s("index.pipeline.build")
            if build.count else 0.0
        ),
        "index.pipeline.edges_per_obj": edges_per_object,
        "store.kernel_ms_per_query": self_ms("store.kernel"),
        "store.encode_s": set_up_s("store.encode"),
        "store.hot_bytes_per_obj": memory["hot_bytes"],
        "store.cold_bytes_per_obj": memory["cold_bytes"],
        "store.mmap.gather_ms_per_query": self_ms("store.mmap.gather"),
        "store.mmap.rows_gathered_per_query":
            timed.get("store.mmap.gather", _NONE).count / queries,
        "store.mmap.spill_s": set_up_s("store.mmap.spill"),
        "sparse.score_ms_per_query": self_ms("sparse.score"),
        "sparse.topk_ms_per_query": self_ms("sparse.topk"),
        "sparse.fuse_ms_per_query": self_ms("sparse.fuse"),
        "sparse.rows_touched_per_query":
            timed.get("sparse.score", _NONE).count / queries,
        "utils.topk.select_ms_per_query": self_ms("utils.topk.select"),
        "service.snapshot.capture_ms":
            capture.total_ns / 1e6 / capture.calls if capture.calls else 0.0,
        "harness.trace_overhead_frac": 1.0 - traced_qps / untraced_qps,
        "harness.untraced_frac": max(0.0, 1.0 - attributed_s / traced.wall_s),
        "harness.rounds_iqr_frac": load.iqr_frac(traced.round_qps),
        "harness.host_speed": speed,
    }

    # Segment lifecycle counters, from the index's own describe().
    if must.is_segmented:
        described = must.segments.describe()
        values["index.segments.seals"] = float(described["seals"])
        values["index.segments.compactions"] = float(described["compactions"])
        values["index.segments.num_segments_mean"] = float(
            must.segments.num_segments
        )

    # The service, seen from the dispatcher's side of the saturation pass.
    if workload.service is not None:
        summary = workload.service.stats.summary()
        values["service.queue_wait_p50_ms"] = summary["wait_ms"]["p50"] * speed
        values["service.queue_wait_p95_ms"] = summary["wait_ms"]["p95"] * speed
        values["service.batch_size_mean"] = queries / traced.calls
        values["service.execute_ms_per_batch"] = (
            execute.total_ns / 1e6 / traced.calls * speed
        )
        values["service.overhead_ms_per_req"] = (
            (traced.wall_s - execute.total_ns / 1e9) * 1e3 / queries * speed
        )
        values["harness.samples"] = float(queries)
    else:
        pooled = np.concatenate(traced.round_latencies_s)
        values["harness.lat_p99_ms"] = 1e3 * load.percentile(
            pooled, 99, traced.weight, workload.scale.min_beyond
        )
        values["harness.samples"] = float(pooled.size * traced.weight)

    # What only the load generator knows (churn's caller-side timings,
    # serve_open's rate steps) overrides; whatever is still unset is a
    # layer this workload never entered.
    values.update(traced.extra)
    values.update(extra)
    return {m.name: float(values.get(m.name, 0.0)) for m in spec.PER_LAYER}
