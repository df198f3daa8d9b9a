"""What the benchmark declares: workloads, metrics, bounds.

``BENCHMARK.json`` at the repository root must say the same thing;
``python3 perfbench/run.py --check`` fails when the two disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "COMMAND",
    "PATHS",
    "RUN_SECONDS",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "Metric",
    "benchmark_json",
]

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 12


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end metrics only


WORKLOADS: dict[str, str] = {
    "single_query": (
        "Paper Fig. 6 protocol: one caller, one heap-engine query at a "
        "time on one fused graph; only framework dispatch and "
        "index.search work, so service/segments/store/sparse changes "
        "predict no change"
    ),
    "serve_open": (
        "MustService on a 5-segment index, 60% wave graph / 40% filtered "
        "exact, saturated from one thread (open-loop steps when traced): "
        "only here are queue wait, coalescing, compile_filter and "
        "exact_wave run"
    ),
    "churn": (
        "Fixed insert/query/delete/save trace on a changing "
        "multi-segment layout: a read gain bought with slower "
        "seal/compact/save shows here and nowhere else"
    ),
    "hybrid_compressed": (
        "Batches of hybrid dense+BM25 queries on a PQ store with an "
        "mmap cold tier: crosses ADC kernels, inverted scorer, fusion "
        "and cold-row gathers at once, with memory beside speed"
    ),
}

END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("qps", "queries/s", "higher", 0.25),
    Metric("lat_p50_ms", "ms", "lower", 0.25),
    Metric("lat_p95_ms", "ms", "lower", 0.25),
    Metric("recall_at_10", "ratio", "higher", 0.02),
    Metric("rss_mb", "MiB", "lower", 0.15),
    Metric("resident_bytes_per_obj", "B/object", "lower", 0.01),
)


def _layer(prefix: str, *rows: tuple[str, str, str]) -> tuple[Metric, ...]:
    return tuple(Metric(f"{prefix}.{n}", u, b) for n, u, b in rows)


PER_LAYER: tuple[Metric, ...] = (
    *_layer("core.framework", ("dispatch_self_ms_per_query", "ms", "lower")),
    *_layer(
        "core.query",
        ("compile_filter_ms_per_query", "ms", "lower"),
        ("filter_selectivity", "ratio", "higher"),
    ),
    *_layer(
        "index.search",
        ("joint_search_ms_per_query", "ms", "lower"),
        ("joint_evals_per_query", "count", "lower"),
        ("hops_per_query", "count", "lower"),
        ("visited_per_query", "count", "lower"),
    ),
    *_layer(
        "index.graph_wave",
        ("search_ms_per_query", "ms", "lower"),
        ("waves_per_batch", "count", "lower"),
        ("frontier_rows_per_query", "count", "lower"),
    ),
    *_layer(
        "index.scoring",
        ("batch_score_all_ms_per_query", "ms", "lower"),
        ("rerank_exact_ms_per_query", "ms", "lower"),
        ("reranked_per_query", "count", "lower"),
        ("pruned_early_per_query", "count", "higher"),
    ),
    *_layer("index.executor", ("self_ms_per_query", "ms", "lower")),
    *_layer(
        "index.segments",
        ("graph_wave_ms_per_query", "ms", "lower"),
        ("exact_wave_ms_per_query", "ms", "lower"),
        ("segments_probed_per_query", "count", "lower"),
        ("insert_ms_per_obj", "ms", "lower"),
        ("ingest_obj_s", "objects/s", "higher"),
        ("insert_lat_p50_ms", "ms", "lower"),
        ("seal_s_total", "s", "lower"),
        ("compact_s_total", "s", "lower"),
        ("seals", "count", "lower"),
        ("compactions", "count", "lower"),
        ("stall_max_ms", "ms", "lower"),
        ("save_ms_mean", "ms", "lower"),
        ("load_ms", "ms", "lower"),
        ("disk_bytes_per_obj", "B/object", "lower"),
        ("num_segments_mean", "count", "lower"),
    ),
    *_layer(
        "index.pipeline",
        ("build_s", "s", "lower"),
        ("build_obj_s", "objects/s", "higher"),
        ("edges_per_obj", "count", "lower"),
    ),
    *_layer(
        "store",
        ("kernel_ms_per_query", "ms", "lower"),
        ("encode_s", "s", "lower"),
        ("hot_bytes_per_obj", "B/object", "lower"),
        ("cold_bytes_per_obj", "B/object", "lower"),
    ),
    *_layer(
        "store.mmap",
        ("gather_ms_per_query", "ms", "lower"),
        ("rows_gathered_per_query", "count", "lower"),
        ("spill_s", "s", "lower"),
    ),
    *_layer(
        "sparse",
        ("score_ms_per_query", "ms", "lower"),
        ("topk_ms_per_query", "ms", "lower"),
        ("fuse_ms_per_query", "ms", "lower"),
        ("rows_touched_per_query", "count", "lower"),
    ),
    *_layer("utils.topk", ("select_ms_per_query", "ms", "lower")),
    *_layer(
        "service",
        ("queue_wait_p50_ms", "ms", "lower"),
        ("queue_wait_p95_ms", "ms", "lower"),
        ("batch_size_mean", "count", "higher"),
        ("execute_ms_per_batch", "ms", "lower"),
        ("overhead_ms_per_req", "ms", "lower"),
        ("rejected", "count", "lower"),
        ("lat_p50_ms.r300", "ms", "lower"),
        ("lat_p95_ms.r150", "ms", "lower"),
        ("lat_p95_ms.r300", "ms", "lower"),
        ("lat_p95_ms.r450", "ms", "lower"),
        ("max_rate_ok", "1/s", "higher"),
    ),
    *_layer("service.snapshot", ("capture_ms", "ms", "lower")),
    *_layer(
        "harness",
        ("gen_late_p99_ms", "ms", "lower"),
        ("trace_overhead_frac", "ratio", "lower"),
        ("untraced_frac", "ratio", "lower"),
        ("lat_p99_ms", "ms", "lower"),
        ("samples", "count", "higher"),
        ("rounds_iqr_frac", "ratio", "lower"),
        ("host_speed", "ratio", "higher"),
    ),
)


def benchmark_json() -> dict:
    """The exact content ``BENCHMARK.json`` must have."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
