"""Efficiency & scalability experiments: Fig. 6–8, Tab. VII, Tab. XII, Fig. 10(c).

Wall-clock comparisons in this pure-Python port carry interpreter
overhead that the paper's C++ kernels do not, so every efficiency table
reports **joint similarity evaluations** alongside QPS: the evaluation
counts reproduce the paper's work ratios exactly, while QPS shapes match
once the corpus is large enough that BLAS scans stop being free.

All throughput numbers are measured through the batched
:class:`~repro.index.executor.BatchExecutor` entry points (typed
``MUST.query`` batches), i.e. what a serving deployment would run;
:func:`batch_throughput` additionally compares the execution strategies
(single-query loop vs batched vs thread-parallel vs GEMM-batched exact)
head to head at a fixed operating point.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import cache
from repro.bench.harness import Table
from repro.baselines import BruteForceMUST, MultiStreamedRetrieval
from repro.core.framework import MUST
from repro.core.query import Eq, Query, Range, SearchOptions
from repro.core.weights import Weights
from repro.datasets.largescale import exact_ground_truth
from repro.index.segments import SegmentPolicy
from repro.metrics import mean_recall, measure_batch_qps, measure_qps

__all__ = [
    "fig6_qps_recall",
    "tab7_data_volume",
    "fig7_build_cost",
    "fig8_topk",
    "tab12_beam_width",
    "fig10c_multivector",
    "batch_throughput",
    "dynamic_throughput",
    "compression_tradeoff",
    "serving_throughput",
    "sharded_throughput",
    "filtered_throughput",
    "mmap_tradeoff",
    "hybrid_throughput",
]

_L_SWEEP = (10, 20, 40, 80, 160, 320)
_MR_BUDGET_SWEEP = (20, 50, 100, 250, 500, 1000)


def _typed_batch(must: MUST, queries, **options):
    """Typed batch through ``MUST.query``."""
    return must.query([Query(q) for q in queries], SearchOptions(**options))


def _typed_one(must: MUST, query, **options):
    """Typed single query through ``MUST.query``."""
    return must.query(Query(query), SearchOptions(**options))


def _recall_vs_exact(results, gt, k):
    return mean_recall([r[:k] for r in results], [g[:k] for g in gt], k)


def fig6_qps_recall(kind: str = "image") -> Table:
    """Fig. 6: QPS vs Recall@10(10) for MUST / MUST-- / MR / MR--."""
    enc, must = cache.largescale_must(kind)
    gt = exact_ground_truth(enc, must.weights, k=10)
    queries = enc.queries
    headers = ["Method", "Param", "Recall@10(10)", "QPS", "JointEvals/query"]
    rows: list[list] = []

    for l in _L_SWEEP:
        run = measure_batch_qps(
            lambda qs, l=l: _typed_batch(must, qs, k=10, l=l), queries
        )
        rec = _recall_vs_exact([r.ids for r in run.results], gt, 10)
        evals = np.mean([r.stats.joint_evals for r in run.results])
        rows.append(["MUST", f"l={l}", rec, run.qps, evals])

    brute = BruteForceMUST(enc.objects, must.weights).build()
    run = measure_batch_qps(lambda qs: brute.batch_search(qs, k=10), queries)
    rec = _recall_vs_exact([r.ids for r in run.results], gt, 10)
    rows.append(["MUST--", "-", rec, run.qps, float(enc.objects.n)])

    mr = MultiStreamedRetrieval(enc.objects).build()
    for budget in _MR_BUDGET_SWEEP:
        run = measure_batch_qps(
            lambda qs, b=budget: mr.batch_search(
                qs, k=10, candidates_per_modality=b
            ),
            queries,
        )
        rec = _recall_vs_exact([r.ids for r in run.results], gt, 10)
        evals = np.mean([r.stats.joint_evals for r in run.results])
        rows.append(["MR", f"cand={budget}", rec, run.qps, evals])

    mr_exact = MultiStreamedRetrieval(enc.objects, exact=True).build()
    run = measure_batch_qps(
        lambda qs: mr_exact.batch_search(qs, k=10, candidates_per_modality=200),
        queries,
    )
    rec = _recall_vs_exact([r.ids for r in run.results], gt, 10)
    rows.append(["MR--", "cand=200", rec, run.qps, 2.0 * enc.objects.n])

    return Table(
        "Fig. 6", f"QPS vs recall on {enc.name}", headers, rows,
        notes="MR recall saturates regardless of budget; MUST reaches "
              ">0.95 recall with a small fraction of the evaluations.",
    )


def tab7_data_volume(
    volumes: tuple[int, ...] = (2_500, 5_000, 10_000, 20_000, 40_000),
) -> Table:
    """Tab. VII: response time of MUST vs MUST-- across corpus volumes."""
    headers = ["Scale", "MUST-- ms/query", "MUST ms/query",
               "MUST-- evals/query", "MUST evals/query", "WorkReduction",
               "MUST Recall@10(10)"]
    rows = []
    for n in volumes:
        enc, must = cache.largescale_must("image", n)
        gt = exact_ground_truth(enc, must.weights, k=10)
        queries = enc.queries
        brute = BruteForceMUST(enc.objects, must.weights).build()
        brute_run = measure_batch_qps(
            lambda qs: brute.batch_search(qs, k=10), queries
        )
        # High-accuracy operating point, as in the paper (recall > 0.99
        # at l tuned per scale; a fixed generous l suffices here).
        must_run = measure_batch_qps(
            lambda qs: _typed_batch(must, qs, k=10, l=200), queries
        )
        rec = _recall_vs_exact([r.ids for r in must_run.results], gt, 10)
        evals = float(np.mean(
            [r.stats.joint_evals for r in must_run.results]
        ))
        reduction = 1.0 - evals / n
        rows.append([
            f"{n/1000:g}K",
            brute_run.mean_latency * 1e3,
            must_run.mean_latency * 1e3,
            float(n),
            evals,
            f"{reduction:.1%}",
            rec,
        ])
    return Table(
        "Tab. VII", "Response time vs data volume (ImageText)", headers, rows,
        notes="Brute-force similarity work grows linearly with n while the "
              "fused index stays near-flat (WorkReduction column — the "
              "paper's ↓98.4% at 16M). Wall-clock in pure Python still "
              "favours BLAS scans at these corpus sizes; the evaluation "
              "counts carry the scalability claim.",
    )


def fig7_build_cost(
    volumes: tuple[int, ...] = (2_500, 5_000, 10_000, 20_000, 40_000),
) -> Table:
    """Fig. 7: build time and index size, MUST vs MR, across volumes."""
    headers = ["Scale", "MUST build (s)", "MR build (s)",
               "MUST size (MB)", "MR size (MB)"]
    rows = []
    for n in volumes:
        enc, must = cache.largescale_must("image", n)
        mr = MultiStreamedRetrieval(enc.objects).build()
        rows.append([
            f"{n/1000:g}K",
            must.index.build_seconds,
            mr.build_seconds,
            must.index.size_in_bytes() / 2**20,
            mr.index_size_in_bytes() / 2**20,
        ])
    return Table(
        "Fig. 7", "Index build time and size vs data volume", headers, rows,
        notes="MR maintains one graph per modality — roughly double the "
              "build time and storage of MUST's single fused graph.",
    )


def fig8_topk() -> Table:
    """Fig. 8: effect of k on the QPS–recall tradeoff (MUST vs MR)."""
    enc, must = cache.largescale_must("image")
    mr = MultiStreamedRetrieval(enc.objects).build()
    queries = enc.queries
    headers = ["k", "Method", "Param", "Recall@k(k)", "QPS"]
    rows = []
    for k in (1, 50, 100):
        gt = exact_ground_truth(enc, must.weights, k=k)
        run = measure_batch_qps(
            lambda qs, k=k: _typed_batch(must, qs, k=k, l=max(4 * k, 160)),
            queries,
        )
        rec = _recall_vs_exact([r.ids for r in run.results], gt, k)
        rows.append([k, "MUST", f"l={max(4 * k, 160)}", rec, run.qps])
        budget = max(20 * k, 200)
        run = measure_batch_qps(
            lambda qs, k=k, b=budget: mr.batch_search(
                qs, k=k, candidates_per_modality=b
            ),
            queries,
        )
        rec = _recall_vs_exact([r.ids for r in run.results], gt, k)
        rows.append([k, "MR", f"cand={budget}", rec, run.qps])
    return Table(
        "Fig. 8", "Effect of k (ImageText)", headers, rows,
        notes="MR needs ever larger candidate budgets as k grows, widening "
              "MUST's advantage (paper §VIII-F).",
    )


def tab12_beam_width() -> Table:
    """Tab. XII: recall / response time under different l."""
    enc, must = cache.largescale_must("image")
    gt = exact_ground_truth(enc, must.weights, k=10)
    headers = ["l", "Recall@10(10)", "ms/query", "JointEvals/query"]
    rows = []
    for l in (20, 40, 80, 160, 320, 640):
        run = measure_batch_qps(
            lambda qs, l=l: _typed_batch(must, qs, k=10, l=l), enc.queries
        )
        rec = _recall_vs_exact([r.ids for r in run.results], gt, 10)
        evals = np.mean([r.stats.joint_evals for r in run.results])
        rows.append([l, rec, run.mean_latency * 1e3, evals])
    return Table(
        "Tab. XII", "Search performance vs result-set size l", headers, rows,
        notes="Recall and cost both increase monotonically with l.",
    )


def fig10c_multivector() -> Table:
    """Fig. 10(c): the Lemma-4 multi-vector computation optimisation."""
    enc, must = cache.largescale_must("image")
    gt = exact_ground_truth(enc, must.weights, k=10)
    headers = ["l", "Variant", "Recall@10(10)", "ModalityEvals/query", "QPS"]
    rows = []
    for l in (20, 80, 320):
        for label, flag in (("w/o optimization", False), ("w. optimization", True)):
            run = measure_batch_qps(
                lambda qs, l=l, f=flag: _typed_batch(
                    must, qs, k=10, l=l, early_termination=f
                ),
                enc.queries,
            )
            rec = _recall_vs_exact([r.ids for r in run.results], gt, 10)
            evals = np.mean([r.stats.modality_evals for r in run.results])
            rows.append([l, label, rec, evals, run.qps])
    return Table(
        "Fig. 10(c)", "Multi-vector computation optimisation", headers, rows,
        notes="Identical recall with fewer modality evaluations (Lemma 4). "
              "Wall-clock gains are muted in pure Python (see module doc).",
    )


def dynamic_throughput(
    kind: str = "image",
    k: int = 10,
    l: int = 80,
    stream_fraction: float = 0.3,
    delete_fraction: float = 0.1,
    num_stream_batches: int = 8,
    seed: int = 0,
) -> tuple[Table, dict]:
    """Streaming-workload benchmark over the segmented subsystem (§IX).

    Builds MUST on a prefix of the corpus, then streams the remaining
    ``stream_fraction`` in batches **interleaved** with search bursts and
    soft deletes — the serving pattern the LSM-style
    :class:`~repro.index.segments.SegmentedIndex` exists for.  Reports
    insert/search/delete throughput during the stream, then force-compacts
    and compares steady-state search QPS against a **freshly built**
    single-segment index over the same surviving objects (they build
    identical graphs, so the gap isolates the segmented layer's merge
    overhead; the acceptance bar is staying within 10%).  Returns the
    table plus the ``BENCH_dynamic_qps.json`` payload.
    """
    enc = cache.largescale_encoded(kind, cache.DYNAMIC_N)
    objects = enc.objects
    queries = enc.queries
    n = objects.n
    n0 = int(n * (1.0 - stream_fraction))
    policy = SegmentPolicy(
        seal_size=max((n - n0) // 4, 64),
        max_segments=4,
        max_deleted_fraction=0.3,
        min_compact_size=256,
    )
    must = MUST(
        objects.subset(np.arange(n0)),
        weights=Weights.uniform(objects.num_modalities),
        segment_policy=policy,
    )
    t0 = time.perf_counter()
    must.build()
    build_seconds = time.perf_counter() - t0

    rng = np.random.default_rng(seed)
    batch_edges = np.linspace(n0, n, num_stream_batches + 1).astype(int)
    insert_s = search_s = delete_s = 0.0
    searches = deletes = 0
    for lo, hi in zip(batch_edges[:-1], batch_edges[1:]):
        if hi > lo:
            batch = objects.subset(np.arange(lo, hi))
            t0 = time.perf_counter()
            must.insert(batch)
            insert_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        _typed_batch(must, queries, k=k, l=l)
        search_s += time.perf_counter() - t0
        searches += len(queries)
        active = must.segments.active_ext_ids()
        count = max(int((hi - lo) * delete_fraction), 1)
        doomed = rng.choice(active, size=min(count, active.size - 2),
                            replace=False)
        t0 = time.perf_counter()
        must.mark_deleted(doomed)
        delete_s += time.perf_counter() - t0
        deletes += doomed.size
    inserted = int(n - n0)

    t0 = time.perf_counter()
    _, active = must.compact()
    compact_seconds = time.perf_counter() - t0

    fresh = MUST(
        objects.subset(active),
        weights=must.weights,
        builder=must.builder,
    ).build()

    # Interleaved A/B rounds, best-of: measuring the two targets
    # back-to-back within each round cancels process-level drift (cache
    # state, turbo) that a sequential best-of cannot.
    def one_round(target: MUST):
        return measure_batch_qps(
            lambda qs: _typed_batch(target, qs, k=k, l=l),
            queries, warmup=len(queries),
        )

    steady_qps = fresh_qps = 0.0
    steady_results = None
    for _ in range(6):
        run = one_round(must)
        if run.qps > steady_qps:
            steady_qps, steady_results = run.qps, run.results
        fresh_qps = max(fresh_qps, one_round(fresh).qps)

    # Steady-state recall vs the exact segmented scan (external-id space).
    exact = _typed_batch(must, queries, k=k, exact=True)
    steady_recall = mean_recall(
        [r.ids for r in steady_results], [r.ids for r in exact], k
    )

    headers = ["Phase", "Metric", "Value"]
    ratio = steady_qps / fresh_qps if fresh_qps else float("inf")
    rows = [
        ["build", f"initial graph over {n0} objects (s)", build_seconds],
        ["stream", "inserts/s", inserted / insert_s if insert_s else 0.0],
        ["stream", "interleaved search QPS", searches / search_s],
        ["stream", "deletes/s", deletes / delete_s if delete_s else 0.0],
        ["compact", "auto+forced rebuild (s)", compact_seconds],
        ["steady", "segmented QPS after compaction", steady_qps],
        ["steady", "fresh single-segment QPS", fresh_qps],
        ["steady", "segmented/fresh ratio", ratio],
        ["steady", f"recall@{k}(exact)", steady_recall],
    ]
    payload = {
        "dataset": enc.name,
        "n": int(n),
        "n_initial": int(n0),
        "streamed": inserted,
        "deleted": int(deletes),
        "active_final": int(active.size),
        "num_queries": len(queries),
        "k": k,
        "l": l,
        "policy": policy.to_dict(),
        "build_seconds": float(build_seconds),
        "insert_qps": float(inserted / insert_s) if insert_s else 0.0,
        "interleaved_search_qps": float(searches / search_s),
        "delete_qps": float(deletes / delete_s) if delete_s else 0.0,
        "compact_seconds": float(compact_seconds),
        "steady_qps": float(steady_qps),
        "fresh_qps": float(fresh_qps),
        "steady_vs_fresh": float(ratio),
        "steady_recall": float(steady_recall),
        "lifecycle": must.segments.describe(),
    }
    table = Table(
        "Dynamic QPS", f"Streaming insert/search/delete on {enc.name}",
        headers, rows,
        notes="Interleaved streaming traffic over the segmented index; "
              "after auto-compaction the corpus lives in one sealed "
              "segment built from the same rows as the fresh baseline, "
              "so the QPS ratio isolates the segmented layer's overhead.",
    )
    return table, payload


def batch_throughput(
    kind: str = "image",
    k: int = 10,
    l: int = 80,
) -> tuple[Table, dict]:
    """Single-query vs batched QPS at a fixed operating point.

    Compares the execution strategies the
    :class:`~repro.index.executor.BatchExecutor` offers over the *same*
    index and query set: the single-query loop against the lockstep
    wave batch, and — for the exact path — the per-query scan against
    the single-GEMM batch.  Returns the table plus a JSON-ready payload
    for the ``BENCH_batch_qps.json`` perf-trajectory artifact.
    """
    enc, must = cache.largescale_must(kind)
    gt = exact_ground_truth(enc, must.weights, k=k)
    queries = enc.queries
    headers = ["Path", "Mode", "Recall@10(10)", "QPS", "Speedup"]
    rows: list[list] = []
    payload: dict = {
        "dataset": enc.name,
        "n": int(enc.objects.n),
        "num_queries": len(queries),
        "k": k,
        "l": l,
        "modes": {},
    }

    def record(path: str, mode: str, run, baseline_qps: float | None) -> float:
        rec = _recall_vs_exact([r.ids for r in run.results], gt, k)
        speedup = run.qps / baseline_qps if baseline_qps else 1.0
        rows.append([path, mode, rec, run.qps, f"{speedup:.2f}x"])
        payload["modes"][f"{path}/{mode}"] = {
            "qps": float(run.qps),
            "recall": float(rec),
            "speedup": float(speedup),
        }
        return run.qps

    single = measure_qps(lambda q: _typed_one(must, q, k=k, l=l), queries)
    base = record("graph", "single-query loop", single, None)
    # The lockstep wave engine — the default batch plan.  The executed
    # plan and wave count ride into the payload so the regression gate
    # asserts *which path ran*, not just how fast something went.
    wave_trace: dict = {}

    def wave_fn(qs):
        run = _typed_batch(must, qs, k=k, l=l)
        wave_trace["plan"] = run.plan
        wave_trace["waves"] = int(run.stats.waves)
        return run

    # Warm one small wave first: the engine's CSR adjacency cache and
    # the stacked einsum path are one-time per-index artifacts, not
    # per-batch work (the other modes carry no such build step).
    wave = measure_batch_qps(wave_fn, queries, warmup=min(4, len(queries)))
    record("graph", "wave", wave, base)
    payload["modes"]["graph/wave"]["plan"] = wave_trace.get("plan", "")
    payload["modes"]["graph/wave"]["waves"] = wave_trace.get("waves", 0)

    exact_single = measure_qps(
        lambda q: _typed_one(must, q, k=k, exact=True), queries
    )
    exact_base = record("exact", "single-query loop", exact_single, None)
    exact_batch = measure_batch_qps(
        lambda qs: _typed_batch(must, qs, k=k, exact=True), queries
    )
    record("exact", "executor GEMM batch", exact_batch, exact_base)

    table = Table(
        "Batch QPS", f"Execution strategies on {enc.name}", headers, rows,
        notes="Same index, same queries: the executor's GEMM wave batches "
              "the exact scan and the lockstep wave engine advances "
              "every beam in one stacked scoring call per hop — the "
              "default batch plan. Recall shifts slightly between loop "
              "and executor because the executor gives every query its "
              "own SeedSequence child instead of a shared rng=0 init "
              "draw.",
    )
    return table, payload


def _closed_loop(service, per_client: list[list[tuple]]) -> tuple[list, float]:
    """Run one closed-loop round: each client thread issues its requests
    back to back through ``service.search`` (typed ``SearchOptions``
    plans).  Returns the per-client response lists and the wall-clock
    seconds for the whole round.
    A client failure (overload, search error) is re-raised here rather
    than left as a dead thread and an opaque ``None`` downstream."""
    import threading
    import time as _time

    results: list = [None] * len(per_client)

    def client(slot: int) -> None:
        out = []
        try:
            for query, params in per_client[slot]:
                out.append(service.search(query, params))
        except Exception as exc:  # surfaced after join
            results[slot] = exc
            return
        results[slot] = out

    threads = [
        threading.Thread(target=client, args=(slot,))
        for slot in range(len(per_client))
    ]
    t0 = _time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = _time.perf_counter() - t0
    for outcome in results:
        if isinstance(outcome, Exception):
            raise outcome
    return results, elapsed


def serving_throughput(
    kind: str = "image",
    k: int = 10,
    l: int = 80,
    num_clients: int | None = None,
    requests_per_client: int = 4,
    max_batch: int = 32,
    max_wait_ms: float = 2.0,
    stream_fraction: float = 0.05,
    seed: int = 0,
) -> tuple[Table, dict]:
    """Closed-loop serving benchmark: coalesced vs per-query dispatch.

    Builds a segmented deployment (graph over a prefix, the rest
    streamed in — the state a serving process actually sits in), then
    measures the same request load three ways per mode:

    * **sequential** — each request dispatched one at a time through
      ``MUST.search``, the pre-serving baseline;
    * **served** — ``num_clients`` closed-loop client threads against a
      :class:`~repro.service.MustService`, whose dispatcher coalesces
      concurrent requests into batched waves (per-segment GEMM
      prefilter + float64 rerank on the exact path);
    * **served + writers** (exact mode) — the same load while a writer
      thread streams inserts and deletes through the service, exercising
      snapshot-isolated reads under churn.

    The exact served mode must reach ≥1.5× the sequential exact QPS —
    the serving layer's acceptance bar — while staying bit-identical to
    ``MUST.search`` on the same snapshot (spot-checked here, pinned
    down in tests/test_service.py).  Graph-path coalescing is reported
    too; on a single-core host it is parity, not speed-up (thread
    pooling needs cores, GEMM batching does not).
    """
    import threading
    import time as _time

    from repro.service import ServiceStats

    if num_clients is None:
        num_clients = cache.SERVING_CLIENTS
    enc = cache.largescale_encoded(kind, cache.SERVING_N)
    objects = enc.objects
    queries = list(enc.queries)
    n = objects.n
    n0 = int(n * (1.0 - stream_fraction))
    must = MUST(
        objects.subset(np.arange(n0)),
        weights=Weights.uniform(objects.num_modalities),
        segment_policy=SegmentPolicy(seal_size=max(n - n0, 64) * 2),
    ).build()
    must.insert(objects.subset(np.arange(n0, n)))

    total = num_clients * requests_per_client
    plans = {
        "exact": SearchOptions(k=k, exact=True),
        "graph": SearchOptions(k=k, l=l),
        "graph_wave": SearchOptions(k=k, l=l, engine="wave"),
    }

    def request_stream(mode: str) -> list[tuple]:
        params = plans[mode]
        return [
            (queries[i % len(queries)], params) for i in range(total)
        ]

    def split(reqs: list[tuple]) -> list[list[tuple]]:
        return [
            reqs[slot * requests_per_client:(slot + 1) * requests_per_client]
            for slot in range(num_clients)
        ]

    headers = ["Mode", "Dispatch", "QPS", "Speedup", "p50 ms", "p95 ms",
               "p99 ms", "Mean batch"]
    rows: list[list] = []
    payload: dict = {
        "dataset": enc.name,
        "n": int(n),
        "num_clients": int(num_clients),
        "requests_per_client": int(requests_per_client),
        "total_requests": int(total),
        "k": k,
        "l": l,
        "max_batch": int(max_batch),
        "max_wait_ms": float(max_wait_ms),
        "modes": {},
    }

    def sequential_qps(mode: str) -> float:
        reqs = request_stream(mode)
        run = measure_qps(
            lambda task: must.query(task[0], task[1]),
            reqs,
            warmup=min(len(queries), total) // 2,
        )
        return run.qps

    def served_round(mode: str, writers: bool = False) -> dict:
        service = must.serve(
            max_batch=max_batch, max_wait_ms=max_wait_ms,
            max_queue=max(4 * num_clients, 64),
        )
        try:
            # Warm-up wave so lazy artifacts and thread pools exist, then
            # a fresh stats window so the reported percentiles and batch
            # histogram cover only the measured traffic.
            _closed_loop(service, split(request_stream(mode))[:4])
            service.stats = ServiceStats(service.config.latency_window)
            stop = threading.Event()
            writer_errors: list[Exception] = []

            def writer() -> None:
                rng = np.random.default_rng(seed)
                step = 0
                try:
                    while not stop.is_set():
                        lo = (step * 4) % max(n - n0, 4)
                        service.insert(
                            objects.subset(np.arange(lo, lo + 4) % n)
                        )
                        if step % 4 == 3:
                            active = service.active_ids()
                            doomed = rng.choice(active, size=2, replace=False)
                            service.mark_deleted(doomed)
                        step += 1
                        _time.sleep(0.002)
                except Exception as exc:  # pragma: no cover - failure path
                    writer_errors.append(exc)

            wthread = None
            if writers:
                wthread = threading.Thread(target=writer)
                wthread.start()
            results, elapsed = _closed_loop(
                service, split(request_stream(mode))
            )
            if wthread is not None:
                stop.set()
                wthread.join()
                if writer_errors:
                    raise writer_errors[0]
            answered = sum(len(r) for r in results)
            summary = service.stats.summary()
            return {
                "qps": total / elapsed,
                "answered": answered,
                "p50_ms": summary["latency_ms"].get("p50"),
                "p95_ms": summary["latency_ms"].get("p95"),
                "p99_ms": summary["latency_ms"].get("p99"),
                "mean_batch": service.stats.mean_batch_size,
                "wave_groups": sum(summary["graph_waves"].values()),
            }
        finally:
            service.close()

    for mode in ("exact", "graph"):
        seq = sequential_qps(mode)
        rows.append([mode, "sequential loop", seq, "1.00x", "-", "-", "-", "-"])
        payload["modes"][f"{mode}/sequential"] = {"qps": float(seq)}
        served = served_round(mode)
        speedup = served["qps"] / seq
        rows.append([
            mode, f"served ({num_clients} clients)", served["qps"],
            f"{speedup:.2f}x", served["p50_ms"], served["p95_ms"],
            served["p99_ms"], served["mean_batch"],
        ])
        payload["modes"][f"{mode}/served"] = {
            "qps": float(served["qps"]),
            "speedup": float(speedup),
            "p50_ms": float(served["p50_ms"]),
            "p95_ms": float(served["p95_ms"]),
            "p99_ms": float(served["p99_ms"]),
            "mean_batch": float(served["mean_batch"]),
            "answered": int(served["answered"]),
        }

    # Graph-wave serving: clients opt into the lockstep engine
    # (engine="wave"); its baseline stays the *pre-serving* sequential
    # graph loop (the heap plan above), so the speedup honestly measures
    # coalescing + wave restructuring against what a caller had before
    # the serving layer — not against a slow wave-of-one dispatch.
    wave_served = served_round("graph_wave")
    wave_seq = payload["modes"]["graph/sequential"]["qps"]
    wave_speedup = wave_served["qps"] / wave_seq
    rows.append([
        "graph_wave", f"served ({num_clients} clients)", wave_served["qps"],
        f"{wave_speedup:.2f}x", wave_served["p50_ms"], wave_served["p95_ms"],
        wave_served["p99_ms"], wave_served["mean_batch"],
    ])
    payload["modes"]["graph_wave/served"] = {
        "qps": float(wave_served["qps"]),
        "speedup": float(wave_speedup),
        "p50_ms": float(wave_served["p50_ms"]),
        "p95_ms": float(wave_served["p95_ms"]),
        "p99_ms": float(wave_served["p99_ms"]),
        "mean_batch": float(wave_served["mean_batch"]),
        "answered": int(wave_served["answered"]),
        "wave_groups": int(wave_served["wave_groups"]),
    }

    churn = served_round("exact", writers=True)
    churn_speedup = churn["qps"] / payload["modes"]["exact/sequential"]["qps"]
    rows.append([
        "exact", "served + writers", churn["qps"], f"{churn_speedup:.2f}x",
        churn["p50_ms"], churn["p95_ms"], churn["p99_ms"],
        churn["mean_batch"],
    ])
    payload["modes"]["exact/served+writers"] = {
        "qps": float(churn["qps"]),
        "speedup": float(churn_speedup),
        "p50_ms": float(churn["p50_ms"]),
        "p95_ms": float(churn["p95_ms"]),
        "p99_ms": float(churn["p99_ms"]),
        "mean_batch": float(churn["mean_batch"]),
        "answered": int(churn["answered"]),
    }

    # Quiesced parity spot-check: served answers are bit-identical to
    # MUST.search on the (now stable) state.
    service = must.serve(max_batch=max_batch, max_wait_ms=max_wait_ms)
    try:
        parity = True
        for q in queries[:8]:
            plan = SearchOptions(k=k, exact=True)
            res = service.search(q, plan)
            ref = must.query(q, plan)
            if not (
                np.array_equal(res.ids, ref.ids)
                and np.array_equal(res.similarities, ref.similarities)
            ):
                parity = False
    finally:
        service.close()
    payload["parity_bitwise"] = bool(parity)
    payload["coalescing_speedup_exact"] = float(
        payload["modes"]["exact/served"]["speedup"]
    )
    payload["coalescing_speedup_graph_wave"] = float(wave_speedup)

    table = Table(
        "Serving QPS",
        f"Coalesced serving vs per-query dispatch on {enc.name}",
        headers, rows,
        notes="Closed-loop clients block on each response; the service "
              "dispatcher coalesces whatever is waiting into one wave. "
              "Exact waves share per-segment GEMM prefilters and stay "
              "bit-identical to MUST.search; default graph requests keep "
              "per-query kernels (thread-pool parallelism needs cores, so "
              "on a single-core host that row is parity, not speed-up); "
              "graph_wave requests opt into the lockstep engine, whose "
              "coalesced groups amortise every hop across the batch — the "
              "first graph-path serving speedup without extra cores.",
    )
    return table, payload


def sharded_throughput(
    kind: str = "image",
    k: int = 10,
    num_clients: int = 32,
    requests_per_client: int = 8,
    worker_counts: tuple[int, ...] = (1, 2, 4),
    rounds: int = 3,
    max_batch: int = 32,
    max_wait_ms: float = 2.0,
) -> tuple[Table, dict]:
    """Process-sharded serving: exact scaling across worker processes.

    Builds one corpus, then serves the same closed-loop exact load
    through a :class:`~repro.service.ShardedService` at each worker
    count.  Two throughput numbers per count:

    * **wall QPS** — requests over wall-clock seconds.  On a host with
      fewer cores than shards this *cannot* scale (the workers
      timeshare one core), so it is reported, not gated.
    * **critical-path QPS** — requests over the *maximum per-shard CPU
      seconds* spent serving them (each worker's
      :func:`time.process_time` clock, reported by its ``stats``
      command).  This is the wave's critical path: every wave waits for
      its slowest shard, so on a host with ≥ shards idle cores the wall
      QPS converges to it.  Sharding must shrink it — each shard scans
      ``n / shards`` rows — and the scaling gate pins that: ≥1.6× at 2
      workers and ≥2.5× at 4 workers over the 1-worker tier.  The gap
      to perfect scaling is the per-wave fixed cost (IPC, per-query
      rerank bookkeeping), which is replicated per shard rather than
      split.

    Every answer is also checked bit-identical to ``MUST.search`` on
    the unsharded corpus — sharded exact serving changes the wall
    clock, never a result.  The unsharded corpus is *segmented* (built
    over a prefix, with the tail streamed in through ``insert``) so the
    oracle runs the same layout-independent exact kernel the shards do;
    a never-inserted single-graph index answers through the legacy
    full-matrix float32 scan, which agrees only to ~1e-7.  The index
    uses a deliberately cheap graph build (the exact path never touches
    the graph; each worker's spawn builds its own shard graph, and this
    benchmark spawns ``sum(worker_counts)`` of them).
    """
    import threading
    import time as _time

    from repro.index.pipeline import FusedIndexBuilder

    enc = cache.largescale_encoded(kind, cache.SHARDED_N)
    objects = enc.objects
    queries = list(enc.queries)
    built = int(objects.n * 0.98)
    must = MUST(
        objects.subset(np.arange(built)),
        weights=Weights.uniform(objects.num_modalities),
        builder=FusedIndexBuilder(gamma=8, epsilon=1, max_candidates=16),
    ).build()
    must.insert(objects.subset(np.arange(built, objects.n)))
    plan = SearchOptions(k=k, exact=True)
    total = num_clients * requests_per_client

    def closed_loop(service) -> tuple[list, float]:
        results: list = [None] * num_clients

        def client(slot: int) -> None:
            out = []
            try:
                for i in range(requests_per_client):
                    idx = (slot * requests_per_client + i) % len(queries)
                    out.append(service.search(queries[idx], plan))
            except Exception as exc:  # surfaced after join
                results[slot] = exc
                return
            results[slot] = out

        threads = [
            threading.Thread(target=client, args=(slot,))
            for slot in range(num_clients)
        ]
        t0 = _time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = _time.perf_counter() - t0
        for outcome in results:
            if isinstance(outcome, Exception):
                raise outcome
        return results, elapsed

    headers = ["Workers", "Wall QPS", "Crit-path QPS", "Scaling",
               "Max shard busy s", "Spawn s"]
    rows: list[list] = []
    payload: dict = {
        "dataset": enc.name,
        "n": int(objects.n),
        "k": k,
        "num_clients": int(num_clients),
        "requests_per_client": int(requests_per_client),
        "total_requests": int(total),
        "rounds": int(rounds),
        "workers": {},
    }
    parity = True
    # Unsharded oracle, one exact answer per distinct query — the
    # parity reference every worker count is checked against.
    refs = [must.query(q, plan) for q in queries]
    crit_by_workers: dict[int, float] = {}
    for workers in worker_counts:
        t0 = _time.perf_counter()
        service = must.serve_sharded(
            n_shards=workers, max_batch=max_batch, max_wait_ms=max_wait_ms,
            max_queue=max(4 * num_clients, 64),
        )
        spawn_s = _time.perf_counter() - t0
        try:
            # Warm-up round (lazy artifacts, page faults on the shared
            # planes), then measured rounds; each round reads the
            # per-shard CPU clocks before and after.  The gate uses the
            # best round — a capacity measure, robust to a background
            # process stealing one round's core.
            first, _ = closed_loop(service)
            flat = [r for client in first for r in client]
            for i, res in enumerate(flat):
                ref = refs[i % len(queries)]
                if not (
                    np.array_equal(res.ids, ref.ids)
                    and np.array_equal(res.similarities, ref.similarities)
                ):
                    parity = False
            wall_qps = 0.0
            crit_qps = 0.0
            max_busy = float("inf")
            for _ in range(rounds):
                before = {
                    s["shard"]: s["busy_seconds"]
                    for s in service.shard_stats()
                }
                _, elapsed = closed_loop(service)
                after = {
                    s["shard"]: s["busy_seconds"]
                    for s in service.shard_stats()
                }
                busy = max(after[s] - before[s] for s in after)
                wall_qps = max(wall_qps, total / elapsed)
                if busy < max_busy:
                    max_busy = busy
                    crit_qps = total / busy
            crit_by_workers[workers] = crit_qps
            payload["workers"][str(workers)] = {
                "wall_qps": float(wall_qps),
                "critical_path_qps": float(crit_qps),
                "max_shard_busy_s": float(max_busy),
                "spawn_seconds": float(spawn_s),
            }
            rows.append([
                workers, wall_qps, crit_qps, "-", max_busy, spawn_s,
            ])
        finally:
            service.close()

    base = crit_by_workers[worker_counts[0]]
    for row, workers in zip(rows, worker_counts):
        scaling = crit_by_workers[workers] / base
        row[3] = f"{scaling:.2f}x"
        payload["workers"][str(workers)]["scaling_vs_1w"] = float(scaling)
    payload["parity_bitwise"] = bool(parity)
    if 2 in crit_by_workers:
        payload["exact_scaling_speedup_2w"] = float(crit_by_workers[2] / base)
    if 4 in crit_by_workers:
        payload["exact_scaling_speedup_4w"] = float(crit_by_workers[4] / base)

    table = Table(
        "Sharded serving QPS",
        f"Process-sharded exact serving on {enc.name}",
        headers, rows,
        notes="Closed-loop exact clients against a ShardedService at "
              "each worker count. Crit-path QPS divides the load by the "
              "slowest shard's CPU seconds (time.process_time in the "
              "worker) — the number a host with one idle core per shard "
              "realises as wall QPS; wall QPS on a single-core host "
              "shows the timesharing overhead instead, so the scaling "
              "gate reads the critical path. Answers are bit-identical "
              "to unsharded MUST.search at every worker count.",
    )
    return table, payload


def compression_tradeoff(
    kind: str = "image",
    k: int = 10,
    l: int = 100,
    refine: int = 4,
) -> tuple[Table, dict]:
    """Memory/recall/QPS trade-off across the vector-store backends.

    Builds the fused graph **once** over full-precision vectors, then
    re-seats the same routing graph on every
    :data:`~repro.store.STORE_KINDS` backend — so the comparison
    isolates the serving representation (hot bytes + scoring kernels +
    ``refine=`` rerank) from graph-construction variance.  Reports
    resident hot-tier bytes, graph-search recall against exact
    full-precision ground truth (with and without the two-stage rerank),
    and batched QPS.  Returns the table plus the JSON payload for the
    ``BENCH_compression.json`` artifact.
    """
    import dataclasses

    from repro.index.base import reseat_on_store

    enc = cache.largescale_encoded(kind, cache.COMPRESSION_N)
    objects = enc.objects
    weights = Weights.uniform(objects.num_modalities)
    queries = enc.queries
    gt = exact_ground_truth(enc, weights, k=k)
    dense_bytes = sum(m.nbytes for m in objects.matrices)
    bytes_per_vector = dense_bytes / objects.n

    base = MUST(objects, weights=weights).build()
    backends = [
        ("none", {}, None),
        ("float16", {}, refine),
        ("int8", {}, refine),
        ("pq", {}, refine),
    ]

    headers = ["Backend", "Bytes/vec", "Compression", "Recall@10 (raw)",
               f"Recall@10 (refine={refine})", "QPS", "Rerank/query"]
    rows: list[list] = []
    payload: dict = {
        "dataset": enc.name,
        "n": int(objects.n),
        "num_queries": len(queries),
        "k": k,
        "l": l,
        "refine": refine,
        "dense_bytes_per_vector": float(bytes_per_vector),
        "backends": {},
    }

    for backend, options, backend_refine in backends:
        if backend == "none":
            must = base
        else:
            must = MUST(objects, weights=weights,
                        compression=backend, store_options=options)
            # Same routing graph for every backend: copy the built graph
            # and swap only its serving representation.
            must._index = reseat_on_store(
                dataclasses.replace(base.index), backend, options
            )
        store = must.index.space.vectors.store

        def run(qs, r=backend_refine):
            return _typed_batch(must, qs, k=k, l=l, refine=r)

        raw = _typed_batch(must, queries, k=k, l=l)
        recall_raw = mean_recall([r.ids for r in raw], gt, k)
        best = None
        for _ in range(3):
            timed = measure_batch_qps(run, queries, warmup=len(queries) // 2)
            if best is None or timed.qps > best.qps:
                best = timed
        recall = mean_recall([r.ids for r in best.results], gt, k)
        reranked = float(np.mean(
            [r.stats.reranked for r in best.results]
        ))
        hot = store.hot_bytes()
        ratio = dense_bytes / hot
        rows.append([
            backend, hot / objects.n, ratio, recall_raw, recall,
            best.qps, reranked,
        ])
        payload["backends"][backend] = {
            "hot_bytes": int(hot),
            "cold_bytes": int(store.cold_bytes()),
            "bytes_per_vector": float(hot / objects.n),
            "compression_ratio": float(ratio),
            "recall_at_10_raw": float(recall_raw),
            "recall_at_10": float(recall),
            "qps": float(best.qps),
            "reranked_per_query": reranked,
            "refine": backend_refine,
        }

    table = Table(
        "Compression", f"Vector-store backends on {enc.name}", headers, rows,
        notes="Same routing graph for every backend; only the serving "
              "representation changes. Raw recall scores the quantised "
              "codes end-to-end; the refine column re-scores the top "
              "refine*k survivors against the full-precision cold tier "
              "(two-stage rerank). QPS is batched search, best of 3.",
    )
    return table, payload


def filtered_throughput(
    kind: str = "image",
    k: int = 10,
    l: int = 80,
    rounds: int = 5,
) -> tuple[Table, dict]:
    """Per-query attribute filtering: pushdown vs post-filter cost.

    Attaches a synthetic attribute table (3-way categorical + uniform
    price, selectivity ≈ 0.23 under the benchmark predicate) to the
    large-scale corpus and compares, over the same queries:

    * the unfiltered exact batch (cost reference);
    * the **pushdown** filtered exact batch (typed ``Query.filter`` —
      the mask intersects the deletion bitsets inside the scan);
    * the naive **post-filter** loop (fetch ``k/selectivity`` unfiltered
      answers, drop inadmissible rows client-side, refetch-free upper
      bound on what an application without pushdown must do);
    * the filtered graph path, with recall measured against the
      pushdown-exact oracle (masked vertices route but never report).

    Returns the table plus the JSON payload for
    ``BENCH_filtered_qps.json`` (gated keys: ``qps``, ``speedup``,
    ``recall``).
    """
    enc, must = cache.largescale_must(kind, cache.FILTERED_N)
    n = int(enc.objects.n)
    rng = np.random.default_rng(7)
    attribute_columns = {
        "category": np.array(["alpha", "beta", "gamma"])[
            rng.integers(0, 3, n)
        ],
        "price": rng.uniform(0.0, 100.0, n),
    }
    must.set_attributes(attribute_columns)
    flt = Eq("category", "alpha") & Range("price", high=70.0)
    mask = flt.mask(must.objects.attributes)
    selectivity = float(mask.mean())
    queries = list(enc.queries)
    typed = [Query(q, filter=flt) for q in queries]

    def post_filter_batch(qs: list) -> list:
        """What an application without pushdown runs: over-fetch by
        1/selectivity (plus slack), then drop inadmissible rows."""
        fetch = min(n, int(np.ceil(k / max(selectivity, 1e-9) * 2)))
        out = []
        for res in must.query(
            [Query(q) for q in qs], SearchOptions(k=fetch, exact=True)
        ):
            keep = mask[res.ids]
            out.append(res.ids[keep][:k])
        return out

    # Interleaved rounds, best-of per mode: measuring all four modes
    # back to back within each round cancels process-level drift (cache
    # state, turbo) that sequential best-of blocks cannot — the gated
    # pushdown/post-filter *ratio* is a quotient of two small numbers
    # and needs the drift cancelled, not just the noise floor raised.
    contenders = {
        "unfiltered": lambda qs: must.query(
            [Query(q) for q in qs], SearchOptions(k=k, exact=True)
        ),
        "pushdown": lambda qs: must.query(
            typed[: len(qs)], SearchOptions(k=k, exact=True)
        ),
        "naive": post_filter_batch,
        "graph": lambda qs: must.query(
            typed[: len(qs)], SearchOptions(k=k, l=l)
        ),
    }
    best: dict = {}
    for _ in range(rounds):
        for name, fn in contenders.items():
            run = measure_batch_qps(fn, queries)
            if name not in best or run.qps > best[name].qps:
                best[name] = run
    unfiltered, pushdown = best["unfiltered"], best["pushdown"]
    naive, graph = best["naive"], best["graph"]

    oracle_ids = [r.ids for r in pushdown.results]
    graph_recall = mean_recall([r.ids for r in graph.results], oracle_ids, k)
    speedup = pushdown.qps / naive.qps if naive.qps else float("inf")

    headers = ["Mode", "QPS", "Recall vs oracle", "Speedup vs post-filter"]
    rows = [
        ["exact unfiltered", unfiltered.qps, "-", "-"],
        ["exact filtered (pushdown)", pushdown.qps, 1.0, f"{speedup:.2f}x"],
        ["exact post-filter (naive)", naive.qps, 1.0, "1.00x"],
        ["graph filtered", graph.qps, graph_recall, "-"],
    ]
    payload = {
        "dataset": enc.name,
        "n": n,
        "num_queries": len(queries),
        "k": k,
        "l": l,
        "selectivity": selectivity,
        "modes": {
            "exact/unfiltered": {"qps": float(unfiltered.qps)},
            "exact/filtered_pushdown": {
                "qps": float(pushdown.qps),
                "speedup_vs_postfilter": float(speedup),
            },
            "exact/postfilter_naive": {"qps": float(naive.qps)},
            "graph/filtered": {
                "qps": float(graph.qps),
                "recall_vs_oracle": float(graph_recall),
            },
        },
    }
    table = Table(
        "Filtered QPS",
        f"Attribute-filter pushdown on {enc.name} "
        f"(selectivity {selectivity:.2f})",
        headers,
        rows,
        notes="Pushdown intersects the compiled filter mask with the §IX "
              "deletion bitsets inside each scan, so filtered exact "
              "search costs one unfiltered scan; the naive client-side "
              "post-filter must over-fetch by 1/selectivity. Graph "
              "recall is vs the pushdown-exact oracle.",
    )

    # Scaling curve (recorded, ungated): pushdown cost relative to the
    # unfiltered scan as the corpus grows.  The pushdown contract is
    # that the quotient stays flat near 1.0 — the mask intersects the
    # scan instead of multiplying it — so the curve is the evidence the
    # point measurement above generalises beyond one n.  Key names
    # deliberately avoid the gated markers (qps/speedup/ratio/_vs_):
    # sub-scale numbers exist to show the trend, not to gate CI.
    scaling: dict[str, dict[str, float]] = {}
    for frac in (0.25, 0.5, 1.0):
        sub_n = n if frac == 1.0 else max(500, int(round(n * frac)))
        if frac == 1.0:
            sub_must = must
        else:
            rows = np.arange(sub_n)
            sub_must = MUST(
                enc.objects.subset(rows), weights=must.weights
            ).build()
            sub_must.set_attributes(
                {
                    key: np.asarray(column)[rows]
                    for key, column in attribute_columns.items()
                }
            )
        sub_typed = [Query(q, filter=flt) for q in queries]
        best_unfiltered = best_pushdown = 0.0
        for _ in range(3):
            best_unfiltered = max(
                best_unfiltered,
                measure_batch_qps(
                    lambda qs: sub_must.query(
                        [Query(q) for q in qs],
                        SearchOptions(k=k, exact=True),
                    ),
                    queries,
                ).qps,
            )
            best_pushdown = max(
                best_pushdown,
                measure_batch_qps(
                    lambda qs: sub_must.query(
                        sub_typed[: len(qs)], SearchOptions(k=k, exact=True)
                    ),
                    queries,
                ).qps,
            )
        scaling[f"n_{sub_n}"] = {
            "pushdown_over_unfiltered": float(
                best_pushdown / best_unfiltered if best_unfiltered else 0.0
            ),
            "pushdown_queries_per_second": float(best_pushdown),
            "unfiltered_queries_per_second": float(best_unfiltered),
        }
    payload["scaling"] = scaling
    return table, payload


def mmap_tradeoff(
    kind: str = "image",
    k: int = 10,
    l: int = 80,
    refine: int = 40,
    rounds: int = 5,
) -> tuple[Table, dict]:
    """Memory-mapped cold tier vs all-resident: bytes, QPS, spawn ship.

    Builds the same PQ-compressed index twice over the large-scale
    corpus — cold exact tier resident vs memory-mapped sidecar files —
    and measures:

    * **resident bytes** per tier (the ≥4× reduction gate: with PQ hot
      codes the float32 cold tier is the overwhelming share of RAM);
    * **refine-rerank QPS** (graph search + ``refine=`` through the
      cold tier — the only hot path that touches it), warm page cache
      best-of-``rounds`` against the resident build (gated ≥0.7×) and a
      single cold-cache pass after :func:`~repro.store.evict_page_cache`
      (recorded, ungated — disk latency is not CI-stable);
    * **sharded spawn shared-memory bytes**: the mmap protocol ships
      ids + attribute columns + the (source, row) cold map instead of
      the float32 planes, so the pack shrinks O(corpus) → O(hot);
    * a **bitwise parity** census: exact+refine answers of the mapped
      build must equal the resident build id-for-id, bit-for-bit.

    Returns the table plus the JSON payload for ``BENCH_mmap_qps.json``.
    Scale via ``REPRO_MMAP_N``.
    """
    import tempfile

    from repro.service.sharded import ShardedService
    from repro.store import evict_page_cache

    enc = cache.largescale_encoded(kind, cache.MMAP_N)
    n = int(enc.objects.n)
    queries = list(enc.queries)
    weights = Weights.uniform(enc.objects.num_modalities)
    # 64 centroids keep the codebooks a rounding error next to the PQ
    # codes even at smoke scale, so the reduction gate measures the
    # cold tier leaving RAM, not codebook amortisation.
    store_options = {"pq_dims": 4, "pq_centroids": 64}
    resident = MUST(
        enc.objects,
        weights=weights,
        compression="pq",
        store_options=store_options,
    ).build()
    data_dir = tempfile.mkdtemp(prefix="repro_mmap_bench_")
    mapped = MUST(
        enc.objects,
        weights=weights,
        compression="pq",
        store_options=store_options,
        cold_storage="mmap",
        data_dir=data_dir,
    ).build()

    stats_resident = resident.memory_stats()
    stats_mapped = mapped.memory_stats()
    reduction = stats_resident["resident_bytes"] / max(
        stats_mapped["resident_bytes"], 1
    )

    plan = SearchOptions(k=k, l=l, refine=refine)

    def refine_batch(must_instance):
        return lambda qs: must_instance.query(
            [Query(q) for q in qs], plan
        )

    # Cold-cache pass first, before anything warms the mapped pages.
    evict_page_cache(mapped.index.space.vectors.store.cold_plane)
    cold_run = measure_batch_qps(refine_batch(mapped), queries)

    # Interleaved best-of rounds, resident vs mapped back to back, so
    # process-level drift cancels out of the gated quotient.
    best: dict = {}
    for _ in range(rounds):
        for name, must_instance in (
            ("resident", resident),
            ("mmap", mapped),
        ):
            run = measure_batch_qps(refine_batch(must_instance), queries)
            if name not in best or run.qps > best[name].qps:
                best[name] = run
    warm_ratio = best["mmap"].qps / best["resident"].qps

    # Bitwise parity census on the exact+refine path.
    exact_plan = SearchOptions(k=k, exact=True, refine=refine)
    reference = resident.query([Query(q) for q in queries], exact_plan)
    candidate = mapped.query([Query(q) for q in queries], exact_plan)
    bitwise_equal = all(
        np.array_equal(a.ids, b.ids)
        and np.array_equal(a.similarities, b.similarities)
        for a, b in zip(reference, candidate)
    )

    # Spawn-time shared-memory footprint, resident vs mmap protocol.
    svc_resident = ShardedService(resident, n_shards=2, start=False)
    resident_shm = svc_resident.spawn_shm_bytes
    svc_resident.close()
    svc_mapped = ShardedService(mapped, n_shards=2, start=False)
    mapped_shm = svc_mapped.spawn_shm_bytes
    svc_mapped.close()
    shm_reduction = resident_shm / max(mapped_shm, 1)

    headers = ["Variant", "Resident MB", "Warm refine QPS", "Cold QPS"]
    rows = [
        [
            "all-resident",
            stats_resident["resident_bytes"] / 1e6,
            best["resident"].qps,
            "-",
        ],
        [
            "mmap cold tier",
            stats_mapped["resident_bytes"] / 1e6,
            best["mmap"].qps,
            cold_run.qps,
        ],
    ]
    payload = {
        "dataset": enc.name,
        "n": n,
        "num_queries": len(queries),
        "k": k,
        "l": l,
        "refine": refine,
        "bitwise_equal": bool(bitwise_equal),
        "memory": {
            "all_resident_bytes": int(stats_resident["resident_bytes"]),
            "mmap_resident_bytes": int(stats_mapped["resident_bytes"]),
            "hot_bytes": int(stats_mapped["hot_bytes"]),
            "cold_bytes": int(stats_mapped["cold_bytes"]),
            "resident_reduction_ratio": float(reduction),
        },
        "refine_rerank": {
            "resident_qps": float(best["resident"].qps),
            "mmap_warm_qps": float(best["mmap"].qps),
            "warm_qps_ratio_vs_resident": float(warm_ratio),
            "mmap_cold_pass_queries_per_second": float(cold_run.qps),
        },
        "sharded_spawn": {
            "resident_shm_bytes": int(resident_shm),
            "mmap_shm_bytes": int(mapped_shm),
            "shm_reduction_ratio": float(shm_reduction),
        },
    }
    table = Table(
        "Mmap cold tier",
        f"Beyond-RAM cold tier on {enc.name} (n={n}, PQ hot codes)",
        headers,
        rows,
        notes=f"Resident bytes drop {reduction:.1f}x with the exact "
              f"float32 tier in memory-mapped sidecar files; warm "
              f"refine rerank holds {warm_ratio:.2f}x of the in-RAM "
              f"QPS (cold cache: {cold_run.qps:.1f} QPS, first touch "
              f"pages from disk). Sharded spawn ships "
              f"{shm_reduction:.1f}x fewer shared-memory bytes "
              f"(O(hot), not O(corpus)).",
    )
    return table, payload


def hybrid_throughput(
    k: int = 10,
    l: int = 80,
    rounds: int = 3,
    sparse_weight: float = 1.0,
) -> tuple[Table, dict]:
    """Hybrid dense+lexical retrieval: accuracy lift, engine parity, QPS.

    Runs the planted two-level synthetic corpus
    (:func:`~repro.sparse.synthetic.synthetic_hybrid`, where dense
    search resolves the topic but only the rare lexical terms pin the
    ground-truth group) and measures:

    * **recall@k** of dense-only graph search vs hybrid graph search —
      the hybrid gate: fusing the sparse modality must *strictly* beat
      dense-only on this corpus, or the subsystem adds cost without
      signal;
    * **engine parity**: the inverted posting-list engine must answer
      bit-identically (ids *and* similarity bits) to the brute-force
      CSR oracle on every hybrid query, on both the graph and exact
      paths;
    * **sparse scoring QPS**, inverted engine vs brute-force scan over
      the full plane (gated ≥1.5× in the artifact: the posting-list
      engine only touches the query terms' rows, so it must clearly
      beat the dense scatter over all rows);
    * **hybrid graph QPS** end to end, recorded for the trajectory.

    Scale via ``REPRO_HYBRID_N`` / ``REPRO_HYBRID_QUERIES``.
    """
    from repro.core.multivector import MultiVector, MultiVectorSet
    from repro.sparse.inverted import (
        sparse_scores_inverted,
        sparse_topk,
    )
    from repro.sparse.kernels import sparse_scores_bruteforce
    from repro.sparse.synthetic import synthetic_hybrid

    group_size, groups_per_topic = 10, 5
    n_topics = max(2, cache.HYBRID_N // (group_size * groups_per_topic))
    ds = synthetic_hybrid(
        n_topics=n_topics,
        groups_per_topic=groups_per_topic,
        group_size=group_size,
        num_queries=cache.HYBRID_QUERIES,
        seed=0,
    )
    must = MUST(
        MultiVectorSet([ds.dense], sparse=ds.sparse),
        weights=Weights([1.0]),
    ).build()
    dense_queries = [
        Query(MultiVector.from_arrays([qd])) for qd in ds.query_dense
    ]
    hybrid_queries = [
        Query(
            MultiVector.from_arrays([qd]),
            sparse=qs,
            sparse_weight=sparse_weight,
        )
        for qd, qs in zip(ds.query_dense, ds.query_sparse)
    ]

    def recall_at_k(results) -> float:
        hits = [
            np.isin(r.ids[:k], truth).sum() / min(k, truth.size)
            for r, truth in zip(results, ds.truth)
        ]
        return float(np.mean(hits))

    dense_run = must.query(dense_queries, SearchOptions(k=k, l=l))
    hybrid_run = must.query(
        hybrid_queries, SearchOptions(k=k, l=l, sparse_engine="inverted")
    )
    dense_recall = recall_at_k(dense_run)
    hybrid_recall = recall_at_k(hybrid_run)

    # Engine parity: inverted vs brute-force oracle, graph + exact path.
    parity = True
    for opts_pair in (
        (SearchOptions(k=k, l=l, sparse_engine="inverted"),
         SearchOptions(k=k, l=l, sparse_engine="exact")),
        (SearchOptions(k=k, exact=True, sparse_engine="inverted"),
         SearchOptions(k=k, exact=True, sparse_engine="exact")),
    ):
        a = must.query(hybrid_queries, opts_pair[0])
        b = must.query(hybrid_queries, opts_pair[1])
        parity = parity and all(
            np.array_equal(x.ids, y.ids)
            and np.array_equal(x.similarities, y.similarities)
            for x, y in zip(a, b)
        )

    # Sparse-only scoring throughput: posting-list engine vs the full
    # CSR scan, best-of-rounds interleaved so drift cancels.
    plane = must.objects.sparse
    sparse_inputs = [q.sparse for q in hybrid_queries]

    def inverted_topk(queries):
        out = []
        for sq in queries:
            scores, touched = sparse_scores_inverted(plane, sq)
            out.append(sparse_topk(scores, k, touched=touched))
        return out

    def brute_topk(queries):
        out = []
        for sq in queries:
            scores = sparse_scores_bruteforce(plane, sq)
            out.append(sparse_topk(scores, k))
        return out

    best: dict = {}
    for _ in range(rounds):
        for name, fn in (("inverted", inverted_topk), ("brute", brute_topk)):
            run = measure_batch_qps(fn, sparse_inputs)
            if name not in best or run.qps > best[name].qps:
                best[name] = run
    engine_speedup = best["inverted"].qps / best["brute"].qps

    hybrid_qps = max(
        measure_batch_qps(
            lambda qs: must.query(
                qs, SearchOptions(k=k, l=l, sparse_engine="inverted")
            ),
            hybrid_queries,
        ).qps
        for _ in range(rounds)
    )

    headers = ["Mode", "Recall@10", "QPS"]
    rows = [
        ["dense-only graph", dense_recall, "-"],
        ["hybrid graph (inverted)", hybrid_recall, hybrid_qps],
        ["sparse top-k inverted", "-", best["inverted"].qps],
        ["sparse top-k brute-force", "-", best["brute"].qps],
    ]
    payload = {
        "n": int(ds.n),
        "num_queries": int(ds.num_queries),
        "k": k,
        "l": l,
        "sparse_weight": float(sparse_weight),
        "engines_bitwise_equal": bool(parity),
        "accuracy": {
            "dense_only_recall": float(dense_recall),
            "hybrid_recall": float(hybrid_recall),
            "hybrid_recall_lift": float(hybrid_recall - dense_recall),
        },
        "throughput": {
            "hybrid_graph_qps": float(hybrid_qps),
            "sparse_inverted_qps": float(best["inverted"].qps),
            "sparse_bruteforce_qps": float(best["brute"].qps),
            "inverted_speedup_vs_bruteforce": float(engine_speedup),
        },
    }
    table = Table(
        "Hybrid retrieval",
        f"Dense+lexical fusion on the planted corpus (n={ds.n}, "
        f"{n_topics} topics x {groups_per_topic} groups)",
        headers,
        rows,
        notes=f"Hybrid recall {hybrid_recall:.3f} vs dense-only "
              f"{dense_recall:.3f}; inverted sparse engine "
              f"{engine_speedup:.1f}x the brute-force scan, answers "
              f"bitwise-equal: {parity}.",
    )
    return table, payload


def multitenant_throughput(
    kind: str = "image",
    k: int = 10,
    num_clients: int | None = None,
    requests_per_client: int = 6,
    max_batch: int = 32,
    max_wait_ms: float = 2.0,
    noisy_clients: int = 8,
    noisy_inflight: int = 4,
    seed: int = 0,
) -> tuple[Table, dict]:
    """Multi-tenant serving: quota isolation under a noisy neighbour.

    Builds two collections from disjoint halves of one encoded corpus —
    a **victim** tenant with no quota and a **noisy** tenant capped at
    ``noisy_inflight`` in-flight requests — and serves both behind one
    :class:`~repro.service.MustService` dispatcher.  Two measured
    phases:

    * **victim alone** — ``num_clients`` closed-loop victim clients,
      nobody else on the box: the tenant's entitlement QPS.
    * **victim + noisy neighbour** — the same victim load while
      ``noisy_clients`` hammer threads resubmit against the throttled
      tenant as fast as rejections come back.

    The gated numbers:

    * ``isolation_qps_ratio`` — victim QPS under noise over victim QPS
      alone.  The quota is the only thing standing between the victim
      and the flood; without it this ratio collapses.
    * ``noisy_rejected`` (must be > 0) — the quota actually fired —
      and ``cross_tenant_rejections`` (must be 0) — it fired **only**
      on the tenant that breached; victim admissions are untouched.
    * ``parity_bitwise`` — quiesced exact answers per collection are
      bit-identical to each tenant's standalone ``MUST``: tenancy is
      routing plus admission, never arithmetic.
    """
    import threading
    import time as _time

    from repro.service import (
        CollectionManager,
        CollectionOverloaded,
        CollectionQuota,
        ServiceStats,
    )

    if num_clients is None:
        num_clients = cache.MULTITENANT_CLIENTS
    enc = cache.largescale_encoded(kind, cache.MULTITENANT_N)
    objects = enc.objects
    queries = list(enc.queries)
    n = objects.n
    half = n // 2

    def tenant_must(rows: np.ndarray) -> MUST:
        tail = max(len(rows) // 20, 8)
        must = MUST(
            objects.subset(rows[:-tail]),
            weights=Weights.uniform(objects.num_modalities),
            segment_policy=SegmentPolicy(seal_size=2 * len(rows)),
        ).build()
        must.insert(objects.subset(rows[-tail:]))
        return must

    manager = CollectionManager()
    manager.create("victim", tenant_must(np.arange(half)))
    manager.create(
        "noisy",
        tenant_must(np.arange(half, n)),
        quota=CollectionQuota(max_inflight=noisy_inflight),
    )
    victim_plan = SearchOptions(k=k, exact=True, collection="victim")
    noisy_plan = SearchOptions(k=k, exact=True, collection="noisy")
    total = num_clients * requests_per_client

    def victim_load() -> list[list[tuple]]:
        reqs = [
            (queries[i % len(queries)], victim_plan) for i in range(total)
        ]
        return [
            reqs[slot * requests_per_client:(slot + 1) * requests_per_client]
            for slot in range(num_clients)
        ]

    def fresh_stats(service) -> None:
        service.stats = ServiceStats(service.config.latency_window)
        for name in manager.names():
            manager.get(name).stats = ServiceStats(
                service.config.latency_window
            )

    def victim_summary(elapsed: float) -> dict:
        summary = manager.get("victim").stats.summary()
        return {
            "qps": total / elapsed,
            "p50_ms": summary["latency_ms"].get("p50"),
            "p95_ms": summary["latency_ms"].get("p95"),
            "p99_ms": summary["latency_ms"].get("p99"),
        }

    service = manager.serve(
        max_batch=max_batch,
        max_wait_ms=max_wait_ms,
        max_queue=max(8 * num_clients, 128),
        backpressure="reject",
    )
    try:
        # Warm-up so lazy artifacts and thread pools exist, then a fresh
        # stats window per measured phase.
        _closed_loop(service, victim_load()[:4])
        fresh_stats(service)
        _, elapsed = _closed_loop(service, victim_load())
        alone = victim_summary(elapsed)

        fresh_stats(service)
        stop = threading.Event()
        noisy_done = 0
        noisy_lock = threading.Lock()
        noisy_errors: list[Exception] = []

        def hammer(slot: int) -> None:
            nonlocal noisy_done
            i = slot
            try:
                while not stop.is_set():
                    try:
                        service.search(queries[i % len(queries)], noisy_plan)
                        with noisy_lock:
                            noisy_done += 1
                    except CollectionOverloaded:
                        # The quota's job.  Resubmit after a token
                        # backoff — a zero-sleep spin would measure GIL
                        # contention from the retry loop itself, not
                        # admission isolation.
                        _time.sleep(0.001)
                    i += 1
            except Exception as exc:  # pragma: no cover - failure path
                noisy_errors.append(exc)

        hammers = [
            threading.Thread(target=hammer, args=(slot,))
            for slot in range(noisy_clients)
        ]
        for t in hammers:
            t.start()
        _time.sleep(0.05)  # let the flood reach the admission gate
        _, elapsed = _closed_loop(service, victim_load())
        stop.set()
        for t in hammers:
            t.join()
        if noisy_errors:
            raise noisy_errors[0]
        under_noise = victim_summary(elapsed)
        noisy_rejected = int(manager.get("noisy").stats.rejected)
        cross_rejections = int(manager.get("victim").stats.rejected)

        # Quiesced parity: tenancy must never perturb the arithmetic.
        parity = True
        plain = SearchOptions(k=k, exact=True)
        for name in manager.names():
            oracle = manager.get(name).must
            plan = SearchOptions(k=k, exact=True, collection=name)
            for q in queries[:8]:
                res = service.search(q, plan)
                ref = oracle.query(q, plain)
                if not (
                    np.array_equal(res.ids, ref.ids)
                    and np.array_equal(res.similarities, ref.similarities)
                ):
                    parity = False
    finally:
        service.close()

    ratio = under_noise["qps"] / alone["qps"] if alone["qps"] else 0.0
    headers = ["Phase", "Victim QPS", "p50 ms", "p95 ms", "p99 ms",
               "Noisy done", "Noisy rejected"]
    rows = [
        ["victim alone", alone["qps"], alone["p50_ms"], alone["p95_ms"],
         alone["p99_ms"], "-", "-"],
        [f"victim + {noisy_clients} hammers", under_noise["qps"],
         under_noise["p50_ms"], under_noise["p95_ms"],
         under_noise["p99_ms"], noisy_done, noisy_rejected],
    ]
    payload = {
        "dataset": enc.name,
        "n_per_tenant": int(half),
        "num_clients": int(num_clients),
        "requests_per_client": int(requests_per_client),
        "total_requests": int(total),
        "noisy_clients": int(noisy_clients),
        "noisy_max_inflight": int(noisy_inflight),
        "k": k,
        "victim_alone": {
            "qps": float(alone["qps"]),
            "p50_ms": float(alone["p50_ms"]),
            "p95_ms": float(alone["p95_ms"]),
            "p99_ms": float(alone["p99_ms"]),
        },
        "victim_under_noise": {
            "qps": float(under_noise["qps"]),
            "p50_ms": float(under_noise["p50_ms"]),
            "p95_ms": float(under_noise["p95_ms"]),
            "p99_ms": float(under_noise["p99_ms"]),
        },
        "isolation_qps_ratio": float(ratio),
        "noisy_completed": int(noisy_done),
        "noisy_rejected": int(noisy_rejected),
        "cross_tenant_rejections": int(cross_rejections),
        "parity_bitwise": bool(parity),
    }
    table = Table(
        "Multi-tenant QPS",
        f"Quota isolation under a noisy neighbour on {enc.name}",
        headers, rows,
        notes=f"Two collections behind one dispatcher; the noisy tenant "
              f"is capped at {noisy_inflight} in-flight requests and "
              f"hammered by {noisy_clients} resubmitting threads. The "
              f"victim keeps {ratio:.2f}x of its solo QPS because the "
              f"quota rejects the flood at admission ({noisy_rejected} "
              f"rejections, all on the noisy tenant) instead of letting "
              f"it occupy the queue. Quiesced answers stay bit-identical "
              f"per tenant.",
    )
    return table, payload
