"""Efficiency & scalability experiments: Fig. 6–8, Tab. VII, Tab. XII, Fig. 10(c).

Wall-clock comparisons in this pure-Python port carry interpreter
overhead that the paper's C++ kernels do not, so every efficiency table
reports **joint similarity evaluations** alongside QPS: the evaluation
counts reproduce the paper's work ratios exactly, while QPS shapes match
once the corpus is large enough that BLAS scans stop being free.

All throughput numbers are measured through typed ``MUST.query``
calls: batches, i.e. what a serving deployment would run, and one query
a call for the ``lone`` rows and columns, the paper's protocol.
Wall-clock *regressions* are not this module's job: ``perfbench/`` is
the one benchmark that judges them.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import cache
from repro.bench.harness import Table
from repro.baselines import BruteForceMUST, MultiStreamedRetrieval
from repro.core.framework import MUST
from repro.core.query import Query, SearchOptions
from repro.datasets.largescale import exact_ground_truth
from repro.metrics import mean_recall, measure_batch_qps, measure_qps

__all__ = [
    "fig6_qps_recall",
    "tab7_data_volume",
    "fig7_build_cost",
    "fig8_topk",
    "tab12_beam_width",
    "fig10c_multivector",
]

_L_SWEEP = (10, 20, 40, 80, 160, 320)
_MR_BUDGET_SWEEP = (20, 50, 100, 250, 500, 1000)


def _typed_batch(must: MUST, queries, **options):
    """Typed batch through ``MUST.query``."""
    return must.query([Query(q) for q in queries], SearchOptions(**options))


def _recall_vs_exact(results, gt, k):
    return mean_recall([r[:k] for r in results], [g[:k] for g in gt], k)


def _lone_p50_ms(must: MUST, queries, **options) -> float:
    """p50 milliseconds of one ``MUST.query`` call per query (after one
    untimed call): the paper's one-query-at-a-time protocol."""
    opts = SearchOptions(**options)
    must.query(Query(queries[0]), opts)
    seconds = []
    for q in queries:
        start = time.perf_counter()
        must.query(Query(q), opts)
        seconds.append(time.perf_counter() - start)
    return float(np.median(seconds)) * 1e3


def fig6_qps_recall(kind: str = "image") -> Table:
    """Fig. 6: QPS vs Recall@10(10) for MUST / MUST-- / MR / MR--.

    ``MUST`` rows time one batch call (the lockstep wave); the
    ``MUST (lone)`` rows time one ``MUST.query`` per query.
    """
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

    # One caller, one query at a time (what perfbench's ``single_query``
    # times): each query a lockstep wave of one.
    for l in _L_SWEEP:
        opts = SearchOptions(k=10, l=l)
        run = measure_qps(
            lambda q, opts=opts: must.query(Query(q), opts), queries,
            warmup=1,
        )
        rec = _recall_vs_exact([r.ids for r in run.results], gt, 10)
        evals = np.mean([r.stats.joint_evals for r in run.results])
        rows.append(["MUST (lone)", f"l={l}", rec, run.qps, evals])

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
    """Tab. VII: response time of MUST vs MUST-- across corpus volumes.

    The batch columns time one call over every query; the lone columns
    are the p50 of one ``MUST.query`` per query, exact for MUST--.  The
    note names the first volume at which the lone graph query is the
    faster of the two.
    """
    headers = ["Scale", "MUST-- ms/query", "MUST ms/query",
               "MUST-- lone ms/query", "MUST lone ms/query",
               "MUST-- evals/query", "MUST evals/query", "WorkReduction",
               "MUST Recall@10(10)"]
    rows = []
    lone: list[tuple[int, float, float]] = []
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
        exact_lone = _lone_p50_ms(must, queries, k=10, exact=True)
        must_lone = _lone_p50_ms(must, queries, k=10, l=200)
        lone.append((n, exact_lone, must_lone))
        rows.append([
            f"{n/1000:g}K",
            brute_run.mean_latency * 1e3,
            must_run.mean_latency * 1e3,
            exact_lone,
            must_lone,
            float(n),
            evals,
            f"{reduction:.1%}",
            rec,
        ])
    wins = [n for n, exact_ms, must_ms in lone if must_ms < exact_ms]
    n_max, exact_ms, must_ms = lone[-1]
    if wins:
        crossover = (
            f"A lone MUST query (l=200) first beats a lone exact one at "
            f"{wins[0]/1000:g}K objects in this run"
        )
    else:
        crossover = (
            f"A lone MUST query (l=200) never beats a lone exact one up to "
            f"{n_max/1000:g}K objects in this run"
        )
    return Table(
        "Tab. VII", "Response time vs data volume (ImageText)", headers, rows,
        notes="Brute-force similarity work grows linearly with n while the "
              "fused index stays near-flat (WorkReduction column — the "
              f"paper's ↓98.4% at 16M). {crossover} ({must_ms:.2f} ms "
              f"against {exact_ms:.2f} ms at {n_max/1000:g}K).",
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
    """Fig. 10(c): the Lemma-4 multi-vector computation optimisation.

    On CelebA+ at m = 2, 3 and 4 modalities (the weight-trained corpora
    of Tab. VIII), one typed batch of every query through the wave, with
    and without ``early_termination``: recall against the exact plan,
    modality evaluations per query, the pruned share (candidates Lemma 4
    dropped before their last modality, over all candidates scored) and
    the batch's wall-clock QPS, the median of seven timed calls after
    one untimed one.
    """
    headers = [
        "m", "l", "Variant", "Recall@10(10)", "ModalityEvals/query",
        "Pruned share", "QPS",
    ]
    rows: list[list] = []
    for m in (2, 3, 4):
        enc, must, _ = cache.trained_must(*cache.celeba_plus_combo(m))
        queries = enc.queries
        gt = [r.ids for r in _typed_batch(must, queries, k=10, exact=True)]
        for l in (20, 80, 320):
            for label, flag in (
                ("w/o optimization", False), ("w. optimization", True)
            ):
                def batch(qs, l=l, flag=flag):
                    return _typed_batch(
                        must, qs, k=10, l=l, early_termination=flag
                    )

                batch(queries)
                runs = [measure_batch_qps(batch, queries) for _ in range(7)]
                results = runs[-1].results
                rec = _recall_vs_exact([r.ids for r in results], gt, 10)
                evals = np.mean([r.stats.modality_evals for r in results])
                pruned = sum(r.stats.pruned_early for r in results) / sum(
                    r.stats.joint_evals for r in results
                )
                qps = float(np.median([run.qps for run in runs]))
                rows.append([m, l, label, rec, evals, f"{pruned:.2%}", qps])
    return Table(
        "Fig. 10(c)", "Multi-vector computation optimisation (CelebA+)",
        headers, rows,
        notes="Identical recall with fewer modality evaluations (Lemma 4). "
              "Without the optimisation a row is one inner product against "
              "the ω-scaled concatenation; with it, every row is scored "
              "modality step by step through the stacked kernels, and the "
              "wall clock shows the saving only where it outweighs that "
              "route (README, Fig. 10(c)).",
    )
