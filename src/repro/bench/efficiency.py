"""Efficiency & scalability experiments: Fig. 6–8, Tab. VII, Tab. XII, Fig. 10(c).

Wall-clock comparisons in this pure-Python port carry interpreter
overhead that the paper's C++ kernels do not, so every efficiency table
reports **joint similarity evaluations** alongside QPS: the evaluation
counts reproduce the paper's work ratios exactly, while QPS shapes match
once the corpus is large enough that BLAS scans stop being free.

All throughput numbers are measured through typed ``MUST.query``
batches, i.e. what a serving deployment would run.  Wall-clock
*regressions* are not this module's job: ``perfbench/`` is the one
benchmark that judges them.
"""

from __future__ import annotations

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


def fig6_qps_recall(kind: str = "image") -> Table:
    """Fig. 6: QPS vs Recall@10(10) for MUST / MUST-- / MR / MR--.

    ``MUST`` rows time one batch call (the lockstep wave); the two
    ``MUST (lone, …)`` groups time one ``MUST.query`` per query.
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
    # times): the heap engine ``engine="auto"`` picks for a lone query,
    # beside the same query forced through a lockstep wave of one — the
    # comparison ROADMAP item 3 asked for.
    for label, engine in (
        ("MUST (lone, heap)", "auto"), ("MUST (lone, wave b=1)", "wave"),
    ):
        for l in _L_SWEEP:
            opts = SearchOptions(k=10, l=l, engine=engine)
            run = measure_qps(
                lambda q, opts=opts: must.query(Query(q), opts), queries,
                warmup=1,
            )
            rec = _recall_vs_exact([r.ids for r in run.results], gt, 10)
            evals = np.mean([r.stats.joint_evals for r in run.results])
            rows.append([label, f"l={l}", rec, run.qps, evals])

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
