"""Batched and parallel query execution over one index.

:class:`BatchExecutor` is the throughput layer every batch entry point
(:meth:`MUST.batch_search`, the baselines' batch paths, the QPS
harness) shares.  Two execution strategies, both returning per-query
:class:`~repro.core.results.SearchResult` objects in input order plus a
batch-aggregated :class:`~repro.core.results.SearchStats`:

* **Flat wave** (:meth:`run_flat`) — all fast-path queries in the batch
  are stacked and scored against the whole corpus with a single GEMM
  (:func:`~repro.index.scoring.batch_score_all`) instead of one GEMV
  scan per query.
* **Graph pool** (:meth:`run_graph`) — graph search is control-flow
  heavy, so queries run concurrently on a thread pool.  Each task is a
  stateless per-query searcher (its own scorer, heaps, and stats), the
  index and corpus are shared read-only, and the heavy scoring kernels
  release the GIL inside BLAS — the preconditions that make the pool
  both safe and useful.  In practice the beam loop is too Python-heavy
  for the pool to win (measured 0.88–0.95× on graph batches), which is
  why the default plan now routes graph batches to the wave engine.
* **Graph wave** (:meth:`run_graph_wave`) — the lockstep batched beam
  search of :func:`~repro.index.graph_wave.graph_wave_search`: every
  wave scores all queries' frontiers in one stacked call, the batch
  default selected by ``SearchOptions(engine="auto")``.

Every strategy records the plan it actually executed in
:attr:`BatchResult.plan`, so benchmarks can assert which path ran
instead of trusting the configuration.

Determinism: each query draws its init vertices from its own
:class:`numpy.random.SeedSequence` child
(:func:`~repro.utils.rng.spawn_seed_sequences`), so a batch is exactly
reproducible from ``rng`` **and** bit-identical whether it runs on one
thread or many — scheduling only changes completion order, never a
query's arithmetic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.core.multivector import MultiVector
from repro.core.query import Query, SearchOptions
from repro.core.results import SearchResult, SearchStats
from repro.core.weights import Weights
from repro.index.base import GraphIndex
from repro.utils.parallel import resolve_n_jobs, thread_map
from repro.utils.rng import spawn_seed_sequences

__all__ = ["BatchResult", "BatchExecutor"]

logger = logging.getLogger(__name__)

#: a batch entry: raw multi-vector or typed query (per-query
#: weights/filter/k ride inside and are unpacked by the search layers).
QueryLike = MultiVector | Query


@dataclass
class BatchResult:
    """One batch's answers: a sequence of per-query results + total work.

    Behaves like the plain ``list[SearchResult]`` the sequential loop
    used to return (len / iteration / indexing), with the aggregated
    batch counters on :attr:`stats`.  :attr:`plan` names the execution
    strategy that actually ran (e.g. ``"graph/wave"``,
    ``"graph/pool(n_jobs=4)"``, ``"exact/gemm"``) so callers and
    benchmarks can assert the chosen path instead of inferring it.
    """

    results: list[SearchResult]
    stats: SearchStats = field(default_factory=SearchStats)
    plan: str = ""

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, i):
        return self.results[i]


class BatchExecutor:
    """Runs many queries over one index, batched and optionally parallel.

    ``n_jobs`` follows the scikit-learn convention (``1`` sequential,
    ``-1`` all cores); ``rng`` seeds the whole batch — per-query child
    seeds are derived from it.
    """

    def __init__(self, n_jobs: int = 1, rng: int | None = 0):
        self.n_jobs = resolve_n_jobs(n_jobs)
        self.rng = rng

    @classmethod
    def from_options(cls, options: SearchOptions) -> "BatchExecutor":
        """Executor configured by a typed plan (``n_jobs`` + ``rng``)."""
        return cls(n_jobs=options.n_jobs, rng=options.rng)

    # ------------------------------------------------------------------
    # Graph path
    # ------------------------------------------------------------------
    def run_graph(
        self,
        index: GraphIndex,
        queries: list[QueryLike],
        k: int,
        l: int,
        weights: Weights | None = None,
        early_termination: bool = False,
        engine: str = "heap",
        **search_kwargs,
    ) -> BatchResult:
        """Thread-pooled :func:`~repro.index.search.joint_search` batch."""
        from repro.index.search import joint_search

        queries = list(queries)
        seeds = spawn_seed_sequences(self.rng, len(queries))
        # Touch the lazy concatenated matrix once so pool workers never
        # race to materialise it (compressed stores have none — their
        # per-query kernels are thread-local by construction).
        if not index.space.is_compressed:
            index.space.concatenated
        # Shared per-wave cache: queries reusing one Filter instance
        # compile it once, not once per query (safe across pool threads).
        memo: dict = {}

        def one(task: tuple[QueryLike, np.random.SeedSequence]) -> SearchResult:
            query, seed = task
            return joint_search(
                index,
                query,
                k=k,
                l=l,
                weights=weights,
                early_termination=early_termination,
                engine=engine,
                rng=np.random.default_rng(seed),
                filter_memo=memo,
                **search_kwargs,
            )

        results = thread_map(one, zip(queries, seeds), n_jobs=self.n_jobs)
        plan = f"graph/pool(n_jobs={self.n_jobs})"
        logger.debug("batch plan: %s (%d queries)", plan, len(queries))
        return BatchResult(
            results, SearchStats.aggregate(r.stats for r in results),
            plan=plan,
        )

    def run_graph_wave(
        self,
        index: GraphIndex,
        queries: list[QueryLike],
        k: int,
        l: int,
        weights: Weights | None = None,
        early_termination: bool = False,
        refine: int | None = None,
        check_monotone: bool = False,
        sparse_engine: str = "auto",
    ) -> BatchResult:
        """Lockstep batched graph search — one stacked scoring call per
        wave (:func:`~repro.index.graph_wave.graph_wave_search`).

        Per-query child seeds are spawned from ``rng`` exactly as in
        :meth:`run_graph`, and the engine is single-threaded vectorised
        code, so results are independent of ``n_jobs`` by construction.
        The batch stats aggregate the per-query counters and fold in
        the wave-level ``waves``/``frontier_sizes`` trace.
        """
        from repro.index.graph_wave import graph_wave_search

        queries = list(queries)
        results, wave_stats = graph_wave_search(
            index,
            queries,
            k=k,
            l=l,
            weights=weights,
            early_termination=early_termination,
            rng=self.rng,
            refine=refine,
            check_monotone=check_monotone,
            filter_memo={},
            sparse_engine=sparse_engine,
        )
        stats = SearchStats.aggregate(r.stats for r in results)
        stats.merge(wave_stats)
        plan = "graph/wave"
        logger.debug(
            "batch plan: %s (%d queries, %d waves)",
            plan, len(queries), wave_stats.waves,
        )
        return BatchResult(results, stats, plan=plan)

    # ------------------------------------------------------------------
    # Segmented path
    # ------------------------------------------------------------------
    def run_segmented(
        self,
        segmented,
        queries: list[QueryLike],
        k: int,
        l: int = 100,
        weights: Weights | None = None,
        early_termination: bool = False,
        engine: str = "heap",
        exact: bool = False,
        refine: int | None = None,
        sparse_engine: str = "auto",
        **search_kwargs,
    ) -> BatchResult:
        """Batch over a :class:`~repro.index.segments.SegmentedIndex`
        (or any :class:`~repro.index.segments.SegmentView`, e.g. a
        frozen serving snapshot — both expose the same search surface).

        The graph path pools cross-segment searches exactly like
        :meth:`run_graph` — each query gets its own SeedSequence child,
        from which the segmented index spawns per-segment grandchildren,
        so results stay bit-identical for any ``n_jobs``.  The exact path
        runs one GEMM wave per segment and merges per query.  ``refine``
        enables the two-stage full-precision rerank on either path.
        """
        queries = list(queries)
        if exact:
            results = segmented.exact_batch(
                queries, k, weights=weights, refine=refine,
                sparse_engine=sparse_engine,
            )
            return BatchResult(
                results, SearchStats.aggregate(r.stats for r in results),
                plan="exact/segment-gemm",
            )
        if engine == "wave":
            segmented.prepare_search()
            results, wave_stats = segmented.graph_wave(
                queries,
                k=k,
                l=l,
                weights=weights,
                early_termination=early_termination,
                rng=self.rng,
                refine=refine,
                sparse_engine=sparse_engine,
                **search_kwargs,
            )
            stats = SearchStats.aggregate(r.stats for r in results)
            stats.merge(wave_stats)
            plan = "graph/wave"
            logger.debug(
                "batch plan: %s (%d queries, %d segment waves)",
                plan, len(queries), wave_stats.waves,
            )
            return BatchResult(results, stats, plan=plan)
        seeds = spawn_seed_sequences(self.rng, len(queries))
        # Materialise the delta graph + per-segment concat matrices before
        # the pool starts, so workers never race to build them.
        segmented.prepare_search()
        # Per-wave filter cache, keyed by (filter, segment table) so one
        # dict serves every segment (rides to joint_search via kwargs).
        memo: dict = {}

        def one(task: tuple[QueryLike, np.random.SeedSequence]) -> SearchResult:
            query, seed = task
            return segmented.search(
                query,
                k=k,
                l=l,
                weights=weights,
                early_termination=early_termination,
                engine=engine,
                rng=seed,
                refine=refine,
                sparse_engine=sparse_engine,
                filter_memo=memo,
                **search_kwargs,
            )

        results = thread_map(one, zip(queries, seeds), n_jobs=self.n_jobs)
        plan = f"graph/pool(n_jobs={self.n_jobs})"
        logger.debug("batch plan: %s (%d queries)", plan, len(queries))
        return BatchResult(
            results, SearchStats.aggregate(r.stats for r in results),
            plan=plan,
        )

    def run_exact_wave(
        self,
        view,
        queries: list[QueryLike],
        k: int,
        weights: Weights | None = None,
        refine: int | None = None,
        margin: float = 1e-4,
        sparse_engine: str = "auto",
    ) -> BatchResult:
        """Coalesced exact batch over a segment view, bit-identical to
        the per-query exact path.

        The serving layer's exact wave
        (:meth:`~repro.index.segments.SegmentView.exact_wave`): a
        float32 GEMM prefilter per segment plus a float64
        layout-independent rerank within ``margin`` of each cut-off —
        batched-GEMM throughput with single-query bit parity, unlike
        :meth:`run_segmented` with ``exact=True`` whose stacked GEMM
        carries the ~1e-7 similarity caveat.
        """
        results = view.exact_wave(
            list(queries), k, weights=weights, refine=refine, margin=margin,
            sparse_engine=sparse_engine,
        )
        return BatchResult(
            results, SearchStats.aggregate(r.stats for r in results),
            plan="exact/wave",
        )

    # ------------------------------------------------------------------
    # Flat (exact) path
    # ------------------------------------------------------------------
    def run_flat(
        self,
        flat,
        queries: list[QueryLike],
        k: int,
        weights: Weights | None = None,
        refine: int | None = None,
        sparse_engine: str = "auto",
    ) -> BatchResult:
        """Single-GEMM exact batch over a :class:`FlatIndex`."""
        results = flat.batch_search(
            list(queries), k, weights=weights, refine=refine,
            sparse_engine=sparse_engine,
        )
        return BatchResult(
            results, SearchStats.aggregate(r.stats for r in results),
            plan="exact/gemm",
        )
