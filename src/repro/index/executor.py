"""Plan execution: the one dispatcher and the batch strategies behind it.

:func:`execute` is the only place a
:class:`~repro.core.query.SearchOptions` plan is interpreted.  Every
search surface — :meth:`MUST.query`, :meth:`IndexSnapshot.query`, the
serving dispatcher's per-request, coalesced-wave and containment-retry
paths, and the shard workers — hands it a *target* (a
:class:`~repro.index.segments.SegmentView`, or a :class:`GraphTarget`
for a single fused graph), typed queries and the plan, and it makes the
five decisions once: the ``l >= k`` plan check, the
:meth:`~repro.core.query.SearchOptions.resolve` clamp, exact vs graph,
engine resolution, and the per-result wave-stats merge.

What it picks from, each returning per-query
:class:`~repro.core.results.SearchResult` objects in input order inside
a :class:`BatchResult`:

* **Exact wave** (:meth:`BatchExecutor.run_flat` on a single graph,
  :meth:`BatchExecutor.run_exact_wave` per segment of a view) — the one
  exact kernel, :meth:`FlatIndex.batch_search`: one float32 prefilter
  GEMM for the batch, then per query a float64 rerank of the rows
  inside a band derived from the prefilter's rounding bound.  Every
  exact plan is this, a lone query as a batch of one.
* **Graph wave** (:meth:`BatchExecutor.run_graph_wave`, or
  :meth:`BatchExecutor.run_segmented` over a
  :class:`~repro.index.segments.SegmentView`) — the lockstep batched
  beam search of :func:`~repro.index.graph_wave.graph_wave_search`:
  every wave scores all queries' frontiers in one stacked call.
* **Graph loop** — one :func:`~repro.index.search.joint_search` (or
  cross-segment :meth:`SegmentView.search`) per query, sequentially:
  the Algorithm-2 oracle the parity suites compare the wave engine
  against, and what a lone ``engine="auto"`` request runs — a lockstep
  wave of one costs more per hop than the heap engine's flat loop
  (four NumPy calls a hop on the concat fast path), at equal recall.

The plan that actually executed is recorded in :attr:`BatchResult.plan`,
so benchmarks can assert which path ran instead of trusting the
configuration.

Determinism: an answer is a function of the index and the query.  Every
graph search starts from the graph's own fixed entry order
(:meth:`GraphIndex.entry_points`), every exact similarity comes from a
kernel that reads one row and the query, and no engine reads its
batch-mates — so a query answers with the same bits alone, at any batch
position, live, from a snapshot, served, or after a save / load round
trip.  Nothing here takes a seed; whether *queries* is one batch or
several independent requests is the explicit ``independent`` flag of
:func:`execute`, which only graph plans read.
"""

from __future__ import annotations

import functools
import logging
from typing import Any, Iterator, NamedTuple, Sequence

from repro.core.multivector import MultiVector
from repro.core.query import FilterMemo, Query, SearchOptions
from repro.core.results import SearchResult, SearchStats
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.base import GraphIndex
from repro.index.flat import FlatIndex
from repro.index.graph_wave import bookkeeping, graph_wave_search
from repro.index.search import joint_search
from repro.index.segments import SegmentView

__all__ = ["BatchResult", "BatchExecutor", "GraphTarget", "execute"]

logger = logging.getLogger(__name__)

#: a batch entry: raw multi-vector or typed query (per-query
#: weights/filter/k ride inside and are unpacked by the search layers).
QueryLike = MultiVector | Query


class BatchResult:
    """One batch's answers: a sequence of per-query results + total work.

    Behaves like a plain ``list[SearchResult]`` (len / iteration /
    indexing), with the aggregated batch counters on :attr:`stats`
    (summed from the per-query stats on first read unless the producer
    supplied them).  :attr:`plan` names the execution strategy that
    actually ran (``"graph/wave/native"`` or ``"graph/wave/numpy"`` —
    the wave plus the bookkeeping it ran with,
    :func:`~repro.index.graph_wave.bookkeeping` — ``"graph/loop"``,
    ``"exact/wave"``) so callers and benchmarks can assert the chosen
    path instead of inferring it.
    """

    def __init__(
        self,
        results: list[SearchResult],
        stats: SearchStats | None = None,
        plan: str = "",
    ) -> None:
        self.results = results
        self._stats = stats
        self.plan = plan

    @property
    def stats(self) -> SearchStats:
        if self._stats is None:
            self._stats = SearchStats.aggregate(r.stats for r in self.results)
        return self._stats

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[SearchResult]:
        return iter(self.results)

    def __getitem__(self, i: int) -> SearchResult:
        return self.results[i]


class GraphTarget(NamedTuple):
    """A single fused graph plus the space its exact plans scan.

    The two differ under ``compression=``: the graph serves from the
    compressed store while exact plans keep scanning the full-precision
    corpus.  ``index`` is ``None`` on a not-yet-built framework, which
    can still answer exact plans.
    """

    index: GraphIndex | None
    exact_space: JointSpace

    def flat(self) -> FlatIndex:
        """Exact scanner sharing the graph's §IX deletion bitset.

        Built per request: the graph allocates its bitset lazily on the
        first ``mark_deleted``, so a scanner held across one would keep
        reading ``None``.
        """
        deleted = None if self.index is None else self.index.deleted
        return FlatIndex(self.exact_space, deleted=deleted)


class BatchExecutor:
    """The batch strategies :func:`execute` picks from: each answers
    many queries with stacked calls instead of one call per query."""

    @staticmethod
    def run_graph_wave(
        index: GraphIndex,
        queries: Sequence[QueryLike],
        k: int,
        l: int,
        early_termination: bool = False,
        refine: int | None = None,
        check_monotone: bool = False,
        sparse_engine: str = "auto",
    ) -> BatchResult:
        """Lockstep batched graph search — one stacked scoring call per
        wave (:func:`~repro.index.graph_wave.graph_wave_search`).

        The batch stats aggregate the per-query counters and fold in
        the wave-level ``waves``/``frontier_sizes`` trace.
        """
        results, wave_stats = graph_wave_search(
            index,
            queries,
            k=k,
            l=l,
            early_termination=early_termination,
            refine=refine,
            check_monotone=check_monotone,
            filter_memo={},
            sparse_engine=sparse_engine,
        )
        out = BatchResult(results, plan=f"graph/wave/{bookkeeping()}")
        out.stats.merge(wave_stats)
        logger.debug(
            "batch plan: %s (%d queries, %d waves)",
            out.plan, len(results), wave_stats.waves,
        )
        return out

    @staticmethod
    def run_segmented(
        view: SegmentView,
        queries: Sequence[QueryLike],
        k: int,
        l: int = 100,
        early_termination: bool = False,
        refine: int | None = None,
        check_monotone: bool = False,
        sparse_engine: str = "auto",
    ) -> BatchResult:
        """Graph batch over a :class:`~repro.index.segments.SegmentView`
        (live or frozen): one lockstep traversal per segment carries
        the whole batch.  ``refine`` enables the two-stage
        full-precision rerank."""
        results, wave_stats = view.graph_wave(
            list(queries),
            k=k,
            l=l,
            early_termination=early_termination,
            refine=refine,
            check_monotone=check_monotone,
            sparse_engine=sparse_engine,
        )
        out = BatchResult(results, plan=f"graph/wave/{bookkeeping()}")
        out.stats.merge(wave_stats)
        logger.debug(
            "batch plan: %s (%d queries, %d segment waves)",
            out.plan, len(results), wave_stats.waves,
        )
        return out

    @staticmethod
    def run_exact_wave(
        view: SegmentView,
        queries: Sequence[QueryLike],
        k: int,
        weights: Weights | None = None,
        refine: int | None = None,
        sparse_engine: str = "auto",
    ) -> BatchResult:
        """Exact batch over a segment view
        (:meth:`~repro.index.segments.SegmentView.exact_wave`): the
        exact kernel per segment, merged per query."""
        return BatchResult(
            view.exact_wave(
                list(queries), k, weights=weights, refine=refine,
                sparse_engine=sparse_engine,
            ),
            plan="exact/wave",
        )

    @staticmethod
    def run_flat(
        flat: FlatIndex,
        queries: Sequence[QueryLike],
        k: int,
        weights: Weights | None = None,
        refine: int | None = None,
        sparse_engine: str = "auto",
    ) -> BatchResult:
        """Exact batch over one :class:`FlatIndex` — the exact kernel
        itself (:meth:`FlatIndex.batch_search`)."""
        return BatchResult(
            flat.batch_search(
                list(queries), k, weights=weights, refine=refine,
                sparse_engine=sparse_engine,
            ),
            plan="exact/wave",
        )


def execute(
    target: SegmentView | GraphTarget,
    queries: Sequence[Query],
    options: SearchOptions,
    *,
    independent: bool = False,
) -> BatchResult:
    """Run typed *queries* against *target* under one validated plan.

    An exact plan is one call of the exact kernel whatever the batch
    looks like (:meth:`FlatIndex.batch_search`, per segment on a view):
    a query's ids, similarities and work counters are the same bits
    alone or in company.

    On a graph plan *queries* is by default **a batch**:
    ``engine="auto"`` means the lockstep wave engine.
    ``independent=True`` is **independent requests** that merely share a
    plan — a lone query, a coalesced serving group, a shard's slice of
    one: ``engine="auto"`` means the per-query heap engine, and on the
    wave engine every result also carries the traversal's
    ``waves``/``frontier_sizes`` trace, so an answer reads the same
    alone or coalesced.  The flag picks an engine and a stats layout,
    never an answer: under one explicit engine a query's ids,
    similarities and work counters are the same bits either way.  An
    explicit ``engine="heap"``/``"paper"`` on a batch runs the per-query
    searcher once per query, in order.

    ``l`` is clamped to the target's size here and nowhere else; an
    explicit ``l < k`` on a graph plan is an error, raised before any
    scoring (exact scans ignore ``l``).
    """
    if not options.exact and options.l < options.k:
        raise ValueError(
            f"result set size l={options.l} must be at least k={options.k}"
        )
    if options.exact:
        if isinstance(target, SegmentView):
            run, scanned = BatchExecutor.run_exact_wave, target
        else:
            run, scanned = BatchExecutor.run_flat, target.flat()
        return run(
            scanned, queries, options.k, refine=options.refine,
            sparse_engine=options.sparse_engine,
        )
    if isinstance(target, SegmentView):
        opts = options.resolve(target.num_total)
    elif target.index is None:
        raise ValueError("call build() first")
    else:
        opts = options.resolve(target.index.n)
    engine = opts.resolve_engine(batch=not independent)
    if engine == "wave":
        plan: dict[str, Any] = dict(
            k=opts.k,
            l=opts.l,
            early_termination=opts.early_termination,
            refine=opts.refine,
            check_monotone=opts.check_monotone,
            sparse_engine=opts.sparse_engine,
        )
        if isinstance(target, SegmentView):
            out = BatchExecutor.run_segmented(target, queries, **plan)
        else:
            out = BatchExecutor.run_graph_wave(target.index, queries, **plan)
        if independent:
            wave = SearchStats(
                waves=out.stats.waves, frontier_sizes=out.stats.frontier_sizes
            )
            for res in out.results:
                res.stats.merge(wave)
        return out
    # Shared per-batch cache: queries reusing one Filter instance
    # compile it once per corpus slice, not once per query.
    memo: FilterMemo = {}
    search = (
        target.search
        if isinstance(target, SegmentView)
        else functools.partial(joint_search, target.index)
    )
    # Spelled out rather than a **plan dict: this is the lone-query path,
    # where the dict and its merge are a measurable share of dispatch.
    return BatchResult(
        [
            search(
                query,
                k=opts.k,
                l=opts.l,
                early_termination=opts.early_termination,
                engine=engine,
                refine=opts.refine,
                check_monotone=opts.check_monotone,
                sparse_engine=opts.sparse_engine,
                filter_memo=memo,
            )
            for query in queries
        ],
        plan="graph/loop",
    )
