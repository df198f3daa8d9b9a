"""Joint search over a fused proximity graph (paper §VII-B, Algorithm 2).

Greedy best-first routing with a result set ``R`` of size ``l``: starting
from the seed vertex plus ``l−1`` random vertices, repeatedly expand the
unvisited vertex of ``R`` closest to the query, score its neighbours, and
keep the best ``l``.  Lemma 3 guarantees the total similarity of ``R`` is
non-decreasing; the optional ``check_monotone`` flag asserts it.

The random vertices are drawn once per graph, not once per query: every
search starts from :meth:`GraphIndex.entry_points`, the first ``l`` of
the graph's fixed entry order, so the same query on the same index
returns the same bits however it is asked (the fixed entry points of
HNSW / NSG / Vamana, widened to ``l``).  The literal per-query draw
survives as a test oracle in ``tests/test_index_search.py``.

Two engines implement the same routing:

* ``engine="paper"`` — a literal transcription of Algorithm 2 (expands
  every member of ``R``; useful as a reference and in tests).
* ``engine="heap"`` (default) — the standard two-heap formulation used by
  production graph indexes (HNSW/NSG): identical greedy order, but stops
  once the best unexpanded candidate cannot enter the result set.  Same
  accuracy knob ``l``, lower constant overhead.

With ``early_termination=True`` neighbour scoring goes through the
incremental multi-vector computation (Lemma 4): per-modality distances
accumulate and a neighbour is dropped the moment its partial-IP upper
bound cannot beat the current worst of ``R`` — identical results, fewer
modality evaluations (Fig. 10(c)).

Similarity arithmetic (concat fast path, per-modality fallback,
compressed kernels, Lemma-4 pruning, stats accounting) lives in the
shared :class:`~repro.index.scoring.Scorer`; the engines here own the
routing.  One exception, because a lone query's cost is interpreter
time per hop rather than similarity work: on the concat fast path the
heap engine scores frontiers with a bare
:class:`~repro.index.scoring.MatrixScorer` over the scorer's rescaled
query vector — a hop is four NumPy calls and the work counters are
written once per search (see :func:`_heap_search`).  The other
routes, and the ``paper`` engine, still call
:meth:`Scorer.score_frontier` once per hop.  Batches of queries should
go through :func:`~repro.index.executor.execute` rather than a
caller-side loop.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.multivector import MultiVector
from repro.core.query import Query, unpack_query
from repro.core.results import SearchResult, SearchStats
from repro.core.weights import Weights
from repro.index.base import GraphIndex
from repro.index.scoring import MatrixScorer, Scorer, rerank_exact
from repro.sparse.hybrid import hybrid_union_rescore, sparse_plane
from repro.utils.topk import top_k_sorted
from repro.utils.validation import require

__all__ = ["joint_search", "greedy_search_graph"]


def joint_search(
    index: GraphIndex,
    query: MultiVector | Query,
    k: int,
    l: int,
    weights: Weights | None = None,
    early_termination: bool = False,
    engine: str = "heap",
    check_monotone: bool = False,
    refine: int | None = None,
    filter_memo: dict | None = None,
    sparse_engine: str = "auto",
    scan: bool = False,
) -> SearchResult:
    """Approximate top-*k* joint search (Algorithm 2).

    ``weights`` overrides the index weights at query time (user-defined
    weights, Fig. 4(g) Option 2); ``l`` trades accuracy for latency.
    ``early_termination`` enables the Lemma-4 multi-vector optimisation;
    it never changes the returned ids.  Note: in this pure-Python port
    the *wall-clock* win of the optimisation is muted by interpreter
    overhead, so it is off by default and its effect is reported in
    saved modality evaluations (see benchmarks/bench_fig10c).

    A typed :class:`Query` supplies per-query weights, a per-query ``k``
    override, and an attribute ``filter``.  The compiled filter mask is
    handled like the §IX deletion bitset — the standard filtered-ANN
    construction: inadmissible vertices still *route* (dropping them
    could disconnect the graph around the answer set) but can never
    occupy a result slot, so the search converges onto the admissible
    region instead of terminating on unreachable candidates.

    ``refine=r`` enables the two-stage rerank pipeline (for compressed
    vector stores): the routing phase collects the top ``r·k``
    candidates by hot-tier (possibly quantised) similarity, then
    re-scores exactly those survivors at full precision against the
    store's exact tier and returns the best *k*.  ``l`` is raised to at
    least ``r·k`` so the result set can hold the candidates.

    A hybrid query (``Query.sparse``) traverses for a dense candidate
    pool of ``min(l, reportable)`` ids, which
    :func:`~repro.sparse.hybrid.hybrid_union_rescore` fuses with the
    sparse engine's own top admissible rows and cuts to *k* — the
    per-query oracle of the wave engine's hybrid finalise.  The union
    rescore takes the place of ``refine`` for such a query.

    ``filter_memo`` is the batch executor's per-wave filter-compilation
    cache (:func:`~repro.core.query.compile_filter`): queries sharing
    one ``Filter`` instance compile it once per corpus slice instead of
    once per call.

    The search is cut as *prepare → traverse → finalise*; ``scan=True``
    swaps the middle step for Algorithm 2's init taken over every vertex
    (:func:`_scan_search`) and leaves the other two alone.  The
    segmented layer sets it on segments the beam already covers
    (:func:`~repro.index.segments.beam_covers`); by default the graph is
    traversed.
    """
    hybrid = (
        query if isinstance(query, Query) and query.sparse is not None else None
    )
    query, k_eff, weights, mask = unpack_query(
        query, k, weights, index.space.vectors.attributes, memo=filter_memo
    )
    if k_eff != k:
        # A per-query Query.k override widens the result set as needed —
        # the wave-level l was sized for the wave-level k, and the
        # segmented path gives the override the same treatment.
        l = max(l, k_eff)
    k = k_eff
    require(k >= 1, "k must be positive")
    require(l >= k, f"result set size l={l} must be at least k={k}")
    require(engine in ("heap", "paper"), "engine must be 'heap' or 'paper'")
    require(refine is None or refine >= 1, "refine must be >= 1")
    if mask is None:
        excluded = index.deleted
        reportable = index.num_active
    else:
        excluded = (
            ~mask if index.deleted is None else (~mask | index.deleted)
        )
        reportable = int(index.n - excluded.sum())
    if reportable == 0:
        return SearchResult(
            ids=np.zeros(0, dtype=np.int64),
            similarities=np.zeros(0, dtype=np.float64),
            stats=SearchStats(),
        )
    k_inner, l_inner = k, l
    if hybrid is not None:
        sparse_plane(index.space)  # no lexical plane: fail before traversing
        k_inner = l
    elif refine is not None:
        k_inner = k * refine
        l_inner = max(l, k_inner)
    if scan:
        result = _scan_search(
            index, query, k_inner, l_inner, weights, early_termination,
            excluded, reportable,
        )
    else:
        search_fn = _heap_search if engine == "heap" else _paper_search
        result = search_fn(
            index, query, k_inner, l_inner, weights, early_termination,
            check_monotone, excluded, reportable,
        )
    if hybrid is not None:
        ids, sims = hybrid_union_rescore(
            index.space, hybrid, result.ids, min(k, index.num_active),
            admissible=None if excluded is None else ~excluded,
            weights=weights, engine=sparse_engine, stats=result.stats,
        )
        return SearchResult(ids=ids, similarities=sims, stats=result.stats)
    if refine is None:
        return result
    ids, sims = rerank_exact(
        index.space, query, result.ids, k, weights=weights,
        stats=result.stats,
    )
    return SearchResult(ids=ids, similarities=sims, stats=result.stats)


def _scan_search(
    index: GraphIndex,
    query: MultiVector,
    k: int,
    l: int,
    weights: Weights | None,
    early_termination: bool,
    excluded: np.ndarray | None,
    reportable: int,
) -> SearchResult:
    """The engines' init over every vertex, and no hops.

    What a traversal holds once it has reached every vertex: the whole
    entry order scored by the call the init makes, excluded vertices
    dropped, the best ``min(l, reportable)`` kept and the first *k* of
    them returned by ``(-similarity, id)``.  When ``l >= n`` that call
    *is* the traversal's init, bit for bit; past that the float32 GEMV
    blocks rows differently than the traversal's hop-sized calls would,
    so similarities agree with it to rounding (~1e-7) — the answer is a
    function of the index and the query either way.
    """
    scorer = Scorer(index.space, query, weights=weights,
                    early_termination=early_termination)
    order = index.entry_points(index.n)
    sims = np.empty(index.n, dtype=np.float64)
    sims[order] = scorer.score_ids(order)
    if excluded is not None:
        sims[excluded] = -np.inf
    # cap <= the admissible count, so no -inf is ever selected.
    top = top_k_sorted(sims, min(l, reportable))[:k]
    return SearchResult(ids=top, similarities=sims[top], stats=scorer.stats)


def _heap_search(
    index: GraphIndex,
    query: MultiVector,
    k: int,
    l: int,
    weights: Weights | None,
    early_termination: bool,
    check_monotone: bool,
    excluded: np.ndarray | None,
    reportable: int,
) -> SearchResult:
    """The two-heap engine; its hot loop is kept deliberately flat.

    Per-query cost here is interpreter time, not similarity work, so on
    the concat fast path a hop is four NumPy calls (unvisited filter,
    mark, row gather, GEMV) and plain-Python heap work on ``tolist()``
    values: the pruning threshold lives in a local that is refreshed
    only where the result heap changes, and the work counters are summed
    in locals and written to the stats once.  Every other scoring route
    (per-modality fallback, compressed kernels, Lemma-4 pruning) still
    goes through :meth:`Scorer.score_frontier`.  Answers and counters
    are bit-identical to the straightforward loop kept as the oracle in
    ``tests/test_index_search.py::TestHeapKernelParity``.
    """
    space = index.space
    scorer = Scorer(space, query, weights=weights,
                    early_termination=early_termination)
    stats = scorer.stats

    r_ids = index.entry_points(l)
    unseen = np.ones(space.n, dtype=bool)
    unseen[r_ids] = False
    init_sims = scorer.score_ids(r_ids)

    # Excluded vertices — soft-deleted (§IX bitset) or outside the
    # query's filter mask — route but never enter results.
    deleted = excluded
    cap = min(l, reportable)

    # results: min-heap of (sim, id) capped at |R|; candidates: max-heap.
    init_ids = r_ids.tolist()
    results = list(zip(init_sims.tolist(), init_ids))
    if deleted is not None:
        results = [
            pair
            for pair, dead in zip(results, deleted[r_ids].tolist())
            if not dead
        ]
    heapq.heapify(results)
    candidates = list(zip((-init_sims).tolist(), init_ids))
    heapq.heapify(candidates)
    total = sum(s for s, _ in results) if check_monotone else 0.0

    heappop, heappush, heappushpop = (
        heapq.heappop, heapq.heappush, heapq.heappushpop
    )
    neighbors = index.neighbors
    qcat = scorer.concat_query_vector
    score_fast = (
        MatrixScorer(space.concatenated, qcat).score_ids
        if qcat is not None
        else None
    )
    # Worst similarity of a full R; -inf while R still has free slots.
    full = len(results) >= cap
    threshold = results[0][0] if full else -np.inf
    hops = evals = 0
    while candidates:
        neg_sim, v = heappop(candidates)
        if -neg_sim < threshold:
            break  # best unexpanded candidate cannot improve R
        hops += 1
        adj = neighbors[v]
        fresh = adj[unseen.take(adj)]
        if not fresh.size:
            continue
        unseen.put(fresh, False)
        if score_fast is not None:
            # Same gather + float32 GEMV as Scorer.score_ids; tolist()
            # widens each value exactly as its float64 copy did.
            sims = score_fast(fresh)
            evals += fresh.size
        else:
            # A Lemma-4-pruned row carries a bound <= threshold, so the
            # comparison below drops it exactly as the keep mask would.
            sims, _ = scorer.score_frontier(fresh, threshold)
        for sim, u in zip(sims.tolist(), fresh.tolist()):
            if not sim > threshold:
                continue
            heappush(candidates, (-sim, u))
            if deleted is not None and deleted[u]:
                continue  # routes, but cannot be an answer
            if not full:
                heappush(results, (sim, u))
                total += sim
                if len(results) >= cap:
                    full = True
                    threshold = results[0][0]
                continue
            dropped = heappushpop(results, (sim, u))
            threshold = results[0][0]
            if check_monotone:
                new_total = total + sim - dropped[0]
                # Lemma 3: f(η) is monotonically non-decreasing.
                assert new_total >= total - 1e-9, (
                    f"Lemma 3 violated: {new_total} < {total}"
                )
                total = new_total
    stats.hops += hops
    stats.visited_vertices += hops
    stats.joint_evals += evals
    stats.modality_evals += evals * scorer.num_active_modalities

    ids = np.asarray([v for _, v in results], dtype=np.int64)
    sims = np.asarray([s for s, _ in results], dtype=np.float64)
    order = np.lexsort((ids, -sims))[:k]
    return SearchResult(ids=ids[order], similarities=sims[order], stats=stats)


def _paper_search(
    index: GraphIndex,
    query: MultiVector,
    k: int,
    l: int,
    weights: Weights | None,
    early_termination: bool,
    check_monotone: bool,
    excluded: np.ndarray | None,
    reportable: int,
) -> SearchResult:
    space = index.space
    n = space.n
    scorer = Scorer(space, query, weights=weights,
                    early_termination=early_termination)
    stats = scorer.stats

    r_ids = index.entry_points(l)
    init_size = r_ids.size
    seen = np.zeros(n, dtype=bool)
    expanded = np.zeros(n, dtype=bool)
    seen[r_ids] = True
    r_sims = scorer.score_ids(r_ids)

    last_total = -np.inf
    while True:
        pending = ~expanded[r_ids]
        if not pending.any():
            break
        # Unvisited vertex of R nearest to the query (l.5).
        local = np.flatnonzero(pending)
        v = int(r_ids[local[np.argmax(r_sims[local])]])
        expanded[v] = True
        stats.hops += 1
        stats.visited_vertices += 1

        adj = index.neighbors[v]
        fresh = adj[~seen[adj]]
        if fresh.size:
            seen[fresh] = True
            threshold = float(r_sims.min()) if r_ids.size >= init_size else -np.inf
            sims, keep = scorer.score_frontier(fresh, threshold)
            if keep.any():
                r_ids = np.concatenate([r_ids, fresh[keep]])
                r_sims = np.concatenate([r_sims, sims[keep]])
                if r_ids.size > init_size:
                    top = np.argpartition(-r_sims, init_size - 1)[:init_size]
                    r_ids, r_sims = r_ids[top], r_sims[top]

        if check_monotone:
            total = float(r_sims.sum())
            # Lemma 3: f(η) is monotonically non-decreasing.
            assert total >= last_total - 1e-9, (
                f"Lemma 3 violated: {total} < {last_total}"
            )
            last_total = total

    if excluded is not None:
        # §IX bitset + filter mask: excluded vertices participated in
        # routing via R but are stripped from the answer (the heap engine
        # additionally keeps them from occupying result slots).
        keep = ~excluded[r_ids]
        r_ids, r_sims = r_ids[keep], r_sims[keep]
    order = np.lexsort((r_ids, -r_sims))[:k]
    return SearchResult(ids=r_ids[order], similarities=r_sims[order], stats=stats)


def greedy_search_graph(
    concat: np.ndarray,
    neighbors: list[np.ndarray] | np.ndarray,
    entry: int,
    query_vec: np.ndarray,
    beam: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Construction-time beam search on raw concatenated vectors.

    Used internally while *building* indexes (NSG candidate acquisition,
    HNSW insertion, Vamana passes): returns every expanded vertex and its
    similarity, best first.  Query-time search should use
    :func:`joint_search` instead, which adds weights/pruning/stats.
    """
    scorer = MatrixScorer(concat, query_vec)
    unseen = np.ones(concat.shape[0], dtype=bool)
    unseen[entry] = False
    entry_sim = scorer.score_one(entry)
    results = [(entry_sim, entry)]
    candidates = [(-entry_sim, entry)]
    expanded_ids: list[int] = [entry]
    expanded_sims: list[float] = [entry_sim]
    heappop, heappush, heappushpop = (
        heapq.heappop, heapq.heappush, heapq.heappushpop
    )
    while candidates:
        neg_sim, v = heappop(candidates)
        # Fixed for the whole hop: every neighbour that beats the beam as
        # it stood on arrival is recorded as expanded.
        threshold = results[0][0] if len(results) >= beam else -np.inf
        if -neg_sim < threshold:
            break
        adj = np.asarray(neighbors[v])
        fresh = adj[unseen.take(adj)]
        if not fresh.size:
            continue
        unseen.put(fresh, False)
        sims = scorer.score_ids(fresh)
        for sim, u in zip(sims.tolist(), fresh.tolist()):
            if not sim > threshold:
                continue
            heappush(candidates, (-sim, u))
            expanded_ids.append(u)
            expanded_sims.append(sim)
            if len(results) < beam:
                heappush(results, (sim, u))
            else:
                heappushpop(results, (sim, u))
    order = np.argsort(-np.asarray(expanded_sims), kind="stable")
    ids = np.asarray(expanded_ids, dtype=np.int64)[order]
    sims = np.asarray(expanded_sims)[order]
    return ids, sims
