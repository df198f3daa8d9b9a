"""Joint search over a fused proximity graph (paper §VII-B, Algorithm 2).

Greedy best-first routing with a result set ``R`` of size ``l``: starting
from ``l`` entry vertices, repeatedly expand the unvisited vertex of
``R`` closest to the query, score its neighbours, and keep the best
``l``.  Lemma 3 guarantees the total similarity of ``R`` is
non-decreasing; the optional ``check_monotone`` flag asserts it.

Every search starts from :meth:`GraphIndex.entry_points`, the first
``l`` of the graph's fixed entry order (the fixed entry points of HNSW /
NSG / Vamana, widened to ``l``), so the same query on the same index
returns the same bits however it is asked.

There is one engine, the lockstep wave of
:mod:`repro.index.graph_wave`; :func:`joint_search` is its one-query
entry point, a wave of one.  :func:`greedy_search_graph` is the
construction-time beam search the graph builders use.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.multivector import MultiVector
from repro.core.query import FilterMemo, Query
from repro.core.results import SearchResult
from repro.core.weights import Weights
from repro.index.base import GraphIndex
from repro.index.graph_wave import lockstep

__all__ = ["joint_search", "greedy_search_graph"]


def joint_search(
    index: GraphIndex,
    query: MultiVector | Query,
    k: int,
    l: int,
    weights: Weights | None = None,
    early_termination: bool = False,
    check_monotone: bool = False,
    refine: int | None = None,
    filter_memo: FilterMemo | None = None,
) -> SearchResult:
    """Approximate top-*k* joint search (Algorithm 2) for one query.

    ``weights`` overrides the index weights at query time (user-defined
    weights, Fig. 4(g) Option 2); ``l`` trades accuracy for latency.
    ``early_termination`` enables the Lemma-4 multi-vector optimisation;
    it never changes the returned ids, only the modality evaluations
    spent (see benchmarks/bench_fig10c).

    A typed :class:`Query` supplies per-query weights, a per-query ``k``
    override (which widens ``l`` as needed), an attribute ``filter``
    and, for a hybrid query, a sparse side.  The compiled filter mask is
    handled like the §IX deletion bitset — the standard filtered-ANN
    construction: inadmissible vertices still *route* (dropping them
    could disconnect the graph around the answer set) but can never
    occupy a result slot.

    ``refine=r`` enables the two-stage rerank pipeline (for compressed
    vector stores): the routing phase collects the top ``r·k``
    candidates by hot-tier (possibly quantised) similarity, then
    re-scores exactly those survivors at full precision and returns the
    best *k*.  A hybrid query fuses its dense candidates with the sparse
    scorer's top admissible rows instead
    (:func:`~repro.sparse.hybrid.hybrid_union_rescore`).

    The query is a lockstep wave of one
    (:func:`~repro.index.graph_wave.graph_wave_search`), and its stats
    carry that wave's ``waves`` / ``frontier_sizes`` trace, so the answer
    — ids, similarities and every counter — is the one the same query
    gets in any batch.  ``filter_memo`` shares filter compilations
    across calls (:func:`~repro.core.query.compile_filter`).
    """
    (result,), wave_stats = lockstep(
        index, [query], k, l, weights, early_termination, refine,
        check_monotone, filter_memo,
    )
    result.stats.merge(wave_stats)
    return result


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
    unseen = np.ones(concat.shape[0], dtype=bool)
    unseen[entry] = False
    entry_sim = float(concat[entry] @ query_vec)
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
        sims = concat.take(fresh, 0).dot(query_vec)
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
