"""Shared fixtures: small deterministic corpora and prebuilt indexes.

Session-scoped so expensive artifacts (graph builds, weight training) are
constructed once for the whole suite.
"""

from __future__ import annotations

import dataclasses
import heapq

import numpy as np
import pytest

from repro.core.multivector import MultiVector, MultiVectorSet, normalize_rows
from repro.core.query import Query, as_query, unpack_query
from repro.core.results import SearchResult, SearchStats
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.datasets import EncoderCombo, encode_dataset, make_mitstates
from repro.index.base import GraphIndex
from repro.index.pipeline import FusedIndexBuilder
from repro.index.scoring import rerank_exact
from repro.sparse.hybrid import hybrid_union_rescore
from repro.sparse.kernels import (
    BM25_B,
    BM25_K1,
    SparseQueryLike,
    as_sparse_query,
    term_weights,
)
from repro.sparse.store import SparseStore
from repro.utils.rng import make_rng


def random_multivector_set(
    n: int, dims: tuple[int, ...], seed: int = 0
) -> MultiVectorSet:
    """Normalised random multi-vector corpus for structural tests."""
    rng = make_rng(seed)
    mats = [
        normalize_rows(rng.standard_normal((n, d)).astype(np.float32))
        for d in dims
    ]
    return MultiVectorSet(mats)


def random_query(dims: tuple[int, ...], seed: int = 0) -> MultiVector:
    rng = make_rng(seed)
    return MultiVector(
        tuple(
            (lambda v: (v / np.linalg.norm(v)).astype(np.float32))(
                rng.standard_normal(d)
            )
            for d in dims
        )
    )


def stable_oracle(
    space: JointSpace,
    query: MultiVector,
    k: int,
    *,
    ids: np.ndarray | None = None,
    deleted: np.ndarray | None = None,
) -> SearchResult:
    """The exact plans' reference: every row through the row-independent
    float64 kernel, live rows ordered by ``(-similarity, reported
    id)``."""
    sims = space.query_ids_stable(query)
    reported = np.arange(space.n) if ids is None else np.asarray(ids)
    if deleted is not None:
        sims, reported = sims[~deleted], reported[~deleted]
    order = np.lexsort((reported, -sims))[:k]
    return SearchResult(reported[order], sims[order])


def oracle_scores(
    space: JointSpace,
    query: MultiVector,
    ids: np.ndarray,
    weights: Weights | None,
    stats: SearchStats,
) -> np.ndarray:
    """Joint similarities as the oracle scores them: one GEMV against
    the ω-scaled concatenation where the query has a concat vector
    (Lemma 1), :meth:`JointSpace.query_ids` where it has none (a
    compressed store, a modality the index weights zeroed)."""
    qcat = space.concat_query(query, weights)
    if qcat is None:
        return space.query_ids(query, ids, weights=weights, stats=stats)
    stats.joint_evals += int(ids.size)
    stats.modality_evals += int(ids.size) * sum(
        v is not None for v in query.vectors
    )
    return (space.concatenated[ids] @ qcat).astype(np.float64)


def oracle_frontier(
    space: JointSpace,
    query: MultiVector,
    ids: np.ndarray,
    threshold: float,
    weights: Weights | None,
    early_termination: bool,
    stats: SearchStats,
) -> tuple[np.ndarray, np.ndarray]:
    """``(sims, keep)`` of one frontier against a pruning *threshold*:
    :func:`oracle_scores`, or under ``early_termination`` the Lemma-4
    scan :meth:`JointSpace.query_ids_early_stop` (a pruned row carries
    its bound, which is not above the threshold)."""
    if early_termination:
        sims, exact = space.query_ids_early_stop(
            query, ids, threshold, weights=weights, stats=stats
        )
        return sims, exact & (sims > threshold)
    sims = oracle_scores(space, query, ids, weights, stats)
    return sims, sims > threshold


def heap_traverse(
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
    """Algorithm 2 as the classic per-query two-heap loop: the oracle
    the lockstep wave is held to.

    One :func:`oracle_frontier` call per hop (the init's with a -inf
    threshold), the threshold re-read from the result heap wherever it
    is needed, an unbounded candidate heap — excluded vertices route but
    never enter the results.  At ``expansions_per_wave=1`` a lone wave
    query that excludes nothing expands what this expands, in the same
    order.
    """
    space = index.space
    stats = SearchStats()

    def frontier(ids: np.ndarray, threshold: float):
        return oracle_frontier(
            space, query, ids, threshold, weights, early_termination, stats
        )

    r_ids = index.entry_points(l)
    seen = np.zeros(space.n, dtype=bool)
    seen[r_ids] = True
    init_sims, _ = frontier(r_ids, -np.inf)
    cap = min(l, reportable)
    results = [
        (float(s), int(v))
        for s, v in zip(init_sims, r_ids)
        if excluded is None or not excluded[v]
    ]
    heapq.heapify(results)
    candidates = [(-float(s), int(v)) for s, v in zip(init_sims, r_ids)]
    heapq.heapify(candidates)
    total = float(sum(s for s, _ in results))

    def threshold_now() -> float:
        return results[0][0] if len(results) >= cap else -np.inf

    while candidates:
        neg_sim, v = heapq.heappop(candidates)
        if -neg_sim < threshold_now():
            break
        stats.hops += 1
        stats.visited_vertices += 1
        adj = index.neighbors[v]
        fresh = adj[~seen[adj]]
        if fresh.size == 0:
            continue
        seen[fresh] = True
        threshold = threshold_now()
        sims, keep = frontier(fresh, threshold)
        for j in np.flatnonzero(keep):
            sim, u = float(sims[j]), int(fresh[j])
            if sim <= threshold_now():
                continue
            heapq.heappush(candidates, (-sim, u))
            if excluded is not None and excluded[u]:
                continue
            if len(results) < cap:
                heapq.heappush(results, (sim, u))
                total += sim
                continue
            dropped = heapq.heappushpop(results, (sim, u))
            if check_monotone:
                new_total = total + sim - dropped[0]
                assert new_total >= total - 1e-9, "Lemma 3 violated"
                total = new_total
    ranked = sorted(results, key=lambda t: (-t[0], t[1]))[:k]
    return SearchResult(
        ids=np.asarray([v for _, v in ranked], dtype=np.int64),
        similarities=np.asarray([s for s, _ in ranked]),
        stats=stats,
    )


def heap_search(
    index: GraphIndex,
    query: MultiVector | Query,
    k: int,
    l: int,
    weights: Weights | None = None,
    early_termination: bool = False,
    check_monotone: bool = False,
    refine: int | None = None,
    scan: bool = False,
) -> SearchResult:
    """One query through :func:`heap_traverse` with the engine's own
    prepare and finalise: typed overrides, the admissible count, the
    ``refine`` rerank and a hybrid query's union rescore.  ``scan=True``
    scores every vertex as the init scores its entry set and takes the
    top instead of traversing."""
    typed = as_query(query)
    vec, k_q, w, mask = unpack_query(
        typed, k, weights, index.space.vectors.attributes
    )
    l = max(l, k_q)
    excluded = index.deleted
    if mask is not None:
        excluded = ~mask if excluded is None else ~mask | excluded
    reportable = int(index.n - (0 if excluded is None else excluded.sum()))
    if reportable == 0:
        return SearchResult(np.zeros(0, np.int64), np.zeros(0), SearchStats())
    k_inner, l_inner = k_q, l
    if typed.sparse is not None:
        k_inner = l
    elif refine is not None:
        k_inner = k_q * refine
        l_inner = max(l, k_inner)
    if scan:
        stats = SearchStats()
        order = index.entry_points(index.n)
        sims = np.empty(index.n)
        sims[order], _ = oracle_frontier(
            index.space, vec, order, -np.inf, w, early_termination, stats
        )
        if excluded is not None:
            sims[excluded] = -np.inf
        top = np.lexsort((np.arange(index.n), -sims))[: min(l_inner, reportable)]
        res = SearchResult(top[:k_inner], sims[top[:k_inner]], stats)
    else:
        res = heap_traverse(
            index, vec, k_inner, l_inner, w, early_termination,
            check_monotone, excluded, reportable,
        )
    if typed.sparse is not None:
        ids, sims = hybrid_union_rescore(
            index.space, typed, res.ids, min(k_q, index.num_active),
            admissible=None if excluded is None else ~excluded,
            weights=w, stats=res.stats,
        )
    elif refine is not None:
        ids, sims = rerank_exact(index.space, vec, res.ids, k_q, weights=w,
                                 stats=res.stats)
    else:
        return res
    return SearchResult(ids, sims, res.stats)


def heap_view_search(
    view, query: MultiVector | Query, k: int, l: int, **plan
) -> SearchResult:
    """:func:`heap_search` per segment of a
    :class:`~repro.index.segments.SegmentView`, merged as the view
    merges its waves: the delta and the segments the beam covers
    scanned, the rest traversed, each segment's top ``min(l, active)``
    (reranked per segment under ``refine``), then the global top *k* by
    ``(-similarity, external id)``.  Per-segment stats count probes and
    scans as the view's do."""
    from repro.index.segments import beam_covers

    typed = as_query(query)
    k_q = typed.resolve_k(k)
    l = max(l, k_q)
    refine = plan.pop("refine", None)
    inner = dataclasses.replace(typed, k=None)
    ids, sims, stats = [], [], []
    for seg in view.segments:
        if seg.num_active == 0:
            continue
        scan = seg.kind == "delta" or beam_covers(l, seg.n)
        res = heap_search(
            seg.index, inner, min(l, seg.num_active), min(l, seg.n),
            scan=scan, **plan,
        )
        res.stats.segments_probed, res.stats.segments_scanned = 1, int(scan)
        if refine is not None and typed.sparse is None:
            keep = min(refine * k_q, res.ids.size)
            local, exact = rerank_exact(
                seg.space, typed.vector, res.ids[:keep], keep,
                weights=typed.resolve_weights(plan.get("weights")),
            )
            res = SearchResult(local, exact, res.stats)
        ids.append(seg.ext_ids[res.ids])
        sims.append(res.similarities)
        stats.append(res.stats)
    if not ids:
        return SearchResult(np.zeros(0, np.int64), np.zeros(0), SearchStats())
    ids, sims = np.concatenate(ids), np.concatenate(sims)
    order = np.lexsort((ids, -sims))[:k_q]
    return SearchResult(ids[order], sims[order], SearchStats.aggregate(stats))


# ----------------------------------------------------------------------
# Lexical oracles: the same additions as the posting-list scatter
# (repro.sparse.inverted), in the same order, structured differently
# ----------------------------------------------------------------------
def sparse_scores_bruteforce(
    store: SparseStore, query: SparseQueryLike
) -> np.ndarray:
    """Per-term scan: for each query term (ascending) a full ``(n,)``
    contribution array — zero except at the term's posting rows — is
    added to the accumulator.  O(n · query terms); the explicit ``+0.0``
    at untouched rows cannot change a non-negative float64 sum, so the
    answer is the scatter's bits."""
    query = as_sparse_query(query)
    out = np.zeros(store.n, dtype=np.float64)
    terms, weights = term_weights(store, query)
    if terms.size == 0 or store.n == 0:
        return out
    csc = store.postings()
    dl = store.row_lengths()
    bm25 = store.metric == "bm25"
    if bm25:
        norm_full = BM25_K1 * (1.0 - BM25_B + BM25_B * (dl / store.stats.avgdl))
    for t, w_t in zip(terms, weights):
        start, end = csc.indptr[t], csc.indptr[t + 1]
        rows = csc.indices[start:end]
        contrib = np.zeros(store.n, dtype=np.float64)
        if rows.size:
            tf = csc.data[start:end].astype(np.float64)
            if bm25:
                norm = norm_full[rows]
                contrib[rows] = w_t * ((tf * (BM25_K1 + 1.0)) / (tf + norm))
            else:
                contrib[rows] = w_t * tf
        out += contrib
    return out


def sparse_scores_reference(
    store: SparseStore, query: SparseQueryLike
) -> np.ndarray:
    """Per-document loop over each document's own CSR row with plain
    Python floats — no postings, no vectorisation — so a bug shared by
    the scatter and the per-term scan cannot hide."""
    query = as_sparse_query(query)
    out = np.zeros(store.n, dtype=np.float64)
    terms, weights = term_weights(store, query)
    if terms.size == 0:
        return out
    csr = store.csr
    dl = store.row_lengths()
    avgdl = store.stats.avgdl
    weight_of = {int(t): float(w) for t, w in zip(terms, weights)}
    for j in range(store.n):
        start, end = csr.indptr[j], csr.indptr[j + 1]
        tf_of = {
            int(t): float(v)
            for t, v in zip(csr.indices[start:end], csr.data[start:end])
        }
        score = 0.0
        for t in terms:  # ascending — the pinned summation order
            tf = tf_of.get(int(t))
            if tf is None:
                continue
            if store.metric == "bm25":
                norm = BM25_K1 * (1.0 - BM25_B + BM25_B * (dl[j] / avgdl))
                score += weight_of[int(t)] * (
                    (tf * (BM25_K1 + 1.0)) / (tf + norm)
                )
            else:
                score += weight_of[int(t)] * tf
        out[j] = score
    return out


def oracle_scores_inverted(
    store: SparseStore, query: SparseQueryLike
) -> tuple[np.ndarray, np.ndarray]:
    """Drop-in for ``sparse_scores_inverted``: the per-term scan's
    scores, with every row reported touched, so ``sparse_topk`` ranks
    all admissible rows instead of taking its untouched-rows shortcut."""
    return (
        sparse_scores_bruteforce(store, query),
        np.arange(store.n, dtype=np.int64),
    )


def on_sparse_oracle(run, monkeypatch):
    """``run()`` with the lexical oracle in place of the posting-list
    scatter wherever a hybrid answer reads it (``repro.sparse.hybrid``)."""
    import repro.sparse.hybrid as hybrid

    with monkeypatch.context() as patch:
        patch.setattr(hybrid, "sparse_scores_inverted", oracle_scores_inverted)
        return run()


@pytest.fixture(scope="session")
def tiny_set() -> MultiVectorSet:
    """200 objects × 2 modalities (16 and 8 dims)."""
    return random_multivector_set(200, (16, 8), seed=1)


@pytest.fixture(scope="session")
def tiny_space(tiny_set) -> JointSpace:
    return JointSpace(tiny_set, Weights([0.4, 0.6]))


@pytest.fixture(scope="session")
def tiny_index(tiny_space):
    return FusedIndexBuilder(gamma=10, seed=3).build(tiny_space)


@pytest.fixture(scope="session")
def mitstates_small():
    """A small MIT-States corpus shared by dataset/framework tests."""
    return make_mitstates(
        num_nouns=12, num_states=6, instances_per_pair=2, num_queries=40, seed=5
    )


@pytest.fixture(scope="session")
def mitstates_encoded(mitstates_small):
    return encode_dataset(
        mitstates_small, EncoderCombo("resnet50", ("lstm",)), seed=0
    )
