"""Brute-force (exact) search — the paper's MUST-- reference point.

Scans every object's joint similarity; exact but linear in ``n``
(Tab. VII shows its response time growing linearly while the fused index
stays near-flat).

There is one exact kernel, :meth:`FlatIndex.batch_search`, and every
exact plan on every layout is a call to it: a lone query is a batch of
one, a segmented index runs it once per segment and merges
(:meth:`~repro.index.segments.SegmentView.exact_wave`).  It answers in
two steps so that an answer is a function of the index and the query:

1. **Prefilter.**  :func:`~repro.index.scoring.batch_score_all` scores
   the whole batch against every row in float32 — the Lemma-1 concat
   GEMM, or the store's stacked kernel on a compressed corpus.  Fast,
   but a BLAS product rounds a row by the shape of the call, so these
   values only *order* candidates.
2. **Rerank.**  Per query, the rows that could still be among its best
   ``p`` (``k``, or ``refine·k``) are re-scored by the row-independent
   float64 kernel (:meth:`JointSpace.query_ids_stable`), whose value for
   a row depends on that row and the query alone, and ordered by
   ``(-similarity, external id)``.

Which rows "could still be": if the prefilter is within ``ε`` of the
float64 score on every row, the ``p`` rows it ranks best all have a
float64 score of at least ``cut − ε`` (``cut`` their lowest prefilter
score), so the true ``p``-th best is at least that, and any row reaching
it has a prefilter score of at least ``cut − 2ε``.  The shortlist ``{i :
prefilter_i ≥ cut − 2ε}`` therefore holds every row of the exact top
``p``, ties at the cut-off included.  ``ε`` is not a setting: it is the
rounding bound of the prefilter's own arithmetic, which
:func:`~repro.index.scoring.batch_score_all` reports beside its scores,
and where none is proven it is infinite — the shortlist is every
admissible row.

The index is deletion-aware: pass the §IX data-status bitset as
``deleted`` and soft-deleted objects never enter a shortlist.  Queries
may be raw :class:`~repro.core.multivector.MultiVector`\\ s or typed
:class:`~repro.core.query.Query` objects; a query's ``filter`` compiles
to a mask over this space's attribute table and intersects the bitset,
so a filtered exact search is bit-identical to an unfiltered one over
the post-filtered corpus.
"""

from __future__ import annotations

import numpy as np

from repro.core.multivector import MultiVector
from repro.core.query import Query, as_query, unpack_query
from repro.core.results import SearchResult, SearchStats
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.scoring import batch_score_all, rerank_exact
from repro.sparse.hybrid import hybrid_rerank, sparse_term
from repro.utils.topk import rank_order, top_k_sorted
from repro.utils.validation import require

__all__ = ["FlatIndex"]


class FlatIndex:
    """Exact joint-similarity scan over a :class:`JointSpace`.

    ``deleted`` is an optional boolean bitset over the corpus; True rows
    never appear in results.  Pass the array of a live
    :class:`~repro.index.base.GraphIndex` to share its view — but note
    the graph allocates its bitset lazily on the first ``mark_deleted``,
    so a ``None`` captured here stays ``None``; construct the
    :class:`FlatIndex` after the bitset exists (or per search, as
    :meth:`~repro.index.executor.GraphTarget.flat` does) to track later
    deletions.

    ``ids`` optionally remaps results into an external id space: result
    entry ``j`` reports ``ids[local_j]`` instead of the local row number,
    and equal similarities order by it.  The segmented index uses this
    to report stable external ids from per-segment scans.

    ``context`` names the corpus slice in a filter's error message.
    """

    def __init__(
        self,
        space: JointSpace,
        deleted: np.ndarray | None = None,
        ids: np.ndarray | None = None,
        context: str = "corpus",
    ):
        self.space = space
        self.deleted = deleted
        self.ids = None if ids is None else np.asarray(ids, dtype=np.int64)
        self.context = context

    @property
    def n(self) -> int:
        return self.space.n

    def _admissible(self, mask: np.ndarray | None) -> np.ndarray:
        """Local rows a query may report: live, and passing its filter."""
        if self.deleted is not None:
            mask = ~self.deleted if mask is None else mask & ~self.deleted
        return np.arange(self.n) if mask is None else np.flatnonzero(mask)

    def search(
        self,
        query: MultiVector | Query,
        k: int = 10,
        weights: Weights | None = None,
        refine: int | None = None,
    ) -> SearchResult:
        """Exact top-*k* of one query: a batch of one."""
        return self.batch_search([query], k, weights=weights, refine=refine)[0]

    def batch_search(
        self,
        queries: list[MultiVector | Query],
        k: int = 10,
        weights: Weights | None = None,
        refine: int | None = None,
    ) -> list[SearchResult]:
        """Exact top-*k* for a whole batch — the one exact kernel.

        One float32 prefilter wave for the batch, then per query a
        float64 rerank of the rows within the derived band of its
        cut-off (module docstring).  A query's ids, similarities and
        work counters do not depend on what else is in *queries*.

        On a compressed space both steps score the hot codes (the
        rerank, their decoded rows); ``refine=r`` widens the cut-off to
        the top ``r·k`` and re-scores those against the store's exact
        cold tier before cutting to *k*.  A typed :class:`Query`
        supplies per-query ``weights`` / ``filter`` / ``k`` and an
        optional ``sparse=`` lexical component, added as ``ω_s²·lex`` to
        prefilter and rerank alike.
        """
        require(refine is None or refine >= 1, "refine must be >= 1")
        space = self.space
        memo: dict = {}  # shared filters compile once per wave
        typed_queries = [as_query(q) for q in queries]
        unpacked = [
            unpack_query(
                q, k, weights, space.vectors.attributes, self.context,
                memo=memo,
            )
            for q in typed_queries
        ]
        eps = np.full(len(unpacked), np.inf)
        if space.vectors.is_ip_only:
            all_sims, all_stats = batch_score_all(
                space,
                [u[0] for u in unpacked],
                weights=[u[2] for u in unpacked],
                bounds=eps,
            )
        else:  # nothing bounds a cosine / l2 kernel: no prefilter to run
            all_sims = [None] * len(unpacked)
            all_stats = [SearchStats() for _ in unpacked]
        return [
            self._answer(*args, refine)
            for args in zip(typed_queries, unpacked, eps, all_sims, all_stats)
        ]

    def _answer(
        self,
        typed: Query,
        unpacked: tuple[MultiVector, int, Weights | None, np.ndarray | None],
        eps: float,
        sims: np.ndarray | None,
        stats: SearchStats,
        refine: int | None,
    ) -> SearchResult:
        """One query's shortlist, float64 rerank and cut.  *sims* is its
        prefilter row and *eps* the bound on it; where that is infinite
        every admissible row is the shortlist."""
        space = self.space
        vector, k, weights, mask = unpacked
        p = k if refine is None else refine * k
        rows = self._admissible(mask)
        lexical = None
        if typed.sparse is not None:
            lexical = sparse_term(space, typed, self.context)
        if sims is None:
            stats.visited_vertices += rows.size
        elif np.isfinite(eps) and p < rows.size:
            near = sims[rows]
            band = 2.0 * eps
            if lexical is not None:
                near = near + lexical[rows]
                # The same term joins prefilter and rerank in float64;
                # each add can round by half an ulp of the largest sum.
                band += 2.0**-50 * float(np.abs(near).max())
            cut = near[top_k_sorted(near, p)[-1]]
            rows = rows[near >= cut - band]
        stable = space.query_ids_stable(
            vector, rows, weights=weights, stats=stats
        )
        if lexical is not None:
            stable = stable + lexical[rows]
        reported = rows if self.ids is None else self.ids[rows]
        order = rank_order(reported, stable)
        if refine is None:
            top = order[:k]
            return SearchResult(reported[top], stable[top], stats)
        shortlist = rows[order[:p]]
        if lexical is None:
            local, exact = rerank_exact(
                space, vector, shortlist, k, weights=weights, stats=stats
            )
        else:
            local, exact = hybrid_rerank(
                space, typed, shortlist, k, weights=weights, stats=stats,
                context=self.context,
            )
        return SearchResult(
            local if self.ids is None else self.ids[local], exact, stats
        )
