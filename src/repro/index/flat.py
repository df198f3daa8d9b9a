"""Brute-force (exact) search — the paper's MUST-- reference point.

Scans every object's joint similarity; exact but linear in ``n``
(Tab. VII shows its response time growing linearly while the fused index
stays near-flat).

The scan itself lives in the shared scoring engine
(:class:`~repro.index.scoring.Scorer` for one query,
:func:`~repro.index.scoring.batch_score_all` for a batch — one GEMM for
the whole wave).  The index is deletion-aware: pass the §IX data-status
bitset as ``deleted`` and soft-deleted objects are excluded from exact
results, matching the graph searcher's behaviour.

Queries may be raw :class:`~repro.core.multivector.MultiVector`\\ s or
typed :class:`~repro.core.query.Query` objects; a query's ``filter``
compiles to a candidate mask over this space's attribute table, which is
intersected with the deletion bitset before ranking — so a filtered
exact search is bit-identical to an unfiltered search over the
post-filtered corpus (the scan scores every row; masked rows simply
cannot be answers).
"""

from __future__ import annotations

import numpy as np

from repro.core.multivector import MultiVector
from repro.core.query import Query, as_query, unpack_query
from repro.core.results import SearchResult
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.scoring import Scorer, batch_score_all, rerank_exact
from repro.sparse.hybrid import add_sparse, hybrid_rerank
from repro.utils.topk import top_k_sorted
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
    entry ``j`` reports ``ids[local_j]`` instead of the local row number.
    The segmented index uses this to report stable external ids from
    per-segment scans.

    ``deterministic`` routes the single-query scan through the
    layout-independent kernel (:meth:`JointSpace.query_ids_stable`), so
    a row's similarity does not depend on the corpus row count — the
    property that makes per-segment exact scans bit-identical to one
    whole-corpus scan.  Off by default: the BLAS scan is faster and is
    the historical MUST-- behaviour.
    """

    name = "flat"

    def __init__(
        self,
        space: JointSpace,
        deleted: np.ndarray | None = None,
        ids: np.ndarray | None = None,
        deterministic: bool = False,
    ):
        self.space = space
        self.deleted = deleted
        self.ids = None if ids is None else np.asarray(ids, dtype=np.int64)
        self.deterministic = bool(deterministic)

    @property
    def n(self) -> int:
        return self.space.n

    def _rank(
        self, sims: np.ndarray, k: int, mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Top-*k* local ids of one scan, inadmissible rows masked out.

        With a filter mask the selection runs over the *compacted*
        admissible rows rather than a ``-inf``-masked full array:
        identical results (the compaction is order-preserving, so tie
        order maps straight back), but argpartition keeps its O(n)
        behaviour instead of degrading on duplicate-heavy ``-inf`` runs.
        """
        if self.deleted is not None:
            sims = np.where(self.deleted, -np.inf, sims)
        if mask is not None:
            admissible = np.flatnonzero(mask)
            local = top_k_sorted(sims[admissible], k)
            ids = admissible[local]
        else:
            ids = top_k_sorted(sims, k)
        # Fewer than k admissible objects leave -inf (deleted) entries
        # in the selection; drop them rather than return inadmissible
        # rows.
        return ids[np.isfinite(sims[ids])]

    def _result(self, local: np.ndarray, sims: np.ndarray, stats) -> SearchResult:
        out_ids = local if self.ids is None else self.ids[local]
        return SearchResult(ids=out_ids, similarities=sims[local], stats=stats)

    def _refined(
        self,
        typed: Query,
        sims: np.ndarray,
        k: int,
        refine: int,
        weights: Weights | None,
        stats,
        mask: np.ndarray | None = None,
        sparse_engine: str = "auto",
    ) -> SearchResult:
        """Two-stage rerank: top ``refine·k`` of the scan, re-scored at
        full precision against the store's exact tier, cut to *k*.  On a
        hybrid query the rerank adds the sparse term at the shortlist
        rows (the first-stage ``sims`` already contain it, so the
        shortlist is picked under the combined metric)."""
        shortlist = self._rank(sims, refine * k, mask)
        if typed.sparse is not None:
            local, exact = hybrid_rerank(
                self.space, typed, shortlist, k, weights=weights,
                stats=stats, engine=sparse_engine,
            )
        else:
            local, exact = rerank_exact(
                self.space, typed.vector, shortlist, k, weights=weights,
                stats=stats,
            )
        out_ids = local if self.ids is None else self.ids[local]
        return SearchResult(ids=out_ids, similarities=exact, stats=stats)

    def search(
        self,
        query: MultiVector | Query,
        k: int = 10,
        weights: Weights | None = None,
        refine: int | None = None,
        sparse_engine: str = "auto",
    ) -> SearchResult:
        """Exact top-*k* by full scan.

        On a compressed space the scan scores the hot codes; pass
        ``refine=r`` to re-score the top ``r·k`` survivors at full
        precision (two-stage rerank) before cutting to *k*.  A typed
        :class:`Query` supplies per-query ``weights``/``filter``/``k``
        and an optional ``sparse=`` lexical component, whose scores are
        mixed into the scan as ``ω_s²·lex`` (``sparse_engine`` picks the
        lexical scorer; both engines produce the same bits).
        """
        require(refine is None or refine >= 1, "refine must be >= 1")
        typed = as_query(query)
        query, k, weights, mask = unpack_query(
            typed, k, weights, self.space.vectors.attributes
        )
        scorer = Scorer(self.space, query, weights=weights,
                        deterministic=self.deterministic)
        sims = scorer.score_all()
        if typed.sparse is not None:
            sims = add_sparse(sims, self.space, typed, engine=sparse_engine)
        if refine is not None:
            return self._refined(
                typed, sims, k, refine, weights, scorer.stats, mask,
                sparse_engine=sparse_engine,
            )
        local = self._rank(sims, k, mask)
        return self._result(local, sims, scorer.stats)

    def batch_search(
        self,
        queries: list[MultiVector | Query],
        k: int = 10,
        weights: Weights | None = None,
        refine: int | None = None,
        sparse_engine: str = "auto",
    ) -> list[SearchResult]:
        """Exact top-*k* for a whole batch — one GEMM for the wave.

        Ranks agree with ``[search(q, k) for q in queries]`` on
        non-degenerate data, but the similarities travel a different
        numerical route (rescaled float32 concat GEMM vs the sequential
        scan's per-modality float64 accumulation) and can diverge by
        ~1e-7; objects whose joint similarities are closer than that may
        swap ranks between the two paths.  See :func:`batch_score_all`.
        ``refine`` applies the same two-stage rerank per query.  Typed
        queries keep their per-query weights/filters/k inside the shared
        GEMM wave (each concat column bakes its weights in; masks apply
        after scoring).
        """
        require(refine is None or refine >= 1, "refine must be >= 1")
        attributes = self.space.vectors.attributes
        memo: dict = {}  # shared filters compile once per wave
        typed_queries = [as_query(q) for q in queries]
        unpacked = [
            unpack_query(q, k, weights, attributes, memo=memo)
            for q in typed_queries
        ]
        vectors = [u[0] for u in unpacked]
        all_sims, all_stats = batch_score_all(
            self.space, vectors, weights=[u[2] for u in unpacked]
        )
        out = []
        for typed, (query, k_i, w_i, mask), sims, stats in zip(
            typed_queries, unpacked, all_sims, all_stats
        ):
            if typed.sparse is not None:
                sims = add_sparse(
                    sims, self.space, typed, engine=sparse_engine
                )
            if refine is not None:
                out.append(
                    self._refined(
                        typed, sims, k_i, refine, w_i, stats, mask,
                        sparse_engine=sparse_engine,
                    )
                )
                continue
            local = self._rank(sims, k_i, mask)
            out.append(self._result(local, sims, stats))
        return out
