"""Unified similarity-scoring engine for the whole search stack.

Every search path in the library — the two graph-search engines, the
exact :class:`~repro.index.flat.FlatIndex` scan, the construction-time
beam search, and the baselines — used to re-implement the same three
scoring branches.  This module is now their single home:

* **Concat fast path** — when :meth:`JointSpace.concat_query` can build a
  rescaled query vector, scoring a frontier is one gather + one GEMV
  against the ω-scaled concatenated matrix (Lemma 1).
* **Per-modality fallback** — when the fast path is impossible (the query
  needs a modality whose index weight is zero), similarities accumulate
  modality by modality via :meth:`JointSpace.query_ids`.
* **Asymmetric store kernels** — on a compressed
  :class:`~repro.store.VectorStore` the concat path is unavailable by
  design (materialising it would undo the compression); the scorer holds
  one per-modality kernel per query, so PQ lookup tables and
  scalar-quant rescales are built once and reused across every frontier
  wave.  :class:`StackedScorer` is the same route for a whole batch:
  one stacked kernel per modality scores every query's frontier in one
  call, bit-identical to the per-query kernels.  :func:`rerank_exact`
  is the second stage of the ``refine=`` pipeline: full-precision
  re-scoring of the compressed search's top survivors against the
  store's cold exact tier.
* **Lemma-4 pruned evaluation** — with ``early_termination`` the
  incremental multi-vector computation drops an object the moment its
  partial-IP upper bound falls to the pruning threshold
  (:meth:`JointSpace.query_ids_early_stop`); lossless by Lemma 4.
* **Stats accounting** — every branch feeds the same
  :class:`~repro.core.results.SearchStats` counters, so work comparisons
  stay consistent across engines and indexes.

:class:`Scorer` binds one (space, query, weights, early-termination)
configuration; it is cheap to construct and **stateless between calls**
apart from the stats counters, which is what makes one-scorer-per-query
execution safe when several threads read one index.

:func:`batch_score_all` is the batched (many queries × whole corpus)
variant: all fast-path queries are stacked into one matrix and scored
with a single GEMM.  Exact plans use it as a **prefilter** only — it
also says how far each of its scores can sit from the float64 kernel's,
and :class:`~repro.index.flat.FlatIndex` re-scores whatever that
distance cannot rule out.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.multivector import MultiVector
from repro.core.results import SearchStats
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.store import StackedKernel, dot_error
from repro.utils.validation import require


def _per_query_weights(
    weights: Weights | Sequence[Weights | None] | None, count: int
) -> list[Weights | None]:
    """Normalise a batch's ``weights`` argument to one entry per query.

    A single :class:`Weights` (or None) applies to the whole batch — the
    historical contract; a sequence supplies per-query overrides, the
    typed-:class:`~repro.core.query.Query` path.  Per-element arithmetic
    is identical either way, so a batch with ``[w] * b`` is bit-identical
    to one with ``weights=w``.
    """
    if weights is None or isinstance(weights, Weights):
        return [weights] * count
    per_query = list(weights)
    if len(per_query) != count:
        raise ValueError(
            f"per-query weights cover {len(per_query)} queries, batch has "
            f"{count}"
        )
    return per_query

__all__ = [
    "MatrixScorer",
    "Scorer",
    "StackedScorer",
    "batch_score_all",
    "rerank_exact",
]


class MatrixScorer:
    """Raw-matrix scorer: one gather + one GEMV, no weights, no stats.

    Index builders route over plain concatenated vectors where the query
    *is* a corpus row; there is nothing to rescale and no work counters
    to keep.  The heap engine's hot loop uses it the same way over an
    already-rescaled query vector, counting its own work.  This thin
    wrapper centralises the arithmetic so the gather + GEMV idiom lives
    in exactly one module.
    """

    __slots__ = ("matrix", "query_vec")

    def __init__(self, matrix: np.ndarray, query_vec: np.ndarray):
        self.matrix = matrix
        self.query_vec = query_vec

    def score_one(self, i: int) -> float:
        return float(self.matrix[i] @ self.query_vec)

    def score_ids(self, ids: np.ndarray) -> np.ndarray:
        return self.matrix.take(ids, 0).dot(self.query_vec)


class Scorer:
    """Joint-similarity scorer for one query under one weight override.

    Owns the branch selection the searchers used to duplicate:

    ========================  ============================================
    configuration             scoring route
    ========================  ============================================
    default                   concat fast path (gather + GEMV, Lemma 1)
    zeroed index weight       per-modality fallback (``query_ids``)
    ``early_termination``     Lemma-4 pruned scan (``query_ids_early_stop``)
    ========================  ============================================

    All routes update :attr:`stats` with identical accounting, so results
    produced through the scorer are bit-identical to the historical
    per-call-site implementations.
    """

    def __init__(
        self,
        space: JointSpace,
        query: MultiVector,
        weights: Weights | None = None,
        early_termination: bool = False,
        stats: SearchStats | None = None,
    ):
        self.space = space
        self.query = query
        self.weights = weights
        self.early_termination = bool(early_termination)
        self.stats = stats if stats is not None else SearchStats()
        # The pruned path scores modality-by-modality on purpose, so the
        # concatenated fast path is only prepared when it is off.
        self._qcat = (
            None if early_termination else space.concat_query(query, weights)
        )
        self._concat = space.concatenated if self._qcat is not None else None
        self._active = sum(1 for q in query.vectors if q is not None)
        # Compressed store, no concat path: hold the per-modality
        # asymmetric kernels for the whole search, so per-query
        # preprocessing (PQ ADC tables, scalar-quant rescale) is paid
        # once, not per frontier wave.  The Lemma-4 path reuses them via
        # the ``kernels=`` hook.
        self._kernels = (
            space.query_kernels(query, weights)
            if space.is_compressed
            else None
        )
        # The same kernels keyed by modality, for the Lemma-4 scan's
        # ``kernels=`` hook: one dict per search, not one per hop.
        self._kernel_by_modality = (
            {i: kern for i, _, kern in self._kernels}
            if self._kernels is not None
            else None
        )

    @property
    def has_fast_path(self) -> bool:
        """True when frontier scoring is a single GEMV."""
        return self._qcat is not None

    @property
    def num_active_modalities(self) -> int:
        """Modalities the query actually carries (``t`` in the paper)."""
        return self._active

    @property
    def concat_query_vector(self) -> np.ndarray | None:
        """Rescaled concat-space query (Lemma 1), or None off the fast
        path — lets the wave engine stack many queries' fast paths into
        one batched reduction without reaching into scorer internals."""
        return self._qcat

    # ------------------------------------------------------------------
    # Scoring routes
    # ------------------------------------------------------------------
    def score_ids(self, ids: np.ndarray) -> np.ndarray:
        """Joint similarities of the objects in *ids* (no pruning).

        Exact on dense stores; the store's asymmetric approximation on
        compressed ones (identical values to :meth:`JointSpace.query_ids`
        on the same store).
        """
        if self._qcat is not None:
            sims = (self._concat[ids] @ self._qcat).astype(np.float64)
            self.stats.joint_evals += int(ids.size)
            self.stats.modality_evals += int(ids.size) * self._active
            return sims
        if self._kernels is not None:
            out = np.zeros(ids.shape[0], dtype=np.float64)
            for _, w2_i, kernel in self._kernels:
                out += w2_i * kernel.ids(ids).astype(np.float64)
            self.stats.joint_evals += int(ids.size)
            self.stats.modality_evals += int(ids.size) * len(self._kernels)
            return out
        return self.space.query_ids(
            self.query, ids, weights=self.weights, stats=self.stats
        )

    def score_frontier(
        self, ids: np.ndarray, threshold: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score one frontier wave against a pruning *threshold*.

        Returns ``(sims, keep)`` where ``keep[j]`` is True when ``ids[j]``
        beats the threshold with an **exact** similarity — under Lemma-4
        pruning a dropped object carries only its upper bound, which is
        already ≤ the threshold, so the mask is identical in all routes.
        """
        if self.early_termination:
            sims, exact = self.space.query_ids_early_stop(
                self.query, ids, threshold, weights=self.weights,
                stats=self.stats, kernels=self._kernel_by_modality,
            )
            return sims, exact & (sims > threshold)
        sims = self.score_ids(ids)
        return sims, sims > threshold

    def score_all(self) -> np.ndarray:
        """Full-corpus joint similarities through the hot kernels."""
        n = self.space.n
        sims = self.space.query_all(self.query, weights=self.weights)
        self.stats.joint_evals += n
        self.stats.modality_evals += n * self._active
        self.stats.visited_vertices += n
        return sims


class StackedScorer:
    """Frontier scorer for a whole batch on a compressed store.

    The stacked form of :meth:`Scorer.score_ids`' kernel route: per
    modality, one :class:`~repro.store.StackedKernel` holds the query
    vectors of every batch member that carries the modality (with a
    positive effective weight), so the lockstep wave engine scores all
    frontiers with one store call per modality instead of one per
    query.  ``score(owner, ids)[j]`` is bit-identical to
    ``Scorer(space, queries[owner[j]]).score_ids(ids[j:j+1])[0]`` — the
    same float32 kernel value, weighted and accumulated in float64 in
    the same modality order.
    """

    def __init__(
        self,
        space: JointSpace,
        queries: Sequence[MultiVector],
        weights: Sequence[Weights | None],
    ) -> None:
        require(
            space.vectors.is_ip_only,
            "compressed frontier scoring requires metric 'ip' on every "
            "dense modality — use exact search for cosine/l2 modalities",
        )
        b = len(queries)
        w2 = np.stack(
            [
                space.effective_squared_weights(q, w)
                for q, w in zip(queries, weights)
            ]
        )
        #: (ω² column, query → kernel row or -1, kernel) per modality
        self._parts: list[tuple[np.ndarray, np.ndarray, StackedKernel]] = []
        #: modalities scored per query (the stats multiplier).
        self.num_kernels = np.zeros(b, dtype=np.int64)
        for i in range(space.num_modalities):
            rows = [
                r
                for r, q in enumerate(queries)
                if q.vectors[i] is not None and w2[r, i] > 0.0
            ]
            if not rows:
                continue
            slot = np.full(b, -1, dtype=np.int64)
            slot[rows] = np.arange(len(rows))
            stack = np.stack([queries[r].vectors[i] for r in rows])
            kernel = space.store.stacked_kernel(i, stack.astype(np.float32))
            self._parts.append((w2[:, i], slot, kernel))
            self.num_kernels[rows] += 1

    def score(self, owner: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Joint similarity of ``ids[j]`` to query ``owner[j]`` (float64)."""
        sims = np.zeros(ids.shape[0], dtype=np.float64)
        for w2_i, slot, kernel in self._parts:
            which = slot[owner]
            carried = which >= 0
            if carried.all():
                sims += w2_i[owner] * kernel.ids(ids, which).astype(np.float64)
            elif carried.any():
                part = kernel.ids(ids[carried], which[carried])
                sims[carried] += w2_i[owner[carried]] * part.astype(np.float64)
        return sims


def batch_score_all(
    space: JointSpace,
    queries: list[MultiVector],
    weights: Weights | Sequence[Weights | None] | None = None,
    bounds: np.ndarray | None = None,
) -> tuple[list[np.ndarray], list[SearchStats]]:
    """Score many queries against the whole corpus in float32 waves.

    Every query with a concat fast path contributes one column to a
    stacked query matrix, and a single ``(n, D) @ (D, b)`` GEMM replaces
    ``b`` separate scans (Lemma 1).  A query without one — a compressed
    store, or an override that needs a modality the index weights
    zeroed — is scored modality by modality through the store's own
    stacked kernel (:meth:`~repro.store.VectorStore.batch_scores`: one
    GEMM, or one ADC table block), weighted in float64.  A ``cosine`` /
    ``l2`` modality has neither and takes the per-query
    :meth:`Scorer.score_all`.

    ``weights`` is either one override for the whole batch or a sequence
    of per-query overrides (the typed-``Query`` path) — each query's
    rescaled concat column already bakes its own weights in, so mixed
    batches still share the one GEMM.

    Returns per-query ``(sims, stats)`` aligned with *queries*.  The
    values are float32 products whose last bits depend on how many
    queries share the call, so they order candidates and nothing more.
    How far they can sit from the float64 kernel an exact answer is
    read from (:meth:`JointSpace.query_ids_stable`) is written into
    *bounds* when the caller passes one (a float array, one slot per
    query): an ``ε`` with ``|sims − stable| ≤ ε`` on every row, or
    ``inf`` where none is proven.  On the concat GEMM a score is one
    float32 dot product of ``D`` terms between the ω-scaled row and the
    rescaled query, so the textbook bound applies to their norms, ``ε =
    γ_D·‖q̃‖₂·max_i‖x̃_i‖₂`` (:func:`~repro.store.dot_error`; the row
    norm is one scalar per space, :attr:`JointSpace.max_concat_norm`).
    On the store-kernel route each modality's backend bounds its own
    wave (:meth:`~repro.store.VectorStore.batch_scores_bound`) and the
    bounds add under the same ``ω²`` the scores do.  A ``cosine`` /
    ``l2`` modality, or a backend that declines, leaves ``inf``.
    """
    n = len(queries)
    sims_out: list[np.ndarray | None] = [None] * n
    stats_out: list[SearchStats] = [SearchStats() for _ in range(n)]
    per_query = _per_query_weights(weights, n)
    if bounds is not None:
        bounds[:] = np.inf

    stacked: list[np.ndarray] = []
    fast_rows: list[int] = []
    store_rows: list[int] = []
    for row, query in enumerate(queries):
        qcat = space.concat_query(query, per_query[row])
        if qcat is not None:
            stacked.append(qcat)
            fast_rows.append(row)
        elif space.vectors.is_ip_only:
            store_rows.append(row)
        else:
            scorer = Scorer(space, query, weights=per_query[row],
                            stats=stats_out[row])
            sims_out[row] = scorer.score_all()

    if fast_rows:
        columns = np.stack(stacked, axis=1)  # (D, b)
        block = (space.concatenated @ columns).astype(np.float64)
        for col, row in enumerate(fast_rows):
            sims_out[row] = block[:, col]
        if bounds is not None:
            bounds[fast_rows] = (
                dot_error(columns.shape[0])
                * space.max_concat_norm
                * np.linalg.norm(columns.astype(np.float64), axis=0)
            )
    if store_rows:
        scored, eps = _batch_score_stores(
            space,
            [queries[row] for row in store_rows],
            [per_query[row] for row in store_rows],
        )
        for row, sims in zip(store_rows, scored):
            sims_out[row] = sims
        if bounds is not None:
            bounds[store_rows] = eps
    for row in fast_rows + store_rows:
        stats = stats_out[row]
        active = sum(1 for q in queries[row].vectors if q is not None)
        stats.joint_evals += space.n
        stats.modality_evals += space.n * active
        stats.visited_vertices += space.n
    return sims_out, stats_out


def _batch_score_stores(
    space: JointSpace,
    queries: list[MultiVector],
    weights: list[Weights | None],
) -> tuple[list[np.ndarray], np.ndarray]:
    """Batched asymmetric scan: one store GEMM/ADC wave per modality.

    For each modality, every query carrying it contributes one column to
    a stacked query matrix scored by
    :meth:`~repro.store.VectorStore.batch_scores` (dense-ish backends
    run one GEMM; PQ gathers one LUT block).  The per-query float64
    weighting happens outside the float32 wave, and weights the store's
    own error bounds the same way: returns ``(sims, eps)``.
    """
    store = space.store
    sims_out = [np.zeros(space.n, dtype=np.float64) for _ in queries]
    eps = np.zeros(len(queries))
    w2_rows = [
        space.effective_squared_weights(q, w)
        for q, w in zip(queries, weights)
    ]
    for i in range(space.num_modalities):
        cols = [
            row
            for row, q in enumerate(queries)
            if q.vectors[i] is not None and w2_rows[row][i] > 0.0
        ]
        if not cols:
            continue
        stacked = np.stack(
            [queries[row].vectors[i].astype(np.float32) for row in cols]
        )
        block = store.batch_scores(i, stacked)  # (n_obj, b_i)
        w2 = np.array([w2_rows[row][i] for row in cols])
        eps[cols] += w2 * store.batch_scores_bound(i, stacked)
        for col, row in enumerate(cols):
            sims_out[row] += w2[col] * block[:, col].astype(np.float64)
    return sims_out, eps


def rerank_exact(
    space: JointSpace,
    query: MultiVector,
    ids: np.ndarray,
    k: int,
    weights: Weights | None = None,
    stats: SearchStats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stage two of the ``refine=`` pipeline: full-precision top-*k*.

    Re-scores the candidate *ids* (local row numbers) against the
    store's cold exact tier and returns the best *k* ordered by
    ``(-similarity, id)``.  With a dense store this is an exact
    re-evaluation (same values, fresh float64 accumulation); with a
    compressed store it removes the quantisation error from the final
    ranking — recall can only improve over returning the approximate
    order, since the candidate set is unchanged.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return ids, np.zeros(0, dtype=np.float64)
    sims = space.query_ids_exact(query, ids, weights=weights, stats=stats)
    order = np.lexsort((ids, -sims))[:k]
    return ids[order], sims[order]
