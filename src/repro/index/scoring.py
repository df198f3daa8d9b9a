"""Similarity scoring for the search stack: the wave's frontier scorer,
the exact scan's prefilter, and the refine rerank.

* **Concat fast path** — when :meth:`JointSpace.concat_query` can build a
  rescaled query vector, a row's joint similarity is one inner product
  against the ω-scaled concatenated matrix (Lemma 1).  The lockstep wave
  runs it itself (:meth:`~repro.index.graph_wave._Wave.dense`, the C
  gather-dot or ``einsum``); :func:`batch_score_all` runs it as one GEMM
  for an exact scan.
* :class:`StackedScorer` — **every other wave row**: a compressed store
  (materialising the concatenation would undo the compression), a query
  that needs a modality the index weights zeroed, and every row of a
  Lemma-4 plan.  One :class:`~repro.store.StackedKernel` per modality
  scores all of the batch's frontiers in one store call, each row
  reduced on its own, so a row's score is the same alone, in any
  frontier and in any batch.  With ``early_termination`` the same
  kernels run the incremental multi-vector computation of §VII-B: each
  query scans its modalities heaviest first and a row drops out once its
  partial-IP upper bound cannot beat its query's pool threshold —
  lossless by Lemma 4.  The kernels are the store's own: a PQ store's
  sum their lookup-table entries in :mod:`repro.native`'s
  ``adc_gather`` when the library loaded and in NumPy otherwise, to the
  same bits; the int8 and dense kernels are NumPy on both paths.
* :func:`batch_score_all` — many queries × the whole corpus in float32,
  the exact plans' **prefilter**: it also says how far each of its
  scores can sit from the float64 kernel's, and
  :class:`~repro.index.flat.FlatIndex` re-scores whatever that distance
  cannot rule out.
* :func:`rerank_exact` — the second stage of the ``refine=`` pipeline:
  full-precision re-scoring of a compressed search's top survivors
  against the store's cold exact tier.

The per-query reference kernels these are held to stay in
:class:`~repro.core.space.JointSpace`: :meth:`~JointSpace.query_ids`
(full evaluation) and :meth:`~JointSpace.query_ids_early_stop` (Lemma 4)
— a :class:`StackedScorer` row carries their bits and work counters.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.multivector import MultiVector
from repro.core.results import SearchStats
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.store import StackedKernel, dot_error
from repro.utils.topk import rank_order
from repro.utils.validation import require

__all__ = [
    "StackedScorer",
    "batch_score_all",
    "rerank_exact",
]


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


class StackedScorer:
    """Frontier scorer for every wave row off the concat fast path.

    Per modality, one :class:`~repro.store.StackedKernel` holds the query
    vectors of every batch member that carries the modality with a
    positive effective weight; ``score(owner, ids, thr)`` scores row
    ``ids[j]`` against query ``owner[j]`` with one store call per
    modality (per modality *step* under Lemma 4).

    Full evaluation accumulates ``ω²·IP`` in float64 in modality order,
    bit for bit :meth:`JointSpace.query_ids`.  With
    ``early_termination`` each query scans its own modalities heaviest
    ``ω²`` first (ties in modality order) from the bound ``Σ ω²``,
    subtracting ``½·ω²·(2 − 2·IP)`` per step, and a row whose bound is
    not above ``thr[owner]`` drops out between steps — bit for bit
    :meth:`JointSpace.query_ids_early_stop`.  Either way a row's value
    depends on its own query and vertex alone.

    :attr:`joint_evals`, :attr:`modality_evals` and :attr:`pruned_early`
    count per owner, as the reference kernels count into a query's
    :class:`~repro.core.results.SearchStats`.
    """

    def __init__(
        self,
        space: JointSpace,
        queries: Sequence[MultiVector],
        weights: Sequence[Weights | None],
        early_termination: bool = False,
    ) -> None:
        require(
            space.vectors.is_ip_only,
            "graph traversal and compressed scoring require metric 'ip' "
            "on every dense modality — use exact search for cosine/l2 "
            "modalities",
        )
        b = len(queries)
        self.b = b
        w2 = np.stack(
            [
                space.effective_squared_weights(q, w)
                for q, w in zip(queries, weights)
            ]
        )
        carried = w2 > 0.0
        self._w2 = w2
        #: modality → (query → kernel row or -1, kernel), in modality order
        self._kernels: dict[int, tuple[np.ndarray, StackedKernel]] = {}
        for i in np.flatnonzero(carried.any(axis=0)).tolist():
            rows = np.flatnonzero(carried[:, i])
            slot = np.full(b, -1, dtype=np.int64)
            slot[rows] = np.arange(rows.size)
            stack = np.stack([queries[r].vectors[i] for r in rows])
            self._kernels[i] = (
                slot, space.store.stacked_kernel(i, stack.astype(np.float32))
            )
        #: modalities each query scores (Lemma 4: at most).
        self.num_kernels = carried.sum(axis=1).astype(np.int64)
        self.joint_evals = np.zeros(b, dtype=np.int64)
        self.modality_evals = np.zeros(b, dtype=np.int64)
        self.pruned_early = np.zeros(b, dtype=np.int64)
        #: Lemma 4's plan: per query its modalities heaviest first
        #: (``-1`` past its last) and its starting bound ``Σ ω²``.
        self._steps: np.ndarray | None = None
        self._total = np.zeros(b, dtype=np.float64)
        if early_termination:
            self._steps = np.full(
                (b, int(self.num_kernels.max())), -1, dtype=np.int64
            )
            for r in range(b):
                order = sorted(
                    np.flatnonzero(carried[r]).tolist(), key=lambda i: -w2[r, i]
                )
                self._steps[r, : len(order)] = order
                self._total[r] = float(sum(w2[r, i] for i in order))

    def score(
        self, owner: np.ndarray, ids: np.ndarray, thr: np.ndarray
    ) -> np.ndarray:
        """Joint similarity of ``ids[j]`` to query ``owner[j]`` (float64),
        ``-inf`` where it is not above ``thr[owner[j]]``."""
        joint = np.bincount(owner, minlength=self.b)
        self.joint_evals += joint
        if self._steps is None:
            sims = self._full(owner, ids)
            self.modality_evals += joint * self.num_kernels
        else:
            sims = self._pruned(owner, ids, thr, self._steps)
        return np.where(sims > thr[owner], sims, -np.inf)

    def _full(self, owner: np.ndarray, ids: np.ndarray) -> np.ndarray:
        sims = np.zeros(ids.shape[0], dtype=np.float64)
        for i, (slot, kernel) in self._kernels.items():
            w2_i = self._w2[:, i]
            which = slot[owner]
            carried = which >= 0
            if carried.all():
                sims += w2_i[owner] * kernel.ids(ids, which).astype(np.float64)
            elif carried.any():
                part = kernel.ids(ids[carried], which[carried])
                sims[carried] += w2_i[owner[carried]] * part.astype(np.float64)
        return sims

    def _pruned(
        self,
        owner: np.ndarray,
        ids: np.ndarray,
        thr: np.ndarray,
        steps: np.ndarray,
    ) -> np.ndarray:
        """Lemma 4 over a stacked frontier: the rows still alive after a
        step are scored by the next step's kernels only.  A pruned row
        keeps the bound it was dropped with, which is not above its
        threshold."""
        bound = self._total[owner]
        last = self.num_kernels[owner] - 1
        alive = np.flatnonzero(last >= 0)
        for step in range(steps.shape[1]):
            if alive.size == 0:
                break
            held = owner[alive]
            modality = steps[held, step]
            for i, (slot, kernel) in self._kernels.items():
                sel = modality == i
                if not sel.any():
                    continue
                rows, row_owner = alive[sel], held[sel]
                ip = kernel.ids(ids[rows], slot[row_owner]).astype(np.float64)
                # ‖q−u‖² = 2 − 2·(q·u) for unit vectors.
                bound[rows] -= 0.5 * self._w2[row_owner, i] * (2.0 - 2.0 * ip)
            self.modality_evals += np.bincount(held, minlength=self.b)
            more = last[alive] > step
            keep = more & (bound[alive] > thr[held])
            self.pruned_early += np.bincount(held[more & ~keep], minlength=self.b)
            alive = alive[keep]
        return bound


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
    GEMM, or one ADC table block), weighted in float64.  Both are
    inner-product identities, so the space must be ``ip`` on every
    modality; an exact scan over ``cosine`` / ``l2`` modalities runs no
    prefilter (:meth:`~repro.index.flat.FlatIndex.batch_search`).

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
    bounds add under the same ``ω²`` the scores do.  A backend that
    declines leaves ``inf``.
    """
    require(
        space.vectors.is_ip_only,
        "the float32 prefilter is an inner-product identity — it "
        "requires metric 'ip' on every dense modality",
    )
    n = len(queries)
    sims_out: list[np.ndarray] = [np.zeros(0)] * n
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
        else:
            store_rows.append(row)

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
    order = rank_order(ids, sims, k)
    return ids[order], sims[order]
