"""Similarity scoring for the search stack: the wave's row scorer, the
exact scan's prefilter, and the refine rerank.

* :class:`RowScorer` — **every wave row**, traversed or scanned: the
  state of the native row scorer (``native.c``'s ``score_rows``), which
  ``wave_run`` calls once a wave.  A row whose query has a concat
  vector (Lemma 1) is one lane dot product with the ω-scaled
  concatenation; any other row — a compressed store (materialising the
  concatenation would undo the compression) or a query that needs a
  modality the index weights zeroed — sums ``ω²·IP`` in float64 over
  one :class:`~repro.store.ModalityKernel` per modality, the store's
  dense, int8 or PQ operand.  Each row is reduced on its own, so its
  score is the same alone, in any frontier and in any batch — a lone
  query is a stack of one.
* :func:`batch_score_all` — many queries × the whole corpus in float32,
  the exact plans' **prefilter**: it also says how far each of its
  scores can sit from the float64 kernel's, and
  :class:`~repro.index.flat.FlatIndex` re-scores whatever that distance
  cannot rule out.
* :func:`rerank_exact` — the second stage of the ``refine=`` pipeline:
  full-precision re-scoring of a compressed search's top survivors
  against the store's cold exact tier.

The tests hold a :class:`RowScorer` row to
:meth:`~repro.core.space.JointSpace.query_ids_stable` (float64 over
decoded rows) within the float32 dot-product bound.  The paper's
Lemma-4 pruned evaluation (§VII-B) is not a plan here: it saves too few
modality evaluations to pay for a per-step pass, so Fig. 10(c) counts
it on the per-query reference in :mod:`repro.bench.efficiency`.
"""

from __future__ import annotations

import ctypes
from typing import Sequence

import numpy as np

from repro import native
from repro.core.multivector import MultiVector
from repro.core.results import SearchStats
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.store import dot_error
from repro.utils.topk import rank_order
from repro.utils.validation import require

__all__ = [
    "RowScorer",
    "ScorerScratch",
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


class ScorerScratch:
    """What a :class:`RowScorer` keeps from one batch to the next: the
    native state and the buffers of the fast rows' query matrix and the
    evaluation counters, grown to the largest batch met.  A graph's
    traversal scratch holds one (:mod:`repro.index.graph_wave`); a
    scorer built without one gets its own."""

    def __init__(self) -> None:
        self.state = native.ScorerState()
        self.pointer = ctypes.pointer(self.state)
        self._qbuf = np.empty(1, dtype=np.float32)
        self._ebuf = np.empty(1, dtype=np.int64)

    @property
    def nbytes(self) -> int:
        return self._qbuf.nbytes + self._ebuf.nbytes

    def bind(self, b: int, n: int, dim: int) -> None:
        """Shape :attr:`qmat` ``(b, dim)`` and :attr:`evals` ``(b,)`` for a
        batch of *b* rows over *n* vertices, zero the counters and stamp
        the state with them, no row operand and no concatenation."""
        if self._qbuf.size < b * dim:
            self._qbuf = np.empty(b * dim, dtype=np.float32)
        if self._ebuf.size < b:
            self._ebuf = np.empty(b, dtype=np.int64)
        self.qmat = self._qbuf[: b * dim].reshape(b, dim)
        self.evals = self._ebuf[:b]
        self.evals.fill(0)
        state = self.state
        state.b, state.n, state.dim = b, n, dim
        state.qmat = native.address(self._qbuf)
        state.evals = native.address(self._ebuf)
        state.concat, state.fast, state.m, state.mods = None, None, 0, None


class RowScorer:
    """The native row scorer over one batch of queries: the state
    ``native.c``'s ``score_rows`` reads, which ``wave_run`` calls per
    wave and :meth:`score` calls once for a scan.

    A row — one query of the batch — is *fast* when its query has a
    concat vector (Lemma 1): its similarity is one lane dot product with
    the ω-scaled concatenation, the query written straight into its row
    of the kept query matrix (:meth:`JointSpace.concat_query`).  Every
    other row (a compressed store, a query that needs a modality the
    index weights zeroed, or any row when ``concat=False``) sums
    ``ω²·IP`` in float64 in modality order, each ``IP`` read from one
    :class:`~repro.store.ModalityKernel` per modality holding the stack
    of the rows that carry it.  A row's value depends on its own query
    and vertex alone, so a scorer over a stack of one gives it the bits
    it gets in any batch.

    *scratch* is the :class:`ScorerScratch` the state and arrays live
    in; a fresh one when none is given.  :attr:`evals` counts each row's
    joint evaluations, and :attr:`mods` (a list) the modality
    evaluations one stands for: a fast row's query modalities, or the
    modalities another row scores.
    """

    def __init__(
        self,
        space: JointSpace,
        queries: Sequence[MultiVector],
        weights: Sequence[Weights | None],
        concat: bool = True,
        scratch: ScorerScratch | None = None,
    ) -> None:
        b = len(queries)
        kept = ScorerScratch() if scratch is None else scratch
        kept.bind(b, space.n, space.concat_width)
        qmat = kept.qmat
        fast = [
            concat and space.concat_query(q, w, out=qmat[i]) is not None
            for i, (q, w) in enumerate(zip(queries, weights))
        ]
        self.evals = kept.evals
        self.mods = [sum(v is not None for v in q.vectors) for q in queries]
        state = kept.state
        keep: list[object] = [kept]
        if any(fast):
            # Held for the scorer's life: a concurrent drop_caches may
            # release the space's own reference.
            concat_mat = space.concatenated
            # The kernel reads the matrix in place, so it trusts its layout.
            require(
                concat_mat.dtype == np.float32 and concat_mat.flags.c_contiguous,
                "row scorer: the concatenated matrix is not C-ordered float32",
            )
            state.concat = concat_mat.ctypes.data
            keep.append(concat_mat)
        if not all(fast):
            fast = np.array(fast, dtype=bool)
            flags = fast.view(np.uint8)
            state.fast = native.address(flags)
            w2 = np.stack(
                [
                    space.effective_squared_weights(q, w)
                    for q, w in zip(queries, weights)
                ]
            )
            carried = (w2 > 0.0) & ~fast[:, None]
            self.mods = np.where(fast, self.mods, carried.sum(axis=1)).tolist()
            ops = [
                _operand(space, queries, i, carried[:, i], w2[:, i], keep)
                for i in np.flatnonzero(carried.any(axis=0)).tolist()
            ]
            mods = (native.Operand * len(ops))(*ops)
            state.m, state.mods = len(ops), mods
            keep += [flags, mods]
        #: everything the state points into stays referenced here.
        self._keep = keep
        self.state = kept.pointer

    def score(
        self, owner: np.ndarray, cand: np.ndarray, thr: np.ndarray
    ) -> np.ndarray:
        """Similarity of vertex ``cand[j]`` to row ``owner[j]`` (float64),
        ``-inf`` where it is not above ``thr[owner[j]]``; counted in
        :attr:`evals`."""
        owner = np.ascontiguousarray(owner, dtype=np.int64)
        cand = np.ascontiguousarray(cand, dtype=np.int64)
        thr = np.ascontiguousarray(thr, dtype=np.float64)
        sims = np.empty(cand.size, dtype=np.float64)
        native.check(
            native.lib.score_rows(
                self.state, owner.ctypes.data, cand.ctypes.data, cand.size,
                thr.ctypes.data, sims.ctypes.data,
            )
        )
        return sims


def _operand(
    space: JointSpace,
    queries: Sequence[MultiVector],
    i: int,
    carried: np.ndarray,
    w2: np.ndarray,
    keep: list[object],
) -> native.Operand:
    """Modality *i*'s operand: the store's kernel over the stack of the
    rows that carry it, each row's slot in that stack and its ``ω²``;
    what the operand points into is appended to *keep*."""
    rows = np.flatnonzero(carried)
    slot = np.full(carried.size, -1, dtype=np.int64)
    slot[rows] = np.arange(rows.size)
    stack = np.stack([queries[r].vectors[i] for r in rows]).astype(np.float32)
    kernel = space.store.stacked_kernel(i, stack)
    w2 = np.ascontiguousarray(w2, dtype=np.float64)
    require(
        kernel.rows.shape[0] == space.n
        and kernel.rows.flags.c_contiguous
        and kernel.queries.flags.c_contiguous
        and kernel.queries.dtype == np.float32,
        f"row scorer: modality {i}'s operand is malformed",
    )
    keep += [kernel, slot, w2]
    return native.Operand(
        kind=kernel.kind, width=kernel.rows.shape[1],
        ncent=kernel.queries.shape[-1], rows=kernel.rows.ctypes.data,
        queries=kernel.queries.ctypes.data,
        offset=None if kernel.offset is None else kernel.offset.ctypes.data,
        slot=slot.ctypes.data, w2=w2.ctypes.data,
    )


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
    full-scan kernel (:meth:`~repro.store.VectorStore.batch_scores`: one
    GEMM, or one ADC table block), weighted in float64.

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
