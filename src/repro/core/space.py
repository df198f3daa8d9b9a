"""Joint similarity space over multi-vector objects (Lemmas 1 and 4).

:class:`JointSpace` binds a :class:`~repro.core.multivector.MultiVectorSet`
to a :class:`~repro.core.weights.Weights` instance and exposes every
similarity kernel the indexes and searchers need:

* object↔object joint similarity (used during graph construction),
* the rescaled query vector of the concat fast path (Lemma 1),
* query→corpus joint similarity in float64, over the whole corpus or an
  id subset: the exact plans' kernel and the ``refine=`` rerank.

Frontier rows, on the concat fast path or off it (a compressed store, a
zero-weight fallback, through each store's per-modality operand), are
scored by the native row scorer, :class:`~repro.index.scoring.RowScorer`.
The **incremental multi-vector computation** of §VII-B, which discards
an object as soon as its partial-IP upper bound drops to the pruning
threshold, is no search plan; Fig. 10(c) counts it on the per-query
reference :func:`repro.bench.efficiency.lemma4_scores`.

All vectors are assumed L2-normalised, which gives the identity the paper
uses in Eq. 8 (generalised to arbitrary weight totals ``S = Σ ω²``)::

    IP(q̂, û) = S − ½ · Σ_i ω_i² · ‖q_i − u_i‖²

That reference scans modalities in descending-weight order, which
maximises early pruning and — by Lemma 4 — never changes a returned
result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.multivector import MultiVector, MultiVectorSet
from repro.core.results import SearchStats
from repro.core.weights import Weights
from repro.store import VectorStore, max_row_norm
from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.sparse.store import SparseStore

__all__ = ["JointSpace"]


class JointSpace:
    """Similarity oracle for one object set under one weight configuration."""

    def __init__(self, vectors: MultiVectorSet, weights: Weights):
        require(
            weights.num_modalities == vectors.num_modalities,
            f"weights cover {weights.num_modalities} modalities but the "
            f"object set has {vectors.num_modalities}",
        )
        self._vectors = vectors
        self._weights = weights
        self._omegas = weights.omegas  # weights are immutable
        self._dims = vectors.dims
        #: the ω-scaled concatenation's width, ``Σ d_i``.
        self.concat_width = sum(self._dims)
        self._concat: np.ndarray | None = None  # lazy ω-scaled concatenation
        self._concat_norm: float | None = None  # its largest row norm

    # ------------------------------------------------------------------
    # Introspection / derivation
    # ------------------------------------------------------------------
    @property
    def vectors(self) -> MultiVectorSet:
        return self._vectors

    @property
    def weights(self) -> Weights:
        return self._weights

    @property
    def store(self) -> VectorStore:
        """The backing vector store (hot representation + kernels)."""
        return self._vectors.store

    @property
    def is_compressed(self) -> bool:
        """True when the corpus side of every kernel is compressed."""
        return self._vectors.is_compressed

    def drop_caches(self) -> None:
        """Release lazily materialised derived state.

        Drops the ω-scaled concatenation (and the row-norm scalar taken
        from it), which doubles the resident corpus bytes.  Called by
        :meth:`MUST.compact` and safe at any time: it rebuilds on
        demand.
        """
        self._concat = None
        self._concat_norm = None

    @property
    def n(self) -> int:
        return self._vectors.n

    @property
    def num_modalities(self) -> int:
        return self._vectors.num_modalities

    def with_weights(self, weights: Weights) -> "JointSpace":
        """Same object set under different weights (user override path)."""
        return JointSpace(self._vectors, weights)

    def rebind(
        self,
        store: VectorStore | None = None,
        sparse: "SparseStore | None" = None,
    ) -> "JointSpace":
        """The same objects over a new *store* or *sparse* plane.

        The one seam that swaps a space's representation (compress,
        spill, attach a cold plane, restamp lexical statistics): the
        attribute table and the sparse plane unless *sparse* replaces it
        carry over, under the same weights.
        With the store unchanged the dense caches carry over too — only
        lexical statistics moved.
        """
        vectors = self._vectors
        space = JointSpace(
            MultiVectorSet.from_store(
                vectors.store if store is None else store,
                attributes=vectors.attributes,
                sparse=vectors.sparse if sparse is None else sparse,
            ),
            self._weights,
        )
        if store is None:
            space._concat = self._concat
            space._concat_norm = self._concat_norm
        return space

    # ------------------------------------------------------------------
    # Object ↔ object kernels (index construction)
    # ------------------------------------------------------------------
    @property
    def concatenated(self) -> np.ndarray:
        """The ω-scaled concatenated matrix; one dot product = Lemma 1.

        Reads the cache slot once into a local so lock-free readers (the
        serving layer's snapshot waves) stay safe against a concurrent
        :meth:`drop_caches`: they either see the old matrix — same
        values, the vectors never change — or rebuild it, never ``None``.
        """
        cached = self._concat
        if cached is None:
            cached = self._vectors.concatenated(self._weights.omegas)
            self._concat = cached
        return cached

    @property
    def max_concat_norm(self) -> float:
        """Largest row 2-norm of :attr:`concatenated` — the corpus side
        of the float32 prefilter's error bound
        (:func:`~repro.index.scoring.prefilter_bounds`).  One scalar,
        taken on first use and dropped with the matrix."""
        cached = self._concat_norm
        if cached is None:
            cached = max_row_norm(self.concatenated)
            self._concat_norm = cached
        return cached

    def pair(self, i: int, j: int) -> float:
        """Joint similarity of objects *i* and *j*."""
        c = self.concatenated
        return float(c[i] @ c[j])

    def block(self, ids_a: np.ndarray, ids_b: np.ndarray) -> np.ndarray:
        """Joint-similarity matrix between two id lists, shape (|a|, |b|)."""
        c = self.concatenated
        return c[np.asarray(ids_a)] @ c[np.asarray(ids_b)].T

    def centroid_id(self) -> int:
        """Vertex nearest the dataset centroid (seed preprocessing, ④)."""
        c = self.concatenated
        centroid = c.mean(axis=0)
        return int(np.argmax(c @ centroid))

    # ------------------------------------------------------------------
    # Query → corpus kernels
    # ------------------------------------------------------------------
    def effective_squared_weights(
        self, query: MultiVector, weights: Weights | None = None
    ) -> np.ndarray:
        """``ω²`` per modality after masking modalities *query* lacks."""
        w = weights if weights is not None else self._weights
        return w.masked(query).squared

    def concat_query(
        self,
        query: MultiVector,
        weights: Weights | None = None,
        out: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Query vector against :attr:`concatenated`, or None if impossible.

        Rescales each present block by ``w2_i / ω_i`` so that a single dot
        product with the ω-scaled concatenated matrix equals the joint
        similarity under the *effective* weights — the searcher's fast
        path (one gather + one GEMV per hop).  Returns ``None`` when the
        query needs a modality the index weights zeroed out (``ω_i = 0``),
        in which case callers fall back to per-modality evaluation — and
        on compressed stores, where materialising (and caching) a float32
        concatenation would silently undo the compression; scoring then
        runs through the store's asymmetric per-modality kernels.

        *out*, a float32 vector of the concatenation's width, receives
        the query in place of a fresh array (the row scorer's kept query
        matrix); where ``None`` is returned its contents mean nothing.
        """
        if self.is_compressed:
            return None
        w2 = self.effective_squared_weights(query, weights)
        dims = self._dims
        if out is None:
            out = np.empty(self.concat_width, dtype=np.float32)
        lo = 0
        for q, dim, w2_i, omega in zip(query.vectors, dims, w2, self._omegas):
            if q is not None and w2_i != 0.0:
                if omega == 0.0:
                    return None
                if q.dtype != np.float32:
                    q = q.astype(np.float32)
                # The product in float64 (a float64 scalar), rounded once
                # to float32 as it is stored.
                out[lo : lo + dim] = q * (w2_i / omega)
            else:
                out[lo : lo + dim] = 0.0
            lo += dim
        return out

    def query_ids_exact(
        self,
        query: MultiVector,
        ids: np.ndarray | None = None,
        weights: Weights | None = None,
        stats: SearchStats | None = None,
    ) -> np.ndarray:
        """Full-precision joint similarities (the rerank kernel).

        Scores against the store's cold exact tier — the second stage of
        the ``refine=`` pipeline re-scores the compressed search's top
        survivors here.  On a dense store the cold tier is the hot one;
        on a compressed store built with ``keep_exact=False`` it falls
        back to reconstructions (rerank becomes a no-op).
        ``ids=None`` scores the whole corpus.
        """
        w2 = self.effective_squared_weights(query, weights)
        store = self.store
        count = self.n if ids is None else int(np.asarray(ids).shape[0])
        out = np.zeros(count, dtype=np.float64)
        active = 0
        for i, q in enumerate(query.vectors):
            if q is None or w2[i] == 0.0:
                continue
            rows = (
                store.exact_modality(i)
                if ids is None
                else store.exact_rows(i, np.asarray(ids))
            )
            out += w2[i] * (rows @ q.astype(np.float32)).astype(np.float64)
            active += 1
        if stats is not None:
            stats.joint_evals += count
            stats.modality_evals += count * active
            stats.reranked += count
        return out

    def query_ids_stable(
        self,
        query: MultiVector,
        ids: np.ndarray | None = None,
        weights: Weights | None = None,
        stats: SearchStats | None = None,
    ) -> np.ndarray:
        """Layout-independent exact joint similarities.

        BLAS GEMV kernels pick different accumulation orders for
        different matrix row counts, so a float32 scan over a 60-row
        corpus and over a 600-row corpus can disagree in the last bit for
        the *same* object.  This route multiplies elementwise and reduces
        each row independently in float64, so a row's similarity depends
        only on its own vectors, the query, and the per-modality
        dimensionality — never on which other rows share the matrix.
        Every exact plan takes its similarities from here
        (:meth:`~repro.index.flat.FlatIndex.batch_search` re-scores a
        shortlist), so they are bit-identical however the corpus is
        split into segments and whatever else shares the batch.
        ``ids=None`` scores the whole corpus — the test oracle.  On
        compressed stores rows are decoded (per call) before the float64
        reduction, which keeps the row-independence property over the
        reconstructed values.
        """
        w2 = self.effective_squared_weights(query, weights)
        store = self._vectors.store
        ids_arr = None if ids is None else np.asarray(ids)
        count = self.n if ids_arr is None else int(ids_arr.shape[0])
        out = np.zeros(count, dtype=np.float64)
        active = 0
        for i, q in enumerate(query.vectors):
            if q is None or w2[i] == 0.0:
                continue
            # Subset before converting: every backend's row decode is
            # elementwise, so the order changes no bit, and a 40-row
            # rerank converts (or decodes) 40 rows.
            rows = (
                store.modality(i) if ids_arr is None
                else store.rows(i, ids_arr)
            ).astype(np.float64)
            prod = rows * q.astype(np.float64)
            out += w2[i] * np.add.reduce(prod, axis=1)
            active += 1
        if stats is not None:
            stats.joint_evals += count
            stats.modality_evals += count * active
        return out

    def pairs_stable(
        self,
        queries: Sequence[MultiVector],
        owner: np.ndarray,
        ids: np.ndarray,
        weights: Sequence[Weights | None],
        stats: Sequence[SearchStats | None],
    ) -> np.ndarray:
        """:meth:`query_ids_stable` over ``(row, id)`` pairs of a batch.

        ``out[j]`` is ``queries[owner[j]]``'s similarity to row
        ``ids[j]`` under ``weights[owner[j]]``, with the bits
        :meth:`query_ids_stable` gives it: the same float64 products,
        each pair reduced on its own, added modality by modality in
        order.  A modality's rows are decoded once and reduced in one
        call for every pair whose query uses it.  ``stats[r]`` counts row
        ``r``'s pairs as :meth:`query_ids_stable` would.
        """
        w2 = np.array(
            [self.effective_squared_weights(q, w) for q, w in zip(queries, weights)]
        )
        store = self._vectors.store
        out = np.zeros(ids.shape[0], dtype=np.float64)
        active = np.zeros(len(queries), dtype=np.int64)
        for i, dim in enumerate(self._dims):
            present = np.array([q.vectors[i] is not None for q in queries])
            used = present & (w2[:, i] != 0.0)
            if not used.any():
                continue
            active += used
            stack = np.zeros((len(queries), dim), dtype=np.float64)
            for r in np.flatnonzero(used).tolist():
                stack[r] = queries[r].vectors[i]
            keep = used[owner]
            every = bool(keep.all())
            rows_of, ids_of = (owner, ids) if every else (owner[keep], ids[keep])
            prod = store.rows(i, ids_of).astype(np.float64)
            prod *= stack[rows_of]
            term = w2[rows_of, i] * np.add.reduce(prod, axis=1)
            if every:
                out += term
            else:
                out[keep] += term
        counts = np.bincount(owner, minlength=len(queries)).tolist()
        for row_stats, count, act in zip(stats, counts, active.tolist()):
            if row_stats is not None:
                row_stats.joint_evals += count
                row_stats.modality_evals += count * act
        return out
