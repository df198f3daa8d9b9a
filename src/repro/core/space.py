"""Joint similarity space over multi-vector objects (Lemmas 1 and 4).

:class:`JointSpace` binds a :class:`~repro.core.multivector.MultiVectorSet`
to a :class:`~repro.core.weights.Weights` instance and exposes every
similarity kernel the indexes and searchers need:

* object↔object joint similarity (used during graph construction),
* query→corpus joint similarity, dense or restricted to an id subset,
* the **incremental multi-vector computation** of §VII-B: per-modality
  distances are accumulated and an object is discarded as soon as its
  partial-IP upper bound drops to the pruning threshold (Lemma 4 guarantees
  this is lossless).

All vectors are assumed L2-normalised, which gives the identity the paper
uses in Eq. 8 (generalised to arbitrary weight totals ``S = Σ ω²``)::

    IP(q̂, û) = S − ½ · Σ_i ω_i² · ‖q_i − u_i‖²

Scanning modalities in descending-weight order maximises early pruning and
— by Lemma 4 — never changes any returned result.
"""

from __future__ import annotations

import numpy as np

from repro.core.multivector import MultiVector, MultiVectorSet
from repro.core.registry import dense_score_rows
from repro.core.results import SearchStats
from repro.core.weights import Weights
from repro.store import ModalityKernel, VectorStore, max_row_norm
from repro.utils.validation import require

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

    def rows_vs_one(self, ids: np.ndarray, j: int) -> np.ndarray:
        """Joint similarity of each object in *ids* against object *j*."""
        c = self.concatenated
        return c[np.asarray(ids)] @ c[j]

    def centroid_id(self) -> int:
        """Vertex nearest the dataset centroid (seed preprocessing, ④)."""
        c = self.concatenated
        centroid = c.mean(axis=0)
        return int(np.argmax(c @ centroid))

    # ------------------------------------------------------------------
    # Query → corpus kernels
    # ------------------------------------------------------------------
    def _effective_weights(
        self, query: MultiVector, weights: Weights | None
    ) -> np.ndarray:
        w = weights if weights is not None else self._weights
        return w.masked(query).squared

    def effective_squared_weights(
        self, query: MultiVector, weights: Weights | None = None
    ) -> np.ndarray:
        """``ω²`` per modality after masking modalities *query* lacks."""
        return self._effective_weights(query, weights)

    def concat_query(
        self, query: MultiVector, weights: Weights | None = None
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
        """
        if self.is_compressed or not self._vectors.is_ip_only:
            # Non-IP metrics have no concatenation identity (Lemma 1 is
            # an inner-product fact); they score through the registry's
            # row-wise fallback kernels instead.
            return None
        w2 = self._effective_weights(query, weights)
        omegas = self._weights.omegas
        blocks: list[np.ndarray] = []
        for i, q in enumerate(query.vectors):
            dim = self._vectors.dims[i]
            if q is None or w2[i] == 0.0:
                blocks.append(np.zeros(dim, dtype=np.float32))
            elif omegas[i] == 0.0:
                return None
            else:
                blocks.append((w2[i] / omegas[i]) * q.astype(np.float32))
        return np.concatenate(blocks).astype(np.float32)

    def query_kernels(
        self, query: MultiVector, weights: Weights | None = None
    ) -> list[tuple[int, float, ModalityKernel]]:
        """Per-modality asymmetric kernels for the active modalities.

        One ``(modality, w2_i, kernel)`` triple per modality the query
        carries with a positive effective weight.  Kernel construction
        pays any per-query preprocessing (PQ ADC lookup tables,
        scalar-quant rescale) once; a
        :class:`~repro.index.scoring.Scorer` holds them for its whole
        search.
        """
        require(
            self._vectors.is_ip_only,
            f"graph traversal and compressed scoring require metric 'ip' "
            f"on every dense modality (declared: "
            f"{self._vectors.metrics}) — use exact search for "
            f"cosine/l2 modalities",
        )
        w2 = self._effective_weights(query, weights)
        store = self.store
        return [
            (i, float(w2[i]), store.query_kernel(i, q.astype(np.float32)))
            for i, q in enumerate(query.vectors)
            if q is not None and w2[i] > 0.0
        ]

    def query_all(
        self, query: MultiVector, weights: Weights | None = None
    ) -> np.ndarray:
        """Joint similarity of *query* against every object (brute force).

        Scores through the store's asymmetric kernels: exact BLAS on the
        dense backend (bit-identical to the historical matrix path),
        uncompressed-query-vs-codes elsewhere.
        """
        out = np.zeros(self.n, dtype=np.float64)
        if not self._vectors.is_ip_only:
            w2 = self._effective_weights(query, weights)
            metrics = self._vectors.metrics
            store = self.store
            for i, q in enumerate(query.vectors):
                if q is None or w2[i] == 0.0:
                    continue
                if metrics[i] == "ip":
                    kernel = store.query_kernel(i, q.astype(np.float32))
                    out += w2[i] * kernel.all().astype(np.float64)
                else:
                    out += w2[i] * dense_score_rows(
                        metrics[i], q, store.modality(i)
                    )
            return out
        for _, w2_i, kernel in self.query_kernels(query, weights):
            out += w2_i * kernel.all().astype(np.float64)
        return out

    def query_ids(
        self,
        query: MultiVector,
        ids: np.ndarray,
        weights: Weights | None = None,
        stats: SearchStats | None = None,
    ) -> np.ndarray:
        """Joint similarity against the objects in *ids* (no pruning)."""
        ids = np.asarray(ids)
        out = np.zeros(ids.shape[0], dtype=np.float64)
        if not self._vectors.is_ip_only:
            w2 = self._effective_weights(query, weights)
            metrics = self._vectors.metrics
            store = self.store
            active = 0
            for i, q in enumerate(query.vectors):
                if q is None or w2[i] == 0.0:
                    continue
                active += 1
                if metrics[i] == "ip":
                    kernel = store.query_kernel(i, q.astype(np.float32))
                    out += w2[i] * kernel.ids(ids).astype(np.float64)
                else:
                    out += w2[i] * dense_score_rows(
                        metrics[i], q, store.rows(i, ids)
                    )
            if stats is not None:
                stats.joint_evals += int(ids.shape[0])
                stats.modality_evals += int(ids.shape[0]) * active
            return out
        kernels = self.query_kernels(query, weights)
        for _, w2_i, kernel in kernels:
            out += w2_i * kernel.ids(ids).astype(np.float64)
        if stats is not None:
            stats.joint_evals += int(ids.shape[0])
            stats.modality_evals += int(ids.shape[0]) * len(kernels)
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
        survivors here.  On a dense store this equals :meth:`query_ids`;
        on a compressed store built with ``keep_exact=False`` it falls
        back to reconstructions (rerank becomes a no-op).
        ``ids=None`` scores the whole corpus.
        """
        w2 = self._effective_weights(query, weights)
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
            metric = self._vectors.metrics[i]
            if metric == "ip":
                out += w2[i] * (
                    rows @ q.astype(np.float32)
                ).astype(np.float64)
            else:
                out += w2[i] * dense_score_rows(metric, q, rows)
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
        different matrix row counts, so :meth:`query_all` over a 60-row
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
        w2 = self._effective_weights(query, weights)
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
            metric = self._vectors.metrics[i]
            if metric == "ip":
                prod = rows * q.astype(np.float64)
                out += w2[i] * np.add.reduce(prod, axis=1)
            else:
                # The registry fallback reduces each row independently
                # in float64, preserving this route's layout-independence.
                out += w2[i] * dense_score_rows(metric, q, rows)
            active += 1
        if stats is not None:
            stats.joint_evals += count
            stats.modality_evals += count * active
        return out

    def query_ids_early_stop(
        self,
        query: MultiVector,
        ids: np.ndarray,
        threshold: float,
        weights: Weights | None = None,
        stats: SearchStats | None = None,
        kernels: dict[int, ModalityKernel] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lemma-4 pruned similarity evaluation.

        Returns ``(sims, exact)`` where ``exact[j]`` is True when
        ``sims[j]`` is the exact joint similarity of ``ids[j]``; when False
        the object was pruned because its upper bound fell to ``threshold``
        or below (so its exact similarity is also ≤ the threshold, and
        ``sims[j]`` holds the bound at pruning time).

        ``kernels`` optionally supplies prebuilt per-modality scoring
        kernels (keyed by modality) so a caller evaluating many frontier
        waves for one query — the graph searcher — pays per-query kernel
        preprocessing (PQ ADC tables) once instead of per wave.
        """
        require(
            self._vectors.is_ip_only,
            "Lemma-4 early termination is an inner-product bound — it "
            "requires metric 'ip' on every dense modality",
        )
        ids = np.asarray(ids)
        w2 = self._effective_weights(query, weights)
        store = self.store
        active = [
            i
            for i, q in enumerate(query.vectors)
            if q is not None and w2[i] > 0.0
        ]
        # Descending-weight scan order: heavier modalities shrink the upper
        # bound fastest, maximising pruning without affecting correctness.
        active.sort(key=lambda i: -w2[i])

        total = float(sum(w2[i] for i in active))
        bound = np.full(ids.shape[0], total, dtype=np.float64)
        alive = np.arange(ids.shape[0])
        if stats is not None:
            stats.joint_evals += int(ids.shape[0])
        for step, i in enumerate(active):
            kernel = kernels.get(i) if kernels is not None else None
            if kernel is None:
                kernel = store.query_kernel(
                    i, query.vectors[i].astype(np.float32)
                )
            # ‖q−u‖² = 2 − 2·(q·u) for unit vectors.  On compressed rows
            # the identity Σ wᵢ²·(1 − ½d²ᵢ) = Σ wᵢ²·IPᵢ still holds
            # exactly; only the *bound* direction inherits the (tiny)
            # reconstruction error, so pruning is lossless w.r.t. the
            # store's own scores up to that error.
            d2 = 2.0 - 2.0 * kernel.ids(ids[alive]).astype(np.float64)
            bound[alive] -= 0.5 * w2[i] * d2
            if stats is not None:
                stats.modality_evals += int(alive.shape[0])
            if step < len(active) - 1:
                survivors = bound[alive] > threshold
                if stats is not None:
                    stats.pruned_early += int(
                        alive.shape[0] - int(survivors.sum())
                    )
                alive = alive[survivors]
                if alive.size == 0:
                    break
        exact = bound > threshold
        # Objects that survived the full scan hold exact similarities even
        # if they ended at/below the threshold: mark them exact so callers
        # can still use the value (Lemma 4, second clause).
        if alive.size:
            exact[alive] = True
        return bound, exact
