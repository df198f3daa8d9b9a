"""The uncompressed vector store.

:class:`DenseStore` is today's behaviour made explicit: the hot tier *is*
the float32 corpus, full scans are plain BLAS products, and frontier rows
are reduced one by one, so a row's score never depends on its company.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.store.base import (
    ModalityKernel,
    StackedKernel,
    VectorStore,
    dot_error,
    max_row_norm,
    register_store,
)
from repro.utils.validation import require

__all__ = ["DenseStore"]


class _MatKernel(ModalityKernel):
    """One query against one stored float32 matrix: full scans are a
    GEMV, frontier rows are reduced one by one (a GEMV's bits depend on
    how many rows share the call), so a row's score is the same alone,
    in any frontier, and in a wave's stacked kernel."""

    __slots__ = ("mat", "q")

    def __init__(self, mat: np.ndarray, q: np.ndarray) -> None:
        self.mat = mat
        self.q = np.ascontiguousarray(q, dtype=np.float32)

    def all(self) -> np.ndarray:
        return self.mat @ self.q

    def ids(self, ids: np.ndarray) -> np.ndarray:
        rows = self.mat[np.asarray(ids)]
        sims: np.ndarray = np.einsum("ij,j->i", rows, self.q)
        return sims


class _StackedMatKernel(StackedKernel):
    """The same rows against a query stack: row ``j`` is reduced
    against query ``owner[j]``."""

    __slots__ = ("mat", "queries")

    def __init__(self, mat: np.ndarray, queries: np.ndarray) -> None:
        self.mat = mat
        self.queries = np.ascontiguousarray(queries, dtype=np.float32)

    def _score(self, ids: np.ndarray, owner: np.ndarray) -> np.ndarray:
        rows = self.mat[ids]
        sims: np.ndarray = np.einsum("ij,ij->i", rows, self.queries[owner])
        return sims


def _check_matrices(matrices: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    mats = tuple(np.ascontiguousarray(m, dtype=np.float32) for m in matrices)
    require(len(mats) >= 1, "at least one modality matrix required")
    n = mats[0].shape[0]
    for i, m in enumerate(mats):
        require(m.ndim == 2, f"modality {i} must be 2-D")
        require(m.shape[0] == n, f"modality {i} has {m.shape[0]} rows, expected {n}")
    return mats


@register_store
class DenseStore(VectorStore):
    """Float32 hot tier — the exact, bit-identical reference backend."""

    kind = "none"
    dtype = "float32"

    def __init__(self, matrices: Sequence[np.ndarray]) -> None:
        self._mats = _check_matrices(matrices)
        self._norms: list[float | None] = [None] * len(self._mats)

    # -- shape ----------------------------------------------------------
    @property
    def n(self) -> int:
        return int(self._mats[0].shape[0])

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.shape[1] for m in self._mats)

    # -- decode / exact -------------------------------------------------
    def modality(self, i: int) -> np.ndarray:
        return self._mats[i]

    @property
    def has_exact(self) -> bool:
        return True

    # -- scoring --------------------------------------------------------
    def query_kernel(self, i: int, query: np.ndarray) -> ModalityKernel:
        return _MatKernel(self._mats[i], query)

    def stacked_kernel(self, i: int, queries: np.ndarray) -> StackedKernel:
        return _StackedMatKernel(self._mats[i], queries)

    def batch_scores(self, i: int, queries: np.ndarray) -> np.ndarray:
        q = np.ascontiguousarray(queries, dtype=np.float32)
        scores: np.ndarray = self._mats[i] @ q.T
        return scores

    def batch_scores_bound(self, i: int, queries: np.ndarray) -> np.ndarray:
        """Bound of ``batch_scores`` against the same rows' float64
        products: one float32 dot of ``d`` terms per entry, so
        ``γ_d·max‖row‖·‖q‖``.  The row norm is taken once per modality
        (the store never changes)."""
        norm = self._norms[i]
        if norm is None:
            norm = self._norms[i] = max_row_norm(self._mats[i])
        q_norms = np.linalg.norm(np.asarray(queries, dtype=np.float64), axis=1)
        bound: np.ndarray = dot_error(self._mats[i].shape[1]) * norm * q_norms
        return bound

    # -- lifecycle ------------------------------------------------------
    def subset(self, ids: np.ndarray) -> "DenseStore":
        ids = np.asarray(ids)
        return DenseStore([m[ids] for m in self._mats])

    def hot_bytes(self) -> int:
        return int(sum(m.nbytes for m in self._mats))

    # -- persistence ----------------------------------------------------
    def store_meta(self) -> dict[str, Any]:
        return {"kind": self.kind, "dtype": self.dtype,
                "num_modalities": self.num_modalities}

    def to_arrays(self) -> dict[str, np.ndarray]:
        # Keys match the v1 segment layout, so dense archives stay
        # readable by (and from) the pre-store format.
        return {f"mod_{i}": m for i, m in enumerate(self._mats)}

    @classmethod
    def from_arrays(
        cls, meta: dict[str, Any], arrays: dict[str, np.ndarray]
    ) -> "DenseStore":
        m = int(meta["num_modalities"])
        return cls([arrays[f"mod_{i}"] for i in range(m)])

    @classmethod
    def from_matrices(
        cls, matrices: Sequence[np.ndarray], **options: Any
    ) -> "DenseStore":
        require(not options, f"DenseStore takes no options, got {sorted(options)}")
        return cls(matrices)
