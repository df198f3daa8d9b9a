"""Uncompressed and half-precision vector stores.

:class:`DenseStore` is today's behaviour made explicit: the hot tier *is*
the float32 corpus, kernels are plain BLAS products, and every result is
bit-identical to the historical in-matrix layout.

:class:`HalfStore` halves resident bytes by keeping the hot tier in
float16; kernels up-cast to float32 inside the product (float16 storage,
float32 accumulate), so scores equal the decoded reconstruction's exact
inner products.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.store.base import (
    ModalityKernel,
    StackedKernel,
    VectorStore,
    dot_error,
    max_row_norm,
    register_store,
)
from repro.store.mmap import ColdPlane, as_cold_plane
from repro.utils.validation import require

__all__ = ["DenseStore", "HalfStore"]


class _MatKernel(ModalityKernel):
    """Gather + GEMV over one stored matrix (float32 or float16)."""

    __slots__ = ("mat", "q")

    def __init__(self, mat: np.ndarray, q: np.ndarray):
        self.mat = mat
        self.q = np.ascontiguousarray(q, dtype=np.float32)

    def all(self) -> np.ndarray:
        return self.mat @ self.q

    def ids(self, ids: np.ndarray) -> np.ndarray:
        return self.mat[np.asarray(ids)] @ self.q


class _HalfKernel(_MatKernel):
    """Float16 rows: full scans stay a GEMV, frontier rows are reduced
    one by one (a GEMV's bits depend on how many rows share the call),
    so a row's score is the same alone, in any frontier, and in a
    wave's stacked kernel."""

    __slots__ = ()

    def ids(self, ids: np.ndarray) -> np.ndarray:
        rows = self.mat[np.asarray(ids)].astype(np.float32)
        return np.einsum("ij,j->i", rows, self.q)


class _StackedHalfKernel(StackedKernel):
    """Float16 rows against a query stack: row ``j`` is reduced against
    query ``owner[j]``."""

    __slots__ = ("mat", "queries")

    def __init__(self, mat: np.ndarray, queries: np.ndarray):
        self.mat = mat
        self.queries = np.ascontiguousarray(queries, dtype=np.float32)

    def _score(self, ids: np.ndarray, owner: np.ndarray) -> np.ndarray:
        rows = self.mat[ids].astype(np.float32)
        return np.einsum("ij,ij->i", rows, self.queries[owner])


def _gemm_bound(
    norms: list[float | None], mats: Sequence[np.ndarray], i: int,
    queries: np.ndarray,
) -> np.ndarray:
    """Bound of ``mats[i] @ queries.T`` against the same rows' float64
    products: one float32 dot of ``d`` terms per entry, so
    ``γ_d·max‖row‖·‖q‖``.  The row norm is taken once per modality
    into *norms* (the store never changes)."""
    if norms[i] is None:
        norms[i] = max_row_norm(mats[i])
    q_norms = np.linalg.norm(np.asarray(queries, dtype=np.float64), axis=1)
    return dot_error(mats[i].shape[1]) * norms[i] * q_norms


def _check_matrices(matrices: Sequence[np.ndarray], dtype) -> tuple[np.ndarray, ...]:
    mats = tuple(np.ascontiguousarray(m, dtype=dtype) for m in matrices)
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

    def __init__(self, matrices: Sequence[np.ndarray]):
        self._mats = _check_matrices(matrices, np.float32)
        self._norms: list[float | None] = [None] * len(self._mats)

    # -- shape ----------------------------------------------------------
    @property
    def n(self) -> int:
        return self._mats[0].shape[0]

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

    def batch_scores(self, i: int, queries: np.ndarray) -> np.ndarray:
        q = np.ascontiguousarray(queries, dtype=np.float32)
        return self._mats[i] @ q.T

    def batch_scores_bound(self, i: int, queries: np.ndarray) -> np.ndarray:
        return _gemm_bound(self._norms, self._mats, i, queries)

    # -- lifecycle ------------------------------------------------------
    def subset(self, ids: np.ndarray) -> "DenseStore":
        ids = np.asarray(ids)
        return DenseStore([m[ids] for m in self._mats])

    def hot_bytes(self) -> int:
        return int(sum(m.nbytes for m in self._mats))

    # -- persistence ----------------------------------------------------
    def store_meta(self) -> dict:
        return {"kind": self.kind, "dtype": self.dtype,
                "num_modalities": self.num_modalities}

    def to_arrays(self) -> dict[str, np.ndarray]:
        # Keys match the v1 segment layout, so dense archives stay
        # readable by (and from) the pre-store format.
        return {f"mod_{i}": m for i, m in enumerate(self._mats)}

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "DenseStore":
        m = int(meta["num_modalities"])
        return cls([arrays[f"mod_{i}"] for i in range(m)])

    @classmethod
    def from_matrices(cls, matrices: Sequence[np.ndarray], **options) -> "DenseStore":
        require(not options, f"DenseStore takes no options, got {sorted(options)}")
        return cls(matrices)


@register_store
class HalfStore(VectorStore):
    """Float16 hot tier, float32 accumulate — 2× fewer resident bytes.

    ``keep_exact`` (default True) retains the original float32 matrices
    as the cold tier for ``refine=`` rerank and lossless compaction.
    """

    kind = "float16"
    dtype = "float16"

    def __init__(
        self,
        half: Sequence[np.ndarray],
        exact: Sequence[np.ndarray] | ColdPlane | None = None,
    ):
        self._half = _check_matrices(half, np.float16)
        self._exact = as_cold_plane(
            exact,
            n=self._half[0].shape[0],
            dims=tuple(m.shape[1] for m in self._half),
        )
        self._norms: list[float | None] = [None] * len(self._half)

    # -- shape ----------------------------------------------------------
    @property
    def n(self) -> int:
        return self._half[0].shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.shape[1] for m in self._half)

    # -- decode / exact -------------------------------------------------
    def modality(self, i: int) -> np.ndarray:
        return self._half[i].astype(np.float32)

    def rows(self, i: int, ids: np.ndarray) -> np.ndarray:
        return self._half[i][np.asarray(ids)].astype(np.float32)

    @property
    def has_exact(self) -> bool:
        return self._exact is not None

    def exact_modality(self, i: int) -> np.ndarray:
        if self._exact is not None:
            return self._exact.modality(i)
        return self.modality(i)

    def exact_rows(self, i: int, ids: np.ndarray) -> np.ndarray:
        if self._exact is not None:
            return self._exact.rows(i, np.asarray(ids))
        return self.rows(i, np.asarray(ids))

    # -- scoring --------------------------------------------------------
    def query_kernel(self, i: int, query: np.ndarray) -> ModalityKernel:
        # float16 @ float32 promotes to a float32 product (the up-cast
        # happens inside NumPy; storage stays half precision).
        return _HalfKernel(self._half[i], query)

    def stacked_kernel(self, i: int, queries: np.ndarray) -> StackedKernel:
        return _StackedHalfKernel(self._half[i], queries)

    def batch_scores(self, i: int, queries: np.ndarray) -> np.ndarray:
        q = np.ascontiguousarray(queries, dtype=np.float32)
        return self._half[i] @ q.T

    def batch_scores_bound(self, i: int, queries: np.ndarray) -> np.ndarray:
        # The product up-casts the float16 rows exactly, then runs in
        # float32: the dense bound over the half-precision rows.
        return _gemm_bound(self._norms, self._half, i, queries)

    # -- lifecycle ------------------------------------------------------
    def subset(self, ids: np.ndarray) -> "HalfStore":
        ids = np.asarray(ids)
        exact = None if self._exact is None else self._exact.subset(ids)
        return HalfStore([m[ids] for m in self._half], exact)

    def hot_bytes(self) -> int:
        return int(sum(m.nbytes for m in self._half))

    def cold_bytes(self) -> int:
        return 0 if self._exact is None else self._exact.nbytes()

    def resident_bytes(self) -> int:
        cold = 0 if self._exact is None else self._exact.resident_bytes()
        return self.hot_bytes() + cold

    @property
    def cold_plane(self) -> ColdPlane | None:
        return self._exact

    def with_cold_plane(self, plane: ColdPlane | None) -> "HalfStore":
        return HalfStore(self._half, plane)

    # -- persistence ----------------------------------------------------
    def store_meta(self) -> dict:
        return {"kind": self.kind, "dtype": self.dtype,
                "num_modalities": self.num_modalities,
                "keep_exact": self.has_exact}

    def to_arrays(self) -> dict[str, np.ndarray]:
        out = {f"half_{i}": m for i, m in enumerate(self._half)}
        if self._exact is not None and self._exact.is_resident:
            out.update(
                {
                    f"exact_{i}": self._exact.modality(i)
                    for i in range(self.num_modalities)
                }
            )
        return out

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "HalfStore":
        m = int(meta["num_modalities"])
        half = [arrays[f"half_{i}"] for i in range(m)]
        exact = None
        if meta.get("keep_exact") and f"exact_0" in arrays:
            exact = [arrays[f"exact_{i}"] for i in range(m)]
        return cls(half, exact)

    @classmethod
    def from_matrices(
        cls, matrices: Sequence[np.ndarray], keep_exact: bool = True, **options
    ) -> "HalfStore":
        require(not options, f"HalfStore options: keep_exact; got {sorted(options)}")
        mats = _check_matrices(matrices, np.float32)
        return cls([m.astype(np.float16) for m in mats],
                   mats if keep_exact else None)
