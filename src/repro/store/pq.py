"""Product quantisation with per-modality codebooks and ADC kernels.

Each modality's vectors are split into ``M`` contiguous subvectors of
``pq_dims`` dimensions (the trailing subvector is zero-padded, which
leaves inner products unchanged); a k-means codebook of up to 256
centroids is trained per subspace at build time, and every row is stored
as ``M`` uint8 centroid ids — ``d/pq_dims`` bytes instead of ``4·d``.

Scoring is **asymmetric distance computation** (ADC): the kernel
precomputes one lookup table ``lut[m, c] = codebook[m][c] · q[m]`` per
query, after which scoring any row is ``Σ_m lut[m, codes[row, m]]`` —
pure table gathers, no decoding, exactly the inner product of the query
with the row's reconstruction.  A frontier row's sum runs in the native
row scorer (:mod:`repro.native`), which reads codes and tables in place
and adds sub-space by sub-space from a float32 zero.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro import native
from repro.store.base import (
    ModalityKernel,
    VectorStore,
    dot_error,
    register_store,
)
from repro.store.mmap import ColdPlane, as_cold_plane
from repro.utils.validation import require

__all__ = ["PQStore"]


def _kmeans(
    data: np.ndarray, ncent: int, rng: np.random.Generator, iters: int
) -> np.ndarray:
    """Plain Lloyd's k-means (random init, empty clusters resampled)."""
    n = data.shape[0]
    centroids = data[rng.choice(n, size=ncent, replace=False)].copy()
    for _ in range(iters):
        # Nearest centroid by ||x−c||² = ||x||² − 2·x·c + ||c||².
        dots = data @ centroids.T
        c2 = np.einsum("ij,ij->i", centroids, centroids)
        assign = np.argmax(2.0 * dots - c2[None, :], axis=1)
        for c in range(ncent):
            members = assign == c
            if members.any():
                centroids[c] = data[members].mean(axis=0)
            else:
                centroids[c] = data[rng.integers(0, n)]
    return centroids.astype(np.float32)


def _pad(mat: np.ndarray, m_sub: int, ds: int) -> np.ndarray:
    """Zero-pad columns so the matrix reshapes into (n, M, ds)."""
    n, d = mat.shape
    padded = m_sub * ds
    if padded == d:
        return mat
    out = np.zeros((n, padded), dtype=np.float32)
    out[:, :d] = mat
    return out


def _adc_tables(codebook: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``luts[b, m, c] = codebook[m, c] · q_sub[b, m]`` for a query stack."""
    q = np.ascontiguousarray(queries, dtype=np.float32)  # (b, d)
    m_sub, _, ds = codebook.shape
    q_pad = np.zeros((q.shape[0], m_sub * ds), dtype=np.float32)
    q_pad[:, : q.shape[1]] = q
    tables: np.ndarray = np.einsum(
        "mcd,bmd->bmc", codebook, q_pad.reshape(q.shape[0], m_sub, ds)
    ).astype(np.float32, copy=False)
    return tables


@register_store
class PQStore(VectorStore):
    """Product-quantised hot tier: uint8 codes + per-subspace codebooks."""

    kind = "pq"
    dtype = "uint8"

    def __init__(
        self,
        codes: Sequence[np.ndarray],
        codebooks: Sequence[np.ndarray],
        dims: Sequence[int],
        exact: Sequence[np.ndarray] | ColdPlane | None = None,
    ):
        self._codes = tuple(np.ascontiguousarray(c, dtype=np.uint8) for c in codes)
        self._books = tuple(
            np.ascontiguousarray(b, dtype=np.float32) for b in codebooks
        )
        self._dims = tuple(int(d) for d in dims)
        require(len(self._codes) == len(self._books) == len(self._dims),
                "one codebook per modality required")
        n = self._codes[0].shape[0]
        for i, (c, b, d) in enumerate(zip(self._codes, self._books, self._dims)):
            require(c.ndim == 2 and c.shape[0] == n,
                    f"modality {i} codes must be (n, M)")
            require(b.ndim == 3 and b.shape[0] == c.shape[1],
                    f"modality {i} codebook must be (M, ncent, ds)")
            require(b.shape[0] * b.shape[2] >= d,
                    f"modality {i} codebook covers fewer than d={d} dims")
            # Checked once here, so no scoring path indexes past a table.
            top = int(c.max()) if c.size else -1
            require(top < b.shape[1],
                    f"modality {i} codes name centroid {top} but its "
                    f"codebook holds {b.shape[1]}: the codes are corrupt")
        self._exact = as_cold_plane(exact, n=n, dims=self._dims)

    # -- shape ----------------------------------------------------------
    @property
    def n(self) -> int:
        return self._codes[0].shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    # -- decode / exact -------------------------------------------------
    def _decode(self, i: int, codes: np.ndarray) -> np.ndarray:
        book = self._books[i]
        m_sub, ncent, ds = book.shape
        # One (rows, M, ds) gather: block [r, m] = book[m, codes[r, m]],
        # taken from the book's (M·ncent, ds) rows, which ``take`` copies
        # several times faster than a two-array fancy index does.
        starts = np.arange(0, m_sub * ncent, ncent)
        out = book.reshape(m_sub * ncent, ds).take(codes + starts, axis=0)
        return out.reshape(codes.shape[0], m_sub * ds)[:, : self._dims[i]]

    def modality(self, i: int) -> np.ndarray:
        return self._decode(i, self._codes[i])

    def rows(self, i: int, ids: np.ndarray) -> np.ndarray:
        return self._decode(i, self._codes[i][np.asarray(ids)])

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
    def stacked_kernel(self, i: int, queries: np.ndarray) -> ModalityKernel:
        tables = _adc_tables(self._books[i], queries)
        return ModalityKernel(
            native.PQ_ROWS, self._codes[i], np.ascontiguousarray(tables)
        )

    def batch_scores(self, i: int, queries: np.ndarray) -> np.ndarray:
        luts = _adc_tables(self._books[i], queries)
        codes = self._codes[i]
        out = np.zeros((self.n, luts.shape[0]), dtype=np.float32)
        for m in range(luts.shape[1]):
            out += luts[:, m, :].T[codes[:, m]]  # (n, b) gather
        return out

    def batch_scores_bound(self, i: int, queries: np.ndarray) -> np.ndarray:
        # A score is a float32 sum of M table entries, each a float32
        # dot of ds terms: both errors scale with the tables' mass,
        # Σ_m max_c‖book[m, c]‖·‖q_m‖ (padded dims carry a zero query).
        book = self._books[i].astype(np.float64)
        m_sub, _, ds = book.shape
        reach = np.sqrt((book * book).sum(axis=2).max(axis=1))  # (M,)
        q = np.zeros((np.asarray(queries).shape[0], m_sub * ds))
        q[:, : self._dims[i]] = queries
        q_norms = np.linalg.norm(q.reshape(-1, m_sub, ds), axis=2)  # (b, M)
        return dot_error(m_sub + ds) * (q_norms @ reach)

    # -- lifecycle ------------------------------------------------------
    def subset(self, ids: np.ndarray) -> "PQStore":
        ids = np.asarray(ids)
        exact = None if self._exact is None else self._exact.subset(ids)
        return PQStore(
            [c[ids] for c in self._codes], self._books, self._dims, exact
        )

    def hot_bytes(self) -> int:
        return int(
            sum(c.nbytes for c in self._codes)
            + sum(b.nbytes for b in self._books)
        )

    def cold_bytes(self) -> int:
        return 0 if self._exact is None else self._exact.nbytes()

    def resident_bytes(self) -> int:
        cold = 0 if self._exact is None else self._exact.resident_bytes()
        return self.hot_bytes() + cold

    @property
    def cold_plane(self) -> ColdPlane | None:
        return self._exact

    def with_cold_plane(self, plane: ColdPlane | None) -> "PQStore":
        return PQStore(self._codes, self._books, self._dims, plane)

    # -- persistence ----------------------------------------------------
    def store_meta(self) -> dict[str, Any]:
        return {"kind": self.kind, "dtype": self.dtype,
                "num_modalities": self.num_modalities,
                "dims": list(self._dims),
                "keep_exact": self.has_exact}

    def to_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i in range(self.num_modalities):
            out[f"codes_{i}"] = self._codes[i]
            out[f"codebook_{i}"] = self._books[i]
            if self._exact is not None and self._exact.is_resident:
                out[f"exact_{i}"] = self._exact.modality(i)
        return out

    @classmethod
    def from_arrays(
        cls, meta: dict[str, Any], arrays: dict[str, np.ndarray]
    ) -> "PQStore":
        m = int(meta["num_modalities"])
        exact = None
        if meta.get("keep_exact") and "exact_0" in arrays:
            exact = [arrays[f"exact_{i}"] for i in range(m)]
        return cls(
            [arrays[f"codes_{i}"] for i in range(m)],
            [arrays[f"codebook_{i}"] for i in range(m)],
            [int(d) for d in meta["dims"]],
            exact,
        )

    @classmethod
    def from_matrices(
        cls,
        matrices: Sequence[np.ndarray],
        pq_dims: int = 4,
        pq_centroids: int = 256,
        pq_iters: int = 8,
        seed: int = 0,
        keep_exact: bool = True,
        **options: Any,
    ) -> "PQStore":
        require(not options,
                f"PQStore options: pq_dims, pq_centroids, pq_iters, seed, "
                f"keep_exact; got {sorted(options)}")
        require(1 <= pq_centroids <= 256, "pq_centroids must fit in uint8")
        require(pq_dims >= 1, "pq_dims must be positive")
        mats = [np.ascontiguousarray(m, dtype=np.float32) for m in matrices]
        rng = np.random.default_rng(seed)
        codes: list[np.ndarray] = []
        books: list[np.ndarray] = []
        for mat in mats:
            n, d = mat.shape
            m_sub = (d + pq_dims - 1) // pq_dims
            padded = _pad(mat, m_sub, pq_dims).reshape(n, m_sub, pq_dims)
            ncent = min(pq_centroids, n)
            book = np.empty((m_sub, ncent, pq_dims), dtype=np.float32)
            mat_codes = np.empty((n, m_sub), dtype=np.uint8)
            for m in range(m_sub):
                sub = np.ascontiguousarray(padded[:, m, :])
                cents = _kmeans(sub, ncent, rng, pq_iters)
                book[m] = cents
                dots = sub @ cents.T
                c2 = np.einsum("ij,ij->i", cents, cents)
                mat_codes[:, m] = np.argmax(
                    2.0 * dots - c2[None, :], axis=1
                ).astype(np.uint8)
            codes.append(mat_codes)
            books.append(book)
        return cls(codes, books, [m.shape[1] for m in mats],
                   mats if keep_exact else None)
