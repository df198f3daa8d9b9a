"""Pluggable compressed vector-store layer — the backing seam of
:class:`~repro.core.multivector.MultiVectorSet`.

At production scale the corpus no longer fits hot in RAM as float32 and
memory bandwidth — not FLOPs — bounds QPS.  A :class:`VectorStore` owns
the **hot** per-modality representation every scan and frontier wave
reads (float32, float16, int8 scalar-quantised codes, or PQ codes) and
exposes **asymmetric distance kernels**: the query stays full-precision
float32 while the corpus side is decoded implicitly inside the kernel
(affine rescale for scalar quantisation, ADC lookup tables for PQ).

Two-tier layout (the DiskANN serving model): compressed codes are the
*hot* tier that every traversal touches; the original float32 vectors
are an optional *cold* tier — conceptually disk/secondary storage —
consulted only by the two-stage rerank pipeline (``search(...,
refine=r)``) for the handful of survivors per query, and by compaction
so rebuilt segments never accumulate quantisation error.
:meth:`VectorStore.hot_bytes` is therefore the resident-memory figure
benchmarks report.

Backends register themselves in :data:`STORE_KINDS`; the segment
manifest persists ``kind`` + ``dtype`` per segment and
:func:`store_from_arrays` refuses unknown ones with an actionable error
instead of failing deep inside ``.npz`` parsing.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.utils.validation import require

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.store.mmap import ColdPlane

__all__ = [
    "ModalityKernel",
    "StackedKernel",
    "VectorStore",
    "STORE_KINDS",
    "dot_error",
    "max_row_norm",
    "register_store",
    "make_store",
    "store_from_arrays",
]


def dot_error(length: int) -> float:
    """``γ`` with ``|fl32(x·y) − x·y| ≤ γ·‖x‖₂·‖y‖₂`` for a float32 dot
    product of *length* terms.

    The standard bound ``γ_n = n·u / (1 − n·u)`` (``u = 2⁻²⁴``) holds
    for any summation order, so it covers whatever blocking the BLAS
    picks, and ``Σ|x_d·y_d| ≤ ‖x‖·‖y‖`` turns it into norms.  The eight
    extra terms pay for what surrounds the product in the hot kernels:
    the roundings that made the operands (an ω-scale, an int8 step, a
    decode), the final add of an offset, and the float64 reference's
    own ``2⁻⁵³`` noise.
    """
    g = (length + 8) * 2.0**-24
    return g / (1.0 - g)


def max_row_norm(mat: np.ndarray) -> float:
    """Largest row 2-norm of *mat*, accumulated in float64 (the einsum
    casts buffer by buffer — no float64 copy of the matrix)."""
    if mat.shape[0] == 0:
        return 0.0
    return float(
        np.sqrt(np.einsum("ij,ij->i", mat, mat, dtype=np.float64).max())
    )


class ModalityKernel(abc.ABC):
    """Asymmetric scoring kernel: one float32 query vs one hot modality.

    Built once per (query, modality) — :class:`~repro.index.scoring.Scorer`
    holds its kernels for the whole search, so per-query preprocessing
    (the PQ ADC lookup table, the scalar-quant affine rescale) is paid
    once, not per frontier wave.
    """

    @abc.abstractmethod
    def all(self) -> np.ndarray:
        """Inner products of the query against every row, shape ``(n,)``."""

    @abc.abstractmethod
    def ids(self, ids: np.ndarray) -> np.ndarray:
        """Inner products against the rows in *ids* only."""


class StackedKernel(ModalityKernel):
    """Frontier kernel for a *stack* of float32 queries vs one hot modality.

    Built once per (batch, modality) by :meth:`VectorStore.stacked_kernel`
    for the lockstep wave engine: ``ids(ids, owner)`` scores row
    ``ids[j]`` against query ``owner[j]``, so one call covers every
    query's frontier instead of one call per query.  Every value is
    bit-identical to what that query's own
    :meth:`VectorStore.query_kernel` kernel returns for the row — each
    row is reduced on its own, in the per-query kernel's float32 order —
    so stacking never changes an answer.
    """

    def ids(self, ids: np.ndarray, owner: np.ndarray | None = None) -> np.ndarray:
        """Inner product of row ``ids[j]`` with query ``owner[j]``
        (``owner=None``: every row against query 0)."""
        ids = np.asarray(ids)
        if owner is None:
            owner = np.zeros(ids.shape[0], dtype=np.int64)
        return self._score(ids, owner)

    @abc.abstractmethod
    def _score(self, ids: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """The backend's row-wise kernel behind :meth:`ids`."""

    def all(self) -> np.ndarray:
        raise TypeError(
            "a stacked kernel scores frontiers only — full scans of a "
            "query stack go through VectorStore.batch_scores"
        )


class VectorStore(abc.ABC):
    """Per-modality column store behind a :class:`MultiVectorSet`.

    Subclasses own the hot representation; the interface keeps every
    consumer (scorers, graph search, segment persistence, compaction)
    representation-agnostic.
    """

    #: registry key, also persisted in segment manifests.
    kind: str = "abstract"
    #: storage dtype of the hot tier, persisted for format validation.
    dtype: str = "abstract"

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def n(self) -> int:
        """Number of objects."""

    @property
    @abc.abstractmethod
    def dims(self) -> tuple[int, ...]:
        """Per-modality vector dimensionality."""

    @property
    def num_modalities(self) -> int:
        return len(self.dims)

    # ------------------------------------------------------------------
    # Decoding (reconstruction) — cold paths
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def modality(self, i: int) -> np.ndarray:
        """Decoded float32 ``(n, d_i)`` matrix of modality *i*.

        Exact for :class:`DenseStore`; a reconstruction elsewhere.  This
        materialises the full matrix — scan/frontier paths must use
        :meth:`query_kernel` instead.
        """

    def rows(self, i: int, ids: np.ndarray) -> np.ndarray:
        """Decoded float32 rows *ids* of modality *i*."""
        return self.modality(i)[np.asarray(ids)]

    # ------------------------------------------------------------------
    # Exact (cold) tier — rerank + compaction
    # ------------------------------------------------------------------
    @property
    def has_exact(self) -> bool:
        """True when a full-precision cold tier is attached."""
        return False

    def exact_modality(self, i: int) -> np.ndarray:
        """Full-precision matrix of modality *i* (cold tier).

        Falls back to the decoded reconstruction when the store was
        built with ``keep_exact=False`` — rerank then degrades to a
        no-op and compaction rebuilds from reconstructions.
        """
        return self.modality(i)

    def exact_rows(self, i: int, ids: np.ndarray) -> np.ndarray:
        """Full-precision rows for the two-stage rerank pipeline."""
        return self.exact_modality(i)[np.asarray(ids)]

    # ------------------------------------------------------------------
    # Asymmetric scoring
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def query_kernel(self, i: int, query: np.ndarray) -> ModalityKernel:
        """Kernel scoring float32 *query* against hot modality *i*."""

    def stacked_kernel(self, i: int, queries: np.ndarray) -> StackedKernel:
        """Frontier kernel scoring a ``(b, d_i)`` float32 query stack
        against hot modality *i* (compressed backends only)."""
        raise ValueError(
            f"store kind {self.kind!r} has no stacked frontier kernel — "
            f"dense corpora score whole waves through the ω-scaled "
            f"concatenation instead"
        )

    def batch_scores(self, i: int, queries: np.ndarray) -> np.ndarray:
        """Inner products of a ``(b, d_i)`` query stack, shape ``(n, b)``.

        Default loops per-query kernels; dense-ish backends override
        with one GEMM per modality (the executor's exact batch wave).
        """
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        out = np.empty((self.n, queries.shape[0]), dtype=np.float32)
        for col in range(queries.shape[0]):
            out[:, col] = self.query_kernel(i, queries[col]).all()
        return out

    def batch_scores_bound(self, i: int, queries: np.ndarray) -> np.ndarray:
        """Per query ``j``, an ``ε_j`` with ``|batch_scores(i, queries)[r,
        j] − decoded_row_r · q_j| ≤ ε_j`` on every row ``r``, shape
        ``(b,)`` — what lets an exact scan trust the float32 wave as a
        prefilter (:meth:`~repro.index.flat.FlatIndex.batch_search`).

        A backend answers from its own arithmetic; this default proves
        nothing and says so with ``inf``, which makes the caller score
        every row through the float64 kernel instead of guessing.
        """
        return np.full(np.asarray(queries).shape[0], np.inf)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def subset(self, ids: np.ndarray) -> "VectorStore":
        """New store over the rows in *ids* (codebooks/scales shared)."""

    @abc.abstractmethod
    def hot_bytes(self) -> int:
        """Resident bytes of the hot tier (codes + codebooks/scales)."""

    def cold_bytes(self) -> int:
        """Logical bytes of the cold exact tier (0 when not kept).

        Counts the tier wherever it lives — RAM or a memory-mapped
        sidecar file; :meth:`resident_bytes` is the RAM-only figure.
        """
        return 0

    def resident_bytes(self) -> int:
        """RAM-resident bytes: hot tier plus any in-RAM cold tier.

        Equals ``hot_bytes() + cold_bytes()`` for all-resident stores;
        stores whose cold plane is memory-mapped subtract the mapped
        portion (the OS page cache is reclaimable, not pinned).
        """
        return self.hot_bytes() + self.cold_bytes()

    # ------------------------------------------------------------------
    # Cold-plane seam (mmap-backed cold tier)
    # ------------------------------------------------------------------
    @property
    def cold_plane(self) -> "ColdPlane | None":
        """The attached :class:`~repro.store.mmap.ColdPlane`, or None."""
        return None

    def with_cold_plane(self, plane: "ColdPlane | None") -> "VectorStore":
        """Same hot tier, different cold plane (shares codes/codebooks)."""
        raise ValueError(
            f"store kind {self.kind!r} has no detachable cold tier — only "
            f"compressed backends (float16/int8/pq) separate hot codes "
            f"from the exact float32 plane"
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def store_meta(self) -> dict[str, Any]:
        """JSON-safe descriptor: at least ``kind`` and ``dtype``."""

    @abc.abstractmethod
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Array payload for a ``.npz`` segment archive.

        Mapped cold planes are *not* serialised here — their bytes
        already live in sidecar files the manifest records; only
        resident cold tiers emit ``exact_{i}`` entries.
        """

    def hot_arrays(self) -> dict[str, np.ndarray]:
        """The hot-tier subset of :meth:`to_arrays` (no ``exact_{i}``).

        What a v3 (mmap) segment archive stores, and what a sharded
        spawn ships through shared memory.
        """
        return {
            k: v for k, v in self.to_arrays().items()
            if not k.startswith("exact_")
        }

    @classmethod
    @abc.abstractmethod
    def from_arrays(
        cls, meta: dict[str, Any], arrays: dict[str, np.ndarray]
    ) -> "VectorStore":
        """Inverse of :meth:`to_arrays` + :meth:`store_meta`."""

    @classmethod
    @abc.abstractmethod
    def from_matrices(
        cls, matrices: Sequence[np.ndarray], **options: Any
    ) -> "VectorStore":
        """Encode full-precision per-modality matrices (trains codebooks
        where the backend has any)."""


#: kind → store class; populated by :func:`register_store` at import time.
STORE_KINDS: dict[str, type[VectorStore]] = {}


def register_store(cls: type[VectorStore]) -> type[VectorStore]:
    """Class decorator adding a backend to :data:`STORE_KINDS`."""
    STORE_KINDS[cls.kind] = cls
    return cls


def make_store(
    kind: str, matrices: Sequence[np.ndarray], **options: Any
) -> VectorStore:
    """Encode *matrices* with the backend registered under *kind*."""
    require(
        kind in STORE_KINDS,
        f"unknown vector-store kind {kind!r}; supported: "
        f"{sorted(STORE_KINDS)}",
    )
    return STORE_KINDS[kind].from_matrices(matrices, **options)


def store_from_arrays(
    meta: dict[str, Any], arrays: dict[str, np.ndarray]
) -> VectorStore:
    """Rebuild a persisted store, validating kind and dtype first.

    Raises a clear, actionable error for stores written by a newer (or
    corrupted) format instead of failing deep inside array parsing.
    """
    kind = meta.get("kind")
    if kind not in STORE_KINDS:
        raise ValueError(
            f"segment declares vector-store kind {kind!r} but this build "
            f"only supports {sorted(STORE_KINDS)} — the index was written "
            f"by a newer version; upgrade the library or re-save the index "
            f"with a supported compression setting"
        )
    cls = STORE_KINDS[kind]
    dtype = meta.get("dtype")
    if dtype != cls.dtype:
        raise ValueError(
            f"segment store kind {kind!r} declares dtype {dtype!r} but "
            f"this build stores it as {cls.dtype!r} — the archive is from "
            f"an incompatible format version; re-save the index with this "
            f"library version"
        )
    return cls.from_arrays(meta, arrays)
