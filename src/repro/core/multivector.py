"""Multi-vector representation of multimodal objects (paper §V).

A multimodal object with ``m`` modalities is represented by ``m``
L2-normalised vectors, one per modality, produced by pluggable encoders.
The library stores an object set column-wise — one ``(n, d_i)`` matrix per
modality — which keeps every similarity kernel a dense matrix product.

The column store itself is pluggable: a :class:`MultiVectorSet` is backed
by a :class:`~repro.store.VectorStore` (float32 by default — bit-identical
to the historical in-matrix layout — or a compressed backend: int8
scalar quantisation, product quantisation).  Hot search paths score
through the store's asymmetric kernels; :attr:`matrices` decodes, so code
that touches raw matrices keeps working on any backend at reconstruction
precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.attributes import AttributeTable
from repro.store import DenseStore, VectorStore
from repro.utils.validation import as_float_matrix, as_float_vector, require

if TYPE_CHECKING:
    from repro.sparse.store import SparseStore

__all__ = ["MultiVector", "MultiVectorSet", "normalize_rows"]


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Return *matrix* with each row scaled to unit L2 norm.

    Zero rows are left untouched (they encode "missing modality" and must
    keep an inner product of 0 with everything).  Norms accumulate in
    float64 (einsum upcasts per element — no corpus-sized float64 copy):
    squaring float32 values near the denormal range underflows and
    produced norms small enough to break idempotency.
    """
    matrix = np.asarray(matrix, dtype=np.float32)
    squares = np.einsum("...i,...i->...", matrix, matrix, dtype=np.float64)
    norms = np.sqrt(squares)[..., np.newaxis]
    safe = np.where(norms == 0.0, 1.0, norms)
    return (matrix / safe).astype(np.float32)


@dataclass(frozen=True)
class MultiVector:
    """Per-modality vectors for a single object or query.

    ``vectors[i] is None`` marks a missing modality (the paper's ``t < m``
    case, §VII-B): its weight is forced to zero during similarity
    computation.
    """

    vectors: tuple[np.ndarray | None, ...]

    @classmethod
    def from_arrays(cls, arrays: Iterable[np.ndarray | None]) -> "MultiVector":
        prepared: list[np.ndarray | None] = []
        for i, arr in enumerate(arrays):
            if arr is None:
                prepared.append(None)
            else:
                prepared.append(as_float_vector(arr, f"modality {i}"))
        return cls(tuple(prepared))

    @property
    def num_modalities(self) -> int:
        return len(self.vectors)

    @property
    def present(self) -> tuple[bool, ...]:
        """Flags marking which modalities carry a vector."""
        return tuple(v is not None for v in self.vectors)

    def replace(self, modality: int, vector: np.ndarray | None) -> "MultiVector":
        """Return a copy with one modality slot swapped out.

        Used to switch the target slot between Option 1 (unimodal
        embedding) and Option 2 (composition vector), Fig. 4(f).
        """
        vectors = list(self.vectors)
        vectors[modality] = None if vector is None else as_float_vector(vector)
        return MultiVector(tuple(vectors))


class MultiVectorSet:
    """Column store of multi-vector objects: one matrix per modality.

    All matrices share the row count ``n``; row ``j`` across matrices forms
    the multi-vector of object ``j``.  The columns live in a pluggable
    :class:`~repro.store.VectorStore`; constructing from raw matrices wraps
    them in a :class:`~repro.store.DenseStore` (float32, bit-identical to
    the pre-store behaviour), while :meth:`from_store` attaches a
    compressed backend.

    Every dense modality scores by inner product: rows are meant to be
    L2-normalised, which makes IP the cosine and ranks exactly as
    negative squared L2 (``−‖q−u‖² = 2·q·u − 2``), and is what Lemma 1's
    ω-scaled concatenation and Eq. 8 rely on.  For cosine over raw
    rows, pass ``normalize=True`` and unit-norm queries.
    """

    def __init__(
        self,
        matrices: Sequence[np.ndarray],
        normalize: bool = False,
        attributes: AttributeTable | dict | None = None,
        sparse: "SparseStore | None" = None,
    ):
        require(len(matrices) >= 1, "at least one modality matrix required")
        mats = [as_float_matrix(m, f"modality {i}") for i, m in enumerate(matrices)]
        n = mats[0].shape[0]
        for i, mat in enumerate(mats):
            require(
                mat.shape[0] == n,
                f"modality {i} has {mat.shape[0]} rows, expected {n}",
            )
        if normalize:
            mats = [normalize_rows(m) for m in mats]
        self._store: VectorStore = DenseStore(mats)
        self._attributes: AttributeTable | None = None
        self._sparse: "SparseStore | None" = None
        if attributes is not None:
            self.set_attributes(attributes)
        if sparse is not None:
            self.set_sparse(sparse)

    @classmethod
    def from_store(
        cls,
        store: VectorStore,
        attributes: AttributeTable | None = None,
        sparse: "SparseStore | None" = None,
    ) -> "MultiVectorSet":
        """Wrap an existing (possibly compressed) vector store."""
        out = cls.__new__(cls)
        out._store = store
        out._attributes = None
        out._sparse = None
        if attributes is not None:
            out.set_attributes(attributes)
        if sparse is not None:
            out.set_sparse(sparse)
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def store(self) -> VectorStore:
        """The backing store (scoring kernels, byte accounting, codecs)."""
        return self._store

    @property
    def attributes(self) -> AttributeTable | None:
        """The per-object attribute table filters compile against."""
        return self._attributes

    def set_attributes(
        self, attributes: AttributeTable | dict
    ) -> "MultiVectorSet":
        """Attach (or replace) the attribute table; returns ``self``.

        Accepts a ready :class:`~repro.core.attributes.AttributeTable` or
        a plain ``{field: values}`` mapping; column lengths must match
        the corpus row count.  Filtered queries
        (:class:`~repro.core.query.Query` with ``filter=``) require a
        table — the filter compiler raises an actionable error
        otherwise.
        """
        if not isinstance(attributes, AttributeTable):
            attributes = AttributeTable(attributes)
        require(
            attributes.n == self.n,
            f"attribute table covers {attributes.n} objects but the corpus "
            f"has {self.n}",
        )
        self._attributes = attributes
        return self

    @property
    def sparse(self) -> "SparseStore | None":
        """The optional sparse lexical plane (BM25/TF-IDF rows)."""
        return self._sparse

    def set_sparse(self, sparse: "SparseStore") -> "MultiVectorSet":
        """Attach (or replace) the sparse lexical plane; returns ``self``.

        The plane's row count must match the corpus — row ``j`` of the
        plane is object ``j``'s term frequencies, exactly as row ``j``
        of every dense modality matrix is its dense vector.  Hybrid
        queries (:class:`~repro.core.query.Query` with ``sparse=``)
        require a plane — the hybrid scorer raises an actionable error
        otherwise.
        """
        from repro.sparse.store import SparseStore

        require(
            isinstance(sparse, SparseStore),
            f"set_sparse needs a SparseStore, got "
            f"{type(sparse).__name__} — build one with "
            f"SparseStore.from_rows(...)",
        )
        require(
            sparse.n == self.n,
            f"sparse plane covers {sparse.n} objects but the corpus "
            f"has {self.n}",
        )
        self._sparse = sparse
        return self

    @property
    def is_compressed(self) -> bool:
        """True when the hot tier is not plain float32."""
        return self._store.kind != "none"

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """Per-modality float32 matrices.

        The stored arrays for a dense set; **decoded reconstructions**
        (materialised on every call) for compressed backends — hot paths
        must go through the store kernels instead.
        """
        return tuple(
            self._store.modality(i) for i in range(self._store.num_modalities)
        )

    @property
    def n(self) -> int:
        """Number of objects."""
        return self._store.n

    def __len__(self) -> int:
        return self.n

    @property
    def num_modalities(self) -> int:
        return self._store.num_modalities

    @property
    def dims(self) -> tuple[int, ...]:
        """Per-modality vector dimensionality."""
        return self._store.dims

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def row(self, index: int) -> MultiVector:
        """Multi-vector of object *index* (decoded on compressed stores)."""
        idx = np.asarray([index])
        return MultiVector(tuple(
            self._store.rows(i, idx)[0] for i in range(self.num_modalities)
        ))

    def modality(self, i: int) -> np.ndarray:
        """The full ``(n, d_i)`` matrix of modality *i* (decoded)."""
        return self._store.modality(i)

    def exact_modality(self, i: int) -> np.ndarray:
        """Full-precision matrix of modality *i*.

        The cold exact tier on compressed stores (rerank/compaction
        source); identical to :meth:`modality` on dense sets and on
        stores built with ``keep_exact=False``.
        """
        return self._store.exact_modality(i)

    def subset(self, ids: np.ndarray) -> "MultiVectorSet":
        """New set containing only the objects in *ids* (row order kept).

        The attribute table and the sparse plane, when present, are
        sliced alongside the vectors so filters and lexical scoring
        keep answering correctly on the subset (the plane keeps its
        stamped corpus-global statistics).
        """
        ids = np.asarray(ids)
        return MultiVectorSet.from_store(
            self._store.subset(ids),
            attributes=(
                None
                if self._attributes is None
                else self._attributes.subset(ids)
            ),
            sparse=(
                None if self._sparse is None else self._sparse.subset(ids)
            ),
        )

    def concatenated(self, scales: Sequence[float] | None = None) -> np.ndarray:
        """Horizontal concatenation, optionally scaling each block.

        With ``scales = ω`` this materialises the paper's concatenated
        vectors ``x̂ = [ω_0·ϕ_0(x_0), …]`` so that a single dot product
        equals the joint similarity (Lemma 1).  Decodes compressed
        backends — a build/compaction path, not a serving path.
        """
        mats = self.matrices
        if scales is None:
            return np.concatenate(mats, axis=1)
        require(
            len(scales) == self.num_modalities,
            "one scale per modality required",
        )
        blocks = [np.float32(s) * m for s, m in zip(scales, mats)]
        return np.concatenate(blocks, axis=1)
