"""Scipy-CSR-backed sparse lexical plane.

A :class:`SparseStore` holds one term-frequency row per object — the
lexical sibling of a dense modality matrix — plus the corpus statistics
(document frequencies, document-length normalisation) its scoring
metrics need.  It mirrors the :class:`~repro.store.VectorStore` seam
everywhere persistence and lifecycle touch it:

* ``subset`` / :meth:`SparseStore.concat` so the plane survives
  segmented seal/compact,
* ``to_arrays`` / ``from_arrays`` codecs under the ``sparse__`` key
  prefix (the lexical analogue of the attribute table's ``attr__``),
  so it round-trips through ``.npz`` segment archives,
* ``hot_bytes`` / ``cold_bytes`` accounting (the CSR arrays are always
  hot; there is no cold tier — postings are the index).

**Statistics are corpus-global, stamped per plane.**  BM25 scores
depend on document frequencies and the average document length of the
*whole* corpus, but a segmented index stores rows across many planes.
Each plane therefore carries a frozen :class:`SparseStats` snapshot of
the global statistics; the segmented index recomputes them (by summing
per-plane local counts) on insert/seal/compact and re-stamps every live
plane via :meth:`SparseStore.with_stats` — a cheap re-wrap sharing the
CSR arrays, so older snapshots keep their stats (and their answers)
untouched.  A standalone plane with ``stats=None`` falls back to its
own local counts, which *are* the global ones for an unsegmented
corpus.

Determinism: rows are kept in canonical CSR form (sorted column
indices, explicit zeros eliminated, duplicates summed), so a row's
data array — and therefore every per-row reduction and per-posting
contribution — is bit-identical no matter how the corpus is split into
planes.  Values must be finite and non-negative: term frequencies and
query term weights are counts or count-like, and non-negativity is
what makes "untouched row scores exactly 0.0" a sound top-k shortcut
for the inverted engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.registry import resolve_metric
from repro.utils.validation import require

try:  # scipy is an optional dependency of the sparse modality only
    import scipy.sparse as sp
except ImportError:  # pragma: no cover - exercised only without scipy
    sp = None

__all__ = [
    "SPARSE_PREFIX",
    "SparseStats",
    "SparseStore",
    "require_scipy",
    "sum_stats",
]

#: npz key prefix for sparse-plane arrays (the lexical
#: sibling of :data:`repro.core.attributes.ATTRIBUTE_PREFIX`).
SPARSE_PREFIX = "sparse__"


def require_scipy() -> None:
    """Fail with an actionable error when scipy is absent."""
    require(
        sp is not None,
        "the sparse lexical modality needs scipy (scipy.sparse CSR "
        "storage) — install scipy or drop the sparse= argument",
    )


@dataclass(frozen=True)
class SparseStats:
    """Corpus-global lexical statistics one plane scores against.

    ``n_docs`` counts every stored row — including soft-deleted ones,
    which still occupy postings until a compaction rewrites the plane;
    this keeps the statistics a pure function of the stored rows, so
    every plane of a segmented corpus agrees on them.  ``doc_freq`` is
    the per-term document count (int64, one entry per vocabulary slot)
    and ``total_len`` the summed row mass (for the BM25 average
    document length).
    """

    n_docs: int
    doc_freq: np.ndarray
    total_len: float

    @property
    def avgdl(self) -> float:
        """Average document length (1.0 floor for empty corpora)."""
        if self.n_docs <= 0 or self.total_len <= 0.0:
            return 1.0
        return float(self.total_len) / float(self.n_docs)

    def key(self) -> tuple:
        """Hashable equality key (tests / cache invalidation)."""
        return (
            int(self.n_docs),
            self.doc_freq.tobytes(),
            float(self.total_len),
        )


class SparseStore:
    """One CSR term-frequency plane plus its scoring statistics.

    Construct from a ``scipy.sparse`` matrix (any format; converted to
    canonical CSR float32) or via :meth:`from_rows`.  ``metric`` names
    the registered sparse metric (``bm25`` or ``tfidf``) the plane is
    scored with — declared at ingest, like a dense modality's metric.
    """

    def __init__(
        self,
        matrix: Any,
        metric: str = "bm25",
        stats: SparseStats | None = None,
    ) -> None:
        require_scipy()
        resolve_metric(metric, kind="sparse")
        require(
            sp.issparse(matrix),
            f"SparseStore needs a scipy.sparse matrix, got "
            f"{type(matrix).__name__} — build one with "
            f"scipy.sparse.csr_matrix((data, indices, indptr), shape=...)",
        )
        csr = matrix.tocsr().astype(np.float32)
        # Canonical form: duplicate columns summed, explicit zeros
        # dropped, column indices sorted — the layout-independence
        # anchor (see module docstring).
        csr.sum_duplicates()
        csr.eliminate_zeros()
        csr.sort_indices()
        require(
            np.all(np.isfinite(csr.data)) and bool(np.all(csr.data >= 0.0)),
            "sparse term frequencies must be finite and non-negative — "
            "negative or NaN/inf entries break the inverted engine's "
            "untouched-row-scores-zero invariant",
        )
        self._csr = csr
        self.metric = str(metric)
        self._stats = stats
        self._csc = None  # lazy postings (CSC) for the inverted engine
        self._row_len: np.ndarray | None = None  # lazy f64 row sums
        self._local: SparseStats | None = None  # lazy local_stats cache

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        rows: Sequence[dict[int, float]] | Sequence[Sequence[tuple[int, float]]],
        vocab: int,
        metric: str = "bm25",
    ) -> "SparseStore":
        """Build from per-object ``{term: tf}`` mappings (or pair lists)."""
        require_scipy()
        lil = sp.lil_matrix((len(rows), vocab), dtype=np.float32)
        for j, row in enumerate(rows):
            items = row.items() if isinstance(row, dict) else row
            for term, value in items:
                lil[j, int(term)] = float(value)
        return cls(lil.tocsr(), metric=metric)

    @classmethod
    def empty(cls, vocab: int, metric: str = "bm25") -> "SparseStore":
        """A zero-row plane (the delta segment's starting state)."""
        require_scipy()
        return cls(sp.csr_matrix((0, vocab), dtype=np.float32), metric=metric)

    # ------------------------------------------------------------------
    # Shape / introspection
    # ------------------------------------------------------------------
    @property
    def csr(self) -> Any:
        """The canonical CSR matrix (read-only by convention)."""
        return self._csr

    @property
    def n(self) -> int:
        return int(self._csr.shape[0])

    @property
    def vocab(self) -> int:
        return int(self._csr.shape[1])

    @property
    def nnz(self) -> int:
        return int(self._csr.nnz)

    @property
    def stats(self) -> SparseStats:
        """The statistics this plane scores against.

        The stamped corpus-global snapshot when one is attached;
        otherwise the plane's own local counts (correct for an
        unsegmented corpus, where local *is* global).
        """
        if self._stats is not None:
            return self._stats
        return self.local_stats()

    @property
    def stamped_stats(self) -> SparseStats | None:
        """The explicitly stamped stats, or None when falling back."""
        return self._stats

    def local_stats(self) -> SparseStats:
        """Statistics of this plane's own rows (summable across planes).

        With integer-valued term frequencies (the normal case) every
        sum here is exact in float64, so the global statistics — and
        therefore every BM25 score — are bit-identical no matter how
        the corpus is split into planes.  Fractional frequencies keep
        scorer-vs-oracle parity on any fixed layout but may differ in
        the last ulp across layouts.

        Cached after the first call: the CSR triplet never mutates
        (subset/concat build new stores), so the O(nnz) scatter must not
        run once per scored query.
        """
        cached = self._local
        if cached is None:
            doc_freq = np.zeros(self.vocab, dtype=np.int64)
            if self._csr.nnz:
                np.add.at(doc_freq, self._csr.indices, 1)
            total_len = float(np.add.reduce(self._csr.data, dtype=np.float64))
            cached = SparseStats(
                n_docs=self.n, doc_freq=doc_freq, total_len=total_len
            )
            self._local = cached
        return cached

    def row_lengths(self) -> np.ndarray:
        """Per-row mass ``Σ tf`` as float64 (BM25 length normalisation).

        Each row reduces over its own canonical data slice, so the value
        is bit-identical no matter which plane the row lives in.
        """
        cached = self._row_len
        if cached is None:
            csr = self._csr
            out = np.zeros(self.n, dtype=np.float64)
            data = csr.data.astype(np.float64)
            indptr = csr.indptr
            if csr.nnz:
                # reduceat misbehaves on empty segments; mask them out.
                starts = indptr[:-1]
                nonempty = np.flatnonzero(np.diff(indptr) > 0)
                if nonempty.size:
                    sums = np.add.reduceat(data, starts[nonempty])
                    out[nonempty] = sums
            cached = out
            self._row_len = cached
        return cached

    def postings(self) -> Any:
        """The CSC view (term → posting rows), built lazily and cached."""
        cached = self._csc
        if cached is None:
            cached = self._csr.tocsc()
            cached.sort_indices()
            self._csc = cached
        return cached

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def with_stats(self, stats: SparseStats | None) -> "SparseStore":
        """Same rows, different stamped statistics (cheap re-wrap)."""
        out = SparseStore.__new__(SparseStore)
        out._csr = self._csr
        out.metric = self.metric
        out._stats = stats
        out._csc = self._csc
        out._row_len = self._row_len
        out._local = self._local
        return out

    def subset(self, ids: np.ndarray) -> "SparseStore":
        """Plane over the rows in *ids* (order kept, stats preserved).

        The stamped global statistics ride along unchanged — a subset is
        a *view* of the same corpus, so its rows must keep scoring
        against the corpus-wide frequencies, not recompute local ones.
        """
        ids = np.asarray(ids)
        out = SparseStore.__new__(SparseStore)
        sub = self._csr[ids]
        sub.sort_indices()
        out._csr = sub
        out.metric = self.metric
        out._stats = self._stats
        out._csc = None
        out._row_len = None
        out._local = None
        return out

    @classmethod
    def concat(
        cls,
        stores: Sequence["SparseStore"],
        stats: SparseStats | None = None,
    ) -> "SparseStore":
        """Stack planes vertically (seal/compact path).

        All planes must agree on vocabulary size and metric.  The result
        carries *stats* when given, else the first plane's stamped stats
        (the caller — the segmented index — re-stamps right after).
        """
        require_scipy()
        require(len(stores) >= 1, "concat needs at least one sparse plane")
        vocab = stores[0].vocab
        metric = stores[0].metric
        for i, store in enumerate(stores):
            require(
                store.vocab == vocab,
                f"sparse plane {i} has vocabulary {store.vocab}, expected "
                f"{vocab} — all planes of one corpus share one vocabulary",
            )
            require(
                store.metric == metric,
                f"sparse plane {i} declares metric {store.metric!r}, "
                f"expected {metric!r}",
            )
        stacked = sp.vstack([s.csr for s in stores], format="csr")
        out = cls(
            stacked,
            metric=metric,
            stats=stats if stats is not None else stores[0]._stats,
        )
        return out

    # ------------------------------------------------------------------
    # Byte accounting (VectorStore seam)
    # ------------------------------------------------------------------
    def hot_bytes(self) -> int:
        """Resident bytes of the CSR arrays (+ stamped stats)."""
        csr = self._csr
        out = int(csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)
        if self._stats is not None:
            out += int(self._stats.doc_freq.nbytes)
        return out

    def cold_bytes(self) -> int:
        """The sparse plane has no cold tier — postings are the index."""
        return 0

    # ------------------------------------------------------------------
    # Persistence (npz codecs, ``sparse__`` prefix)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Array payload for an ``.npz`` archive.

        The stamped statistics are serialised alongside the CSR triplet:
        a loaded plane must answer with the stats it was saved with, not
        locally recomputed ones (a single reloaded segment only sees
        part of the corpus).
        """
        csr = self._csr
        stats = self.stats  # stamped, or local for a standalone plane
        meta = np.array(
            [self.n, self.vocab, stats.n_docs], dtype=np.int64
        )
        return {
            f"{SPARSE_PREFIX}data": csr.data,
            f"{SPARSE_PREFIX}indices": csr.indices.astype(np.int64),
            f"{SPARSE_PREFIX}indptr": csr.indptr.astype(np.int64),
            f"{SPARSE_PREFIX}meta": meta,
            f"{SPARSE_PREFIX}metric": np.array([self.metric]),
            f"{SPARSE_PREFIX}doc_freq": stats.doc_freq,
            f"{SPARSE_PREFIX}total_len": np.array(
                [stats.total_len], dtype=np.float64
            ),
        }

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray]
    ) -> "SparseStore | None":
        """Inverse of :meth:`to_arrays`; None when no sparse keys exist.

        Mirrors :meth:`AttributeTable.from_arrays` so archives written
        before the sparse plane existed load unchanged.
        """
        if f"{SPARSE_PREFIX}data" not in arrays:
            return None
        require_scipy()
        meta = np.asarray(arrays[f"{SPARSE_PREFIX}meta"], dtype=np.int64)
        n, vocab, n_docs = (int(meta[0]), int(meta[1]), int(meta[2]))
        csr = sp.csr_matrix(
            (
                np.asarray(arrays[f"{SPARSE_PREFIX}data"], dtype=np.float32),
                np.asarray(arrays[f"{SPARSE_PREFIX}indices"]),
                np.asarray(arrays[f"{SPARSE_PREFIX}indptr"]),
            ),
            shape=(n, vocab),
        )
        metric = str(np.asarray(arrays[f"{SPARSE_PREFIX}metric"])[0])
        stats = SparseStats(
            n_docs=n_docs,
            doc_freq=np.ascontiguousarray(
                arrays[f"{SPARSE_PREFIX}doc_freq"], dtype=np.int64
            ),
            total_len=float(
                np.asarray(arrays[f"{SPARSE_PREFIX}total_len"])[0]
            ),
        )
        return cls(csr, metric=metric, stats=stats)


def sum_stats(parts: Sequence[SparseStats]) -> SparseStats:
    """Combine per-plane local statistics into one global snapshot."""
    require(len(parts) >= 1, "sum_stats needs at least one part")
    vocab = parts[0].doc_freq.shape[0]
    for part in parts:
        require(
            part.doc_freq.shape[0] == vocab,
            "sparse statistics cover different vocabularies — the planes "
            "do not belong to one corpus",
        )
    doc_freq = np.zeros(vocab, dtype=np.int64)
    n_docs = 0
    total_len = 0.0
    for part in parts:
        doc_freq += part.doc_freq
        n_docs += int(part.n_docs)
        total_len += float(part.total_len)
    return SparseStats(n_docs=n_docs, doc_freq=doc_freq, total_len=total_len)
