"""Sparse lexical modality: CSR term-frequency plane + BM25/TF-IDF.

The package that turns the engine hybrid.  A
:class:`~repro.sparse.store.SparseStore` rides on a
:class:`~repro.core.multivector.MultiVectorSet` exactly like the
attribute table (constructor kwarg, ``subset``/``concat``, ``sparse__``
npz prefix) and is scored by the kernels in
:mod:`repro.sparse.kernels`, served by the posting-list engine in
:mod:`repro.sparse.inverted`, and mixed into the dense joint similarity
by :mod:`repro.sparse.hybrid`.
"""

from repro.sparse.hybrid import (
    hybrid_rerank,
    hybrid_union_rescore,
    is_hybrid,
    sparse_candidates,
    sparse_plane,
    sparse_term,
)
from repro.sparse.inverted import (
    sparse_scores,
    sparse_scores_inverted,
    sparse_topk,
)
from repro.sparse.kernels import (
    SparseQuery,
    as_sparse_query,
    sparse_scores_bruteforce,
    sparse_scores_reference,
)
from repro.sparse.store import (
    SPARSE_PREFIX,
    SparseStats,
    SparseStore,
    sum_stats,
)

__all__ = [
    "SPARSE_PREFIX",
    "SparseQuery",
    "SparseStats",
    "SparseStore",
    "as_sparse_query",
    "hybrid_rerank",
    "hybrid_union_rescore",
    "is_hybrid",
    "sparse_candidates",
    "sparse_plane",
    "sparse_scores",
    "sparse_scores_bruteforce",
    "sparse_scores_inverted",
    "sparse_scores_reference",
    "sparse_term",
    "sparse_topk",
    "sum_stats",
]
