"""BM25 / TF-IDF scoring kernels for the sparse lexical plane.

The arithmetic contract that makes the sparse scorer testable bit for
bit: a query's score against a document is the **sum, in ascending
query-term order, of per-term contributions**, each contribution an
elementwise float64 expression of ``(query weight, idf, tf, length
norm)``.  The posting-list scatter in :mod:`repro.sparse.inverted`
performs exactly those additions in that order, so any other
implementation of the contract — the test suite's brute-force scan and
per-document loop — yields the same bits, not merely close ones.
Documents containing none of the query's terms score exactly ``+0.0``
(contributions are non-negative and absent terms add nothing), which
is what lets the scorer rank only the touched rows.

Metric formulas (``N``/``df``/``avgdl`` from the plane's
:class:`~repro.sparse.store.SparseStats`):

* **bm25** — ``idf = ln(1 + (N − df + 0.5)/(df + 0.5))`` (strictly
  positive for ``df ≤ N``), contribution
  ``qv·idf · tf·(k1+1) / (tf + k1·(1 − b + b·dl/avgdl))`` with the
  standard ``k1 = 1.2``, ``b = 0.75``.
* **tfidf** — ``idf = ln((N+1)/(df+1)) + 1`` (strictly positive),
  contribution ``qv·idf·tf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence, Union

import numpy as np

from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.sparse.store import SparseStats, SparseStore

__all__ = [
    "BM25_B",
    "BM25_K1",
    "SPARSE_METRICS",
    "SparseQuery",
    "SparseQueryLike",
    "as_sparse_query",
    "term_weights",
]

BM25_K1 = 1.2
BM25_B = 0.75

#: the lexical metrics a plane may declare — the ones :func:`_idf` scores.
SPARSE_METRICS: tuple[str, ...] = ("bm25", "tfidf")


@dataclass(frozen=True)
class SparseQuery:
    """A normalised sparse query: unique ascending terms, positive weights.

    Construct via :func:`as_sparse_query`, which coalesces duplicate
    terms, drops zero weights, and sorts — the canonical form whose
    term order defines the (bit-pinned) contribution-summation order.
    """

    indices: np.ndarray
    values: np.ndarray


SparseQueryLike = Union[
    SparseQuery,
    Mapping[int, float],
    tuple[Sequence[int], Sequence[float]],
]


def as_sparse_query(sparse: SparseQueryLike) -> SparseQuery:
    """Normalise user input into a canonical :class:`SparseQuery`.

    Accepts a ready :class:`SparseQuery`, a ``{term: weight}`` mapping,
    or an ``(indices, values)`` pair.  Duplicate terms are summed, zero
    weights dropped, terms sorted ascending; weights must be finite and
    non-negative (negative query weights would break the scorer's
    untouched-rows-score-zero invariant).
    """
    if isinstance(sparse, SparseQuery):
        return sparse
    if isinstance(sparse, Mapping):
        idx = np.fromiter((int(t) for t in sparse.keys()), dtype=np.int64)
        val = np.fromiter(
            (float(v) for v in sparse.values()), dtype=np.float64
        )
    else:
        require(
            isinstance(sparse, tuple) and len(sparse) == 2,
            f"sparse query must be a SparseQuery, a {{term: weight}} "
            f"mapping, or an (indices, values) pair, got "
            f"{type(sparse).__name__}",
        )
        idx = np.asarray(sparse[0], dtype=np.int64).ravel()
        val = np.asarray(sparse[1], dtype=np.float64).ravel()
    require(
        idx.shape == val.shape,
        f"sparse query has {idx.shape[0]} term ids but {val.shape[0]} "
        f"weights",
    )
    require(
        bool(np.all(np.isfinite(val))) and bool(np.all(val >= 0.0)),
        "sparse query weights must be finite and non-negative",
    )
    require(
        idx.size == 0 or bool(np.all(idx >= 0)),
        "sparse query term ids must be non-negative",
    )
    if idx.size:
        order = np.argsort(idx, kind="stable")
        idx, val = idx[order], val[order]
        uniq, start = np.unique(idx, return_index=True)
        val = np.add.reduceat(val, start) if uniq.size else val
        idx = uniq
        keep = val > 0.0
        idx, val = idx[keep], val[keep]
    return SparseQuery(
        indices=np.ascontiguousarray(idx, dtype=np.int64),
        values=np.ascontiguousarray(val, dtype=np.float64),
    )


# ----------------------------------------------------------------------
# Per-term weights
# ----------------------------------------------------------------------
def _idf(metric: str, stats: "SparseStats", terms: np.ndarray) -> np.ndarray:
    df = stats.doc_freq[terms].astype(np.float64)
    n = float(stats.n_docs)
    if metric == "bm25":
        return np.log1p((n - df + 0.5) / (df + 0.5))
    if metric == "tfidf":
        return np.log((n + 1.0) / (df + 1.0)) + 1.0
    raise ValueError(f"unknown sparse metric {metric!r}")


def term_weights(
    store: "SparseStore", query: SparseQuery
) -> tuple[np.ndarray, np.ndarray]:
    """``(terms, w)`` — in-vocabulary query terms and their ``qv·idf``.

    Out-of-vocabulary term ids are dropped: they have no postings, so
    they contribute exactly nothing.
    """
    keep = query.indices < store.vocab
    terms = query.indices[keep]
    values = query.values[keep]
    if terms.size == 0:
        return terms, values
    idf = _idf(store.metric, store.stats, terms)
    return terms, values * idf
