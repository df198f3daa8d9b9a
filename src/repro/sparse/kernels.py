"""BM25 / TF-IDF scoring kernels for the sparse lexical plane.

The arithmetic contract that makes the whole sparse engine testable bit
for bit: a query's score against a document is the **sum, in ascending
query-term order, of per-term contributions**, each contribution an
elementwise float64 expression of ``(query weight, idf, tf, length
norm)``.  Every implementation in this package — the per-document
reference loop here, the per-term brute-force scan here, and the
posting-list scatter engine in :mod:`repro.sparse.inverted` — performs
*the same additions in the same order*, so their score arrays are
bit-identical, not merely close.  Documents containing none of the
query's terms score exactly ``+0.0`` (contributions are non-negative
and absent terms add nothing), which is what lets the inverted engine
rank only the touched rows.

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
    "SparseQuery",
    "SparseQueryLike",
    "as_sparse_query",
    "sparse_scores_bruteforce",
    "sparse_scores_reference",
    "term_weights",
]

BM25_K1 = 1.2
BM25_B = 0.75


@dataclass(frozen=True)
class SparseQuery:
    """A normalised sparse query: unique ascending terms, positive weights.

    Construct via :func:`as_sparse_query`, which coalesces duplicate
    terms, drops zero weights, and sorts — the canonical form whose
    term order defines the (bit-pinned) contribution-summation order.
    """

    indices: np.ndarray
    values: np.ndarray

    @property
    def num_terms(self) -> int:
        return int(self.indices.shape[0])


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
    non-negative (negative query weights would break the inverted
    engine's untouched-rows-score-zero invariant).
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
# Per-term weights and contributions
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
    they contribute exactly nothing on every engine.
    """
    keep = query.indices < store.vocab
    terms = query.indices[keep]
    values = query.values[keep]
    if terms.size == 0:
        return terms, values
    idf = _idf(store.metric, store.stats, terms)
    return terms, values * idf


def _doc_norm(store: "SparseStore", dl: np.ndarray) -> np.ndarray:
    """BM25 length normalisation ``k1·(1 − b + b·dl/avgdl)``.

    A pure elementwise expression of the per-row document length, so
    evaluating it on a gather of rows equals gathering its full-array
    evaluation — the identity the inverted engine's bit-parity rests on.
    """
    avgdl = store.stats.avgdl
    return BM25_K1 * (1.0 - BM25_B + BM25_B * (dl / avgdl))


def term_contrib(
    metric: str, w_t: float, tf: np.ndarray, norm: np.ndarray | None
) -> np.ndarray:
    """One term's contribution at its posting rows (elementwise f64)."""
    tf = tf.astype(np.float64)
    if metric == "bm25":
        assert norm is not None
        return w_t * ((tf * (BM25_K1 + 1.0)) / (tf + norm))
    return w_t * tf


# ----------------------------------------------------------------------
# Scorers
# ----------------------------------------------------------------------
def sparse_scores_bruteforce(
    store: "SparseStore", query: SparseQueryLike
) -> np.ndarray:
    """Brute-force per-term scan: the exact engine and the QPS yardstick.

    For each query term (ascending), materialises a full ``(n,)``
    contribution array — zero except at the term's posting rows — and
    accumulates.  O(n · query terms) work: the "scan every row for
    every term" baseline the inverted engine is gated ≥1.5× faster
    than, while producing the *same bits* (adding an explicit ``+0.0``
    at untouched rows cannot change a non-negative float64 accumulator).
    """
    query = as_sparse_query(query)
    out = np.zeros(store.n, dtype=np.float64)
    terms, weights = term_weights(store, query)
    if terms.size == 0 or store.n == 0:
        return out
    csc = store.postings()
    dl = store.row_lengths()
    norm_full = _doc_norm(store, dl) if store.metric == "bm25" else None
    for t, w_t in zip(terms, weights):
        start, end = csc.indptr[t], csc.indptr[t + 1]
        rows = csc.indices[start:end]
        contrib = np.zeros(store.n, dtype=np.float64)
        if rows.size:
            tf = csc.data[start:end]
            norm = None if norm_full is None else norm_full[rows]
            contrib[rows] = term_contrib(store.metric, float(w_t), tf, norm)
        out += contrib
    return out


def sparse_scores_reference(
    store: "SparseStore", query: SparseQueryLike
) -> np.ndarray:
    """Independent per-document reference scorer (tests only).

    Walks each document's own CSR row with plain Python floats — no
    postings, no vectorisation — performing the same additions in the
    same order as the engines.  Deliberately slow and deliberately
    structured differently from both production paths, so a bug shared
    by the scatter and brute-force implementations cannot hide.
    """
    query = as_sparse_query(query)
    out = np.zeros(store.n, dtype=np.float64)
    terms, weights = term_weights(store, query)
    if terms.size == 0:
        return out
    csr = store.csr
    dl = store.row_lengths()
    avgdl = store.stats.avgdl
    weight_of = {int(t): float(w) for t, w in zip(terms, weights)}
    for j in range(store.n):
        start, end = csr.indptr[j], csr.indptr[j + 1]
        row_terms = csr.indices[start:end]
        row_tfs = csr.data[start:end]
        tf_of = {int(t): float(v) for t, v in zip(row_terms, row_tfs)}
        score = 0.0
        for t in terms:  # ascending — the pinned summation order
            t = int(t)
            if t not in tf_of:
                continue
            tf = tf_of[t]
            if store.metric == "bm25":
                norm = BM25_K1 * (
                    1.0 - BM25_B + BM25_B * (dl[j] / avgdl)
                )
                score += weight_of[t] * (
                    (tf * (BM25_K1 + 1.0)) / (tf + norm)
                )
            else:
                score += weight_of[t] * tf
        out[j] = score
    return out
