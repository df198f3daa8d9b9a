"""The lexical scorer: sparse top-k that only touches query-term rows.

:func:`sparse_scores_inverted` scatter-adds each query term's
contribution at its posting rows (the CSC column), in ascending term
order — the additions of :mod:`repro.sparse.kernels`' contract.  A
brute-force scan that adds every term's full ``(n,)`` contribution
array differs only by explicit ``+0.0`` terms at untouched rows, which
cannot change a non-negative float64 accumulator, so the two score
arrays are bit-identical while the work is ``O(postings of the query
terms)`` instead of ``O(n · query terms)``.

:func:`sparse_topk` turns a score array into the canonical top-k: the
same :func:`~repro.utils.topk.rank_order` the dense exact paths use
(descending score, ascending id on ties).  It ranks only the touched
rows and back-fills the remaining slots with untouched admissible ids
ascending — provably the full ranking's answer, because every untouched
row scores exactly ``+0.0``, strictly below every touched row's
positive score, and ties at zero break by ascending id.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.kernels import (
    BM25_B,
    BM25_K1,
    SparseQueryLike,
    as_sparse_query,
    term_weights,
)
from repro.sparse.store import SparseStore
from repro.utils.topk import rank_order

__all__ = ["sparse_scores_inverted", "sparse_topk"]


def sparse_scores_inverted(
    store: SparseStore, query: SparseQueryLike
) -> tuple[np.ndarray, np.ndarray]:
    """Scatter-add scores; returns ``(scores, touched_rows)``.

    ``scores`` is the full ``(n,)`` float64 array (untouched rows are
    exactly ``+0.0``); ``touched_rows`` the sorted unique rows holding
    at least one query term — the only rows whose scores can be
    positive, which :func:`sparse_topk` exploits.
    """
    query = as_sparse_query(query)
    out = np.zeros(store.n, dtype=np.float64)
    terms, weights = term_weights(store, query)
    if terms.size == 0 or store.n == 0:
        return out, np.empty(0, dtype=np.int64)
    csc = store.postings()
    dl = store.row_lengths()
    bm25 = store.metric == "bm25"
    # Hoisted out of the per-term loop (this is the scorer's hot path —
    # per-query cost must stay O(postings), not O(n), with minimal
    # Python overhead).
    avgdl = store.stats.avgdl if bm25 else 1.0
    indptr, indices, data = csc.indptr, csc.indices, csc.data
    touched: list[np.ndarray] = []
    for t, w_t in zip(terms, weights):
        start, end = indptr[t], indptr[t + 1]
        rows = indices[start:end]
        if rows.size == 0:
            continue
        tf = data[start:end].astype(np.float64)
        # Row indices within a CSC column are unique, so a plain fancy
        # add applies each contribution exactly once, and each row
        # accumulates its terms in ascending order.
        if bm25:
            norm = BM25_K1 * (1.0 - BM25_B + BM25_B * (dl[rows] / avgdl))
            contrib = w_t * ((tf * (BM25_K1 + 1.0)) / (tf + norm))
        else:
            contrib = w_t * tf
        out[rows] += contrib
        touched.append(rows)
    if not touched:
        return out, np.empty(0, dtype=np.int64)
    return out, np.unique(np.concatenate(touched)).astype(np.int64)


def sparse_topk(
    scores: np.ndarray,
    k: int,
    admissible: np.ndarray | None,
    touched: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical top-*k* ``(ids, scores)`` of a sparse score array.

    *admissible* is an optional boolean mask (filter ∧ ¬deleted); rows
    outside it never appear.  *touched* — the rows
    :func:`sparse_scores_inverted` reports — restricts the sort to rows
    that can score above zero; the remaining slots fill with untouched
    admissible ids ascending, which equals the full
    :func:`~repro.utils.topk.rank_order` answer because untouched rows
    all hold exactly ``+0.0``.
    """
    n = int(scores.shape[0])
    cand = (
        touched
        if admissible is None
        else touched[admissible[touched]]
    )
    top = cand[rank_order(cand, scores[cand], k)].astype(np.int64)
    if top.shape[0] < k:
        untouched = (
            np.ones(n, dtype=bool) if admissible is None else admissible.copy()
        )
        untouched[touched] = False
        fill = np.flatnonzero(untouched).astype(np.int64)[: k - top.shape[0]]
        top = np.concatenate([top, fill])
    return top, scores[top]
