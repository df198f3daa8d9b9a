"""The lexical scorer: sparse top-k that only touches query-term rows.

:func:`sparse_scores_inverted` is one native call, ``lex_scatter``
(``repro/native.c``): it scatter-adds each query term's contribution at
its posting rows (the CSC column), in ascending term order — the
additions of :mod:`repro.sparse.kernels`' contract, each in the float64
operation order of the NumPy loop it replaced, which the test suite
keeps as its oracle (``tests/oracles.py``).  The postings are read in
the kernel's dtypes, converted once per plane and cached
(:meth:`~repro.sparse.store.SparseStore.posting_arrays`); ``avgdl`` is
read per call from the plane's stamped statistics.  A brute-force scan
that adds every term's full ``(n,)`` contribution array differs only by
explicit ``+0.0`` terms at untouched rows, which cannot change a
non-negative float64 accumulator, so the two score arrays are
bit-identical while the work is ``O(postings of the query terms)``
instead of ``O(n · query terms)``.

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

from repro import native
from repro.sparse.kernels import (
    BM25_B,
    BM25_K1,
    SparseQueryLike,
    as_sparse_query,
    term_weights,
)
from repro.sparse.store import PostingArrays, SparseStore
from repro.utils.topk import rank_order

__all__ = ["lex_scatter", "sparse_scores_inverted", "sparse_topk"]


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
    terms, weights = term_weights(store, query)
    avgdl = store.stats.avgdl if store.metric == "bm25" else None
    return lex_scatter(
        store.posting_arrays(), store.row_lengths(), terms, weights, avgdl
    )


def lex_scatter(
    postings: PostingArrays,
    dl: np.ndarray,
    terms: np.ndarray,
    weights: np.ndarray,
    avgdl: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(scores, touched_rows)`` of the query terms *terms* (their
    ``qv·idf`` in *weights*) over *postings*: BM25 with the row lengths
    *dl* and *avgdl*, TF-IDF when *avgdl* is ``None``.  One call of
    ``native.c``'s ``lex_scatter``; a term outside the vocabulary has no
    postings, and a repeated one adds twice."""
    n = int(dl.shape[0])
    out = np.zeros(n, dtype=np.float64)
    if n == 0 or terms.size == 0 or postings.tf.size == 0:
        return out, np.empty(0, dtype=np.int64)
    touched = np.empty(n, dtype=np.int64)
    terms = np.ascontiguousarray(terms, dtype=np.int64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    bm25 = None if avgdl is None else np.array([BM25_K1, BM25_B, avgdl])
    address = native.address
    count = native.lib.lex_scatter(
        address(postings.indptr),
        address(postings.indices),
        address(postings.tf),
        postings.indptr.shape[0] - 1,
        address(dl),
        n,
        address(terms),
        address(weights),
        terms.shape[0],
        None if bm25 is None else address(bm25),
        address(out),
        address(touched),
    )
    native.check(count)
    return out, touched[:count]


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
