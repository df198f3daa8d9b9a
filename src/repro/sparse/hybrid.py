"""Dense + lexical score fusion: one result list, two modality families.

A hybrid query carries a dense multi-vector *and* a
:class:`~repro.sparse.kernels.SparseQuery`; its joint similarity is::

    score(q, x) = Σ_i ω_i²·IP_i(q, x)  +  ω_s²·lex(q_s, x_s)

where ``lex`` is the sparse plane's registered metric (BM25 / TF-IDF)
and ``ω_s`` is the per-query ``Query.sparse_weight`` — squared to mirror
the dense ω² convention, so a sparse plane behaves exactly like one more
modality in the weighted aggregation.

Everything here is a composition of already-bit-pinned pieces: the
sparse score array is bit-identical across engines
(:mod:`repro.sparse.inverted`), the dense exact kernels are
layout-independent (:meth:`~repro.core.space.JointSpace.query_ids_stable`),
and the combination is per-row independent float64 arithmetic — so the
hybrid exact answer inherits every parity property of its parts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.sparse.inverted import (
    sparse_scores,
    sparse_scores_inverted,
    sparse_topk,
)
from repro.sparse.kernels import sparse_scores_bruteforce
from repro.sparse.store import SparseStore

if TYPE_CHECKING:
    from repro.core.results import SearchStats
    from repro.core.space import JointSpace
    from repro.core.weights import Weights

__all__ = [
    "hybrid_rerank",
    "hybrid_union_rescore",
    "is_hybrid",
    "sparse_candidates",
    "sparse_plane",
    "sparse_term",
]


def is_hybrid(query: Any) -> bool:
    """True when *query* is a typed Query carrying a sparse component.

    Duck-typed (``getattr``) so raw :class:`~repro.core.multivector.
    MultiVector` inputs — which have no ``sparse`` attribute — answer
    False without this module importing :mod:`repro.core.query`.
    """
    return getattr(query, "sparse", None) is not None


def sparse_plane(space: "JointSpace", context: str = "corpus") -> SparseStore:
    """The space's sparse plane, or an actionable error when absent."""
    plane = space.vectors.sparse
    if plane is None:
        raise ValueError(
            f"query carries a sparse component but the {context} has no "
            f"sparse plane — attach one with "
            f"MultiVectorSet.set_sparse(...) / MUST(..., sparse=...) "
            f"(inserted objects must carry the same sparse vocabulary "
            f"as the corpus)"
        )
    return plane


def sparse_term(
    space: "JointSpace",
    typed: Any,
    engine: str = "auto",
    context: str = "corpus",
) -> np.ndarray:
    """The lexical half of a hybrid score on every row: ``ω_s²·sparse``
    (float64, shape ``(n,)``).

    Exact float64 per row and bit-identical across engines, so adding
    it to a dense prefilter and to the dense rerank alike moves both by
    the same amount — an exact scan's safety band only has to cover the
    dense term.
    """
    plane = sparse_plane(space, context)
    w2 = float(typed.sparse_weight) ** 2
    return w2 * sparse_scores(plane, typed.sparse, engine)


def sparse_candidates(
    plane: SparseStore,
    typed: Any,
    k: int,
    admissible: np.ndarray | None = None,
    engine: str = "auto",
) -> tuple[np.ndarray, np.ndarray]:
    """Lexical top-*k* candidates: ``(local ids, full score array)``.

    The candidate generator of the graph-path hybrid: the sparse engine
    proposes its best admissible rows, which then join the dense graph
    candidates for the union rescore.  Both engines return the
    same ids (the inverted engine's touched-rows shortcut is proven
    equal to the full lexsort) and the same score bits.
    """
    if engine == "exact":
        scores = sparse_scores_bruteforce(plane, typed.sparse)
        ids, _ = sparse_topk(scores, k, admissible)
    else:
        scores, touched = sparse_scores_inverted(plane, typed.sparse)
        ids, _ = sparse_topk(scores, k, admissible, touched)
    return ids, scores


def hybrid_union_rescore(
    space: "JointSpace",
    typed: Any,
    dense_ids: np.ndarray,
    k: int,
    admissible: np.ndarray | None = None,
    weights: "Weights | None" = None,
    engine: str = "auto",
    stats: "SearchStats | None" = None,
    context: str = "corpus",
) -> tuple[np.ndarray, np.ndarray]:
    """Graph-path fusion: sparse top-*k* ∪ dense candidates, rescored.

    The finalise stage of both graph engines
    (:func:`~repro.index.graph_wave.graph_wave_search` per wave row,
    :func:`~repro.index.search.joint_search` as its per-query oracle).
    The dense traversal proposes *dense_ids* (local rows, already
    admissibility-checked by the searcher); the sparse engine proposes
    its own top-*k* admissible rows.  The union is rescored under the
    combined metric (row-stable dense kernel + the engine-invariant
    sparse array) and cut to *k* by the canonical
    ``(-similarity, id)`` order.  The dense term reads the store's
    *hot* tier through
    :meth:`~repro.core.space.JointSpace.query_ids_stable`: exact on a
    dense store, the decoded PQ/int8/float16 reconstruction on a
    compressed one — the cold exact plane is never touched.  The
    rescore takes the place of ``refine=`` for a hybrid query.
    """
    plane = sparse_plane(space, context)
    lex_ids, lex_scores = sparse_candidates(
        plane, typed, k, admissible=admissible, engine=engine
    )
    cand = np.union1d(np.asarray(dense_ids, dtype=np.int64), lex_ids)
    if cand.size == 0:
        return cand, np.zeros(0, dtype=np.float64)
    dense = space.query_ids_stable(
        typed.vector, cand, weights=weights, stats=stats
    )
    w2 = float(typed.sparse_weight) ** 2
    sims = dense + w2 * lex_scores[cand]
    order = np.lexsort((cand, -sims))[:k]
    return cand[order], sims[order]


def hybrid_rerank(
    space: "JointSpace",
    typed: Any,
    ids: np.ndarray,
    k: int,
    weights: "Weights | None" = None,
    stats: "SearchStats | None" = None,
    engine: str = "auto",
    context: str = "corpus",
) -> tuple[np.ndarray, np.ndarray]:
    """Hybrid stage two of ``refine=``: full-precision combined top-*k*.

    Mirrors :func:`~repro.index.scoring.rerank_exact` — dense scores
    come from the store's cold exact tier — with the sparse term added
    at the shortlist rows before the canonical cut.
    """
    lexical = sparse_term(space, typed, engine, context)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return ids, np.zeros(0, dtype=np.float64)
    dense = space.query_ids_exact(
        typed.vector, ids, weights=weights, stats=stats
    )
    sims = dense + lexical[ids]
    order = np.lexsort((ids, -sims))[:k]
    return ids[order], sims[order]
