"""Top-k selection helpers shared by the search kernels.

Similarities in this library follow the paper's convention: **larger inner
product = more similar**.  All helpers therefore select maxima.

Every ranked answer is ordered by ``(-similarity, id)`` — equal scores
break toward the smaller id — and that rule lives here, in
:func:`rank_order`, which every final cut calls.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "merge_candidates",
    "merge_top_k",
    "rank_order",
    "top_k_indices",
    "top_k_sorted",
]


def rank_order(
    ids: np.ndarray, sims: np.ndarray, k: int | None = None
) -> np.ndarray:
    """Positions of the best *k* entries (all of them for ``k=None``),
    ordered by ``(-similarity, id)`` — along the last axis, so a 2-D
    pair ranks each row on its own."""
    order: np.ndarray = np.lexsort((ids, -sims), axis=-1)[..., :k]
    return order


def merge_candidates(
    parts: list[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Global top-*k* ``(ids, sims)`` of several candidate lists whose
    ids are disjoint (segments), by :func:`rank_order`."""
    if not parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    ids = np.concatenate([p[0] for p in parts])
    sims = np.concatenate([p[1] for p in parts])
    order = rank_order(ids, sims, k)
    return ids[order], sims[order]


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the *k* largest entries of *scores*, unordered.

    Uses ``argpartition`` (O(n)) instead of a full sort; callers that need
    ranked output should use :func:`top_k_sorted`.
    """
    n = scores.shape[0]
    if k >= n:
        return np.arange(n)
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    return np.argpartition(scores, n - k)[n - k:]


def top_k_sorted(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the *k* largest entries, best first.

    Ordering within the result breaks ties by index; which of several
    equal-score entries straddling the selection boundary is included is
    deterministic for a given input but unspecified (argpartition's
    choice) — the returned *scores* are always the true top-k multiset.
    """
    idx = top_k_indices(scores, k)
    # Secondary key on the index makes the ordering fully deterministic.
    return idx[rank_order(idx, scores[idx])]


def merge_top_k(
    ids_a: np.ndarray,
    scores_a: np.ndarray,
    ids_b: np.ndarray,
    scores_b: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two scored id lists into the overall top-*k* (deduplicated).

    When an id appears in both inputs its maximum score wins; this is the
    behaviour the MR baseline needs when pooling per-modality candidates.
    """
    ids = np.concatenate([ids_a, ids_b])
    scores = np.concatenate([scores_a, scores_b])
    # Keep the best score per id.
    order = np.lexsort((-scores, ids))
    ids, scores = ids[order], scores[order]
    keep = np.ones(len(ids), dtype=bool)
    keep[1:] = ids[1:] != ids[:-1]
    ids, scores = ids[keep], scores[keep]
    sel = top_k_sorted(scores, k)
    return ids[sel], scores[sel]
