"""NNDescent — component ① of the fused-index pipeline (Algorithm 1, l.2-8).

Builds an approximate K-nearest-neighbour graph under the *joint*
similarity by iteratively replacing each vertex's worst neighbour with
better candidates found among neighbours-of-neighbours (the classic
"neighbours of neighbours are likely neighbours" principle of KGraph
[Dong et al., WWW'11]).

Each iteration refines vertex blocks: a block's candidates are unioned,
one BLAS matmul scores the block against the union, and a top-k keeps
the best per vertex.  The matmul is the only similarity work and the
smaller part of the time (≈ 0.3 s of a ≈ 1 s join at 4 000 vertices);
the rest is assembling and deduplicating candidate ids, which
:func:`block_candidate_sims` therefore does with scatters, never with a
sort.  The paper's Tab. XI shows three iterations reach ≥0.99 graph
quality; :func:`graph_quality` reproduces that metric.
"""

from __future__ import annotations

import numpy as np

from repro.core.space import JointSpace
from repro.utils.parallel import resolve_n_jobs, thread_map
from repro.utils.rng import make_rng
from repro.utils.validation import require

__all__ = [
    "random_knn",
    "nndescent",
    "graph_quality",
    "reverse_neighbors",
    "block_candidate_sims",
]


def random_knn(
    n: int, k: int, rng: np.random.Generator | int | None = 0
) -> np.ndarray:
    """Random initial neighbour lists, self-loop free, shape ``(n, k)``."""
    require(k < n, f"k={k} must be smaller than n={n}")
    rng = make_rng(rng)
    # Draw in [1, n) and shift by the row id so a vertex never picks itself.
    offsets = rng.integers(1, n, size=(n, k))
    return ((np.arange(n)[:, None] + offsets) % n).astype(np.int32)


def reverse_neighbors(neighbors: np.ndarray, cap: int) -> np.ndarray:
    """Up to *cap* in-neighbours per vertex, padded with the vertex id.

    NNDescent's local join considers both directions of every edge; the
    padding entries are self-references, which the candidate kernel masks
    out anyway.
    """
    n, k = neighbors.shape
    flat = neighbors.ravel()
    order = np.argsort(flat, kind="stable")
    sources = np.repeat(np.arange(n), k)[order]
    targets = flat[order]
    rev = np.tile(np.arange(n, dtype=np.int32)[:, None], (1, cap))
    starts = np.searchsorted(targets, np.arange(n))
    seg_pos = np.arange(targets.size) - starts[targets]
    keep = seg_pos < cap
    rev[targets[keep], seg_pos[keep]] = sources[keep]
    return rev


def block_candidate_sims(
    concat: np.ndarray,
    neighbors: np.ndarray,
    block: np.ndarray,
    reverse: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Similarities of each block vertex to its 2-hop candidate set.

    Returns ``(cand, sims)``, both ``(len(block), c)``.  Columns are in
    gather order — own neighbours, their neighbours, then the same for
    in-neighbours — **not** sorted by id.  A row may name a candidate
    several times: exactly one of those columns carries its similarity,
    the others and every self-reference carry ``-inf``, so a top-k over
    ``sims`` sees each distinct candidate once.  When *reverse* is given,
    in-neighbours and their out-neighbours join the candidate set (the
    full NNDescent local join — noticeably better convergence on
    unclustered data).

    Candidates are deduplicated across the whole block and one BLAS
    matmul against the deduplicated rows, taken in ascending id order,
    computes every similarity; a similarity's bits therefore do not
    depend on where its candidate sits in the row.  Which of two
    candidates with *exactly equal* similarity a caller's
    ``argpartition`` prefers does depend on column order, so on corpora
    with tied similarities (duplicated objects) the result is one valid
    top-k among several — deterministic, but not a function of the
    candidate sets alone.
    """
    nb = neighbors[block]  # (b, k)
    parts = [nb, neighbors[nb].reshape(len(block), -1)]
    if reverse is not None:
        rnb = reverse[block]
        parts.extend([rnb, neighbors[rnb].reshape(len(block), -1)])
    cand = np.concatenate(parts, axis=1)  # (b, c)
    # Block-wide candidate union without sorting: mark, then number the
    # marked ids in ascending order.
    mark = np.zeros(concat.shape[0], dtype=bool)
    mark[cand.ravel()] = True
    uniq = np.flatnonzero(mark)
    pos = np.empty(concat.shape[0], dtype=np.intp)
    pos[uniq] = np.arange(uniq.size)
    sub = concat[block] @ concat[uniq].T  # (b, |uniq|) — single BLAS call
    # Flat index into ``sub`` of every candidate's similarity.
    flat = pos[cand] + (np.arange(len(block)) * uniq.size)[:, None]
    sims = sub.ravel()[flat]
    # Within-row duplicates: every column writes its index into its
    # candidate's slot, one write per slot survives, the others lose.
    cols = np.arange(cand.shape[1], dtype=np.int32)
    slot = np.empty(sub.size, dtype=np.int32)
    slot[flat] = cols
    sims[slot[flat] != cols] = -np.inf
    sims[cand == block[:, None]] = -np.inf
    return cand, sims


def _refine_block(
    concat: np.ndarray,
    neighbors: np.ndarray,
    block: np.ndarray,
    k: int,
    reverse: np.ndarray | None,
) -> np.ndarray:
    """One NNDescent update for the vertices in *block*."""
    cand, sims = block_candidate_sims(concat, neighbors, block, reverse=reverse)
    top = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    return np.take_along_axis(cand, top, axis=1)


def nndescent(
    space: JointSpace,
    k: int,
    iterations: int = 3,
    seed: int = 0,
    block_size: int = 128,
    init: np.ndarray | None = None,
    use_reverse: bool = True,
    n_jobs: int = 1,
) -> np.ndarray:
    """Approximate joint-similarity KNN graph, shape ``(n, k)`` int32.

    ``init`` lets callers resume refinement from an existing graph
    (used by the γ/ε ablations to share work across parameter points).
    ``use_reverse`` enables the full bidirectional local join.

    ``n_jobs > 1`` refines the blocks of each iteration on a thread pool.
    The sequential sweep is Gauss–Seidel (later blocks see earlier
    blocks' fresh neighbours); the parallel sweep refines every block
    against the iteration-start snapshot (Jacobi), so its output is
    deterministic and independent of the worker count — but it is a
    *different* (equally valid) approximate KNN graph than ``n_jobs=1``
    produces, typically converging within one extra iteration.
    """
    n = space.n
    require(k < n, f"k={k} must be smaller than n={n}")
    concat = space.concatenated
    neighbors = (
        init.astype(np.int32).copy()
        if init is not None
        else random_knn(n, k, make_rng(seed))
    )
    require(neighbors.shape == (n, k), "init graph has wrong shape")
    workers = resolve_n_jobs(n_jobs)
    blocks = [
        np.arange(start, min(start + block_size, n))
        for start in range(0, n, block_size)
    ]
    for _ in range(max(0, iterations)):
        reverse = reverse_neighbors(neighbors, k) if use_reverse else None
        if workers == 1:
            for block in blocks:
                neighbors[block] = _refine_block(
                    concat, neighbors, block, k, reverse
                )
        else:
            snapshot = neighbors.copy()
            updates = thread_map(
                lambda block: _refine_block(
                    concat, snapshot, block, k, reverse
                ),
                blocks,
                n_jobs=workers,
            )
            for block, update in zip(blocks, updates):
                neighbors[block] = update
    return neighbors.astype(np.int32)


def graph_quality(
    space: JointSpace,
    neighbors: np.ndarray,
    sample: int = 200,
    seed: int = 0,
) -> float:
    """Mean overlap between graph neighbours and exact top-k (Tab. XI).

    Defined in the paper as "the mean ratio of γ neighbours of a vertex
    over the top-γ nearest neighbours based on joint similarity";
    estimated on a random vertex sample for tractability.
    """
    n, k = neighbors.shape
    rng = make_rng(seed)
    picks = rng.choice(n, size=min(sample, n), replace=False)
    concat = space.concatenated
    sims = concat[picks] @ concat.T  # (s, n)
    sims[np.arange(len(picks)), picks] = -np.inf
    exact = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    overlaps = [
        np.intersect1d(exact[i], neighbors[picks[i]]).size / k
        for i in range(len(picks))
    ]
    return float(np.mean(overlaps))
