"""Fine-grained index-construction components (paper §VII-A, ①–⑤).

The pipeline decomposes proximity-graph construction into five pluggable
stages; re-assembling stages from different published algorithms is the
paper's component-based construction idea (Fig. 10 shows the re-assembled
"Ours" variant beating each original).  Each component here is a plain
function; :class:`~repro.index.pipeline.FusedIndexBuilder` takes one per
stage, which is all the KGraph, NSG and NSSG recipes are, and the graphs
of :mod:`repro.index.graphs` reuse the α-pruning rule (:func:`prune_one`).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro import native
from repro.core.space import JointSpace
from repro.index.nndescent import block_candidate_sims
from repro.utils.validation import require

__all__ = [
    "two_hop_candidates",
    "search_based_candidates",
    "mrng_select",
    "angle_select",
    "top_gamma_select",
    "prune_one",
    "centroid_seed",
    "ensure_connectivity",
]

#: NSG's search beam for :func:`search_based_candidates`.
_NSG_BEAM = 48
#: cos 60°, NSSG's minimum angle between two selected edges.
_COS_60 = 0.5


# ----------------------------------------------------------------------
# ② Candidate acquisition
# ----------------------------------------------------------------------
def two_hop_candidates(
    space: JointSpace,
    knn: np.ndarray,
    max_candidates: int = 64,
    block_size: int = 128,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidates = own neighbours ∪ their neighbours (Algorithm 1, l.9-10).

    Returns ``(cand, sims)`` with shape ``(n, max_candidates)`` each,
    candidates sorted by descending joint similarity.  Rows are padded
    with ``-1`` when a vertex has fewer distinct candidates.  Capping at
    ``max_candidates`` keeps neighbour selection tractable while keeping
    the closest (= the only ones selection can pick) candidates.
    :func:`~repro.index.nndescent.block_candidate_sims` hands each
    block over unsorted, with duplicates and self masked to ``-inf``;
    the partial top-``max_candidates`` and the ranking happen here.
    """
    require(block_size >= 1, f"block_size must be at least 1, got {block_size}")
    n, k = knn.shape
    concat = space.concatenated
    cand_out = np.full((n, max_candidates), -1, dtype=np.int32)
    sim_out = np.full((n, max_candidates), -np.inf, dtype=np.float32)
    for start in range(0, n, block_size):
        block = np.arange(start, min(start + block_size, n))
        cand, sims = block_candidate_sims(concat, knn, block)
        width = min(max_candidates, cand.shape[1])
        top = np.argpartition(-sims, width - 1, axis=1)[:, :width]
        top_sims = np.take_along_axis(sims, top, axis=1)
        top_cand = np.take_along_axis(cand, top, axis=1)
        rank = np.argsort(-top_sims, axis=1, kind="stable")
        sim_out[block, :width] = np.take_along_axis(top_sims, rank, axis=1)
        cand_out[block, :width] = np.take_along_axis(top_cand, rank, axis=1)
    cand_out[~np.isfinite(sim_out)] = -1
    return cand_out, sim_out


def search_based_candidates(
    space: JointSpace,
    knn: np.ndarray,
    entry: int,
    max_candidates: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """NSG-style candidates: vertices visited while greedily searching for
    each vertex from a fixed entry point on the current KNN graph, with
    NSG's beam of 48.

    Slower than :func:`two_hop_candidates` but yields candidates spread
    along the search path, which is what NSG's selection expects.
    """
    from repro.index.search import greedy_search_graph

    n = knn.shape[0]
    concat = space.concatenated
    cand_out = np.full((n, max_candidates), -1, dtype=np.int32)
    sim_out = np.full((n, max_candidates), -np.inf, dtype=np.float32)
    neighbors = [knn[v] for v in range(n)]
    for v in range(n):
        visited_ids, visited_sims = greedy_search_graph(
            concat, neighbors, entry, concat[v], _NSG_BEAM
        )
        keep = visited_ids != v
        visited_ids, visited_sims = visited_ids[keep], visited_sims[keep]
        width = min(max_candidates, visited_ids.size)
        order = np.argsort(-visited_sims, kind="stable")[:width]
        cand_out[v, :width] = visited_ids[order]
        sim_out[v, :width] = visited_sims[order]
    return cand_out, sim_out


# ----------------------------------------------------------------------
# ③ Neighbour selection
# ----------------------------------------------------------------------
def mrng_select(
    space: JointSpace,
    cand: np.ndarray,
    sims: np.ndarray,
    gamma: int,
) -> list[np.ndarray]:
    """MRNG selection (Algorithm 1, l.11-17; Lemma 2 diversification).

    For each vertex the closest candidate is taken unconditionally; a
    further candidate ``v`` is kept only if it is closer to the vertex
    than to every already-selected neighbour (``IP(ô,v̂) > IP(û,v̂)`` for
    all selected ``u``), which spreads neighbours at pairwise angles of
    at least 60° (Lemma 2).

    A candidate pair's inner product is the search's (``native.c``'s
    eight-lane float32 contract); ``prune_rows`` computes it only for
    the pairs the greedy scan reads, all vertices in one call.
    """
    require(gamma >= 1, "gamma must be at least 1")
    # ‖x̂‖² is the weights' total for every fully-present object.
    return _prune_rows(
        space.concatenated, space.weights.total, cand, sims, gamma, alpha=1.0
    )


def _greedy_by_domination(dominated: np.ndarray, gamma: int) -> np.ndarray:
    """Greedy pick of candidate rows none of whose chosen peers dominate it.

    ``dominated[j, u]`` is True when candidate ``u``, if already selected,
    blocks candidate ``j``.  Rows are assumed similarity-sorted (closest
    first); the first row is always taken, and at most *gamma* are.
    Returns the picked rows, ascending.

    ``native.c``'s ``greedy_pick`` makes the pick in one call.
    """
    c = dominated.shape[0]
    dominated = np.ascontiguousarray(dominated, dtype=np.bool_)
    picked = np.empty(c, dtype=np.int64)
    count = native.lib.greedy_pick(dominated.ctypes.data, c, gamma, picked.ctypes.data)
    native.check(count)
    return picked[:count]


def prune_one(
    concat: np.ndarray,
    total: float,
    ids: np.ndarray,
    sims: np.ndarray,
    gamma: int,
    alpha: float = 1.0,
) -> np.ndarray:
    """α-RNG pruning of one vertex's candidate list (similarity-sorted).

    Shared by Vamana's α-pruning and HNSW's neighbour-selection
    heuristic.  ``ids``/``sims`` must be in descending-similarity order.
    One ``prune_rows`` call over one row, which scores a candidate pair
    only when the greedy scan asks for it.
    """
    if ids.size == 0:
        return np.empty(0, dtype=np.int32)
    return _prune_rows(concat, total, ids[None], sims[None], gamma, alpha)[0]


def _prune_rows(
    concat: np.ndarray,
    total: float,
    cand: np.ndarray,
    sims: np.ndarray,
    gamma: int,
    alpha: float,
) -> list[np.ndarray]:
    """Every row of ``-1``-padded *cand* (each row similarity-sorted,
    *sims* beside it) pruned in one ``prune_rows`` call: each row's
    picks, int32, in candidate order.

    Squared distances are ``d² = 2S − 2·IP`` (all concatenated vectors
    share the norm √S, *total* being S), so the α-pruning rule is one in
    inner products: a selected ``u`` blocks ``j`` when ``α²·d²(u, j) <=
    d²(vertex, j)`` (α = 1 is exactly MRNG, Algorithm 1 line 16),
    compared in float64.  ``-1`` ids pad a row."""
    require(concat.dtype == np.float32, "selection: the matrix is not float32")
    x = np.ascontiguousarray(concat)
    ids = np.ascontiguousarray(cand, dtype=np.int64)
    rows, c = ids.shape
    sims64 = np.ascontiguousarray(sims, dtype=np.float64)
    picked = np.empty((rows, c), dtype=np.int64)
    counts = np.empty(rows, dtype=np.int64)
    native.check(
        native.lib.prune_rows(
            x.ctypes.data, x.shape[0], x.shape[1], ids.ctypes.data,
            sims64.ctypes.data, rows, c, gamma, total, alpha,
            picked.ctypes.data, counts.ctypes.data,
        )
    )
    flat = picked[np.arange(c) < counts[:, None]].astype(np.int32)
    return np.split(flat, np.cumsum(counts[:-1])) if rows else []


def angle_select(
    space: JointSpace,
    cand: np.ndarray,
    gamma: int,
) -> list[np.ndarray]:
    """NSSG-style selection: enforce a minimum *angle* of 60° between the
    edges ``(o→u)`` and ``(o→v)`` of any two selected neighbours, taking
    the ranked candidates closest first.
    """
    concat = space.concatenated
    out: list[np.ndarray] = []
    for v in range(cand.shape[0]):
        row = cand[v]
        ids = row[row >= 0]
        if ids.size == 0:
            out.append(np.empty(0, dtype=np.int32))
            continue
        edges = concat[ids] - concat[v]
        norms = np.linalg.norm(edges, axis=1)
        norms[norms == 0.0] = 1.0
        edges = edges / norms[:, None]
        dominated = (edges @ edges.T) >= _COS_60
        np.fill_diagonal(dominated, False)
        out.append(ids[_greedy_by_domination(dominated, gamma)].astype(np.int32))
    return out


def top_gamma_select(cand: np.ndarray, gamma: int) -> list[np.ndarray]:
    """No diversification: each row's first γ candidates — the γ most
    similar of ranked rows, or KGraph's NNDescent rows as they stand."""
    out: list[np.ndarray] = []
    for v in range(cand.shape[0]):
        row = cand[v]
        ids = row[row >= 0]
        out.append(ids[:gamma].astype(np.int32))
    return out


# ----------------------------------------------------------------------
# ④ Seed preprocessing / ⑤ Connectivity
# ----------------------------------------------------------------------
def centroid_seed(space: JointSpace) -> int:
    """The vertex nearest the centroid of all concatenated vectors."""
    return space.centroid_id()


def ensure_connectivity(
    space: JointSpace,
    neighbors: list[np.ndarray],
    seed_vertex: int,
) -> list[np.ndarray]:
    """⑤ BFS from the seed; bridge any unreachable region (Alg. 1, l.19).

    When BFS stalls, the nearest *visited* vertex to some unvisited vertex
    receives an extra edge to it, and BFS resumes — guaranteeing every
    vertex is reachable from the seed, which Lemma 3's greedy routing
    needs to be able to reach any answer.
    """
    n = space.n
    concat = space.concatenated
    neighbors = [adj.copy() for adj in neighbors]
    visited = np.zeros(n, dtype=bool)

    def bfs(start: int) -> None:
        queue = deque([start])
        visited[start] = True
        while queue:
            v = queue.popleft()
            for u in neighbors[v]:
                if not visited[u]:
                    visited[u] = True
                    queue.append(int(u))

    bfs(seed_vertex)
    while not visited.all():
        orphan = int(np.flatnonzero(~visited)[0])
        reached = np.flatnonzero(visited)
        sims = concat[reached] @ concat[orphan]
        bridge = int(reached[np.argmax(sims)])
        neighbors[bridge] = np.append(neighbors[bridge], np.int32(orphan))
        bfs(orphan)
    return neighbors
