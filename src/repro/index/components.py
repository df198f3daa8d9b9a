"""Fine-grained index-construction components (paper §VII-A, ①–⑤).

The pipeline decomposes proximity-graph construction into five pluggable
stages; re-assembling stages from different published algorithms is the
paper's component-based construction idea (Fig. 10 shows the re-assembled
"Ours" variant beating each original).  Each component here is a small
strategy object so alternative graphs (:mod:`repro.index.graphs`) can mix
and match them.
"""

from __future__ import annotations

from collections import deque
from typing import Any

import numpy as np

from repro import native
from repro.core.space import JointSpace
from repro.index.nndescent import block_candidate_sims
from repro.utils.validation import require

__all__ = [
    "two_hop_candidates",
    "search_based_candidates",
    "mrng_select",
    "rng_alpha_select",
    "angle_select",
    "top_gamma_select",
    "prune_one",
    "centroid_seed",
    "ensure_connectivity",
]


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
    beam: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """NSG-style candidates: vertices visited while greedily searching for
    each vertex from a fixed entry point on the current KNN graph.

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
            concat, neighbors, entry, concat[v], beam
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
    return _prune_select(space, cand, sims, gamma, alpha=1.0)


def rng_alpha_select(
    space: JointSpace,
    cand: np.ndarray,
    sims: np.ndarray,
    gamma: int,
    alpha: float = 1.2,
) -> list[np.ndarray]:
    """Vamana's α-relaxed RNG pruning (DiskANN).

    ``alpha > 1`` keeps more long-range edges than strict MRNG: a
    candidate is rejected only when some selected neighbour is *α times
    closer* to it (in squared-distance terms) than the vertex is.  Scored
    and run as :func:`mrng_select`.
    """
    return _prune_select(space, cand, sims, gamma, alpha=alpha)


def _greedy_by_domination(dominated: np.ndarray, gamma: int) -> np.ndarray:
    """Greedy pick of candidate rows none of whose chosen peers dominate it.

    ``dominated[j, u]`` is True when candidate ``u``, if already selected,
    blocks candidate ``j``.  Rows are assumed similarity-sorted (closest
    first); the first row is always taken, and at most *gamma* are.
    Returns the picked rows, ascending.

    ``native.c``'s ``greedy_pick`` makes the pick in one call.  Without
    it, the fallback here encodes each row as a bitmask, which turns the
    inner "any selected dominates j?" check into one Python int AND.
    """
    c = dominated.shape[0]
    kernel = native.lib
    if kernel is not None:
        dominated = np.ascontiguousarray(dominated, dtype=np.bool_)
        picked = np.empty(c, dtype=np.int64)
        count = kernel.greedy_pick(dominated.ctypes.data, c, gamma, picked.ctypes.data)
        native.check(count)
        return picked[:count]
    packed = np.packbits(dominated, axis=1)  # big-endian bits within bytes
    total_bits = packed.shape[1] * 8
    blockers = [int.from_bytes(row.tobytes(), "big") for row in packed]
    # Bit for candidate j sits at position total_bits − 1 − j.
    selected = [0]
    selected_mask = 1 << (total_bits - 1)
    for j in range(1, c):
        if len(selected) >= gamma:
            break
        if not (blockers[j] & selected_mask):
            selected.append(j)
            selected_mask |= 1 << (total_bits - 1 - j)
    return np.asarray(selected, dtype=np.int64)


def _lane_gram(vecs: np.ndarray) -> np.ndarray:
    """Every pair's inner product of the float32 rows *vecs*, ``(c, c)``
    float64, under the search's float contract (``native.c``'s header):
    eight float32 lanes from +0.0, ``a[d % 8] += x[d]·y[d]``, combined
    pairwise and widened — ``lane_dot``'s bits, eight dimensions a
    NumPy step."""
    c, dim = vecs.shape
    cols = np.ascontiguousarray(vecs.T)  # (dim, c)
    lanes = np.zeros((8, c, c), dtype=np.float32)
    prod = np.empty_like(lanes)
    with np.errstate(all="ignore"):
        for d in range(0, dim, 8):
            block = cols[d : d + 8]  # dimension d + i feeds lane i
            w = block.shape[0]
            np.multiply(block[:, :, None], block[:, None, :], out=prod[:w])
            lanes[:w] += prod[:w]
        a = lanes
        sums = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
    return sums.astype(np.float64)


def prune_one(
    concat: np.ndarray,
    total: float,
    ids: np.ndarray,
    sims: np.ndarray,
    gamma: int,
    alpha: float = 1.0,
) -> np.ndarray:
    """α-RNG pruning of one vertex's candidate list (similarity-sorted).

    Shared by Vamana's α-pruning, HNSW's neighbour-selection heuristic
    and, one vertex at a time without a compiler, the pipeline's MRNG
    and α-RNG stages.  ``ids``/``sims`` must be in descending-similarity
    order.  With the native library this is one ``prune_rows`` call over
    one row, which scores a candidate pair only when the greedy scan
    asks for it; without it, :func:`_lane_gram` scores every pair with
    the same bits and :func:`_greedy_by_domination` picks, so both paths
    pick the same neighbours.
    """
    if ids.size == 0:
        return np.empty(0, dtype=np.int32)
    kernel = native.lib
    if kernel is not None:
        return _prune_rows(
            kernel, concat, total, ids[None], sims[None], gamma, alpha
        )[0]
    cc = _lane_gram(concat[ids])  # candidate↔candidate IP
    # Squared distances via d² = 2S − 2·IP (all concatenated vectors
    # share the norm √S), so the α-pruning rule is expressible in IP.
    d_v = 2.0 * total - 2.0 * sims.astype(np.float64)  # vertex↔candidate
    d_cc = 2.0 * total - 2.0 * cc  # candidate ↔ candidate
    # u blocks j when u is α× closer to j than the vertex is
    # (α=1 is exactly MRNG / Algorithm 1 line 16).
    dominated = (alpha * alpha) * d_cc <= d_v[:, None]
    np.fill_diagonal(dominated, False)
    return ids[_greedy_by_domination(dominated, gamma)].astype(np.int32)


def _prune_rows(
    kernel: Any,
    concat: np.ndarray,
    total: float,
    cand: np.ndarray,
    sims: np.ndarray,
    gamma: int,
    alpha: float,
) -> list[np.ndarray]:
    """Every row of ``-1``-padded *cand* (each row similarity-sorted,
    *sims* beside it) pruned in one ``prune_rows`` call: each row's
    picks, int32, in candidate order."""
    require(concat.dtype == np.float32, "selection: the matrix is not float32")
    x = np.ascontiguousarray(concat)
    ids = np.ascontiguousarray(cand, dtype=np.int64)
    rows, c = ids.shape
    sims64 = np.ascontiguousarray(sims, dtype=np.float64)
    picked = np.empty((rows, c), dtype=np.int64)
    counts = np.empty(rows, dtype=np.int64)
    native.check(
        kernel.prune_rows(
            x.ctypes.data, x.shape[0], x.shape[1], ids.ctypes.data,
            sims64.ctypes.data, rows, c, gamma, total, alpha,
            picked.ctypes.data, counts.ctypes.data,
        )
    )
    flat = picked[np.arange(c) < counts[:, None]].astype(np.int32)
    return np.split(flat, np.cumsum(counts[:-1])) if rows else []


def _prune_select(
    space: JointSpace,
    cand: np.ndarray,
    sims: np.ndarray,
    gamma: int,
    alpha: float,
) -> list[np.ndarray]:
    require(gamma >= 1, "gamma must be at least 1")
    concat = space.concatenated
    total = space.weights.total  # ‖x̂‖² for every fully-present object
    kernel = native.lib
    if kernel is not None:
        return _prune_rows(kernel, concat, total, cand, sims, gamma, alpha)
    out: list[np.ndarray] = []
    for v in range(cand.shape[0]):
        row = cand[v]
        valid = row >= 0
        ids = row[valid]
        out.append(prune_one(concat, total, ids, sims[v][valid], gamma, alpha))
    return out


def angle_select(
    space: JointSpace,
    cand: np.ndarray,
    sims: np.ndarray,
    gamma: int,
    min_angle_deg: float = 60.0,
) -> list[np.ndarray]:
    """NSSG-style selection: enforce a minimum *angle* between the edges
    ``(o→u)`` and ``(o→v)`` of any two selected neighbours.
    """
    concat = space.concatenated
    cos_threshold = float(np.cos(np.deg2rad(min_angle_deg)))
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
        dominated = (edges @ edges.T) >= cos_threshold
        np.fill_diagonal(dominated, False)
        out.append(ids[_greedy_by_domination(dominated, gamma)].astype(np.int32))
    return out


def top_gamma_select(
    cand: np.ndarray, sims: np.ndarray, gamma: int
) -> list[np.ndarray]:
    """No diversification: simply the γ most similar candidates (KGraph)."""
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
