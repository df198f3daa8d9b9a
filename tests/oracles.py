"""NumPy oracles of the native kernels (``repro/native.c``).

Each is the NumPy code that ran in the kernel's place before the C
compiler became a requirement, moved here unchanged but for its name and
its entry: the tests compare each kernel with its oracle bit for bit,
and the sanitizer child runs those comparisons too.

* :class:`NumpyBookkeeping` — ``wave_expand`` / ``wave_merge`` (and,
  through the step loop, ``wave_run``);
* :func:`adc_sum` — ``adc_gather``'s sub-space sum;
* :func:`block_candidate_sims` — ``join_number`` / ``join_fill`` around
  the local join's matmul;
* :func:`greedy_pick` — ``greedy_pick``, as a bitmask loop;
* :func:`lane_gram`, :func:`prune_one` and :func:`prune_rows` —
  ``prune_rows``: every candidate pair scored under ``gather_dot``'s
  lane contract, then the domination test and the bitmask pick.
"""

from __future__ import annotations

import importlib

import numpy as np

# ``repro.index`` re-exports the *function* nndescent under the
# submodule's name, so the module is asked for by path.
_union_rows = importlib.import_module("repro.index.nndescent")._union_rows


def pad_by_owner(
    owner: np.ndarray,
    ids: np.ndarray,
    *sim_columns: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Scatter owner-sorted flat candidates into per-row padded matrices.

    Returns ``(rows, id_matrix, sim_matrices)`` where row ``r`` of each
    matrix holds the candidates owned by query ``rows[r]``, padded with
    ``-inf`` similarities (id padding is irrelevant once the sim is
    ``-inf``).
    """
    rows, grp_start, grp_counts = np.unique(
        owner, return_index=True, return_counts=True
    )
    width = int(grp_counts.max())
    pos = np.arange(owner.size, dtype=np.int64) - np.repeat(grp_start, grp_counts)
    ridx = np.repeat(np.arange(rows.size, dtype=np.int64), grp_counts)
    id_mat = np.zeros((rows.size, width), dtype=np.int64)
    id_mat[ridx, pos] = ids
    sim_mats: list[np.ndarray] = []
    for col in sim_columns:
        mat = np.full((rows.size, width), -np.inf, dtype=np.float64)
        mat[ridx, pos] = col
        sim_mats.append(mat)
    return rows, id_mat, sim_mats


class NumpyBookkeeping:
    """The wave's bookkeeping in NumPy, the oracle ``wave_expand`` and
    ``wave_merge`` are pinned against: ``graph_wave._Bookkeeping``'s
    constructor, ``expand``, ``merge`` and a ``run`` that never runs, so
    a test can put it in the traversal's place."""

    def __init__(self, wave, active: np.ndarray, expansions_per_wave: int):
        self.wave = wave
        self.active = active
        self.m_exp = int(expansions_per_wave)
        self.graph = wave.index.traversal_constants()
        b, width = wave.b, wave.width
        self.route_ids = np.zeros((b, width), dtype=np.int64)
        self.route_sims = np.full((b, width), -np.inf, dtype=np.float64)
        self.route_dead = np.ones((b, width), dtype=bool)
        self.seen = np.zeros((b, wave.n), dtype=bool)
        self.rows_all = np.arange(b, dtype=np.int64)
        self.cols = np.arange(width, dtype=np.int64)
        # Group queries by the identity of their excluded-vertex bitset
        # (shared filters compile to one mask, unfiltered queries share the
        # deletion bitset) so admission is one vectorised lookup per group.
        self.uniq_excluded: list[np.ndarray] = []
        self.excl_group = np.full(b, -1, dtype=np.int64)
        group_of: dict[int, int] = {}
        for i, excl in enumerate(wave.excluded_by):
            if excl is None:
                continue
            gid = group_of.setdefault(id(excl), len(self.uniq_excluded))
            if gid == len(self.uniq_excluded):
                self.uniq_excluded.append(excl)
            self.excl_group[i] = gid

    def admissible(self, owner: np.ndarray, cand: np.ndarray) -> np.ndarray:
        out = np.ones(cand.size, dtype=bool)
        groups = self.excl_group[owner]
        for gid, excl in enumerate(self.uniq_excluded):
            sel = groups == gid
            if sel.any():
                out[sel] = ~excl[cand[sel]]
        return out

    def merge(
        self, owner: np.ndarray, cand: np.ndarray, sims: np.ndarray
    ) -> np.ndarray:
        wave, width, cols = self.wave, self.wave.width, self.cols
        route_ids, route_sims, route_dead = (
            self.route_ids, self.route_sims, self.route_dead
        )
        res_ids, res_sims = wave.res_ids, wave.res_sims
        rows, f_ids, (f_route_sims, f_res_sims) = pad_by_owner(
            owner, cand, sims, np.where(self.admissible(owner, cand), sims, -np.inf)
        )
        cat_ids = np.concatenate([route_ids[rows], f_ids], axis=1)
        cat_sims = np.concatenate([route_sims[rows], f_route_sims], axis=1)
        cat_dead = np.concatenate(
            [route_dead[rows], ~np.isfinite(f_route_sims)], axis=1
        )
        order = np.argsort(-cat_sims, axis=1, kind="stable")[:, :width]
        new_sims = np.take_along_axis(cat_sims, order, axis=1)
        over = cols[None, :] >= wave.width_arr[rows][:, None]
        route_ids[rows] = np.take_along_axis(cat_ids, order, axis=1)
        route_sims[rows] = np.where(over, -np.inf, new_sims)
        route_dead[rows] = np.take_along_axis(cat_dead, order, axis=1) | over

        cat_ids = np.concatenate([res_ids[rows], f_ids], axis=1)
        cat_sims = np.concatenate([res_sims[rows], f_res_sims], axis=1)
        order = np.argsort(-cat_sims, axis=1, kind="stable")[:, :width]
        new_sims = np.take_along_axis(cat_sims, order, axis=1)
        over = cols[None, :] >= wave.cap_arr[rows][:, None]
        res_ids[rows] = np.take_along_axis(cat_ids, order, axis=1)
        res_sims[rows] = np.where(over, -np.inf, new_sims)
        return rows

    def expand(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        wave, m_exp = self.wave, self.m_exp
        route_dead, route_sims, seen = self.route_dead, self.route_sims, self.seen
        flat_adj, offsets = self.graph.flat, self.graph.offsets
        thr = wave.res_sims[self.rows_all, np.maximum(wave.cap_arr - 1, 0)]
        # Algorithm 2's termination rule, vectorised: a routed candidate
        # strictly below the current result floor can never enter R.
        route_dead |= route_sims < thr[:, None]
        masked = np.where(route_dead, -np.inf, route_sims)
        # Up to m best unexpanded candidates per row — each row reads
        # only its own pool, so wave-mates stay invisible to it.
        top_cols = np.argsort(-masked, axis=1, kind="stable")[:, :m_exp]
        top_sims = np.take_along_axis(masked, top_cols, axis=1)
        valid = np.isfinite(top_sims)
        valid &= self.active[:, None]
        if not valid.any():
            return None
        rsel, csel = np.nonzero(valid)
        cols_sel = top_cols[rsel, csel]
        expand = self.route_ids[rsel, cols_sel]
        route_dead[rsel, cols_sel] = True
        wave.hops += valid.sum(axis=1)

        counts = offsets[expand + 1] - offsets[expand]
        total_adj = int(counts.sum())
        if total_adj == 0:
            return thr, rsel[:0], expand[:0]
        shift = np.concatenate(([0], np.cumsum(counts)[:-1]))
        gather = np.arange(total_adj, dtype=np.int64) + np.repeat(
            offsets[expand] - shift, counts
        )
        cand = flat_adj[gather].astype(np.int64)
        owner = np.repeat(rsel, counts)
        fresh = ~seen[owner, cand]
        cand, owner = cand[fresh], owner[fresh]
        if cand.size and m_exp > 1:
            # Two expanded vertices of one row may share a neighbour;
            # keep each (row, candidate) pair once.  np.unique sorts the
            # keys row-major, preserving the owner-sorted layout
            # merge pads by.
            key = owner * wave.n + cand
            _, first = np.unique(key, return_index=True)
            owner, cand = owner[first], cand[first]
        seen[owner, cand] = True
        return thr, owner, cand

    def run(self) -> None:
        """Never the whole traversal: the caller steps."""
        return None


def adc_sum(gathered: np.ndarray) -> np.ndarray:
    """Sum ``(M, rows)`` looked-up table entries over the sub-spaces.

    Accumulates sub-space by sub-space from a float32 zero, so the sum
    carries the same bits whether the rows belong to one query's kernel
    or to a whole wave's stacked one.
    """
    out = np.zeros(gathered.shape[1], dtype=np.float32)
    for part in gathered:
        out += part
    return out


def block_candidate_sims(concat, neighbors, block, reverse=None):
    """``repro.index.nndescent.block_candidate_sims`` with NumPy
    scatters, never a sort, in place of ``join_number`` / ``join_fill``:
    the same candidate columns, the same matmul."""
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
    sub = concat[block] @ _union_rows(concat, uniq).T  # (b, |uniq|), one BLAS call
    # Flat index into ``sub`` of every candidate's similarity.
    flat = pos[cand] + (np.arange(len(block)) * uniq.size)[:, None]
    sims = sub.ravel()[flat]
    # Within-row duplicates: every column writes its index into its
    # candidate's slot; the last write per slot survives, the others lose.
    cols = np.arange(cand.shape[1], dtype=np.int32)
    slot = np.empty(sub.size, dtype=np.int32)
    slot[flat] = cols
    sims[slot[flat] != cols] = -np.inf
    sims[cand == block[:, None]] = -np.inf
    return cand, sims


def greedy_pick(dominated: np.ndarray, gamma: int) -> np.ndarray:
    """Greedy pick of candidate rows none of whose chosen peers dominate it.

    ``dominated[j, u]`` is True when candidate ``u``, if already selected,
    blocks candidate ``j``.  Rows are assumed similarity-sorted (closest
    first); the first row is always taken, and at most *gamma* are.
    Returns the picked rows, ascending.  Each row is encoded as a
    bitmask, which turns the inner "any selected dominates j?" check into
    one Python int AND.
    """
    c = dominated.shape[0]
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


def lane_gram(vecs: np.ndarray) -> np.ndarray:
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
    """α-RNG pruning of one vertex's similarity-sorted candidate list:
    :func:`lane_gram` scores every pair, :func:`greedy_pick` picks."""
    if ids.size == 0:
        return np.empty(0, dtype=np.int32)
    cc = lane_gram(concat[ids])  # candidate↔candidate IP
    # Squared distances via d² = 2S − 2·IP (all concatenated vectors
    # share the norm √S), so the α-pruning rule is expressible in IP.
    d_v = 2.0 * total - 2.0 * sims.astype(np.float64)  # vertex↔candidate
    d_cc = 2.0 * total - 2.0 * cc  # candidate ↔ candidate
    # u blocks j when u is α× closer to j than the vertex is
    # (α=1 is exactly MRNG / Algorithm 1 line 16).
    dominated = (alpha * alpha) * d_cc <= d_v[:, None]
    np.fill_diagonal(dominated, False)
    return ids[greedy_pick(dominated, gamma)].astype(np.int32)


def prune_rows(concat, total, cand, sims, gamma, alpha):
    """``components._prune_rows`` one vertex at a time through
    :func:`prune_one`: each ``-1``-padded row of *cand* pruned."""
    out: list[np.ndarray] = []
    for v in range(cand.shape[0]):
        row = cand[v]
        valid = row >= 0
        ids = row[valid]
        out.append(prune_one(concat, total, ids, sims[v][valid], gamma, alpha))
    return out
