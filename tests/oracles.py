"""NumPy oracles of the native kernels (``repro/native.c``), and the
step loop ``wave_run`` is pinned against.

Most are the NumPy code that ran in the kernel's place before the C
compiler became a requirement, moved here unchanged but for its name and
its entry: the tests compare each kernel with its oracle bit for bit,
and the sanitizer child runs those comparisons too.

* :func:`step_loop` — ``wave_run`` one call at a time: the init, then
  ``wave_expand`` → ``score_rows`` → ``wave_merge`` a wave, on the
  kernel's bookkeeping (:class:`NativeBookkeeping`) or its NumPy oracle;
  :func:`stepping` puts it in the traversal's place;
* :class:`NumpyBookkeeping` — ``wave_expand`` / ``wave_merge``;
* :func:`row_scores` — ``score_rows``, from the queries up: the lane
  contract over the concatenation (:func:`lane_sum`), or per modality
  the three row kernels (:func:`kernel_ids`: dense and int8 lanes, the
  PQ sum :func:`adc_sum`) weighted in float64;
* :func:`block_candidate_sims` — ``join_number`` / ``join_fill`` around
  the local join's matmul;
* :func:`greedy_pick` — ``greedy_pick``, as a bitmask loop;
* :func:`lane_gram`, :func:`prune_one` and :func:`prune_rows` —
  ``prune_rows``: every candidate pair scored under the search's
  lane contract, then the domination test and the bitmask pick;
* :func:`lex_scatter` — ``lex_scatter``, the per-term loop of the
  lexical scorer (``repro.sparse.inverted``).
"""

from __future__ import annotations

import importlib

import numpy as np

from repro import native
from repro.index import graph_wave as gw
from repro.sparse.kernels import BM25_B, BM25_K1

# ``repro.index`` re-exports the *function* nndescent under the
# submodule's name, so the module is asked for by path.
_union_rows = importlib.import_module("repro.index.nndescent")._union_rows


class NativeBookkeeping(gw._Bookkeeping):
    """The traversal's own bookkeeping, its two steps one ctypes call
    each: ``wave_expand`` and ``wave_merge`` on the state ``wave_run``
    runs, whose routing state it empties as ``wave_run`` does first (the
    arrays are the graph's kept scratch)."""

    def __init__(self, wave, active, expansions_per_wave):
        super().__init__(wave, active, expansions_per_wave)
        self.route_ids.fill(0)
        self.route_sims.fill(-np.inf)
        self.route_dead.fill(True)
        self.seen.fill(False)

    def expand(self):
        """``(thr, owner, cand)`` of the next wave, or ``None`` when no
        row has a candidate left; counts the expansions as hops."""
        f = int(native.lib.wave_expand(self.state))
        if f == -1:
            return None
        native.check(f)
        return self.thr, self.owner[:f], self.cand[:f]

    def merge(self, owner, cand, sims):
        """Fold owner-sorted scored candidates into both pools; returns
        the rows touched (what the tests' Lemma 3 hook checks)."""
        owner = np.ascontiguousarray(owner, dtype=np.int64)
        cand = np.ascontiguousarray(cand, dtype=np.int64)
        sims = np.ascontiguousarray(sims, dtype=np.float64)
        touched = int(
            native.lib.wave_merge(
                self.state, owner.ctypes.data, cand.ctypes.data,
                sims.ctypes.data, owner.size,
            )
        )
        native.check(touched)
        return self.rows[:touched]


def step_loop(wave, active, m, wave_stats, bookkeeping=NativeBookkeeping):
    """``_Wave.traverse`` one kernel call at a time, on *bookkeeping*:
    the init (each active row's prefix of the entry order, marked seen,
    scored against -inf and merged), then per wave ``expand``, the
    wave's row scorer and ``merge`` until no row expands — the calls
    ``wave_run`` makes, in its order."""
    if not active.any():
        return None
    book = bookkeeping(wave, active, m)
    score = wave.scorer.score
    owners, ids = [], []
    for i in np.flatnonzero(active).tolist():
        init = wave.index.entry_points(int(wave.l_inner_arr[i]))
        book.seen[i, init] = True
        ids.append(init)
        owners.append(np.full(init.size, i, dtype=np.int64))
    owner, cand = np.concatenate(owners), np.concatenate(ids)
    book.merge(owner, cand, score(owner, cand, np.full(wave.b, -np.inf)))
    sizes = []
    while (step := book.expand()) is not None:
        thr, owner, cand = step
        sizes.append(int(cand.size))
        if cand.size:
            book.merge(owner, cand, score(owner, cand, thr))
    wave_stats.waves += len(sizes)
    wave_stats.frontier_sizes += tuple(sizes)
    return book


def stepping(bookkeeping=NativeBookkeeping):
    """A ``_Wave.traverse`` that runs :func:`step_loop` on
    *bookkeeping*; its ``bookkeeping`` attribute names which."""

    def traverse(wave, active, m, wave_stats):
        step_loop(wave, active, m, wave_stats, bookkeeping)

    traverse.bookkeeping = bookkeeping
    return traverse


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
    ``wave_merge`` are pinned against: :class:`NativeBookkeeping`'s
    constructor, ``expand`` and ``merge``, so :func:`step_loop` can run
    on it."""

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


def lane_sum(xs: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Per row, the lane contract's float32 sum of ``xs[j, d]·qs[j, d]``
    (``native.c``'s header): eight float32 lanes from +0.0, ``a[d % 8]
    += x[d]·q[d]``, combined pairwise; *xs* widens to float32 first, so
    int8 codes run the same lanes."""
    xs = np.asarray(xs).astype(np.float32)
    lanes = np.zeros((xs.shape[0], 8), dtype=np.float32)
    with np.errstate(all="ignore"):
        for d in range(xs.shape[1]):
            lanes[:, d % 8] += xs[:, d] * qs[:, d]
        a = lanes.T
        return ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))


def kernel_ids(kernel, ids: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The float32 inner product of stored row ``ids[j]`` with query
    ``owner[j]`` of a :class:`~repro.store.ModalityKernel`, as the row
    scorer reads it: the dense rows' lanes, the int8 codes' lanes plus
    the offset in one float32 add, or the PQ tables' :func:`adc_sum`."""
    ids, owner = np.asarray(ids), np.asarray(owner)
    if kernel.kind == native.PQ_ROWS:
        sub = np.arange(kernel.queries.shape[1])[:, None]
        with np.errstate(all="ignore"):
            return adc_sum(kernel.queries[owner, sub, kernel.rows[ids].T])
    dots = lane_sum(kernel.rows[ids], kernel.queries[owner])
    if kernel.kind == native.INT8_ROWS:
        with np.errstate(all="ignore"):
            dots = dots + kernel.offset[owner]
    return dots


def row_scores(space, queries, weights, owner, cand, thr, concat=True):
    """``RowScorer(space, queries, weights, concat).score(owner, cand,
    thr)`` from the queries up, one row at a time: a query with a concat
    vector scores the lane contract over the ω-scaled concatenation;
    any other sums ``ω²·(float64) IP`` in modality order over the
    store's kernel for a stack of that one query (:func:`kernel_ids`).
    Returns ``(sims, evals, modality_evals)`` per row."""
    b = len(queries)
    sims = np.empty(len(cand))
    evals, modality_evals = np.zeros(b, np.int64), np.zeros(b, np.int64)
    for r, (q, w) in enumerate(zip(queries, weights)):
        rows = np.flatnonzero(owner == r)
        qcat = space.concat_query(q, w) if concat else None
        if qcat is not None:
            mine = lane_sum(space.concatenated[cand[rows]], qcat[None]).astype(float)
            mods = sum(v is not None for v in q.vectors)
        else:
            w2 = space.effective_squared_weights(q, w)
            mine, mods = np.zeros(rows.size), 0
            for i, v in enumerate(q.vectors):
                if v is None or w2[i] <= 0.0:
                    continue
                kernel = space.store.stacked_kernel(i, v.astype(np.float32)[None])
                dots = kernel_ids(kernel, cand[rows], np.zeros(rows.size, np.int64))
                mine = mine + w2[i] * dots.astype(np.float64)
                mods += 1
        sims[rows] = np.where(mine > thr[r], mine, -np.inf)
        evals[r] = rows.size
        modality_evals[r] = rows.size * mods
    return sims, evals, modality_evals


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


def lex_scatter(postings, dl, terms, weights, avgdl):
    """``lex_scatter``: the per-term NumPy loop ``sparse_scores_inverted``
    ran before the kernel.  *postings* is a CSC triplet ``(indptr,
    indices, tf)`` of any float ``tf`` dtype; each term in order (one
    outside ``[0, vocab)`` has no postings) adds its BM25 contribution
    (TF-IDF when *avgdl* is ``None``) at its rows.  Returns ``(scores,
    touched rows ascending)``."""
    indptr, indices, tf_all = postings
    vocab = indptr.shape[0] - 1
    out = np.zeros(dl.shape[0], dtype=np.float64)
    touched: list[np.ndarray] = []
    for t, w_t in zip(terms, weights):
        if not 0 <= t < vocab:
            continue
        start, end = indptr[t], indptr[t + 1]
        rows = indices[start:end]
        if rows.size == 0:
            continue
        tf = tf_all[start:end].astype(np.float64)
        # Row indices within a CSC column are unique, so a plain fancy
        # add applies each contribution exactly once, and each row
        # accumulates its terms in order.
        if avgdl is not None:
            norm = BM25_K1 * (1.0 - BM25_B + BM25_B * (dl[rows] / avgdl))
            contrib = w_t * ((tf * (BM25_K1 + 1.0)) / (tf + norm))
        else:
            contrib = w_t * tf
        out[rows] += contrib
        touched.append(rows)
    if not touched:
        return out, np.empty(0, dtype=np.int64)
    return out, np.unique(np.concatenate(touched)).astype(np.int64)
