"""Wave-structured batched graph traversal: lockstep beam search.

The per-query engines in :mod:`repro.index.search` route one query at a
time: every hop is a Python loop iteration that gathers one adjacency
list and scores it with one GEMV.  A batch of ``b`` queries therefore
pays ``b × hops`` interpreter round-trips, and threads cannot hide
them (the beam loop is GIL-bound and BLAS calls are too small to
overlap).

This module restructures Algorithm 2 the way ``exact_wave`` restructured
the exact scan: all queries advance their beam frontiers **in lockstep**.
Each wave

1. picks, per active query, its best few unexpanded candidates (the
   vectorised equivalent of ``expansions_per_wave`` heap pops — batching
   expansions amortises the per-wave interpreter overhead),
2. gathers every query's unvisited neighbours into one stacked candidate
   matrix (CSR adjacency + one fancy-index),
3. scores the whole stack at once — fast-path queries share a single
   batched row-wise reduction against the ω-scaled concatenation, with
   each query's weights baked into its own concat column exactly as the
   exact wave does; a compressed store scores it with one stacked
   kernel call per modality
   (:class:`~repro.index.scoring.StackedScorer`, bit-identical to the
   per-query PQ/int8/float16 kernels); early-termination queries fall
   back to their per-query :class:`~repro.index.scoring.Scorer`,
4. scatters the scores back into per-query result pools, visited
   bitsets, and routing pools.

Steps 1, 2 and 4 are bookkeeping — choosing columns, gathering ids,
stable merges — and step 3 is all the arithmetic there is.  The
bookkeeping runs in a small C kernel (:mod:`repro.index.wave_kernel`,
two ctypes calls a wave) when it compiled and loaded, and in NumPy
otherwise (:class:`_NumpyBookkeeping`, also the kernel's test oracle);
step 3, thresholds, scans, rerank and fusion are NumPy either way, so
both paths return the same bits.  :func:`bookkeeping` says which runs.

The engine is cut as *prepare → traverse → finalise* (:class:`_Wave`),
and a row whose init set is the whole graph skips the middle step: it
is scored end to end by the same stacked call and selected directly
(*prepare → scan → finalise*), which is what the segmented layer asks
for on segments its beam already covers.

Queries finish independently: a query whose best unexpanded candidate
can no longer enter its result set leaves the wave, while stragglers
keep iterating.  Per-query :class:`~repro.core.query.Query` filters,
``k`` overrides, and the §IX deletion bitset apply at result-admission
exactly as in :func:`~repro.index.search.joint_search` — inadmissible
vertices still route.

Determinism contract: every per-row reduction is independent of the
other rows, every query starts from the graph's own entry order
(:meth:`GraphIndex.entry_points`), and each query's pools are truncated
to the width its *own* ``l`` implies — so a query's answer never
depends on its wave-mates or on its position in the batch.
Results are not bit-identical to the per-query heap engine (expansion
*order* differs across queries), which is why the per-query path is
kept as the recall oracle in the parity tests.
"""

from __future__ import annotations

import ctypes
from typing import Sequence

import numpy as np

from repro.core.multivector import MultiVector
from repro.core.query import FilterMemo, Query, unpack_query
from repro.core.results import SearchResult, SearchStats
from repro.core.weights import Weights
from repro.index import wave_kernel
from repro.index.base import GraphIndex
from repro.index.scoring import Scorer, StackedScorer, rerank_exact
from repro.sparse.hybrid import hybrid_union_rescore, sparse_plane
from repro.utils.topk import top_k_sorted
from repro.utils.validation import require

__all__ = ["bookkeeping", "graph_wave_search"]


def _pad_by_owner(
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


class _Wave:
    """One batch prepared against one graph: *prepare* → fill → *finalise*.

    The constructor is *prepare*: it unpacks every query, sizes its
    pools from its own ``k``/``l``, compiles its admission bitset and
    binds the scorer its rows are scored with.  :meth:`traverse`
    (Algorithm 2 in lockstep) and :meth:`scan` (its init taken over
    every vertex, and no waves) then fill the same per-row result
    pools through the same :meth:`score_stack`, and :meth:`finalise`
    turns the pools into answers — so a row's similarities carry the
    same bits whichever of the two filled its pool.
    """

    def __init__(
        self,
        index: GraphIndex,
        queries: Sequence[MultiVector | Query],
        k: int,
        l: int,
        weights: Weights | None,
        early_termination: bool,
        refine: int | None,
        filter_memo: FilterMemo | None,
        ks: Sequence[int] | None,
        ls: Sequence[int] | None,
    ) -> None:
        b = len(queries)
        space = index.space
        n = index.n
        attributes = space.vectors.attributes
        memo: FilterMemo = {} if filter_memo is None else filter_memo
        num_active = index.num_active
        self.index = index
        self.b = b
        self.refine = refine

        self.vectors: list[MultiVector] = []
        self.hybrid: list[Query | None] = []
        self.per_weights: list[Weights | None] = []
        self.excluded_by: list[np.ndarray | None] = []
        excl_cache: dict[int | None, np.ndarray | None] = {}
        self.k_arr = np.zeros(b, dtype=np.int64)
        self.k_inner_arr = np.zeros(b, dtype=np.int64)
        self.cap_arr = np.zeros(b, dtype=np.int64)
        self.width_arr = np.zeros(b, dtype=np.int64)
        self.l_inner_arr = np.zeros(b, dtype=np.int64)
        #: rows with at least one reportable vertex; the rest answer empty.
        self.alive = np.zeros(b, dtype=bool)

        for i, q in enumerate(queries):
            vec, k_q, w_q, mask = unpack_query(q, k, weights, attributes, memo=memo)
            if ks is not None and ls is not None:
                k_q, l_q = int(ks[i]), int(ls[i])
            else:
                l_q = max(l, k_q)
            require(k_q >= 1, "k must be positive")
            require(l_q >= k_q, f"result set size l={l_q} must be at least k={k_q}")
            self.vectors.append(vec)
            self.hybrid.append(
                q if isinstance(q, Query) and q.sparse is not None else None
            )
            self.per_weights.append(w_q)
            key = None if mask is None else id(mask)
            if key in excl_cache:
                excluded: np.ndarray | None = excl_cache[key]
            elif mask is None:
                excluded = index.deleted
                excl_cache[key] = excluded
            else:
                excluded = ~mask if index.deleted is None else (~mask | index.deleted)
                excl_cache[key] = excluded
            self.excluded_by.append(excluded)
            if mask is None:
                reportable = num_active
            else:
                reportable = int(n - excluded.sum()) if excluded is not None else n
            if self.hybrid[i] is not None:
                sparse_plane(space)  # no lexical plane: fail before traversing
                # The fusion's dense candidate pool is the whole result set;
                # the union rescore takes the place of refine.
                k_inner = l_inner = l_q
            else:
                k_inner = k_q * refine if refine is not None else k_q
                l_inner = max(l_q, k_inner)
            self.k_arr[i] = k_q
            self.k_inner_arr[i] = k_inner
            self.l_inner_arr[i] = l_inner
            self.width_arr[i] = min(l_inner, n)
            self.cap_arr[i] = min(l_inner, reportable)
            self.alive[i] = reportable > 0

        self.stats_list = [SearchStats() for _ in range(b)]
        # A compressed store scores the whole batch through one stacked
        # kernel per modality; Lemma-4 pruning is a per-query scan, so
        # early_termination keeps the per-query scorers.
        self.stack = (
            StackedScorer(space, self.vectors, self.per_weights)
            if space.is_compressed and not early_termination
            else None
        )
        self.scorers: list[Scorer] = []
        self.fast = np.zeros(b, dtype=bool)
        if self.stack is None:
            self.scorers = [
                Scorer(
                    space,
                    self.vectors[i],
                    weights=self.per_weights[i],
                    early_termination=early_termination,
                    stats=self.stats_list[i],
                )
                for i in range(b)
            ]
            self.fast[:] = [s.has_fast_path for s in self.scorers]
        self.all_fast = bool(self.fast.all())
        self.active_mods = (
            np.asarray(
                [s.num_active_modalities for s in self.scorers], dtype=np.int64
            )
            if self.stack is None
            else self.stack.num_kernels
        )
        self.joint_acc = np.zeros(b, dtype=np.int64)
        self.hops = np.zeros(b, dtype=np.int64)
        self.concat_mat: np.ndarray | None = None
        self.qmat: np.ndarray | None = None
        if self.fast.any():
            self.concat_mat = space.concatenated
            self.qmat = np.zeros((b, self.concat_mat.shape[1]), dtype=np.float32)
            for i in range(b):
                qvec = self.scorers[i].concat_query_vector
                if qvec is not None:
                    self.qmat[i] = qvec

        # Result pools: per-row descending, padded with -inf, each row
        # cut to its own cap — what a batch of one would hold.
        self.width = int(self.width_arr.max()) if self.alive.any() else 1
        self.res_ids = np.zeros((b, self.width), dtype=np.int64)
        self.res_sims = np.full((b, self.width), -np.inf, dtype=np.float64)

    def score_stack(
        self, owner: np.ndarray, cand: np.ndarray, thr: np.ndarray
    ) -> np.ndarray:
        """Score one stacked frontier; below-threshold rows come back -inf.

        One batched row-wise reduction covers every fast-path query's
        candidates (per-query weights already baked into its concat
        column), and on a compressed store one stacked kernel call per
        modality covers the whole frontier; the rest go through their
        bound scorer on contiguous owner slices, so Lemma-4 pruning
        applies per query.
        """
        b = self.b
        if self.stack is not None:
            sims = self.stack.score(owner, cand)
            self.joint_acc += np.bincount(owner, minlength=b)
            return np.where(sims > thr[owner], sims, -np.inf)
        if self.all_fast:
            # The reduction below with every row selected, minus the masks.
            assert self.concat_mat is not None and self.qmat is not None
            sims = np.einsum(
                "ij,ij->i", self.concat_mat[cand], self.qmat[owner]
            ).astype(np.float64)
            self.joint_acc += np.bincount(owner, minlength=b)
            return np.where(sims > thr[owner], sims, -np.inf)
        sims = np.empty(cand.size, dtype=np.float64)
        fmask = self.fast[owner]
        if fmask.any():
            assert self.concat_mat is not None and self.qmat is not None
            own = owner[fmask]
            sims[fmask] = np.einsum(
                "ij,ij->i", self.concat_mat[cand[fmask]], self.qmat[own]
            ).astype(np.float64)
            self.joint_acc += np.bincount(own, minlength=b)
        if not fmask.all():
            nf = np.flatnonzero(~fmask)
            nf_owner = owner[nf]
            grp, grp_start, grp_counts = np.unique(
                nf_owner, return_index=True, return_counts=True
            )
            for gi, gs, gc in zip(grp, grp_start, grp_counts):
                sl = nf[gs : gs + gc]
                svals, keep = self.scorers[int(gi)].score_frontier(
                    cand[sl], float(thr[int(gi)])
                )
                sims[sl] = np.where(keep, svals, -np.inf)
        return np.where(sims > thr[owner], sims, -np.inf)

    def scan(self, rows: np.ndarray) -> None:
        """Fill *rows*' pools from Algorithm 2's init over every vertex.

        What :meth:`traverse` computes for a row once it has reached
        every vertex, without the hops: all ``n`` similarities, scored
        as the init scores its entry set, inadmissible vertices dropped
        and the row's top ``cap`` selected directly — no routing pool,
        visited bitset or CSR adjacency is touched.

        Fast-path rows are scored without stacking: the reduction
        :meth:`score_stack` runs over gathered ``(candidate, query)``
        row pairs is run over the concat matrix and the query rows as
        they lie, which yields the same float32 bits and copies neither.
        That reduction and the PQ tables are row-wise, so their values
        are the traversal's at any ``n``; a Lemma-4 scorer goes through
        BLAS, so its values are the traversal's while ``n <= l`` (the
        init is the whole scan) and agree to rounding past that.
        """
        if rows.size == 0:
            return
        n = self.index.n
        sims = np.empty((rows.size, n), dtype=np.float64)
        fast = self.fast[rows]
        if fast.any():
            assert self.concat_mat is not None and self.qmat is not None
            sims[fast] = np.einsum(
                "nd,bd->bn", self.concat_mat, self.qmat[rows[fast]]
            )
            self.joint_acc[rows[fast]] += n
        if not fast.all():
            # In entry order, as the init stacks them: a scorer backed
            # by BLAS rounds a row by where it sits in the call.
            rest, order = rows[~fast], self.index.entry_points(n)
            scored = self.score_stack(
                np.repeat(rest, n),
                np.tile(order, rest.size),
                np.full(self.b, -np.inf),
            ).reshape(rest.size, n)
            by_id = np.empty_like(scored)
            by_id[:, order] = scored
            sims[~fast] = by_id
        for row_sims, i in zip(sims, rows.tolist()):
            excluded = self.excluded_by[i]
            if excluded is not None:
                row_sims[excluded] = -np.inf
            # cap <= the admissible count, so no -inf is ever selected.
            top = top_k_sorted(row_sims, int(self.cap_arr[i]))
            self.res_ids[i, : top.size] = top
            self.res_sims[i, : top.size] = row_sims[top]

    def traverse(
        self,
        active: np.ndarray,
        expansions_per_wave: int,
        check_monotone: bool,
        wave_stats: SearchStats,
    ) -> None:
        """Fill the pools of the rows flagged in *active* by lockstep
        beam search, logging waves and frontier sizes to *wave_stats*.

        Each wave is bookkeeping (:meth:`~_Bookkeeping.expand`, then
        :meth:`~_Bookkeeping.merge`) around one :meth:`score_stack`;
        the bookkeeping runs in the C kernel when it loaded and in NumPy
        otherwise, with the same bits either way.
        """
        if not active.any():
            return
        index, b = self.index, self.b
        kernel = wave_kernel.lib
        book: _Bookkeeping = (
            _NumpyBookkeeping(self, active, expansions_per_wave)
            if kernel is None
            else _NativeBookkeeping(self, active, expansions_per_wave, kernel)
        )
        last_total = np.full(b, -np.inf, dtype=np.float64)
        frontier_sizes: list[int] = []

        # Init: each query's prefix of the entry order, one stacked wave.
        init_owner_parts: list[np.ndarray] = []
        init_id_parts: list[np.ndarray] = []
        for i in np.flatnonzero(active).tolist():
            r_init = index.entry_points(int(self.l_inner_arr[i]))
            book.seen[i, r_init] = True
            init_id_parts.append(r_init)
            init_owner_parts.append(np.full(r_init.size, i, dtype=np.int64))
        owner = np.concatenate(init_owner_parts)
        cand = np.concatenate(init_id_parts)
        sims = self.score_stack(owner, cand, np.full(b, -np.inf))
        rows = book.merge(owner, cand, sims)
        if check_monotone:
            self._check_lemma3(rows, last_total)

        # Waves: up to m expansions per active query per wave.
        while (step := book.expand()) is not None:
            thr, owner, cand = step
            frontier_sizes.append(int(cand.size))
            if cand.size == 0:
                continue
            rows = book.merge(owner, cand, self.score_stack(owner, cand, thr))
            if check_monotone:
                self._check_lemma3(rows, last_total)
        wave_stats.waves += len(frontier_sizes)
        wave_stats.frontier_sizes += tuple(frontier_sizes)

    def _check_lemma3(self, rows: np.ndarray, last_total: np.ndarray) -> None:
        """Lemma 3: f(η), the sum of a full result pool, never falls.

        As in the heap engine, a pool still filling up is not checked —
        an admitted vertex of negative similarity lowers its sum — so
        *last_total* holds a row's sum once its pool is full, -inf
        before.
        """
        cap = self.cap_arr[rows]
        block = self.res_sims[rows]
        finite = np.isfinite(block)
        csum = np.cumsum(np.where(finite, block, 0.0), axis=1)
        take = np.minimum(finite.sum(axis=1), cap)
        idx = np.maximum(take - 1, 0)
        total = np.where(take > 0, csum[np.arange(rows.size), idx], 0.0)
        prev = last_total[rows]
        started = np.isfinite(prev)
        ok = bool(np.all(total[started] >= prev[started] - 1e-9))
        assert ok, "Lemma 3 violated in wave merge"
        last_total[rows] = np.where(take == cap, total, -np.inf)

    def finalise(self, sparse_engine: str) -> list[SearchResult]:
        """Per query: top-k by (-sim, id) — one row-wise lexsort for the
        batch — then lexical fusion for a hybrid row or the optional
        exact rerank for a plain one."""
        index, space = self.index, self.index.space
        res_ids, res_sims = self.res_ids, self.res_sims
        # One row-wise lexsort for the batch: a row's -inf padding sorts
        # after its finite entries, which keep their per-row order.
        order = np.lexsort((res_ids, -res_sims), axis=1)
        taken = np.minimum(np.isfinite(res_sims).sum(axis=1), self.k_inner_arr)
        hops, evals = self.hops.tolist(), self.joint_acc.tolist()
        modality_evals = (self.joint_acc * self.active_mods).tolist()
        results: list[SearchResult] = []
        for i, take in enumerate(taken.tolist()):
            stats = self.stats_list[i]
            stats.hops += hops[i]
            stats.visited_vertices += hops[i]
            stats.joint_evals += evals[i]
            stats.modality_evals += modality_evals[i]
            top = order[i, :take]
            ids_o, sims_o = res_ids[i, top], res_sims[i, top]
            typed = self.hybrid[i]
            if typed is not None:
                if self.alive[i]:
                    excluded = self.excluded_by[i]
                    ids_o, sims_o = hybrid_union_rescore(
                        space,
                        typed,
                        ids_o,
                        min(int(self.k_arr[i]), index.num_active),
                        admissible=None if excluded is None else ~excluded,
                        weights=self.per_weights[i],
                        engine=sparse_engine,
                        stats=stats,
                    )
            elif self.refine is not None:
                ids_o, sims_o = rerank_exact(
                    space,
                    self.vectors[i],
                    ids_o,
                    int(self.k_arr[i]),
                    weights=self.per_weights[i],
                    stats=stats,
                )
            results.append(SearchResult(ids=ids_o, similarities=sims_o, stats=stats))
        return results


class _Bookkeeping:
    """One traversal's routing state and the two steps of a wave.

    :meth:`expand` picks each active row's next expansions, gathers
    their unvisited neighbours into an owner-sorted frontier and marks
    them visited; :meth:`merge` folds a scored frontier into the route
    and result pools.  Neither does float arithmetic — the scores come
    from :meth:`_Wave.score_stack` — so the two implementations leave
    the same bits behind.
    """

    def __init__(self, wave: _Wave, active: np.ndarray, expansions_per_wave: int):
        b, width = wave.b, wave.width
        self.wave = wave
        self.active = active
        self.m_exp = int(expansions_per_wave)
        self.flat_adj, self.offsets = wave.index.csr_adjacency()
        # Routing pools: like the result pools, every row is truncated
        # to its own width after each merge, so a query's state is
        # exactly what a batch-of-one would hold — composition
        # independence.
        self.route_ids = np.zeros((b, width), dtype=np.int64)
        self.route_sims = np.full((b, width), -np.inf, dtype=np.float64)
        self.route_dead = np.ones((b, width), dtype=bool)
        self.seen = np.zeros((b, wave.index.n), dtype=bool)

    def expand(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """``(thr, owner, cand)`` of the next wave, or ``None`` when no
        row has a candidate left; counts the expansions as hops."""
        raise NotImplementedError

    def merge(
        self, owner: np.ndarray, cand: np.ndarray, sims: np.ndarray
    ) -> np.ndarray:
        """Fold owner-sorted scored candidates into both pools; returns
        the rows touched."""
        raise NotImplementedError


class _NumpyBookkeeping(_Bookkeeping):
    """The bookkeeping in NumPy: what runs without the C kernel, and the
    oracle the kernel is pinned against."""

    def __init__(self, wave: _Wave, active: np.ndarray, expansions_per_wave: int):
        super().__init__(wave, active, expansions_per_wave)
        b = wave.b
        self.rows_all = np.arange(b, dtype=np.int64)
        self.cols = np.arange(wave.width, dtype=np.int64)
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
        rows, f_ids, (f_route_sims, f_res_sims) = _pad_by_owner(
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
        flat_adj, offsets = self.flat_adj, self.offsets
        thr = wave.res_sims[self.rows_all, np.maximum(wave.cap_arr - 1, 0)]
        # Heap-engine termination rule, vectorised: a routed candidate
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
            # keys row-major, preserving the contiguous-owner layout
            # score_stack's slow path slices on.
            key = owner * wave.index.n + cand
            _, first = np.unique(key, return_index=True)
            owner, cand = owner[first], cand[first]
        seen[owner, cand] = True
        return thr, owner, cand


class _NativeBookkeeping(_Bookkeeping):
    """The same two steps in ``wave_kernel.c``: one ctypes call each
    over arrays this traversal owns (the CSR pair is only read)."""

    def __init__(
        self,
        wave: _Wave,
        active: np.ndarray,
        expansions_per_wave: int,
        kernel: ctypes.CDLL,
    ):
        super().__init__(wave, active, expansions_per_wave)
        b, width, n = wave.b, wave.width, wave.index.n
        self.kernel = kernel
        max_degree = int(np.diff(self.offsets).max()) if n else 0
        # A row gathers at most min(m, width) adjacency lists a wave,
        # and never a vertex twice.
        row_cap = min(n, min(self.m_exp, width) * max_degree)
        self.active = np.ascontiguousarray(active, dtype=bool)
        self.thr = np.empty(b, dtype=np.float64)
        self.owner = np.empty(b * row_cap, dtype=np.int64)
        self.cand = np.empty(b * row_cap, dtype=np.int64)
        self.rows = np.empty(b, dtype=np.int64)
        bitsets = [
            None if e is None else np.ascontiguousarray(e, dtype=bool)
            for e in wave.excluded_by
        ]
        excluded = (ctypes.c_void_p * b)(
            *[None if e is None else e.ctypes.data for e in bitsets]
        )
        # Everything the state points into stays referenced by self.
        self._keep = (excluded, bitsets)
        arrays = dict(
            flat=self.flat_adj, offsets=self.offsets,
            width_arr=wave.width_arr, cap_arr=wave.cap_arr,
            active=self.active, route_ids=self.route_ids,
            route_sims=self.route_sims, route_dead=self.route_dead,
            res_ids=wave.res_ids, res_sims=wave.res_sims, seen=self.seen,
            hops=wave.hops, thr=self.thr, owner=self.owner, cand=self.cand,
            rows=self.rows,
        )
        # The kernel trusts these: shapes and layout are checked here,
        # once a traversal, and ids arriving per call are checked in C.
        require(
            all(arr.flags.c_contiguous for arr in arrays.values())
            and all(e is None or e.shape == (n,) for e in bitsets)
            and self.flat_adj.dtype == np.int32
            and self.seen.shape == (b, n),
            "wave kernel: malformed traversal state",
        )
        self.state = ctypes.pointer(
            wave_kernel.WaveState(
                b=b, width=width, n=n, m=self.m_exp, row_cap=row_cap,
                excluded=ctypes.addressof(excluded),
                **{name: arr.ctypes.data for name, arr in arrays.items()},
            )
        )

    def expand(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        f = int(self.kernel.wave_expand(self.state))
        if f == -1:
            return None
        _raise_on(f)
        return self.thr, self.owner[:f], self.cand[:f]

    def merge(
        self, owner: np.ndarray, cand: np.ndarray, sims: np.ndarray
    ) -> np.ndarray:
        owner = np.ascontiguousarray(owner, dtype=np.int64)
        cand = np.ascontiguousarray(cand, dtype=np.int64)
        sims = np.ascontiguousarray(sims, dtype=np.float64)
        touched = int(
            self.kernel.wave_merge(
                self.state, owner.ctypes.data, cand.ctypes.data,
                sims.ctypes.data, owner.size,
            )
        )
        _raise_on(touched)
        return self.rows[:touched]


def _raise_on(status: int) -> None:
    """Turn the kernel's negative status codes (``wave_kernel.c``'s
    ``enum``) into exceptions."""
    if status == -2:
        raise MemoryError("wave kernel: out of memory")
    if status < 0:
        raise RuntimeError(f"wave kernel refused its input (status {status})")


def bookkeeping() -> str:
    """Which bookkeeping :func:`graph_wave_search` runs: ``"native"``
    (the C kernel loaded) or ``"numpy"``."""
    return "numpy" if wave_kernel.lib is None else "native"


def graph_wave_search(
    index: GraphIndex,
    queries: Sequence[MultiVector | Query],
    k: int,
    l: int,
    weights: Weights | None = None,
    early_termination: bool = False,
    refine: int | None = None,
    check_monotone: bool = False,
    filter_memo: FilterMemo | None = None,
    ks: Sequence[int] | None = None,
    ls: Sequence[int] | None = None,
    expansions_per_wave: int = 8,
    sparse_engine: str = "auto",
    scan: Sequence[bool] | None = None,
) -> tuple[list[SearchResult], SearchStats]:
    """Lockstep batched Algorithm 2 over one fused graph.

    Semantics match :func:`~repro.index.search.joint_search` per query —
    same init (the first ``l`` of the graph's entry order), same
    result-set cap ``min(l, reportable)``, same
    can-the-best-candidate-still-enter termination rule, same
    route-but-never-report treatment of filtered/deleted vertices, same
    ``refine=`` exact rerank — but each wave expands several candidates
    per query against one wave-entry threshold, so ids/sims agree with
    the per-query engine only up to that expansion order (recall parity
    is pinned in tests).

    ``ks``/``ls`` are per-query overrides used by the segmented layer,
    which sizes each segment probe individually.  ``scan`` is its other
    per-query input: a flagged row takes Algorithm 2's init over *every*
    vertex and runs no waves (:meth:`_Wave.scan`) — the segmented layer
    flags the rows whose beam already covers the graph
    (:func:`~repro.index.segments.beam_covers`).  Everything else about
    the row — scorer, admission, pool cap, finalise — is unchanged, and
    by default every row traverses.

    A hybrid query (``Query.sparse``) is a row of the wave like any
    other: its dense traversal fills a result pool of ``min(l,
    reportable)`` candidates, and *finalise* fuses them with the sparse
    engine's own top admissible rows through
    :func:`~repro.sparse.hybrid.hybrid_union_rescore` (cut to the
    query's ``k``) under the same deleted/filter admissibility the
    traversal enforced.  The union rescore takes the place of
    ``refine=`` for such a row; plain rows in the same batch keep their
    arithmetic bit for bit.

    ``expansions_per_wave`` widens each wave: every active query
    expands up to that many of its best unexpanded candidates per wave
    instead of one.  The traversal stays per-row (selection reads only
    the row's own pool, so composition independence is untouched) but
    the interpreter-level wave overhead is amortised over ``m``
    expansions — the knob that makes the lockstep engine beat the
    per-query loop even at small batch sizes.  Admission uses the wave-
    entry threshold, which can only admit *more* than the per-expansion
    heap rule, so recall never drops below the ``m=1`` traversal.

    Returns ``(results, wave_stats)``: per-query
    :class:`~repro.core.results.SearchResult` (stats carry the usual
    per-query counters) plus one batch-level
    :class:`~repro.core.results.SearchStats` holding only ``waves`` and
    ``frontier_sizes`` — the observable amortisation.
    """
    b = len(queries)
    wave_stats = SearchStats()
    if b == 0:
        return [], wave_stats
    require(k >= 1, "k must be positive")
    require(l >= k, f"result set size l={l} must be at least k={k}")
    require(refine is None or refine >= 1, "refine must be >= 1")
    require(expansions_per_wave >= 1, "expansions_per_wave must be >= 1")
    if ks is not None or ls is not None:
        require(
            ks is not None and ls is not None and len(ks) == b and len(ls) == b,
            "ks and ls overrides must both cover every query",
        )
    scanned = np.zeros(b, dtype=bool) if scan is None else np.asarray(scan, dtype=bool)
    require(scanned.shape == (b,), "scan must flag every query")

    wave = _Wave(
        index, queries, k, l, weights, early_termination, refine, filter_memo, ks, ls
    )
    wave.scan(np.flatnonzero(wave.alive & scanned))
    wave.traverse(
        wave.alive & ~scanned, expansions_per_wave, check_monotone, wave_stats
    )
    return wave.finalise(sparse_engine), wave_stats
