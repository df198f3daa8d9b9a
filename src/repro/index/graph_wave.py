"""Wave-structured batched graph traversal: lockstep beam search.

This is the one graph engine: every graph query — a batch, a coalesced
serving group, a segment probe, a lone query through
:func:`~repro.index.search.joint_search` — runs Algorithm 2 here.  A
per-query loop pays one interpreter round-trip per hop (one adjacency
gather, one GEMV); the wave advances every query's beam frontier **in
lockstep**, the way the exact kernel restructured the exact scan.
Each wave

1. picks, per active query, its best few unexpanded candidates (the
   vectorised equivalent of ``expansions_per_wave`` heap pops — batching
   expansions amortises the per-wave interpreter overhead),
2. gathers every query's unvisited neighbours into one stacked candidate
   matrix (CSR adjacency + one fancy-index),
3. scores the whole stack at once, through one of two routes —
   fast-path queries share a single batched row-wise reduction against
   the ω-scaled concatenation, with each query's weights baked into its
   own concat column exactly as the exact wave does; every other row (a
   compressed store, a query that needs a modality the index weights
   zeroed, a Lemma-4 plan) goes through one stacked kernel call per
   modality (:class:`~repro.index.scoring.StackedScorer`, bit-identical
   to the per-query reference kernels of
   :class:`~repro.core.space.JointSpace`, Lemma-4 pruning included),
4. scatters the scores back into per-query result pools, visited
   bitsets, and routing pools.

Steps 1, 2 and 4 are bookkeeping — choosing columns, gathering ids,
stable merges — and step 3 is all the arithmetic there is.  Both run in
a small C library (:mod:`repro.native`, three ctypes calls a wave on a
dense store) when it compiled and loaded, and in NumPy otherwise
(:class:`_NumpyBookkeeping`, also the kernel's bookkeeping oracle, and
``einsum``); :func:`bookkeeping` says which runs.  The two
bookkeepings leave the same bits behind.  The dense arithmetic does
not, so the kernel's comes with a float contract: a fast-path row's
similarity is the float32 dot product of its ω-scaled concatenation
with the query's, summed in eight lane accumulators that start at
``+0.0f``, ``a[d mod 8] += fl(x[d]·q[d])`` for ``d = 0 … D−1`` in
order, combined as ``((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))`` and widened
to float64 — no FMA, no reassociation (``native.c``'s header).
The same call scores traversed and scanned rows, so a row carries the
same bits either way; ``einsum`` on the fallback agrees with it within
the float32 dot-product bound (:func:`~repro.store.dot_error`).
A PQ store's rows are summed by the same library's ``adc_gather``, one
call per modality, in the NumPy fallback's own order (sub-space by
sub-space from a float32 zero), so they carry the same bits on both
paths.  The other stacked-kernel rows (int8 stores, the zero-weight
fallback, dense Lemma-4 steps), thresholds, rerank and fusion are NumPy
on both paths, and bit-identical between them.

The engine is cut as *prepare → traverse → finalise* (:class:`_Wave`),
and a scanned row skips the middle step: it is scored end to end by the
same stacked call and selected directly (*prepare → scan → finalise*).
A row is scanned when the segmented layer says its beam covers the
segment, or when its own route pool would span the graph (below).

Queries finish independently: a query whose best unexpanded candidate
can no longer enter its result set leaves the wave, while stragglers
keep iterating.  Per-query :class:`~repro.core.query.Query` filters,
``k`` overrides, and the §IX deletion bitset apply at result-admission
— inadmissible vertices still route, so the graph stays connected
around the answer set.  Because they route, they also occupy routing
slots: a row's route pool is ``⌈l·n / reportable⌉`` wide, which keeps
about ``l`` admissible candidates in it however much of the graph the
row excludes (``l`` itself when it excludes nothing), and a row whose
pool would so reach ``n`` — ``l >= reportable`` with something
excluded — is scanned instead of traversed.

Determinism contract: every per-row reduction is independent of the
other rows, every query starts from the graph's own entry order
(:meth:`GraphIndex.entry_points`), and each query's pools are truncated
to the widths its *own* ``l`` and admissible count imply — so a query's
answer never depends on its wave-mates or on its position in the batch.
The per-query two-heap loop this engine replaced survives as the
oracle in ``tests/conftest.py``: at ``expansions_per_wave=1`` a lone
query that excludes nothing expands what it expands, in the same order
(``tests/test_index_search.py::TestHeapKernelParity``).
"""

from __future__ import annotations

import ctypes
from typing import Sequence

import numpy as np

from repro import native
from repro.core.multivector import MultiVector
from repro.core.query import FilterMemo, Query, unpack_query
from repro.core.results import SearchResult, SearchStats
from repro.core.weights import Weights
from repro.index.base import GraphIndex
from repro.index.scoring import StackedScorer, rerank_exact
from repro.sparse.hybrid import hybrid_union_rescore, sparse_plane
from repro.utils.topk import rank_order, top_k_sorted
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
    pools from its own ``k``/``l`` and admissible count, compiles its
    admission bitset, decides whether it is scanned and binds the
    scorer its rows are scored with.  :meth:`traverse` (Algorithm 2 in
    lockstep) and :meth:`scan` (its init taken over every vertex, and no
    waves) then fill the same per-row result pools through the same
    :meth:`score_stack`, and :meth:`finalise` turns the pools into
    answers — so a row's similarities carry the same bits whichever of
    the two filled its pool.
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
        scan: np.ndarray,
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
        #: rows filled by :meth:`scan`; the others traverse.
        self.scanned = scan.copy()

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
            self.cap_arr[i] = min(l_inner, reportable)
            self.alive[i] = reportable > 0
            # Excluded vertices route, so they take route-pool slots: a
            # pool of ⌈l·n / reportable⌉ holds about l admissible ones.
            # Where that reaches n the row's beam covers what it can
            # report, and the row is scanned instead.
            self.scanned[i] |= reportable < n and l_inner >= reportable
            self.width_arr[i] = (
                min(n, -(-l_inner * n // reportable))
                if reportable and not self.scanned[i]
                else min(l_inner, n)
            )

        self.stats_list = [SearchStats() for _ in range(b)]
        # A row is fast when its query has a concat vector (Lemma 1) and
        # no Lemma-4 scan is asked for; every other row is scored by one
        # stacked kernel per modality.
        qcats = [
            None if early_termination else space.concat_query(vec, w)
            for vec, w in zip(self.vectors, self.per_weights)
        ]
        self.fast = np.array([q is not None for q in qcats], dtype=bool)
        self.all_fast = bool(self.fast.all())
        self.stack = (
            None
            if self.all_fast
            else StackedScorer(
                space, self.vectors, self.per_weights, early_termination
            )
        )
        #: modalities a fast row's evaluation counts (the query's own).
        self.active_mods = np.array(
            [sum(v is not None for v in vec.vectors) for vec in self.vectors],
            dtype=np.int64,
        )
        #: the fast rows' joint evaluations (the stack counts its own).
        self.joint_acc = np.zeros(b, dtype=np.int64)
        self.hops = np.zeros(b, dtype=np.int64)
        self.concat_mat: np.ndarray | None = None
        self.qmat: np.ndarray | None = None
        #: the C gather-dot the fast rows are scored with, or None (einsum).
        self.kernel = native.lib
        if self.fast.any():
            self.concat_mat = space.concatenated
            self.qmat = np.zeros((b, self.concat_mat.shape[1]), dtype=np.float32)
            for i, qcat in enumerate(qcats):
                if qcat is not None:
                    self.qmat[i] = qcat
            # The kernel reads the matrix in place, so it trusts its layout.
            require(
                self.kernel is None
                or (
                    self.concat_mat.dtype == np.float32
                    and self.concat_mat.flags.c_contiguous
                ),
                "wave kernel: the concatenated matrix is not C-ordered float32",
            )

        # Result pools: per-row descending, padded with -inf, each row
        # cut to its own cap — what a batch of one would hold.
        self.width = int(self.width_arr.max()) if self.alive.any() else 1
        self.res_ids = np.zeros((b, self.width), dtype=np.int64)
        self.res_sims = np.full((b, self.width), -np.inf, dtype=np.float64)

    def score_stack(
        self, owner: np.ndarray, cand: np.ndarray, thr: np.ndarray
    ) -> np.ndarray:
        """Score one stacked frontier; below-threshold rows come back -inf.

        Two routes: one row-wise reduction covers every fast-path
        query's candidates (per-query weights already baked into its
        concat column, :meth:`dense`), and :class:`StackedScorer` covers
        the rest with one stacked kernel call per modality (per modality
        step under Lemma 4).
        """
        if self.all_fast:
            return self.dense(owner, cand, thr)
        assert self.stack is not None
        fast = self.fast[owner]
        if not fast.any():
            return self.stack.score(owner, cand, thr)
        rest = ~fast
        sims = np.empty(cand.size, dtype=np.float64)
        sims[fast] = self.dense(owner[fast], cand[fast], thr)
        sims[rest] = self.stack.score(owner[rest], cand[rest], thr)
        return sims

    def dense(
        self, owner: np.ndarray, cand: np.ndarray, thr: np.ndarray
    ) -> np.ndarray:
        """Fast-path similarities of ``(owner, cand)`` pairs, -inf where
        not above ``thr[owner]``; counted in :attr:`joint_acc`.

        The C gather-dot reads the concat rows and query rows in place
        under the module's float contract; without the kernel, ``einsum``
        reduces gathered copies of them.
        """
        assert self.concat_mat is not None and self.qmat is not None
        if self.kernel is None:
            sims = np.einsum(
                "ij,ij->i", self.concat_mat[cand], self.qmat[owner]
            ).astype(np.float64)
            self.joint_acc += np.bincount(owner, minlength=self.b)
            return np.where(sims > thr[owner], sims, -np.inf)
        concat, qmat = self.concat_mat, self.qmat
        owner = np.ascontiguousarray(owner, dtype=np.int64)
        cand = np.ascontiguousarray(cand, dtype=np.int64)
        thr = np.ascontiguousarray(thr, dtype=np.float64)
        sims = np.empty(cand.size, dtype=np.float64)
        native.check(
            self.kernel.gather_dot(
                concat.ctypes.data, concat.shape[0], concat.shape[1],
                qmat.ctypes.data, self.b, owner.ctypes.data, cand.ctypes.data,
                cand.size, thr.ctypes.data, self.joint_acc.ctypes.data,
                sims.ctypes.data,
            )
        )
        return sims

    def scan(self, rows: np.ndarray) -> None:
        """Fill *rows*' pools from Algorithm 2's init over every vertex.

        What :meth:`traverse` computes for a row once it has reached
        every vertex, without the hops: all ``n`` similarities, scored
        as the init scores its entry set, inadmissible vertices dropped
        and the row's top ``cap`` selected directly — no routing pool,
        visited bitset or CSR adjacency is touched.

        Every row goes through the traversal's own :meth:`score_stack`
        with the init's -inf threshold, so it carries the traversal's
        bits by construction — both routes reduce each row on its own.
        The one exception is a fast-path row without the kernel: its
        ``einsum`` runs over the concat matrix and the query rows as they
        lie (a gathered copy of every row would cost ``n × D`` floats per
        query), and its row-wise sums equal the traversal's ``einsum``
        bits.
        """
        if rows.size == 0:
            return
        n = self.index.n
        sims = np.empty((rows.size, n), dtype=np.float64)
        in_place = self.fast[rows] & (self.kernel is None)
        if in_place.any():
            assert self.concat_mat is not None and self.qmat is not None
            on = rows[in_place]
            sims[in_place] = np.einsum("nd,bd->bn", self.concat_mat, self.qmat[on])
            self.joint_acc[on] += n
        if not in_place.all():
            rest = rows[~in_place]
            sims[~in_place] = self.score_stack(
                np.repeat(rest, n),
                np.tile(np.arange(n, dtype=np.int64), rest.size),
                np.full(self.b, -np.inf),
            ).reshape(rest.size, n)
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
        kernel = native.lib
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

        A pool still filling up is not checked — an admitted vertex of
        negative similarity lowers its sum — so *last_total* holds a
        row's sum once its pool is full, -inf before.
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

    def finalise(self) -> list[SearchResult]:
        """Per query: top-k by (-sim, id) — one row-wise rank for the
        batch — then lexical fusion for a hybrid row or the optional
        exact rerank for a plain one."""
        index, space = self.index, self.index.space
        res_ids, res_sims = self.res_ids, self.res_sims
        # One row-wise rank for the batch: a row's -inf padding sorts
        # after its finite entries, which keep their per-row order.
        order = rank_order(res_ids, res_sims)
        taken = np.minimum(np.isfinite(res_sims).sum(axis=1), self.k_inner_arr)
        # A row is counted by the route that scored it, and only there.
        joint, modality = self.joint_acc, self.joint_acc * self.active_mods
        pruned = np.zeros(self.b, dtype=np.int64)
        if self.stack is not None:
            joint = joint + self.stack.joint_evals
            modality = modality + self.stack.modality_evals
            pruned = self.stack.pruned_early
        hops, evals = self.hops.tolist(), joint.tolist()
        modality_evals, pruned_early = modality.tolist(), pruned.tolist()
        results: list[SearchResult] = []
        for i, take in enumerate(taken.tolist()):
            stats = self.stats_list[i]
            stats.hops += hops[i]
            stats.visited_vertices += hops[i]
            stats.joint_evals += evals[i]
            stats.modality_evals += modality_evals[i]
            stats.pruned_early += pruned_early[i]
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
            key = owner * wave.index.n + cand
            _, first = np.unique(key, return_index=True)
            owner, cand = owner[first], cand[first]
        seen[owner, cand] = True
        return thr, owner, cand


class _NativeBookkeeping(_Bookkeeping):
    """The same two steps in ``native.c``: one ctypes call each
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
            native.WaveState(
                b=b, width=width, n=n, m=self.m_exp, row_cap=row_cap,
                excluded=ctypes.addressof(excluded),
                **{name: arr.ctypes.data for name, arr in arrays.items()},
            )
        )

    def expand(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        f = int(self.kernel.wave_expand(self.state))
        if f == -1:
            return None
        native.check(f)
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
        native.check(touched)
        return self.rows[:touched]


def bookkeeping() -> str:
    """Which bookkeeping :func:`graph_wave_search` runs: ``"native"``
    (the C kernel loaded) or ``"numpy"``."""
    return "numpy" if native.lib is None else "native"


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
    scan: Sequence[bool] | None = None,
) -> tuple[list[SearchResult], SearchStats]:
    """Lockstep batched Algorithm 2 over one fused graph.

    Each query starts from the first ``l`` of the graph's entry order,
    keeps a result set of ``min(l, reportable)`` admissible vertices,
    stops once its best unexpanded candidate cannot enter that set, and
    with ``refine=`` reranks its top ``refine·k`` at full precision.
    ``weights`` overrides the index weights at query time (Fig. 4(g)
    Option 2); a typed :class:`~repro.core.query.Query` carries
    per-query weights, a ``k`` override and an attribute ``filter``,
    whose excluded vertices route but never report.
    ``early_termination`` scores through the Lemma-4 incremental
    computation — the same ids, fewer modality evaluations;
    ``check_monotone`` asserts Lemma 3 on every merge.

    ``ks``/``ls`` are per-query overrides used by the segmented layer,
    which sizes each segment probe individually.  ``scan`` is its other
    per-query input: a flagged row takes Algorithm 2's init over *every*
    vertex and runs no waves (:meth:`_Wave.scan`) — the segmented layer
    flags the rows whose beam already covers the segment
    (:func:`~repro.index.segments.beam_covers`).  A row that excludes
    something and whose ``l`` reaches its admissible count is scanned
    whatever the flag says.  Everything else about the row — scorer,
    admission, pool cap, finalise — is unchanged.

    A hybrid query (``Query.sparse``) is a row of the wave like any
    other: its dense traversal fills a result pool of ``min(l,
    reportable)`` candidates, and *finalise* fuses them with the sparse
    scorer's own top admissible rows through
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
    expansions.  Admission uses the wave-entry threshold, which can
    only admit *more* than the per-expansion rule, so recall never
    drops below the ``m=1`` traversal.

    Returns ``(results, wave_stats)``: per-query
    :class:`~repro.core.results.SearchResult` (stats carry the usual
    per-query counters) plus one batch-level
    :class:`~repro.core.results.SearchStats` holding only ``waves`` and
    ``frontier_sizes`` — the observable amortisation.
    """
    return lockstep(
        index, queries, k, l, weights, early_termination, refine,
        check_monotone, filter_memo, ks, ls, expansions_per_wave, scan,
    )


def lockstep(
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
    scan: Sequence[bool] | None = None,
) -> tuple[list[SearchResult], SearchStats]:
    """:func:`graph_wave_search` itself, under a name ``perfbench``
    does not wrap: :func:`~repro.index.search.joint_search` runs its
    query here, so a lone query's time reads as its own."""
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
        index, queries, k, l, weights, early_termination, refine, filter_memo,
        ks, ls, scanned,
    )
    wave.scan(np.flatnonzero(wave.alive & wave.scanned))
    wave.traverse(
        wave.alive & ~wave.scanned, expansions_per_wave, check_monotone,
        wave_stats,
    )
    return wave.finalise(), wave_stats
