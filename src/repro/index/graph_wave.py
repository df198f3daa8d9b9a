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
3. scores the whole stack at once, each row on its own — a fast-path
   query's row is one dot product with the ω-scaled concatenation, its
   weights baked into its own concat vector exactly as the exact wave
   does; every other row (a compressed store, a query that needs a
   modality the index weights zeroed) sums ``ω²·IP`` over the store's
   dense, int8 or PQ rows, modality by modality
   (:class:`~repro.index.scoring.RowScorer`),
4. scatters the scores back into per-query result pools, visited
   bitsets, and routing pools.

Steps 1, 2 and 4 are bookkeeping — choosing columns, gathering ids,
stable merges — and step 3 is all the arithmetic there is.  All four
run in the C library :mod:`repro.native` builds at import, and a
traversal, whatever its rows, is one ctypes call, ``wave_run``, for its
init and every wave (:class:`_Bookkeeping`).  The test suite steps the
same kernels one call at a time, and pins ``wave_run`` against that
loop and the bookkeeping against its NumPy oracle.  The arithmetic
comes with a float contract (``native.c``'s header): a fast-path row's
similarity is the float32 dot product of its ω-scaled concatenation
with the query's, summed in eight lane accumulators that start at
``+0.0f``, ``a[d mod 8] += fl(x[d]·q[d])`` for ``d = 0 … D−1`` in
order, combined as ``((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))`` and widened
to float64 — no FMA, no reassociation; a dense or int8 modality row
runs the same lanes (an int8 row over its codes, plus its offset), and
a PQ row sums its tables sub-space by sub-space from a float32 zero.
The same call scores traversed and scanned rows, so a row carries the
same bits either way.  Thresholds, rerank and fusion are NumPy.

The engine is cut as *prepare → traverse → finalise* (:class:`_Wave`),
and a scanned row skips the middle step: it is scored end to end by the
same scorer and selected directly (*prepare → scan → finalise*).
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
from itertools import accumulate
from typing import Sequence

import numpy as np

from repro import native
from repro.core.multivector import MultiVector
from repro.core.query import FilterMemo, Query, unpack_query
from repro.core.results import SearchResult, SearchStats
from repro.core.weights import Weights
from repro.index.base import GraphIndex
from repro.index.scoring import RowScorer, rerank_exact
from repro.sparse.hybrid import hybrid_union_rescore, sparse_plane
from repro.utils.topk import rank_order, top_k_sorted
from repro.utils.validation import require

__all__ = ["graph_wave_search"]


class _Wave:
    """One batch prepared against one graph: *prepare* → fill → *finalise*.

    The constructor is *prepare*: it unpacks every query, sizes its
    pools from its own ``k``/``l`` and admissible count, compiles its
    admission bitset, decides whether it is scanned and binds the
    scorer its rows are scored with.  :meth:`traverse` (Algorithm 2 in
    lockstep) and :meth:`scan` (its init taken over every vertex, and no
    waves) then fill the same per-row result pools through the same
    :class:`~repro.index.scoring.RowScorer`, and :meth:`finalise` turns
    the pools into answers — so a row's similarities carry the same bits
    whichever of the two filled its pool.
    """

    def __init__(
        self,
        index: GraphIndex,
        queries: Sequence[MultiVector | Query],
        k: int,
        l: int,
        weights: Weights | None,
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
        num_active = n if index.deleted is None else index.num_active
        self.index = index
        self.b = b
        self.n = n
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
            if l_q < k_q:  # not require(): no message formatted per query
                raise ValueError(f"result set size l={l_q} must be at least k={k_q}")
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
        #: scores every row, traversed or scanned, and counts its work.
        self.scorer = RowScorer(space, self.vectors, self.per_weights)
        self.hops = np.zeros(b, dtype=np.int64)

        # Result pools: per-row descending, padded with -inf, each row
        # cut to its own cap — what a batch of one would hold.
        self.width = int(self.width_arr.max()) if self.alive.any() else 1
        self.res_ids = np.zeros((b, self.width), dtype=np.int64)
        self.res_sims = np.full((b, self.width), -np.inf, dtype=np.float64)

    def scan(self, rows: np.ndarray) -> None:
        """Fill *rows*' pools from Algorithm 2's init over every vertex.

        What :meth:`traverse` computes for a row once it has reached
        every vertex, without the hops: all ``n`` similarities, scored
        as the init scores its entry set, inadmissible vertices dropped
        and the row's top ``cap`` selected directly — no routing pool,
        visited bitset or CSR adjacency is touched.

        Every row goes through the traversal's own scorer with the
        init's -inf threshold, so it carries the traversal's bits by
        construction — the scorer reduces each row on its own.
        """
        if rows.size == 0:
            return
        n = self.n
        sims = self.scorer.score(
            np.repeat(rows, n),
            np.tile(np.arange(n, dtype=np.int64), rows.size),
            np.full(self.b, -np.inf),
        ).reshape(rows.size, n)
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
        wave_stats: SearchStats,
    ) -> None:
        """Fill the pools of the rows flagged in *active* by lockstep
        beam search — the init and every wave in one native call
        (:meth:`_Bookkeeping.run`) — logging waves and frontier sizes to
        *wave_stats*."""
        if not active.any():
            return
        frontier_sizes = _Bookkeeping(self, active, expansions_per_wave).run()
        wave_stats.waves += len(frontier_sizes)
        wave_stats.frontier_sizes += tuple(frontier_sizes)

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
        scorer = self.scorer
        hops, evals = self.hops.tolist(), scorer.evals.tolist()
        modality_evals = (scorer.evals * scorer.mods).tolist()
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
    """One traversal's routing state, over arrays it owns (the CSR pair
    is only read), and :meth:`run`, which takes the init and every wave
    in one ``native.c`` call, ``wave_run``: per wave, ``wave_expand``'s
    steps pick each active row's next expansions and gather their
    unvisited neighbours into an owner-sorted frontier, the wave's
    :class:`~repro.index.scoring.RowScorer` scores it, and
    ``wave_merge``'s steps fold it into the route and result pools.

    The routing pools are each row best first and truncated to its own
    width after every merge, so a query's state is exactly what a batch
    of one would hold — composition independence.  Every array the
    kernel writes but the wave's own pools and counters is carved from
    one allocation, 8-byte columns first, so a traversal's scratch costs
    one allocation and one address read."""

    def __init__(self, wave: _Wave, active: np.ndarray, expansions_per_wave: int):
        self.wave = wave
        self.m_exp = int(expansions_per_wave)
        #: the graph's traversal constants, built once per graph.
        self.graph = graph = wave.index.traversal_constants()
        b, width, n = wave.b, wave.width, wave.n
        # A row gathers at most min(m, width) adjacency lists a wave,
        # and never a vertex twice.
        row_cap = min(n, min(self.m_exp, width) * graph.max_degree)
        pool, fronts = b * width, b * row_cap
        # One allocation: the 8-byte columns — route ids, excluded
        # addresses, route sims, owner, cand, thr, rows, init lengths,
        # wave sizes — then the byte ones: dead route columns, active
        # flags, seen bitsets.  Only what the kernel reads before
        # writing is initialised.
        ends = list(accumulate((pool, b, pool, fronts, fronts, b, b, b, n + 1)))
        starts = [0, *ends[:-1]]
        flags = 8 * ends[-1]
        block = np.empty(flags + pool + b + b * n, dtype=np.uint8)
        ints = block[:flags].view(np.int64)
        ints[: pool + b] = 0  # route ids, excluded (NULL)
        (
            route_ids, excluded, route_sims, self.owner, self.cand, thr,
            self.rows, self.init_len, self.sizes,
        ) = [ints[lo:hi] for lo, hi in zip(starts, ends)]
        base = native.address(block)
        (
            route_ids_at, excluded_at, route_sims_at, owner_at, cand_at,
            thr_at, rows_at, self.init_len_at, self.sizes_at,
        ) = [base + 8 * lo for lo in starts]
        dead_at = base + flags
        active_at, seen_at = dead_at + pool, dead_at + pool + b
        self.route_ids = route_ids.reshape(b, width)
        self.route_sims = route_sims.view(np.float64).reshape(b, width)
        self.route_sims.fill(-np.inf)
        self.thr = thr.view(np.float64)
        self.route_dead = block[flags : flags + pool].view(bool).reshape(b, width)
        self.route_dead.fill(True)
        self.active = block[flags + pool : flags + pool + b].view(bool)
        self.active[:] = active
        self.seen = block[flags + pool + b :].view(bool).reshape(b, n)
        self.seen.fill(False)
        # Rows sharing a bitset (a filter, the deletion bitset) share
        # its address.
        bitsets: dict[int, np.ndarray] = {}
        for i, e in enumerate(wave.excluded_by):
            if e is not None:
                e = bitsets.setdefault(id(e), np.ascontiguousarray(e, dtype=bool))
                excluded[i] = e.ctypes.data
        # Everything the state points into stays referenced by self.
        self._keep = (block, bitsets)
        # The kernel trusts these: shapes and layout are checked here,
        # once a traversal, and ids arriving per call are checked in C.
        require(
            all(
                arr.flags.c_contiguous
                for arr in (
                    wave.width_arr, wave.cap_arr, wave.res_ids, wave.res_sims,
                    wave.hops,
                )
            )
            and wave.res_sims.shape == (b, width)
            and all(e.shape == (n,) for e in bitsets.values())
            and graph.flat.dtype == np.int32,
            "wave kernel: malformed traversal state",
        )
        self.state = ctypes.pointer(
            native.WaveState(
                b=b, width=width, n=n, m=self.m_exp, row_cap=row_cap,
                flat=graph.flat_ptr, offsets=graph.offsets_ptr,
                width_arr=native.address(wave.width_arr),
                cap_arr=native.address(wave.cap_arr),
                active=active_at, excluded=excluded_at, route_ids=route_ids_at,
                route_sims=route_sims_at, route_dead=dead_at,
                res_ids=native.address(wave.res_ids),
                res_sims=native.address(wave.res_sims),
                seen=seen_at, hops=native.address(wave.hops), thr=thr_at,
                owner=owner_at, cand=cand_at, rows=rows_at,
            )
        )

    def run(self) -> list[int]:
        """The init and every wave, scored and merged in one call; the
        waves' frontier sizes."""
        wave = self.wave
        # Each traversed row's init is the first min(l, n) vertices of
        # the entry order; the rest take none.
        np.minimum(wave.l_inner_arr, wave.n, out=self.init_len)
        self.init_len *= self.active
        # No row expands a vertex twice, and a row that expands nothing
        # never expands again: at most n waves.
        waves = int(
            native.lib.wave_run(
                self.state, self.graph.entry_ptr, self.init_len_at,
                wave.scorer.state, self.sizes_at, self.sizes.size,
            )
        )
        native.check(waves)
        return self.sizes[:waves].tolist()


def graph_wave_search(
    index: GraphIndex,
    queries: Sequence[MultiVector | Query],
    k: int,
    l: int,
    weights: Weights | None = None,
    refine: int | None = None,
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
        index, queries, k, l, weights, refine, filter_memo, ks, ls,
        expansions_per_wave, scan,
    )


def lockstep(
    index: GraphIndex,
    queries: Sequence[MultiVector | Query],
    k: int,
    l: int,
    weights: Weights | None = None,
    refine: int | None = None,
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
    if l < k:  # not require(): no message formatted per call
        raise ValueError(f"result set size l={l} must be at least k={k}")
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
        index, queries, k, l, weights, refine, filter_memo, ks, ls, scanned,
    )
    wave.scan(np.flatnonzero(wave.alive & wave.scanned))
    wave.traverse(wave.alive & ~wave.scanned, expansions_per_wave, wave_stats)
    return wave.finalise(), wave_stats
