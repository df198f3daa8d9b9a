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

What a traversal works in — per-row arrays, result and route pools,
seen bitsets, the native ``wave_state`` and the row scorer's query
matrix — is kept per graph and taken per call (:class:`_Scratch`), not
allocated per call: *prepare* pops a scratch from the graph's free list
(:attr:`GraphIndex.spare`, which :meth:`GraphIndex.frozen` copies
share), grows it if the batch does not fit, re-stamps the native state
and resets what the kernel reads before it writes; *finalise* copies
the answers out and appends it back, unless the scratch has grown
larger than the graph's traversal constants (its CSR pair and entry
order).  A lone query is a batch of one on the same path, and
concurrent traversals each hold their own scratch.  The result pools
``wave_run`` leaves are sorted, so *finalise* slices each row's top
``k`` and ranks only a row whose head ties.

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
import math
import operator
from typing import Sequence

import numpy as np

from repro import native
from repro.core.multivector import MultiVector
from repro.core.query import FilterMemo, Query, unpack_query
from repro.core.results import SearchResult, SearchStats
from repro.core.weights import Weights
from repro.index.base import GraphIndex, TraversalConstants
from repro.index.scoring import RowScorer, ScorerScratch, rerank_exact
from repro.sparse.hybrid import hybrid_union_rescore, sparse_plane
from repro.utils.topk import rank_order, top_k_sorted
from repro.utils.validation import require

__all__ = ["graph_wave_search"]


class _Wave:
    """One batch prepared against one graph: *prepare* → fill → *finalise*.

    The constructor is *prepare*: it takes a scratch from the graph's
    free list (:class:`_Scratch`), unpacks every query, sizes its pools
    from its own ``k``/``l`` and admissible count, compiles its
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
        scan: Sequence[bool] | None,
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
        #: the scratch this wave took from the graph's free list;
        #: :meth:`finalise` gives it back.
        try:
            self.scratch = kept = index.spare.pop()
        except IndexError:
            self.scratch = kept = _Scratch(n)
        kept.size_rows(b)

        self.vectors: list[MultiVector] = []
        self.hybrid: list[Query | None] = []
        self.per_weights: list[Weights | None] = []
        self.excluded_by: list[np.ndarray | None] = []
        excl_cache: dict[int | None, np.ndarray | None] = {}
        self.k_arr = kept.k_arr
        self.k_inner_arr = kept.k_inner_arr
        self.cap_arr = kept.cap_arr
        self.width_arr = kept.width_arr
        self.l_inner_arr = kept.l_inner_arr
        #: rows with at least one reportable vertex; the rest answer empty.
        self.alive = kept.alive
        #: rows filled by :meth:`scan`; the others traverse.
        self.scanned = kept.scanned
        #: the alive ones among them, and the alive rows that traverse.
        self.to_scan: list[int] = []
        self.traversing = kept.traversing
        self.traversed = 0
        # The widest row's route pool is the pools' column count.
        width, alive = 1, False

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
            # Excluded vertices route, so they take route-pool slots: a
            # pool of ⌈l·n / reportable⌉ holds about l admissible ones.
            # Where that reaches n the row's beam covers what it can
            # report, and the row is scanned instead.
            scanned = (scan is not None and bool(scan[i])) or (
                reportable < n and l_inner >= reportable
            )
            row_width = (
                min(n, -(-l_inner * n // reportable))
                if reportable and not scanned
                else min(l_inner, n)
            )
            self.k_arr[i] = k_q
            self.k_inner_arr[i] = k_inner
            self.l_inner_arr[i] = l_inner
            self.cap_arr[i] = min(l_inner, reportable)
            self.alive[i] = reportable > 0
            self.scanned[i] = scanned
            self.width_arr[i] = row_width
            width = max(width, row_width)
            alive = alive or reportable > 0
            self.traversing[i] = traverses = reportable > 0 and not scanned
            self.traversed += traverses
            if scanned and reportable:
                self.to_scan.append(i)

        self.stats_list = [SearchStats() for _ in range(b)]
        #: scores every row, traversed or scanned, and counts its work.
        self.scorer = RowScorer(
            space, self.vectors, self.per_weights, scratch=kept.scorer
        )
        self.hops = kept.hops
        self.hops.fill(0)

        # Result pools: per-row descending, padded with -inf, each row
        # cut to its own cap — what a batch of one would hold.
        self.width = width if alive else 1
        kept.size_pools(self.width)
        self.res_ids, self.res_sims = kept.res_ids, kept.res_sims
        self.res_ids.fill(0)
        self.res_sims.fill(-np.inf)

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
        frontier_sizes = _Bookkeeping(self, active, expansions_per_wave).run()
        wave_stats.waves += len(frontier_sizes)
        wave_stats.frontier_sizes += tuple(frontier_sizes)

    def finalise(self) -> list[SearchResult]:
        """Per query: top-k by (-sim, id), then the optional exact rerank
        for a plain row; then one lexical fusion of every alive hybrid
        row (:func:`~repro.sparse.hybrid.hybrid_union_rescore`); then the
        scratch goes back to the graph's free list if it is within its
        :attr:`_Scratch.limit`.

        A pool is kept best first — every merge is stable and a scan
        selects by (-sim, id) — so a row's top k is its first k columns.
        Only where the similarities tie among them or with the next
        column can the two orders part, since a merge keeps an older
        entry ahead of an equal newcomer: such a row is ranked."""
        index, space = self.index, self.index.space
        res_ids, res_sims = self.res_ids, self.res_sims
        k_inner = self.k_inner_arr.tolist()
        heads = res_sims[:, : max(k_inner) + 1].tolist()
        scorer = self.scorer
        hops, evals = self.hops.tolist(), scorer.evals.tolist()
        results: list[SearchResult] = []
        fused: list[int] = []  # the alive hybrid rows, in row order
        pools: list[np.ndarray] = []
        for i, head in enumerate(heads):
            stats = self.stats_list[i]
            stats.hops += hops[i]
            stats.visited_vertices += hops[i]
            stats.joint_evals += evals[i]
            stats.modality_evals += evals[i] * scorer.mods[i]
            # The row's finite columns, cut to k_inner: padding is -inf.
            take = min(k_inner[i], len(head))
            while take and head[take - 1] == -np.inf:
                take -= 1
            if any(map(operator.eq, head[:take], head[1 : take + 1])):
                top = rank_order(res_ids[i], res_sims[i], take)
                ids_o, sims_o = res_ids[i, top], res_sims[i, top]
            else:  # copies: the pools are the next traversal's scratch
                ids_o, sims_o = res_ids[i, :take].copy(), np.array(head[:take])
            if self.hybrid[i] is not None:
                if self.alive[i]:
                    fused.append(i)
                    pools.append(ids_o)
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
        if fused:
            answers = hybrid_union_rescore(
                space,
                [self.hybrid[i] for i in fused],
                pools,
                [min(int(self.k_arr[i]), index.num_active) for i in fused],
                [
                    None if self.excluded_by[i] is None else ~self.excluded_by[i]
                    for i in fused
                ],
                [self.per_weights[i] for i in fused],
                [self.stats_list[i] for i in fused],
            )
            for i, (ids_o, sims_o) in zip(fused, answers):
                results[i] = SearchResult(
                    ids=ids_o, similarities=sims_o, stats=self.stats_list[i]
                )
        if self.scratch.nbytes <= self.scratch.limit:
            index.spare.append(self.scratch)
        return results


class _Bookkeeping:
    """One traversal's routing state, over arrays of the wave's scratch
    (the CSR pair is only read), and :meth:`run`, which takes the init
    and every wave in one ``native.c`` call, ``wave_run``: per wave,
    ``wave_expand``'s steps pick each active row's next expansions and
    gather their unvisited neighbours into an owner-sorted frontier, the
    wave's :class:`~repro.index.scoring.RowScorer` scores it, and
    ``wave_merge``'s steps fold it into the route and result pools.

    The routing pools are each row best first and truncated to its own
    width after every merge, so a query's state is exactly what a batch
    of one would hold — composition independence.  The arrays and the
    native state are kept per graph and taken per traversal, not
    allocated per traversal (:class:`_Scratch`): the constructor
    re-stamps the state, sets the active flags and the excluded bitsets'
    addresses and records the traversal constants' size as the scratch's
    keep limit, and ``wave_run`` empties the route pools and seen bitsets
    before its init."""

    def __init__(self, wave: _Wave, active: np.ndarray, expansions_per_wave: int):
        self.wave = wave
        self.m_exp = int(expansions_per_wave)
        #: the graph's traversal constants, built once per graph.
        self.graph = graph = wave.index.traversal_constants()
        kept = wave.scratch
        # A row gathers at most min(m, width) adjacency lists a wave,
        # and never a vertex twice.
        row_cap = min(wave.n, min(self.m_exp, wave.width) * graph.max_degree)
        kept.size_fronts(row_cap)
        kept.bind(wave, graph)
        kept.limit = graph.nbytes
        self.state = kept.pointer
        kept.state.m = self.m_exp
        self.route_ids, self.route_sims = kept.route_ids, kept.route_sims
        self.route_dead, self.seen = kept.route_dead, kept.seen
        self.active, self.thr, self.rows = kept.active, kept.thr, kept.rows
        self.owner, self.cand = kept.owner, kept.cand
        self.init_len, self.sizes = kept.init_len, kept.sizes
        # The route pools and seen bitsets hold the last traversal's
        # state: ``wave_run`` empties them itself.
        self.active[:] = active
        # Rows sharing a bitset (a filter, the deletion bitset) share
        # its address.
        excluded = kept.excluded
        excluded.fill(0)
        bitsets: dict[int, np.ndarray] = {}
        for i, e in enumerate(wave.excluded_by):
            if e is not None:
                e = bitsets.setdefault(id(e), np.ascontiguousarray(e, dtype=bool))
                excluded[i] = e.ctypes.data
        # Everything the state points into stays referenced by self.
        self._keep = bitsets
        # The kernel trusts these: the bitsets' shapes are checked here,
        # once a traversal, and ids arriving per call are checked in C.
        if bitsets:
            require(
                all(e.shape == (wave.n,) for e in bitsets.values()),
                "wave kernel: malformed traversal state",
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
        kept = wave.scratch
        waves = int(
            native.lib.wave_run(
                self.state, self.graph.entry_ptr, kept.at["init_len"],
                wave.scorer.state, kept.at["sizes"], self.sizes.size,
            )
        )
        native.check(waves)
        return self.sizes[:waves].tolist()


class _Scratch:
    """The arrays one traversal of one graph works in, kept between
    traversals: the wave's per-row arrays and result pools
    (:class:`_Wave`), the routing state and the native ``wave_state``
    over it (:class:`_Bookkeeping`) and the row scorer's
    (:class:`~repro.index.scoring.ScorerScratch`).

    A graph's free list (:attr:`GraphIndex.spare`) holds them: a
    traversal pops one or builds one, and :meth:`_Wave.finalise` appends
    it back, so every thread traversing a graph or its frozen copies
    works in its own.  Each array lives in a buffer grown to the largest
    batch met; :meth:`size_rows`, :meth:`size_pools` and
    :meth:`size_fronts` carve this batch's views from them, and
    :meth:`bind` stamps the native state's fields every traversal.

    A scratch goes back to the free list only while it is no larger
    than :attr:`limit`: the bytes of the traversal constants the graph
    keeps beside it (CSR pair and entry order,
    :meth:`GraphIndex.traversal_constants`), which each traversal on it
    records.  What a graph keeps for one traversal is then bounded by
    what it already keeps for all of them, not by the largest batch it
    met, and a graph that is only ever scanned keeps none, as it builds
    no constants."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.scorer = ScorerScratch()
        self.state = native.WaveState(n=n)
        self.pointer = ctypes.pointer(self.state)
        self._bufs: dict[str, np.ndarray] = {}
        #: each buffer's address, read when it was allocated.
        self.at: dict[str, int] = {}
        self._nbytes = 0
        #: the most bytes this scratch may hold and still be kept.
        self.limit = 0
        self.b = self.width = self.row_cap = -1
        self.sizes = self._view("sizes", np.int64, (n + 1,))

    @property
    def nbytes(self) -> int:
        return self._nbytes + self.scorer.nbytes

    def _view(self, name: str, dtype: type, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            self._nbytes -= 0 if buf is None else buf.nbytes
            buf = self._bufs[name] = np.empty(max(size, 1), dtype=dtype)
            self._nbytes += buf.nbytes
            self.at[name] = native.address(buf)
        return buf[:size].reshape(shape)

    def size_rows(self, b: int) -> None:
        """Per-row arrays and seen bitsets for *b* rows."""
        if b == self.b:
            return
        view = self._view
        for name in (
            "k_arr", "k_inner_arr", "cap_arr", "width_arr", "l_inner_arr",
            "hops", "excluded", "rows", "init_len",
        ):
            setattr(self, name, view(name, np.int64, (b,)))
        self.thr = view("thr", np.float64, (b,))
        self.alive = view("alive", np.bool_, (b,))
        self.scanned = view("scanned", np.bool_, (b,))
        self.traversing = view("traversing", np.bool_, (b,))
        self.active = view("active", np.bool_, (b,))
        self.seen = view("seen", np.bool_, (b, self.n))
        self.b, self.width, self.row_cap = b, -1, -1

    def size_pools(self, width: int) -> None:
        """The result and route pools, ``(b, width)`` each."""
        if width == self.width:
            return
        shape = (self.b, width)
        self.res_ids = self._view("res_ids", np.int64, shape)
        self.res_sims = self._view("res_sims", np.float64, shape)
        self.route_ids = self._view("route_ids", np.int64, shape)
        self.route_sims = self._view("route_sims", np.float64, shape)
        self.route_dead = self._view("route_dead", np.bool_, shape)
        self.width = width

    def size_fronts(self, row_cap: int) -> None:
        """The frontier's rows and ids: *row_cap* entries a row."""
        if row_cap == self.row_cap:
            return
        self.owner = self._view("owner", np.int64, (self.b * row_cap,))
        self.cand = self._view("cand", np.int64, (self.b * row_cap,))
        self.row_cap = row_cap

    def bind(self, wave: _Wave, graph: TraversalConstants) -> None:
        """Stamp the native state with this batch's shape, the graph's
        CSR pair, the scratch's addresses and those of the arrays *wave*
        holds (its own, unless a caller swapped them)."""
        b, width = self.b, self.width
        owned = (wave.width_arr, wave.cap_arr, wave.res_ids, wave.res_sims, wave.hops)
        # The kernel trusts these: shapes and layout are checked here.
        require(
            all(arr.flags.c_contiguous and arr.flags.writeable for arr in owned)
            and wave.res_ids.shape == wave.res_sims.shape == (b, width)
            and all(arr.shape == (b,) for arr in owned[:2] + owned[4:])
            and graph.flat.dtype == np.int32,
            "wave kernel: malformed traversal state",
        )
        at, state = self.at, self.state
        state.b, state.width, state.row_cap = b, width, self.row_cap
        state.flat, state.offsets = graph.flat_ptr, graph.offsets_ptr
        for name in (
            "active", "excluded", "route_ids", "route_sims", "route_dead",
            "seen", "thr", "owner", "cand", "rows",
        ):
            setattr(state, name, at[name])
        for name, arr in zip(
            ("width_arr", "cap_arr", "res_ids", "res_sims", "hops"), owned
        ):
            setattr(state, name, native.address(arr))


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
    scorer's own top admissible rows (cut to the query's ``k``) under
    the same deleted/filter admissibility the traversal enforced — one
    :func:`~repro.sparse.hybrid.hybrid_union_rescore` call for every
    alive hybrid row of the wave, whose dense rescore is one pass over
    all their candidates and answers each row as a wave of one would.
    The union rescore takes the place of ``refine=`` for such a row;
    plain rows in the same batch keep their arithmetic bit for bit.

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
    require(scan is None or len(scan) == b, "scan must flag every query")

    wave = _Wave(index, queries, k, l, weights, refine, filter_memo, ks, ls, scan)
    if wave.to_scan:
        wave.scan(np.array(wave.to_scan, dtype=np.int64))
    if wave.traversed:
        wave.traverse(wave.traversing, expansions_per_wave, wave_stats)
    return wave.finalise(), wave_stats
