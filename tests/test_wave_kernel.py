"""The lockstep wave's kernels in C against their NumPy oracles.

:mod:`repro.native` builds ``native.c`` at import (``import repro``
fails without a C compiler) and
:func:`~repro.index.graph_wave.graph_wave_search` runs every traversal
in one ``wave_run`` call: its init and every wave, each two steps of
bookkeeping around one call of the row scorer, ``score_rows``, which
scores every kind of row — the concatenation's, and a dense, int8 or PQ
store's modality by modality.  The oracles, and the step loop that makes
those calls one at a time, live in ``tests/oracles.py``.  The pins:

* **bit parity** — the step loop on the kernel's bookkeeping and on its
  NumPy oracle return the same ids, similarities, per-query counters,
  ``waves`` and ``frontier_sizes`` on every store, over every kind of
  row (deletions, shared and per-request filters, mixed ``ks`` /
  ``ls``, hybrid), one or eight expansions a wave, under the suite's
  Lemma 3 hook; the two bookkeepings leave the same state after every
  step, and whole answers agree on generated tiny graphs of every row
  kind, Lemma 3 checked on both; a pool entry stays ahead of an equal
  entrant;
* **one call per traversal** — ``wave_run``, which runs the init wave
  too, leaves the native step loop's pools, bitsets, counters, answers
  and frontier sizes bit for bit, over every kind of row, every store
  and mixed batches, and on generated tiny graphs (rows with init
  lengths of their own included), refuses a frontier-size buffer it
  would overflow, and refuses an init length or entry id out of range
  before writing anything;
* **the row contracts** — ``score_rows`` equals the lane oracle bit for
  bit on concatenation rows and int8 rows (signed zeros, subnormals,
  overflow, NaN, ``-inf`` thresholds, any width), the PQ sum on PQ rows
  (signed zeros, subnormals, infinities, any sub-space and centroid
  count), the NumPy row scorer on generated batches mixing every row
  kind, refuses out-of-range rows, and scores a scanned row with its
  traversal's bits;
* **the loader** — the source ships as package data and compiles
  warning-free; the kernel loaded; one ``event=native_kernel`` line says
  which file; no compiler, a failed build or an unwritable cache is an
  :class:`ImportError` that says which and leaves nothing behind, and
  ``import repro`` with no compiler on ``PATH`` fails naming it; a build
  under AddressSanitizer and UBSan runs the properties, and the build
  kernels' two, clean;
* **CSR safety** — a corrupt adjacency fails the first wave with the
  bad vertex named, instead of indexing out of bounds.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import itertools
import logging
import os
import re
import subprocess
import sys
import threading
import tomllib
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.framework import MUST
from repro.core.multivector import MultiVector, MultiVectorSet
from repro.core.query import Eq, In, Query, Range, SearchOptions
from repro.core.results import SearchStats
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index import graph_wave as gw
from repro.index.base import GraphIndex
from repro.index.graph_wave import graph_wave_search
from repro.index.scoring import RowScorer
from repro.sparse.synthetic import synthetic_hybrid
from repro.store import ModalityKernel, make_store
from repro.utils.io import load_arrays, save_arrays

from tests.oracles import (
    NativeBookkeeping,
    NumpyBookkeeping,
    adc_sum,
    kernel_ids,
    lane_sum,
    row_scores,
    step_loop,
    stepping,
)

N, D = 400, 16
K, L = 10, 48
B = 12

def _corpus(n=N, seed=0):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((n, D)).astype(np.float32) for _ in range(2)]
    mats = [v / np.linalg.norm(v, axis=1, keepdims=True) for v in mats]
    attrs = {
        "color": np.array(["red", "blue", "green", "grey"] * (n // 4)),
        "price": np.arange(n) % 50,
    }
    return MultiVectorSet(mats, attributes=attrs)


def _queries(b=B, seed=1):
    rng = np.random.default_rng(seed)
    return [
        MultiVector([rng.standard_normal(D).astype(np.float32) for _ in range(2)])
        for _ in range(b)
    ]


def kernel_and_oracle(run, monkeypatch):
    """``run()`` on the kernel's bookkeeping, then with the step loop on
    its NumPy oracle in the traversal's place."""
    got = run()
    with monkeypatch.context() as patch:
        patch.setattr(gw._Wave, "traverse", stepping(NumpyBookkeeping))
        want = run()
    return got, want


def lemma3_checked(run, monkeypatch):
    """``conftest.lemma3_checked``, imported when called: the sanitizer
    child imports this module with ``tests/`` itself on its path, where
    ``conftest`` is a top-level module and ``tests`` is no package."""
    from conftest import lemma3_checked as hook

    return hook(run, monkeypatch)


def kernel_and_oracle_checked(run, monkeypatch):
    """:func:`kernel_and_oracle` with Lemma 3 asserted on every merge."""
    return lemma3_checked(lambda: kernel_and_oracle(run, monkeypatch), monkeypatch)


def assert_same(got, want):
    (got_results, got_wave), (want_results, want_wave) = got, want
    assert got_wave.waves == want_wave.waves
    assert got_wave.frontier_sizes == want_wave.frontier_sizes
    assert len(got_results) == len(want_results)
    for g, w in zip(got_results, want_results):
        np.testing.assert_array_equal(g.ids, w.ids)
        assert g.similarities.dtype == w.similarities.dtype
        assert g.similarities.tobytes() == w.similarities.tobytes()
        assert g.stats == w.stats


@pytest.fixture(scope="module")
def objects():
    return _corpus()


@pytest.fixture(scope="module")
def queries():
    return _queries()


@pytest.fixture(scope="module", params=["none", "int8", "pq"])
def index(request, objects):
    must = MUST(objects, weights=Weights([0.6, 0.4]), compression=request.param)
    return must.build().index


def _rows(kind, queries, index):
    """``(graph, queries, extra graph_wave_search kwargs)`` for a row kind."""
    graph = index.frozen()
    if kind in ("deleted", "per_request_filters"):
        graph.mark_deleted(np.arange(3, N, 7))
    if kind == "shared_filter":
        red = Eq("color", "red")
        return graph, [Query(q, filter=red) for q in queries], {}
    if kind == "per_request_filters":
        filters = [
            Eq("color", "red"), In("color", ["blue", "grey"]),
            Range("price", low=10, high=30), None,
        ]
        return graph, [
            Query(q, filter=filters[i % 4], k=K + i % 3)
            for i, q in enumerate(queries)
        ], {}
    if kind == "ks_ls":
        # What a segment probe sends: per-row k and l, some l >= n / 2.
        ks = [K, 3, 20, 1] * (len(queries) // 4)
        ls = [L, 9, 220, 1] * (len(queries) // 4)
        return graph, queries, {"ks": ks, "ls": ls}
    return graph, queries, {}


class TestBitParity:
    """The kernel's bookkeeping against its oracle's, whole answers bit
    for bit: the scores are the same calls' on both (under the Lemma 3
    hook, both step)."""

    @pytest.mark.parametrize("m", [1, 8])
    @pytest.mark.parametrize(
        "kind",
        ["plain", "deleted", "shared_filter", "per_request_filters", "ks_ls"],
    )
    def test_rows_on_every_store(self, index, queries, kind, m, monkeypatch):
        graph, batch, extra = _rows(kind, queries, index)
        got, want = kernel_and_oracle_checked(
            lambda: graph_wave_search(
                graph, batch, k=K, l=L, expansions_per_wave=m,
                filter_memo={}, **extra,
            ),
            monkeypatch,
        )
        assert_same(got, want)
        assert got[1].waves > 0

    @pytest.mark.parametrize("m", [1, 8])
    @pytest.mark.parametrize("compression", ["none", "pq"])
    def test_hybrid_rows(self, compression, m, monkeypatch):
        data = synthetic_hybrid(
            num_queries=8, seed=3, n_topics=4, groups_per_topic=4,
            group_size=8, dim=24,
        )
        must = MUST(
            MultiVectorSet([data.dense.copy()], sparse=data.sparse),
            weights=Weights([1.0]),
            compression=compression,
        ).build()
        graph = must.index.frozen()
        graph.mark_deleted(np.arange(0, 24, 5))
        batch = [
            Query(
                MultiVector.from_arrays([data.query_dense[i]]),
                sparse=data.query_sparse[i] if i % 2 else None,
                sparse_weight=0.8,
            )
            for i in range(data.num_queries)
        ]
        got, want = kernel_and_oracle_checked(
            lambda: graph_wave_search(
                graph, batch, k=K, l=30, expansions_per_wave=m
            ),
            monkeypatch,
        )
        assert_same(got, want)

    def test_segmented_batch_and_plan(self, objects, queries, monkeypatch):
        must = MUST(objects, weights=Weights([0.6, 0.4])).build()
        inserted = _corpus(n=40, seed=9)
        must.insert(inserted)
        must.mark_deleted(np.array([3, 5, 7, 11]))
        options = SearchOptions(k=K, l=L)
        got, want = kernel_and_oracle_checked(
            lambda: must.query(queries, options), monkeypatch
        )
        assert got.plan == want.plan == "graph/wave"
        assert_same((list(got), got.stats), (list(want), want.stats))


class _Both:
    """Item assignment into several arrays at once."""

    def __init__(self, *arrays):
        self.arrays = arrays

    def __setitem__(self, key, value):
        for array in self.arrays:
            array[key] = value


class _Lockstep:
    """Both bookkeepings side by side, the NumPy oracle on the
    traversal's own wave and the kernel's on a twin holding copies of
    the result pools and hop counts; after every step every array the
    two write must hold the same bits — ids under -inf columns and dead
    flags included — and the traversal goes on with the oracle's
    outputs."""

    def __init__(self, wave, active, m):
        twin = copy.copy(wave)
        twin.res_ids, twin.res_sims = wave.res_ids.copy(), wave.res_sims.copy()
        twin.hops = wave.hops.copy()
        self.oracle = NumpyBookkeeping(wave, active, m)
        self.native = NATIVE(twin, active, m)
        self.seen = _Both(self.oracle.seen, self.native.seen)

    def check(self):
        a, b = self.oracle, self.native
        for name in ("route_ids", "route_sims", "route_dead", "seen"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        for name in ("res_ids", "res_sims", "hops"):
            want, got = getattr(a.wave, name), getattr(b.wave, name)
            assert want.tobytes() == got.tobytes(), name

    def expand(self):
        want, got = self.oracle.expand(), self.native.expand()
        assert (want is None) == (got is None)
        if want is not None:
            for w, g in zip(want, got):
                assert w.tobytes() == g.tobytes()
        self.check()
        return want

    def merge(self, owner, cand, sims):
        want = self.oracle.merge(owner, cand, sims)
        got = self.native.merge(owner.copy(), cand.copy(), sims.copy())
        np.testing.assert_array_equal(want, got)
        self.check()
        return want


NATIVE = NativeBookkeeping
BOOKKEEPING, TRAVERSE = gw._Bookkeeping, gw._Wave.traverse


@contextlib.contextmanager
def lockstep(book=_Lockstep):
    """Step every traversal on *book*, a :class:`_Lockstep`."""
    gw._Wave.traverse = stepping(book)
    try:
        yield
    finally:
        gw._Wave.traverse = TRAVERSE


@pytest.mark.parametrize("m", [1, 8])
@pytest.mark.parametrize(
    "kind", ["plain", "deleted", "per_request_filters", "ks_ls"]
)
def test_every_step_leaves_the_same_state(index, queries, kind, m):
    graph, batch, extra = _rows(kind, queries, index)
    with lockstep():
        graph_wave_search(
            graph, batch, k=K, l=L, expansions_per_wave=m, filter_memo={}, **extra
        )


@contextlib.contextmanager
def native_traversals(whole):
    """Run every traversal in one ``wave_run`` call (*whole*) or
    through the oracle step loop on the kernel's bookkeeping, and yield
    the list its bookkeepings are appended to, each holding the bytes it
    left (:attr:`left`) — taken as its traversal ends, since the arrays
    are the graph's kept scratch and the next traversal reuses them."""
    books = []

    class Recorded(NATIVE):
        def __init__(self, *args):
            super().__init__(*args)
            self.ran = None
            books.append(self)

        def run(self):
            self.ran = super().run()
            return self.ran

    inner = TRAVERSE if whole else stepping(Recorded)

    def traverse(wave, active, m, wave_stats):
        begun = len(books)
        inner(wave, active, m, wave_stats)
        for book in books[begun:]:
            book.left = {
                name: getattr(book, name).tobytes()
                for name in ("route_ids", "route_sims", "route_dead", "seen")
            } | {
                name: getattr(wave, name).tobytes()
                for name in ("res_ids", "res_sims", "hops")
            } | {"evals": wave.scorer.evals.tobytes()}

    if whole:
        gw._Bookkeeping = Recorded
    gw._Wave.traverse = traverse
    try:
        yield books
    finally:
        gw._Bookkeeping, gw._Wave.traverse = BOOKKEEPING, TRAVERSE


def assert_wave_run_is_the_step_loop(search):
    """``search()`` once with ``wave_run`` and once stepping: the same
    answers, wave counts and frontier sizes, and every traversal leaves
    the same pools, bitsets and counters — ids under -inf columns and
    dead flags included."""
    with native_traversals(whole=True) as whole:
        got = search()
    with native_traversals(whole=False) as stepped:
        want = search()
    assert_same(got, want)
    assert len(whole) == len(stepped)
    for a, b in zip(whole, stepped):
        assert a.ran is not None and b.ran is None
        assert a.left.keys() == b.left.keys()
        for name in a.left:
            assert a.left[name] == b.left[name], name
    return got


@pytest.fixture(scope="module")
def dense_index(objects):
    return MUST(objects, weights=Weights([0.6, 0.4])).build().index


@pytest.mark.parametrize("m", [1, 8])
@pytest.mark.parametrize(
    "kind",
    ["plain", "deleted", "shared_filter", "per_request_filters", "ks_ls"],
)
def test_wave_run_is_the_step_loop(dense_index, queries, kind, m):
    graph, batch, extra = _rows(kind, queries, dense_index)
    _, wave_stats = assert_wave_run_is_the_step_loop(
        lambda: graph_wave_search(
            graph, batch, k=K, l=L, expansions_per_wave=m, filter_memo={},
            **extra,
        )
    )
    assert wave_stats.waves > 0


@pytest.mark.parametrize("m", [1, 8])
@pytest.mark.parametrize("kind", ["plain", "per_request_filters", "ks_ls"])
def test_wave_run_is_the_step_loop_on_every_store(index, queries, kind, m):
    """int8 and PQ rows, and a dense store's, in the same one call."""
    graph, batch, extra = _rows(kind, queries, index)
    _, wave_stats = assert_wave_run_is_the_step_loop(
        lambda: graph_wave_search(
            graph, batch, k=K, l=L, expansions_per_wave=m, filter_memo={},
            **extra,
        )
    )
    assert wave_stats.waves > 0


def _mixed_rows(objects, queries):
    """A dense index whose weights zero modality 1, and a batch whose
    odd rows override the weights to need it: those rows have no concat
    vector and score modality by modality, beside concat rows."""
    graph = MUST(objects, weights=Weights([1.0, 0.0])).build().index
    override = Weights([0.5, 0.5])
    batch = [
        Query(q, weights=override) if i % 2 else Query(q)
        for i, q in enumerate(queries)
    ]
    assert [graph.space.concat_query(q.vector, q.weights) is None for q in batch] == [
        bool(i % 2) for i in range(len(batch))
    ]
    return graph, batch


@pytest.mark.parametrize("m", [1, 8])
def test_wave_run_is_the_step_loop_on_mixed_rows(objects, queries, m):
    graph, batch = _mixed_rows(objects, queries)
    _, wave_stats = assert_wave_run_is_the_step_loop(
        lambda: graph_wave_search(graph, batch, k=K, l=L, expansions_per_wave=m)
    )
    assert wave_stats.waves > 0


OVERFLOW = -3  # native.c's status for a full output buffer


def init_lengths(book):
    """Each row's init length, as ``_Bookkeeping.run`` passes
    them: the first ``min(l, n)`` of the entry order for a traversed
    row, none for the others."""
    wave = book.wave
    return np.where(book.active, np.minimum(wave.l_inner_arr, wave.index.n), 0)


def test_wave_run_refuses_a_full_size_buffer(dense_index, queries, monkeypatch):
    """A traversal with waves left and no room to log them is refused,
    not written past the buffer's end."""
    statuses = []

    class Full(NATIVE):
        def run(self):
            sizes = np.empty(0, dtype=np.int64)
            status = native.lib.wave_run(
                self.state, self.graph.entry_ptr, init_lengths(self).ctypes.data,
                self.wave.scorer.state, sizes.ctypes.data, 0,
            )
            statuses.append(status)
            native.check(status)

    monkeypatch.setattr(gw, "_Bookkeeping", Full)
    with pytest.raises(RuntimeError, match="refused"):
        graph_wave_search(dense_index, queries, k=K, l=L)
    assert statuses == [OVERFLOW]


def test_wave_run_refuses_a_full_buffer_on_an_empty_wave(
    dense_index, queries, monkeypatch
):
    """A wave that expands but finds every neighbour seen (a frontier of
    0) still takes a slot in the sizes buffer: met with the buffer full
    it is refused as OVERFLOW, not ended as a traversal of the waves
    logged so far."""
    for m, q in itertools.product((1, 8), queries):
        _, wave_stats = graph_wave_search(
            dense_index, [q], k=K, l=L, expansions_per_wave=m
        )
        if 0 in wave_stats.frontier_sizes:
            break
    else:
        pytest.fail("no lone query of the fixture has an empty wave")
    cap = wave_stats.frontier_sizes.index(0)
    statuses = []

    class Capped(NATIVE):
        def run(self):
            sizes = np.empty(cap + 1, dtype=np.int64)
            status = native.lib.wave_run(
                self.state, self.graph.entry_ptr, init_lengths(self).ctypes.data,
                self.wave.scorer.state, sizes.ctypes.data, cap,
            )
            statuses.append(status)
            native.check(status)

    monkeypatch.setattr(gw, "_Bookkeeping", Capped)
    with pytest.raises(RuntimeError, match="refused"):
        graph_wave_search(dense_index, [q], k=K, l=L, expansions_per_wave=m)
    assert statuses == [OVERFLOW]


def test_a_merge_writes_nothing_past_its_pools():
    """The kept scratch only grows, so a lone query's pools are the head
    of buffers a wider batch sized: ``wave_run`` and ``wave_merge`` write
    nothing past ``b * width`` in any of them.  The merge's own scratch
    is sized to the pool's width exactly, so a column loop that ran one
    past it is an out-of-bounds write the sanitizer child reports."""
    graph, rng = _tiny_graph(5, 40, 40, 6, "none")
    wide = _tiny_batch(rng, 4, "dense")
    wide = gw._Wave(graph, wide, 8, 30, None, None, None, None, None, None)
    # On the free list whatever its size: the buffers a wider batch grew.
    graph.spare[:] = [wide.scratch]
    batch = _tiny_batch(rng, 1, "dense")
    names = ("route_ids", "route_sims", "route_dead", "res_ids", "res_sims")
    for step in (False, True):
        wave = gw._Wave(graph, batch, 3, 5, None, None, None, None, None, None)
        book = NATIVE(wave, wave.alive.copy(), 2)
        kept = wave.scratch
        used = wave.b * wave.width
        tails = {}
        for name in names:
            buf = kept._bufs[name]
            assert buf.size > used, name  # the wide batch left room
            buf.view(np.uint8)[used * buf.itemsize :] = 0xA5
            tails[name] = buf[used:].tobytes()
        if step:
            step_loop(wave, book.active.copy(), 2, SearchStats(), lambda *a: book)
        else:
            book.run()
        for name in names:
            assert kept._bufs[name][used:].tobytes() == tails[name], name
        assert np.isfinite(wave.res_sims[0, :3]).all()
        graph.spare[:] = [kept]  # the same scratch for the next pass


@pytest.mark.parametrize(
    "owner, cand",
    [([1, 0], [5, 6]), ([0, 1, 0], [5, 6, 7]), ([0, B], [5, 6]), ([0, 0], [5, N])],
    ids=["rows out of order", "a row twice", "row out of range", "id out of range"],
)
def test_the_kernel_refuses_malformed_merges(index, queries, owner, cand):
    """Ids and rows reaching C are checked there, never trusted."""
    wave = gw._Wave(
        index, queries, K, L, None, None, None, None, None,
        np.zeros(len(queries), dtype=bool),
    )
    book = NATIVE(wave, wave.alive.copy(), 8)
    owner, cand = np.array(owner), np.array(cand)
    with pytest.raises(RuntimeError, match="refused"):
        book.merge(owner, cand, np.zeros(owner.size))


def test_a_pool_entry_stays_ahead_of_an_equal_entrant():
    """``merge_row``'s tie rule, on an entrant below the best one: the
    frontier (0.7 at 20, 0.5 at 21) enters a pool holding 0.9, 0.5 and
    0.3 at 10, 11 and 12, and the pool's 0.5 keeps its place ahead of
    the frontier's, in both pools, as in the NumPy oracle."""
    graph, rng = _tiny_graph(3, 30, 30, 4, "none", "dense")
    batch = [MultiVector([_small_ints(rng, 4)])]
    waves = [
        gw._Wave(graph, batch, 4, 4, None, None, None, None, None, np.zeros(1, bool))
        for _ in range(2)
    ]
    books = [
        NATIVE(waves[0], np.ones(1, bool), 8),
        NumpyBookkeeping(waves[1], np.ones(1, bool), 8),
    ]
    for book in books:
        book.route_ids[0] = book.wave.res_ids[0] = [10, 11, 12, 13]
        book.route_sims[0] = book.wave.res_sims[0] = [0.9, 0.5, 0.3, -np.inf]
        book.route_dead[0] = [False, False, False, True]
        book.merge(np.zeros(2, np.int64), np.array([20, 21]), np.array([0.7, 0.5]))
    for book in books:
        assert book.route_ids[0].tolist() == [10, 20, 11, 21]
        assert book.wave.res_ids[0].tolist() == [10, 20, 11, 21]
        assert book.route_sims[0].tolist() == [0.9, 0.7, 0.5, 0.5]
    native_book, oracle = books
    for name in ("route_ids", "route_sims", "route_dead"):
        assert getattr(native_book, name).tobytes() == getattr(oracle, name).tobytes()
    for name in ("res_ids", "res_sims"):
        assert getattr(waves[0], name).tobytes() == getattr(waves[1], name).tobytes()


# ----------------------------------------------------------------------
# The row contracts of score_rows (native.c's header).
# ----------------------------------------------------------------------
INVALID = -4  # native.c's status for an input out of range


def lane_oracle(x, q, owner, cand, thr):
    """The lane contract in NumPy (``oracles.lane_sum``), widened and
    cut at the row's threshold.  Slow, so it lives in the tests only."""
    sims = lane_sum(x[cand], q[owner]).astype(np.float64)
    with np.errstate(invalid="ignore"):
        return np.where(sims > thr[owner], sims, -np.inf)


def concat_scorer(x, q, evals):
    """A scorer whose rows are all concatenation rows: query row ``r``
    of *q* against the rows of *x*."""
    return native.ScorerState(
        b=q.shape[0], n=x.shape[0], concat=x.ctypes.data, dim=x.shape[1],
        qmat=q.ctypes.data, evals=evals.ctypes.data,
    )


def operand_scorer(kernel, evals):
    """A scorer over one :class:`~repro.store.ModalityKernel`: row ``r``
    is stack query ``r`` at ``ω² = 1``, so its score is its float32
    inner product, widened.  Returns the state and what it points
    into."""
    b = kernel.queries.shape[0]
    slot, w2, fast = np.arange(b), np.ones(b), np.zeros(b, np.uint8)
    offset = kernel.offset
    mods = (native.Operand * 1)(
        native.Operand(
            kind=kernel.kind, width=kernel.rows.shape[1],
            ncent=kernel.queries.shape[-1], rows=kernel.rows.ctypes.data,
            queries=kernel.queries.ctypes.data,
            offset=None if offset is None else offset.ctypes.data,
            slot=slot.ctypes.data, w2=w2.ctypes.data,
        )
    )
    state = native.ScorerState(
        b=b, n=kernel.rows.shape[0], fast=fast.ctypes.data, m=1, mods=mods,
        evals=evals.ctypes.data,
    )
    return state, (slot, w2, fast, kernel)


def score_rows(lib, state, owner, cand, thr, out):
    """One ``score_rows`` call over contiguous arrays; its status."""
    return lib.score_rows(
        ctypes.pointer(state), owner.ctypes.data, cand.ctypes.data, cand.size,
        thr.ctypes.data, out.ctypes.data,
    )


def widened(dots, owner, thr):
    """A one-operand row at ``ω² = 1``: ``+0.0 + 1.0·(double) dot``, cut
    at the row's threshold."""
    with np.errstate(invalid="ignore"):
        sims = 0.0 + 1.0 * dots.astype(np.float64)
        return np.where(sims > thr[owner], sims, -np.inf)


ROW_KINDS = ("normal", "signed zeros", "subnormal", "large", "nan", "mixed")


def _rows_of(rng, kinds, dim):
    """One float32 row per kind: ordinary values, ±0.0 only, subnormals,
    values whose products overflow, a NaN among ordinary values, or an
    element-wise mix of all of these."""
    rows = []
    for kind in kinds:
        nan = rng.standard_normal(dim)
        nan[rng.integers(dim)] = np.nan
        parts = {
            "normal": rng.standard_normal(dim),
            "signed zeros": rng.choice([0.0, -0.0], dim),
            "subnormal": rng.standard_normal(dim) * 1e-41,
            "large": rng.standard_normal(dim) * 3e37,
            "nan": nan,
        }
        if kind == "mixed":
            stack = np.stack(list(parts.values()))
            rows.append(stack[rng.integers(0, len(parts), dim), np.arange(dim)])
        else:
            rows.append(parts[kind])
    return np.asarray(rows, dtype=np.float32)


def _thresholds(rng, kinds, b):
    return np.array(
        [
            {"-inf": -np.inf, "nan": np.nan}.get(kind, rng.standard_normal())
            for kind in kinds[:b]
        ]
    )


THR_KINDS = st.lists(
    st.sampled_from(["-inf", "finite", "nan"]), min_size=4, max_size=4
)


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.one_of(st.integers(1, 17), st.integers(1, 300)),
    x_kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=10),
    q_kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=4),
    thr_kinds=THR_KINDS,
    f=st.integers(0, 40),
)
def test_gather_dot_is_the_lane_contract(seed, dim, x_kinds, q_kinds, thr_kinds, f):
    """A concatenation row equals the lane oracle bit for bit — signed
    zeros (a lane starts at +0.0), subnormals (nothing flushed),
    overflow and NaN (cut to -inf), widths below and off a multiple of
    eight — and counts each entry against its row."""
    rng = np.random.default_rng(seed)
    x, q = _rows_of(rng, x_kinds, dim), _rows_of(rng, q_kinds, dim)
    b = q.shape[0]
    thr = _thresholds(rng, thr_kinds, b)
    owner = rng.integers(0, b, f).astype(np.int64)
    cand = rng.integers(0, x.shape[0], f).astype(np.int64)
    evals = np.zeros(b, dtype=np.int64)
    out = np.empty(f)
    state = concat_scorer(x, q, evals)
    assert score_rows(native.lib, state, owner, cand, thr, out) == f
    want = lane_oracle(x, q, owner, cand, thr)
    assert out.tobytes() == want.tobytes()
    np.testing.assert_array_equal(evals, np.bincount(owner, minlength=b))


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.one_of(st.integers(1, 17), st.integers(1, 300)),
    n=st.integers(1, 10),
    q_kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=4),
    offset_kind=st.sampled_from(ROW_KINDS),
    thr_kinds=THR_KINDS,
    f=st.integers(0, 40),
)
def test_int8_rows_are_the_lane_contract(
    seed, dim, n, q_kinds, offset_kind, thr_kinds, f
):
    """An int8 row is the lane contract over its codes widened to
    float32 (``fl((float)code·q_scaled)``), plus the query's offset in
    one float32 add — the oracle's ``kernel_ids`` bit for bit, whatever
    the step-scaled query and the offset hold."""
    rng = np.random.default_rng(seed)
    q = _rows_of(rng, q_kinds, dim)
    b = q.shape[0]
    offset = _rows_of(rng, [offset_kind], b)[0]
    codes = rng.integers(0, 256, (n, dim)).astype(np.uint8)
    kernel = ModalityKernel(native.INT8_ROWS, codes, q, offset)
    thr = _thresholds(rng, thr_kinds, b)
    owner = rng.integers(0, b, f).astype(np.int64)
    cand = rng.integers(0, n, f).astype(np.int64)
    evals, out = np.zeros(b, dtype=np.int64), np.empty(f)
    state, _ = operand_scorer(kernel, evals)
    assert score_rows(native.lib, state, owner, cand, thr, out) == f
    want = widened(kernel_ids(kernel, cand, owner), owner, thr)
    assert out.tobytes() == want.tobytes()
    np.testing.assert_array_equal(evals, np.bincount(owner, minlength=b))


@pytest.mark.parametrize(
    "owner, cand",
    [([0, 3], [1, 2]), ([-1], [1]), ([0, 1], [1, 9]), ([0], [-1])],
    ids=["row past the end", "negative row", "id past the end", "negative id"],
)
def test_gather_dot_refuses_out_of_range_pairs(owner, cand):
    """Refused with INVALID before anything is read or written."""
    x, q = np.ones((9, 5), np.float32), np.ones((3, 5), np.float32)
    owner, cand = np.array(owner, np.int64), np.array(cand, np.int64)
    evals, out = np.zeros(3, np.int64), np.full(owner.size, 7.0)
    thr = np.full(3, -np.inf)
    state = concat_scorer(x, q, evals)
    assert score_rows(native.lib, state, owner, cand, thr, out) == INVALID
    assert not evals.any() and np.all(out == 7.0)


# ----------------------------------------------------------------------
# PQ rows: the oracle's sub-space sum (native.c's header).
# ----------------------------------------------------------------------
LUT_KINDS = ("normal", "signed zeros", "subnormal", "inf", "nan", "large")


def _lut_values(rng, kinds, shape):
    """float32 tables whose entries mix the named kinds element-wise:
    ordinary values, ±0.0, subnormals, ±inf, NaN, and values whose sums
    overflow."""
    parts = {
        "normal": rng.standard_normal(shape),
        "signed zeros": rng.choice([0.0, -0.0], shape),
        "subnormal": rng.standard_normal(shape) * 1e-41,
        "inf": rng.choice([np.inf, -np.inf], shape),
        "nan": np.full(shape, np.nan),
        "large": rng.standard_normal(shape) * 3e37,
    }
    stack = np.stack([parts[kind] for kind in kinds])
    pick = rng.integers(0, len(kinds), shape)
    return np.take_along_axis(stack, pick[None], axis=0)[0].astype(np.float32)


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    m_sub=st.one_of(st.integers(1, 4), st.integers(1, 40)),
    ncent=st.one_of(st.integers(1, 4), st.integers(1, 256)),
    n=st.integers(1, 30),
    b=st.integers(1, 4),
    f=st.integers(0, 40),
    kinds=st.lists(st.sampled_from(LUT_KINDS), min_size=1, max_size=6, unique=True),
)
def test_adc_gather_is_the_subspace_sum(seed, m_sub, ncent, n, b, f, kinds):
    """A PQ row is the oracle's ``adc_sum`` over a NumPy gather bit for
    bit — signed zeros (the sum starts at +0.0), subnormals (nothing
    flushed), infinities and overflow — for any sub-space and centroid
    count, widened and cut as every row is (a NaN sum, whatever its
    payload, is cut to -inf)."""
    rng = np.random.default_rng(seed)
    luts = _lut_values(rng, kinds, (b, m_sub, ncent))
    codes = rng.integers(0, ncent, (n, m_sub)).astype(np.uint8)
    owner = rng.integers(0, b, f).astype(np.int64)
    cand = rng.integers(0, n, f).astype(np.int64)
    evals, out = np.zeros(b, dtype=np.int64), np.empty(f)
    kernel = ModalityKernel(native.PQ_ROWS, codes, luts)
    state, _ = operand_scorer(kernel, evals)
    thr = np.full(b, -np.inf)
    assert score_rows(native.lib, state, owner, cand, thr, out) == f
    with np.errstate(all="ignore"):
        sums = adc_sum(luts[owner, np.arange(m_sub)[:, None], codes[cand].T])
    assert out.tobytes() == widened(sums, owner, thr).tobytes()


@pytest.mark.parametrize(
    "owner, cand",
    [([0, 3], [1, 2]), ([-1], [1]), ([0, 1], [1, 9]), ([0], [-1])],
    ids=["row past the end", "negative row", "id past the end", "negative id"],
)
def test_adc_gather_refuses_out_of_range_pairs(owner, cand):
    """Refused with INVALID before anything is read or written."""
    codes, luts = np.zeros((9, 5), np.uint8), np.ones((3, 5, 4), np.float32)
    owner, cand = np.array(owner, np.int64), np.array(cand, np.int64)
    evals, out = np.zeros(3, np.int64), np.full(owner.size, 7.0)
    state, _ = operand_scorer(ModalityKernel(native.PQ_ROWS, codes, luts), evals)
    thr = np.full(3, -np.inf)
    assert score_rows(native.lib, state, owner, cand, thr, out) == INVALID
    assert not evals.any() and np.all(out == 7.0)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["none", "int8", "pq"]),
    fallback=st.booleans(),
    concat=st.booleans(),
    b=st.integers(1, 5),
    f=st.integers(0, 60),
    thr_kinds=THR_KINDS,
)
def test_score_rows_is_the_row_oracle(
    seed, kind, fallback, concat, b, f, thr_kinds
):
    """A whole batch through ``RowScorer``: concatenation rows, and
    dense (zero-weight fallback), int8 and PQ rows with holes and weight
    overrides, summed in float64 modality by modality — the oracle's
    ``row_scores`` bit for bit, and the same work counts."""
    rng = np.random.default_rng(seed)
    dims, n = (5, 11), 24
    mats = [rng.standard_normal((n, d)).astype(np.float32) for d in dims]
    store = make_store(kind, mats, **({"pq_dims": 2} if kind == "pq" else {}))
    index_weights = Weights([1.0, 0.0] if fallback else [0.7, 0.3])
    space = JointSpace(MultiVectorSet.from_store(store), index_weights)
    queries, weights = [], []
    for _ in range(b):
        vecs = [rng.standard_normal(d).astype(np.float32) for d in dims]
        hole = int(rng.integers(0, 3))  # 2: no hole
        if hole < 2:
            vecs[hole] = None
        override = rng.random() < 0.5 or (fallback and hole == 0)
        queries.append(MultiVector(vecs))
        weights.append(Weights(rng.uniform(0.1, 1.0, 2)) if override else None)
    owner = rng.integers(0, b, f).astype(np.int64)
    cand = rng.integers(0, n, f).astype(np.int64)
    thr = _thresholds(rng, thr_kinds * 2, b)
    scorer = RowScorer(space, queries, weights, concat=concat)
    got = scorer.score(owner, cand, thr)
    want, evals, modality_evals = row_scores(
        space, queries, weights, owner, cand, thr, concat=concat
    )
    assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(scorer.evals, evals)
    np.testing.assert_array_equal(scorer.evals * scorer.mods, modality_evals)


def test_the_wave_raises_on_a_refused_gather(objects, queries):
    graph = MUST(objects, weights=Weights([0.6, 0.4])).build().index
    wave = gw._Wave(
        graph, queries, K, L, None, None, None, None, None,
        np.zeros(len(queries), dtype=bool),
    )
    refused = re.escape(f"refused its input (status {INVALID})")
    with pytest.raises(RuntimeError, match=refused):
        wave.scorer.score(np.array([0, B]), np.array([5, 6]), np.full(B, -np.inf))
    assert not wave.scorer.evals.any()


def _pool_bits(wave, row):
    """``{id: similarity bits}`` of one row's result pool."""
    sims, ids = wave.res_sims[row], wave.res_ids[row]
    keep = np.isfinite(sims)
    return dict(zip(ids[keep].tolist(), sims[keep].view(np.int64).tolist()))


def _filled(graph, batch, scan, traverse):
    """A prepared wave whose alive rows are all *traverse*d or all
    scanned, whatever the engine would pick."""
    wave = gw._Wave(
        graph, batch, K, L, None, None, {}, None, None,
        np.full(len(batch), scan),
    )
    if traverse:
        wave.traverse(wave.alive.copy(), 8, SearchStats())
    else:
        wave.scan(np.flatnonzero(wave.alive))
    return wave


@pytest.mark.parametrize("case", ["covered segment", "l >= reportable"])
def test_a_scanned_row_carries_its_traversals_bits(objects, queries, case):
    """"A scanned row equals its traversal" under the kernel: every
    vertex both fills hold the same similarity bits, since one
    scorer scores both."""
    graph = MUST(objects, weights=Weights([0.6, 0.4])).build().index
    batch, scan = queries, True
    if case == "l >= reportable":
        # A few dozen of 400 admissible: l = 48 reaches them all, so the
        # engine scans the rows whatever it is asked.
        few = Range("price", low=0, high=2)
        batch, scan = [Query(q, filter=few) for q in queries], False
    scanned = _filled(graph, batch, scan, traverse=False)
    assert scanned.scanned.all()
    traversed = _filled(graph, batch, scan, traverse=True)
    assert traversed.hops.all()
    shared = 0
    for row in range(len(batch)):
        a, b = _pool_bits(scanned, row), _pool_bits(traversed, row)
        common = a.keys() & b.keys()
        assert [a[i] for i in common] == [b[i] for i in common]
        shared += len(common)
    assert shared >= K * len(batch)


def _small_ints(rng, shape):
    """Integer-valued float32s: every dot product of two is exact, and
    the similarities tie everywhere."""
    return rng.integers(-4, 5, shape).astype(np.float32)


#: the tiny graphs' row kinds: a dense store's concatenation rows, an
#: int8 or a PQ store's rows, and a dense batch mixing concatenation
#: rows with zero-weight-fallback rows.
TINY_KINDS = ("dense", "int8", "pq", "mixed")


def _tiny_graph(seed, n, distinct, max_degree, deletion, kind="dense"):
    """A random graph over n vertices with isolated vertices and
    self-loops allowed, whose vectors repeat *distinct* rows of small
    integers — equal vectors score equal bits, and so do distinct ones
    with equal products, so ties are everywhere — stored as *kind*
    says.  A ``"mixed"`` graph has a second modality, which the index
    weights zero."""
    rng = np.random.default_rng(seed)
    pick = rng.integers(0, distinct, n)
    mats = [_small_ints(rng, (distinct, 4))[pick]]
    weights = Weights([1.0])
    if kind == "mixed":
        mats.append(_small_ints(rng, (distinct, 3))[pick])
        weights = Weights([1.0, 0.0])
    if kind in ("int8", "pq"):
        options = {"pq_dims": 2, "pq_iters": 2} if kind == "pq" else {}
        objects = MultiVectorSet.from_store(make_store(kind, mats, **options))
    else:
        objects = MultiVectorSet(mats)
    neighbors = [
        rng.choice(n, size=int(rng.integers(0, min(n, max_degree) + 1)), replace=False)
        for _ in range(n)
    ]
    graph = GraphIndex(
        JointSpace(objects, weights), neighbors, seed_vertex=int(rng.integers(n))
    )
    if deletion == "all but one" and n > 1:
        keep = int(rng.integers(n))
        graph.mark_deleted(np.delete(np.arange(n), keep))
    elif deletion == "some" and n > 2:
        graph.mark_deleted(rng.choice(n, size=n // 3, replace=False))
    return graph, rng


def _tiny_batch(rng, b, kind):
    """*b* queries of small integers; in a ``"mixed"`` batch every other
    one overrides the weights to need the zeroed modality."""
    if kind != "mixed":
        return [MultiVector([_small_ints(rng, 4)]) for _ in range(b)]
    both = Weights([1.0, 1.0])
    return [
        Query(MultiVector([_small_ints(rng, 4), _small_ints(rng, 3)]),
              weights=both if i % 2 else None)
        for i in range(b)
    ]


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 40),
    distinct=st.integers(1, 40),
    max_degree=st.integers(0, 8),
    deletion=st.sampled_from(["none", "some", "all but one"]),
    k=st.integers(1, 43),
    l_over=st.integers(0, 40),
    m=st.sampled_from([1, 2, 8]),
    b=st.integers(1, 4),
    kind=st.sampled_from(TINY_KINDS),
)
def test_tiny_graphs_agree(
    seed, n, distinct, max_degree, deletion, k, l_over, m, b, kind
):
    """k may exceed the admissible count and l the graph: the kernel's
    bookkeeping and its oracle answer short, identically, through
    identical states, and Lemma 3 holds on every merge of both."""
    graph, rng = _tiny_graph(seed, n, min(distinct, n), max_degree, deletion, kind)
    batch = _tiny_batch(rng, b, kind)

    def search():
        return graph_wave_search(
            graph, batch, k=k, l=k + l_over, expansions_per_wave=m
        )

    def in_lockstep():
        # Entered after the hook, so the hook wraps both bookkeepings
        # that _Lockstep drives, not _Lockstep itself.
        with lockstep():
            return search()

    # A fresh MonkeyPatch: hypothesis reruns the body, which a
    # function-scoped fixture would outlive.
    assert_same(
        lemma3_checked(in_lockstep, pytest.MonkeyPatch()),
        lemma3_checked(search, pytest.MonkeyPatch()),
    )


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 40),
    distinct=st.integers(1, 40),
    max_degree=st.integers(0, 8),
    deletion=st.sampled_from(["none", "some", "all but one"]),
    k=st.integers(1, 43),
    l_over=st.integers(0, 40),
    m=st.sampled_from([1, 2, 8]),
    b=st.integers(1, 4),
    per_row=st.booleans(),
    kind=st.sampled_from(TINY_KINDS),
)
def test_wave_run_is_the_step_loop_on_tiny_graphs(
    seed, n, distinct, max_degree, deletion, k, l_over, m, b, per_row, kind
):
    """Isolated vertices, self-loops, ties everywhere, rows that answer
    short, every row kind and mixed batches, and with *per_row* each row
    its own ``k`` and ``l`` (``l`` often past ``n``), so init lengths
    differ row by row: ``wave_run``, init included, still leaves the
    step loop's bits."""
    graph, rng = _tiny_graph(seed, n, min(distinct, n), max_degree, deletion, kind)
    batch = _tiny_batch(rng, b, kind)
    rows = {}
    if per_row:
        ks = rng.integers(1, 44, b)
        rows = dict(ks=ks.tolist(), ls=(ks + rng.integers(0, 2 * n, b)).tolist())
    assert_wave_run_is_the_step_loop(
        lambda: graph_wave_search(
            graph, batch, k=k, l=k + l_over, expansions_per_wave=m, **rows
        )
    )


#: ``native.c``'s insertion-sort run: ``order_ids`` merge-sorts a row's
#: share of a wave's frontier (``sort_ids``) when it holds more than RUN
#: ids spread over at least 8 64-bit words per id, and walks a bitset
#: otherwise.
RUN = 8


def _banded_graph(n, degree, seed=22):
    """*n* vertices whose *degree* neighbours all lie among the 256
    lowest and the 256 highest ids, so a frontier share of more than RUN
    ids spans nearly the whole id range."""
    rng = np.random.default_rng(seed)
    objects = MultiVectorSet(
        [rng.standard_normal((n, 8)).astype(np.float32)], normalize=True
    )
    band = np.concatenate([np.arange(256), np.arange(n - 256, n)])
    neighbors = [rng.choice(band, size=degree, replace=False) for _ in range(n)]
    graph = GraphIndex(JointSpace(objects, Weights([1.0])), neighbors, seed_vertex=0)
    return graph, rng


@pytest.mark.parametrize(
    "n, degree, m, levels",
    [(6_000, 5, 2, 1), (13_000, 8, 3, 2)],
    ids=["one-merge", "two-merges"],
)
def test_a_spread_frontier_is_merge_sorted(n, degree, m, levels):
    """Frontier shares too spread for the bitset reach ``sort_ids``'
    merge half (more than ``RUN * 2**(levels - 1)`` ids take *levels*
    merges): at every step the kernel's frontier, each row's ids
    ascending, is the oracle's bit for bit, and ``wave_run`` answers as
    the step loop does.

    Two mutants of ``sort_ids`` change no output, so no test kills them:
    ``n <= RUN`` → ``n < RUN`` merge-sorts a run of exactly RUN ids from
    two insertion-sorted halves, which is the same ascending order; and
    ``y < x`` → ``y <= x`` changes nothing because a share's ids are
    distinct (each is marked seen as the share takes it)."""
    graph, rng = _banded_graph(n, degree)
    batch = [MultiVector([rng.standard_normal(8).astype(np.float32)]) for _ in range(8)]
    shares = []

    class Recorded(_Lockstep):
        def expand(self):
            step = super().expand()
            if step is not None:
                _, owner, cand = step
                for row in np.unique(owner):
                    ids = cand[owner == row]
                    shares.append((ids.size, (ids.max() >> 6) - (ids.min() >> 6)))
            return step

    def search():
        return graph_wave_search(graph, batch, k=K, l=L, expansions_per_wave=m)

    with lockstep(Recorded):
        stepped = search()
    assert_same(search(), stepped)
    merged = [size for size, words in shares if size > RUN and words >= 8 * size]
    assert len(merged) >= 20 and max(merged) > RUN * 2 ** (levels - 1)


def test_wave_run_refuses_an_init_out_of_range():
    """An init length outside ``[0, n]``, an entry id outside ``[0,
    n)`` or a scorer of another batch is refused with INVALID before
    anything is written — pools, bitsets, scratch and counters keep
    their bytes — and no read goes past the entry order's n ids (the
    sanitizer child runs this too)."""
    graph, rng = _tiny_graph(7, 12, 12, 4, "none")
    n = graph.n
    batch = [MultiVector([_small_ints(rng, 4)]) for _ in range(3)]
    entry = graph.entry_points(n)
    at = np.arange(n)
    cases = [
        (entry, [2, -1, 3], 3),
        (entry, [2, n + 1, 3], 3),
        (np.where(at == 4, n, entry), [2, 5, 3], 3),
        (np.where(at == 4, -1, entry), [2, 5, 3], 3),
        (entry, [2, 5, 3], 2),
    ]
    for order, lengths, scored in cases:
        wave = gw._Wave(
            graph, batch, 3, 5, None, None, None, None, None,
            np.zeros(len(batch), dtype=bool),
        )
        book = NATIVE(wave, wave.alive.copy(), 8)
        scorer = RowScorer(graph.space, batch[:scored], [None] * scored)
        written = [
            book.route_ids, book.route_sims, book.route_dead, book.seen,
            book.thr, book.owner, book.cand, book.rows, book.sizes,
            wave.res_ids, wave.res_sims, wave.hops, scorer.evals,
        ]
        before = [a.tobytes() for a in written]
        order = np.array(order, dtype=np.int64)  # exactly n ids
        lengths = np.array(lengths, dtype=np.int64)
        status = native.lib.wave_run(
            book.state, order.ctypes.data, lengths.ctypes.data, scorer.state,
            book.sizes.ctypes.data, book.sizes.size,
        )
        assert status == INVALID
        assert [a.tobytes() for a in written] == before


def test_address_reads_what_ctypes_data_reads():
    """``native.address`` is ``ndarray.ctypes.data`` for the writable
    contiguous arrays the wave hands the kernel, and refuses the rest
    instead of handing out an address the kernel could write through."""
    block = np.zeros(64, dtype=np.uint8)
    for array in (block, block[8:].view(np.int64), np.zeros((3, 5))):
        assert native.address(array) == array.ctypes.data
    read_only = np.zeros(4)
    read_only.setflags(write=False)
    for refused in (read_only, np.zeros((4, 4))[:, 1], np.zeros(0)):
        with pytest.raises((TypeError, ValueError, BufferError)):
            native.address(refused)


class TestLoader:
    def test_source_ships_as_package_data(self):
        source = resources.files(native.PACKAGE).joinpath(native.SOURCE)
        assert source.is_file()
        root = Path(__file__).resolve().parents[1]
        config = tomllib.loads((root / "pyproject.toml").read_text())
        shipped = config["tool"]["setuptools"]["package-data"]["repro"]
        assert native.SOURCE in shipped

    def test_source_compiles_warning_free(self, tmp_path):
        cc = native.compiler()
        with resources.as_file(
            resources.files(native.PACKAGE) / native.SOURCE
        ) as source:
            done = subprocess.run(
                [cc, "-Wall", "-Wextra", "-Werror", *native.FLAGS,
                 "-o", str(tmp_path / "kernel.so"), str(source)],
                capture_output=True, text=True, check=False,
            )
        assert done.returncode == 0, done.stderr

    def test_the_properties_run_clean_under_sanitizers(self, tmp_path):
        """A build with AddressSanitizer and UBSan runs the tiny-graph
        properties (stepped and ``wave_run``, every row kind),
        ``wave_run``'s init refusals, the merge's tie rule and its
        bounds on a pool cut from a wider buffer, the row
        contracts (concatenation and int8 lanes, PQ sum, mixed
        batches),
        the build's local-join, greedy-pick and prune ones
        (``test_index_construction``) and the lexical scatter's
        (``test_sparse``), in a child with the runtimes
        preloaded; any out-of-bounds access or undefined behaviour kills
        it with a report instead of passing silently."""
        cc = native.compiler()
        runtimes = [
            subprocess.run(
                [cc, f"-print-file-name={name}"], capture_output=True, text=True
            ).stdout.strip()
            for name in ("libasan.so", "libubsan.so")
        ]
        if not all(os.path.isabs(p) and os.path.exists(p) for p in runtimes):
            pytest.skip(f"no sanitizer runtimes next to {cc}")
        build = tmp_path / "native-sanitized.so"
        with resources.as_file(
            resources.files(native.PACKAGE) / native.SOURCE
        ) as source:
            subprocess.run(
                [cc, *native.FLAGS, "-O1", "-g", "-fno-omit-frame-pointer",
                 "-fsanitize=address,undefined", "-o", str(build), str(source)],
                check=True, capture_output=True, text=True,
            )
        script = (
            "import ctypes, sys\n"
            "from hypothesis import settings\n"
            "from repro import native\n"
            "native.lib = native.declare(ctypes.CDLL(sys.argv[1]))\n"
            "settings.register_profile('child', database=None)\n"
            "settings.load_profile('child')\n"
            "import test_wave_kernel as t\n"
            "t.test_tiny_graphs_agree()\n"
            "t.test_wave_run_is_the_step_loop_on_tiny_graphs()\n"
            "t.test_wave_run_refuses_an_init_out_of_range()\n"
            "t.test_a_pool_entry_stays_ahead_of_an_equal_entrant()\n"
            "t.test_a_merge_writes_nothing_past_its_pools()\n"
            "t.test_gather_dot_is_the_lane_contract()\n"
            "t.test_int8_rows_are_the_lane_contract()\n"
            "t.test_adc_gather_is_the_subspace_sum()\n"
            "t.test_score_rows_is_the_row_oracle()\n"
            "import test_index_construction as c\n"
            "c.test_native_join_is_the_numpy_join()\n"
            "c.test_native_greedy_pick_is_the_numpy_pick()\n"
            "c.test_native_prune_is_the_numpy_prune()\n"
            "for bad in (-2, 7, 2**40):\n"
            "    c.test_prune_rows_refuses_ids_out_of_range(bad)\n"
            "for bad in (-1, 64, 65):\n"
            "    c.test_join_number_refuses_ids_out_of_range(bad)\n"
            "import test_sparse as s\n"
            "s.test_lex_scatter_is_the_numpy_loop()\n"
            "s.test_lex_scatter_refuses_a_posting_row_out_of_range()\n"
        )
        env = dict(
            os.environ,
            LD_PRELOAD=" ".join(runtimes),
            ASAN_OPTIONS="detect_leaks=0",
            UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1",
            # src/, tests/ (whose modules import each other's top-level
            # names) and the root (test_index_construction reads
            # tests.conftest).
            PYTHONPATH=os.pathsep.join(
                [
                    str(Path(native.__file__).parents[1]),
                    str(Path(__file__).parent),
                    str(Path(__file__).parents[1]),
                ]
            ),
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(build)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr[-4000:]

    def test_a_compiler_on_path_means_the_native_path(self):
        """What importing :mod:`repro` guarantees: a loaded library, built
        from the cache directory's file — there is no other path."""
        assert isinstance(native.lib, ctypes.CDLL)
        assert Path(native.path).is_file()
        assert native.reason in ("built", "cached")

    def test_logs_the_native_path(self, caplog):
        with caplog.at_level(logging.INFO, logger=native.__name__):
            lib, path, reason = native.load()
        assert isinstance(lib, ctypes.CDLL)
        assert caplog.messages == [
            f"event=native_kernel path={path} reason={reason}"
        ]
        assert reason in ("built", "cached")

    def test_no_compiler_is_refused(self, monkeypatch):
        monkeypatch.setattr(native, "compiler", lambda: None)
        with pytest.raises(ImportError, match="none of cc, gcc, clang is on PATH"):
            native.load()

    def test_a_failed_build_is_refused_and_leaves_nothing(
        self, monkeypatch, tmp_path
    ):
        """The compiler's own complaint reaches the message, and the
        cache holds no half-built file."""
        monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
        monkeypatch.setattr(native, "FLAGS", (*native.FLAGS, "-fno-such-option"))
        with pytest.raises(ImportError, match="failed: .*-fno-such-option"):
            native.load()
        assert list(tmp_path.iterdir()) == []

    def test_the_compilers_stderr_tail_is_named(self, monkeypatch, tmp_path):
        def failing(cc, source, target):
            raise subprocess.CalledProcessError(
                1, [cc], stderr="x" * 400 + "\nnative.c:12: error: boom\n"
            )

        monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
        monkeypatch.setattr(native, "_build", failing)
        with pytest.raises(ImportError) as refused:
            native.load()
        message = str(refused.value)
        assert message.startswith(f"compiling native.c with {native.compiler()}")
        assert message.endswith("x native.c:12: error: boom")
        assert len(message) < 400

    def test_an_unwritable_cache_is_refused(self, monkeypatch, tmp_path):
        """A cache directory that cannot be made — here its parent is a
        file — names ``XDG_CACHE_HOME`` as the way out."""
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setattr(native, "_cache_dir", lambda: blocker / "must-repro")
        with pytest.raises(ImportError, match="set XDG_CACHE_HOME to a writable"):
            native.load()
        assert [p.name for p in tmp_path.iterdir()] == ["not-a-directory"]

    def test_import_without_a_compiler_fails_naming_it(self, tmp_path):
        """``import repro`` with only the interpreter on ``PATH`` (a
        directory holding nothing but a link to it, so a compiler that
        shares the interpreter's own directory stays out) and an empty
        cache: no fallback, a non-zero exit and a message naming the
        compilers looked for."""
        bin_dir, cache = tmp_path / "bin", tmp_path / "cache"
        bin_dir.mkdir()
        cache.mkdir()
        (bin_dir / Path(sys.executable).name).symlink_to(sys.executable)
        env = dict(
            os.environ,
            PATH=str(bin_dir),
            XDG_CACHE_HOME=str(cache),
            PYTHONPATH=str(Path(native.__file__).parents[1]),
        )
        done = subprocess.run(
            [sys.executable, "-c", "import repro"],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode != 0
        assert "ImportError: repro needs a C compiler to build native.c" in done.stderr
        assert "none of cc, gcc, clang is on PATH" in done.stderr
        assert list(cache.iterdir()) == []

    def test_side_by_side_first_builds_both_load(self, monkeypatch, tmp_path):
        """Each build goes to its own temporary name and is moved into
        place whole, so concurrent first imports never load a torn file."""
        monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
        loaded: list[object] = []
        threads = [
            threading.Thread(target=lambda: loaded.append(native.load()[0]))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(loaded) == 2
        assert all(isinstance(kernel, ctypes.CDLL) for kernel in loaded)
        assert [p.suffix for p in tmp_path.iterdir()] == [".so"]


class TestCsrSafety:
    def test_a_corrupt_archive_fails_the_first_wave(
        self, objects, queries, tmp_path
    ):
        path = tmp_path / "index"
        MUST(objects, weights=Weights([0.6, 0.4])).build().save_index(path)
        archive = path / "segment_000.npz"
        metadata, arrays = load_arrays(archive)
        at = arrays["flat"].size // 2
        arrays["flat"][at] = N
        save_arrays(archive, metadata, **arrays)
        vertex = int(np.searchsorted(arrays["offsets"], at, side="right")) - 1

        loaded = MUST(objects, weights=Weights([0.6, 0.4])).load_index(path)
        message = f"vertex {vertex} has out-of-range neighbour id {N} (n={N})"
        with pytest.raises(ValueError, match=re.escape(message)):
            loaded.query(queries, SearchOptions(k=K, l=L))

    @pytest.mark.parametrize("block", [5, 1 << 14])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ((3, 9, 3), "vertex 301 lists neighbour 3 twice"),
            ((3, N, 9), f"vertex 301 has out-of-range neighbour id {N}"),
            ((-1,), "vertex 301 has out-of-range neighbour id -1"),
        ],
    )
    def test_a_bad_row_is_named(self, objects, monkeypatch, block, bad, message):
        """Named the same whatever blocks of rows the check reads."""
        from repro.index import base

        monkeypatch.setattr(base, "_CSR_BLOCK", block)
        neighbors = [np.array([1, 2], dtype=np.int32)] * N
        neighbors[301] = np.array(bad, dtype=np.int32)
        neighbors[:5] = [np.empty(0, dtype=np.int32)] * 5  # leading empty rows
        graph = GraphIndex(JointSpace(objects, Weights([0.6, 0.4])), neighbors, 0)
        with pytest.raises(ValueError, match=re.escape(message)):
            graph.csr_adjacency()

    def test_the_csr_pair_is_read_only(self, objects):
        graph = MUST(objects, weights=Weights([0.6, 0.4])).build().index
        flat, offsets = graph.csr_adjacency()
        assert not flat.flags.writeable and not offsets.flags.writeable
