"""The lockstep wave in C against the same wave in NumPy.

:mod:`repro.native` builds ``native.c`` at import and
:func:`~repro.index.graph_wave.graph_wave_search` runs its calls per
wave when it loaded: two of bookkeeping, a gather-dot scoring the
frontier's dense rows, and on a PQ store one ``adc_gather`` per
modality summing its rows' lookup tables.  The pins:

* **bit parity** where the two paths do the same arithmetic — the
  native and the NumPy wave return the same ids, similarities,
  per-query counters, ``waves`` and ``frontier_sizes`` on compressed
  stores (PQ rows summed natively on one path, in NumPy on the other)
  and Lemma-4 rows, over every kind of row (deletions, shared and
  per-request filters, mixed ``ks`` / ``ls``, hybrid), one or eight
  expansions a wave, with the Lemma 3 check on; the two bookkeepings
  leave the same state after every step, and whole answers agree on
  generated tiny graphs whose dot products are exact in any order;
* **the float contract** — ``gather_dot`` equals a NumPy loop over the
  eight lanes bit for bit (signed zeros, subnormals, overflow, NaN,
  ``-inf`` thresholds, any width), refuses out-of-range rows, and
  scores a scanned row with its traversal's bits; on dense rows the
  ``einsum`` fallback lies within ``2·dot_error(D)·‖q̃‖·max‖x̃‖`` of it,
  ids equal but for swaps inside that band, which are counted;
* **the PQ sum** — ``adc_gather`` equals ``pq._adc_sum`` bit for bit
  (signed zeros, subnormals, infinities, NaN, overflow, any sub-space
  and centroid count) and refuses out-of-range rows;
* **the loader** — the source ships as package data and compiles
  warning-free; a compiler on ``PATH`` means the native path ran; one
  ``event=native_kernel`` line says which path runs and why; a failed
  build falls back and leaves nothing behind; a build under
  AddressSanitizer and UBSan runs the three properties clean;
* **CSR safety** — a corrupt adjacency fails the first wave with the
  bad vertex named, on both paths, instead of indexing out of bounds.

The fallback is forced by setting the module's kernel handle to
``None``, the one switch there is.
"""

from __future__ import annotations

import contextlib
import copy
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
from repro.index.graph_wave import bookkeeping, graph_wave_search
from repro.sparse.synthetic import synthetic_hybrid
from repro.store import dot_error
from repro.store.pq import _adc_sum
from repro.utils.io import load_arrays, save_arrays

N, D = 400, 16
K, L = 10, 48
B = 12

needs_native = pytest.mark.skipif(
    native.lib is None, reason=f"no native kernel: {native.reason}"
)


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


def both_paths(run, monkeypatch):
    """``run()`` on the native wave, then on the NumPy one."""
    got = run()
    with monkeypatch.context() as patch:
        patch.setattr(native, "lib", None)
        want = run()
    return got, want


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


def dense_bands(space, batch):
    """Per query, ``2·dot_error(D)·‖q̃‖·max‖x̃‖``: how far apart two
    float32 dot products of the query with one row may lie, whatever
    order each sums in (each is within half of it of the exact value)."""
    gamma = dot_error(space.concatenated.shape[1])
    vectors = [q.vector if isinstance(q, Query) else q for q in batch]
    return [
        2 * gamma * float(np.linalg.norm(space.concat_query(v)))
        * space.max_concat_norm
        for v in vectors
    ]


def assert_within_band(got, want, bands):
    """Dense answers on the two paths: same lengths; every similarity
    within its row's band, rank by rank and id by id; ids equal except
    swaps inside the band.  Returns ``(swaps, ranks)``."""
    swaps = ranks = 0
    for g, w, band in zip(got, want, bands, strict=True):
        assert g.ids.size == w.ids.size
        assert np.all(np.abs(g.similarities - w.similarities) <= band)
        _, gi, wi = np.intersect1d(g.ids, w.ids, return_indices=True)
        assert np.all(np.abs(g.similarities[gi] - w.similarities[wi]) <= band)
        swaps += int((g.ids != w.ids).sum())
        ranks += g.ids.size
    return swaps, ranks


def report_swaps(swaps, ranks):
    """Swapped ranks are allowed, not expected: print them, and fail
    when they stop being rare."""
    print(f"native vs einsum: {swaps} of {ranks} ranks swapped inside the band")
    assert swaps <= max(2, ranks // 50)


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


@needs_native
class TestBitParity:
    """Bit for bit where both paths do the same arithmetic (compressed
    stores, Lemma-4 rows); within the float32 band on dense rows, whose
    dot products the kernel sums in its own order."""

    @pytest.mark.parametrize("m", [1, 8])
    @pytest.mark.parametrize(
        "kind",
        ["plain", "deleted", "shared_filter", "per_request_filters", "ks_ls"],
    )
    def test_rows_on_every_store(self, index, queries, kind, m, monkeypatch):
        graph, batch, extra = _rows(kind, queries, index)
        got, want = both_paths(
            lambda: graph_wave_search(
                graph, batch, k=K, l=L, expansions_per_wave=m,
                check_monotone=True, filter_memo={}, **extra,
            ),
            monkeypatch,
        )
        if graph.space.is_compressed:
            assert_same(got, want)
        else:
            bands = dense_bands(graph.space, batch)
            report_swaps(*assert_within_band(got[0], want[0], bands))
        assert got[1].waves > 0

    @pytest.mark.parametrize("m", [1, 8])
    def test_lemma4_scorers(self, objects, queries, m, monkeypatch):
        """Per-query scorers slice the frontier by row: the order inside
        a row reaches their BLAS calls, so it must be the same too."""
        graph = MUST(objects, weights=Weights([0.6, 0.4])).build().index
        holed = list(queries)
        holed[1] = MultiVector([None, queries[1].vectors[1]])
        got, want = both_paths(
            lambda: graph_wave_search(
                graph, holed, k=K, l=L, expansions_per_wave=m,
                early_termination=True, refine=2, check_monotone=True,
            ),
            monkeypatch,
        )
        assert_same(got, want)

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
        got, want = both_paths(
            lambda: graph_wave_search(
                graph, batch, k=K, l=30, expansions_per_wave=m,
                check_monotone=True,
            ),
            monkeypatch,
        )
        if compression == "pq":
            assert_same(got, want)
        else:
            bands = dense_bands(graph.space, batch)
            report_swaps(*assert_within_band(got[0], want[0], bands))

    def test_segmented_batch_and_plan(self, objects, queries, monkeypatch):
        must = MUST(objects, weights=Weights([0.6, 0.4])).build()
        inserted = _corpus(n=40, seed=9)
        must.insert(inserted)
        must.mark_deleted(np.array([3, 5, 7, 11]))
        options = SearchOptions(k=K, l=L, check_monotone=True)
        got, want = both_paths(lambda: must.query(queries, options), monkeypatch)
        assert got.plan == "graph/wave/native"
        assert want.plan == "graph/wave/numpy"
        # One band over every segment: the widest row of either corpus.
        every = MultiVectorSet(
            [np.vstack(m) for m in zip(objects.matrices, inserted.matrices)]
        )
        bands = dense_bands(JointSpace(every, Weights([0.6, 0.4])), queries)
        report_swaps(*assert_within_band(got, want, bands))


class _Both:
    """Item assignment into several arrays at once."""

    def __init__(self, *arrays):
        self.arrays = arrays

    def __setitem__(self, key, value):
        for array in self.arrays:
            array[key] = value


class _Lockstep:
    """Both bookkeepings side by side, the NumPy one on the traversal's
    own wave and the native one on a twin holding copies of the result
    pools and hop counts; after every step every array the two write
    must hold the same bits — ids under -inf columns and dead flags
    included — and the traversal goes on with the NumPy outputs."""

    def __init__(self, wave, active, m, kernel):
        twin = copy.copy(wave)
        twin.res_ids, twin.res_sims = wave.res_ids.copy(), wave.res_sims.copy()
        twin.hops = wave.hops.copy()
        self.oracle = gw._NumpyBookkeeping(wave, active, m)
        self.native = NATIVE(twin, active, m, kernel)
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


NATIVE = gw._NativeBookkeeping


@contextlib.contextmanager
def lockstep():
    """Run every native traversal through :class:`_Lockstep`."""
    gw._NativeBookkeeping = _Lockstep
    try:
        yield
    finally:
        gw._NativeBookkeeping = NATIVE


@needs_native
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


@needs_native
@pytest.mark.parametrize(
    "owner, cand",
    [([1, 0], [5, 6]), ([0, 1, 0], [5, 6, 7]), ([0, B], [5, 6]), ([0, 0], [5, N])],
    ids=["rows out of order", "a row twice", "row out of range", "id out of range"],
)
def test_the_kernel_refuses_malformed_merges(index, queries, owner, cand):
    """Ids and rows reaching C are checked there, never trusted."""
    wave = gw._Wave(
        index, queries, K, L, None, False, None, None, None, None,
        np.zeros(len(queries), dtype=bool),
    )
    book = NATIVE(wave, wave.alive.copy(), 8, native.lib)
    owner, cand = np.array(owner), np.array(cand)
    with pytest.raises(RuntimeError, match="refused"):
        book.merge(owner, cand, np.zeros(owner.size))


# ----------------------------------------------------------------------
# The float contract of gather_dot (native.c's header).
# ----------------------------------------------------------------------
INVALID = -4  # native.c's status for an input out of range


def lane_oracle(x, q, owner, cand, thr):
    """The contract in NumPy, one column at a time: eight float32 lanes
    from +0.0, ``a[d % 8] += x[d]·q[d]``, combined pairwise, widened and
    cut at the row's threshold.  Slow, so it lives here only."""
    xs, qs = x[cand], q[owner]
    lanes = np.zeros((cand.size, 8), dtype=np.float32)
    with np.errstate(all="ignore"):
        for d in range(x.shape[1]):
            lanes[:, d % 8] += xs[:, d] * qs[:, d]
        a = lanes.T
        sims = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
        sims = sims.astype(np.float64)
        return np.where(sims > thr[owner], sims, -np.inf)


def gather_dot(lib, x, q, owner, cand, thr, evals, out):
    """One ``gather_dot`` call over contiguous arrays; its status."""
    return lib.gather_dot(
        x.ctypes.data, x.shape[0], x.shape[1], q.ctypes.data, q.shape[0],
        owner.ctypes.data, cand.ctypes.data, cand.size, thr.ctypes.data,
        evals.ctypes.data, out.ctypes.data,
    )


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


@needs_native
@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.one_of(st.integers(1, 17), st.integers(1, 300)),
    x_kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=10),
    q_kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=4),
    thr_kinds=st.lists(
        st.sampled_from(["-inf", "finite", "nan"]), min_size=4, max_size=4
    ),
    f=st.integers(0, 40),
)
def test_gather_dot_is_the_lane_contract(seed, dim, x_kinds, q_kinds, thr_kinds, f):
    """Native equals the lane oracle bit for bit — signed zeros (a lane
    starts at +0.0), subnormals (nothing flushed), overflow and NaN (cut
    to -inf), widths below and off a multiple of eight — and counts each
    entry against its row."""
    rng = np.random.default_rng(seed)
    x, q = _rows_of(rng, x_kinds, dim), _rows_of(rng, q_kinds, dim)
    b = q.shape[0]
    thr = np.array(
        [
            {"-inf": -np.inf, "nan": np.nan}.get(kind, rng.standard_normal())
            for kind in thr_kinds[:b]
        ]
    )
    owner = rng.integers(0, b, f).astype(np.int64)
    cand = rng.integers(0, x.shape[0], f).astype(np.int64)
    evals = np.zeros(b, dtype=np.int64)
    out = np.empty(f)
    assert gather_dot(native.lib, x, q, owner, cand, thr, evals, out) == f
    want = lane_oracle(x, q, owner, cand, thr)
    assert out.tobytes() == want.tobytes()
    np.testing.assert_array_equal(evals, np.bincount(owner, minlength=b))


@needs_native
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
    assert gather_dot(native.lib, x, q, owner, cand, thr, evals, out) == INVALID
    assert not evals.any() and np.all(out == 7.0)


# ----------------------------------------------------------------------
# adc_gather: PQ rows, the sub-space sum of the NumPy path (native.c's
# header), so no oracle beyond pq._adc_sum itself.
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


def adc_gather(lib, codes, luts, owner, cand, out):
    """One ``adc_gather`` call over contiguous arrays; its status."""
    return lib.adc_gather(
        codes.ctypes.data, codes.shape[0], codes.shape[1], luts.ctypes.data,
        luts.shape[0], luts.shape[2], owner.ctypes.data, cand.ctypes.data,
        cand.size, out.ctypes.data,
    )


@needs_native
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
    """Native equals ``pq._adc_sum`` over the NumPy gather bit for bit —
    signed zeros (the sum starts at +0.0), subnormals (nothing flushed),
    infinities and overflow — for any sub-space and centroid count.  A
    NaN is a NaN on both paths, but not the same NaN: where two meet
    (``inf - inf`` is the negative default NaN), which payload survives
    is the hardware's pick of operand, and NumPy's own loops differ in
    it (a one-row array keeps the other payload than a sixteen-row
    one), so NaN payloads are compared as NaN only."""
    rng = np.random.default_rng(seed)
    luts = _lut_values(rng, kinds, (b, m_sub, ncent))
    codes = rng.integers(0, ncent, (n, m_sub)).astype(np.uint8)
    owner = rng.integers(0, b, f).astype(np.int64)
    cand = rng.integers(0, n, f).astype(np.int64)
    out = np.empty(f, dtype=np.float32)
    assert adc_gather(native.lib, codes, luts, owner, cand, out) == f
    with np.errstate(all="ignore"):
        want = _adc_sum(luts[owner, np.arange(m_sub)[:, None], codes[cand].T])
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(out), nan)
    assert out[~nan].tobytes() == want[~nan].tobytes()


@needs_native
@pytest.mark.parametrize(
    "owner, cand",
    [([0, 3], [1, 2]), ([-1], [1]), ([0, 1], [1, 9]), ([0], [-1])],
    ids=["row past the end", "negative row", "id past the end", "negative id"],
)
def test_adc_gather_refuses_out_of_range_pairs(owner, cand):
    """Refused with INVALID before anything is read or written."""
    codes, luts = np.zeros((9, 5), np.uint8), np.ones((3, 5, 4), np.float32)
    owner, cand = np.array(owner, np.int64), np.array(cand, np.int64)
    out = np.full(owner.size, 7.0, np.float32)
    assert adc_gather(native.lib, codes, luts, owner, cand, out) == INVALID
    assert np.all(out == 7.0)


@needs_native
def test_the_wave_raises_on_a_refused_gather(objects, queries):
    graph = MUST(objects, weights=Weights([0.6, 0.4])).build().index
    wave = gw._Wave(
        graph, queries, K, L, None, False, None, None, None, None,
        np.zeros(len(queries), dtype=bool),
    )
    refused = re.escape(f"refused its input (status {INVALID})")
    with pytest.raises(RuntimeError, match=refused):
        wave.dense(np.array([0, B]), np.array([5, 6]), np.full(B, -np.inf))
    assert not wave.joint_acc.any()


def _pool_bits(wave, row):
    """``{id: similarity bits}`` of one row's result pool."""
    sims, ids = wave.res_sims[row], wave.res_ids[row]
    keep = np.isfinite(sims)
    return dict(zip(ids[keep].tolist(), sims[keep].view(np.int64).tolist()))


def _filled(graph, batch, scan, traverse):
    """A prepared wave whose alive rows are all *traverse*d or all
    scanned, whatever the engine would pick."""
    wave = gw._Wave(
        graph, batch, K, L, None, False, None, {}, None, None,
        np.full(len(batch), scan),
    )
    if traverse:
        wave.traverse(wave.alive.copy(), 8, False, SearchStats())
    else:
        wave.scan(np.flatnonzero(wave.alive))
    return wave


@needs_native
@pytest.mark.parametrize("case", ["covered segment", "l >= reportable"])
def test_a_scanned_row_carries_its_traversals_bits(objects, queries, case):
    """"A scanned row equals its traversal" under the kernel: every
    vertex both fills hold the same similarity bits, since one
    gather-dot scores both."""
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
    """Integer-valued float32s: every dot product of two is exact, so
    the kernel's lanes and ``einsum`` sum it to the same bits."""
    return rng.integers(-4, 5, shape).astype(np.float32)


def _tiny_graph(seed, n, distinct, max_degree, deletion):
    """A random graph over n vertices with isolated vertices and
    self-loops allowed, whose vectors repeat *distinct* rows of small
    integers — equal vectors score equal bits, and so do distinct ones
    with equal products, so ties are everywhere."""
    rng = np.random.default_rng(seed)
    vecs = _small_ints(rng, (distinct, 4))[rng.integers(0, distinct, n)]
    neighbors = [
        rng.choice(n, size=int(rng.integers(0, min(n, max_degree) + 1)), replace=False)
        for _ in range(n)
    ]
    graph = GraphIndex(
        JointSpace(MultiVectorSet([vecs]), Weights([1.0])),
        neighbors,
        seed_vertex=int(rng.integers(n)),
    )
    if deletion == "all but one" and n > 1:
        keep = int(rng.integers(n))
        graph.mark_deleted(np.delete(np.arange(n), keep))
    elif deletion == "some" and n > 2:
        graph.mark_deleted(rng.choice(n, size=n // 3, replace=False))
    return graph, rng


@needs_native
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
)
def test_tiny_graphs_agree(
    seed, n, distinct, max_degree, deletion, k, l_over, m, b
):
    """k may exceed the admissible count and l the graph: both paths
    answer short, identically, through identical states."""
    graph, rng = _tiny_graph(seed, n, min(distinct, n), max_degree, deletion)
    batch = [MultiVector([_small_ints(rng, 4)]) for _ in range(b)]
    runs = []
    for lib in (native.lib, None):
        saved, native.lib = native.lib, lib
        try:
            with lockstep():
                runs.append(
                    graph_wave_search(
                        graph, batch, k=k, l=k + l_over, expansions_per_wave=m,
                        check_monotone=True,
                    )
                )
        finally:
            native.lib = saved
    assert_same(*runs)


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
        if cc is None:
            pytest.skip("no C compiler on PATH")
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
        and lane-contract properties in a child with the runtimes
        preloaded; any out-of-bounds access or undefined behaviour
        kills it with a report instead of passing silently."""
        cc = native.compiler()
        if cc is None:
            pytest.skip("no C compiler on PATH")
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
            "t.test_gather_dot_is_the_lane_contract()\n"
            "t.test_adc_gather_is_the_subspace_sum()\n"
        )
        env = dict(
            os.environ,
            LD_PRELOAD=" ".join(runtimes),
            ASAN_OPTIONS="detect_leaks=0",
            UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1",
            PYTHONPATH=os.pathsep.join(
                [str(Path(native.__file__).parents[1]), str(Path(__file__).parent)]
            ),
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(build)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr[-4000:]

    def test_a_compiler_on_path_means_the_native_path(self):
        """So a run cannot silently measure the NumPy bookkeeping."""
        if native.compiler() is None:
            pytest.skip("no C compiler on PATH")
        assert native.lib is not None, native.reason
        assert bookkeeping() == "native"
        assert Path(native.path).is_file()

    def test_logs_the_native_path(self, caplog):
        if native.compiler() is None:
            pytest.skip("no C compiler on PATH")
        with caplog.at_level(logging.INFO, logger=native.__name__):
            lib, path, reason = native.load()
        assert lib is not None
        assert caplog.messages == [
            f"event=native_kernel status=native path={path} reason={reason}"
        ]
        assert reason in ("built", "cached")

    def test_logs_the_numpy_path(self, caplog, monkeypatch):
        monkeypatch.setattr(native, "compiler", lambda: None)
        with caplog.at_level(logging.INFO, logger=native.__name__):
            lib, path, reason = native.load()
        assert (lib, path, reason) == (None, "", "no C compiler on PATH")
        assert caplog.messages == [
            "event=native_kernel status=numpy path=- reason=no C compiler on PATH"
        ]
        assert caplog.records[0].levelno == logging.WARNING

    def test_a_failed_build_falls_back_and_leaves_nothing(
        self, caplog, monkeypatch, tmp_path
    ):
        if native.compiler() is None:
            pytest.skip("no C compiler on PATH")
        monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
        monkeypatch.setattr(
            native, "FLAGS", (*native.FLAGS, "-fno-such-option")
        )
        with caplog.at_level(logging.INFO, logger=native.__name__):
            lib, _, reason = native.load()
        assert lib is None and reason.startswith("compile failed")
        assert "status=numpy" in caplog.text
        assert list(tmp_path.iterdir()) == []

    def test_side_by_side_first_builds_both_load(self, monkeypatch, tmp_path):
        """Each build goes to its own temporary name and is moved into
        place whole, so concurrent first imports never load a torn file."""
        if native.compiler() is None:
            pytest.skip("no C compiler on PATH")
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
        assert len(loaded) == 2 and None not in loaded
        assert [p.suffix for p in tmp_path.iterdir()] == [".so"]


class TestCsrSafety:
    @pytest.mark.parametrize("lib", ["native", "numpy"])
    def test_a_corrupt_archive_fails_the_first_wave(
        self, objects, queries, tmp_path, monkeypatch, lib
    ):
        if lib == "numpy":
            monkeypatch.setattr(native, "lib", None)
        path = tmp_path / "index.npz"
        MUST(objects, weights=Weights([0.6, 0.4])).build().save_index(path)
        metadata, arrays = load_arrays(path)
        at = arrays["flat"].size // 2
        arrays["flat"][at] = N
        save_arrays(path, metadata, **arrays)
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
