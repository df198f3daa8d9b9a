"""The lockstep wave's bookkeeping in C against the same bookkeeping in NumPy.

:mod:`repro.index.wave_kernel` builds ``wave_kernel.c`` at import and
:func:`~repro.index.graph_wave.graph_wave_search` runs its two calls
per wave when it loaded.  The pins:

* **bit parity** — the native and the NumPy bookkeeping return the same
  ids, similarities, per-query counters, ``waves`` and
  ``frontier_sizes`` over every store, every kind of row (deletions,
  shared and per-request filters, mixed ``ks`` / ``ls``, hybrid,
  Lemma-4 scorers), one or eight expansions a wave, with the Lemma 3
  check on, and over generated tiny graphs;
* **the loader** — the source ships as package data and compiles
  warning-free; a compiler on ``PATH`` means the native path ran; one
  ``event=wave_kernel`` line says which path runs and why; a failed
  build falls back and leaves nothing behind;
* **CSR safety** — a corrupt adjacency fails the first wave with the
  bad vertex named, on both paths, instead of indexing out of bounds.

The fallback is forced by setting the module's kernel handle to
``None``, the one switch there is.
"""

from __future__ import annotations

import contextlib
import copy
import logging
import re
import subprocess
import threading
import tomllib
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import MUST
from repro.core.multivector import MultiVector, MultiVectorSet
from repro.core.query import Eq, In, Query, Range, SearchOptions
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index import graph_wave as gw
from repro.index import wave_kernel
from repro.index.base import GraphIndex
from repro.index.graph_wave import bookkeeping, graph_wave_search
from repro.sparse.synthetic import synthetic_hybrid
from repro.utils.io import load_arrays, save_arrays

N, D = 400, 16
K, L = 10, 48
B = 12

native = pytest.mark.skipif(
    wave_kernel.lib is None, reason=f"no native kernel: {wave_kernel.reason}"
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
    """``run()`` on the native bookkeeping, then on the NumPy one."""
    got = run()
    with monkeypatch.context() as patch:
        patch.setattr(wave_kernel, "lib", None)
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


@pytest.fixture(scope="module")
def objects():
    return _corpus()


@pytest.fixture(scope="module")
def queries():
    return _queries()


@pytest.fixture(scope="module", params=["none", "float16", "int8", "pq"])
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


@native
class TestBitParity:
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
        assert_same(got, want)
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
        assert_same(got, want)

    def test_segmented_batch_and_plan(self, objects, queries, monkeypatch):
        must = MUST(objects, weights=Weights([0.6, 0.4])).build()
        must.insert(_corpus(n=40, seed=9))
        must.mark_deleted(np.array([3, 5, 7, 11]))
        options = SearchOptions(k=K, l=L, check_monotone=True)
        got, want = both_paths(lambda: must.query(queries, options), monkeypatch)
        assert got.plan == "graph/wave/native"
        assert want.plan == "graph/wave/numpy"
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.ids, w.ids)
            assert g.similarities.tobytes() == w.similarities.tobytes()
            assert g.stats == w.stats
        assert got.stats == want.stats


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


@native
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


@native
@pytest.mark.parametrize(
    "owner, cand",
    [([1, 0], [5, 6]), ([0, 1, 0], [5, 6, 7]), ([0, B], [5, 6]), ([0, 0], [5, N])],
    ids=["rows out of order", "a row twice", "row out of range", "id out of range"],
)
def test_the_kernel_refuses_malformed_merges(index, queries, owner, cand):
    """Ids and rows reaching C are checked there, never trusted."""
    wave = gw._Wave(index, queries, K, L, None, False, None, None, None, None)
    book = NATIVE(wave, wave.alive.copy(), 8, wave_kernel.lib)
    owner, cand = np.array(owner), np.array(cand)
    with pytest.raises(RuntimeError, match="refused"):
        book.merge(owner, cand, np.zeros(owner.size))


def _tiny_graph(seed, n, distinct, max_degree, deletion):
    """A random graph over n vertices with isolated vertices and
    self-loops allowed, whose vectors repeat *distinct* rows — equal
    vectors score equal bits, so ties are everywhere."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((distinct, 4))
    vecs = rows[rng.integers(0, distinct, n)]
    vecs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).astype(np.float32)
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


@native
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
    batch = [
        MultiVector([rng.standard_normal(4).astype(np.float32)]) for _ in range(b)
    ]
    runs = []
    for lib in (wave_kernel.lib, None):
        saved, wave_kernel.lib = wave_kernel.lib, lib
        try:
            with lockstep():
                runs.append(
                    graph_wave_search(
                        graph, batch, k=k, l=k + l_over, expansions_per_wave=m,
                        check_monotone=True,
                    )
                )
        finally:
            wave_kernel.lib = saved
    assert_same(*runs)


class TestLoader:
    def test_source_ships_as_package_data(self):
        source = resources.files(wave_kernel.PACKAGE).joinpath(wave_kernel.SOURCE)
        assert source.is_file()
        root = Path(__file__).resolve().parents[1]
        config = tomllib.loads((root / "pyproject.toml").read_text())
        shipped = config["tool"]["setuptools"]["package-data"]["repro.index"]
        assert wave_kernel.SOURCE in shipped

    def test_source_compiles_warning_free(self, tmp_path):
        cc = wave_kernel.compiler()
        if cc is None:
            pytest.skip("no C compiler on PATH")
        with resources.as_file(
            resources.files(wave_kernel.PACKAGE) / wave_kernel.SOURCE
        ) as source:
            done = subprocess.run(
                [cc, "-Wall", "-Wextra", "-Werror", *wave_kernel.FLAGS,
                 "-o", str(tmp_path / "kernel.so"), str(source)],
                capture_output=True, text=True, check=False,
            )
        assert done.returncode == 0, done.stderr

    def test_a_compiler_on_path_means_the_native_path(self):
        """So a run cannot silently measure the NumPy bookkeeping."""
        if wave_kernel.compiler() is None:
            pytest.skip("no C compiler on PATH")
        assert wave_kernel.lib is not None, wave_kernel.reason
        assert bookkeeping() == "native"
        assert Path(wave_kernel.path).is_file()

    def test_logs_the_native_path(self, caplog):
        if wave_kernel.compiler() is None:
            pytest.skip("no C compiler on PATH")
        with caplog.at_level(logging.INFO, logger=wave_kernel.__name__):
            lib, path, reason = wave_kernel.load()
        assert lib is not None
        assert caplog.messages == [
            f"event=wave_kernel status=native path={path} reason={reason}"
        ]
        assert reason in ("built", "cached")

    def test_logs_the_numpy_path(self, caplog, monkeypatch):
        monkeypatch.setattr(wave_kernel, "compiler", lambda: None)
        with caplog.at_level(logging.INFO, logger=wave_kernel.__name__):
            lib, path, reason = wave_kernel.load()
        assert (lib, path, reason) == (None, "", "no C compiler on PATH")
        assert caplog.messages == [
            "event=wave_kernel status=numpy path=- reason=no C compiler on PATH"
        ]
        assert caplog.records[0].levelno == logging.WARNING

    def test_a_failed_build_falls_back_and_leaves_nothing(
        self, caplog, monkeypatch, tmp_path
    ):
        if wave_kernel.compiler() is None:
            pytest.skip("no C compiler on PATH")
        monkeypatch.setattr(wave_kernel, "_cache_dir", lambda: tmp_path)
        monkeypatch.setattr(
            wave_kernel, "FLAGS", (*wave_kernel.FLAGS, "-fno-such-option")
        )
        with caplog.at_level(logging.INFO, logger=wave_kernel.__name__):
            lib, _, reason = wave_kernel.load()
        assert lib is None and reason.startswith("compile failed")
        assert "status=numpy" in caplog.text
        assert list(tmp_path.iterdir()) == []

    def test_side_by_side_first_builds_both_load(self, monkeypatch, tmp_path):
        """Each build goes to its own temporary name and is moved into
        place whole, so concurrent first imports never load a torn file."""
        if wave_kernel.compiler() is None:
            pytest.skip("no C compiler on PATH")
        monkeypatch.setattr(wave_kernel, "_cache_dir", lambda: tmp_path)
        loaded: list[object] = []
        threads = [
            threading.Thread(target=lambda: loaded.append(wave_kernel.load()[0]))
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
            monkeypatch.setattr(wave_kernel, "lib", None)
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
