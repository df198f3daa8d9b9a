"""Tests for NNDescent, pipeline components, and the fused index builder.

The build's integer bookkeeping — NNDescent's local join and the
selections' greedy pick — and the MRNG / α-RNG selection run in
``native.c``.  Each kernel equals its NumPy oracle (``tests/oracles.py``)
byte for byte (hypothesis properties, also run under the sanitizers by
``test_wave_kernel``), and every graph, tied rows included, is the one
the oracles build.
"""

from __future__ import annotations

import importlib
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.multivector import MultiVectorSet
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.base import GraphIndex
from repro.index.components import (
    _greedy_by_domination,
    _prune_rows,
    angle_select,
    centroid_seed,
    ensure_connectivity,
    mrng_select,
    prune_one,
    search_based_candidates,
    top_gamma_select,
    two_hop_candidates,
)
from repro.index import BUILDERS
from repro.index.graphs.hnsw import HNSWBuilder
from repro.index.graphs.vamana import VamanaBuilder
from repro.index.nndescent import (
    block_candidate_sims,
    graph_quality,
    nndescent,
    random_knn,
    reverse_neighbors,
)
from repro.index.pipeline import FusedIndexBuilder
from repro.index.segments import SegmentedIndex, SegmentPolicy

from tests import oracles
from tests.conftest import random_multivector_set


@pytest.fixture(scope="module")
def space():
    return JointSpace(random_multivector_set(300, (12, 6), seed=21),
                      Weights([0.5, 0.5]))


class TestRandomKnn:
    def test_shape_and_no_self_loops(self):
        knn = random_knn(50, 8, rng=0)
        assert knn.shape == (50, 8)
        for v in range(50):
            assert v not in knn[v]

    def test_ids_in_range(self):
        knn = random_knn(30, 5, rng=1)
        assert knn.min() >= 0 and knn.max() < 30

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            random_knn(5, 5)


class TestNNDescent:
    def test_quality_improves_with_iterations(self, space):
        """Tab. XI shape: quality grows with ε and is ≈1 by 3 iterations."""
        qualities = [
            graph_quality(space, nndescent(space, 10, iterations=it, seed=2))
            for it in (0, 1, 3)
        ]
        assert qualities[0] < qualities[1] <= qualities[2] + 0.02
        assert qualities[2] > 0.9

    def test_no_self_loops_after_refinement(self, space):
        knn = nndescent(space, 8, iterations=2, seed=2)
        for v in range(space.n):
            assert v not in knn[v]

    def test_deterministic(self, space):
        a = nndescent(space, 8, iterations=2, seed=5)
        b = nndescent(space, 8, iterations=2, seed=5)
        assert np.array_equal(a, b)

    def test_resume_from_init(self, space):
        base = nndescent(space, 8, iterations=1, seed=2)
        resumed = nndescent(space, 8, iterations=1, seed=2, init=base)
        assert graph_quality(space, resumed) >= graph_quality(space, base) - 0.02

    @pytest.mark.parametrize("bad", [0, -1])
    def test_block_size_must_be_positive(self, space, bad):
        """Refused by name: unchecked, ``0`` fails inside ``range()`` and a
        negative size returns the random init unrefined."""
        with pytest.raises(ValueError, match="block_size must be at least 1"):
            nndescent(space, 8, block_size=bad)

    def test_zero_iterations_is_init(self, space):
        knn = nndescent(space, 8, iterations=0, seed=2)
        assert np.array_equal(knn, random_knn(space.n, 8, 2))

    @pytest.mark.parametrize("bad", [-1, 300, 2**32])
    @pytest.mark.parametrize(
        "kwargs",
        [{"iterations": 0}, {}, {"use_reverse": False}],
        ids=["no-iterations", "default", "no-reverse"],
    )
    def test_init_ids_must_name_vertices(self, space, kwargs, bad):
        """Refused, with the first bad row named, whatever the sweep:
        not returned as given, aliased to another vertex or failed deep
        inside the join."""
        init = random_knn(space.n, 8, 2).astype(np.int64)
        init[7, 3] = init[40, 0] = bad
        message = rf"init row 7 names a vertex outside \[0, {space.n}\)"
        with pytest.raises(ValueError, match=message):
            nndescent(space, 8, **kwargs, init=init)


def _reference_block_candidate_sims(concat, neighbors, block, reverse=None):
    """The sort-based kernel :func:`block_candidate_sims` replaced, kept
    verbatim as the parity oracle: id-sorted columns, first occurrence of
    a duplicate keeps its similarity."""
    nb = neighbors[block]  # (b, k)
    parts = [nb, neighbors[nb].reshape(len(block), -1)]
    if reverse is not None:
        rnb = reverse[block]
        parts.extend([rnb, neighbors[rnb].reshape(len(block), -1)])
    cand = np.concatenate(parts, axis=1)
    uniq, inverse = np.unique(cand, return_inverse=True)
    sub = concat[block] @ concat[uniq].T  # (b, |uniq|) — single BLAS call
    sims = sub[np.arange(len(block))[:, None], inverse.reshape(cand.shape)]
    # Knock out self-references and duplicates (keep the first occurrence).
    sims[cand == block[:, None]] = -np.inf
    order = np.argsort(cand, axis=1, kind="stable")
    cand_sorted = np.take_along_axis(cand, order, axis=1)
    sims_sorted = np.take_along_axis(sims, order, axis=1)
    dup = cand_sorted[:, 1:] == cand_sorted[:, :-1]
    sims_sorted[:, 1:][dup] = -np.inf
    return cand_sorted, sims_sorted


@pytest.fixture
def reference_kernel(monkeypatch):
    """Swap the oracle in at both binding sites of the kernel."""
    # ``repro.index`` re-exports the *function* nndescent under the
    # submodule's name, so the module has to be asked for by path.
    for module in ("repro.index.nndescent", "repro.index.components"):
        monkeypatch.setattr(
            importlib.import_module(module),
            "block_candidate_sims",
            _reference_block_candidate_sims,
        )


def _two_modality_space(n: int) -> JointSpace:
    return JointSpace(random_multivector_set(n, (12, 6), seed=n),
                      Weights([0.6, 0.4]))


def _one_modality_space(n: int = 400) -> JointSpace:
    return JointSpace(random_multivector_set(n, (32,), seed=5), Weights([1.0]))


def _tied_rows(space: JointSpace, k: int, max_candidates: int = 64) -> np.ndarray:
    """Rows whose ranked two-hop candidates hold two *exactly* equal
    similarities: there the ranking, hence the selected list, follows
    column order and parity with the oracle is not promised.  About
    3 rows in 10 000 on random float32 corpora; which ones depends on
    the BLAS build."""
    knn = nndescent(space, min(k, space.n - 1))
    _, sims = two_hop_candidates(space, knn, max_candidates=max_candidates)
    return ((sims[:, 1:] == sims[:, :-1]) & np.isfinite(sims[:, 1:])).any(axis=1)


def _assert_same_build(builder, space, request, tied=None):
    """*builder*'s graph equals the one it builds on the oracle kernel,
    row by row (rows flagged in *tied* excepted)."""
    got = builder.build(space)
    request.getfixturevalue("reference_kernel")
    want = builder.build(space)
    assert got.seed_vertex == want.seed_vertex
    rows = range(space.n) if tied is None else np.flatnonzero(~tied)
    assert len(rows) >= 0.99 * space.n
    for v in rows:
        assert np.array_equal(got.neighbors[v], want.neighbors[v]), v


class TestSortFreeKernelParity:
    """The scatter-based dedupe against the sort-based oracle."""

    @pytest.mark.parametrize("with_reverse", [False, True])
    def test_same_finite_pairs_per_row(self, space, with_reverse):
        knn = nndescent(space, 8, iterations=1, seed=4)
        reverse = reverse_neighbors(knn, 8) if with_reverse else None
        concat = space.concatenated
        for start in (0, 128, 256):
            block = np.arange(start, min(start + 128, space.n))
            cand, sims = block_candidate_sims(concat, knn, block, reverse)
            ref_cand, ref_sims = _reference_block_candidate_sims(
                concat, knn, block, reverse
            )
            assert cand.shape == ref_cand.shape and cand.dtype == ref_cand.dtype
            assert sims.dtype == ref_sims.dtype
            for row in range(len(block)):
                keep, ref_keep = np.isfinite(sims[row]), np.isfinite(ref_sims[row])
                got = sorted(zip(cand[row][keep].tolist(), sims[row][keep].tolist()))
                want = sorted(
                    zip(ref_cand[row][ref_keep].tolist(),
                        ref_sims[row][ref_keep].tolist())
                )
                assert got == want  # same ids, once each, same float bits
                assert block[row] not in cand[row][keep]

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"use_reverse": False}, {"resume": True}],
        ids=["default", "no-reverse", "init-resume"],
    )
    def test_nndescent_same_neighbour_sets(self, space, kwargs, request):
        kwargs = dict(kwargs)
        if kwargs.pop("resume", False):
            kwargs["init"] = nndescent(space, 8, iterations=1, seed=2)
        got = nndescent(space, 8, iterations=2, seed=2, **kwargs)
        request.getfixturevalue("reference_kernel")
        want = nndescent(space, 8, iterations=2, seed=2, **kwargs)
        # Order inside a row is argpartition's; the sets must agree.
        assert np.array_equal(np.sort(got, axis=1), np.sort(want, axis=1))

    @pytest.mark.parametrize("n", [3, 31, 50, 192, 600])
    # One value: NNDescent has one (sequential) sweep; the id keeps the
    # cells' names.
    @pytest.mark.parametrize("sweep", ["1"])
    def test_fused_build_identical(self, n, sweep, request):
        space = _two_modality_space(n)
        _assert_same_build(
            FusedIndexBuilder(), space, request, tied=_tied_rows(space, 30)
        )

    def test_fused_build_identical_one_modality(self, request):
        space = _one_modality_space()
        _assert_same_build(
            FusedIndexBuilder(), space, request, tied=_tied_rows(space, 30)
        )

    def test_nssg_identical(self, request):
        space = _two_modality_space(192)
        _assert_same_build(
            BUILDERS["nssg"](gamma=10), space, request,
            tied=_tied_rows(space, 20, max_candidates=96),
        )

    def test_nsg_identical(self, request):
        # NSG's candidates come from greedy search over the KNN graph;
        # the kernel reaches it only through nndescent's neighbour sets.
        _assert_same_build(
            BUILDERS["nsg"](gamma=10), _two_modality_space(192), request
        )

    def test_kgraph_same_neighbour_sets(self, request):
        space = _two_modality_space(192)
        got = BUILDERS["kgraph"](gamma=10).build(space)
        request.getfixturevalue("reference_kernel")
        want = BUILDERS["kgraph"](gamma=10).build(space)
        for a, b in zip(got.neighbors, want.neighbors):
            assert np.array_equal(np.sort(a), np.sort(b))


def _corpus(seed: int, n: int, triplicated: bool) -> np.ndarray:
    """A float32 matrix of *n* rows: independent ones, or a third as
    many rows each stored three times (every similarity tied)."""
    rng = np.random.default_rng(seed)
    rows = -(-n // 3) if triplicated else n
    base = rng.standard_normal((rows, 6)).astype(np.float32)
    return np.ascontiguousarray(np.tile(base, (3, 1))[:n] if triplicated else base)


@settings(deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    k=st.integers(1, 8),
    triplicated=st.booleans(),
    with_reverse=st.booleans(),
    start=st.integers(0, 59),
    size=st.integers(1, 24),
)
def test_native_join_is_the_numpy_join(
    seed, n, k, triplicated, with_reverse, start, size
):
    """``join_number`` + ``join_fill`` around the matmul return the NumPy
    oracle's ``(cand, sims)`` byte for byte: the same columns, each repeat's
    similarity on its last column, ``-inf`` on the others and on every
    self-reference.  Neighbour lists are drawn at random, so they name
    their own vertex and repeat ids; a triplicated corpus ties
    everything."""
    rng = np.random.default_rng(seed)
    concat = _corpus(seed, n, triplicated)
    neighbors = rng.integers(0, n, (n, k)).astype(np.int32)
    reverse = reverse_neighbors(neighbors, k) if with_reverse else None
    block = np.arange(start % n, min(start % n + size, n))
    cand, sims = block_candidate_sims(concat, neighbors, block, reverse)
    want_cand, want_sims = oracles.block_candidate_sims(
        concat, neighbors, block, reverse
    )
    assert cand.dtype == want_cand.dtype and sims.dtype == want_sims.dtype
    assert cand.shape == want_cand.shape and sims.shape == want_sims.shape
    assert cand.tobytes() == want_cand.tobytes()
    assert sims.tobytes() == want_sims.tobytes()


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.integers(1, 80),
    gamma=st.integers(1, 90),
    density=st.floats(0.0, 1.0),
)
@example(seed=0, c=1, gamma=1, density=0.5)
@example(seed=1, c=1, gamma=30, density=1.0)
@example(seed=2, c=20, gamma=40, density=0.0)
@example(seed=3, c=64, gamma=64, density=0.1)
def test_native_greedy_pick_is_the_numpy_pick(seed, c, gamma, density):
    """``greedy_pick`` picks the rows the oracle's bitmask loop does, for any
    domination matrix, one candidate, and γ at or past the candidate
    count."""
    rng = np.random.default_rng(seed)
    dominated = rng.random((c, c)) < density
    got = _greedy_by_domination(dominated, gamma)
    want = oracles.greedy_pick(dominated, gamma)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert got[0] == 0 and len(got) <= gamma


INVALID = -4  # native.c's status for an input out of range


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    dim=st.integers(1, 20),
    duplicated=st.booleans(),
    rows=st.integers(1, 6),
    c=st.integers(1, 16),
    gamma=st.integers(1, 20),
    alpha=st.sampled_from([1.0, 1.2, 2.0]),
    padding=st.floats(0.0, 1.0),
)
@example(seed=0, n=1, dim=1, duplicated=False, rows=1, c=1, gamma=1,
         alpha=1.0, padding=1.0)
@example(seed=1, n=30, dim=17, duplicated=True, rows=3, c=16, gamma=16,
         alpha=1.0, padding=0.0)
def test_native_prune_is_the_numpy_prune(
    seed, n, dim, duplicated, rows, c, gamma, alpha, padding
):
    """``prune_rows`` over a ``-1``-padded candidate matrix picks, row by
    row, what the oracle's lane Gram and bitmask pick do, ``prune_one``
    through it as well: exact ties (a corpus of rows stored three times),
    α ∈ {1, 1.2, 2}, γ at or past the candidate count, padding anywhere
    and rows that are all padding."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((-(-n // 3) if duplicated else n, dim))
    concat = np.ascontiguousarray(
        (np.tile(base, (3, 1))[:n] if duplicated else base).astype(np.float32)
    )
    total = float(rng.uniform(0.5, 4.0))
    cand = np.full((rows, c), -1, dtype=np.int32)
    sims = np.full((rows, c), -np.inf, dtype=np.float32)
    for r in range(rows):
        ids = rng.permutation(n)[:c]
        row_sims = concat[ids] @ concat[rng.integers(n)]
        order = np.argsort(-row_sims, kind="stable")
        cand[r, : ids.size], sims[r, : ids.size] = ids[order], row_sims[order]
    cand[rng.random((rows, c)) < padding] = -1
    got = _prune_rows(concat, total, cand, sims, gamma, alpha)
    assert len(got) == rows
    for r in range(rows):
        valid = cand[r] >= 0
        args = (concat, total, cand[r][valid], sims[r][valid], gamma, alpha)
        one = prune_one(*args)
        want = oracles.prune_one(*args)
        assert got[r].dtype == one.dtype == want.dtype == np.int32
        assert got[r].tolist() == one.tolist() == want.tolist(), r
        assert len(want) <= gamma and set(want) <= set(cand[r][valid])


@pytest.mark.parametrize("bad", [-1, 64, 65], ids=["below 0", "n", "past n"])
def test_join_number_refuses_ids_out_of_range(bad):
    """An id outside ``[0, n)`` is refused, ``n`` itself included, before
    ``pos`` or ``uniq`` is written: both carry a spare slot, so a kernel
    that took id ``n`` would write one and answer."""
    n = 64
    cand = np.array([3, 9, bad, 9], dtype=np.int32)
    pos = np.full(n + 1, -7, dtype=np.int32)
    uniq = np.full(cand.size + 1, -7, dtype=np.int64)
    status = native.lib.join_number(
        cand.ctypes.data, cand.size, n, pos.ctypes.data, uniq.ctypes.data
    )
    assert status == INVALID
    assert (pos == -7).all() and (uniq == -7).all()


@pytest.mark.parametrize("bad", [-2, 7, 2**40], ids=["below -1", "n", "far past n"])
def test_prune_rows_refuses_ids_out_of_range(bad):
    """An id neither ``-1`` (padding) nor in ``[0, n)`` is refused before
    any row's picks or count is written — the bad id sits in the last
    row, so a kernel that checked while it went would write the first."""
    concat = np.eye(7, 4, dtype=np.float32)
    cand = np.array([[1, 2, -1], [3, 4, bad]], dtype=np.int64)
    sims = np.zeros(cand.shape)
    picked = np.full(cand.shape, 99, dtype=np.int64)
    counts = np.full(2, 99, dtype=np.int64)
    status = native.lib.prune_rows(
        concat.ctypes.data, 7, 4, cand.ctypes.data, sims.ctypes.data, 2, 3,
        3, 1.0, 1.0, picked.ctypes.data, counts.ctypes.data,
    )
    assert status == INVALID
    assert (picked == 99).all() and (counts == 99).all()
    with pytest.raises(RuntimeError, match="refused"):
        _prune_rows(concat, 1.0, cand, sims, 3, 1.0)


def _tripled_space(n: int, seed: int) -> JointSpace:
    base = random_multivector_set(n // 3, (12, 6), seed=seed)
    return JointSpace(
        MultiVectorSet([np.tile(m, (3, 1)) for m in base.matrices]),
        Weights([0.5, 0.5]),
    )


class TestNativeBuildIsTheNumpyBuild:
    """The kernels' build and the NumPy oracles' (put in at every
    binding site): the same neighbour lists and seed, every row, ties
    included."""

    @pytest.fixture(scope="class", params=["random", "triplicated"])
    def corpus(self, request):
        if request.param == "random":
            return _two_modality_space(240)
        return _tripled_space(240, seed=9)

    @pytest.mark.parametrize(
        "builder",
        [
            FusedIndexBuilder(gamma=12, selection="mrng"),
            FusedIndexBuilder(gamma=12, selection="angle"),
            HNSWBuilder(m=6, ef_construction=24),
            VamanaBuilder(r=12, beam=24),
        ],
        ids=["mrng", "angle", "hnsw", "vamana"],
    )
    def test_same_graph(self, corpus, builder, monkeypatch):
        got = builder.build(corpus)
        nndescent_module = importlib.import_module("repro.index.nndescent")
        components = importlib.import_module("repro.index.components")
        for module in (nndescent_module, components):
            monkeypatch.setattr(
                module, "block_candidate_sims", oracles.block_candidate_sims
            )
        monkeypatch.setattr(components, "_greedy_by_domination", oracles.greedy_pick)
        monkeypatch.setattr(components, "_prune_rows", oracles.prune_rows)
        want = builder.build(corpus)
        assert got.seed_vertex == want.seed_vertex
        assert len(got.neighbors) == len(want.neighbors) == corpus.n
        for v, (a, b) in enumerate(zip(got.neighbors, want.neighbors)):
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), v


class TestTieContract:
    """Exactly tied similarities (every object stored three times): the
    lists are one valid answer among several, not the oracle's."""

    @pytest.fixture(scope="class")
    def tied_space(self):
        base = random_multivector_set(120, (12, 6), seed=9)
        return JointSpace(
            MultiVectorSet([np.tile(m, (3, 1)) for m in base.matrices]),
            Weights([0.5, 0.5]),
        )

    def test_deterministic_and_valid(self, tied_space):
        a = FusedIndexBuilder(gamma=8).build(tied_space)
        b = FusedIndexBuilder(gamma=8).build(tied_space)
        for v, (x, y) in enumerate(zip(a.neighbors, b.neighbors)):
            assert np.array_equal(x, y)
            assert v not in x
            assert np.unique(x).size == x.size
        a.validate()
        assert _bfs(a.neighbors, a.seed_vertex).all()

    def test_quality_matches_reference(self, tied_space, request):
        got = nndescent(tied_space, 8, seed=1)
        for v in range(tied_space.n):
            assert v not in got[v] and np.unique(got[v]).size == 8
        request.getfixturevalue("reference_kernel")
        want = nndescent(tied_space, 8, seed=1)
        quality = graph_quality(tied_space, got, sample=360)
        assert abs(quality - graph_quality(tied_space, want, sample=360)) <= 0.01


class TestCandidates:
    def test_two_hop_contains_direct_neighbors(self, space):
        knn = nndescent(space, 6, iterations=2, seed=3)
        cand, sims = two_hop_candidates(space, knn, max_candidates=40)
        for v in (0, 17, 100):
            row = set(cand[v][cand[v] >= 0].tolist())
            direct = set(knn[v].tolist())
            # Direct neighbours are candidates unless pushed out by closer
            # two-hop ones; require substantial overlap.
            assert len(row & direct) >= len(direct) // 2

    @pytest.mark.parametrize("bad", [0, -1])
    def test_two_hop_block_size_must_be_positive(self, space, bad):
        """Unchecked, a negative size gives every vertex only ``-1``
        candidates."""
        knn = nndescent(space, 6, iterations=1, seed=3)
        with pytest.raises(ValueError, match="block_size must be at least 1"):
            two_hop_candidates(space, knn, block_size=bad)

    def test_two_hop_sorted_descending(self, space):
        knn = nndescent(space, 6, iterations=2, seed=3)
        cand, sims = two_hop_candidates(space, knn, max_candidates=40)
        for v in (0, 50):
            valid = sims[v][cand[v] >= 0]
            assert list(valid) == sorted(valid, reverse=True)

    def test_two_hop_excludes_self(self, space):
        knn = nndescent(space, 6, iterations=2, seed=3)
        cand, _ = two_hop_candidates(space, knn, max_candidates=40)
        for v in range(space.n):
            assert v not in cand[v]

    def test_search_based_candidates(self, space):
        knn = nndescent(space, 6, iterations=2, seed=3)
        entry = centroid_seed(space)
        cand, sims = search_based_candidates(space, knn, entry, max_candidates=20)
        assert cand.shape == (space.n, 20)
        for v in (0, 10):
            assert v not in cand[v]
            valid = sims[v][cand[v] >= 0]
            assert list(valid) == sorted(valid, reverse=True)


class TestSelection:
    @pytest.fixture(scope="class")
    def cand_sims(self, space):
        knn = nndescent(space, 8, iterations=2, seed=3)
        return two_hop_candidates(space, knn, max_candidates=32)

    def test_mrng_respects_gamma(self, space, cand_sims):
        neighbors = mrng_select(space, *cand_sims, gamma=5)
        assert all(len(adj) <= 5 for adj in neighbors)

    def test_mrng_keeps_closest(self, space, cand_sims):
        cand, sims = cand_sims
        neighbors = mrng_select(space, cand, sims, gamma=5)
        for v in (0, 100, 250):
            assert cand[v][0] in neighbors[v]

    def test_lemma2_angle_at_least_60_degrees(self, space, cand_sims):
        """Lemma 2: MRNG-selected neighbour pairs subtend ≥ 60° at the vertex.

        Checked geometrically on the concatenated vectors (the proof's
        IP-as-side-length argument corresponds to the Euclidean geometry
        of the shared-norm concatenated space).
        """
        neighbors = mrng_select(space, *cand_sims, gamma=8)
        concat = space.concatenated.astype(np.float64)
        violations = 0
        checked = 0
        for v in range(0, space.n, 7):
            adj = neighbors[v]
            for i in range(len(adj)):
                for j in range(i + 1, len(adj)):
                    e1 = concat[adj[i]] - concat[v]
                    e2 = concat[adj[j]] - concat[v]
                    cos = e1 @ e2 / (np.linalg.norm(e1) * np.linalg.norm(e2))
                    checked += 1
                    if cos > 0.5 + 1e-6:  # angle < 60°
                        violations += 1
        assert checked > 50
        assert violations == 0

    @staticmethod
    def _alpha_pruned(space, cand, sims, gamma, alpha):
        """Every row α-pruned one at a time, as Vamana and HNSW call
        :func:`prune_one`."""
        out = []
        for ids, row_sims in zip(cand, sims):
            valid = ids >= 0
            out.append(prune_one(space.concatenated, space.weights.total,
                                 ids[valid], row_sims[valid], gamma, alpha))
        return out

    def test_alpha_keeps_more_than_mrng(self, space, cand_sims):
        strict = mrng_select(space, *cand_sims, gamma=16)
        relaxed = self._alpha_pruned(space, *cand_sims, gamma=16, alpha=1.4)
        assert sum(map(len, relaxed)) > sum(map(len, strict))

    def test_alpha_one_equals_mrng(self, space, cand_sims):
        strict = mrng_select(space, *cand_sims, gamma=10)
        alpha1 = self._alpha_pruned(space, *cand_sims, gamma=10, alpha=1.0)
        for a, b in zip(strict, alpha1):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_angle_select_respects_threshold(self, space, cand_sims):
        neighbors = angle_select(space, cand_sims[0], gamma=8)
        concat = space.concatenated.astype(np.float64)
        for v in range(0, space.n, 11):
            adj = neighbors[v]
            for i in range(len(adj)):
                for j in range(i + 1, len(adj)):
                    e1 = concat[adj[i]] - concat[v]
                    e2 = concat[adj[j]] - concat[v]
                    cos = e1 @ e2 / (np.linalg.norm(e1) * np.linalg.norm(e2))
                    assert cos <= 0.5 + 1e-6

    def test_top_gamma_takes_prefix(self, cand_sims):
        cand, _ = cand_sims
        neighbors = top_gamma_select(cand, gamma=4)
        for v in (0, 5):
            expected = cand[v][cand[v] >= 0][:4]
            assert np.array_equal(neighbors[v], expected)

    def test_prune_one_empty(self, space):
        out = prune_one(space.concatenated, space.weights.total,
                        np.empty(0, dtype=np.int64), np.empty(0), gamma=5)
        assert out.size == 0


class TestSeedAndConnectivity:
    def test_centroid_seed_is_most_central(self, space):
        seed = centroid_seed(space)
        c = space.concatenated
        centroid = c.mean(axis=0)
        assert np.argmax(c @ centroid) == seed

    def test_connectivity_reaches_all(self, space):
        # Pathological graph: no edges at all.
        neighbors = [np.empty(0, dtype=np.int32) for _ in range(space.n)]
        seed = centroid_seed(space)
        fixed = ensure_connectivity(space, neighbors, seed)
        reached = _bfs(fixed, seed)
        assert reached.all()

    def test_connectivity_preserves_existing_edges(self, space):
        knn = nndescent(space, 5, iterations=1, seed=4)
        neighbors = [knn[v] for v in range(space.n)]
        fixed = ensure_connectivity(space, neighbors, 0)
        for v in range(space.n):
            assert set(knn[v].tolist()) <= set(fixed[v].tolist())

    def test_connectivity_noop_when_connected(self, space):
        idx = FusedIndexBuilder(gamma=8, seed=1).build(space)
        before = sum(len(a) for a in idx.neighbors)
        fixed = ensure_connectivity(space, idx.neighbors, idx.seed_vertex)
        assert sum(len(a) for a in fixed) == before


def _bfs(neighbors, start):
    n = len(neighbors)
    seen = np.zeros(n, dtype=bool)
    stack = [start]
    seen[start] = True
    while stack:
        v = stack.pop()
        for u in neighbors[v]:
            if not seen[u]:
                seen[u] = True
                stack.append(int(u))
    return seen


class TestFusedIndexBuilder:
    def test_build_valid_graph(self, space):
        idx = FusedIndexBuilder(gamma=8, seed=1).build(space)
        idx.validate()
        assert idx.n == space.n
        assert idx.degree_stats()["max"] <= 8 + 1  # +1 connectivity bridges

    def test_reachability_from_seed(self, space):
        idx = FusedIndexBuilder(gamma=8, seed=1).build(space)
        assert _bfs(idx.neighbors, idx.seed_vertex).all()

    def test_deterministic_build(self, space):
        a = FusedIndexBuilder(gamma=8, seed=1).build(space)
        b = FusedIndexBuilder(gamma=8, seed=1).build(space)
        for x, y in zip(a.neighbors, b.neighbors):
            assert np.array_equal(x, y)
        assert a.seed_vertex == b.seed_vertex

    def test_meta_records_parameters(self, space):
        idx = FusedIndexBuilder(gamma=8, epsilon=2, seed=1).build(space)
        assert idx.meta["gamma"] == 8
        assert idx.meta["epsilon"] == 2
        assert idx.build_seconds > 0

    def test_selection_variants_build(self, space):
        for selection in ("mrng", "angle", "top"):
            idx = FusedIndexBuilder(
                gamma=6, selection=selection, seed=1
            ).build(space)
            idx.validate()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FusedIndexBuilder(gamma=0)
        with pytest.raises(ValueError):
            FusedIndexBuilder(selection="bogus")
        with pytest.raises(ValueError):
            FusedIndexBuilder(candidate_source="bogus")
        with pytest.raises(ValueError, match="only selection 'top' takes them"):
            FusedIndexBuilder(candidate_source="knn")
        with pytest.raises(ValueError, match="only whole"):
            FusedIndexBuilder(candidate_source="knn", selection="top", init_k=31)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_max_candidates_must_be_positive(self, bad):
        """Unchecked, ``0`` builds a graph of nothing but ⑤'s bridges."""
        with pytest.raises(ValueError, match="max_candidates must be at least 1"):
            FusedIndexBuilder(max_candidates=bad)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_init_k_must_be_positive(self, bad):
        with pytest.raises(ValueError, match="init_k must be at least 1"):
            FusedIndexBuilder(init_k=bad)

    def test_gamma_bounds_degree_growth(self, space):
        small = FusedIndexBuilder(gamma=4, seed=1).build(space)
        large = FusedIndexBuilder(gamma=16, seed=1).build(space)
        assert large.num_edges > small.num_edges


class TestLifecycleLog:
    def test_build_seal_compact_lines(self, caplog):
        """One DEBUG line per build, one INFO line per seal/compaction."""
        seg = SegmentedIndex(
            Weights([0.5, 0.5]),
            builder=FusedIndexBuilder(gamma=6, seed=1),
            policy=SegmentPolicy(seal_size=10, max_segments=2,
                                 min_compact_size=10_000),
        )
        with caplog.at_level(logging.DEBUG, logger="repro.index"):
            for part in range(3):  # three seals, the third trips a compaction
                seg.insert(random_multivector_set(10, (12, 6), seed=part))
        assert seg.num_seals == 3 and seg.num_compactions == 1
        lines = [
            (r.name, r.levelno, r.getMessage().split()) for r in caplog.records
        ]
        builds = [m for name, level, m in lines
                  if name == "repro.index.pipeline" and level == logging.DEBUG]
        events = [m for name, level, m in lines
                  if name == "repro.index.segments" and level == logging.INFO]
        assert len(builds) == 4 and builds[0][:3] == ["event=build", "n=10", "k=6"]
        assert [f.split("=")[0] for f in builds[0][3:]] == [
            "init_s", "candidates_s", "select_s", "connect_s", "seconds"
        ]
        assert [m[:4] for m in events] == [
            ["event=seal", "n_in=10", "n_out=10", "segments=1"],
            ["event=seal", "n_in=10", "n_out=10", "segments=2"],
            ["event=seal", "n_in=10", "n_out=10", "segments=3"],
            ["event=compact", "n_in=30", "n_out=30", "segments=1"],
        ]
        assert all(float(m[4].removeprefix("seconds=")) > 0 for m in events)


class TestGraphIndexContainer:
    def test_size_in_bytes(self, tiny_index):
        assert tiny_index.size_in_bytes() == (
            tiny_index.num_edges * 4 + (tiny_index.n + 1) * 8
        )

    def test_validate_rejects_self_loop(self, tiny_space):
        neighbors = [np.empty(0, dtype=np.int32) for _ in range(tiny_space.n)]
        neighbors[3] = np.array([3], dtype=np.int32)
        idx = GraphIndex(tiny_space, neighbors, seed_vertex=0)
        with pytest.raises(ValueError, match="self-loop"):
            idx.validate()

    def test_validate_rejects_out_of_range(self, tiny_space):
        neighbors = [np.empty(0, dtype=np.int32) for _ in range(tiny_space.n)]
        neighbors[0] = np.array([tiny_space.n + 5], dtype=np.int32)
        idx = GraphIndex(tiny_space, neighbors, seed_vertex=0)
        with pytest.raises(ValueError, match="out-of-range"):
            idx.validate()

    def test_save_load_roundtrip(self, tiny_index, tmp_path):
        path = tmp_path / "index"
        SegmentedIndex.from_graph(tiny_index).save(path)
        loaded = SegmentedIndex.load(path).sealed[0].index
        assert loaded.seed_vertex == tiny_index.seed_vertex
        assert loaded.name == tiny_index.name
        for a, b in zip(loaded.neighbors, tiny_index.neighbors):
            assert np.array_equal(a, b)

    def test_wrong_adjacency_length_rejected(self, tiny_space):
        with pytest.raises(ValueError):
            GraphIndex(tiny_space, [np.empty(0, dtype=np.int32)], 0)
