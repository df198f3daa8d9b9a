"""Tests for NNDescent, pipeline components, and the fused index builder."""

from __future__ import annotations

import importlib
import logging

import numpy as np
import pytest

from repro.core.multivector import MultiVectorSet
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.base import GraphIndex
from repro.index.components import (
    angle_select,
    centroid_seed,
    ensure_connectivity,
    mrng_select,
    prune_one,
    rng_alpha_select,
    search_based_candidates,
    top_gamma_select,
    two_hop_candidates,
)
from repro.index.graphs.kgraph import KGraphBuilder
from repro.index.graphs.nsg import NSGBuilder
from repro.index.graphs.nssg import NSSGBuilder
from repro.index.nndescent import (
    block_candidate_sims,
    graph_quality,
    nndescent,
    random_knn,
    reverse_neighbors,
)
from repro.index.pipeline import FusedIndexBuilder
from repro.index.segments import SegmentedIndex, SegmentPolicy

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

    def test_zero_iterations_is_init(self, space):
        knn = nndescent(space, 8, iterations=0, seed=2)
        assert np.array_equal(knn, random_knn(space.n, 8, 2))


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
        [{}, {"use_reverse": False}, {"n_jobs": 2}, {"resume": True}],
        ids=["default", "no-reverse", "jacobi", "init-resume"],
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
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_fused_build_identical(self, n, n_jobs, request):
        space = _two_modality_space(n)
        _assert_same_build(
            FusedIndexBuilder(n_jobs=n_jobs), space, request,
            tied=_tied_rows(space, 30),
        )

    def test_fused_build_identical_one_modality(self, request):
        space = _one_modality_space()
        _assert_same_build(
            FusedIndexBuilder(), space, request, tied=_tied_rows(space, 30)
        )

    def test_nssg_identical(self, request):
        space = _two_modality_space(192)
        _assert_same_build(
            NSSGBuilder(gamma=10), space, request,
            tied=_tied_rows(space, 20, max_candidates=96),
        )

    def test_nsg_identical(self, request):
        # NSG's candidates come from greedy search over the KNN graph;
        # the kernel reaches it only through nndescent's neighbour sets.
        _assert_same_build(
            NSGBuilder(gamma=10, beam=16), _two_modality_space(192), request
        )

    def test_kgraph_same_neighbour_sets(self, request):
        space = _two_modality_space(192)
        got = KGraphBuilder(k=10).build(space)
        request.getfixturevalue("reference_kernel")
        want = KGraphBuilder(k=10).build(space)
        for a, b in zip(got.neighbors, want.neighbors):
            assert np.array_equal(np.sort(a), np.sort(b))


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
        cand, sims = search_based_candidates(
            space, knn, entry, max_candidates=20, beam=16
        )
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

    def test_alpha_keeps_more_than_mrng(self, space, cand_sims):
        strict = mrng_select(space, *cand_sims, gamma=16)
        relaxed = rng_alpha_select(space, *cand_sims, gamma=16, alpha=1.4)
        assert sum(map(len, relaxed)) >= sum(map(len, strict))

    def test_alpha_one_equals_mrng(self, space, cand_sims):
        strict = mrng_select(space, *cand_sims, gamma=10)
        alpha1 = rng_alpha_select(space, *cand_sims, gamma=10, alpha=1.0)
        for a, b in zip(strict, alpha1):
            assert np.array_equal(a, b)

    def test_angle_select_respects_threshold(self, space, cand_sims):
        neighbors = angle_select(space, *cand_sims, gamma=8, min_angle_deg=60)
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
        cand, sims = cand_sims
        neighbors = top_gamma_select(cand, sims, gamma=4)
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
        for selection in ("mrng", "angle", "alpha", "top"):
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

    def test_save_load_roundtrip(self, tiny_index, tiny_space, tmp_path):
        path = tmp_path / "index.npz"
        tiny_index.save(path)
        loaded = GraphIndex.load(path, tiny_space)
        assert loaded.seed_vertex == tiny_index.seed_vertex
        assert loaded.name == tiny_index.name
        for a, b in zip(loaded.neighbors, tiny_index.neighbors):
            assert np.array_equal(a, b)

    def test_wrong_adjacency_length_rejected(self, tiny_space):
        with pytest.raises(ValueError):
            GraphIndex(tiny_space, [np.empty(0, dtype=np.int32)], 0)
