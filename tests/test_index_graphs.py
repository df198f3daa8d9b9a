"""Tests for the six alternative proximity graphs (Fig. 10 zoo)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.multivector import MultiVectorSet
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index import BUILDERS, FlatIndex, joint_search
from repro.index.graphs.hnsw import HNSWBuilder, HNSWGraph
from repro.index.pipeline import FusedIndexBuilder
from repro.index.segments import SegmentedIndex, SegmentPolicy

from tests.conftest import random_multivector_set, random_query


@pytest.fixture(scope="module")
def space():
    return JointSpace(random_multivector_set(250, (8, 6), seed=55),
                      Weights([0.5, 0.5]))


@pytest.fixture(scope="module")
def queries():
    return [random_query((8, 6), seed=s) for s in range(15)]


def _reachable_fraction(index) -> float:
    n = index.n
    seen = np.zeros(n, dtype=bool)
    stack = [index.seed_vertex]
    seen[index.seed_vertex] = True
    while stack:
        v = stack.pop()
        for u in index.neighbors[v]:
            if not seen[u]:
                seen[u] = True
                stack.append(int(u))
    return float(seen.mean())


@pytest.mark.parametrize("name", sorted(BUILDERS))
class TestEveryBuilder:
    def test_structurally_valid(self, space, name):
        index = _build(space, name)
        index.validate()
        assert index.name == name
        assert index.build_seconds > 0

    def test_search_recall(self, space, queries, name):
        index = _build(space, name)
        flat = FlatIndex(space)
        hits = 0
        for q in queries:
            approx = joint_search(index, q, k=10, l=80)
            exact = flat.search(q, 10)
            hits += np.intersect1d(approx.ids, exact.ids).size
        assert hits / (10 * len(queries)) > 0.8, f"{name} recall too low"

    def test_mostly_reachable(self, space, name):
        index = _build(space, name)
        # KGraph has no connectivity repair (paper: it lacks it); the
        # others must reach everything from the seed.
        minimum = 0.8 if name == "kgraph" else 1.0
        assert _reachable_fraction(index) >= minimum


_CACHE: dict[str, object] = {}


def _build(space, name):
    if name not in _CACHE:
        builder_cls = BUILDERS[name]
        _CACHE[name] = builder_cls(seed=2).build(space)
    return _CACHE[name]


@pytest.mark.parametrize("name", ["nsg", "hnsw", "vamana"])
def test_greedy_kernel_builds_the_same_graph(space, monkeypatch, name):
    """The three builders that route with ``greedy_search_graph`` produce
    the same adjacency with the pre-PR-20 loop swapped back in."""
    import repro.index.graphs.hnsw as hnsw_mod
    import repro.index.graphs.vamana as vamana_mod
    import repro.index.search as search_mod
    from tests.test_index_search import _oracle_greedy_search_graph

    built = _build(space, name)
    for mod in (search_mod, hnsw_mod, vamana_mod):
        monkeypatch.setattr(
            mod, "greedy_search_graph", _oracle_greedy_search_graph
        )
    ref = BUILDERS[name](seed=2).build(space)
    assert built.seed_vertex == ref.seed_vertex
    for got, want in zip(built.neighbors, ref.neighbors):
        np.testing.assert_array_equal(got, want)


class TestHNSWSpecifics:
    def test_incremental_insert_grows_graph(self, space):
        """§IX dynamic updates: HNSW inserts points one at a time."""
        builder = HNSWBuilder(m=8, ef_construction=24, seed=3)
        graph = HNSWGraph()
        rng = np.random.default_rng(3)
        for v in range(60):
            builder.insert(space, graph, v, rng)
        assert graph.entry_point >= 0
        assert len(graph.layers[0]) == 60

    def test_levels_geometric(self, space):
        builder = HNSWBuilder(m=8, ef_construction=24, seed=3)
        index = builder.build(space)
        assert index.meta["levels"] >= 1
        # Most points live only on the base layer.
        assert index.meta["levels"] < 10


class TestIncrementalStructure:
    """Structural property tests for the §IX dynamic-update path: the
    graph must stay valid after *every* incremental insert and across
    every seal/compact transition (no self-loops, ids in range, seed
    vertex alive)."""

    def test_validate_after_every_hnsw_insert(self):
        full = random_multivector_set(50, (8, 6), seed=77)
        weights = Weights([0.5, 0.5])
        builder = HNSWBuilder(m=6, ef_construction=24, seed=9)
        graph = HNSWGraph()
        rng = np.random.default_rng(9)
        for v in range(50):
            prefix = JointSpace(
                MultiVectorSet([m[: v + 1] for m in full.matrices]), weights
            )
            builder.insert(prefix, graph, v, rng)
            index = builder.materialize(prefix, graph)
            index.validate()
            assert 0 <= index.seed_vertex <= v
            # Every inserted vertex except the first has a neighbour.
            if v > 0:
                assert index.num_edges > 0

    def test_validate_across_seal_and_compact_transitions(self):
        weights = Weights([0.5, 0.5])
        seg = SegmentedIndex(
            weights,
            builder=FusedIndexBuilder(gamma=6, seed=1),
            policy=SegmentPolicy(seal_size=12, max_segments=3,
                                 max_deleted_fraction=0.4,
                                 min_compact_size=20),
        )
        rng = np.random.default_rng(13)

        def everything_valid():
            for s in seg.searchable_segments():
                s.index.validate()
                deleted = s.index.deleted
                assert deleted is None or not deleted[s.index.seed_vertex]

        corpus = random_multivector_set(64, (8, 6), seed=21)
        for step in range(16):  # 4 per batch → seals fire mid-stream
            seg.insert(corpus.subset(np.arange(step * 4, step * 4 + 4)))
            everything_valid()
        assert seg.num_seals > 0
        seg.mark_deleted(np.arange(0, 40, 2))  # may trigger auto-compaction
        everything_valid()
        seg.compact()
        everything_valid()
        assert len(seg.sealed) == 1 and seg.sealed[0].index.deleted is None

    def test_validate_rejects_dead_seed(self):
        space = JointSpace(random_multivector_set(30, (8, 6), seed=3),
                           Weights([0.5, 0.5]))
        index = FusedIndexBuilder(gamma=6, seed=1).build(space)
        index.mark_deleted(np.array([index.seed_vertex]))
        with pytest.raises(ValueError, match="seed vertex"):
            index.validate()


class TestBuilderOrderings:
    def test_ours_not_slower_than_search_based_nsg(self, space):
        """Fig. 10(a) shape: the re-assembled pipeline builds faster than
        NSG's search-based construction."""
        ours = _build(space, "ours")
        nsg = _build(space, "nsg")
        assert ours.build_seconds <= nsg.build_seconds * 1.5

    def test_kgraph_has_full_degree(self, space):
        kgraph = _build(space, "kgraph")
        assert kgraph.degree_stats()["min"] == kgraph.degree_stats()["max"]

    def test_selection_graphs_are_sparser_than_kgraph(self, space):
        kgraph = _build(space, "kgraph")
        ours = _build(space, "ours")
        assert ours.num_edges < kgraph.num_edges
