"""Tests for the joint search (Algorithm 2): engines, Lemmas 3 & 4, knobs."""

from __future__ import annotations

import dataclasses
import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.index.search as search_mod
from repro.core.framework import MUST
from repro.core.query import Eq, Query
from repro.core.results import SearchResult
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.base import GraphIndex, reseat_on_store
from repro.index.flat import FlatIndex
from repro.index.pipeline import FusedIndexBuilder
from repro.index.scoring import MatrixScorer, Scorer
from repro.index.search import greedy_search_graph, joint_search
from repro.index.segments import SegmentPolicy

from repro.utils.io import load_arrays

from tests.conftest import random_multivector_set, random_query


@pytest.fixture(scope="module")
def setup():
    space = JointSpace(random_multivector_set(400, (10, 6), seed=33),
                       Weights([0.4, 0.6]))
    index = FusedIndexBuilder(gamma=12, seed=1).build(space)
    flat = FlatIndex(space)
    queries = [random_query((10, 6), seed=s) for s in range(25)]
    return space, index, flat, queries


class TestJointSearchBasics:
    def test_returns_k_sorted_results(self, setup):
        _, index, _, queries = setup
        res = joint_search(index, queries[0], k=7, l=40)
        assert len(res) == 7
        assert list(res.similarities) == sorted(res.similarities, reverse=True)
        assert len(set(res.ids.tolist())) == 7

    def test_high_l_matches_exact(self, setup):
        space, index, flat, queries = setup
        hits = 0
        for q in queries:
            approx = joint_search(index, q, k=10, l=120)
            exact = flat.search(q, 10)
            hits += np.intersect1d(approx.ids, exact.ids).size
        assert hits / (10 * len(queries)) > 0.9

    def test_recall_increases_with_l(self, setup):
        space, index, flat, queries = setup
        recalls = []
        for l in (10, 40, 160):
            hit = 0
            for q in queries:
                approx = joint_search(index, q, k=10, l=l)
                exact = flat.search(q, 10)
                hit += np.intersect1d(approx.ids, exact.ids).size
            recalls.append(hit)
        assert recalls[0] <= recalls[1] <= recalls[2]

    def test_l_ge_n_is_exhaustive(self, setup):
        space, index, flat, queries = setup
        res = joint_search(index, queries[0], k=5, l=space.n + 10)
        exact = flat.search(queries[0], 5)
        assert np.array_equal(np.sort(res.ids), np.sort(exact.ids))

    def test_invalid_k_l(self, setup):
        _, index, _, queries = setup
        with pytest.raises(ValueError):
            joint_search(index, queries[0], k=0, l=10)
        with pytest.raises(ValueError):
            joint_search(index, queries[0], k=20, l=10)
        with pytest.raises(ValueError):
            joint_search(index, queries[0], k=1, l=10, engine="bogus")

    def test_stats_populated(self, setup):
        _, index, _, queries = setup
        res = joint_search(index, queries[0], k=5, l=30)
        assert res.stats.hops > 0
        assert res.stats.joint_evals >= 30
        assert res.stats.visited_vertices == res.stats.hops

    @pytest.mark.parametrize("engine", ["heap", "paper"])
    def test_answer_is_a_function_of_index_and_query(self, setup, engine):
        """No seed to pass: asking again — of the index or of a rebuilt
        container around the same graph — returns the same bits."""
        space, index, _, queries = setup
        twin = GraphIndex(space, index.neighbors, index.seed_vertex)
        for q in queries[:5]:
            a = joint_search(index, q, k=5, l=30, engine=engine)
            _assert_identical(a, joint_search(index, q, k=5, l=30, engine=engine))
            _assert_identical(a, joint_search(twin, q, k=5, l=30, engine=engine))
        with pytest.raises(TypeError):
            joint_search(index, queries[0], k=5, l=30, rng=7)


class TestEntryOrder:
    """Algorithm 2's init set as a property of the graph."""

    def test_seed_first_then_a_permutation_of_the_rest(self, setup):
        _, index, _, _ = setup
        order = index.entry_points(index.n)
        assert order.dtype == np.int64 and order[0] == index.seed_vertex
        assert np.array_equal(np.sort(order), np.arange(index.n))
        # Not the identity: the tail is shuffled.
        assert not np.array_equal(order[1:], np.sort(order[1:]))

    def test_a_search_takes_a_prefix(self, setup):
        _, index, _, _ = setup
        order = index.entry_points(index.n)
        for l in (1, 7, 100, index.n, index.n + 50):
            assert np.array_equal(index.entry_points(l), order[:l])
        assert np.shares_memory(index.entry_points(10), order)
        with pytest.raises(ValueError):
            index.entry_points(5)[0] = 0  # shared, hence read-only

    def test_pure_function_of_n_and_seed_vertex(self, setup):
        space, index, _, _ = setup
        twin = GraphIndex(space, index.neighbors[::-1], index.seed_vertex)
        assert np.array_equal(twin.entry_points(50), index.entry_points(50))
        moved = GraphIndex(space, index.neighbors, (index.seed_vertex + 1) % 400)
        assert moved.entry_points(1)[0] == moved.seed_vertex
        assert not np.array_equal(moved.entry_points(50), index.entry_points(50))

    def test_reseating_the_seed_recomputes(self, setup):
        space, index, _, _ = setup
        graph = GraphIndex(space, index.neighbors, 3)
        assert graph.entry_points(1)[0] == 3
        graph.seed_vertex = 9
        order = graph.entry_points(400)
        assert order[0] == 9 and np.array_equal(np.sort(order), np.arange(400))

    def test_single_vertex_graph(self):
        space = JointSpace(random_multivector_set(1, (4,), seed=0), Weights([1.0]))
        lone = GraphIndex(space, [np.zeros(0, dtype=np.int32)], 0)
        assert lone.entry_points(10).tolist() == [0]

    def test_not_persisted_and_recomputed_on_load(self, setup, tmp_path):
        space, index, _, queries = setup
        index.save(tmp_path / "g.npz")
        metadata, arrays = load_arrays(tmp_path / "g.npz")
        assert set(arrays) == {"flat", "offsets"}
        assert set(metadata) == {"name", "seed_vertex", "build_seconds", "meta"}
        loaded = GraphIndex.load(tmp_path / "g.npz", space)
        assert np.array_equal(loaded.entry_points(400), index.entry_points(400))
        _assert_identical(
            joint_search(loaded, queries[0], k=5, l=30),
            joint_search(index, queries[0], k=5, l=30),
        )


class TestEngines:
    def test_heap_and_paper_agree(self, setup):
        """Both engines implement the same greedy routing; they agree on
        the returned results for the overwhelming majority of queries."""
        _, index, flat, queries = setup
        agree = 0
        for q in queries:
            heap = joint_search(index, q, k=10, l=60, engine="heap")
            paper = joint_search(index, q, k=10, l=60, engine="paper")
            agree += np.intersect1d(heap.ids, paper.ids).size
        assert agree / (10 * len(queries)) > 0.95

    def test_paper_engine_lemma3_monotone(self, setup):
        _, index, _, queries = setup
        for q in queries[:10]:
            joint_search(index, q, k=5, l=40, engine="paper",
                         check_monotone=True)

    def test_heap_engine_lemma3_monotone(self, setup):
        _, index, _, queries = setup
        for q in queries[:10]:
            joint_search(index, q, k=5, l=40, engine="heap",
                         check_monotone=True)


class TestLemma4Equivalence:
    def test_early_termination_identical_results(self, setup):
        """Lemma 4: the multi-vector optimisation never changes results."""
        _, index, _, queries = setup
        for engine in ("heap", "paper"):
            for q in queries:
                fast = joint_search(index, q, k=10, l=50, engine=engine,
                                    early_termination=False)
                pruned = joint_search(index, q, k=10, l=50, engine=engine,
                                      early_termination=True)
                assert np.array_equal(fast.ids, pruned.ids)
                assert np.allclose(
                    fast.similarities, pruned.similarities, atol=1e-5
                )

    def test_early_termination_saves_modality_evals(self, setup):
        _, index, _, queries = setup
        base = sum(
            joint_search(index, q, k=10, l=20).stats.modality_evals
            for q in queries
        )
        pruned = sum(
            joint_search(index, q, k=10, l=20,
                         early_termination=True).stats.modality_evals
            for q in queries
        )
        assert pruned <= base

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10_000), st.sampled_from([10, 25, 60]))
    def test_lemma4_property(self, setup, qseed, l):
        _, index, _, _ = setup
        q = random_query((10, 6), seed=qseed)
        fast = joint_search(index, q, k=5, l=l)
        pruned = joint_search(index, q, k=5, l=l, early_termination=True)
        assert np.array_equal(fast.ids, pruned.ids)


class TestQueryVariants:
    def test_single_modality_query(self, setup):
        space, index, flat, queries = setup
        q = queries[0].replace(1, None)
        res = joint_search(index, q, k=5, l=80)
        exact = flat.search(q, 5)
        assert np.intersect1d(res.ids, exact.ids).size >= 3

    def test_weight_override_changes_results(self, setup):
        _, index, _, queries = setup
        default = joint_search(index, queries[1], k=10, l=60)
        skewed = joint_search(index, queries[1], k=10, l=60,
                              weights=Weights([0.99, 0.01]))
        assert not np.array_equal(default.ids, skewed.ids)

    def test_weight_override_matches_exact(self, setup):
        space, index, flat, queries = setup
        override = Weights([0.8, 0.2])
        res = joint_search(index, queries[2], k=10, l=150, weights=override)
        exact = flat.search(queries[2], 10, weights=override)
        assert np.intersect1d(res.ids, exact.ids).size >= 8


class TestFlatIndex:
    def test_exact_results_sorted(self, setup):
        space, _, flat, queries = setup
        res = flat.search(queries[0], 8)
        full = space.query_all(queries[0])
        assert res.similarities[0] == pytest.approx(full.max(), abs=1e-6)
        assert list(res.similarities) == sorted(res.similarities, reverse=True)

    def test_stats_count_full_scan(self, setup):
        space, _, flat, queries = setup
        res = flat.search(queries[0], 5)
        # One float32 prefilter over every row, then the float64 rerank
        # of the shortlist: five rows on this well-separated corpus.
        assert res.stats.visited_vertices == space.n
        assert res.stats.joint_evals == space.n + 5
        assert res.stats.modality_evals == (space.n + 5) * 2


class TestGreedySearchGraph:
    def test_finds_entry_at_least(self, setup):
        space, index, _, _ = setup
        ids, sims = greedy_search_graph(
            space.concatenated, index.neighbors, index.seed_vertex,
            space.concatenated[5], beam=10,
        )
        assert ids.size >= 1
        assert list(sims) == sorted(sims, reverse=True)

    def test_locates_existing_vector(self, setup):
        space, index, _, _ = setup
        found = 0
        for target in (3, 77, 200, 399):
            ids, _ = greedy_search_graph(
                space.concatenated, index.neighbors, index.seed_vertex,
                space.concatenated[target], beam=30,
            )
            found += int(target in ids[:5])
        assert found >= 3


def _oracle_heap_search(
    index, query, k, l, weights, early_termination, check_monotone,
    excluded, reportable,
):
    """``_heap_search`` as it stood before PR 20 stripped its hot loop.

    The straightforward form of the two-heap engine — one
    ``score_frontier`` call per hop, the threshold re-read from the heap
    wherever it is needed, counters written as they happen.  Kept here
    verbatim as the oracle the flattened kernel must equal bit for bit.
    """
    space = index.space
    n = space.n
    scorer = Scorer(space, query, weights=weights,
                    early_termination=early_termination)
    stats = scorer.stats

    r_ids = index.entry_points(l)
    seen = np.zeros(n, dtype=bool)
    seen[r_ids] = True
    init_sims = scorer.score_ids(r_ids)

    deleted = excluded
    cap = min(l, reportable)

    results = [
        (float(s), int(v))
        for s, v in zip(init_sims, r_ids)
        if deleted is None or not deleted[v]
    ]
    heapq.heapify(results)
    candidates = [(-float(s), int(v)) for s, v in zip(init_sims, r_ids)]
    heapq.heapify(candidates)
    neighbors = index.neighbors
    total = float(sum(s for s, _ in results))

    def threshold_now() -> float:
        return results[0][0] if len(results) >= cap else -np.inf

    while candidates:
        neg_sim, v = heapq.heappop(candidates)
        if -neg_sim < threshold_now():
            break
        stats.hops += 1
        stats.visited_vertices += 1
        adj = neighbors[v]
        fresh = adj[~seen[adj]]
        if fresh.size == 0:
            continue
        seen[fresh] = True
        threshold = threshold_now()
        sims, keep = scorer.score_frontier(fresh, threshold)
        win = np.flatnonzero(keep)
        for j in win:
            sim = float(sims[j])
            u = int(fresh[j])
            if sim <= threshold_now():
                continue
            heapq.heappush(candidates, (-sim, u))
            if deleted is not None and deleted[u]:
                continue
            if len(results) < cap:
                heapq.heappush(results, (sim, u))
                total += sim
                continue
            dropped = heapq.heappushpop(results, (sim, u))
            if check_monotone:
                new_total = total + sim - dropped[0]
                assert new_total >= total - 1e-9, (
                    f"Lemma 3 violated: {new_total} < {total}"
                )
                total = new_total

    ranked = sorted(results, key=lambda t: (-t[0], t[1]))[:k]
    return SearchResult(
        ids=np.asarray([v for _, v in ranked], dtype=np.int64),
        similarities=np.asarray([s for s, _ in ranked]),
        stats=stats,
    )


def _oracle_greedy_search_graph(concat, neighbors, entry, query_vec, beam):
    """``greedy_search_graph`` before PR 20 (same role as the above)."""
    n = concat.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[entry] = True
    entry_sim = float(concat[entry] @ query_vec)
    results = [(entry_sim, entry)]
    candidates = [(-entry_sim, entry)]
    expanded_ids = [entry]
    expanded_sims = [entry_sim]
    while candidates:
        neg_sim, v = heapq.heappop(candidates)
        if len(results) >= beam and -neg_sim < results[0][0]:
            break
        adj = np.asarray(neighbors[v])
        fresh = adj[~seen[adj]]
        if fresh.size == 0:
            continue
        seen[fresh] = True
        sims = concat[fresh] @ query_vec
        threshold = results[0][0] if len(results) >= beam else -np.inf
        for j in np.flatnonzero(sims > threshold):
            sim = float(sims[j])
            u = int(fresh[j])
            heapq.heappush(candidates, (-sim, u))
            expanded_ids.append(u)
            expanded_sims.append(sim)
            if len(results) < beam:
                heapq.heappush(results, (sim, u))
            else:
                heapq.heappushpop(results, (sim, u))
    order = np.argsort(-np.asarray(expanded_sims), kind="stable")
    ids = np.asarray(expanded_ids, dtype=np.int64)[order]
    return ids, np.asarray(expanded_sims)[order]


def _assert_identical(got: SearchResult, ref: SearchResult) -> None:
    assert got.ids.dtype == ref.ids.dtype
    assert got.similarities.dtype == ref.similarities.dtype
    np.testing.assert_array_equal(got.ids, ref.ids)
    # Bitwise, not approx: compare the float64 payloads as integers.
    np.testing.assert_array_equal(
        got.similarities.view(np.int64), ref.similarities.view(np.int64)
    )
    assert dataclasses.asdict(got.stats) == dataclasses.asdict(ref.stats)


class TestHeapKernelParity:
    """The flattened ``_heap_search`` loop against the loop it replaced:
    ids, similarities (bitwise) and every ``SearchStats`` field."""

    DIMS = (10, 6)

    @pytest.fixture(scope="class")
    def world(self, setup):
        """The module graph again over a space that carries attributes,
        plus the same graph re-seated on each compressed store."""
        space, index, _, queries = setup
        objects = random_multivector_set(400, self.DIMS, seed=33)
        objects.set_attributes({"bucket": np.arange(objects.n) % 4})
        dense = GraphIndex(
            space=JointSpace(objects, space.weights),
            neighbors=index.neighbors,
            seed_vertex=index.seed_vertex,
        )
        stores = {
            kind: reseat_on_store(
                GraphIndex(
                    space=JointSpace(
                        random_multivector_set(400, self.DIMS, seed=33),
                        space.weights,
                    ),
                    neighbors=index.neighbors,
                    seed_vertex=index.seed_vertex,
                ),
                kind,
            )
            for kind in ("pq", "int8", "float16")
        }
        return dense, stores, queries

    @staticmethod
    def _check(monkeypatch, run) -> SearchResult:
        got = run()
        with monkeypatch.context() as patch:
            patch.setattr(search_mod, "_heap_search", _oracle_heap_search)
            ref = run()
        _assert_identical(got, ref)
        return got

    @pytest.mark.parametrize(
        "plan",
        [
            dict(),
            dict(early_termination=True),
            dict(check_monotone=True),
            dict(refine=3),
            dict(weights=Weights([0.9, 0.1])),
            dict(early_termination=True, weights=Weights([0.2, 0.8])),
            dict(k=1, l=1),
            dict(l=400),
            dict(l=1000),
        ],
        ids=lambda plan: ",".join(plan) or "plain",
    )
    def test_plans(self, world, monkeypatch, plan):
        dense, _, queries = world
        plan = {"k": 10, "l": 40, **plan}
        for q in queries:
            self._check(monkeypatch, lambda: joint_search(dense, q, **plan))

    def test_typed_queries(self, world, monkeypatch):
        """Per-query k override, per-query weights (one zeroing a
        modality), a filter mask, and a missing modality."""
        dense, _, queries = world
        for q in queries[:10]:
            for typed in (
                Query(q, k=17),
                Query(q, weights=Weights([0.7, 0.3])),
                Query(q, filter=Eq("bucket", 1)),
                Query(q, filter=Eq("bucket", 2), k=3),
                Query(q.replace(0, None)),
                Query(q, weights=Weights([1.0, 0.0])),
            ):
                for early in (False, True):
                    self._check(
                        monkeypatch,
                        lambda: joint_search(
                            dense, typed, k=5, l=30,
                            early_termination=early, check_monotone=True,
                        ),
                    )

    def test_zero_index_weight_falls_back_per_modality(
        self, setup, monkeypatch
    ):
        """ω_i = 0 in the index but wanted by the query: no concat fast
        path, so every hop goes through ``score_frontier``."""
        space, index, _, queries = setup
        zeroed = GraphIndex(
            space=space.with_weights(Weights([1.0, 0.0])),
            neighbors=index.neighbors,
            seed_vertex=index.seed_vertex,
        )
        override = Weights([0.5, 0.5])
        assert space.with_weights(Weights([1.0, 0.0])).concat_query(
            queries[0], override
        ) is None
        for q in queries[:10]:
            self._check(
                monkeypatch,
                lambda: joint_search(zeroed, q, k=10, l=40, weights=override),
            )

    def test_deleted_and_excluded_inits(self, setup, monkeypatch):
        """>= 30 % soft-deleted; then a filter that rejects every init
        vertex, so R starts empty and fills from routed neighbours."""
        space, index, _, queries = setup
        objects = random_multivector_set(400, self.DIMS, seed=33)
        dead = np.random.default_rng(5).permutation(400)[:140]
        l = 12
        inits = index.entry_points(l)
        objects.set_attributes({"init": np.isin(np.arange(400), inits)})
        holed = GraphIndex(
            space=JointSpace(objects, space.weights),
            neighbors=index.neighbors,
            seed_vertex=index.seed_vertex,
        )
        holed.mark_deleted(dead)
        for q in queries:
            for early in (False, True):
                got = self._check(
                    monkeypatch,
                    lambda: joint_search(
                        holed, q, k=10, l=40, early_termination=early
                    ),
                )
                assert not np.isin(got.ids, dead).any()
            got = self._check(
                monkeypatch,
                lambda: joint_search(
                    holed, Query(q, filter=Eq("init", False)), k=5, l=l,
                    check_monotone=True,
                ),
            )
            assert len(got) == 5 and not np.isin(got.ids, inits).any()

    @pytest.mark.parametrize("kind", ["pq", "int8", "float16"])
    def test_compressed_stores(self, world, monkeypatch, kind):
        _, stores, queries = world
        for q in queries[:12]:
            for plan in (
                dict(),
                dict(early_termination=True),
                dict(refine=4),
                dict(early_termination=True, refine=2, check_monotone=True),
            ):
                self._check(
                    monkeypatch,
                    lambda: joint_search(stores[kind], q, k=8, l=40, **plan),
                )

    def test_through_segment_view(self, monkeypatch):
        """Per-segment searches of a 3-segment + delta layout."""
        must = MUST(
            random_multivector_set(128, self.DIMS, seed=1),
            weights=Weights([0.6, 0.4]),
            builder=FusedIndexBuilder(gamma=8, epsilon=1, max_candidates=16),
            segment_policy=SegmentPolicy(
                seal_size=32, max_segments=8, max_deleted_fraction=0.9
            ),
        ).build()
        for size, seed in ((32, 2), (32, 3), (16, 4)):
            must.insert(random_multivector_set(size, self.DIMS, seed=seed))
        must.mark_deleted(np.arange(0, 60, 3))
        view = must.segments.view()
        assert len(view.segments) == 4
        for seed in range(10):
            q = random_query(self.DIMS, seed=100 + seed)
            for plan in (dict(), dict(early_termination=True), dict(refine=2)):
                got = self._check(
                    monkeypatch,
                    lambda: view.search(
                        q, k=6, l=24, check_monotone=True, **plan
                    ),
                )
                assert got.stats.segments_probed == 4


class TestGreedyKernelParity:
    """``greedy_search_graph`` against the loop it replaced, on the
    adjacency shapes its three callers pass (int32 lists, a 2-D KNN
    matrix, beam = 1 descents)."""

    def test_identical_ids_and_sims(self, setup):
        space, index, _, _ = setup
        concat = space.concatenated
        knn = np.stack(
            [np.resize(adj, 6).astype(np.int64) for adj in index.neighbors]
        )
        for neighbors in (index.neighbors, knn):
            for target in range(0, 400, 9):
                for beam in (1, 8, 40):
                    got = greedy_search_graph(
                        concat, neighbors, index.seed_vertex,
                        concat[target], beam=beam,
                    )
                    ref = _oracle_greedy_search_graph(
                        concat, neighbors, index.seed_vertex,
                        concat[target], beam=beam,
                    )
                    for a, b in zip(got, ref):
                        assert a.dtype == b.dtype
                        np.testing.assert_array_equal(a, b)

    def test_matrix_scorer_matches_indexing(self, setup):
        space, _, _, _ = setup
        concat = space.concatenated
        scorer = MatrixScorer(concat, concat[3])
        for rows in (1, 2, 7, 33):
            ids = np.arange(rows, dtype=np.int32) * 5
            np.testing.assert_array_equal(
                scorer.score_ids(ids), concat[ids] @ concat[3]
            )


class TestSearchResultContainer:
    def test_top_slices(self, setup):
        _, index, _, queries = setup
        res = joint_search(index, queries[0], k=10, l=40)
        top3 = res.top(3)
        assert np.array_equal(top3.ids, res.ids[:3])

    def test_stats_merge(self, setup):
        _, index, _, queries = setup
        a = joint_search(index, queries[0], k=5, l=20)
        b = joint_search(index, queries[1], k=5, l=20)
        total = a.stats.hops + b.stats.hops
        a.stats.merge(b.stats)
        assert a.stats.hops == total


def _drawn_init(index: GraphIndex, l: int, rng: np.random.Generator) -> np.ndarray:
    """Algorithm 2, l. 1-3, read literally: the seed vertex plus ``l−1``
    distinct vertices drawn afresh for this one query — what every
    search did before the init became the graph's entry order."""
    n = index.n
    init_size = min(l, n)
    if init_size == n:
        return np.arange(n, dtype=np.int64)
    extra = rng.choice(n - 1, size=init_size - 1, replace=False)
    # Shift around the seed so it is never drawn twice.
    extra = (extra + index.seed_vertex + 1) % n
    return np.concatenate([[index.seed_vertex], extra]).astype(np.int64)


class TestEntryOrderAgainstPerQueryDraw:
    """Routing, not the init, finds the answer: a fixed entry order
    recalls what a fresh per-query draw does, at the same work."""

    N, DIMS, QUERIES = 2000, (12, 8), 100

    @pytest.fixture(scope="class")
    def world(self):
        space = JointSpace(
            random_multivector_set(self.N, self.DIMS, seed=11),
            Weights([0.5, 0.5]),
        )
        index = FusedIndexBuilder(gamma=12, seed=2).build(space)
        queries = [
            random_query(self.DIMS, seed=500 + s) for s in range(self.QUERIES)
        ]
        flat = FlatIndex(space)
        truth = [flat.search(q, 10).ids for q in queries]
        return index, queries, truth

    @staticmethod
    def _measure(index, queries, truth, l):
        hits = evals = 0
        for q, exact in zip(queries, truth):
            res = joint_search(index, q, k=10, l=l)
            hits += np.intersect1d(res.ids, exact).size
            evals += res.stats.joint_evals
        return hits / (10 * len(queries)), evals / len(queries)

    @pytest.mark.parametrize("l", [50, 100])
    def test_recall_and_work_match_the_draw(self, world, monkeypatch, l):
        index, queries, truth = world
        stored = self._measure(index, queries, truth, l)
        drawn = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            with monkeypatch.context() as patch:
                patch.setattr(
                    GraphIndex, "entry_points",
                    lambda self, l: _drawn_init(self, l, rng),
                )
                drawn.append(self._measure(index, queries, truth, l))
        recall, evals = np.mean(drawn, axis=0)
        assert abs(stored[0] - recall) <= 0.01
        assert abs(stored[1] / evals - 1.0) <= 0.02
