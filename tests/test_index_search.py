"""Tests for the joint search (Algorithm 2): the wave against the heap
oracle, Lemmas 3 & 4, knobs."""

from __future__ import annotations

import dataclasses
import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.efficiency import heap_traverse
from repro.core.framework import MUST
from repro.core.multivector import MultiVector
from repro.core.query import Eq, Query
from repro.core.results import SearchResult
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.base import GraphIndex, reseat_on_store
from repro.index.flat import FlatIndex
from repro.index.graph_wave import graph_wave_search
from repro.index.pipeline import FusedIndexBuilder
from repro.index.scoring import batch_score_all
from repro.index.search import greedy_search_graph, joint_search
from repro.index.segments import SegmentedIndex, SegmentPolicy

from repro.utils.io import load_arrays

from tests.conftest import (
    heap_search,
    heap_view_search,
    lemma3_checked,
    random_multivector_set,
    random_query,
)


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
        with pytest.raises(TypeError):  # one engine: nothing to pick
            joint_search(index, queries[0], k=1, l=10, engine="heap")

    def test_stats_populated(self, setup):
        _, index, _, queries = setup
        res = joint_search(index, queries[0], k=5, l=30)
        assert res.stats.hops > 0
        assert res.stats.joint_evals >= 30
        assert res.stats.visited_vertices == res.stats.hops

    # The lone query asked through either one-query surface of the wave:
    # ``joint_search``, or ``graph_wave_search`` over one query.  The ids
    # keep the names of the per-query engines these two replaced.
    @pytest.mark.parametrize("wave_of_one", [
        pytest.param(False, id="heap"), pytest.param(True, id="paper"),
    ])
    def test_answer_is_a_function_of_index_and_query(self, setup, wave_of_one):
        """No seed to pass: asking again — of the index, of a rebuilt
        container around the same graph, or in a batch — returns the
        same bits."""
        space, index, _, queries = setup
        twin = GraphIndex(space, index.neighbors, index.seed_vertex)

        def lone(graph, q):
            if wave_of_one:
                (res,), wave = graph_wave_search(graph, [q], k=5, l=30)
                res.stats.waves = wave.waves
                return res
            return joint_search(graph, q, k=5, l=30)

        batch, wave = graph_wave_search(index, queries[:5], k=5, l=30)
        for q, in_batch in zip(queries[:5], batch):
            a = lone(index, q)
            _assert_identical(a, lone(index, q))
            _assert_identical(a, lone(twin, q))
            assert a.stats.waves > 0
            a.stats.waves, a.stats.frontier_sizes = 0, ()
            _assert_identical(a, in_batch)
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
        SegmentedIndex.from_graph(index).save(tmp_path / "g")
        metadata, arrays = load_arrays(tmp_path / "g" / "segment_000.npz")
        assert set(arrays) == {"flat", "offsets", "ext_ids", "mod_0", "mod_1"}
        assert set(metadata) == {
            "name", "seed_vertex", "build_seconds", "num_modalities", "store"
        }
        loaded = SegmentedIndex.load(tmp_path / "g").sealed[0].index
        assert np.array_equal(loaded.entry_points(400), index.entry_points(400))
        _assert_identical(
            joint_search(loaded, queries[0], k=5, l=30),
            joint_search(index, queries[0], k=5, l=30),
        )


class TestLemma4Equivalence:
    """Lemma 4 on Fig. 10(c)'s per-query reference
    (:func:`repro.bench.efficiency.heap_traverse`): pruning by the
    partial-IP upper bound never changes an answer, and past two
    modalities it saves modality evaluations."""

    @staticmethod
    def _reference(index, q, k, l, early_termination):
        return heap_traverse(
            index, q, k, l, None, early_termination, None, index.n
        )

    def test_early_termination_identical_results(self, setup):
        """Lemma 4: the multi-vector optimisation never changes results."""
        _, index, _, queries = setup
        for q in queries:
            fast = self._reference(index, q, 10, 50, False)
            pruned = self._reference(index, q, 10, 50, True)
            assert np.array_equal(fast.ids, pruned.ids)
            assert np.allclose(fast.similarities, pruned.similarities, atol=1e-5)

    def test_early_termination_saves_modality_evals(self):
        dims = (10, 6, 4)
        must = MUST(
            random_multivector_set(400, dims, seed=21),
            weights=Weights([0.6, 0.5, 0.4]),
        ).build()
        base = pruned = 0
        for s in range(10):
            q = random_query(dims, seed=300 + s)
            plain = self._reference(must.index, q, 10, 20, False)
            lemma4 = self._reference(must.index, q, 10, 20, True)
            assert np.array_equal(plain.ids, lemma4.ids)
            assert lemma4.stats.joint_evals == plain.stats.joint_evals
            base += plain.stats.modality_evals
            pruned += lemma4.stats.modality_evals
        assert pruned < base

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10_000), st.sampled_from([10, 25, 60]))
    def test_lemma4_property(self, setup, qseed, l):
        _, index, _, _ = setup
        q = random_query((10, 6), seed=qseed)
        fast = self._reference(index, q, 5, l, False)
        pruned = self._reference(index, q, 5, l, True)
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
        full = space.query_ids_stable(queries[0])
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


def _counters(stats) -> dict:
    """Every work counter but the wave trace a lone wave adds."""
    out = dataclasses.asdict(stats)
    del out["waves"], out["frontier_sizes"]
    return out


def _recall(found, truth) -> float:
    hits = sum(np.intersect1d(f.ids, t.ids).size for f, t in zip(found, truth))
    return hits / max(1, sum(t.ids.size for t in truth))


class TestHeapKernelParity:
    """The wave against the heap kernel it replaced, kept as the
    oracle (``tests/conftest.py``'s :func:`heap_search` around
    :func:`repro.bench.efficiency.heap_traverse`).

    The contract: at ``expansions_per_wave=1`` a lone query that
    excludes nothing is expanded exactly as the heap expands it — the
    same ids, hops and work counters — and its similarities agree within
    the float32 rounding bound both sides' dot products carry (the two
    round differently: GEMV against a row-wise reduction).  A query that
    excludes vertices — deletions or a filter — holds its routing
    candidates in a bounded pool where the heap's queue is unbounded, so
    there the gate is recall: never below the oracle's by more than
    ``RECALL_SLACK``, and never an excluded id.
    """

    DIMS = (10, 6)
    RECALL_SLACK = 0.005

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
            for kind in ("pq", "int8")
        }
        return dense, stores, queries

    @staticmethod
    def _check(index, query, k, l, **plan) -> SearchResult:
        (got,), _ = graph_wave_search(
            index, [query], k=k, l=l, expansions_per_wave=1, **plan
        )
        ref = heap_search(index, query, k, l, **plan)
        np.testing.assert_array_equal(got.ids, ref.ids)
        assert _counters(got.stats) == _counters(ref.stats)
        typed = Query(query) if isinstance(query, MultiVector) else query
        bound = np.zeros(1)
        batch_score_all(
            index.space, [typed.vector],
            [typed.resolve_weights(plan.get("weights"))], bounds=bound,
        )
        gap = np.abs(got.similarities - ref.similarities)
        assert np.all(gap <= 2 * bound[0]), (gap.max(), bound[0])
        return got

    @classmethod
    def _check_recall(cls, index, queries, k, l, **plan) -> list[SearchResult]:
        found = [joint_search(index, q, k=k, l=l, **plan) for q in queries]
        oracle = [heap_search(index, q, k, l, **plan) for q in queries]
        truth = [heap_search(index, q, k, l, scan=True) for q in queries]
        assert _recall(found, truth) >= _recall(oracle, truth) - cls.RECALL_SLACK
        return found

    @pytest.mark.parametrize(
        "plan",
        [
            dict(),
            dict(refine=3),
            dict(weights=Weights([0.9, 0.1])),
            dict(k=1, l=1),
            dict(l=400),
            dict(l=1000),
        ],
        ids=lambda plan: ",".join(plan) or "plain",
    )
    def test_plans(self, world, plan):
        dense, _, queries = world
        plan = {"k": 10, "l": 40, **plan}
        for q in queries:
            self._check(dense, q, **plan)

    def test_lemma3_on_every_merge(self, world, monkeypatch):
        dense, _, queries = world
        for q in queries:
            lemma3_checked(lambda: self._check(dense, q, k=10, l=40), monkeypatch)

    def test_typed_queries(self, world, monkeypatch):
        """Per-query k override, per-query weights (one zeroing a
        modality) and a missing modality follow the contract; a
        filtered query is held to the recall gate; Lemma 3 holds on
        every merge."""
        dense, _, queries = world
        for q in queries[:10]:
            for typed in (
                Query(q, k=17),
                Query(q, weights=Weights([0.7, 0.3])),
                Query(q.replace(0, None)),
                Query(q, weights=Weights([1.0, 0.0])),
            ):
                lemma3_checked(
                    lambda: self._check(dense, typed, k=5, l=30), monkeypatch
                )
        for flt, k in ((Eq("bucket", 1), 5), (Eq("bucket", 2), 3)):
            typed = [Query(q, filter=flt, k=k) for q in queries]
            for got in lemma3_checked(
                lambda: self._check_recall(dense, typed, k=5, l=30),
                monkeypatch,
            ):
                assert (np.asarray(got.ids) % 4 == flt.value).all()

    def test_zero_index_weight_falls_back_per_modality(self, setup):
        """ω_i = 0 in the index but wanted by the query: no concat fast
        path, so every frontier is scored by the row scorer's
        per-modality operands."""
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
            self._check(zeroed, q, k=10, l=40, weights=override)

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
        for got in self._check_recall(holed, queries, k=10, l=40):
            assert not np.isin(got.ids, dead).any()
        for got in lemma3_checked(
            lambda: self._check_recall(
                holed, [Query(q, filter=Eq("init", False)) for q in queries],
                k=5, l=l,
            ),
            monkeypatch,
        ):
            assert len(got) == 5 and not np.isin(got.ids, inits).any()

    @pytest.mark.parametrize("kind", ["pq", "int8"])
    def test_compressed_stores(self, world, kind, monkeypatch):
        _, stores, queries = world
        for q in queries[:12]:
            for plan in (dict(), dict(refine=4)):
                lemma3_checked(
                    lambda: self._check(stores[kind], q, k=8, l=40, **plan),
                    monkeypatch,
                )

    def test_through_segment_view(self, monkeypatch):
        """A 3-segment + delta layout with tombstones in the traversed
        base: every query alone through the view, against the oracle
        run per segment and merged the same way."""
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
        dead = np.arange(0, 60, 3)
        must.mark_deleted(dead)
        view = must.segments.view()
        assert len(view.segments) == 4
        queries = [random_query(self.DIMS, seed=100 + s) for s in range(10)]
        truth = view.exact_wave(queries, 6)
        for plan in (dict(), dict(refine=2)):
            found = lemma3_checked(
                lambda: [
                    view.graph_wave([q], k=6, l=24, **plan)[0][0] for q in queries
                ],
                monkeypatch,
            )
            oracle = [heap_view_search(view, q, 6, 24, **plan) for q in queries]
            assert _recall(found, truth) >= (
                _recall(oracle, truth) - self.RECALL_SLACK
            )
            for got in found:
                assert got.stats.segments_probed == 4
                assert not np.isin(got.ids, dead).any()


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
        """A hop's gather-and-dot carries the bits of indexing the same
        rows and one GEMV: a star graph makes the entry's one hop score
        exactly *ids*, in one call."""
        space, _, _, _ = setup
        concat = space.concatenated
        for rows in (1, 2, 7, 33):
            ids = np.arange(rows, dtype=np.int32) * 5
            star = [np.zeros(0, dtype=np.int32)] * concat.shape[0]
            star[3] = ids
            got_ids, got_sims = greedy_search_graph(
                concat, star, 3, concat[3], beam=rows + 1
            )
            scored = dict(zip(got_ids.tolist(), got_sims.tolist()))
            want = concat[ids] @ concat[3]
            assert [scored[i] for i in ids.tolist()] == want.tolist()


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
