"""Parity and behaviour tests for the lockstep graph wave engine.

The wave engine is *not* bit-identical to the per-query heap engine
(expansion order interleaves across the batch), so the pins here are:

* **recall parity** — against exact ground truth, the wave batch must
  match the per-query oracle within a small ε, across thread counts,
  store backends, layouts, filters, k overrides, and deletions;
* **composition independence** — a query's answer is bit-identical
  whether it runs alone or inside any batch, at any position;
* **plan recording** — the executor reports which strategy actually
  ran, so the negative-speedup trap can never silently return;
* **wave stats** — the batch-level ``waves``/``frontier_sizes`` trace
  surfaces through :class:`BatchResult` and the serving layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framework import MUST
from repro.core.multivector import MultiVector, MultiVectorSet
from repro.core.query import Eq, Query, SearchOptions
from repro.core.results import SearchStats
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.graph_wave import bookkeeping, graph_wave_search
from repro.index.pipeline import FusedIndexBuilder
from repro.index.segments import Segment, SegmentView

N, M, D = 400, 2, 16
K, L = 10, 64
B = 8
EPS = 0.05


def _corpus(n=N, seed=0):
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((n, D)).astype(np.float32) for _ in range(M)]
    mats = [v / np.linalg.norm(v, axis=1, keepdims=True) for v in mats]
    attrs = {"color": np.array(["red", "blue"] * (n // 2))}
    return MultiVectorSet(mats, attributes=attrs)


def _queries(b=B, seed=1):
    rng = np.random.default_rng(seed)
    return [
        MultiVector(
            [rng.standard_normal(D).astype(np.float32) for _ in range(M)]
        )
        for _ in range(b)
    ]


@pytest.fixture(scope="module")
def objects():
    return _corpus()


@pytest.fixture(scope="module")
def queries():
    return _queries()


@pytest.fixture(scope="module")
def must(objects):
    return MUST(objects, weights=Weights([0.6, 0.4])).build()


def _recall(got, truth):
    hits = sum(
        len(set(g.ids[:K]) & set(t.ids[:K])) for g, t in zip(got, truth)
    )
    return hits / (K * len(truth))


class TestFlatParity:
    def test_recall_matches_per_query_oracle(self, must, queries):
        truth = [must.query(q, SearchOptions(k=K, exact=True)) for q in queries]
        wave = must.query(queries, SearchOptions(k=K, l=L))
        oracle = must.query(
            queries, SearchOptions(k=K, l=L, engine="heap")
        )
        assert wave.plan == f"graph/wave/{bookkeeping()}"
        assert oracle.plan == "graph/loop"
        assert _recall(wave, truth) >= _recall(oracle, truth) - EPS

    def test_single_query_wave_engine(self, must, queries):
        res = must.query(
            queries[0], SearchOptions(k=K, l=L, engine="wave")
        )
        assert len(res) == K
        assert res.stats.waves > 0

    def test_refine_reranks_exact(self, must, queries):
        run = must.query(queries, SearchOptions(k=K, l=L, refine=3))
        assert run.plan == f"graph/wave/{bookkeeping()}"
        assert run.stats.reranked > 0
        truth = [must.query(q, SearchOptions(k=K, exact=True)) for q in queries]
        assert _recall(run, truth) >= 1.0 - EPS


class TestCompositionIndependence:
    def test_alone_equals_batched(self, must, queries):
        index = must.index
        solo, _ = graph_wave_search(index, queries[:1], k=K, l=L)
        batched, _ = graph_wave_search(index, queries[::-1], k=K, l=L)
        assert np.array_equal(solo[0].ids, batched[-1].ids)
        np.testing.assert_array_equal(
            solo[0].similarities, batched[-1].similarities
        )

    def test_mixed_widths_stay_independent(self, must, queries):
        # A wave-mate with a much wider l must not change this query.
        index = must.index
        solo, _ = graph_wave_search(index, queries[:1], k=K, l=L)
        wide = Query(queries[1], k=120)
        mixed, _ = graph_wave_search(index, [queries[0], wide], k=K, l=L)
        assert np.array_equal(solo[0].ids, mixed[0].ids)
        np.testing.assert_array_equal(
            solo[0].similarities, mixed[0].similarities
        )
        assert len(mixed[1]) == 120  # the straggler still finished


@pytest.mark.parametrize("kind", ["int8", "pq"])
class TestCompressedParity:
    def test_recall_matches_per_query_oracle(self, objects, queries, kind):
        must = MUST(
            objects, weights=Weights([0.6, 0.4]), compression=kind
        ).build()
        truth = [must.query(q, SearchOptions(k=K, exact=True)) for q in queries]
        wave = must.query(queries, SearchOptions(k=K, l=L))
        oracle = must.query(
            queries, SearchOptions(k=K, l=L, engine="heap")
        )
        assert wave.plan == f"graph/wave/{bookkeeping()}"
        assert _recall(wave, truth) >= _recall(oracle, truth) - EPS


@pytest.mark.parametrize("kind", ["pq", "int8", "float16"])
class TestStackedKernels:
    """A compressed store scores a whole wave with one stacked kernel
    call per modality; every value must carry the bits of the owner's
    own per-query kernel."""

    @pytest.fixture
    def space(self, objects, kind):
        return MUST(
            objects, weights=Weights([0.6, 0.4]), compression=kind
        ).build().index.space

    @pytest.fixture
    def stack_queries(self, queries):
        # Query 2 lacks modality 0, query 4 lacks modality 1.
        holed = list(queries)
        holed[2] = MultiVector([None, queries[2].vectors[1]])
        holed[4] = MultiVector([queries[4].vectors[0], None])
        return holed

    @staticmethod
    def _frontier(b, skip, seed=5):
        """Owner-sorted (owner, ids) where owner *skip* has no row."""
        rng = np.random.default_rng(seed)
        owner = np.sort(rng.choice([o for o in range(b) if o != skip], 90))
        return owner, rng.integers(0, N, owner.size)

    def test_store_kernel_matches_per_query_kernels(self, space, queries):
        stack = np.stack([q.vectors[1] for q in queries]).astype(np.float32)
        owner, ids = self._frontier(len(queries), skip=3)
        got = space.store.stacked_kernel(1, stack).ids(ids, owner)
        assert got.dtype == np.float32
        for o in np.unique(owner):
            rows = owner == o
            ref = space.store.query_kernel(1, stack[o]).ids(ids[rows])
            np.testing.assert_array_equal(got[rows], ref)
        solo = space.store.stacked_kernel(1, stack[:1]).ids(ids)
        np.testing.assert_array_equal(
            solo, space.store.query_kernel(1, stack[0]).ids(ids)
        )

    def test_kernel_rows_are_scored_independently(self, space, queries):
        """One row's score never depends on which rows share the call —
        what lets a frontier be stacked (a GEMV's bits do depend on it)."""
        kernel = space.store.query_kernel(0, queries[0].vectors[0])
        ids = np.arange(0, N, 7)
        together = kernel.ids(ids)
        for j, i in enumerate(ids):
            assert kernel.ids(np.array([i]))[0] == together[j]

    def test_stacked_scorer_matches_per_query_scorers(
        self, space, stack_queries
    ):
        from repro.index.scoring import Scorer, StackedScorer

        per_weights = [None, Weights([0.9, 0.1])] * (len(stack_queries) // 2)
        owner, ids = self._frontier(len(stack_queries), skip=1)
        stack = StackedScorer(space, stack_queries, per_weights)
        got = stack.score(owner, ids)
        for o in np.unique(owner):
            rows = owner == o
            scorer = Scorer(space, stack_queries[o], weights=per_weights[o])
            np.testing.assert_array_equal(got[rows], scorer.score_ids(ids[rows]))
            assert stack.num_kernels[o] == scorer.num_active_modalities

    def test_compressed_wave_is_composition_independent(
        self, objects, stack_queries, kind
    ):
        must = MUST(
            objects, weights=Weights([0.6, 0.4]), compression=kind
        ).build()
        batched, _ = graph_wave_search(
            must.index, stack_queries, k=K, l=L, refine=2
        )
        for q, got in zip(stack_queries, batched):
            solo, _ = graph_wave_search(must.index, [q], k=K, l=L, refine=2)
            assert np.array_equal(solo[0].ids, got.ids)
            np.testing.assert_array_equal(
                solo[0].similarities, got.similarities
            )
            assert solo[0].stats.joint_evals == got.stats.joint_evals
            assert solo[0].stats.modality_evals == got.stats.modality_evals


class TestSegmentedParity:
    @pytest.fixture(scope="class")
    def seg_must(self, objects):
        must = MUST(objects, weights=Weights([0.6, 0.4])).build()
        extra = _corpus(n=40, seed=9)
        must.insert(extra)
        must.mark_deleted(np.array([3, 5, 7, 11]))
        assert must.is_segmented
        return must

    def test_recall_matches_per_query_oracle(self, seg_must, queries):
        truth = [
            seg_must.query(q, SearchOptions(k=K, exact=True)) for q in queries
        ]
        wave = seg_must.query(queries, SearchOptions(k=K, l=L))
        oracle = seg_must.query(
            queries, SearchOptions(k=K, l=L, engine="heap")
        )
        assert wave.plan == f"graph/wave/{bookkeeping()}"
        assert oracle.plan == "graph/loop"
        assert _recall(wave, truth) >= _recall(oracle, truth) - EPS

    def test_deleted_never_surface(self, seg_must, queries):
        run = seg_must.query(queries, SearchOptions(k=K, l=L))
        for res in run:
            assert not set(res.ids) & {3, 5, 7, 11}

    def test_filtered_queries_respect_predicate(self, seg_must, queries):
        typed = [Query(q, filter=Eq("color", "red")) for q in queries]
        run = seg_must.query(typed, SearchOptions(k=K, l=L))
        reds = set(
            np.flatnonzero(
                seg_must.segments.view().segments[0].space.vectors
                .attributes.column("color") == "red"
            )
        )
        for res in run:
            assert len(res) > 0
            # external ids of the first segment are 0..N-1; the delta's
            # attributes alternate the same way, so every admissible id
            # is even under the alternating red/blue layout.
            assert all(int(i) % 2 == 0 for i in res.ids)
        assert reds  # sanity: the predicate selects something

    def test_segments_probed_aggregate(self, seg_must, queries):
        run = seg_must.query(queries, SearchOptions(k=K, l=L))
        per_query = [r.stats.segments_probed for r in run]
        assert all(p >= 1 for p in per_query)
        assert run.stats.segments_probed == sum(per_query)

    def test_per_query_k_override(self, seg_must, queries):
        typed = [Query(queries[0], k=40), queries[1]]
        run = seg_must.query(typed, SearchOptions(k=K, l=20))
        assert len(run[0]) == 40
        assert len(run[1]) == K


class TestWaveStats:
    def test_batch_carries_wave_trace(self, must, queries):
        run = must.query(queries, SearchOptions(k=K, l=L))
        assert run.stats.waves > 0
        assert len(run.stats.frontier_sizes) == run.stats.waves
        assert sum(run.stats.frontier_sizes) > 0
        # Per-query counters stay per-query: the wave trace is
        # batch-level only, so aggregation cannot double-count it.
        for res in run:
            assert res.stats.waves == 0
            assert res.stats.hops > 0

    def test_heap_plan_has_no_wave_trace(self, must, queries):
        run = must.query(queries, SearchOptions(k=K, l=L, engine="heap"))
        assert run.stats.waves == 0
        assert run.stats.frontier_sizes == ()

    def test_merge_concatenates_frontiers(self):
        a = SearchStats(waves=2, frontier_sizes=(4, 5))
        b = SearchStats(waves=1, frontier_sizes=(6,))
        a.merge(b)
        assert a.waves == 3
        assert a.frontier_sizes == (4, 5, 6)
        # merge must never change the shared (immutable) default
        fresh = SearchStats()
        fresh.merge(SearchStats(frontier_sizes=(1,)))
        assert SearchStats().frontier_sizes == ()


class TestServingWaves:
    def test_coalesced_wave_bit_identical_to_solo(self, must, queries):
        with must.serve() as svc:
            futs = [
                svc.submit(q, SearchOptions(k=K, l=L, engine="wave"))
                for q in queries
            ]
            got = [f.result() for f in futs]
            snap = svc.snapshot()
            for q, res in zip(queries, got):
                ref = snap.query(q, SearchOptions(k=K, l=L, engine="wave"))
                assert np.array_equal(res.ids, ref.ids)
                np.testing.assert_array_equal(
                    res.similarities, ref.similarities
                )
            summary = svc.stats.summary()
        assert sum(summary["graph_waves"].values()) >= 1
        assert sum(summary["wave_frontier_sizes"].values()) >= 1

    def test_auto_requests_stay_on_per_query_path(self, must, queries):
        with must.serve() as svc:
            res = svc.search(queries[0], SearchOptions(k=K, l=L))
            ref = must.query(queries[0], SearchOptions(k=K, l=L))
            assert np.array_equal(res.ids, ref.ids)
            np.testing.assert_array_equal(res.similarities, ref.similarities)
            summary = svc.stats.summary()
        assert summary["graph_waves"] == {}


class TestCsrAdjacency:
    """The CSR form lives on the graph: built by the first traversal,
    shared by every frozen copy, never built for a scanned segment."""

    N_SEGMENTS, SEG_N = 20, 30

    @pytest.fixture()
    def packs(self, monkeypatch):
        """Ids of the adjacency lists packed into CSR form, in order."""
        from repro.index import base

        packed: list[int] = []

        def counting(neighbors):
            packed.append(id(neighbors))
            return pack_adjacency(neighbors)

        pack_adjacency = base.pack_adjacency
        monkeypatch.setattr(base, "pack_adjacency", counting)
        return packed

    @pytest.fixture(scope="class")
    def live(self):
        builder = FusedIndexBuilder(gamma=6, epsilon=1, max_candidates=12)
        return [
            Segment(
                builder.build(
                    JointSpace(_corpus(self.SEG_N, seed=s), Weights([0.6, 0.4]))
                ),
                np.arange(s * self.SEG_N, (s + 1) * self.SEG_N),
            )
            for s in range(self.N_SEGMENTS)
        ]

    @staticmethod
    def _snapshot(live):
        return SegmentView(
            [Segment(seg.index.frozen(), seg.ext_ids) for seg in live]
        )

    def test_twenty_segments_probed_cyclically_build_each_csr_once(
        self, live, packs, queries
    ):
        # Snapshots taken before anything was traversed, as a service
        # publishes them: the live graphs themselves are never searched.
        views = [self._snapshot(live) for _ in range(3)]
        for view in views * 2:
            results, wave = view.graph_wave(queries, k=5, l=10)
            assert wave.waves > 0
            assert all(r.stats.segments_scanned == 0 for r in results)
        assert sorted(packs) == sorted(id(seg.index.neighbors) for seg in live)
        flat, offsets = live[0].index.csr_adjacency()
        assert flat is views[-1].segments[0].index.csr_adjacency()[0]
        np.testing.assert_array_equal(
            flat, np.concatenate(live[0].index.neighbors)
        )
        assert live[0].index.num_edges == flat.size == offsets[-1]
        assert packs.count(id(live[0].index.neighbors)) == 1

    def test_a_scanned_segment_never_builds_one(self, packs, queries):
        objects = _corpus(self.SEG_N, seed=99)
        index = FusedIndexBuilder(gamma=6).build(
            JointSpace(objects, Weights([0.6, 0.4]))
        )
        view = SegmentView([Segment(index, np.arange(self.SEG_N))])
        results, wave = view.graph_wave(queries, k=5, l=self.SEG_N // 2)
        assert wave.waves == 0
        assert all(r.stats.segments_scanned == 1 for r in results)
        view.search(queries[0], k=5, l=self.SEG_N // 2)
        assert packs == []
