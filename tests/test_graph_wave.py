"""Parity and behaviour tests for the lockstep graph wave engine.

The wave is held to the per-query heap loop kept as the oracle in
``tests/conftest.py`` (its exact contract at ``expansions_per_wave=1``
lives in ``tests/test_index_search.py``); the pins here are:

* **recall parity** — against exact ground truth, the wave batch must
  match the per-query oracle within a small ε, across store backends,
  layouts, filters, k overrides, and deletions;
* **composition independence** — a query's answer is bit-identical
  whether it runs alone or inside any batch, at any position;
* **plan recording** — the executor reports which strategy actually
  ran, so the negative-speedup trap can never silently return;
* **wave stats** — the batch-level ``waves``/``frontier_sizes`` trace
  surfaces through :class:`BatchResult` and the serving layer;
* **the Lemma 3 hook** — ``conftest.lemma3_checked`` checks every merge
  of a traversal stepped on the kernel's bookkeeping or on its NumPy
  oracle (``tests/oracles.py``), changes no answer, and raises on a
  merge that lowers a full pool's sum.
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
from repro.index import graph_wave as gw
from repro.index.graph_wave import graph_wave_search
from repro.index.pipeline import FusedIndexBuilder
from repro.index.scoring import RowScorer
from repro.index.segments import Segment, SegmentView
from repro.store import dot_error

import tests.conftest as harness
from tests.oracles import (
    NativeBookkeeping,
    NumpyBookkeeping,
    kernel_ids,
    stepping,
)
from tests.conftest import heap_search, heap_view_search

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
        oracle = [heap_search(must.index, q, K, L) for q in queries]
        assert wave.plan == "graph/wave"
        assert _recall(wave, truth) >= _recall(oracle, truth) - EPS

    def test_single_query_wave_engine(self, must, queries):
        res = must.query(
            queries[0], SearchOptions(k=K, l=L, engine="wave")
        )
        assert len(res) == K
        assert res.stats.waves > 0

    def test_refine_reranks_exact(self, must, queries):
        run = must.query(queries, SearchOptions(k=K, l=L, refine=3))
        assert run.plan == "graph/wave"
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
        oracle = [heap_search(must.index, q, K, L) for q in queries]
        assert wave.plan == "graph/wave"
        assert _recall(wave, truth) >= _recall(oracle, truth) - EPS


@pytest.mark.parametrize("kind", ["pq", "int8", "none"])
class TestStackedKernels:
    """Every row off the concat fast path — all of a compressed store's,
    a dense store's zero-weight-fallback rows — is scored modality by
    modality over the store's operand for a stack of queries.  Every
    value must carry the bits its query gets in a stack of one, and sit
    within the float32 dot-product bound of the float64 product with
    the decoded row."""

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

    @staticmethod
    def _modality_ids(space, stack, owner, ids):
        """Modality 1 of the stacked queries through the native row
        scorer, one row a query at ``ω² = 1``, narrowed back to the
        float32 inner product (exact: the scorer widened it)."""
        one = JointSpace(space.vectors, Weights([0.0, 1.0]))
        rows = [MultiVector([None, q]) for q in stack]
        scorer = RowScorer(one, rows, [None] * len(rows), concat=False)
        return scorer.score(owner, ids, np.full(len(rows), -np.inf)).astype(
            np.float32
        )

    def test_store_kernel_matches_per_query_kernels(
        self, space, queries, monkeypatch
    ):
        """The same bits in the whole stack and in a stack of one, and
        the NumPy row kernel's (``tests/oracles.py``) too."""
        store = space.store
        stack = np.stack([q.vectors[1] for q in queries]).astype(np.float32)
        owner, ids = self._frontier(len(queries), skip=3)
        decoded = store.rows(1, ids).astype(np.float64)
        exact = np.einsum("ij,ij->i", decoded, stack[owner].astype(np.float64))
        bound = store.batch_scores_bound(1, stack)[owner]
        got = self._modality_ids(space, stack, owner, ids)
        for o in np.unique(owner):
            rows = owner == o
            solo = self._modality_ids(
                space, stack[o : o + 1], np.zeros(rows.sum(), np.int64), ids[rows]
            )
            np.testing.assert_array_equal(got[rows], solo)
        assert (np.abs(got - exact) <= bound).all()
        want = kernel_ids(store.stacked_kernel(1, stack), ids, owner)
        assert got.tobytes() == want.tobytes()

    def test_kernel_rows_are_scored_independently(self, space, queries):
        """One row's score never depends on which rows share the call —
        what lets a frontier be stacked (a GEMV's bits do depend on it)."""
        stack = queries[0].vectors[1][None].astype(np.float32)
        ids = np.arange(0, N, 7)
        together = self._modality_ids(space, stack, np.zeros_like(ids), ids)
        for j, i in enumerate(ids):
            alone = self._modality_ids(
                space, stack, np.zeros(1, np.int64), ids[j : j + 1]
            )
            assert alone[0] == together[j]

    def test_stacked_scorer_matches_per_query_scorers(
        self, space, stack_queries
    ):
        """Each row of the stacked pass carries the bits and the work
        count its query gets from a scorer over a stack of one, and sits
        within the weighted store bounds of the float64 exact plans'
        kernel, :meth:`JointSpace.query_ids_stable`."""
        b = len(stack_queries)
        per_weights = [None, Weights([0.9, 0.1])] * (b // 2)
        owner, ids = self._frontier(b, skip=1)
        stack = RowScorer(space, stack_queries, per_weights, concat=False)
        got = stack.score(owner, ids, np.full(b, -np.inf))
        for o, (q, w) in enumerate(zip(stack_queries, per_weights)):
            rows = owner == o
            solo = RowScorer(space, [q], [w], concat=False)
            want = solo.score(
                np.zeros(rows.sum(), np.int64), ids[rows], np.full(1, -np.inf)
            )
            np.testing.assert_array_equal(got[rows], want)
            assert stack.evals[o] * stack.mods[o] == solo.evals[0] * solo.mods[0]
            w2 = space.effective_squared_weights(q, w)
            eps = sum(
                w2[i] * space.store.batch_scores_bound(i, v[None])[0]
                for i, v in enumerate(q.vectors)
                if v is not None and w2[i] > 0.0
            )
            stable = space.query_ids_stable(q, ids[rows], weights=w)
            assert (np.abs(got[rows] - stable) <= eps).all()
        assert stack.evals[1] == 0

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


def _same(got, want):
    """Bit for bit: ids, similarity payloads and the work counters."""
    np.testing.assert_array_equal(got.ids, want.ids)
    assert got.similarities.tobytes() == want.similarities.tobytes()
    for field in ("hops", "joint_evals", "modality_evals"):
        assert getattr(got.stats, field) == getattr(want.stats, field), field


class TestStackedRows:
    """The modality-by-modality rows beyond a compressed store's:
    a dense store's zero-weight-fallback rows beside fast rows in one
    wave.  Every row answers as it does alone, and as the heap oracle
    does at ``expansions_per_wave=1``."""

    def test_dense_batch_mixes_fast_and_fallback_rows(self, objects, queries):
        """``Weights([1, 0])`` on the index and an override needing
        modality 1 on every other query: those rows have no concat
        vector.  A fast row's dot products round differently from the
        oracle's GEMV, so against the oracle it is held to the float32
        band, as ``TestHeapKernelParity`` holds it."""
        index = MUST(objects, weights=Weights([1.0, 0.0])).build().index
        space = index.space
        override = Weights([0.5, 0.5])
        batch = [
            Query(q, weights=override) if i % 2 else Query(q)
            for i, q in enumerate(queries)
        ]
        fallback = [space.concat_query(q.vector, q.weights) is None for q in batch]
        assert fallback == [bool(i % 2) for i in range(len(batch))]
        plan = dict(k=K, l=L, expansions_per_wave=1)
        results, _ = graph_wave_search(index, batch, **plan)
        for q, got, slow in zip(batch, results, fallback):
            (alone,), _ = graph_wave_search(index, [q], **plan)
            _same(got, alone)
            ref = heap_search(index, q, K, L)
            if slow:
                _same(got, ref)
                continue
            np.testing.assert_array_equal(got.ids, ref.ids)
            assert got.stats == ref.stats
            band = 2 * dot_error(space.concatenated.shape[1]) * float(
                np.linalg.norm(space.concat_query(q.vector, q.weights))
            ) * space.max_concat_norm
            assert np.all(np.abs(got.similarities - ref.similarities) <= band)


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
        view = seg_must.segments.view()
        oracle = [heap_view_search(view, q, K, L) for q in queries]
        assert wave.plan == "graph/wave"
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

    def test_auto_requests_coalesce_too(self, must, queries):
        """``"auto"`` means the wave: a served auto request joins a wave
        group and answers as the lone query does."""
        with must.serve() as svc:
            res = svc.search(queries[0], SearchOptions(k=K, l=L))
            ref = must.query(queries[0], SearchOptions(k=K, l=L))
            assert np.array_equal(res.ids, ref.ids)
            np.testing.assert_array_equal(res.similarities, ref.similarities)
            summary = svc.stats.summary()
        assert sum(summary["graph_waves"].values()) == 1


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
        view.graph_wave(queries[:1], k=5, l=self.SEG_N // 2)
        assert packs == []


def _on_bookkeeping(path, monkeypatch):
    """Step the rest of the test's traversals on the *path* bookkeeping:
    the kernel's, or its NumPy oracle."""
    book = NumpyBookkeeping if path == "numpy" else NativeBookkeeping
    monkeypatch.setattr(gw._Wave, "traverse", stepping(book))
    return book


@pytest.mark.parametrize("path", ["native", "numpy"])
class TestLemma3Hook:
    """The hook the suite checks Lemma 3 with is not vacuous."""

    def test_it_checks_every_merge_and_changes_no_answer(
        self, must, queries, path, monkeypatch
    ):
        _on_bookkeeping(path, monkeypatch)
        checked: list[int] = []
        check = harness.assert_lemma3

        def counting(book, rows):
            checked.append(rows.size)
            check(book, rows)

        def run():
            return graph_wave_search(must.index, queries, k=K, l=L)

        monkeypatch.setattr(harness, "assert_lemma3", counting)
        hooked, wave = harness.lemma3_checked(run, monkeypatch)
        # The init merge touches every row; every wave with a frontier
        # merges once more.
        assert checked[0] == len(queries)
        assert len(checked) == 1 + sum(f > 0 for f in wave.frontier_sizes)
        assert wave.waves > 0
        plain, plain_wave = run()
        assert (wave.waves, wave.frontier_sizes) == (
            plain_wave.waves, plain_wave.frontier_sizes
        )
        for got, want in zip(hooked, plain):
            np.testing.assert_array_equal(got.ids, want.ids)
            assert got.similarities.tobytes() == want.similarities.tobytes()
            assert got.stats == want.stats

    def test_a_merge_that_lowers_a_full_pool_raises(
        self, must, queries, path, monkeypatch
    ):
        book = _on_bookkeeping(path, monkeypatch)
        merge = book.merge

        def lowering(self, owner, cand, sims):
            rows = merge(self, owner, cand, sims)
            # Past the init merge, which fills every pool (l < n), by
            # far more than one merge can raise a pool's sum.
            if self.wave.hops.any():
                self.wave.res_sims[rows] -= 1e3
            return rows

        monkeypatch.setattr(book, "merge", lowering)
        with pytest.raises(AssertionError, match="Lemma 3"):
            harness.lemma3_checked(
                lambda: graph_wave_search(must.index, queries, k=K, l=L),
                monkeypatch,
            )
