"""Parity suite for the unified scoring engine + batch executor.

The contract under test: a batch ``MUST.query`` through the
:class:`~repro.index.executor.BatchExecutor` runners returns
**bit-identical** ids and similarities to a hand-written sequential
loop of lone queries — for every batch size, with and without Lemma-4
early termination and query-time weight overrides.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framework import MUST
from repro.core.query import Query, SearchOptions
from repro.core.results import SearchStats
from repro.core.weights import Weights
from repro.index.executor import BatchExecutor, BatchResult
from repro.index.flat import FlatIndex
from repro.index.graph_wave import bookkeeping, graph_wave_search
from repro.index.scoring import StackedScorer, batch_score_all
from repro.index.search import joint_search

from tests.conftest import oracle_scores, random_multivector_set, random_query

N = 350
DIMS = (10, 6)
K, L = 8, 50


@pytest.fixture(scope="module")
def must():
    objects = random_multivector_set(N, DIMS, seed=7)
    m = MUST(objects, weights=Weights([0.6, 0.4]))
    m.build()
    return m


@pytest.fixture(scope="module")
def queries():
    return [random_query(DIMS, seed=s) for s in range(12)]


def sequential_reference(must, queries, **kwargs):
    """The loop of lone queries the executor must reproduce bit for bit."""
    return [joint_search(must.index, q, k=K, l=L, **kwargs) for q in queries]


def wave_of_one_reference(must, queries, **kwargs):
    """The same loop, each query asked as a wave of one."""
    return [
        graph_wave_search(must.index, [q], k=K, l=L, **kwargs)[0][0]
        for q in queries
    ]


# The two one-query surfaces of the wave: ``joint_search``, which runs
# the wave in its own frame, and ``graph_wave_search`` over one query.
# The ids keep the names of the per-query engines whose loops these two
# replaced, so each case keeps the name it has always had.
LONE_LOOPS = [
    pytest.param(sequential_reference, id="heap"),
    pytest.param(wave_of_one_reference, id="paper"),
]


class TestGraphParity:
    # queries[:stop] — batches of one, two, four and eleven queries: the
    # size of the batch must not change any one of them.
    @pytest.mark.parametrize("stop", [1, 2, 4, -1])
    @pytest.mark.parametrize("lone_loop", LONE_LOOPS)
    @pytest.mark.parametrize("early_termination", [False, True])
    def test_bit_identical_to_sequential_loop(
        self, must, queries, stop, lone_loop, early_termination
    ):
        queries = queries[:stop]
        expected = lone_loop(
            must, queries, early_termination=early_termination
        )
        got = must.query(
            queries,
            SearchOptions(k=K, l=L, early_termination=early_termination),
        )
        assert got.plan == f"graph/wave/{bookkeeping()}"
        assert len(got) == len(expected)
        for res, ref in zip(got, expected):
            assert np.array_equal(res.ids, ref.ids)
            assert np.array_equal(res.similarities, ref.similarities)
            assert res.stats.joint_evals == ref.stats.joint_evals

    @pytest.mark.parametrize("stop", [1, 3])
    def test_weight_override_parity(self, must, queries, stop):
        queries = queries[:stop]
        override = Weights([0.9, 0.1])
        expected = sequential_reference(must, queries, weights=override)
        got = must.query(
            [Query(q, weights=override) for q in queries],
            SearchOptions(k=K, l=L),
        )
        for res, ref in zip(got, expected):
            assert np.array_equal(res.ids, ref.ids)
            assert np.array_equal(res.similarities, ref.similarities)

    def test_answer_does_not_depend_on_batch_position(self, must, queries):
        opts = SearchOptions(k=K, l=L)
        forward = must.query(queries, opts)
        backward = must.query(queries[::-1], opts)
        for x, y in zip(forward, backward.results[::-1]):
            assert np.array_equal(x.ids, y.ids)
            assert np.array_equal(x.similarities, y.similarities)
            assert x.stats.joint_evals == y.stats.joint_evals

    def test_duplicate_queries_get_identical_answers(self, must, queries):
        """Copies of one query in a batch do the same work and read the
        same: nothing per-position seeds a search."""
        run = must.query([queries[0]] * 4, SearchOptions(k=2, l=2))
        assert len({r.stats.visited_vertices for r in run}) == 1
        assert len({r.stats.joint_evals for r in run}) == 1
        assert len({r.ids.tobytes() for r in run}) == 1


class TestBatchResult:
    def test_sequence_protocol(self, must, queries):
        batch = must.query(queries, SearchOptions(k=K, l=L))
        assert isinstance(batch, BatchResult)
        assert len(batch) == len(queries)
        assert batch[0] is list(iter(batch))[0]

    def test_stats_aggregate_per_batch(self, must, queries):
        batch = must.query(queries, SearchOptions(k=K, l=L))
        total = SearchStats.aggregate(r.stats for r in batch)
        assert batch.stats.joint_evals == total.joint_evals > 0
        assert batch.stats.hops == total.hops > 0
        assert batch.stats.modality_evals == total.modality_evals > 0


class TestExactBatch:
    def test_ids_match_sequential_exact(self, must, queries):
        batch = must.query(queries, SearchOptions(k=K, exact=True))
        for q, res in zip(queries, batch):
            ref = must.query(q, SearchOptions(k=K, exact=True))
            assert np.array_equal(res.ids, ref.ids)
            np.testing.assert_allclose(
                res.similarities, ref.similarities, rtol=1e-5, atol=1e-6
            )

    def test_gemm_wave_handles_fallback_queries(self, must, queries):
        """Queries lacking the concat fast path (zeroed index weight) take
        the per-query route inside the same batch."""
        zero = MUST(must.objects, weights=Weights([1.0, 0.0]))
        flat = FlatIndex(zero.space)
        override = Weights([0.5, 0.5])  # needs modality 1 → no fast path
        out = flat.batch_search(queries, K, weights=override)
        for q, res in zip(queries, out):
            ref = flat.search(q, K, weights=override)
            assert np.array_equal(res.ids, ref.ids)

    def test_batch_score_all_stats(self, must, queries):
        sims, stats = batch_score_all(must.space, queries)
        assert len(sims) == len(stats) == len(queries)
        for s, st in zip(sims, stats):
            assert s.shape == (N,)
            assert st.joint_evals == N
            assert st.modality_evals == N * len(DIMS)


class TestScorerUnification:
    """The wave's two frontier routes — the concat fast path and the
    stacked kernels — agree with each other and with the per-query
    reference kernels of :class:`~repro.core.space.JointSpace`."""

    @staticmethod
    def _frontier(b):
        """Owner-sorted ``(owner, ids)``: every query scores every 5th
        row."""
        ids = np.arange(0, N, 5)
        return np.repeat(np.arange(b), ids.size), np.tile(ids, b)

    def test_fast_path_matches_fallback(self, must, queries):
        space = must.space
        owner, ids = self._frontier(len(queries))
        stack = StackedScorer(space, queries, [None] * len(queries))
        got = stack.score(owner, ids, np.full(len(queries), -np.inf))
        for o, q in enumerate(queries):
            rows = owner == o
            assert space.concat_query(q) is not None
            np.testing.assert_array_equal(
                got[rows], space.query_ids(q, ids[rows])
            )
            via_fast = oracle_scores(space, q, ids[rows], None, SearchStats())
            np.testing.assert_allclose(
                via_fast, got[rows], rtol=1e-5, atol=1e-6
            )

    def test_pruned_frontier_mask_is_lossless(self, must, queries):
        space, b = must.space, len(queries)
        owner, ids = self._frontier(b)
        thr = np.full(b, 0.4)
        plain = StackedScorer(space, queries, [None] * b)
        pruned = StackedScorer(
            space, queries, [None] * b, early_termination=True
        )
        sims = plain.score(owner, ids, thr)
        psims = pruned.score(owner, ids, thr)
        keep = np.isfinite(sims)
        assert keep.any() and not keep.all()
        assert np.array_equal(keep, np.isfinite(psims))  # Lemma 4
        np.testing.assert_allclose(
            sims[keep], psims[keep], rtol=1e-5, atol=1e-6
        )
        for o, q in enumerate(queries):
            rows = owner == o
            ref, exact = space.query_ids_early_stop(q, ids[rows], 0.4)
            ref = np.where(exact & (ref > 0.4), ref, -np.inf)
            np.testing.assert_array_equal(psims[rows], ref)

    def test_stats_accounting_matches_scan(self, must, queries):
        space, b = must.space, len(queries)
        owner, ids = self._frontier(b)
        thr = np.full(b, 0.4)
        plain = StackedScorer(space, queries, [None] * b)
        pruned = StackedScorer(
            space, queries, [None] * b, early_termination=True
        )
        plain.score(owner, ids, thr)
        pruned.score(owner, ids, thr)
        assert (plain.modality_evals == (N // 5) * len(DIMS)).all()
        assert not plain.pruned_early.any()
        assert pruned.pruned_early.sum() > 0
        for o, q in enumerate(queries):
            stats = SearchStats()
            space.query_ids_early_stop(q, ids[owner == o], 0.4, stats=stats)
            assert pruned.modality_evals[o] == stats.modality_evals
            assert pruned.pruned_early[o] == stats.pruned_early


class TestBaselineBatchPaths:
    def test_brute_force_batch(self, must, queries):
        from repro.baselines import BruteForceMUST

        brute = BruteForceMUST(must.objects, must.weights).build()
        batch = brute.batch_search(queries, k=K)
        for q, res in zip(queries, batch):
            ref = brute.search(q, k=K)
            assert np.array_equal(res.ids, ref.ids)
            assert res.stats == ref.stats
        # Per query: the prefilter over every row plus the reranked
        # shortlist (exactly k rows on this well-separated corpus).
        assert batch.stats.joint_evals == (N + K) * len(queries)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_multi_streamed_batch(self, must, queries, n_jobs):
        from repro.baselines import MultiStreamedRetrieval

        mr = MultiStreamedRetrieval(must.objects, exact=True).build()
        batch = mr.batch_search(queries, k=5, n_jobs=n_jobs)
        assert len(batch) == len(queries)
        for q, res in zip(queries, batch):
            ref = mr.search(q, k=5)
            # Exact per-modality indexes ignore rng → full parity.
            assert np.array_equal(res.ids, ref.ids)
