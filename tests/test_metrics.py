"""Tests for metrics: Recall@k(k') (Eq. 1), SME (Eq. 4), timing, ground truth."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.framework import MUST
from repro.core.multivector import MultiVector, MultiVectorSet, normalize_rows
from repro.core.query import SearchOptions
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.metrics import (
    PercentileTracker,
    TimedRun,
    exact_top_k,
    exact_top_k_batch,
    hit_rate_at_k,
    mean_hit_rate,
    mean_recall,
    mean_sme,
    measure_qps,
    recall_at_k,
    sme,
)

from tests.conftest import random_multivector_set, random_query


class TestRecall:
    def test_perfect_recall(self):
        assert recall_at_k(np.array([1, 2, 3]), np.array([1, 2, 3]), 3) == 1.0

    def test_partial_recall(self):
        assert recall_at_k(np.array([1, 9, 8]), np.array([1, 2]), 3) == 0.5

    def test_zero_recall(self):
        assert recall_at_k(np.array([7, 8]), np.array([1]), 2) == 0.0

    def test_only_top_k_counted(self):
        # Ground truth at rank 3 does not count for k=2.
        assert recall_at_k(np.array([9, 8, 1]), np.array([1]), 2) == 0.0

    def test_eq1_denominator_is_gt_size(self):
        # |R ∩ G| / k' with k' = 4, one hit → 0.25.
        assert recall_at_k(np.array([1]), np.array([1, 2, 3, 4]), 1) == 0.25

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            recall_at_k(np.array([1]), np.array([1]), 0)

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k(np.array([1]), np.array([]), 1)

    def test_mean_recall(self):
        res = [np.array([1]), np.array([5])]
        gts = [np.array([1]), np.array([6])]
        assert mean_recall(res, gts, 1) == 0.5

    def test_mean_recall_batch_mismatch(self):
        with pytest.raises(ValueError):
            mean_recall([np.array([1])], [], 1)

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=10, unique=True),
           st.integers(1, 10))
    def test_recall_bounded(self, gt, k):
        result = np.arange(10)
        r = recall_at_k(result, np.array(gt), k)
        assert 0.0 <= r <= 1.0


class TestHitRate:
    def test_hit_in_top_k(self):
        assert hit_rate_at_k(np.array([5, 1, 9]), np.array([1, 2]), 2) == 1.0

    def test_miss(self):
        assert hit_rate_at_k(np.array([5, 9]), np.array([1]), 2) == 0.0

    def test_any_instance_counts(self):
        # Either ground-truth instance satisfies Recall@k(1).
        assert hit_rate_at_k(np.array([4]), np.array([3, 4]), 1) == 1.0

    def test_mean_hit_rate(self):
        res = [np.array([1]), np.array([9])]
        gts = [np.array([1, 2]), np.array([2])]
        assert mean_hit_rate(res, gts, 1) == 0.5


class TestSme:
    def test_identical_vectors_zero_error(self):
        v = np.array([0.6, 0.8])
        assert sme(v, v) == pytest.approx(0.0)

    def test_orthogonal_vectors_full_error(self):
        assert sme(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_mean_sme_uses_best_ground_truth(self):
        mat = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        # result 2 vs gts {0,1}: best IP is max(0.6, 0.8) = 0.8.
        got = mean_sme(mat, [2], [np.array([0, 1])])
        assert got == pytest.approx(0.2)

    def test_mean_sme_perfect_retrieval(self):
        mat = np.eye(3)
        assert mean_sme(mat, [1], [np.array([1])]) == pytest.approx(0.0)


class TestGroundTruth:
    def test_exact_top_k_is_argmax(self):
        space = JointSpace(random_multivector_set(30, (4, 4), seed=3),
                           Weights([0.5, 0.5]))
        q = random_query((4, 4), seed=1)
        ids, sims = exact_top_k(space, q, 5)
        full = space.query_ids_stable(q)
        assert sims[0] == full.max()
        assert list(sims) == sorted(sims, reverse=True)
        np.testing.assert_array_equal(ids, np.lexsort((np.arange(30), -full))[:5])
        np.testing.assert_array_equal(sims, full[ids])

    def test_exact_top_k_batch(self):
        space = JointSpace(random_multivector_set(30, (4, 4), seed=3),
                           Weights([0.5, 0.5]))
        qs = [random_query((4, 4), seed=s) for s in range(3)]
        batch = exact_top_k_batch(space, qs, 4)
        assert len(batch) == 3
        for q, ids in zip(qs, batch):
            assert np.array_equal(ids, exact_top_k(space, q, 4)[0])

    def test_ground_truth_is_the_exact_plans_answer_on_ties(self):
        """Every object three times over: a cut-off falls between equal
        similarities for most queries.  Ground truth must pick the rows
        the exact plan picks — the smaller ids — so the exact plan's
        recall is 1.0, not the luck of a float32 ``argpartition``."""
        rng = np.random.default_rng(0)
        base = [
            normalize_rows(rng.standard_normal((30, d)).astype(np.float32))
            for d in (16, 8)
        ]
        objects = MultiVectorSet([np.tile(m, (3, 1)) for m in base])
        weights = Weights([0.7, 0.3])
        queries = [
            MultiVector(
                [
                    normalize_rows(rng.standard_normal((1, d)).astype(np.float32))[0]
                    for d in (16, 8)
                ]
            )
            for _ in range(10)
        ]
        truth = exact_top_k_batch(JointSpace(objects, weights), queries, 10)
        plan = MUST(objects, weights=weights).query(
            queries, SearchOptions(k=10, exact=True)
        )
        for want, got in zip(truth, plan):
            np.testing.assert_array_equal(want, got.ids)
        assert mean_recall([r.ids for r in plan], truth, 10) == 1.0


class TestTiming:
    def test_measure_qps_counts_queries(self):
        run = measure_qps(lambda q: q * 2, [1, 2, 3])
        assert run.num_queries == 3
        assert run.results == [2, 4, 6]
        assert run.qps > 0

    def test_warmup_not_included_in_results(self):
        calls = []
        run = measure_qps(lambda q: calls.append(q), [1, 2], warmup=1)
        assert run.num_queries == 2
        assert calls == [1, 1, 2]  # warmup re-runs the first query

    def test_mean_latency(self):
        run = TimedRun(results=[], elapsed=2.0, num_queries=4)
        assert run.mean_latency == pytest.approx(0.5)
        assert run.qps == pytest.approx(2.0)

    def test_zero_elapsed_rejected(self):
        # A zero-elapsed timer used to read as inf QPS — infinitely
        # fast — which every regression floor passes vacuously.
        run = TimedRun(results=[], elapsed=0.0, num_queries=1)
        with pytest.raises(ValueError, match="non-finite QPS"):
            run.qps

    def test_nan_elapsed_rejected(self):
        run = TimedRun(results=[], elapsed=float("nan"), num_queries=1)
        with pytest.raises(ValueError, match="non-finite QPS"):
            run.qps


class TestPercentileTracker:
    def test_percentiles_match_numpy(self):
        rng = np.random.default_rng(0)
        samples = rng.exponential(size=500)
        tracker = PercentileTracker()
        for x in samples:
            tracker.record(x)
        for q in (50, 95, 99):
            assert tracker.percentile(q) == pytest.approx(
                np.percentile(samples, q)
            )
        assert tracker.p50 <= tracker.p95 <= tracker.p99 <= tracker.max
        assert tracker.count == 500
        assert tracker.mean == pytest.approx(samples.mean())

    def test_empty_tracker_is_nan(self):
        tracker = PercentileTracker()
        assert np.isnan(tracker.p50)
        assert np.isnan(tracker.mean)
        assert np.isnan(tracker.max)
        assert tracker.summary() == {"count": 0}
        assert len(tracker) == 0

    def test_window_keeps_recent_but_counts_all(self):
        tracker = PercentileTracker(max_samples=10)
        for x in range(100):
            tracker.record(float(x))
        assert len(tracker) == 10
        assert tracker.count == 100
        # Percentiles reflect the sliding window (the last 10 values).
        assert tracker.percentile(0) == 90.0
        # Mean and max reflect everything ever recorded.
        assert tracker.mean == pytest.approx(np.mean(np.arange(100.0)))
        assert tracker.max == 99.0

    def test_merge_folds_samples_and_totals(self):
        a, b = PercentileTracker(), PercentileTracker()
        for x in (1.0, 2.0):
            a.record(x)
        for x in (3.0, 4.0):
            b.record(x)
        a.merge(b)
        assert a.count == 4
        assert a.max == 4.0
        assert a.mean == pytest.approx(2.5)
        assert a.percentile(100) == 4.0

    def test_summary_scale(self):
        tracker = PercentileTracker()
        tracker.record(0.5)
        summary = tracker.summary(scale=1e3)
        assert summary["p50"] == pytest.approx(500.0)
        assert summary["count"] == 1

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            PercentileTracker(max_samples=0)
