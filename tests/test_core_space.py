"""Tests for the joint similarity space — Lemma 1 and Lemma 4 invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.efficiency import lemma4_scores
from repro.core.multivector import MultiVector
from repro.core.results import SearchStats
from repro.core.space import JointSpace
from repro.core.weights import Weights

from tests.conftest import random_multivector_set, random_query


@pytest.fixture(scope="module")
def space():
    return JointSpace(random_multivector_set(60, (8, 5), seed=9),
                      Weights([0.3, 0.7]))


class TestLemma1:
    """Joint IP of concatenated vectors = ω²-weighted sum of modal IPs."""

    def test_pair_matches_weighted_sum(self, space):
        mats = space.vectors.matrices
        w2 = space.weights.squared
        for i, j in [(0, 1), (5, 17), (30, 30)]:
            expected = sum(
                w2[m] * float(mats[m][i] @ mats[m][j])
                for m in range(len(mats))
            )
            assert space.pair(i, j) == pytest.approx(expected, abs=1e-5)

    def test_block_matches_pair(self, space):
        a = np.array([0, 3, 5])
        b = np.array([1, 2])
        blk = space.block(a, b)
        for ai, i in enumerate(a):
            for bj, j in enumerate(b):
                assert blk[ai, bj] == pytest.approx(space.pair(i, j), abs=1e-5)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 59), st.integers(0, 59),
           st.floats(0.05, 5.0), st.floats(0.05, 5.0))
    def test_lemma1_property(self, i, j, w0, w1):
        space = JointSpace(random_multivector_set(60, (8, 5), seed=9),
                           Weights([w0, w1]))
        mats = space.vectors.matrices
        expected = w0 * float(mats[0][i] @ mats[0][j]) + w1 * float(
            mats[1][i] @ mats[1][j]
        )
        assert space.pair(i, j) == pytest.approx(expected, rel=1e-4, abs=1e-5)

    def test_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            JointSpace(random_multivector_set(5, (3, 3)), Weights([1.0]))


def full_scan(space, query):
    """Joint similarity against every row through the store's full-scan
    kernel, ``batch_scores``, one modality at a time."""
    w2 = space.effective_squared_weights(query)
    out = np.zeros(space.n)
    for i, q in enumerate(query.vectors):
        if q is not None and w2[i] > 0.0:
            block = space.store.batch_scores(i, q.astype(np.float32)[None])
            out += w2[i] * block[:, 0].astype(np.float64)
    return out


class TestQueryKernels:
    def test_query_all_matches_query_ids(self, space):
        """The float32 full scan, the float64 full scan and the float64
        scan of an id subset agree."""
        q = random_query((8, 5), seed=4)
        full = space.query_ids_stable(q)
        ids = np.array([3, 10, 42])
        assert np.allclose(full[ids], space.query_ids_stable(q, ids), atol=1e-12)
        assert np.allclose(full_scan(space, q), full, atol=1e-6)

    def test_missing_modality_drops_term(self, space):
        q = random_query((8, 5), seed=4)
        q_partial = q.replace(1, None)
        got = space.query_ids_stable(q_partial)
        expected = 0.3 * (space.vectors.modality(0) @ q.vectors[0])
        assert np.allclose(got, expected, atol=1e-5)

    def test_weight_override(self, space):
        q = random_query((8, 5), seed=4)
        override = Weights([0.9, 0.1])
        got = space.query_ids_stable(q, weights=override)
        expected = 0.9 * (space.vectors.modality(0) @ q.vectors[0]) + 0.1 * (
            space.vectors.modality(1) @ q.vectors[1]
        )
        assert np.allclose(got, expected, atol=1e-5)

    def test_concat_query_fast_path_matches(self, space):
        q = random_query((8, 5), seed=4)
        qcat = space.concat_query(q)
        assert qcat is not None
        fast = (space.concatenated @ qcat).astype(np.float64)
        assert np.allclose(fast, space.query_ids_stable(q), atol=1e-4)

    def test_concat_query_with_override_matches(self, space):
        q = random_query((8, 5), seed=4)
        override = Weights([0.8, 0.2])
        qcat = space.concat_query(q, weights=override)
        fast = (space.concatenated @ qcat).astype(np.float64)
        assert np.allclose(
            fast, space.query_ids_stable(q, weights=override), atol=1e-4
        )

    def test_concat_query_missing_modality(self, space):
        q = random_query((8, 5), seed=4).replace(0, None)
        qcat = space.concat_query(q)
        fast = (space.concatenated @ qcat).astype(np.float64)
        assert np.allclose(fast, space.query_ids_stable(q), atol=1e-4)

    def test_stats_counting(self, space):
        q = random_query((8, 5), seed=4)
        stats = SearchStats()
        space.query_ids_stable(q, np.arange(10), stats=stats)
        assert stats.joint_evals == 10
        assert stats.modality_evals == 20

    def test_centroid_id_in_range(self, space):
        c = space.centroid_id()
        assert 0 <= c < space.n

    def test_with_weights_shares_vectors(self, space):
        other = space.with_weights(Weights([0.5, 0.5]))
        assert other.vectors is space.vectors
        assert other.weights != space.weights


class TestLemma4EarlyStop:
    """Pruned evaluation is lossless: every exact value matches, every
    pruned object's true similarity is at or below the threshold.  The
    scan is Fig. 10(c)'s per-query Lemma-4 reference
    (:func:`repro.bench.efficiency.lemma4_scores`)."""

    def _check(self, space, q, ids, threshold):
        sims, exact = lemma4_scores(space, q, ids, threshold)
        truth = space.query_ids_stable(q, ids)
        # Exact entries match the true similarity.
        assert np.allclose(sims[exact], truth[exact], atol=1e-5)
        # Pruned entries really are at/below the threshold (Lemma 4).
        assert np.all(truth[~exact] <= threshold + 1e-5)
        # The bound is an upper bound everywhere.
        assert np.all(sims >= truth - 1e-5)

    def test_low_threshold_everything_exact(self, space):
        q = random_query((8, 5), seed=4)
        sims, exact = lemma4_scores(space, q, np.arange(20), threshold=-10.0)
        assert exact.all()
        assert np.allclose(
            sims, space.query_ids_stable(q, np.arange(20)), atol=1e-5
        )

    def test_high_threshold_prunes_everything_safely(self, space):
        q = random_query((8, 5), seed=4)
        self._check(space, q, np.arange(30), threshold=0.99)

    @settings(deadline=None, max_examples=30)
    @given(st.floats(-0.5, 1.0), st.integers(0, 100))
    def test_lemma4_property(self, threshold, qseed):
        space = JointSpace(random_multivector_set(40, (6, 4), seed=11),
                           Weights([0.45, 0.55]))
        q = random_query((6, 4), seed=qseed)
        self._check(space, q, np.arange(40), threshold)

    def test_stats_record_pruning(self, space):
        q = random_query((8, 5), seed=4)
        stats = SearchStats()
        lemma4_scores(space, q, np.arange(40), 0.95, stats=stats)
        assert stats.joint_evals == 40
        # Heavier modality scanned for all, lighter only for survivors:
        # after it every bound is at most 0.09 + 0.49, below 0.95.
        assert stats.pruned_early == 40
        assert stats.modality_evals + stats.pruned_early == 80

    def test_three_modalities_spend_fewer_evaluations(self):
        """At m = 3 a threshold inside the scores' range prunes rows
        before their last modality, and every row it keeps is exact."""
        dims = (8, 6, 4)
        space = JointSpace(random_multivector_set(80, dims, seed=5),
                           Weights([0.5, 0.3, 0.2]))
        q = random_query(dims, seed=6)
        ids = np.arange(80)
        truth = space.query_ids_stable(q, ids)
        threshold = float(np.quantile(truth, 0.75))
        stats = SearchStats()
        sims, exact = lemma4_scores(space, q, ids, threshold, stats=stats)
        assert 0 < stats.pruned_early < 80
        assert stats.modality_evals < 3 * stats.joint_evals
        assert np.allclose(sims[exact], truth[exact], atol=1e-5)
        assert np.all(truth[~exact] <= threshold + 1e-5)

    def test_missing_modality_early_stop(self, space):
        q = random_query((8, 5), seed=4).replace(1, None)
        sims, exact = lemma4_scores(space, q, np.arange(20), -5.0)
        truth = space.query_ids_stable(q)[:20]
        assert np.allclose(sims[exact], truth[exact], atol=1e-5)
