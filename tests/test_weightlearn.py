"""Tests for vector weight learning (§VI): loss, gradient, mining, trainer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.multivector import MultiVector, MultiVectorSet
from repro.weightlearn import (
    VectorWeightLearner,
    build_features,
    contrastive_loss_and_grad,
    joint_logits,
    mine_hard_negatives,
    sample_random_negatives,
)

from tests.conftest import random_multivector_set


class TestLoss:
    def test_perfect_separation_low_loss(self):
        # Positive IP 1.0 in both modalities, negatives 0 → tiny loss.
        features = np.zeros((4, 3, 2))
        features[:, 0, :] = 1.0
        loss, _ = contrastive_loss_and_grad(10 * features, np.ones(2))
        assert loss < 0.01

    def test_uninformative_features_loss_is_log_c(self):
        features = np.ones((4, 5, 2)) * 0.5
        loss, grad = contrastive_loss_and_grad(features, np.ones(2))
        assert loss == pytest.approx(np.log(5), abs=1e-6)
        assert np.allclose(grad, 0.0, atol=1e-9)

    def test_joint_logits_lemma1(self):
        features = np.random.default_rng(0).random((2, 3, 4))
        omegas = np.array([0.5, 1.0, 2.0, 0.1])
        logits = joint_logits(features, omegas)
        assert np.allclose(logits, features @ omegas**2)

    @settings(deadline=None, max_examples=30)
    @given(
        hnp.arrays(np.float64, (3, 4, 2), elements=st.floats(-1, 1)),
        st.floats(0.1, 2.0), st.floats(0.1, 2.0),
    )
    def test_gradient_matches_finite_differences(self, features, w0, w1):
        """The analytic gradient is exact (the PyTorch substitution)."""
        omegas = np.array([w0, w1])
        loss, grad = contrastive_loss_and_grad(features, omegas)
        eps = 1e-6
        for i in range(2):
            step = np.zeros(2)
            step[i] = eps
            up, _ = contrastive_loss_and_grad(features, omegas + step)
            down, _ = contrastive_loss_and_grad(features, omegas - step)
            numeric = (up - down) / (2 * eps)
            assert grad[i] == pytest.approx(numeric, rel=1e-3, abs=1e-5)

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            contrastive_loss_and_grad(np.zeros((2, 3)), np.ones(2))


class TestNegativeMining:
    @pytest.fixture()
    def sims(self):
        rng = np.random.default_rng(4)
        return rng.random((2, 6, 30))  # m=2, B=6, P=30

    def test_hard_negatives_exclude_positive(self, sims):
        positives = np.arange(6)
        negs = mine_hard_negatives(sims, positives, np.ones(2), 5)
        for b in range(6):
            assert positives[b] not in negs[b]

    def test_hard_negatives_are_hardest(self, sims):
        positives = np.zeros(6, dtype=np.int64)
        negs = mine_hard_negatives(sims, positives, np.ones(2), 3)
        joint = np.tensordot(np.ones(2), sims, axes=1)
        for b in range(6):
            scores = joint[b].copy()
            scores[0] = -np.inf
            expected = set(np.argsort(-scores)[:3].tolist())
            assert set(negs[b].tolist()) == expected

    def test_hard_negatives_depend_on_weights(self, sims):
        positives = np.zeros(6, dtype=np.int64)
        a = mine_hard_negatives(sims, positives, np.array([1.0, 0.01]), 3)
        b = mine_hard_negatives(sims, positives, np.array([0.01, 1.0]), 3)
        assert not np.array_equal(a, b)

    def test_random_negatives_exclude_positive(self):
        positives = np.array([3, 7, 11])
        negs = sample_random_negatives(20, positives, 8, rng=0)
        for b in range(3):
            assert positives[b] not in negs[b]

    def test_pool_too_small(self, sims):
        with pytest.raises(ValueError):
            mine_hard_negatives(sims, np.zeros(6, dtype=np.int64), np.ones(2), 30)

    def test_build_features_layout(self, sims):
        positives = np.arange(6)
        negs = mine_hard_negatives(sims, positives, np.ones(2), 4)
        feats = build_features(sims, positives, negs)
        assert feats.shape == (6, 5, 2)
        for b in range(6):
            assert np.allclose(feats[b, 0], sims[:, b, positives[b]])
            assert np.allclose(feats[b, 1], sims[:, b, negs[b, 0]])


def _make_training_problem(seed=0, n=150, batch=40, noise=0.12):
    """Synthetic problem whose optimal weights favour modality 1.

    Modality 0 is pure noise; modality 1 places the positive closest to
    the anchor (up to small *noise*, kept low enough that the problem is
    winnable — the contrastive loss deliberately flattens logits on
    unwinnable anchors, which would mask what these tests check).
    A correct learner must push ω₁ ≫ ω₀.
    """
    rng = np.random.default_rng(seed)
    d0, d1 = 6, 6
    pool0 = rng.standard_normal((n, d0)).astype(np.float32)
    pool1 = rng.standard_normal((n, d1)).astype(np.float32)
    pool0 /= np.linalg.norm(pool0, axis=1, keepdims=True)
    pool1 /= np.linalg.norm(pool1, axis=1, keepdims=True)
    pool = MultiVectorSet([pool0, pool1])
    anchors, positives = [], []
    for b in range(batch):
        pos = int(rng.integers(n))
        a0 = rng.standard_normal(d0)  # noise — unrelated to pos
        a1 = pool1[pos] + noise * rng.standard_normal(d1)  # informative
        a0 /= np.linalg.norm(a0)
        a1 /= np.linalg.norm(a1)
        anchors.append(MultiVector((a0.astype(np.float32),
                                    a1.astype(np.float32))))
        positives.append(pos)
    return anchors, np.asarray(positives), pool


class TestTrainer:
    def test_learns_informative_modality(self):
        anchors, positives, pool = _make_training_problem()
        learner = VectorWeightLearner(epochs=150, learning_rate=0.3, seed=1)
        result = learner.fit(anchors, positives, pool)
        w2 = result.weights.squared
        assert w2[1] > 2 * w2[0], f"learned {w2}"

    def test_training_recall_improves(self):
        anchors, positives, pool = _make_training_problem()
        learner = VectorWeightLearner(epochs=150, learning_rate=0.3, seed=1)
        result = learner.fit(anchors, positives, pool)
        assert result.history.recall[-1] >= result.history.recall[0]
        assert result.history.recall[-1] > 0.6

    def test_hard_beats_random_on_final_recall(self):
        """Fig. 9 shape: hard negatives reach better weights."""
        anchors, positives, pool = _make_training_problem(seed=3)
        final = {}
        for strategy in ("hard", "random"):
            learner = VectorWeightLearner(
                epochs=120, learning_rate=0.3, strategy=strategy, seed=1
            )
            final[strategy] = learner.fit(
                anchors, positives, pool
            ).history.recall[-1]
        assert final["hard"] >= final["random"] - 0.05

    def test_normalized_weights_unit_total(self):
        anchors, positives, pool = _make_training_problem()
        result = VectorWeightLearner(epochs=20, seed=1).fit(
            anchors, positives, pool
        )
        assert result.weights.total == pytest.approx(1.0, abs=1e-6)

    def test_history_lengths(self):
        anchors, positives, pool = _make_training_problem()
        result = VectorWeightLearner(epochs=25, seed=1).fit(
            anchors, positives, pool
        )
        assert len(result.history.loss) == 25
        assert len(result.history.recall) == 25
        assert len(result.history.squared_weights) == 25
        assert result.epochs == 25
        assert result.seconds > 0

    def test_deterministic(self):
        anchors, positives, pool = _make_training_problem()
        r1 = VectorWeightLearner(epochs=30, seed=9).fit(anchors, positives, pool)
        r2 = VectorWeightLearner(epochs=30, seed=9).fit(anchors, positives, pool)
        assert np.allclose(r1.weights.squared, r2.weights.squared)

    def test_missing_modality_anchor_gets_zero_feature(self):
        anchors, positives, pool = _make_training_problem()
        anchors = [a.replace(0, None) for a in anchors]
        result = VectorWeightLearner(epochs=50, learning_rate=0.3, seed=1).fit(
            anchors, positives, pool
        )
        # With modality 0 absent everywhere its IPs are all zero, so the
        # gradient pushes all discriminative mass to modality 1.
        assert result.weights.squared[1] > result.weights.squared[0]

    def test_invalid_inputs(self):
        anchors, positives, pool = _make_training_problem()
        with pytest.raises(ValueError):
            VectorWeightLearner(strategy="weird")
        with pytest.raises(ValueError):
            VectorWeightLearner(epochs=0)
        with pytest.raises(ValueError):
            VectorWeightLearner().fit(anchors, positives[:3], pool)
        with pytest.raises(ValueError):
            VectorWeightLearner().fit([], np.array([]), pool)

    def test_num_negatives_sweep_trains(self):
        """Fig. 13: the learner works across |N⁻| settings."""
        anchors, positives, pool = _make_training_problem()
        for num_neg in (1, 4, 10):
            result = VectorWeightLearner(
                epochs=40, num_negatives=num_neg, seed=1
            ).fit(anchors, positives, pool)
            assert np.isfinite(result.history.loss[-1])
