"""End-to-end integration tests: the paper's headline claims at test scale.

Each test runs a full pipeline (generate → encode → learn → index →
search → evaluate) and asserts a *shape* from the paper rather than an
absolute number.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    BruteForceMUST,
    JointEmbeddingSearch,
    MultiStreamedRetrieval,
)
from repro.core.framework import MUST
from repro.core.query import SearchOptions
from repro.datasets import (
    EncoderCombo,
    encode_dataset,
    make_celeba,
    make_celeba_plus,
    make_imagetext,
    make_shopping,
    split_queries,
)
from repro.datasets.largescale import encode_largescale, exact_ground_truth
from repro.metrics import mean_hit_rate, mean_recall


def _pipeline(sem, combo, epochs=150):
    enc = encode_dataset(sem, combo, seed=0)
    train, test = split_queries(sem.num_queries, 0.5, seed=1)
    must = MUST.from_dataset(enc)
    anchors = [enc.queries[i] for i in train]
    positives = np.asarray([enc.ground_truth[i][0] for i in train])
    must.fit_weights(anchors, positives, epochs=epochs, learning_rate=0.25)
    must.build()
    queries = [enc.queries[i] for i in test]
    gt = [enc.ground_truth[i] for i in test]
    return enc, must, queries, gt


class TestHeadlineOrdering:
    """Paper abstract: MUST beats both baselines in accuracy."""

    @pytest.fixture(scope="class")
    def celeba_run(self):
        sem = make_celeba(num_identities=80, num_queries=80, seed=11)
        return _pipeline(sem, EncoderCombo("clip", ("encoding",)))

    def test_must_beats_je(self, celeba_run):
        enc, must, queries, gt = celeba_run
        must_r = mean_hit_rate(
            [must.query(q, SearchOptions(k=10, l=100)).ids for q in queries], gt, 10
        )
        je = JointEmbeddingSearch(enc.objects).build()
        je_r = mean_hit_rate(
            [je.search(q, k=10, l=100).ids for q in queries], gt, 10
        )
        assert must_r > je_r

    def test_must_beats_mr_at_top1(self, celeba_run):
        enc, must, queries, gt = celeba_run
        must_r = mean_hit_rate(
            [must.query(q, SearchOptions(k=10, l=100)).ids for q in queries], gt, 1
        )
        mr = MultiStreamedRetrieval(enc.objects).build()
        mr_r = max(
            mean_hit_rate(
                [mr.search(q, k=10, candidates_per_modality=b).ids
                 for q in queries], gt, 1,
            )
            for b in (50, 100, 200)
        )
        assert must_r >= mr_r

    def test_graph_search_tracks_exact_search(self, celeba_run):
        enc, must, queries, gt = celeba_run
        brute = BruteForceMUST(enc.objects, must.weights).build()
        approx = mean_hit_rate(
            [must.query(q, SearchOptions(k=10, l=120)).ids for q in queries], gt, 10
        )
        exact = mean_hit_rate(
            [brute.search(q, k=10).ids for q in queries], gt, 10
        )
        assert approx >= exact - 0.05


class TestLearnedWeightsGeneralise:
    """§VI-C: weights are query-independent — learned on one workload
    slice, they transfer to unseen queries of the same corpus."""

    def test_transfer_across_query_split(self):
        sem = make_shopping("t-shirt", num_queries=100, seed=13)
        enc, must, queries, gt = _pipeline(
            sem, EncoderCombo("tirg", ("encoding",))
        )
        learned = mean_hit_rate(
            [must.query(q, SearchOptions(k=10, l=100)).ids for q in queries], gt, 10
        )
        # Uniform weights as the no-learning control.
        control = MUST.from_dataset(enc).build()
        uniform = mean_hit_rate(
            [control.query(q, SearchOptions(k=10, l=100)).ids for q in queries], gt, 10
        )
        assert learned >= uniform - 0.02

    def test_shared_weights_across_categories(self):
        """Tab. XXI: Bottoms queries reuse T-shirt-learned weights well."""
        sem_t = make_shopping("t-shirt", num_queries=80, seed=13)
        _, must_t, _, _ = _pipeline(sem_t, EncoderCombo("tirg", ("encoding",)))
        sem_b = make_shopping("bottoms", num_queries=80, seed=13)
        enc_b = encode_dataset(sem_b, EncoderCombo("tirg", ("encoding",)), seed=0)
        cross = MUST(enc_b.objects, weights=must_t.weights).build()
        gt = enc_b.ground_truth
        r = mean_hit_rate(
            [
                cross.query(q, SearchOptions(k=10, l=100)).ids
                for q in enc_b.queries
            ],
            gt,
            10,
        )
        assert r > 0.5


class TestModalityCount:
    """Tab. VIII shape: more modalities help MUST."""

    def test_recall_does_not_degrade_with_more_modalities(self):
        recalls = {}
        for m in (2, 4):
            sem = make_celeba_plus(
                num_modalities=m, num_identities=60, num_queries=60, seed=11
            )
            aux = ("encoding",) + ("resnet17", "resnet50")[: m - 2]
            _, must, queries, gt = _pipeline(sem, EncoderCombo("clip", aux))
            recalls[m] = mean_hit_rate(
                [must.query(q, SearchOptions(k=10, l=100)).ids for q in queries], gt, 1
            )
        assert recalls[4] >= recalls[2] - 0.05


class TestLargeScaleProtocol:
    """Fig. 6 protocol: Recall@10(10) against exact joint ground truth."""

    @pytest.fixture(scope="class")
    def run(self):
        sem = make_imagetext(n=1_500, num_queries=30, seed=23)
        enc = encode_largescale(sem)
        must = MUST.from_dataset(enc)
        positives = np.asarray([g[0] for g in enc.ground_truth[:15]])
        must.fit_weights(enc.queries[:15], positives, epochs=100,
                         learning_rate=0.2)
        must.build()
        return enc, must

    def test_high_l_reaches_high_recall(self, run):
        enc, must = run
        gt = exact_ground_truth(enc, must.weights, k=10)
        results = [must.query(q, SearchOptions(k=10, l=200)).ids for q in enc.queries]
        assert mean_recall(results, list(gt), 10) > 0.9

    def test_mr_saturates_below_must(self, run):
        enc, must = run
        gt = exact_ground_truth(enc, must.weights, k=10)
        must_r = mean_recall(
            [must.query(q, SearchOptions(k=10, l=200)).ids for q in enc.queries],
            list(gt),
            10,
        )
        mr = MultiStreamedRetrieval(enc.objects).build()
        mr_r = max(
            mean_recall(
                [mr.search(q, k=10, candidates_per_modality=b).ids
                 for q in enc.queries], list(gt), 10,
            )
            for b in (50, 150, 400)
        )
        assert must_r > mr_r

    def test_fewer_evals_than_brute_force(self, run):
        enc, must = run
        res = must.query(enc.queries[0], SearchOptions(k=10, l=100))
        assert res.stats.joint_evals < enc.objects.n
