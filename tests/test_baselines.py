"""Tests for the baselines: merging, MR, JE, brute force."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    BruteForceMUST,
    JointEmbeddingSearch,
    MultiStreamedRetrieval,
    merge_candidates,
)
from repro.core.multivector import MultiVector
from repro.core.query import SearchOptions
from repro.core.weights import Weights
from repro.datasets import EncoderCombo, encode_dataset

from tests.conftest import random_multivector_set, random_query


class TestMergeCandidates:
    def test_single_list_passthrough(self):
        out = merge_candidates([np.array([5, 2, 9])], k=2)
        assert list(out) == [5, 2]

    def test_intersection_comes_first(self):
        a = np.array([1, 2, 3, 4])
        b = np.array([9, 3, 2, 8])
        out = merge_candidates([a, b], k=3)
        assert set(out[:2]) == {2, 3}  # the intersection

    def test_intersection_ordered_by_target_rank(self):
        a = np.array([1, 2, 3])  # target stream
        b = np.array([3, 2, 1])
        out = merge_candidates([a, b], k=3)
        assert list(out) == [1, 2, 3]  # target-rank order

    def test_shortfall_filled_from_union(self):
        a = np.array([1, 2])
        b = np.array([3, 4])
        out = merge_candidates([a, b], k=3)
        assert len(out) == 3  # intersection empty → union fill

    def test_rank_sum_strategy(self):
        a = np.array([1, 2, 3])
        b = np.array([2, 1, 9])
        out = merge_candidates([a, b], k=2, strategy="rank-sum")
        # rank sums: 1→0+1=1, 2→1+0=1, 3→2+3=5, 9→3+2=5
        assert set(out) == {1, 2}

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            merge_candidates([np.array([1])], 1, strategy="magic")

    def test_never_exceeds_k(self):
        lists = [np.arange(20), np.arange(5, 25)]
        assert len(merge_candidates(lists, k=7)) == 7

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            merge_candidates([], 3)


@pytest.fixture(scope="module")
def corpus():
    return random_multivector_set(200, (8, 6), seed=77)


@pytest.fixture(scope="module")
def queries():
    return [random_query((8, 6), seed=s) for s in range(10)]


class TestMultiStreamedRetrieval:
    def test_build_and_search(self, corpus, queries):
        mr = MultiStreamedRetrieval(corpus).build()
        res = mr.search(queries[0], k=5, candidates_per_modality=40)
        assert len(res.ids) == 5
        assert mr.build_seconds > 0
        assert mr.name == "MR"

    def test_exact_variant(self, corpus, queries):
        mr = MultiStreamedRetrieval(corpus, exact=True).build()
        assert mr.name == "MR--"
        res = mr.search(queries[0], k=5, candidates_per_modality=40)
        assert len(res.ids) == 5
        assert mr.index_size_in_bytes() == 0

    def test_exact_and_graph_agree_at_high_budget(self, corpus, queries):
        graph = MultiStreamedRetrieval(corpus).build()
        exact = MultiStreamedRetrieval(corpus, exact=True).build()
        overlap = 0
        for q in queries:
            a = graph.search(q, k=10, candidates_per_modality=150)
            b = exact.search(q, k=10, candidates_per_modality=150)
            overlap += np.intersect1d(a.ids, b.ids).size
        assert overlap / (10 * len(queries)) > 0.8

    def test_missing_modality_uses_remaining_stream(self, corpus, queries):
        mr = MultiStreamedRetrieval(corpus).build()
        q = queries[0].replace(1, None)
        res = mr.search(q, k=5, candidates_per_modality=40)
        assert len(res.ids) == 5

    def test_search_before_build_rejected(self, corpus, queries):
        mr = MultiStreamedRetrieval(corpus)
        with pytest.raises(ValueError):
            mr.search(queries[0], 5)

    def test_index_size_positive(self, corpus):
        mr = MultiStreamedRetrieval(corpus).build()
        assert mr.index_size_in_bytes() > 0

    def test_stats_aggregate_streams(self, corpus, queries):
        mr = MultiStreamedRetrieval(corpus).build()
        res = mr.search(queries[0], k=5, candidates_per_modality=40)
        # Two streams → at least two searches worth of evaluations.
        assert res.stats.joint_evals >= 80


class TestJointEmbedding:
    def test_requires_target_slot(self, corpus):
        je = JointEmbeddingSearch(corpus).build()
        q = MultiVector((None, np.ones(6, dtype=np.float32)))
        with pytest.raises(ValueError, match="composition"):
            je.search(q, 5)

    def test_search_only_uses_target_modality(self, corpus, queries):
        je = JointEmbeddingSearch(corpus).build()
        full = je.search(queries[0], k=5)
        target_only = je.search(queries[0].replace(1, None), k=5)
        assert np.array_equal(full.ids, target_only.ids)

    def test_exact_variant_matches_argmax(self, corpus, queries):
        je = JointEmbeddingSearch(corpus, exact=True).build()
        res = je.search(queries[0], k=1)
        sims = corpus.modality(0) @ queries[0].vectors[0]
        assert res.ids[0] == int(np.argmax(sims))

    def test_build_required(self, corpus, queries):
        with pytest.raises(ValueError):
            JointEmbeddingSearch(corpus).search(queries[0], 5)


class TestBruteForceMUST:
    def test_exact_joint_top1(self, corpus, queries):
        weights = Weights([0.4, 0.6])
        bf = BruteForceMUST(corpus, weights).build()
        res = bf.search(queries[0], k=1)
        sims = 0.4 * (corpus.modality(0) @ queries[0].vectors[0]) + 0.6 * (
            corpus.modality(1) @ queries[0].vectors[1]
        )
        assert res.ids[0] == int(np.argmax(sims))

    def test_weight_override(self, corpus, queries):
        bf = BruteForceMUST(corpus, Weights([0.5, 0.5])).build()
        default = bf.search(queries[1], k=10)
        skewed = bf.search(queries[1], k=10, weights=Weights([0.99, 0.01]))
        assert not np.array_equal(default.ids, skewed.ids)


class TestFrameworkOrdering:
    """Integration sanity on a real workload: MUST ≥ baselines (Tab. III)."""

    def test_must_beats_je_on_mitstates(self, mitstates_small):
        from repro.core.framework import MUST
        from repro.metrics import mean_hit_rate

        enc = encode_dataset(
            mitstates_small, EncoderCombo("clip", ("lstm",)), seed=0
        )
        gt = enc.ground_truth
        must = MUST.from_dataset(enc)
        anchors = enc.queries[:20]
        positives = np.asarray([g[0] for g in gt[:20]])
        must.fit_weights(anchors, positives, epochs=120, learning_rate=0.25)
        must.build()
        test_q = enc.queries[20:]
        test_gt = gt[20:]
        must_res = [must.query(q, SearchOptions(k=10, l=80)) for q in test_q]
        must_r = mean_hit_rate([r.ids for r in must_res], test_gt, 10)

        je = JointEmbeddingSearch(enc.objects).build()
        je_res = [je.search(q, k=10, l=80) for q in test_q]
        je_r = mean_hit_rate([r.ids for r in je_res], test_gt, 10)
        assert must_r >= je_r
