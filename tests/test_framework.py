"""Tests for the MUST facade: fit → build → search, persistence, options."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framework import MUST
from repro.core.multivector import MultiVector
from repro.core.query import Query, SearchOptions
from repro.core.weights import Weights
from repro.metrics import mean_hit_rate


@pytest.fixture(scope="module")
def trained(mitstates_encoded):
    enc = mitstates_encoded
    must = MUST.from_dataset(enc)
    anchors = enc.queries[:20]
    positives = np.asarray([g[0] for g in enc.ground_truth[:20]])
    must.fit_weights(anchors, positives, epochs=100, learning_rate=0.25)
    must.build()
    return must


class TestLifecycle:
    def test_default_weights_uniform(self, mitstates_encoded):
        must = MUST.from_dataset(mitstates_encoded)
        assert must.weights == Weights.uniform(2)

    def test_search_before_build_rejected(self, mitstates_encoded):
        must = MUST.from_dataset(mitstates_encoded)
        with pytest.raises(ValueError):
            must.query(mitstates_encoded.queries[0], SearchOptions())

    def test_fit_installs_weights(self, trained):
        assert trained.weight_result is not None
        assert trained.weights == trained.weight_result.weights

    def test_fit_weights_pool_validation(self, mitstates_encoded):
        must = MUST.from_dataset(mitstates_encoded)
        anchors = mitstates_encoded.queries[:4]
        positives = np.asarray(
            [g[0] for g in mitstates_encoded.ground_truth[:4]]
        )
        with pytest.raises(ValueError, match="pool"):
            must.fit_weights(anchors, positives,
                             pool_object_ids=np.array([0, 1]))

    def test_set_weights_invalidates_index(self, trained, mitstates_encoded):
        must = MUST.from_dataset(mitstates_encoded)
        must.build()
        assert must.is_built
        must.set_weights(Weights([0.2, 0.8]))
        assert not must.is_built

    def test_fit_invalidates_index(self, mitstates_encoded):
        enc = mitstates_encoded
        must = MUST.from_dataset(enc).build()
        anchors = enc.queries[:5]
        positives = np.asarray([g[0] for g in enc.ground_truth[:5]])
        must.fit_weights(anchors, positives, epochs=10)
        assert not must.is_built


class TestSearch:
    def test_search_returns_k(self, trained, mitstates_encoded):
        res = trained.query(mitstates_encoded.queries[0], SearchOptions(k=7, l=60))
        assert len(res) == 7

    def test_exact_flag_matches_brute_force(self, trained, mitstates_encoded):
        q = mitstates_encoded.queries[0]
        exact = trained.query(q, SearchOptions(k=10, exact=True))
        sims = trained.space.query_ids_stable(q)
        assert exact.similarities[0] == pytest.approx(sims.max(), abs=1e-6)

    def test_graph_close_to_exact(self, trained, mitstates_encoded):
        overlap = 0
        for q in mitstates_encoded.queries[:15]:
            approx = trained.query(q, SearchOptions(k=10, l=100))
            exact = trained.query(q, SearchOptions(k=10, exact=True))
            overlap += np.intersect1d(approx.ids, exact.ids).size
        assert overlap / 150 > 0.85

    def test_user_defined_weights(self, trained, mitstates_encoded):
        q = mitstates_encoded.queries[1]
        default = trained.query(q, SearchOptions(k=10, l=60))
        user = trained.query(
            Query(q, weights=Weights([0.95, 0.05])),
            SearchOptions(k=10, l=60),
        )
        assert not np.array_equal(default.ids, user.ids)

    def test_missing_modality_query(self, trained, mitstates_encoded):
        q = mitstates_encoded.queries[0].replace(1, None)
        res = trained.query(q, SearchOptions(k=5, l=60))
        assert len(res) == 5

    def test_batch_search(self, trained, mitstates_encoded):
        out = trained.query(mitstates_encoded.queries[:4], SearchOptions(k=3, l=40))
        assert len(out) == 4
        assert all(len(r) == 3 for r in out)

    def test_accuracy_reasonable(self, trained, mitstates_encoded):
        res = trained.query(mitstates_encoded.queries, SearchOptions(k=10, l=100))
        r10 = mean_hit_rate(
            [r.ids for r in res], mitstates_encoded.ground_truth, 10
        )
        assert r10 > 0.5


class TestPersistence:
    def test_save_load_roundtrip(self, trained, mitstates_encoded, tmp_path):
        path = tmp_path / "must"
        trained.save_index(path)
        fresh = MUST.from_dataset(mitstates_encoded)
        fresh.load_index(path)
        assert fresh.weights == trained.weights
        q = mitstates_encoded.queries[0]
        a = trained.query(q, SearchOptions(k=10, l=60))
        b = fresh.query(q, SearchOptions(k=10, l=60))
        assert np.array_equal(a.ids, b.ids)

    def test_save_before_build_rejected(self, mitstates_encoded, tmp_path):
        must = MUST.from_dataset(mitstates_encoded)
        with pytest.raises(ValueError):
            must.save_index(tmp_path / "x")
