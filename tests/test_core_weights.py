"""Unit tests for modality weights (Lemma 1 machinery)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.multivector import MultiVector
from repro.core.weights import Weights


class TestConstruction:
    def test_from_omegas_squares(self):
        w = Weights.from_omegas([0.5, 2.0])
        assert np.allclose(w.squared, [0.25, 4.0])

    def test_uniform_sums_to_one(self):
        w = Weights.uniform(4)
        assert w.total == pytest.approx(1.0)
        assert np.allclose(w.squared, 0.25)

    def test_user_defined_alias(self):
        w = Weights.user_defined([0.9, 0.1])
        assert np.allclose(w.squared, [0.9, 0.1])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Weights([-0.1, 0.5])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            Weights([0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Weights([])

    def test_immutable(self):
        w = Weights([0.5, 0.5])
        with pytest.raises(ValueError):
            w.squared[0] = 1.0


class TestViews:
    def test_omegas_root(self):
        w = Weights([0.25, 4.0])
        assert np.allclose(w.omegas, [0.5, 2.0])

    def test_total(self):
        assert Weights([0.3, 0.7]).total == pytest.approx(1.0)
        assert Weights([2.0, 2.0]).total == pytest.approx(4.0)

    def test_normalized(self):
        w = Weights([2.0, 6.0]).normalized()
        assert np.allclose(w.squared, [0.25, 0.75])

    @given(st.lists(st.floats(0.01, 10), min_size=1, max_size=6))
    def test_normalized_preserves_ratio(self, values):
        w = Weights(values)
        n = w.normalized()
        assert n.total == pytest.approx(1.0)
        assert np.allclose(
            n.squared / n.squared.sum(), w.squared / w.squared.sum()
        )

    def test_equality_and_hash(self):
        assert Weights([0.5, 0.5]) == Weights([0.5, 0.5])
        assert Weights([0.5, 0.5]) != Weights([0.4, 0.6])
        assert hash(Weights([0.5, 0.5])) == hash(Weights([0.5, 0.5]))


class TestMasking:
    def test_masked_zeroes_missing_modalities(self):
        w = Weights([0.4, 0.6])
        q = MultiVector.from_arrays([np.ones(3, dtype=np.float32), None])
        masked = w.masked(q)
        assert masked.squared[1] == 0.0
        assert masked.squared[0] == pytest.approx(0.4)
        # A partial query gets a fresh object; the original is untouched.
        assert masked is not w
        assert np.array_equal(w.squared, [0.4, 0.6])

    def test_masked_full_query_is_the_same_object(self):
        """Nothing to mask: ``w * 1.0`` is ``w`` and weights are
        immutable, so the per-query path allocates nothing."""
        w = Weights([0.4, 0.6])
        q = MultiVector.from_arrays([np.ones(3), np.ones(2)])
        assert w.masked(q) is w

    def test_masked_all_missing_rejected(self):
        w = Weights([0.4, 0.6])
        q = MultiVector((None, None))
        with pytest.raises(ValueError, match="no usable modality"):
            w.masked(q)

    def test_masked_only_zero_weight_modality_rejected(self):
        w = Weights([1.0, 0.0])
        q = MultiVector.from_arrays([None, np.ones(2)])
        with pytest.raises(ValueError, match="no usable modality"):
            w.masked(q)

    def test_masked_modality_count_mismatch(self):
        w = Weights([1.0])
        q = MultiVector.from_arrays([np.ones(2), np.ones(2)])
        with pytest.raises(ValueError):
            w.masked(q)
