"""Unit suite for the pluggable vector-store layer (``repro.store``).

Covers every backend's contract in isolation: kernel/decode agreement,
batched waves, subsetting, byte accounting, serialisation round-trips,
and the actionable errors for unknown kinds/dtypes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.multivector import normalize_rows
from repro.store import (
    STORE_KINDS,
    DenseStore,
    HalfStore,
    PQStore,
    ScalarQuantStore,
    make_store,
    store_from_arrays,
)
from repro.utils.rng import make_rng

DIMS = (20, 9)
N = 300

#: worst-case |kernel − exact float32| inner-product error per backend on
#: unit-norm data; dense is bit-exact, the rest bound their quantisation.
SCORE_ATOL = {"none": 0.0, "float16": 2e-3, "int8": 0.05, "pq": 0.9}


def _matrices(seed: int = 3) -> list[np.ndarray]:
    rng = make_rng(seed)
    return [
        normalize_rows(rng.standard_normal((N, d)).astype(np.float32))
        for d in DIMS
    ]


def _query(seed: int = 11) -> np.ndarray:
    rng = make_rng(seed)
    v = rng.standard_normal(DIMS[0]).astype(np.float32)
    return v / np.linalg.norm(v)


@pytest.fixture(scope="module")
def mats():
    return _matrices()


@pytest.fixture(scope="module", params=sorted(STORE_KINDS))
def store(request, mats):
    return make_store(request.param, mats)


class TestStoreContract:
    def test_registry_covers_all_backends(self):
        assert STORE_KINDS == {
            "none": DenseStore,
            "float16": HalfStore,
            "int8": ScalarQuantStore,
            "pq": PQStore,
        }

    def test_shapes(self, store, mats):
        assert store.n == N
        assert store.dims == DIMS
        assert store.num_modalities == len(DIMS)

    def test_kernel_matches_exact_within_tolerance(self, store, mats):
        q = _query()
        scores = store.query_kernel(0, q).all()
        exact = mats[0] @ q
        assert scores.shape == (N,)
        np.testing.assert_allclose(
            scores, exact, atol=max(SCORE_ATOL[store.kind], 1e-12)
        )

    def test_kernel_ids_is_a_gather_of_all(self, store):
        q = _query()
        kernel = store.query_kernel(0, q)
        ids = np.asarray([0, 17, 5, N - 1, 17])
        np.testing.assert_allclose(
            kernel.ids(ids), kernel.all()[ids], rtol=1e-6, atol=1e-6
        )

    def test_kernel_agrees_with_decoded_matrix(self, store):
        """Asymmetric scoring must equal the inner product with the
        reconstruction — the ADC/affine identities, not an approximation
        of them."""
        q = _query()
        np.testing.assert_allclose(
            store.query_kernel(0, q).all(),
            store.modality(0) @ q,
            rtol=1e-4,
            atol=2e-5,
        )

    def test_batch_scores_matches_per_query_kernels(self, store):
        rng = make_rng(29)
        queries = normalize_rows(
            rng.standard_normal((5, DIMS[1])).astype(np.float32)
        )
        block = store.batch_scores(1, queries)
        assert block.shape == (N, 5)
        ref = np.stack(
            [store.query_kernel(1, q).all() for q in queries], axis=1
        )
        np.testing.assert_allclose(block, ref, rtol=1e-4, atol=1e-5)

    def test_subset_keeps_codes(self, store):
        ids = np.asarray([4, 99, 4, 250])
        sub = store.subset(ids)
        assert sub.n == 4 and sub.dims == DIMS
        q = _query()
        np.testing.assert_allclose(
            sub.query_kernel(0, q).all(),
            store.query_kernel(0, q).ids(ids),
            rtol=1e-6,
            atol=1e-6,
        )

    def test_exact_tier_present_by_default(self, store, mats):
        assert store.has_exact
        for i, mat in enumerate(mats):
            np.testing.assert_array_equal(store.exact_modality(i), mat)
        ids = np.asarray([1, 30])
        np.testing.assert_array_equal(store.exact_rows(0, ids), mats[0][ids])

    def test_roundtrip_through_arrays(self, store):
        rebuilt = store_from_arrays(store.store_meta(), store.to_arrays())
        assert rebuilt.kind == store.kind
        assert rebuilt.n == store.n and rebuilt.dims == store.dims
        q = _query()
        np.testing.assert_array_equal(
            rebuilt.query_kernel(0, q).all(), store.query_kernel(0, q).all()
        )
        assert rebuilt.has_exact == store.has_exact


class TestCompressionRatios:
    def test_hot_bytes_shrink(self, mats):
        dense = sum(m.nbytes for m in mats)
        assert make_store("none", mats).hot_bytes() == dense
        assert make_store("float16", mats).hot_bytes() * 2 == dense
        assert make_store("int8", mats).hot_bytes() * 3 < dense

    def test_pq_codebooks_amortise_with_scale(self):
        """PQ codes are d/pq_dims bytes per row; the fixed codebook cost
        fades once the corpus outgrows ~256 rows per subspace."""
        rng = make_rng(13)
        mat = normalize_rows(
            rng.standard_normal((4000, 24)).astype(np.float32)
        )
        pq = make_store("pq", [mat])
        assert pq.hot_bytes() * 3 < mat.nbytes

    def test_cold_tier_accounting(self, mats):
        dense = sum(m.nbytes for m in mats)
        with_cold = make_store("int8", mats)
        without = make_store("int8", mats, keep_exact=False)
        assert with_cold.cold_bytes() == dense
        assert without.cold_bytes() == 0
        assert not without.has_exact
        # Without a cold tier, the exact accessor degrades to decode.
        np.testing.assert_allclose(
            without.exact_modality(0), without.modality(0)
        )


class TestQuantisationQuality:
    def test_sq_reconstruction_error_bounded_by_step(self, mats):
        store = make_store("int8", mats)
        for i, mat in enumerate(mats):
            err = np.abs(store.modality(i) - mat)
            span = mat.max(axis=0) - mat.min(axis=0)
            assert np.all(err <= span / 255.0 * 0.5 + 1e-6)

    def test_sq_constant_column_is_exact(self):
        mat = np.ones((50, 4), dtype=np.float32)
        mat[:, 1] = -0.25
        store = make_store("int8", [mat])
        np.testing.assert_allclose(store.modality(0), mat, atol=1e-7)

    def test_pq_training_is_deterministic(self, mats):
        a = make_store("pq", mats, seed=5)
        b = make_store("pq", mats, seed=5)
        q = _query()
        np.testing.assert_array_equal(
            a.query_kernel(0, q).all(), b.query_kernel(0, q).all()
        )

    def test_pq_ragged_dims_are_padded(self):
        rng = make_rng(8)
        mat = normalize_rows(rng.standard_normal((80, 7)).astype(np.float32))
        store = make_store("pq", [mat], pq_dims=4)
        assert store.dims == (7,)
        q = rng.standard_normal(7).astype(np.float32)
        np.testing.assert_allclose(
            store.query_kernel(0, q).all(), store.modality(0) @ q,
            rtol=1e-4, atol=1e-5,
        )

    @pytest.mark.parametrize("pq_dims", [4, 3])
    def test_pq_single_gather_matches_subspace_loop(self, mats, pq_dims):
        """ADC scoring and decoding gather all sub-spaces at once; the
        bits must be those of the historical per-sub-space loops (kept
        here as the reference)."""
        store = make_store("pq", mats, pq_dims=pq_dims)
        codes, book = store._codes[0], store._books[0]
        m_sub, _, ds = book.shape
        kernel = store.query_kernel(0, _query())

        def loop_gather(rows):
            out = np.zeros(rows.shape[0], dtype=np.float32)
            for m in range(m_sub):
                out += kernel.lut[m, rows[:, m]]
            return out

        def loop_decode(rows):
            out = np.empty((rows.shape[0], m_sub * ds), dtype=np.float32)
            for m in range(m_sub):
                out[:, m * ds:(m + 1) * ds] = book[m][rows[:, m]]
            return out[:, : DIMS[0]]

        for ids in (np.arange(N), np.asarray([5]), np.asarray([7, 7, 250, 0])):
            np.testing.assert_array_equal(
                kernel.ids(ids), loop_gather(codes[ids])
            )
            np.testing.assert_array_equal(
                store.rows(0, ids), loop_decode(codes[ids])
            )
        np.testing.assert_array_equal(kernel.all(), loop_gather(codes))
        np.testing.assert_array_equal(store.modality(0), loop_decode(codes))
        assert kernel.ids(np.zeros(0, dtype=np.int64)).shape == (0,)

    def test_pq_small_corpus_caps_centroids(self):
        rng = make_rng(9)
        mat = normalize_rows(rng.standard_normal((20, 8)).astype(np.float32))
        store = make_store("pq", [mat])
        # 20 < 256 ⇒ one centroid per row is available: lossless codes.
        np.testing.assert_allclose(store.modality(0), mat, atol=1e-5)


class TestFormatValidation:
    def test_unknown_kind_is_actionable(self, mats):
        with pytest.raises(ValueError, match="only supports"):
            store_from_arrays({"kind": "opq", "dtype": "uint8"}, {})
        with pytest.raises(ValueError, match="unknown vector-store kind"):
            make_store("opq", mats)

    def test_dtype_mismatch_is_actionable(self, mats):
        store = make_store("int8", mats)
        meta = store.store_meta()
        meta["dtype"] = "uint16"
        with pytest.raises(ValueError, match="incompatible format"):
            store_from_arrays(meta, store.to_arrays())

    def test_unexpected_options_rejected(self, mats):
        for kind in STORE_KINDS:
            with pytest.raises(ValueError):
                make_store(kind, mats, bogus_option=1)
