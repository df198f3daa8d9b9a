"""Integration suite for the compressed vector-store layer.

The contracts under test, per ISSUE 3's acceptance criteria:

* ``compression="none"`` is **bit-identical** to the historical dense
  pipeline — graph and exact paths, single-query and batched.
* Every backend serves the full lifecycle: build → search →
  insert/delete → seal/compact → save → load, with stable results
  across the persistence round-trip.
* ``refine=`` (two-stage exact rerank) never lowers recall against the
  full-precision ground truth — the candidate set is unchanged and the
  final ranking is by true similarity, so this is deterministic, not
  statistical.
* The per-modality fallback (zero index weight + query-time override)
  stays bit-identical between the executor's batch and a lone query.
* The lazy ``JointSpace`` cache (the ω-scaled concatenation and its
  row-norm scalar) is released by ``drop_caches()`` and by a compaction.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framework import MUST
from repro.core.multivector import MultiVectorSet
from repro.core.query import Query, SearchOptions
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.flat import FlatIndex
from repro.index.segments import SegmentedIndex, SegmentPolicy
from repro.store import STORE_KINDS

from tests.conftest import random_multivector_set, random_query

N = 400
DIMS = (18, 8)
K = 10
L = 80
COMPRESSED = sorted(k for k in STORE_KINDS if k != "none")


@pytest.fixture(scope="module")
def objects():
    return random_multivector_set(N, DIMS, seed=21)


@pytest.fixture(scope="module")
def queries():
    return [random_query(DIMS, seed=100 + s) for s in range(10)]


@pytest.fixture(scope="module")
def dense_must(objects):
    return MUST(objects, weights=Weights([0.6, 0.4])).build()


@pytest.fixture(scope="module")
def ground_truth(dense_must, queries):
    return [dense_must.query(q, SearchOptions(k=K, exact=True)).ids for q in queries]


def _recall(ids, gt):
    return np.intersect1d(ids, gt).size / gt.size


class TestDenseBitIdentity:
    """``compression="none"`` must change nothing, to the last bit."""

    def test_graph_search_identical(self, objects, dense_must, queries):
        explicit = MUST(objects, weights=Weights([0.6, 0.4]),
                        compression="none").build()
        for q in queries:
            a = dense_must.query(q, SearchOptions(k=K, l=L))
            b = explicit.query(q, SearchOptions(k=K, l=L))
            assert np.array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.similarities, b.similarities)

    def test_exact_and_batch_identical(self, objects, dense_must, queries):
        explicit = MUST(objects, weights=Weights([0.6, 0.4]),
                        compression="none").build()
        for q in queries[:4]:
            a = dense_must.query(q, SearchOptions(k=K, exact=True))
            b = explicit.query(q, SearchOptions(k=K, exact=True))
            assert np.array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.similarities, b.similarities)
        ba = dense_must.query(queries, SearchOptions(k=K, l=L))
        bb = explicit.query(queries, SearchOptions(k=K, l=L))
        for ra, rb in zip(ba, bb):
            assert np.array_equal(ra.ids, rb.ids)
            np.testing.assert_array_equal(ra.similarities, rb.similarities)


@pytest.mark.parametrize("kind", COMPRESSED)
class TestCompressedSearch:
    def test_build_serves_from_compressed_store(self, objects, kind):
        must = MUST(objects, weights=Weights([0.6, 0.4]),
                    compression=kind).build()
        store = must.index.space.store
        assert store.kind == kind
        assert must.index.space.is_compressed
        # Hot tier shrinks; the exact corpus remains the cold tier.
        dense_bytes = sum(m.nbytes for m in objects.matrices)
        assert store.hot_bytes() < dense_bytes
        assert store.has_exact

    def test_exact_path_stays_full_precision(self, objects, dense_must,
                                             queries, kind):
        """``exact=True`` on a non-segmented instance is the MUST--
        reference: it scans the original float32 corpus, untouched by
        compression."""
        must = MUST(objects, weights=Weights([0.6, 0.4]),
                    compression=kind).build()
        for q in queries[:4]:
            a = dense_must.query(q, SearchOptions(k=K, exact=True))
            b = must.query(q, SearchOptions(k=K, exact=True))
            assert np.array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.similarities, b.similarities)

    def test_refine_never_lowers_recall(self, objects, queries,
                                        ground_truth, kind):
        """Deterministic monotonicity: with the same ``l`` the routing
        (hence the candidate set) is identical, and the exact rerank
        keeps every ground-truth member the candidates contain.  At
        ``refine=4`` that holds mean recall@10 >= 0.95 against the exact
        oracle on every backend."""
        must = MUST(objects, weights=Weights([0.6, 0.4]),
                    compression=kind).build()
        refine = 4
        assert L >= refine * K  # same routing for both calls
        refined_recall = []
        for q, gt in zip(queries, ground_truth):
            plain = must.query(q, SearchOptions(k=K, l=L))
            refined = must.query(q, SearchOptions(k=K, l=L, refine=refine))
            refined_recall.append(_recall(refined.ids, gt))
            assert refined_recall[-1] >= _recall(plain.ids, gt)
            assert refined.stats.reranked == refine * K
        assert np.mean(refined_recall) >= 0.95

    def test_refine_similarities_are_exact(self, objects, dense_must,
                                           queries, kind):
        """Reranked similarities come from the cold tier: any id the
        refined result shares with exact search carries (almost) the
        exact joint similarity, not the quantised one."""
        must = MUST(objects, weights=Weights([0.6, 0.4]),
                    compression=kind).build()
        q = queries[0]
        refined = must.query(q, SearchOptions(k=K, l=L, refine=4))
        exact = dense_must.query(q, SearchOptions(k=N, exact=True))
        lookup = dict(zip(exact.ids.tolist(), exact.similarities))
        for i, s in zip(refined.ids, refined.similarities):
            assert abs(s - lookup[int(i)]) < 1e-5

    def test_batch_matches_per_query_requests(self, objects, queries, kind):
        """The heap-engine batch over a compressed store (refine on) is
        the lone request, bit for bit."""
        must = MUST(objects, weights=Weights([0.6, 0.4]),
                    compression=kind).build()
        batch = must.query(
            queries, SearchOptions(k=K, l=L, refine=3, engine="heap")
        )
        for q, a in zip(queries, batch):
            b = must.query(q, SearchOptions(k=K, l=L, refine=3))
            assert np.array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.similarities, b.similarities)

    def test_flat_refine_recovers_exact_ranks(self, objects, dense_must,
                                              queries, kind):
        """A compressed flat scan + sufficient rerank equals exact
        search: the quantised scan only pre-ranks, the cold tier
        decides."""
        from repro.store import make_store

        store = make_store(kind, list(objects.matrices))
        flat = FlatIndex(
            JointSpace(MultiVectorSet.from_store(store), Weights([0.6, 0.4]))
        )
        for q in queries[:4]:
            ref = dense_must.query(q, SearchOptions(k=K, exact=True))
            res = flat.search(q, k=K, refine=N // K)  # rerank everything
            assert np.array_equal(res.ids, ref.ids)


@pytest.mark.parametrize("kind", COMPRESSED)
class TestCompressedLifecycle:
    def _streaming_must(self, objects, kind):
        must = MUST(
            objects,
            weights=Weights([0.6, 0.4]),
            compression=kind,
            segment_policy=SegmentPolicy(seal_size=48, max_segments=3),
        ).build()
        extra = random_multivector_set(120, DIMS, seed=77)
        ids = must.insert(extra)
        must.mark_deleted(ids[:17])
        # A second, small insert stays in the (always-dense) delta so
        # the lifecycle covers mixed compressed/dense segment layouts.
        must.insert(random_multivector_set(20, DIMS, seed=78))
        return must

    def test_insert_delete_compact(self, objects, queries, kind):
        must = self._streaming_must(objects, kind)
        before = must.query(queries[0], SearchOptions(k=K, l=L, refine=3))
        assert before.ids.size == K
        must.compact()
        seg = must.segments.sealed[0]
        assert seg.space.store.kind == kind
        # Compaction rebuilt from the exact cold tier: stored exact rows
        # equal the original float32 vectors for the surviving corpus rows.
        alive = seg.ext_ids[seg.ext_ids < N]
        np.testing.assert_array_equal(
            seg.space.vectors.exact_modality(0)[: alive.size],
            objects.matrices[0][alive],
        )
        after = must.query(queries[0], SearchOptions(k=K, l=L, refine=3))
        assert after.ids.size == K

    def test_save_load_roundtrip(self, objects, queries, kind, tmp_path):
        must = self._streaming_must(objects, kind)
        path = tmp_path / "idx"
        must.save_index(path)
        fresh = MUST(objects, weights=Weights([0.6, 0.4])).load_index(path)
        assert fresh.segments.compression == kind
        for seg in fresh.segments.searchable_segments():
            expected = kind if seg.kind == "sealed" else "none"
            assert seg.space.store.kind == expected
        for q in queries[:5]:
            a = must.query(q, SearchOptions(k=K, l=L, refine=3))
            b = fresh.query(q, SearchOptions(k=K, l=L, refine=3))
            assert np.array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.similarities, b.similarities)

    def test_single_graph_roundtrip(self, objects, queries, kind, tmp_path):
        must = MUST(objects, weights=Weights([0.6, 0.4]),
                    compression=kind).build()
        path = tmp_path / "graph.npz"
        must.save_index(path)
        fresh = MUST(objects).load_index(path)
        assert fresh.compression == kind
        assert fresh.index.space.store.kind == kind
        for q in queries[:5]:
            a = must.query(q, SearchOptions(k=K, l=L, refine=3))
            b = fresh.query(q, SearchOptions(k=K, l=L, refine=3))
            assert np.array_equal(a.ids, b.ids)


class TestZeroWeightFallbackUnderExecutor:
    """Scorer per-modality fallback (zero index weight + override that
    needs the zeroed modality): the batch must match the single-query
    route — graph and exact paths."""

    @pytest.fixture(scope="class")
    def zero_must(self, objects):
        return MUST(objects, weights=Weights([1.0, 0.0])).build()

    @pytest.fixture(scope="class")
    def override(self):
        return Weights([0.5, 0.5])

    def test_graph_parity(self, zero_must, queries, override):
        typed = [Query(q, weights=override) for q in queries]
        batch = zero_must.query(typed, SearchOptions(k=K, l=L, engine="heap"))
        singles = [zero_must.query(q, SearchOptions(k=K, l=L)) for q in typed]
        assert batch.stats.joint_evals == sum(
            r.stats.joint_evals for r in singles
        )
        for a, b in zip(batch, singles):
            assert np.array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.similarities, b.similarities)

    def test_exact_parity(self, zero_must, queries, override):
        typed = [Query(q, weights=override) for q in queries]
        exact = SearchOptions(k=K, exact=True)
        for a, q in zip(zero_must.query(typed, exact), typed):
            single = zero_must.query(q, exact)
            assert np.array_equal(a.ids, single.ids)
            np.testing.assert_allclose(
                a.similarities, single.similarities, rtol=1e-5, atol=1e-6
            )


class TestCacheGuards:
    """Satellite: the lazy concat cache is releasable."""

    def _space(self, n=64):
        objects = random_multivector_set(n, DIMS, seed=3)
        return JointSpace(objects, Weights([0.5, 0.5]))

    def test_drop_caches_releases_both(self):
        space = self._space()
        space.max_concat_norm
        assert space._concat is not None and space._concat_norm is not None
        space.drop_caches()
        assert space._concat is None and space._concat_norm is None

    def test_compact_drops_framework_caches(self):
        objects = random_multivector_set(120, DIMS, seed=31)
        must = MUST(objects, weights=Weights([0.5, 0.5])).build()
        must.index.mark_deleted(np.arange(10))
        must.space.concatenated
        assert must.space._concat is not None
        must.compact()
        assert must.space._concat is None


class TestManifestFormat:
    """Satellite: explicit format/version validation on load."""

    def _saved(self, objects, tmp_path, compression="none"):
        must = MUST(
            objects,
            weights=Weights([0.6, 0.4]),
            compression=compression,
            segment_policy=SegmentPolicy(seal_size=48),
        ).build()
        must.insert(random_multivector_set(60, DIMS, seed=55))
        path = tmp_path / "idx"
        must.save_index(path)
        return path

    def test_manifest_declares_version_and_stores(self, objects, tmp_path):
        import json

        path = self._saved(objects, tmp_path, compression="int8")
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["format"] == "must-segments-v5"
        assert manifest["format_version"] == 5
        assert manifest["compression"] == "int8"

    def test_unknown_format_raises_actionable_error(self, objects, tmp_path):
        import json

        path = self._saved(objects, tmp_path)
        mf = path / "manifest.json"
        manifest = json.loads(mf.read_text())
        manifest["format"] = "must-segments-v99"
        manifest["format_version"] = 99
        mf.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="newer library version"):
            SegmentedIndex.load(path)

    def test_v1_manifest_still_loads(self, objects, tmp_path):
        """Archives written before the store layer carry the v1 format
        string and no store metadata — they load as dense float32."""
        import json

        path = self._saved(objects, tmp_path)
        mf = path / "manifest.json"
        manifest = json.loads(mf.read_text())
        manifest["format"] = "must-segments-v1"
        for key in ("format_version", "compression", "store_options"):
            manifest.pop(key)
        mf.write_text(json.dumps(manifest))
        loaded = SegmentedIndex.load(path)
        assert loaded.compression == "none"
        assert all(
            not seg.space.is_compressed
            for seg in loaded.searchable_segments()
        )

    def test_single_graph_roundtrip_preserves_store_options(
        self, objects, tmp_path
    ):
        """Reload must re-derive the *same* serving store: kind AND codec
        options (a retrain with defaults would silently serve different
        codes than the index was benchmarked with)."""
        opts = {"pq_dims": 8, "seed": 3, "keep_exact": False}
        must = MUST(objects, weights=Weights([0.6, 0.4]),
                    compression="pq", store_options=opts).build()
        path = tmp_path / "graph.npz"
        must.save_index(path)
        fresh = MUST(objects).load_index(path)
        assert fresh.store_options == opts
        a, b = fresh.index.space.store, must.index.space.store
        assert a.hot_bytes() == b.hot_bytes()
        assert a.cold_bytes() == b.cold_bytes() == 0
        q = random_query(DIMS, seed=4).vectors[0]
        np.testing.assert_array_equal(
            a.query_kernel(0, q).all(), b.query_kernel(0, q).all()
        )

    def test_unknown_store_kind_raises_actionable_error(self, objects):
        mats = [m[:10] for m in objects.matrices]
        from repro.index.segments import SegmentedIndex as SI

        with pytest.raises(ValueError, match="only supports"):
            SI._load_vectors(
                {"store": {"kind": "rotational-pq", "dtype": "uint8"},
                 "num_modalities": 2},
                {f"mod_{i}": m for i, m in enumerate(mats)},
            )
