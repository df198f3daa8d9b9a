"""Memory-mapped cold tier: bit-parity, accounting, persistence, corruption.

The mmap contract is **bitwise**: for every compression backend, layout
(flat or segmented), job count, and serving tier, an index whose cold
exact tier lives in memory-mapped sidecar ``.npy`` files must answer
exact scans and refine reranks identically — ids *and* similarities —
to the same index with the cold tier resident.  Moving the cold tier
out of RAM may change resident bytes and wall clock, never a result.

Also covered here: ``memory_stats`` hot/cold/resident accounting, the
manifest round-trip of mapped and resident saves, corpus-free serving via :meth:`MUST.from_saved`,
actionable errors for truncated/missing cold files and corrupt segment
archives and load atomicity.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.framework import MUST
from repro.core.multivector import MultiVector, MultiVectorSet
from repro.core.query import Eq, Query, SearchOptions
from repro.core.weights import Weights
from repro.index.pipeline import FusedIndexBuilder
from repro.index.segments import MANIFEST_NAME, SegmentPolicy, live_rows
from repro.sparse.store import sum_stats
from repro.sparse.synthetic import synthetic_hybrid
from repro.store import GatherPlane, MmapPlane, ResidentPlane, spill_cold
from repro.store.base import make_store

from tests.conftest import random_multivector_set, random_query
from tests.test_hybrid import SHAPE as HYBRID_SHAPE, churn_chunk

DIMS = (16, 8)
WEIGHTS = Weights([0.4, 0.6])
CATEGORIES = np.array(["alpha", "beta", "gamma"])

#: cheap graph build — the exact/refine paths under test never walk the
#: graph beyond candidate generation, and mmap pairs build twice.
CHEAP_BUILDER = FusedIndexBuilder(gamma=8, epsilon=1, max_candidates=16)

COMPRESSIONS = ["int8", "pq"]


def _attributed_set(n: int, seed: int) -> MultiVectorSet:
    objects = random_multivector_set(n, DIMS, seed=seed)
    rng = np.random.default_rng(seed + 500)
    return objects.set_attributes(
        {
            "category": CATEGORIES[rng.integers(0, 3, n)],
            "price": rng.uniform(0.0, 100.0, n),
        }
    )


def _build_must(
    cold_storage: str,
    data_dir,
    compression: str,
    segmented: bool,
) -> MUST:
    """One built instance; segmented adds streamed rows and deletes."""
    store_options = {"pq_dims": 4} if compression == "pq" else {}
    kwargs = dict(
        weights=WEIGHTS,
        builder=CHEAP_BUILDER,
        compression=compression,
        store_options=store_options,
        cold_storage=cold_storage,
        data_dir=data_dir,
    )
    if segmented:
        kwargs["segment_policy"] = SegmentPolicy(
            seal_size=64, max_segments=8, max_deleted_fraction=0.9
        )
    must = MUST(_attributed_set(220, 3), **kwargs).build()
    if segmented:
        must.insert(_attributed_set(70, 9))
        must.mark_deleted(np.arange(0, 40, 7))
    return must


@pytest.fixture(scope="module")
def pair_of(tmp_path_factory):
    """Lazily built (resident, mmap) pairs keyed by (compression, seg)."""
    cache: dict = {}

    def get(compression: str, segmented: bool):
        key = (compression, segmented)
        if key not in cache:
            tag = f"{compression}_{'seg' if segmented else 'flat'}"
            data_dir = tmp_path_factory.mktemp(f"cold_{tag}")
            cache[key] = (
                _build_must("resident", None, compression, segmented),
                _build_must("mmap", data_dir, compression, segmented),
            )
        return cache[key]

    return get


@pytest.fixture(scope="module")
def queries():
    out = []
    for seed in range(10):
        vector = random_query(DIMS, seed=seed)
        if seed % 3 == 0:
            out.append(Query(vector, filter=Eq("category", "alpha")))
        elif seed % 3 == 1:
            out.append(Query(vector, k=4))
        else:
            out.append(Query(vector))
    return out


def assert_same_result(res, ref):
    assert np.array_equal(res.ids, ref.ids)
    assert np.array_equal(res.similarities, ref.similarities)


# ----------------------------------------------------------------------
# Bit-parity: mmap vs resident
# ----------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("segmented", [False, True])
    @pytest.mark.parametrize("compression", COMPRESSIONS)
    def test_query_parity(self, pair_of, queries, compression, segmented):
        """Exact scans and refine reranks are bit-identical."""
        resident, mapped = pair_of(compression, segmented)
        for plan in (
            SearchOptions(k=10, exact=True),
            SearchOptions(k=10, exact=True, refine=24),
            SearchOptions(k=10, l=64, refine=24),
        ):
            for query in queries:
                assert_same_result(
                    mapped.query(query, plan), resident.query(query, plan)
                )

    @pytest.mark.parametrize("max_batch", [1, 4])
    def test_service_parity(self, pair_of, queries, max_batch):
        """MustService answers match between mmap and resident, served
        one request per wave or coalesced four at a time."""
        resident, mapped = pair_of("pq", True)
        plan = SearchOptions(k=10, exact=True, refine=24)
        svc_res = resident.serve(max_batch=max_batch, max_wait_ms=5.0)
        svc_map = mapped.serve(max_batch=max_batch, max_wait_ms=5.0)
        try:
            got = [svc_map.submit(query, plan) for query in queries]
            ref = [svc_res.submit(query, plan) for query in queries]
            for a, b in zip(got, ref):
                assert_same_result(a.result(60), b.result(60))
        finally:
            svc_res.close()
            svc_map.close()

    def test_flat_service_parity(self, pair_of, queries):
        """A non-segmented mmap template serves bit-identically too."""
        resident, mapped = pair_of("pq", False)
        plan = SearchOptions(k=10, exact=True, refine=24)
        with resident.serve() as svc_res, mapped.serve() as svc_map:
            for query in queries:
                assert_same_result(
                    svc_map.search(query, plan), svc_res.search(query, plan)
                )

    def test_live_rows_keeps_tombstones_in_bm25_stats(self, tmp_path):
        """Tombstoned rows still count in the document frequencies of
        the merged sparse plane: the one live-row walk (``live_rows``)
        stamps each plane's statistics before it drops them, for an
        mmap index as for a resident one.  The two answer hybrid
        queries bit for bit before and after the compaction that walk
        feeds, which then restamps over the survivors."""
        dataset = synthetic_hybrid(num_queries=10, seed=3, **HYBRID_SHAPE)
        chunk = churn_chunk(seed=90)
        stored = sum_stats(
            [dataset.sparse.local_stats(), chunk.sparse.local_stats()]
        )
        pair = []
        for cold_storage, data_dir in (("resident", None), ("mmap", tmp_path)):
            must = MUST(
                MultiVectorSet([dataset.dense.copy()], sparse=dataset.sparse),
                weights=Weights([1.0]),
                builder=CHEAP_BUILDER,
                segment_policy=SegmentPolicy(
                    seal_size=32, max_segments=8, max_deleted_fraction=0.9
                ),
                compression="int8",
                cold_storage=cold_storage,
                data_dir=data_dir,
            ).build()
            must.insert(chunk)
            must.mark_deleted(np.arange(0, 60, 3))
            live = live_rows(must.segments.searchable_segments())
            assert live.ext_ids.size == must.segments.num_active
            stamped = live.sparse.stats
            assert stamped.n_docs == stored.n_docs == must.segments.num_total
            assert stamped.total_len == stored.total_len
            assert np.array_equal(stamped.doc_freq, stored.doc_freq)
            pair.append(must)
        resident, mapped = pair
        queries = [
            Query(
                MultiVector.from_arrays([dataset.query_dense[i]]),
                sparse=dataset.query_sparse[i],
                sparse_weight=0.8,
            )
            for i in range(dataset.num_queries)
        ]

        def check():
            for plan in (
                SearchOptions(k=10, exact=True), SearchOptions(k=10, l=60)
            ):
                for query in queries:
                    assert_same_result(
                        mapped.query(query, plan), resident.query(query, plan)
                    )

        check()
        for must in pair:
            must.compact()
            (seg,) = must.segments.sealed
            assert seg.space.vectors.sparse.stats.n_docs == seg.n
        check()

    def test_compaction_preserves_parity(self, tmp_path, queries):
        """Streaming (segment-at-a-time) compaction equals the resident
        gather-everything compaction bit for bit."""
        resident = _build_must("resident", None, "pq", True)
        mapped = _build_must("mmap", tmp_path, "pq", True)
        resident.compact()
        mapped.compact()
        plan = SearchOptions(k=10, exact=True, refine=24)
        for query in queries:
            assert_same_result(
                mapped.query(query, plan), resident.query(query, plan)
            )

    @pytest.mark.parametrize("segmented", [False, True])
    def test_compaction_retires_replaced_sidecars(
        self, tmp_path, queries, segmented
    ):
        """After ``compact()`` the data directory holds exactly the live
        index's sidecar files — a single graph's too, whose compaction
        builds a fresh instance — while the replaced state (the old
        instance, or a snapshot taken before) still answers bit for bit
        from its mappings, even on its first cold read after the unlink."""
        twin, must = (
            _build_must("mmap", tmp_path / name, "pq", segmented)
            for name in ("twin", "live")
        )
        plan = SearchOptions(k=10, l=64, refine=24)
        if segmented:
            old = must.snapshot()
            must.compact()
            indexes = [seg.index for seg in must.segments.sealed]
        else:
            for m in (twin, must):
                m.mark_deleted(np.arange(0, 40, 7))
            old = must
            indexes = [must.compact()[0].index]
        live = {p for i in indexes for p in i.space.store.cold_plane.paths}
        assert set((tmp_path / "live").glob("*.npy")) == live
        for query in queries:
            assert_same_result(old.query(query, plan), twin.query(query, plan))


# ----------------------------------------------------------------------
# Memory accounting
# ----------------------------------------------------------------------
class TestAccounting:
    def test_resident_bytes_split_by_tier(self, pair_of):
        resident, mapped = pair_of("pq", True)
        stats_res = resident.memory_stats()
        stats_map = mapped.memory_stats()
        # Same logical corpus, same hot codes — only residency differs.
        assert stats_map["hot_bytes"] == stats_res["hot_bytes"]
        assert stats_map["cold_bytes"] == stats_res["cold_bytes"]
        assert (
            stats_res["resident_bytes"]
            == stats_res["hot_bytes"] + stats_res["cold_bytes"]
        )
        assert stats_map["resident_bytes"] < stats_res["resident_bytes"]

    def test_mmap_cold_tier_is_fully_nonresident(self, pair_of):
        """Every mapped cold byte leaves RAM: resident == hot exactly.
        (The corpus-scale reduction is ``perfbench``'s
        ``hybrid_compressed`` ``resident_bytes_per_obj``, where codebook
        overhead amortises; at test scale it dominates.)"""
        _, mapped = pair_of("pq", True)
        stats = mapped.memory_stats()
        assert stats["cold_bytes"] > 0
        assert stats["resident_bytes"] == stats["hot_bytes"]


# ----------------------------------------------------------------------
# Persistence: v3 manifests, v2 migration, corpus-free serving
# ----------------------------------------------------------------------
class TestPersistence:
    def test_mmap_save_writes_v3_and_roundtrips(
        self, pair_of, queries, tmp_path
    ):
        resident, mapped = pair_of("pq", True)
        out = tmp_path / "saved_v3"
        mapped.save_index(out)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["format"] == "must-segments-v5"
        assert manifest["format_version"] == 5
        assert manifest["cold_storage"] == "mmap"
        mapped_entries = [
            e for e in manifest["segments"] if e.get("storage") == "mmap"
        ]
        assert mapped_entries, "no segment recorded mmap storage"
        for entry in mapped_entries:
            for name in entry["cold_files"]:
                assert (out / name).exists()
        loaded = MUST.from_saved(out)
        plan = SearchOptions(k=10, exact=True, refine=24)
        for query in queries:
            assert_same_result(
                loaded.query(query, plan), resident.query(query, plan)
            )
        # The reload serves from the saved cold files, not from RAM.
        stats = loaded.memory_stats()
        assert stats["resident_bytes"] < stats["hot_bytes"] + stats["cold_bytes"]

    def test_resident_save_stays_v2_and_migrates(
        self, pair_of, queries, tmp_path
    ):
        """A resident save records no cold-storage mode and loads
        back resident, bit-identically."""
        resident, _ = pair_of("pq", True)
        out = tmp_path / "saved_v2"
        resident.save_index(out)
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        assert manifest["format"] == "must-segments-v5"
        assert manifest["format_version"] == 5
        assert "cold_storage" not in manifest
        loaded = MUST.from_saved(out)
        assert loaded.cold_storage == "resident"
        plan = SearchOptions(k=10, exact=True, refine=24)
        for query in queries:
            assert_same_result(
                loaded.query(query, plan), resident.query(query, plan)
            )

    def test_from_saved_needs_no_corpus(self, pair_of, tmp_path):
        _, mapped = pair_of("pq", True)
        out = tmp_path / "serving_copy"
        mapped.save_index(out)
        loaded = MUST.from_saved(out)
        # Corpus-bound stages are refused with a pointed error …
        with pytest.raises(ValueError, match="single-graph archives|corpus"):
            MUST.from_saved(tmp_path / "definitely_missing")
        # … but writes and reads work on the placeholder-corpus instance.
        ids = loaded.insert(_attributed_set(5, 77))
        assert ids.size == 5
        result = loaded.query(
            random_query(DIMS, seed=2), SearchOptions(k=5, exact=True)
        )
        assert result.ids.size == 5


# ----------------------------------------------------------------------
# Corruption and atomicity
# ----------------------------------------------------------------------
class TestCorruption:
    @pytest.fixture()
    def saved(self, tmp_path):
        must = _build_must("mmap", tmp_path / "cold", "pq", True)
        out = tmp_path / "saved"
        must.save_index(out)
        return out

    def _one_cold_file(self, saved):
        files = sorted(saved.glob("*.cold_0.npy"))
        assert files
        return files[0]

    def test_truncated_cold_file_fails_loudly(self, saved):
        victim = self._one_cold_file(saved)
        data = victim.read_bytes()
        victim.write_bytes(data[:-64])
        with pytest.raises(ValueError, match="truncated"):
            MUST.from_saved(saved)

    def test_missing_cold_file_fails_loudly(self, saved):
        victim = self._one_cold_file(saved)
        victim.unlink()
        with pytest.raises(FileNotFoundError, match=victim.name):
            MUST.from_saved(saved)

    def test_corrupt_segment_archive_fails_loudly(self, saved):
        victim = sorted(saved.glob("segment_*.npz"))[0]
        victim.write_bytes(b"this is not a zip archive")
        with pytest.raises(ValueError, match="corrupt or truncated"):
            MUST.from_saved(saved)

    def test_failed_load_leaves_instance_unchanged(self, saved, queries):
        """load_index is atomic: a corrupt save raises and the instance
        keeps serving its previous index, bit-identically."""
        must = _build_must("resident", None, "pq", True)
        plan = SearchOptions(k=10, exact=True, refine=24)
        before = [must.query(q, plan) for q in queries]
        segments_before = must._segments
        victim = self._one_cold_file(saved)
        victim.write_bytes(victim.read_bytes()[:-64])
        with pytest.raises(ValueError):
            must.load_index(saved)
        assert must._segments is segments_before
        for query, ref in zip(queries, before):
            assert_same_result(must.query(query, plan), ref)


# ----------------------------------------------------------------------
# Plane primitives
# ----------------------------------------------------------------------
class TestPlanes:
    def _store(self, n=50, seed=0):
        rng = np.random.default_rng(seed)
        mats = [rng.standard_normal((n, d)).astype(np.float32) for d in DIMS]
        return make_store("pq", mats, pq_dims=4), mats

    def test_spill_cold_is_bitwise(self, tmp_path):
        store, mats = self._store()
        spilled = spill_cold(store, tmp_path, "seg_000000")
        plane = spilled.cold_plane
        assert isinstance(plane, MmapPlane)
        assert plane.resident_bytes() == 0
        idx = np.array([3, 3, 0, 49, 17])
        for i, mat in enumerate(mats):
            assert np.array_equal(np.asarray(plane.modality(i)), mat)
            assert np.array_equal(plane.rows(i, idx), mat[idx])

    def test_gather_plane_routes_rows(self, tmp_path):
        store, mats = self._store()
        mapped = spill_cold(store, tmp_path, "seg_000000").cold_plane
        rng = np.random.default_rng(1)
        tail = [
            rng.standard_normal((7, d)).astype(np.float32) for d in DIMS
        ]
        src = np.array([0, 1, 0, 1, 0], dtype=np.int64)
        row = np.array([10, 2, 0, 6, 49], dtype=np.int64)
        plane = GatherPlane([mapped, ResidentPlane(tail)], src, row)
        for i in range(len(DIMS)):
            got = plane.modality(i)
            for j in range(src.size):
                source = mats[i] if src[j] == 0 else tail[i]
                assert np.array_equal(got[j], source[row[j]])
        assert plane.nbytes() == 5 * 4 * sum(DIMS)

    @pytest.mark.skipif(
        not hasattr(os, "posix_fadvise"), reason="no posix_fadvise here"
    )
    def test_willneed_advice_coalesces_runs(self, tmp_path, monkeypatch):
        """A scattered gather advises one range per run of rows at most
        ``_ADVISE_GAP`` apart — duplicates, a gap of exactly the limit
        and lone rows included — pinned as (offset, length) pairs."""
        store, _ = self._store(n=400)
        plane = spill_cold(store, tmp_path, "seg_000000").cold_plane
        calls = []
        monkeypatch.setattr(
            os, "posix_fadvise",
            lambda fd, offset, length, advice: calls.append(
                (offset, length, advice)
            ),
        )
        plane.rows(0, np.array([300, 5, 0, 70, 5, 140, 71, 399, 204]))
        base, row = plane._offsets[0], 4 * DIMS[0]
        runs = [(0, 5), (70, 71), (140, 204), (300, 300), (399, 399)]
        assert calls == [
            (base + a * row, (b - a + 1) * row, os.POSIX_FADV_WILLNEED)
            for a, b in runs
        ]

    def test_mmap_plane_validates_eagerly(self, tmp_path):
        store, _ = self._store()
        plane = spill_cold(store, tmp_path, "seg_000000").cold_plane
        path = plane.paths[0]
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated"):
            MmapPlane(plane.paths)
        path.unlink()
        with pytest.raises(FileNotFoundError):
            MmapPlane(plane.paths)
