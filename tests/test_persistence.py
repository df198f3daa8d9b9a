"""Save/load round-trip coverage: legacy single-graph archives and the
segmented manifest, plus the single-read regression for stored weights."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.core.framework as framework_mod
from repro.core.framework import MUST
from repro.core.query import SearchOptions
from repro.core.weights import Weights
from repro.index.pipeline import FusedIndexBuilder
from repro.index.segments import MANIFEST_NAME, SegmentPolicy
from repro.utils.io import load_arrays, save_arrays

from tests.conftest import random_multivector_set, random_query

DIMS = (8, 6)


def _built_must(seed: int = 1, n: int = 120, weights=None) -> MUST:
    must = MUST(
        random_multivector_set(n, DIMS, seed=seed),
        weights=weights or Weights([0.4, 0.6]),
        builder=FusedIndexBuilder(gamma=8, seed=2),
        segment_policy=SegmentPolicy(seal_size=16, max_segments=4),
    )
    return must.build()


def _extra(n: int, seed: int):
    from repro.core.multivector import MultiVectorSet, normalize_rows

    rng = np.random.default_rng(seed)
    return MultiVectorSet(
        [normalize_rows(rng.standard_normal((n, d)).astype(np.float32))
         for d in DIMS]
    )


class TestLegacyRoundtrip:
    def test_graph_and_weights_survive(self, tmp_path):
        must = _built_must()
        must.mark_deleted(np.array([3, 4, 5]))
        path = tmp_path / "index.npz"
        must.save_index(path)

        fresh = MUST(must.objects, weights=Weights([0.5, 0.5]))
        fresh.load_index(path)
        assert fresh.weights == must.weights  # stored weights win
        assert fresh.index.num_active == must.index.num_active
        q = random_query(DIMS, seed=9)
        a = must.query(q, SearchOptions(k=10, l=60))
        b = fresh.query(q, SearchOptions(k=10, l=60))
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.similarities, b.similarities)

    def test_load_reads_archive_exactly_once(self, tmp_path, monkeypatch):
        """Regression: stored weights used to trigger a second
        ``GraphIndex.load`` (and hence a second disk read) to rebind the
        refreshed space; the archive must now be opened exactly once."""
        must = _built_must(weights=Weights([0.3, 0.7]))
        path = tmp_path / "index.npz"
        must.save_index(path)

        opens = {"count": 0}

        def counting_load(p):
            opens["count"] += 1
            return load_arrays(p)

        monkeypatch.setattr(framework_mod, "load_arrays", counting_load)
        # Different current weights → the stored ones must be installed,
        # historically the path that double-read the file.
        fresh = MUST(must.objects, weights=Weights([0.5, 0.5]))
        fresh.load_index(path)
        assert opens["count"] == 1
        assert fresh.weights == Weights([0.3, 0.7])
        # The rebind is real: the loaded graph scores under stored weights.
        q = random_query(DIMS, seed=4)
        a = must.query(q, SearchOptions(k=5, l=50))
        b = fresh.query(q, SearchOptions(k=5, l=50))
        np.testing.assert_array_equal(a.ids, b.ids)


class TestSegmentedRoundtrip:
    def _streamed(self) -> MUST:
        must = _built_must(n=60)
        must.insert(_extra(20, seed=5))   # seals (seal_size=16)
        must.insert(_extra(7, seed=6))    # stays in the delta
        must.mark_deleted(np.array([2, 61, 82]))  # sealed + delta rows
        return must

    def test_full_state_survives(self, tmp_path):
        must = self._streamed()
        path = tmp_path / "segidx"
        must.save_index(path)

        fresh = MUST(must.objects, weights=Weights([0.5, 0.5]))
        fresh.load_index(path)
        assert fresh.is_segmented
        assert fresh.weights == must.weights
        before, after = must.segments.describe(), fresh.segments.describe()
        assert before == after
        np.testing.assert_array_equal(
            fresh.segments.active_ext_ids(), must.segments.active_ext_ids()
        )
        for seed in range(5):
            q = random_query(DIMS, seed=seed)
            exact = SearchOptions(k=10, exact=True)
            a, b = must.query(q, exact), fresh.query(q, exact)
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.similarities, b.similarities)
            g1 = must.query(q, SearchOptions(k=10, l=60))
            g2 = fresh.query(q, SearchOptions(k=10, l=60))
            np.testing.assert_array_equal(g1.ids, g2.ids)
            np.testing.assert_array_equal(g1.similarities, g2.similarities)

    def test_deletion_bitsets_survive(self, tmp_path):
        must = self._streamed()
        path = tmp_path / "segidx"
        must.save_index(path)
        fresh = MUST(must.objects).load_index(path)
        doomed = {2, 61, 82}
        for seed in range(4):
            res = fresh.query(random_query(DIMS, seed=seed), SearchOptions(k=20, l=87))
            assert not (set(res.ids.tolist()) & doomed)

    def test_streaming_resumes_after_load(self, tmp_path):
        must = self._streamed()
        path = tmp_path / "segidx"
        must.save_index(path)
        fresh = MUST(must.objects).load_index(path)
        # The id allocator survives: new ids continue after the old ones.
        ext = fresh.insert(_extra(3, seed=7))
        np.testing.assert_array_equal(ext, np.arange(87, 90))
        # And the reloaded delta accepts the inserts (searchable).
        res = fresh.query(random_query(DIMS, seed=1), SearchOptions(k=10, l=60))
        assert len(res) == 10

    @pytest.mark.parametrize("fmt", ["must-segments-v2", "must-segments-v4"])
    def test_saves_that_hold_a_delta_graph_still_open(self, fmt, tmp_path):
        """Formats v1-v4 kept an HNSW graph over the delta: its builder
        options and level seed in the manifest, its layers in the delta
        archive's metadata, its base layer as that archive's adjacency.
        A reader that takes only rows, ids and bitset resumes the same
        index."""
        must, never_saved = self._streamed(), self._streamed()
        path = tmp_path / "segidx"
        must.save_index(path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest.update(
            format=fmt,
            format_version=int(fmt[-1]),
            seed=0,
            hnsw={"m": 8, "ef_construction": 48, "seed": 0, "name": "delta"},
        )
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        entry = manifest["segments"][-1]
        assert entry["kind"] == "delta" and entry["n"] == 7
        ring = [(v + 1) % 7 for v in range(7)]
        metadata, arrays = load_arrays(path / entry["file"])
        metadata["hnsw_state"] = {
            "entry_point": 3,
            "levels": {str(v): 0 for v in range(7)},
            "layers": [{str(v): [u] for v, u in enumerate(ring)}],
        }
        arrays["flat"] = np.asarray(ring, dtype=np.int32)
        arrays["offsets"] = np.arange(8, dtype=np.int64)
        save_arrays(path / entry["file"], metadata=metadata, **arrays)

        fresh = MUST(must.objects, builder=must.builder).load_index(path)
        for side in (fresh, never_saved):
            side.insert(_extra(4, seed=7))    # 11 rows: still the delta
        self._assert_same_answers(fresh, never_saved)
        for side in (fresh, never_saved):
            side.insert(_extra(8, seed=8))    # 19 rows: seals
        assert fresh.segments.describe() == never_saved.segments.describe()
        self._assert_same_answers(fresh, never_saved)

    @staticmethod
    def _assert_same_answers(got: MUST, ref: MUST) -> None:
        queries = [random_query(DIMS, seed=s) for s in range(5)]
        for opts in (
            SearchOptions(k=10, l=60, engine="heap"),
            SearchOptions(k=10, l=60, engine="wave"),
            SearchOptions(k=10, exact=True),
        ):
            for a, b in zip(got.query(queries, opts), ref.query(queries, opts)):
                np.testing.assert_array_equal(a.ids, b.ids)
                np.testing.assert_array_equal(a.similarities, b.similarities)

    def test_missing_segment_file_fails_clearly(self, tmp_path):
        must = self._streamed()
        path = tmp_path / "segidx"
        must.save_index(path)
        victim = sorted(path.glob("segment_*.npz"))[0]
        victim.unlink()
        fresh = MUST(must.objects)
        with pytest.raises(FileNotFoundError, match=victim.name):
            fresh.load_index(path)

    def test_directory_without_manifest_fails_clearly(self, tmp_path):
        empty = tmp_path / "not_an_index"
        empty.mkdir()
        with pytest.raises(FileNotFoundError, match="manifest"):
            MUST(random_multivector_set(10, DIMS, seed=0)).load_index(empty)
