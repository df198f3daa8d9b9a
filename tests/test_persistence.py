"""Save/load round-trip coverage: single-graph and segmented saves (one
``must-segments-v5`` directory shape for both), the single-read
regression for stored weights, the refusal of what earlier versions
wrote, and manifests replaced whole — a re-save that fails before its
manifest lands leaves the old state loadable."""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import repro.index.segments as segments_mod
from repro.core.framework import MUST
from repro.core.query import SearchOptions
from repro.core.weights import Weights
from repro.index.pipeline import FusedIndexBuilder
from repro.index.segments import MANIFEST_NAME, SegmentPolicy
from repro.service.collections import CollectionManager
from repro.utils.io import load_arrays, pack_adjacency, replace_text, save_arrays

from tests.conftest import random_multivector_set, random_query

DIMS = (8, 6)
#: the instruction every save an earlier version wrote is refused with.
REBUILD = "rebuild the index from its corpus and call MUST.save_index again"


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
        path = tmp_path / "index"
        must.save_index(path)

        fresh = MUST(must.objects, weights=Weights([0.5, 0.5]))
        fresh.load_index(path)
        assert not fresh.is_segmented  # a single graph stays one
        assert fresh.weights == must.weights  # stored weights win
        assert fresh.index.num_active == must.index.num_active
        q = random_query(DIMS, seed=9)
        a = must.query(q, SearchOptions(k=10, l=60))
        b = fresh.query(q, SearchOptions(k=10, l=60))
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.similarities, b.similarities)

    def test_load_reads_archive_exactly_once(self, tmp_path, monkeypatch):
        """Regression: stored weights used to trigger a second graph
        load (and hence a second disk read) to rebind the refreshed
        space; each archive must now be opened exactly once."""
        must = _built_must(weights=Weights([0.3, 0.7]))
        path = tmp_path / "index"
        must.save_index(path)

        opens = {"count": 0}

        def counting_load(p):
            opens["count"] += 1
            return load_arrays(p)

        monkeypatch.setattr(segments_mod, "load_arrays", counting_load)
        # Different current weights → the stored ones must be installed,
        # historically the path that double-read the file.
        fresh = MUST(must.objects, weights=Weights([0.5, 0.5]))
        fresh.load_index(path)
        assert opens["count"] == len(list(path.glob("segment_*.npz"))) == 1
        assert fresh.weights == Weights([0.3, 0.7])
        # The rebind is real: the loaded graph scores under stored weights.
        q = random_query(DIMS, seed=4)
        a = must.query(q, SearchOptions(k=5, l=50))
        b = fresh.query(q, SearchOptions(k=5, l=50))
        np.testing.assert_array_equal(a.ids, b.ids)


    def test_from_saved_serves_a_single_graph_save(self, tmp_path):
        """Without the corpus a single-graph save is a one-segment index
        that answers as the live instance does, on graph and exact plans."""
        must = _built_must()
        must.mark_deleted(np.array([3, 4, 5]))
        must.save_index(tmp_path / "index")
        served = MUST.from_saved(tmp_path / "index")
        assert len(served.segments.sealed) == 1 and not served.segments.delta.n
        queries = [random_query(DIMS, seed=s) for s in range(6)]
        # l < n / 2, so the one segment is traversed, not scanned.
        for opts in (SearchOptions(k=10, l=40), SearchOptions(k=10, exact=True)):
            for a, b in zip(must.query(queries, opts), served.query(queries, opts)):
                np.testing.assert_array_equal(a.ids, b.ids)
                np.testing.assert_array_equal(a.similarities, b.similarities)
        assert served.query(queries, SearchOptions(k=10, l=40)).stats.hops > 0

    def test_an_earlier_single_graph_archive_is_refused(self, tmp_path):
        """The graph-only ``.npz`` earlier versions wrote for a single
        graph holds no vectors; it is refused with rebuild instructions
        and the instance keeps serving what it had."""
        must = _built_must()
        flat, offsets = pack_adjacency(must.index.neighbors)
        path = tmp_path / "index.npz"
        save_arrays(
            path,
            metadata={
                "name": must.index.name,
                "seed_vertex": must.index.seed_vertex,
                "build_seconds": 0.0,
                "meta": {"squared_weights": [0.4, 0.6], "compression": "none"},
            },
            flat=flat,
            offsets=offsets,
        )
        before = must.index
        for load in (must.load_index, MUST.from_saved):
            with pytest.raises(ValueError, match=REBUILD) as info:
                load(path)
            assert "a single-graph .npz archive" in str(info.value)
        assert must.index is before and not must.is_segmented

    def test_a_corpus_of_another_shape_is_refused(self, tmp_path):
        must = _built_must(n=120)
        must.save_index(tmp_path / "index")
        other = MUST(random_multivector_set(100, DIMS, seed=1))
        with pytest.raises(ValueError, match="from_saved"):
            other.load_index(tmp_path / "index")
        assert not other.is_built


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
    def test_saves_that_hold_a_delta_graph_are_refused(self, fmt, tmp_path):
        """Formats v1-v4 kept an HNSW graph over the delta: its builder
        options and level seed in the manifest, its layers in the delta
        archive's metadata, its base layer as that archive's adjacency.
        This version reads only v5: such a save is refused with rebuild
        instructions, and the instance that tried keeps its index."""
        must = self._streamed()
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

        fresh = _built_must(n=60)
        before = fresh.index
        with pytest.raises(ValueError, match=REBUILD):
            fresh.load_index(path)
        with pytest.raises(ValueError, match=f"a {fmt} directory"):
            MUST.from_saved(path)
        assert fresh.index is before and not fresh.is_segmented

    def test_load_restores_store_kind_and_options(self, tmp_path):
        """The manifest's compression and store options come back with
        the index, whatever the loading instance was constructed with."""
        opts = {"keep_exact": True}
        must = MUST(
            random_multivector_set(60, DIMS, seed=1),
            weights=Weights([0.4, 0.6]),
            builder=FusedIndexBuilder(gamma=8, seed=2),
            segment_policy=SegmentPolicy(seal_size=16, max_segments=4),
            compression="int8",
            store_options=opts,
        ).build()
        must.insert(_extra(20, seed=5))
        must.save_index(tmp_path / "segidx")
        fresh = MUST(must.objects).load_index(tmp_path / "segidx")
        assert fresh.is_segmented
        assert fresh.compression == "int8"
        assert fresh.store_options == opts

    def test_a_smaller_save_unlinks_the_archives_it_does_not_list(
        self, tmp_path
    ):
        """Re-saving after a compaction leaves exactly the listed
        archives, and a cold-tier sidecar the new manifest does not list
        is unlinked too."""
        must = self._streamed()
        path = tmp_path / "segidx"
        must.save_index(path)
        assert len(list(path.glob("segment_*.npz"))) == 3
        sidecar = path / "segment_007.cold_0.npy"
        sidecar.write_bytes(b"not listed")
        must.compact()
        must.save_index(path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        listed = [entry["file"] for entry in manifest["segments"]]
        assert sorted(p.name for p in path.glob("segment_*.npz")) == listed
        assert len(listed) == 1
        assert not sidecar.exists()
        fresh = MUST(must.objects).load_index(path)
        assert fresh.segments.describe() == must.segments.describe()

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


def _answers(must: MUST) -> list[tuple[list[int], bytes]]:
    """Graph answers to a fixed query set: ids and similarity bytes."""
    out = []
    for seed in range(4):
        got = must.query(random_query(DIMS, seed=seed), SearchOptions(k=10, l=40))
        out.append((got.ids.tolist(), got.similarities.tobytes()))
    return out


def _refuse_replace(monkeypatch, name: str | None = None) -> None:
    """``os.replace`` fails (onto a file called *name*, or onto any)."""
    replace = os.replace

    def refusing(src, dst):
        if name is None or Path(dst).name == name:
            raise OSError(28, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refusing)


class TestCrashSafeManifests:
    """Both manifests go through :func:`~repro.utils.io.replace_text`:
    a temporary sibling, ``fsync``, ``os.replace``, the directory
    ``fsync``ed."""

    def test_replace_text_syncs_then_renames(self, tmp_path, monkeypatch):
        calls: list[str] = []
        fsync, replace = os.fsync, os.replace

        def syncing(fd):
            calls.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            fsync(fd)

        def renaming(src, dst):
            calls.append("replace")
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", syncing)
        monkeypatch.setattr(os, "replace", renaming)
        target = tmp_path / "manifest.json"
        target.write_text("old")
        replace_text(target, "new")
        assert target.read_text() == "new"
        assert calls == ["file", "replace", "dir"]
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_a_failed_resave_loads_as_the_old_state(self, tmp_path, monkeypatch):
        must = _built_must(n=60)
        must.insert(_extra(16, seed=5))  # seals: nothing left in the delta
        assert must.segments.delta.n == 0
        path = tmp_path / "segidx"
        must.save_index(path)
        manifest = (path / MANIFEST_NAME).read_bytes()
        described, answers = must.segments.describe(), _answers(must)
        must.insert(_extra(16, seed=6))  # one more sealed segment
        with monkeypatch.context() as patch:
            _refuse_replace(patch)
            with pytest.raises(OSError, match="No space left"):
                must.save_index(path)
        assert (path / MANIFEST_NAME).read_bytes() == manifest
        assert not list(path.glob(".*.tmp"))  # the failed write cleaned up
        # What a writer killed mid-write leaves behind is never read.
        (path / f".{MANIFEST_NAME}.k1ll3d.tmp").write_text('{"format": "must-seg')
        fresh = MUST(must.objects).load_index(path)
        assert fresh.segments.describe() == described
        assert _answers(fresh) == answers

    def test_unlisted_archives_go_only_once_the_manifest_landed(
        self, tmp_path, monkeypatch
    ):
        """60 objects, 20 sealed and 7 in the delta, then a compaction
        whose re-save never lands its manifest: that save wrote under
        names no listed file uses, so every listed archive keeps its
        bytes and the directory loads as the old 87 objects, answers
        included; the next good save leaves only the archives it lists."""
        must = _built_must(n=60)
        must.insert(_extra(20, seed=5))
        must.insert(_extra(7, seed=6))
        path = tmp_path / "segidx"
        must.save_index(path)
        archives = {p.name: p.read_bytes() for p in path.glob("segment_*.npz")}
        assert len(archives) == 3
        described, answers = must.segments.describe(), _answers(must)
        assert described["total"] == 87
        must.compact()  # the next save lists one archive
        with monkeypatch.context() as patch:
            _refuse_replace(patch)
            with pytest.raises(OSError, match="No space left"):
                must.save_index(path)
        for name, data in archives.items():
            assert (path / name).read_bytes() == data
        fresh = MUST.from_saved(path)
        assert fresh.segments.describe() == described
        assert _answers(fresh) == answers
        must.save_index(path)
        listed = json.loads((path / MANIFEST_NAME).read_text())["segments"]
        assert len(listed) == 1
        assert [p.name for p in path.glob("segment_*.npz")] == [listed[0]["file"]]
        assert MUST.from_saved(path).segments.describe() == must.segments.describe()

    def test_a_failed_collections_resave_loads_the_old_list(
        self, tmp_path, monkeypatch
    ):
        manager = CollectionManager()
        manager.create("a", _built_must(seed=1, n=40))
        manager.create("b", _built_must(seed=2, n=40))
        path = tmp_path / "deployment"
        manager.save(path)
        manager.create("c", _built_must(seed=3, n=40))
        with monkeypatch.context() as patch:
            _refuse_replace(patch, name="collections.json")
            with pytest.raises(OSError, match="No space left"):
                manager.save(path)
        assert (path / "c").is_dir()  # its own save landed; the list did not
        restored = CollectionManager.from_saved(path)
        assert restored.names() == ["a", "b"]
        assert _answers(restored.get("b").must) == _answers(manager.get("b").must)


class TestMmapSaveSurvivesCompaction:
    def test_load_then_compact_keeps_the_save_loadable(self, tmp_path):
        """An mmap save served by ``from_saved`` keeps its cold tier in
        the save directory; compacting it must not unlink the sidecars
        that directory's manifest still lists."""
        must = MUST(
            random_multivector_set(60, DIMS, seed=4),
            weights=Weights([0.4, 0.6]),
            builder=FusedIndexBuilder(gamma=8, seed=2),
            segment_policy=SegmentPolicy(seal_size=16, max_segments=4),
            compression="pq",
            store_options={"pq_dims": 2},
            cold_storage="mmap",
            data_dir=tmp_path / "data",
        ).build()
        must.insert(_extra(20, seed=5))
        path = tmp_path / "index"
        must.save_index(path)
        before = _answers(must)

        served = MUST.from_saved(path)
        assert _answers(served) == before
        served.compact()
        listed = [
            name
            for entry in json.loads((path / MANIFEST_NAME).read_text())["segments"]
            for name in entry.get("cold_files", [])
        ]
        assert listed and all((path / name).exists() for name in listed)
        assert _answers(MUST.from_saved(path)) == before
