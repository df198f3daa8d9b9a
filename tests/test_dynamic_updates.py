"""Tests for §IX dynamic updates: soft deletion, compaction, HNSW inserts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framework import MUST
from repro.core.multivector import MultiVectorSet
from repro.core.space import JointSpace
from repro.core.query import SearchOptions
from repro.core.weights import Weights
from repro.index.flat import FlatIndex
from repro.index.pipeline import FusedIndexBuilder
from repro.index.search import joint_search
from repro.index.segments import SegmentedIndex, SegmentPolicy

from tests.conftest import random_multivector_set, random_query


@pytest.fixture()
def built():
    space = JointSpace(random_multivector_set(300, (8, 6), seed=91),
                       Weights([0.5, 0.5]))
    index = FusedIndexBuilder(gamma=10, seed=2).build(space)
    queries = [random_query((8, 6), seed=s) for s in range(12)]
    return space, index, queries


class TestSoftDeletion:
    def test_deleted_never_returned(self, built):
        space, index, queries = built
        doomed = np.arange(0, 300, 3)
        index.mark_deleted(doomed)
        doomed_set = set(doomed.tolist())
        for q in queries:
            res = joint_search(index, q, k=10, l=60)
            assert not (set(res.ids.tolist()) & doomed_set)

    def test_recall_on_survivors_preserved(self, built):
        space, index, queries = built
        # Delete the exact top-5 of the first query; the searcher should
        # then surface the next-best *active* objects.
        flat = FlatIndex(space)
        exact_before = flat.search(queries[0], 5).ids
        index.mark_deleted(exact_before)
        res = joint_search(index, queries[0], k=10, l=120)
        sims = space.query_ids_stable(queries[0])
        sims[exact_before] = -np.inf
        expected = set(np.argsort(-sims)[:10].tolist())
        assert len(set(res.ids.tolist()) & expected) >= 8

    def test_num_active_tracks_deletions(self, built):
        _, index, _ = built
        assert index.num_active == 300
        index.mark_deleted(np.array([1, 2, 3]))
        assert index.num_active == 297
        # Re-deleting the same ids is idempotent.
        index.mark_deleted(np.array([2, 3]))
        assert index.num_active == 297

    def test_cannot_delete_everything(self, built):
        _, index, _ = built
        with pytest.raises(ValueError):
            index.mark_deleted(np.arange(300))

    def test_out_of_range_rejected(self, built):
        _, index, _ = built
        with pytest.raises(ValueError):
            index.mark_deleted(np.array([999]))

    def test_deleted_mask_survives_save_load(self, built, tmp_path):
        space, index, queries = built
        index.mark_deleted(np.array([5, 6, 7]))
        path = tmp_path / "g"
        SegmentedIndex.from_graph(index).save(path)
        loaded = SegmentedIndex.load(path).sealed[0].index
        assert loaded.num_active == 297
        res = joint_search(loaded, queries[0], k=10, l=60)
        assert not ({5, 6, 7} & set(res.ids.tolist()))

    def test_active_ids(self, built):
        _, index, _ = built
        index.mark_deleted(np.array([0, 10]))
        active = index.active_ids()
        assert active.size == 298
        assert 0 not in active and 10 not in active


class TestFrozenCopy:
    """:meth:`GraphIndex.frozen` — what a snapshot captures."""

    @pytest.mark.parametrize("already_deleted", [False, True])
    def test_shares_the_graph_and_isolates_the_bitset(
        self, built, already_deleted
    ):
        _, index, queries = built
        if already_deleted:
            index.mark_deleted(np.array([4]))
        copy = index.frozen()
        # Shared, not re-wrapped: the same list of the same row objects.
        assert copy.neighbors is index.neighbors
        assert all(a is b for a, b in zip(copy.neighbors, index.neighbors))
        assert copy.space is index.space
        assert np.shares_memory(copy.entry_points(300), index.entry_points(300))
        before = joint_search(copy, queries[0], k=10, l=60)
        index.mark_deleted(before.ids[:5])
        assert copy.num_active == index.num_active + 5
        after = joint_search(copy, queries[0], k=10, l=60)
        np.testing.assert_array_equal(after.ids, before.ids)
        live = joint_search(index, queries[0], k=10, l=60)
        assert not set(live.ids.tolist()) & set(before.ids[:5].tolist())

    def test_copies_share_the_traversal_constants(self, built, monkeypatch):
        """Built once, by ``frozen`` (under the writer's lock in a
        service), and read as they are by every copy: the same max
        degree and addresses, and no thread reading a copy builds them
        again."""
        import threading

        from repro.index import base

        _, index, queries = built
        packed: list[int] = []
        pack = base.pack_adjacency
        monkeypatch.setattr(
            base, "pack_adjacency", lambda adj: packed.append(1) or pack(adj)
        )
        assert index._csr == []
        copies = [index.frozen() for _ in range(3)]
        assert packed == [1]
        source = index.traversal_constants()
        flat, offsets = index.csr_adjacency()
        assert source.max_degree == max(len(adj) for adj in index.neighbors)
        assert source.flat_ptr == flat.ctypes.data
        assert source.offsets_ptr == offsets.ctypes.data
        assert source.entry_ptr == index.entry_points(1).ctypes.data
        for copy in copies:
            assert copy.traversal_constants() is source
        answers: dict[int, np.ndarray] = {}

        def read(i: int) -> None:
            answers[i] = joint_search(copies[i % 3], queries[i], k=10, l=60).ids

        threads = [threading.Thread(target=read, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert packed == [1] and len(answers) == 6
        for i, ids in answers.items():
            np.testing.assert_array_equal(
                ids, joint_search(index, queries[i], k=10, l=60).ids
            )

    def test_segmented_snapshot_is_made_of_frozen_copies(self):
        must = MUST(
            random_multivector_set(120, (8, 6), seed=3),
            weights=Weights([0.5, 0.5]),
            segment_policy=SegmentPolicy(seal_size=16),
        ).build()
        must.insert(random_multivector_set(20, (8, 6), seed=4))
        must.mark_deleted(np.array([1]))
        live = must.segments.searchable_segments()
        frozen = must.segments.snapshot().segments
        assert len(frozen) == len(live) >= 2
        for a, b in zip(frozen, live):
            assert a.index is not b.index
            assert a.index.neighbors is b.index.neighbors
            assert a.index._csr is b.index._csr and a.index._csr
        must.mark_deleted(np.array([2]))
        assert sum(seg.num_active for seg in frozen) == must.segments.num_active + 1


class TestCompaction:
    def test_compact_matches_fresh_build(self, mitstates_encoded):
        must = MUST.from_dataset(mitstates_encoded).build()
        doomed = np.arange(0, mitstates_encoded.objects.n, 5)
        must.mark_deleted(doomed)
        compacted, active = must.compact()
        assert compacted.objects.n == must.objects.n - doomed.size
        assert np.intersect1d(active, doomed).size == 0
        # Searching the compacted index returns remapped ids that point
        # at the same objects the soft-deleted index would return.
        q = mitstates_encoded.queries[0]
        soft = must.query(q, SearchOptions(k=5, l=100))
        hard = compacted.query(q, SearchOptions(k=5, l=100))
        remapped = active[hard.ids]
        assert len(set(remapped.tolist()) & set(soft.ids.tolist())) >= 3

    def test_compact_without_deletions_is_identity_sized(
        self, mitstates_encoded
    ):
        must = MUST.from_dataset(mitstates_encoded).build()
        compacted, active = must.compact()
        assert compacted.objects.n == must.objects.n
        assert np.array_equal(active, np.arange(must.objects.n))

    def test_compact_keeps_segment_policy(self):
        """The rebuilt single-graph instance seals under the caller's
        policy, not the default one."""
        must = MUST(
            random_multivector_set(60, (8, 6), seed=5),
            segment_policy=SegmentPolicy(seal_size=7),
        ).build()
        must.mark_deleted(np.arange(5))
        compacted, _ = must.compact()
        compacted.insert(random_multivector_set(20, (8, 6), seed=6))
        assert compacted.segments.num_seals == 1
        assert compacted.segments.delta.n == 0


class TestExactSearchSoftDeletes:
    """Regression: the exact (FlatIndex) path must honour the §IX bitset
    exactly like the graph searcher does — it used to return tombstones."""

    def _fresh_must(self):
        must = MUST(random_multivector_set(250, (8, 6), seed=17),
                    weights=Weights([0.5, 0.5]))
        return must.build()

    def test_exact_search_filters_deleted(self):
        must = self._fresh_must()
        q = random_query((8, 6), seed=4)
        doomed = must.query(q, SearchOptions(k=5, exact=True)).ids
        must.mark_deleted(doomed)
        res = must.query(q, SearchOptions(k=5, exact=True))
        assert not (set(res.ids.tolist()) & set(doomed.tolist()))
        # The survivors are exactly the best *active* objects.
        sims = must.space.query_ids_stable(q)
        sims[doomed] = -np.inf
        expected = np.argsort(-sims)[:5]
        assert set(res.ids.tolist()) == set(expected.tolist())

    def test_exact_matches_graph_filtering(self):
        must = self._fresh_must()
        q = random_query((8, 6), seed=9)
        must.mark_deleted(np.arange(0, 250, 4))
        exact = must.query(q, SearchOptions(k=10, exact=True))
        graph = must.query(q, SearchOptions(k=10, l=250))
        deleted = set(np.arange(0, 250, 4).tolist())
        assert not (set(exact.ids.tolist()) & deleted)
        assert not (set(graph.ids.tolist()) & deleted)
        assert len(set(exact.ids.tolist()) & set(graph.ids.tolist())) >= 9

    def test_exact_batch_filters_deleted(self):
        must = self._fresh_must()
        queries = [random_query((8, 6), seed=s) for s in range(6)]
        must.mark_deleted(np.arange(0, 250, 3))
        deleted = set(np.arange(0, 250, 3).tolist())
        batch = must.query(queries, SearchOptions(k=7, exact=True))
        for res in batch:
            assert len(res) == 7
            assert not (set(res.ids.tolist()) & deleted)

    def test_k_exceeding_active_count_returns_only_survivors(self):
        must = MUST(random_multivector_set(40, (8, 6), seed=21),
                    weights=Weights([0.5, 0.5])).build()
        must.mark_deleted(np.arange(35))
        res = must.query(random_query((8, 6), seed=2), SearchOptions(k=10, exact=True))
        assert len(res) == 5
        assert set(res.ids.tolist()) == set(range(35, 40))

    def test_exact_without_build_ignores_bitset(self):
        """Exact search works pre-build (no graph, hence no bitset yet)."""
        must = MUST(random_multivector_set(60, (8, 6), seed=5),
                    weights=Weights([0.5, 0.5]))
        res = must.query(random_query((8, 6), seed=0), SearchOptions(k=3, exact=True))
        assert len(res) == 3
