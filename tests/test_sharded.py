"""Process-sharded serving tests: parity, routing, crash containment.

The sharding contract is **bitwise**: an exact answer served through a
:class:`~repro.service.ShardedService` must equal the single-process
segmented answer — ids *and* similarities — for every shard count,
because each worker reranks through the same layout-independent float64
kernel and the front-end merges with the same ``(-similarity, id)``
total order.  Shard layout may change the wall clock, never a result.

Also covered here: the :class:`~repro.utils.shm.SharedArrays` pack that
moves the vector planes across the process boundary exactly once, the
``SegmentedIndex`` sharding hooks (explicit external ids, shard-local
``allow_empty`` deletes, empty compaction), and worker-crash
containment (a dead shard fails its in-flight requests individually and
the service keeps serving from the survivors).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.framework import MUST
from repro.core.multivector import MultiVectorSet
from repro.core.query import Eq, Query, SearchOptions
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.pipeline import FusedIndexBuilder
from repro.index.segments import SegmentedIndex, SegmentPolicy
from repro.service import ServiceConfig, ShardedService, ShardFailed
from repro.utils.shm import SharedArrays

from tests.conftest import random_multivector_set, random_query

DIMS = (16, 8)
WEIGHTS = Weights([0.4, 0.6])
CATEGORIES = np.array(["alpha", "beta", "gamma"])

#: cheap graph build for spawn speed — the exact path never touches the
#: graph, and every worker spawn rebuilds its shard's graph.
CHEAP_BUILDER = FusedIndexBuilder(gamma=8, epsilon=1, max_candidates=16)


class _DyingBuilder(FusedIndexBuilder):
    """Hard-exits during the worker-side graph build — a worker crash
    before the ready-ack, as seen from the spawning parent."""

    def build(self, space):
        os._exit(13)


def _attributed_set(n: int, seed: int) -> MultiVectorSet:
    objects = random_multivector_set(n, DIMS, seed=seed)
    rng = np.random.default_rng(seed + 500)
    return objects.set_attributes(
        {
            "category": CATEGORIES[rng.integers(0, 3, n)],
            "price": rng.uniform(0.0, 100.0, n),
        }
    )


def _segmented_must(n: int = 300, tail: int = 90, seed: int = 1) -> MUST:
    """Built + streamed + partially deleted: the layout the tier shards."""
    must = MUST(
        _attributed_set(n, seed),
        weights=WEIGHTS,
        builder=CHEAP_BUILDER,
        segment_policy=SegmentPolicy(
            seal_size=64, max_segments=8, max_deleted_fraction=0.9
        ),
    ).build()
    must.insert(_attributed_set(tail, seed + 7))
    must.mark_deleted(np.arange(0, 50, 7))
    return must


@pytest.fixture(scope="module")
def sharded_must() -> MUST:
    return _segmented_must()


@pytest.fixture(scope="module")
def queries():
    return [random_query(DIMS, seed=s) for s in range(12)]


def assert_same_result(res, ref):
    assert np.array_equal(res.ids, ref.ids)
    assert np.array_equal(res.similarities, ref.similarities)


class TestExactParity:
    @pytest.mark.parametrize("max_batch", [1, 4])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_bitwise_parity_across_layouts(
        self, sharded_must, queries, shards, max_batch
    ):
        """Exact answers are bit-identical for every shard count ×
        coalescing width (one request per scatter, or four), including
        per-query filters and k overrides."""
        service = sharded_must.serve_sharded(
            n_shards=shards, max_batch=max_batch, max_wait_ms=5.0
        )
        try:
            plan = SearchOptions(k=10, exact=True)
            typed = []
            for i, q in enumerate(queries):
                if i % 3 == 0:
                    typed.append(Query(q, filter=Eq("category", "alpha")))
                elif i % 3 == 1:
                    typed.append(Query(q, k=4))  # per-query k override
                else:
                    typed.append(Query(q))
            futures = [service.submit(query, plan) for query in typed]
            for query, future in zip(typed, futures):
                assert_same_result(
                    future.result(60), sharded_must.query(query, plan)
                )
        finally:
            service.close()

    def test_coalesced_wave_parity(self, sharded_must, queries):
        """A whole wave of concurrent exact submits answers bitwise."""
        service = sharded_must.serve_sharded(
            n_shards=2, max_batch=len(queries), max_wait_ms=5.0
        )
        plan = SearchOptions(k=8, exact=True)
        try:
            futures = [service.submit(q, plan) for q in queries]
            for q, future in zip(queries, futures):
                assert_same_result(
                    future.result(timeout=30), sharded_must.query(q, plan)
                )
        finally:
            service.close()

    def test_graph_paths_serve_every_shard(self, sharded_must, queries):
        """Graph answers come from per-shard graphs (not bit-comparable
        to the unsharded graph), but must return k live global ids."""
        active = set(sharded_must.segments.active_ext_ids().tolist())
        for plan in (SearchOptions(k=8, l=40), SearchOptions(k=8, l=40, engine="wave")):
            service = sharded_must.serve_sharded(
                n_shards=2, max_batch=4, max_wait_ms=1.0
            )
            try:
                res = service.search(queries[0], plan)
                assert len(res.ids) == 8
                assert set(res.ids.tolist()) <= active
                # ids from both shards are reachable across queries
                seen = set()
                for q in queries:
                    seen |= {i % 2 for i in service.search(q, plan).ids}
                assert seen == {0, 1}
            finally:
                service.close()


class TestWriterChurn:
    def test_writes_route_by_id_and_stay_bitwise(self, queries):
        """Identical mutations applied to the sharded tier and to an
        unsharded oracle keep exact answers bit-identical throughout —
        insert, delete, and a shard-local compaction."""
        must = _segmented_must(seed=11)
        service = must.serve_sharded(n_shards=2, max_batch=4, max_wait_ms=1.0)
        plan = SearchOptions(k=10, exact=True)
        try:
            batch = _attributed_set(30, seed=77)
            got = service.insert(batch)
            want = must.insert(batch)
            assert np.array_equal(got, want)
            assert np.array_equal(
                service.active_ids(), must.segments.active_ext_ids()
            )
            for q in queries[:6]:
                assert_same_result(service.search(q, plan), must.query(q, plan))

            doomed = want[::3]
            service.mark_deleted(doomed)
            must.mark_deleted(doomed)
            for q in queries[:6]:
                assert_same_result(service.search(q, plan), must.query(q, plan))
                res = service.search(q, plan)
                assert not np.isin(doomed, res.ids).any()

            # Compaction changes every shard's physical layout; the
            # exact kernel is layout-independent, so answers must not.
            service.compact()
            for q in queries[:6]:
                assert_same_result(service.search(q, plan), must.query(q, plan))
        finally:
            service.close()

    def test_global_delete_guards(self, sharded_must):
        service = sharded_must.serve_sharded(n_shards=2)
        try:
            with pytest.raises(ValueError, match="unknown external ids"):
                service.mark_deleted(np.array([10_000_000]))
            with pytest.raises(ValueError, match="cannot delete every"):
                service.mark_deleted(service.active_ids())
        finally:
            service.close()


class TestCrashContainment:
    def test_dead_shard_fails_requests_then_degrades(self, sharded_must, queries):
        service = sharded_must.serve_sharded(
            n_shards=2, max_batch=4, max_wait_ms=1.0, worker_timeout_s=20.0
        )
        plan = SearchOptions(k=8, exact=True)
        try:
            service.search(queries[0], plan)  # healthy round-trip first
            service._handles[1].process.kill()
            service._handles[1].process.join()
            with pytest.raises(ShardFailed):
                service.search(queries[1], plan)
            assert service.degraded
            assert service.live_shards == [0]
            # Subsequent requests serve from the survivor: every id is
            # one shard 0 owns (ext id ≡ 0 mod 2).
            res = service.search(queries[2], plan)
            assert len(res.ids) == 8
            assert np.all(res.ids % 2 == 0)
            graph = service.search(queries[3], SearchOptions(k=8, l=40))
            assert np.all(graph.ids % 2 == 0)
            assert service.stats.summary()["shards_lost"] == 1
        finally:
            service.close()

    def test_queued_wave_mates_error_individually(self, sharded_must, queries):
        """A crashed shard fails each in-flight future with ShardFailed;
        the dispatcher survives and later requests resolve."""
        service = ShardedService(
            sharded_must,
            n_shards=2,
            config=ServiceConfig(max_batch=8, max_wait_ms=1.0),
            start=False,
            worker_timeout_s=20.0,
        )
        plan = SearchOptions(k=5, exact=True)
        try:
            futures = [service.submit(q, plan) for q in queries[:4]]
            service._handles[1].process.kill()
            service._handles[1].process.join()
            service.start()
            for future in futures:
                with pytest.raises(ShardFailed):
                    future.result(timeout=30)
            # Dispatcher alive: fresh requests answer from the survivor.
            res = service.search(queries[4], plan)
            assert np.all(res.ids % 2 == 0)
        finally:
            service.close()


class TestSharedArrays:
    def test_round_trip_attach(self):
        rng = np.random.default_rng(3)
        arrays = {
            "plane0": rng.standard_normal((40, 16)).astype(np.float32),
            "ids": np.arange(40, dtype=np.int64),
            "empty": np.zeros((0, 8), dtype=np.float32),
        }
        pack = SharedArrays.create(arrays)
        attached = SharedArrays.attach(pack.spec)
        try:
            for key, value in arrays.items():
                assert np.array_equal(attached.arrays[key], value)
                assert attached.arrays[key].dtype == value.dtype
            with pytest.raises(ValueError):
                attached.arrays["ids"][0] = -1  # views are read-only
            for entry in pack.spec["entries"]:
                assert entry["offset"] % 64 == 0
            assert pack.nbytes >= sum(v.nbytes for v in arrays.values())
        finally:
            attached.close()
            pack.close()
            pack.unlink()

    def test_empty_pack_rejected_and_zero_rows_allowed(self):
        with pytest.raises(ValueError, match="at least one array"):
            SharedArrays.create({})
        pack = SharedArrays.create({"none": np.zeros((0, 4), np.float32)})
        attached = SharedArrays.attach(pack.spec)
        try:
            assert attached.arrays["none"].shape == (0, 4)
        finally:
            attached.close()
            pack.close()
            pack.unlink()

    def test_create_failure_unlinks_block(self, monkeypatch):
        """A failure while populating the block must not leak the named
        POSIX segment (it outlives the process otherwise)."""
        before = set(os.listdir("/dev/shm"))
        real_ndarray = np.ndarray
        calls = {"n": 0}

        def exploding(*args, **kwargs):
            # First view maps fine, second dies — mid-population, after
            # the named block exists.
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("population boom")
            return real_ndarray(*args, **kwargs)

        monkeypatch.setattr(np, "ndarray", exploding)
        with pytest.raises(RuntimeError, match="population boom"):
            SharedArrays.create(
                {
                    "a": np.arange(8, dtype=np.int64),
                    "b": np.arange(8, dtype=np.int64),
                }
            )
        monkeypatch.undo()
        assert set(os.listdir("/dev/shm")) == before

    def test_spawn_failure_leaves_no_shm(self):
        """A worker that dies before its ready-ack (here: hard-exits in
        the graph build) must not leave shared-memory blocks behind —
        the spawn-failure path unlinks every pack it created."""
        must = _segmented_must(n=80, tail=20, seed=21)
        must.segments.builder = _DyingBuilder()
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(Exception):
            ShardedService(must, n_shards=2)
        assert set(os.listdir("/dev/shm")) == before


class TestShardingHooks:
    """The ``SegmentedIndex`` surface the sharded tier is built on."""

    def _graph(self, n=40, seed=9):
        space = JointSpace(random_multivector_set(n, DIMS, seed=seed), WEIGHTS)
        return FusedIndexBuilder(gamma=8, seed=seed).build(space)

    def test_from_graph_explicit_ext_ids(self):
        index = self._graph()
        ids = np.arange(40, dtype=np.int64) * 2 + 1  # odd global ids
        seg = SegmentedIndex.from_graph(index, ext_ids=ids)
        view = seg.snapshot()
        (res,) = view.exact_wave([random_query(DIMS, seed=1)], k=5)
        assert set(res.ids.tolist()) <= set(ids.tolist())
        # Allocator continues past the largest explicit id.
        new = seg.insert(random_multivector_set(3, DIMS, seed=2))
        assert new.min() > ids.max()

    def test_from_graph_ext_ids_validation(self):
        index = self._graph()
        with pytest.raises(ValueError, match="every graph row"):
            SegmentedIndex.from_graph(index, ext_ids=np.arange(5))
        with pytest.raises(ValueError, match="duplicates"):
            SegmentedIndex.from_graph(
                index, ext_ids=np.zeros(index.n, dtype=np.int64)
            )
        with pytest.raises(ValueError, match="non-negative"):
            SegmentedIndex.from_graph(
                index, ext_ids=np.arange(index.n) - 1
            )

    def test_insert_explicit_ext_ids(self):
        seg = SegmentedIndex.from_graph(self._graph())
        got = seg.insert(
            random_multivector_set(4, DIMS, seed=3),
            ext_ids=np.array([100, 205, 101, 300]),
        )
        assert np.array_equal(got, [100, 205, 101, 300])
        with pytest.raises(ValueError, match="collide"):
            seg.insert(
                random_multivector_set(2, DIMS, seed=4),
                ext_ids=np.array([205, 999]),
            )
        # The monotone allocator never reuses an explicit id.
        auto = seg.insert(random_multivector_set(2, DIMS, seed=5))
        assert auto.min() > 300

    def test_allow_empty_delete_and_empty_compact(self):
        seg = SegmentedIndex.from_graph(self._graph(n=20, seed=13))
        every = seg.active_ext_ids()
        with pytest.raises(ValueError, match="cannot delete every"):
            seg.mark_deleted(every)
        # A shard may lose its last object while the *global* corpus
        # stays non-empty; the front-end holds the global guard.
        seg.mark_deleted(every, allow_empty=True)
        assert seg.num_active == 0
        assert seg.compact().size == 0
        # The emptied shard stays usable: inserts restart it.
        seg.insert(random_multivector_set(3, DIMS, seed=14))
        assert seg.num_active == 3


class TestLifecycle:
    def test_snapshot_disabled_and_shard_stats(self, sharded_must):
        service = sharded_must.serve_sharded(n_shards=2)
        try:
            assert service.snapshot() is None
            stats = service.shard_stats()
            assert [s["shard"] for s in stats] == [0, 1]
            assert all(s["busy_seconds"] >= 0.0 for s in stats)
            total = sum(s["active"] for s in stats)
            assert total == sharded_must.segments.num_active
            service.search(random_query(DIMS, seed=0),
                           SearchOptions(k=5, exact=True))
            summary = service.stats.summary()
            assert set(summary["shards"]) == {0, 1}
        finally:
            service.close()

    def test_close_idempotent_and_rejects_after(self, sharded_must):
        service = sharded_must.serve_sharded(n_shards=2)
        service.close()
        service.close()
        from repro.service import ServiceClosed

        with pytest.raises(ServiceClosed):
            service.submit(random_query(DIMS, seed=0),
                           SearchOptions(k=3, exact=True))
