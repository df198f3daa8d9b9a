"""Serving-layer tests: coalescing parity, snapshot isolation, admission
control, lifecycle, stats, and a concurrent read/write stress test.

The parity bar is **bitwise**: a response served through the coalescing
dispatcher must equal ``MUST.query`` with the same arguments against
the request's snapshot — ids *and* similarities, on the graph and the
exact paths of both layouts (an exact wave is the one exact kernel: its
similarities come from the layout-independent float64 route whether the
query came alone or coalesced).
"""

from __future__ import annotations

import logging
import threading
import time

import numpy as np
import pytest

from repro.core.framework import MUST
from repro.core.query import Eq, Query, SearchOptions
from repro.core.weights import Weights
from repro.index.executor import BatchExecutor
from repro.index.segments import SegmentPolicy
from repro.service import (
    IndexSnapshot,
    MustService,
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
)

from tests.conftest import random_multivector_set, random_query

DIMS = (16, 8)
WEIGHTS = Weights([0.4, 0.6])


def _fresh_must(n: int = 300, seed: int = 1) -> MUST:
    return MUST(
        random_multivector_set(n, DIMS, seed=seed),
        weights=WEIGHTS,
        segment_policy=SegmentPolicy(
            seal_size=64, max_segments=8, max_deleted_fraction=0.9
        ),
    ).build()


@pytest.fixture(scope="module")
def segmented_must() -> MUST:
    """Built + streamed + partially deleted: sealed segments and a delta."""
    must = _fresh_must()
    must.insert(random_multivector_set(150, DIMS, seed=2))
    must.mark_deleted(np.arange(0, 60, 7))
    return must


@pytest.fixture(scope="module")
def queries():
    return [random_query(DIMS, seed=s) for s in range(24)]


def assert_same_result(res, ref):
    assert np.array_equal(res.ids, ref.ids)
    assert np.array_equal(res.similarities, ref.similarities)


class TestSnapshot:
    def test_unbuilt_must_cannot_snapshot(self):
        must = MUST(random_multivector_set(20, DIMS, seed=0), weights=WEIGHTS)
        with pytest.raises(ValueError, match="unbuilt"):
            must.snapshot()

    def test_segmented_snapshot_matches_live(self, segmented_must, queries):
        snap = segmented_must.snapshot()
        for q in queries[:6]:
            for opts in (
                SearchOptions(k=10, l=60), SearchOptions(k=10, exact=True)
            ):
                assert_same_result(
                    snap.query(q, opts), segmented_must.query(q, opts)
                )

    def test_single_graph_snapshot_matches_live(self, queries):
        must = _fresh_must(n=150, seed=3)
        must.mark_deleted(np.array([5, 9]))
        snap = must.snapshot()
        assert not snap.is_segmented
        for q in queries[:6]:
            for opts in (
                SearchOptions(k=5, l=40), SearchOptions(k=5, exact=True)
            ):
                assert_same_result(snap.query(q, opts), must.query(q, opts))

    def test_snapshot_isolated_from_all_mutations(self, queries):
        must = _fresh_must(n=200, seed=4)
        must.insert(random_multivector_set(40, DIMS, seed=5))
        q = queries[0]
        graph, exact = SearchOptions(k=10, l=60), SearchOptions(k=10, exact=True)
        before_graph = must.query(q, graph)
        before_exact = must.query(q, exact)
        snap = must.snapshot()
        # Mutate through every write path, including a full compaction.
        must.insert(random_multivector_set(50, DIMS, seed=6))
        must.mark_deleted(before_exact.ids[:3])
        must.compact()
        assert_same_result(snap.query(q, graph), before_graph)
        assert_same_result(snap.query(q, exact), before_exact)
        # The live index moved on: the deleted ids are gone from it.
        live = must.query(q, exact)
        assert not np.isin(before_exact.ids[:3], live.ids).any()

    def test_snapshot_num_active_frozen(self):
        must = _fresh_must(n=120, seed=7)
        must.insert(random_multivector_set(30, DIMS, seed=8))
        snap = must.snapshot()
        active = snap.num_active
        must.mark_deleted(np.arange(10))
        assert snap.num_active == active
        assert must.segments.num_active == active - 10


class TestExactWave:
    """The coalesced exact path against its single-query reference."""

    @pytest.mark.parametrize("refine", [None, 3])
    def test_wave_bitwise_identical(self, segmented_must, queries, refine):
        snap = segmented_must.snapshot()
        wave = snap.exact_wave(queries, k=10, refine=refine)
        for q, res in zip(queries, wave):
            assert_same_result(
                res,
                segmented_must.query(
                    q, SearchOptions(k=10, exact=True, refine=refine)
                ),
            )

    def test_wave_with_weight_override(self, segmented_must, queries):
        override = Weights([0.8, 0.2])
        snap = segmented_must.snapshot()
        wave = snap.exact_wave(queries, k=5, weights=override)
        for q, res in zip(queries, wave):
            assert_same_result(
                res,
                segmented_must.query(
                    Query(q, weights=override), SearchOptions(k=5, exact=True)
                ),
            )

    def test_wave_k_exceeds_active(self):
        must = _fresh_must(n=40, seed=9)
        must.insert(random_multivector_set(10, DIMS, seed=10))
        must.mark_deleted(np.arange(30))
        snap = must.snapshot()
        qs = [random_query(DIMS, seed=s) for s in range(4)]
        wave = snap.exact_wave(qs, k=50)
        for q, res in zip(qs, wave):
            assert_same_result(
                res, must.query(q, SearchOptions(k=50, exact=True))
            )
            assert len(res) == must.segments.num_active

    def test_executor_entry_point(self, segmented_must, queries):
        snap = segmented_must.segments.snapshot()
        batch = BatchExecutor().run_exact_wave(snap, queries, k=10)
        assert len(batch) == len(queries)
        for q, res in zip(queries, batch):
            assert_same_result(
                res, segmented_must.query(q, SearchOptions(k=10, exact=True))
            )
        assert batch.stats.joint_evals > 0

    def test_single_graph_wave_rank_parity(self, queries):
        must = _fresh_must(n=150, seed=11)
        snap = must.snapshot()
        wave = snap.exact_wave(queries[:8], k=10)
        for q, res in zip(queries, wave):
            ref = must.query(q, SearchOptions(k=10, exact=True))
            assert np.array_equal(res.ids, ref.ids)
            np.testing.assert_allclose(res.similarities, ref.similarities,
                                       atol=1e-6)


class TestServiceParity:
    def test_concurrent_mixed_clients_bitwise(self, segmented_must, queries):
        plans = [SearchOptions(k=10, exact=True), SearchOptions(k=10, l=60)]
        refs = {
            i: segmented_must.query(q, plans[i % 2])
            for i, q in enumerate(queries)
        }
        with MustService(
            segmented_must, ServiceConfig(max_batch=16, max_wait_ms=5.0)
        ) as svc:
            results: list = [None] * len(queries)

            def client(i):
                results[i] = svc.search(queries[i], plans[i % 2])

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(queries))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for i, res in enumerate(results):
                assert_same_result(res, refs[i])
            # The dispatcher actually coalesced (not 24 batches of one).
            assert svc.stats.batches < len(queries)
            assert svc.stats.coalesced_requests > 0

    def test_request_answer_independent_of_batch(self, segmented_must,
                                                 queries):
        """A request's answer cannot depend on its wave-mates."""
        with MustService(
            segmented_must, ServiceConfig(max_batch=8, max_wait_ms=5.0)
        ) as svc:
            solo = svc.search(queries[0], SearchOptions(k=10, l=60))
            futures = [
                svc.submit(q, SearchOptions(k=10, l=60)) for q in queries[:8]
            ]
            batched = futures[0].result()
        assert_same_result(solo, batched)

    def test_mixed_plans_group_correctly(self, segmented_must, queries):
        override = Weights([0.9, 0.1])
        with MustService(
            segmented_must, ServiceConfig(max_batch=16, max_wait_ms=5.0)
        ) as svc:
            requests = []
            for i, q in enumerate(queries[:12]):
                if i % 3 == 0:
                    requests.append((Query(q), SearchOptions(k=5, exact=True)))
                elif i % 3 == 1:
                    requests.append(
                        (
                            Query(q, weights=override),
                            SearchOptions(k=7, exact=True),
                        )
                    )
                else:
                    requests.append(
                        (Query(q), SearchOptions(k=5, exact=True, refine=2))
                    )
            futs = [svc.submit(query, opts) for query, opts in requests]
            for fut, (query, opts) in zip(futs, requests):
                assert_same_result(
                    fut.result(), segmented_must.query(query, opts)
                )


class TestSearchDuringCompaction:
    def test_search_equals_before_or_after(self, queries):
        """ISSUE parity clause: a search overlapping a compaction equals
        a search strictly before or strictly after it."""
        must = _fresh_must(n=250, seed=12)
        must.insert(random_multivector_set(80, DIMS, seed=13))
        must.mark_deleted(np.arange(0, 40, 3))
        with MustService(
            must, ServiceConfig(max_batch=8, max_wait_ms=1.0)
        ) as svc:
            before = {
                i: must.query(q, SearchOptions(k=10, exact=True))
                for i, q in enumerate(queries)
            }
            answers: dict[int, list] = {i: [] for i in range(len(queries))}
            stop = threading.Event()

            def reader(i):
                while not stop.is_set():
                    answers[i].append(
                        svc.search(queries[i], SearchOptions(k=10, exact=True))
                    )

            readers = [
                threading.Thread(target=reader, args=(i,)) for i in range(4)
            ]
            for t in readers:
                t.start()
            svc.compact()
            stop.set()
            for t in readers:
                t.join()
            after = {
                i: must.query(q, SearchOptions(k=10, exact=True))
                for i, q in enumerate(queries)
            }
            checked = 0
            for i, got in answers.items():
                for res in got:
                    matches_before = np.array_equal(
                        res.ids, before[i].ids
                    ) and np.array_equal(
                        res.similarities, before[i].similarities
                    )
                    matches_after = np.array_equal(
                        res.ids, after[i].ids
                    ) and np.array_equal(
                        res.similarities, after[i].similarities
                    )
                    assert matches_before or matches_after
                    checked += 1
            assert checked > 0


class TestAdmissionControl:
    def test_reject_backpressure(self, segmented_must, queries):
        svc = MustService(
            segmented_must,
            ServiceConfig(max_queue=4, backpressure="reject"),
            start=False,
        )
        futs = [svc.submit(queries[i], SearchOptions(k=5)) for i in range(4)]
        with pytest.raises(ServiceOverloaded):
            svc.submit(queries[4], SearchOptions(k=5))
        assert svc.stats.rejected == 1
        # Once the dispatcher starts, the accepted requests all complete.
        svc.start()
        for fut, q in zip(futs, queries):
            assert_same_result(
                fut.result(timeout=30),
                segmented_must.query(q, SearchOptions(k=5)),
            )
        svc.close()

    def test_block_backpressure_times_out(self, segmented_must, queries):
        svc = MustService(
            segmented_must,
            ServiceConfig(
                max_queue=2, backpressure="block", submit_timeout_s=0.05
            ),
            start=False,
        )
        for i in range(2):
            svc.submit(queries[i], SearchOptions(k=5))
        t0 = time.perf_counter()
        with pytest.raises(ServiceOverloaded):
            svc.submit(queries[2], SearchOptions(k=5))
        assert time.perf_counter() - t0 >= 0.05
        svc.start()
        svc.close()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServiceConfig(backpressure="drop")


class TestLifecycle:
    def test_close_drains_then_rejects(self, segmented_must, queries):
        svc = MustService(
            segmented_must, ServiceConfig(max_batch=4, max_wait_ms=1.0)
        )
        futs = [svc.submit(q, SearchOptions(k=5)) for q in queries[:8]]
        svc.close()
        for fut in futs:
            assert len(fut.result(timeout=1)) == 5
        with pytest.raises(ServiceClosed):
            svc.submit(queries[0], SearchOptions(k=5))
        svc.close()  # idempotent

    def test_close_without_start_fails_pending(self, segmented_must, queries):
        svc = MustService(segmented_must, start=False)
        fut = svc.submit(queries[0], SearchOptions(k=5))
        svc.close()
        with pytest.raises(ServiceClosed):
            fut.result(timeout=1)

    def test_unbuilt_must_rejected(self):
        must = MUST(random_multivector_set(20, DIMS, seed=0), weights=WEIGHTS)
        with pytest.raises(ValueError, match="built"):
            MustService(must)

    def test_serve_kwargs_and_config_exclusive(self, segmented_must):
        with pytest.raises(ValueError):
            segmented_must.serve(ServiceConfig(), max_batch=4)
        svc = segmented_must.serve(max_batch=4, max_wait_ms=0.5)
        assert svc.config.max_batch == 4
        svc.close()

    def test_failed_request_propagates_not_poisons(self, segmented_must,
                                                   queries):
        with MustService(
            segmented_must, ServiceConfig(max_batch=4, max_wait_ms=5.0)
        ) as svc:
            # A filter on a corpus without attributes fails at execution
            # on both paths; each failure stays contained (its own graph
            # request / its own exact group's retry).
            flt = Eq("category", "shoes")
            bad_graph = svc.submit(
                Query(queries[0], filter=flt), SearchOptions(k=5)
            )
            bad_exact = svc.submit(
                Query(queries[1], filter=flt), SearchOptions(k=5, exact=True)
            )
            good = svc.submit(queries[2], SearchOptions(k=5, exact=True))
            with pytest.raises(ValueError):
                bad_graph.result(timeout=30)
            with pytest.raises(ValueError):
                bad_exact.result(timeout=30)
            assert len(good.result(timeout=30)) == 5
            assert svc.stats.failed == 2
            assert svc.stats.completed >= 1


class TestDispatcherResilience:
    def test_wave_level_error_fails_batch_not_dispatcher(
        self, segmented_must, queries, monkeypatch
    ):
        """An error outside the per-request paths (here: plan grouping)
        must fail the batch's futures, not kill the dispatcher and
        strand every later caller."""
        exact = SearchOptions(k=5, exact=True)
        with MustService(
            segmented_must, ServiceConfig(max_batch=4, max_wait_ms=1.0)
        ) as svc:
            with monkeypatch.context() as patched:

                def boom(reqs):
                    raise AttributeError("grouping failed")

                patched.setattr(svc, "_exact_groups", boom)
                bad = svc.submit(queries[0], exact)
                with pytest.raises(AttributeError):
                    bad.result(timeout=30)
            # The dispatcher survived: the service still answers.
            assert_same_result(
                svc.search(queries[1], exact),
                segmented_must.query(queries[1], exact),
            )

    @pytest.mark.parametrize(
        "kind, opts",
        [
            ("exact", SearchOptions(k=5, exact=True)),
            ("graph", SearchOptions(k=5, l=40, engine="wave")),
        ],
    )
    def test_a_failed_wave_is_retried_counted_and_logged(
        self, segmented_must, queries, caplog, kind, opts
    ):
        """One request naming an unknown attribute fails its coalesced
        group; the group re-runs request by request, so the wave-mates
        answer and the offender errors — and the retry leaves a counter
        and an ``event=wave_retry`` record behind."""
        svc = MustService(
            segmented_must, ServiceConfig(max_batch=4, max_wait_ms=5.0),
            start=False,
        )
        try:
            mates = [svc.submit(q, opts) for q in queries[:2]]
            offender = svc.submit(
                Query(queries[2], filter=Eq("category", "shoes")), opts
            )
            with caplog.at_level(logging.WARNING, logger="repro.service"):
                svc.start()
                for mate, q in zip(mates, queries):
                    assert_same_result(
                        mate.result(timeout=30), segmented_must.query(q, opts)
                    )
                with pytest.raises(ValueError):
                    offender.result(timeout=30)
            assert svc.stats.wave_retries == 1
            assert svc.stats.summary()["wave_retries"] == 1
            (record,) = [
                r.getMessage() for r in caplog.records
                if "event=wave_retry" in r.getMessage()
            ]
            assert f"kind={kind} size=3 error=ValueError" in record
        finally:
            svc.close()

    def test_cancelled_future_does_not_kill_dispatcher(self, segmented_must,
                                                       queries):
        """``cancel()`` moves a queued future to CANCELLED;
        ``set_result`` on it raises ``InvalidStateError``, which used to
        escape the wave-level handler and wedge the dispatch loop.  The
        dispatcher must claim each future before delivering and keep
        serving the cancelled request's wave-mates."""
        svc = MustService(
            segmented_must, ServiceConfig(max_batch=4, max_wait_ms=5.0),
            start=False,
        )
        try:
            doomed = svc.submit(queries[0], SearchOptions(k=5, exact=True))
            mate = svc.submit(queries[1], SearchOptions(k=5, exact=True))
            assert doomed.cancel()
            svc.start()
            assert_same_result(
                mate.result(timeout=30),
                segmented_must.query(queries[1], SearchOptions(k=5, exact=True)),
            )
            assert doomed.cancelled()
            # The cancelled request is counted as failed, and the
            # dispatcher is still draining new requests.
            assert svc.stats.failed >= 1
            assert len(svc.search(queries[2], SearchOptions(k=5))) == 5
        finally:
            svc.close()


class TestServiceStats:
    def test_counters_and_percentiles(self, segmented_must, queries):
        with MustService(
            segmented_must, ServiceConfig(max_batch=8, max_wait_ms=2.0)
        ) as svc:
            threads = [
                threading.Thread(
                    target=lambda q=q: svc.search(
                        q, SearchOptions(k=5, exact=True)
                    )
                )
                for q in queries[:16]
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            summary = svc.stats.summary()
        assert summary["submitted"] == 16
        assert summary["completed"] == 16
        assert summary["failed"] == 0
        assert sum(
            size * count for size, count in summary["batch_sizes"].items()
        ) == 16
        latency = summary["latency_ms"]
        assert latency["count"] == 16
        assert latency["p50"] <= latency["p95"] <= latency["p99"]
        assert summary["wait_ms"]["count"] == 16
        assert svc.stats.pending == 0


class TestStress:
    """Satellite: N reader threads against concurrent inserts/deletes."""

    def test_concurrent_search_insert_delete(self):
        must = _fresh_must(n=260, seed=20)
        must.insert(random_multivector_set(40, DIMS, seed=21))
        queries = [random_query(DIMS, seed=100 + s) for s in range(16)]
        num_readers, per_reader = 6, 12
        k = 8
        errors: list[Exception] = []
        responses: list[list] = [[] for _ in range(num_readers)]

        with MustService(
            must, ServiceConfig(max_batch=16, max_wait_ms=2.0)
        ) as svc:
            def reader(slot: int):
                try:
                    for r in range(per_reader):
                        exact = (slot + r) % 2 == 0
                        res = svc.search(
                            queries[(slot * 5 + r) % len(queries)],
                            SearchOptions(k=k, l=50, exact=exact),
                        )
                        responses[slot].append(res)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            def writer():
                try:
                    rng = np.random.default_rng(7)
                    for step in range(10):
                        svc.insert(
                            random_multivector_set(8, DIMS, seed=300 + step)
                        )
                        if step % 3 == 2:
                            active = svc.active_ids()
                            doomed = rng.choice(
                                active, size=4, replace=False
                            )
                            svc.mark_deleted(doomed)
                        time.sleep(0.002)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(slot,))
                for slot in range(num_readers)
            ] + [threading.Thread(target=writer)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert not errors, errors
            # No duplicate or missing responses: every read came back.
            assert [len(r) for r in responses] == [per_reader] * num_readers
            assert svc.stats.pending == 0
            max_ext = int(svc.must.segments._next_ext)
            for got in responses:
                for res in got:
                    assert len(res) == k
                    # Stable external ids, unique, in allocation range.
                    assert len(set(res.ids.tolist())) == k
                    assert res.ids.min() >= 0
                    assert res.ids.max() < max_ext
                    # Best-first ordering.
                    assert (np.diff(res.similarities) <= 1e-12).all()

            # Quiesced parity: with writers stopped, served answers equal
            # the oracle (direct MUST.query) bit for bit.
            for q in queries[:8]:
                for opts in (
                    SearchOptions(k=k, exact=True), SearchOptions(k=k, l=50)
                ):
                    assert_same_result(
                        svc.search(q, opts), svc.must.query(q, opts)
                    )
