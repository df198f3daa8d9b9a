"""Multi-tenant collections: routing, quotas, parity, persistence.

The tenancy contract has three legs, each pinned here:

* **Isolation** — a request executes against exactly one collection's
  index, and each collection's answers are *bit-identical* to a
  standalone ``MUST`` over the same corpus, across heterogeneous store
  configurations (dense / int8 / PQ+mmap side by side in one service),
  both service tiers, and interleaved cross-tenant write churn.
* **Admission** — per-tenant :class:`CollectionQuota` budgets reject
  (or block out) only the breaching tenant with
  :class:`CollectionOverloaded`; neighbours keep being admitted and the
  global queue bound still backstops the box with the plain
  :class:`ServiceOverloaded`.
* **Persistence** — the ``must-collections-v1`` manifest-of-manifests
  round-trips every collection (quotas included) corpus-free, and a
  plain single-collection segment save loads as the implicit
  ``"default"`` collection bit-identically.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core.framework import MUST
from repro.core.query import Query, SearchOptions
from repro.core.weights import Weights
from repro.index.pipeline import FusedIndexBuilder
from repro.index.segments import SegmentPolicy
from repro.service import (
    Collection,
    CollectionManager,
    CollectionOverloaded,
    CollectionQuota,
    MustService,
    ServiceConfig,
    ServiceOverloaded,
    UnknownCollection,
)

from tests.conftest import random_multivector_set, random_query

DIMS = (16, 8)
WEIGHTS = Weights([0.4, 0.6])
#: cheap graph build — the exact path never touches the graph.
CHEAP_BUILDER = FusedIndexBuilder(gamma=8, epsilon=1, max_candidates=16)
POLICY = SegmentPolicy(seal_size=64, max_segments=8, max_deleted_fraction=0.9)

EXACT = SearchOptions(k=8, exact=True)


def _segmented_must(n: int = 110, seed: int = 1, **kwargs) -> MUST:
    """Built + streamed + partially deleted — the segmented layout."""
    must = MUST(
        random_multivector_set(n, DIMS, seed=seed),
        weights=WEIGHTS,
        builder=CHEAP_BUILDER,
        segment_policy=POLICY,
        **kwargs,
    ).build()
    must.insert(random_multivector_set(35, DIMS, seed=seed + 7))
    must.mark_deleted(np.arange(0, 30, 7))
    return must


def _manager(tmp_path=None) -> CollectionManager:
    """Three collections with deliberately heterogeneous stores."""
    manager = CollectionManager()
    manager.create("dense", _segmented_must(seed=11))
    manager.create("int8", _segmented_must(seed=22, compression="int8"))
    if tmp_path is not None:
        manager.create(
            "pqmmap",
            _segmented_must(
                seed=33,
                compression="pq",
                store_options={"pq_dims": 4},
                cold_storage="mmap",
                data_dir=tmp_path / "pqmmap-data",
            ),
        )
    return manager


def assert_same_result(res, ref):
    assert np.array_equal(res.ids, ref.ids)
    assert np.array_equal(res.similarities, ref.similarities)


@pytest.fixture()
def queries():
    return [random_query(DIMS, seed=s) for s in range(8)]


# ----------------------------------------------------------------------
# Registry + quota plumbing
# ----------------------------------------------------------------------
class TestManagerBasics:
    def test_registry_operations(self):
        manager = CollectionManager()
        must = _segmented_must(n=70, seed=5)
        col = manager.create("beta", must)
        manager.create("alpha", _segmented_must(n=70, seed=6))
        assert isinstance(col, Collection)
        assert manager.names() == ["alpha", "beta"]  # sorted
        assert [c.name for c in manager] == ["alpha", "beta"]
        assert "beta" in manager and "gamma" not in manager
        assert len(manager) == 2
        assert manager.get("beta").must is must
        dropped = manager.drop("beta")
        assert dropped.must is must
        assert "beta" not in manager

    def test_of_lifts_bare_must_as_default(self):
        must = _segmented_must(n=70, seed=5)
        manager = CollectionManager.of(must)
        assert manager.names() == ["default"]
        assert manager.get(None).must is must
        # Idempotent on an existing manager.
        assert CollectionManager.of(manager) is manager

    def test_unknown_collection_has_did_you_mean(self):
        manager = CollectionManager()
        manager.create("products", _segmented_must(n=70, seed=5))
        with pytest.raises(UnknownCollection, match="did you mean 'products'"):
            manager.get("product")

    def test_duplicate_create_rejected(self):
        manager = CollectionManager()
        must = _segmented_must(n=70, seed=5)
        manager.create("a", must)
        with pytest.raises(ValueError, match="already exists"):
            manager.create("a", must)

    @pytest.mark.parametrize(
        "bad", ["", ".hidden", "a/b", "../up", "x" * 65, "sp ace"]
    )
    def test_path_unsafe_names_rejected(self, bad):
        manager = CollectionManager()
        with pytest.raises(ValueError, match="invalid collection name"):
            manager.create(bad, _segmented_must(n=70, seed=5))

    def test_quota_validation(self):
        CollectionQuota()  # unlimited is fine
        CollectionQuota(max_pending=1, max_inflight=5)
        with pytest.raises(ValueError):
            CollectionQuota(max_pending=0)
        with pytest.raises(ValueError):
            CollectionQuota(max_inflight=-1)
        quota = CollectionQuota(max_pending=3)
        assert CollectionQuota.from_dict(quota.to_dict()) == quota


# ----------------------------------------------------------------------
# Routing (MustService)
# ----------------------------------------------------------------------
class TestRouting:
    def test_search_routes_to_named_collection(self, tmp_path, queries):
        manager = _manager(tmp_path)
        with manager.serve(ServiceConfig(max_batch=8, max_wait_ms=1.0)) as svc:
            for name in manager.names():
                oracle = manager.get(name).must
                plan = SearchOptions(k=8, exact=True, collection=name)
                for q in queries[:4]:
                    assert_same_result(svc.search(q, plan), oracle.query(q, EXACT))
                # The graph path routes identically (in-process snapshots
                # answer bit-identically to the live instance).
                graph_plan = SearchOptions(k=6, l=40, collection=name)
                for q in queries[:2]:
                    assert_same_result(
                        svc.search(q, graph_plan),
                        oracle.query(q, SearchOptions(k=6, l=40)),
                    )

    def test_missing_default_and_named_routes(self, queries):
        manager = _manager()
        with manager.serve() as svc:
            with pytest.raises(UnknownCollection):
                # No "default" collection exists in this manager.
                svc.search(queries[0], EXACT)
            res = svc.search(
                queries[0], SearchOptions(k=8, exact=True, collection="int8")
            )
            ref = manager.get("int8").must.query(queries[0], EXACT)
            assert_same_result(res, ref)

    def test_unknown_collection_fails_eagerly(self, queries):
        manager = _manager()
        with manager.serve() as svc:
            submitted = svc.stats.submitted
            with pytest.raises(UnknownCollection):
                svc.submit(
                    queries[0], SearchOptions(collection="nope")
                )
            # Rejected before admission: nothing was enqueued or counted.
            assert svc.stats.submitted == submitted

    def test_writes_route_and_stay_isolated(self, queries):
        manager = _manager()
        with manager.serve() as svc:
            before_dense = svc.active_ids("dense")
            batch = random_multivector_set(12, DIMS, seed=99)
            ext = svc.insert(batch, collection="int8")
            assert ext.size == 12
            # The neighbour's id space is untouched.
            assert np.array_equal(svc.active_ids("dense"), before_dense)
            svc.mark_deleted(ext[:3], collection="int8")
            assert not np.isin(ext[:3], svc.active_ids("int8")).any()
            fresh, active = svc.compact("int8")
            assert fresh is manager.get("int8").must
            assert np.array_equal(active, svc.active_ids("int8"))
            for q in queries[:3]:
                assert_same_result(
                    svc.search(q, SearchOptions(k=8, exact=True, collection="dense")),
                    manager.get("dense").must.query(q, EXACT),
                )

    def test_per_collection_stats(self, queries):
        manager = _manager()
        with manager.serve() as svc:
            for q in queries[:3]:
                svc.search(q, SearchOptions(k=5, exact=True, collection="dense"))
            svc.search(queries[0], SearchOptions(k=5, exact=True, collection="int8"))
            dense = manager.get("dense").stats
            int8 = manager.get("int8").stats
            assert dense.submitted == 3 and dense.completed == 3
            assert int8.submitted == 1 and int8.completed == 1
            assert svc.stats.submitted == 4 and svc.stats.completed == 4
            assert dense.latency.summary()["count"] == 3


# ----------------------------------------------------------------------
# Per-tenant admission control
# ----------------------------------------------------------------------
class TestPerTenantAdmission:
    def _service(self, **config_kwargs) -> tuple[CollectionManager, MustService]:
        manager = CollectionManager()
        manager.create(
            "hot",
            _segmented_must(n=70, seed=5),
            quota=CollectionQuota(max_pending=2, max_inflight=2),
        )
        manager.create("cold", _segmented_must(n=70, seed=6))
        svc = MustService(
            manager,
            ServiceConfig(max_queue=64, **config_kwargs),
            start=False,
        )
        return manager, svc

    def test_tenant_quota_rejects_only_that_tenant(self, queries):
        manager, svc = self._service(backpressure="reject")
        hot = SearchOptions(k=5, exact=True, collection="hot")
        cold = SearchOptions(k=5, exact=True, collection="cold")
        futs = [svc.submit(queries[i], hot) for i in range(2)]
        with pytest.raises(CollectionOverloaded, match="'hot'"):
            svc.submit(queries[2], hot)
        # The neighbour is untouched by the hot tenant's quota breach.
        futs += [svc.submit(queries[i], cold) for i in range(6)]
        assert manager.get("hot").stats.rejected == 1
        assert manager.get("cold").stats.rejected == 0
        assert svc.stats.rejected == 1
        svc.start()
        for fut in futs:
            assert fut.result(timeout=30) is not None
        # Quota slots were released: the tenant admits again.
        assert_same_result(
            svc.search(queries[2], hot),
            manager.get("hot").must.query(queries[2], SearchOptions(k=5, exact=True)),
        )
        svc.close()

    def test_global_queue_backstops_every_tenant(self, queries):
        manager = CollectionManager()
        manager.create("hot", _segmented_must(n=70, seed=5))
        manager.create("cold", _segmented_must(n=70, seed=6))
        svc = MustService(
            manager,
            ServiceConfig(max_queue=3, backpressure="reject"),
            start=False,
        )
        for i in range(3):
            name = "hot" if i % 2 == 0 else "cold"
            svc.submit(queries[i], SearchOptions(k=5, collection=name))
        with pytest.raises(ServiceOverloaded) as excinfo:
            svc.submit(queries[3], SearchOptions(k=5, collection="cold"))
        # Queue exhaustion is the box's problem, not one tenant's.
        assert not isinstance(excinfo.value, CollectionOverloaded)
        svc.start()
        svc.close()

    def test_block_backpressure_honors_tenant_quota(self, queries):
        manager, svc = self._service(
            backpressure="block", submit_timeout_s=0.05
        )
        hot = SearchOptions(k=5, exact=True, collection="hot")
        for i in range(2):
            svc.submit(queries[i], hot)
        with pytest.raises(CollectionOverloaded, match="'hot'"):
            svc.submit(queries[2], hot)
        svc.start()
        svc.close()


# ----------------------------------------------------------------------
# Bit-parity under cross-tenant churn
# ----------------------------------------------------------------------
class TestParityUnderChurn:
    @pytest.mark.parametrize("kind", ["must"])
    def test_heterogeneous_collections_stay_bitwise(
        self, kind, tmp_path, queries
    ):
        """Dense, int8, and PQ+mmap collections served side by side:
        every exact answer is bit-identical to the standalone ``MUST``
        over the same corpus — tenancy adds zero perturbation — before
        and after interleaved cross-tenant inserts, deletes, and
        compactions."""
        manager = _manager(tmp_path)
        svc = manager.serve(ServiceConfig(max_batch=8, max_wait_ms=1.0))
        try:
            def check():
                for name in manager.names():
                    must = manager.get(name).must
                    plan = SearchOptions(k=8, exact=True, collection=name)
                    for q in queries[:4]:
                        assert_same_result(
                            svc.search(q, plan), must.query(q, EXACT)
                        )
                    assert np.array_equal(
                        svc.active_ids(name), must.segments.active_ext_ids()
                    )

            check()
            # Insert into one tenant, delete in another, compact a third
            # — svc writes through the shared MUST, so each answer stays
            # bitwise against its own collection's instance.
            ext = svc.insert(
                random_multivector_set(20, DIMS, seed=777), collection="int8"
            )
            svc.mark_deleted(svc.active_ids("dense")[::9], collection="dense")
            check()
            svc.compact(collection="pqmmap")
            svc.mark_deleted(ext[:5], collection="int8")
            check()
        finally:
            svc.close()


# ----------------------------------------------------------------------
# Concurrent multi-tenant stress
# ----------------------------------------------------------------------
class TestConcurrentMultiTenant:
    def test_stress_isolation_and_quiesced_parity(self, queries):
        """Reader threads across three tenants with writer churn and a
        throttled hot tenant: admission errors never leak across
        collections, and quiesced answers match each tenant's oracle."""
        manager = CollectionManager()
        manager.create(
            "hot",
            _segmented_must(n=90, seed=41),
            quota=CollectionQuota(max_inflight=2),
        )
        manager.create("warm", _segmented_must(n=90, seed=42))
        manager.create("cool", _segmented_must(n=90, seed=43))
        svc = MustService(
            manager,
            ServiceConfig(
                max_batch=8, max_wait_ms=1.0, backpressure="reject"
            ),
        )
        rejected_by: dict[str, int] = {"hot": 0, "warm": 0, "cool": 0}
        errors: list[BaseException] = []
        lock = threading.Lock()

        def reader(name: str, seed: int) -> None:
            plan = SearchOptions(k=5, exact=True, collection=name)
            for i in range(40):
                q = random_query(DIMS, seed=seed * 100 + i)
                try:
                    res = svc.search(q, plan)
                    assert len(res.ids) >= 1
                except CollectionOverloaded as exc:
                    # A rejection must name the tenant that breached.
                    with lock:
                        rejected_by[name] += 1
                    assert f"collection {name!r}" in str(exc)
                except BaseException as exc:  # pragma: no cover - fail loud
                    with lock:
                        errors.append(exc)
                    return

        def writer(name: str, seed: int) -> None:
            try:
                for i in range(5):
                    batch = random_multivector_set(
                        6, DIMS, seed=seed * 100 + i
                    )
                    ext = svc.insert(batch, collection=name)
                    svc.mark_deleted(ext[:2], collection=name)
            except BaseException as exc:  # pragma: no cover - fail loud
                with lock:
                    errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(name, t * 7 + i))
            for i, name in enumerate(["hot", "warm", "cool"])
            for t in range(3)
        ] + [
            threading.Thread(target=writer, args=(name, 900 + i))
            for i, name in enumerate(["warm", "cool"])
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        # The throttled tenant's quota never spilled onto its neighbours.
        assert rejected_by["warm"] == 0 and rejected_by["cool"] == 0
        assert (
            manager.get("warm").stats.rejected == 0
            and manager.get("cool").stats.rejected == 0
        )
        assert manager.get("hot").stats.rejected == rejected_by["hot"]
        # Quiesced: every tenant answers bit-identically to its oracle.
        for name in manager.names():
            oracle = manager.get(name).must
            plan = SearchOptions(k=8, exact=True, collection=name)
            for q in queries[:4]:
                assert_same_result(svc.search(q, plan), oracle.query(q, EXACT))
        svc.close()


# ----------------------------------------------------------------------
# Persistence — must-collections-v1
# ----------------------------------------------------------------------
class TestPersistence:
    def test_multi_collection_roundtrip(self, tmp_path, queries):
        manager = CollectionManager()
        manager.create(
            "a",
            _segmented_must(seed=51),
            quota=CollectionQuota(max_pending=3),
        )
        manager.create("b", _segmented_must(seed=52, compression="int8"))
        root = tmp_path / "deployment"
        manager.save(root)
        manifest = json.loads((root / "collections.json").read_text())
        assert manifest["format"] == "must-collections-v1"
        assert [e["name"] for e in manifest["collections"]] == ["a", "b"]

        restored = CollectionManager.from_saved(root, builder=CHEAP_BUILDER)
        assert restored.names() == ["a", "b"]
        assert restored.get("a").quota == CollectionQuota(max_pending=3)
        for name in ("a", "b"):
            oracle = manager.get(name).must
            loaded = restored.get(name).must
            for q in queries[:4]:
                assert_same_result(loaded.query(q, EXACT), oracle.query(q, EXACT))

    def test_single_collection_save_loads_as_default(self, tmp_path, queries):
        must = _segmented_must(seed=61)
        must.save_index(tmp_path / "solo")
        manager = CollectionManager.from_saved(
            tmp_path / "solo", builder=CHEAP_BUILDER
        )
        assert manager.names() == ["default"]
        loaded = manager.get(None).must
        for q in queries[:4]:
            assert_same_result(loaded.query(q, EXACT), must.query(q, EXACT))

    def test_single_graph_collections_roundtrip(self, tmp_path, queries):
        """A single-graph collection saves as a one-segment directory
        and restores answering exact plans as the live instance does."""
        manager = CollectionManager()
        single_graph = MUST(
            random_multivector_set(60, DIMS, seed=3),
            weights=WEIGHTS,
            builder=CHEAP_BUILDER,
        ).build()
        manager.create("solo", single_graph)
        manager.create("streamed", _segmented_must(seed=53))
        manager.save(tmp_path / "out")
        restored = CollectionManager.from_saved(
            tmp_path / "out", builder=CHEAP_BUILDER
        )
        assert restored.names() == ["solo", "streamed"]
        assert len(restored.get("solo").must.segments.sealed) == 1
        for name in ("solo", "streamed"):
            oracle = manager.get(name).must
            loaded = restored.get(name).must
            for q in queries[:4]:
                assert_same_result(loaded.query(q, EXACT), oracle.query(q, EXACT))

    def test_save_empty_manager_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no collections"):
            CollectionManager().save(tmp_path / "out")

    def test_from_saved_error_paths(self, tmp_path):
        missing = tmp_path / "nowhere"
        with pytest.raises(ValueError, match="neither"):
            CollectionManager.from_saved(missing)

        corrupt = tmp_path / "corrupt"
        corrupt.mkdir()
        (corrupt / "collections.json").write_text("{not json")
        with pytest.raises(ValueError, match="corrupt"):
            CollectionManager.from_saved(corrupt)

        wrong = tmp_path / "wrong-format"
        wrong.mkdir()
        (wrong / "collections.json").write_text(json.dumps({"format": "x"}))
        with pytest.raises(ValueError, match="not a must-collections-v1"):
            CollectionManager.from_saved(wrong)

        future = tmp_path / "future"
        future.mkdir()
        (future / "collections.json").write_text(
            json.dumps(
                {
                    "format": "must-collections-v1",
                    "format_version": 99,
                    "collections": [{"name": "a"}],
                }
            )
        )
        with pytest.raises(ValueError, match="format_version"):
            CollectionManager.from_saved(future)

        unsafe = tmp_path / "unsafe"
        unsafe.mkdir()
        (unsafe / "collections.json").write_text(
            json.dumps(
                {
                    "format": "must-collections-v1",
                    "format_version": 1,
                    "collections": [{"name": "a", "path": "../evil"}],
                }
            )
        )
        with pytest.raises(ValueError, match="unsafe save path"):
            CollectionManager.from_saved(unsafe)

        ghost = tmp_path / "ghost"
        ghost.mkdir()
        (ghost / "collections.json").write_text(
            json.dumps(
                {
                    "format": "must-collections-v1",
                    "format_version": 1,
                    "collections": [{"name": "a"}],
                }
            )
        )
        with pytest.raises(FileNotFoundError, match="segments missing"):
            CollectionManager.from_saved(ghost)

    def test_roundtrip_then_serve(self, tmp_path, queries):
        """A restored deployment serves every collection bit-identically
        to the manager that saved it."""
        manager = CollectionManager()
        manager.create("a", _segmented_must(seed=71))
        manager.create("b", _segmented_must(seed=72))
        root = tmp_path / "dep"
        manager.save(root)
        restored = CollectionManager.from_saved(root, builder=CHEAP_BUILDER)
        with restored.serve(ServiceConfig(max_batch=8, max_wait_ms=1.0)) as svc:
            for name in ("a", "b"):
                oracle = manager.get(name).must
                plan = SearchOptions(k=8, exact=True, collection=name)
                for q in queries[:4]:
                    assert_same_result(svc.search(q, plan), oracle.query(q, EXACT))
