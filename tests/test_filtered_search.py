"""Filtered-search parity suite (typed Query ``filter=`` pushdown).

The contract under test, per path:

* **exact** — filtered results are **bit-identical** to the brute-force
  post-filter oracle (score everything unfiltered, drop inadmissible
  rows, cut to k): ids *and* similarities, across every vector-store
  backend (dense / int8 / PQ), flat and segmented layouts,
  and through :class:`MustService` while writer threads churn the
  index;
* **segmented exact** additionally equals an unfiltered deterministic
  scan over the *physically* post-filtered corpus (the
  layout-independence property extended to filters);
* **graph** — every returned id is admissible and recall against the
  oracle is ≥ 0.9 (masked vertices route but are never reported).
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro.core.framework import MUST
from repro.core.multivector import MultiVectorSet
from repro.core.query import Eq, Query, Range, SearchOptions
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.graph_wave import graph_wave_search
from repro.index.pipeline import FusedIndexBuilder
from repro.index.search import joint_search
from repro.index.segments import SegmentPolicy
from repro.service import MustService, ServiceConfig
from repro.store import STORE_KINDS

from tests.conftest import (
    heap_search,
    heap_view_search,
    random_multivector_set,
    random_query,
    stable_oracle,
)

N = 300
DIMS = (16, 8)
K = 10
WEIGHTS = Weights([0.6, 0.4])
ALL_KINDS = sorted(STORE_KINDS)
CATEGORIES = np.array(["alpha", "beta", "gamma"])

#: the canonical predicate used throughout: category == "alpha" AND
#: price <= 70 — selectivity ≈ 1/3 · 0.7 on uniform attributes.
FILTER = Eq("category", "alpha") & Range("price", high=70.0)


def _attach_attributes(objects: MultiVectorSet, seed: int) -> MultiVectorSet:
    rng = np.random.default_rng(seed)
    return objects.set_attributes(
        {
            "category": CATEGORIES[rng.integers(0, 3, objects.n)],
            "price": rng.uniform(0.0, 100.0, objects.n),
        }
    )


def _attributed_set(n: int, seed: int) -> MultiVectorSet:
    return _attach_attributes(
        random_multivector_set(n, DIMS, seed=seed), seed + 500
    )


def _admissible_by_ext_id(must: MUST) -> dict[int, bool]:
    """predicate(ext_id) for every *live* object (tombstones excluded)."""
    out: dict[int, bool] = {}
    if must.is_segmented:
        for seg in must.segments.searchable_segments():
            mask = FILTER.mask(seg.space.vectors.attributes)
            if seg.index.deleted is not None:
                alive = ~seg.index.deleted
            else:
                alive = np.ones(seg.n, dtype=bool)
            for ext, ok in zip(seg.ext_ids[alive], mask[alive]):
                out[int(ext)] = bool(ok)
    else:
        mask = FILTER.mask(must.objects.attributes)
        for i, ok in enumerate(mask):
            out[i] = bool(ok)
    return out


def _oracle(must: MUST, query, k: int):
    """Brute-force post-filter: full unfiltered exact scan, drop
    inadmissible rows, cut to *k*.  Returns (ids, similarities)."""
    admissible = _admissible_by_ext_id(must)
    full = must.query(
        Query(query), SearchOptions(k=max(len(admissible), k), exact=True)
    )
    kept = [
        (int(i), s)
        for i, s in zip(full.ids, full.similarities)
        if admissible[int(i)]
    ]
    ids = np.asarray([i for i, _ in kept[:k]], dtype=np.int64)
    sims = np.asarray([s for _, s in kept[:k]], dtype=np.float64)
    return ids, sims


def assert_bitwise(res, oracle_ids, oracle_sims):
    assert np.array_equal(res.ids, oracle_ids)
    assert np.array_equal(res.similarities, oracle_sims)


@pytest.fixture(scope="module")
def queries():
    return [random_query(DIMS, seed=200 + s) for s in range(10)]


def _flat_must(kind: str) -> MUST:
    return MUST(
        _attributed_set(N, seed=31), weights=WEIGHTS, compression=kind
    ).build()


def _segmented_must(kind: str) -> MUST:
    must = MUST(
        _attributed_set(N, seed=31),
        weights=WEIGHTS,
        compression=kind,
        segment_policy=SegmentPolicy(
            seal_size=64, max_segments=8, max_deleted_fraction=0.9
        ),
    ).build()
    must.insert(_attributed_set(120, seed=32))
    must.insert(_attributed_set(30, seed=33))  # stays in the delta
    must.mark_deleted(np.arange(0, 80, 7))
    return must


# ----------------------------------------------------------------------
# Exact-path bitwise parity, every store backend, both layouts
# ----------------------------------------------------------------------
class TestExactOracleParity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_flat_bitwise(self, queries, kind):
        must = _flat_must(kind)
        for q in queries:
            ids, sims = _oracle(must, q, K)
            res = must.query(
                Query(q, filter=FILTER), SearchOptions(k=K, exact=True)
            )
            assert_bitwise(res, ids, sims)
            assert len(res.ids) == K

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_segmented_bitwise(self, queries, kind):
        must = _segmented_must(kind)
        assert must.segments.num_segments >= 2
        for q in queries:
            ids, sims = _oracle(must, q, K)
            res = must.query(
                Query(q, filter=FILTER), SearchOptions(k=K, exact=True)
            )
            assert_bitwise(res, ids, sims)

    @pytest.mark.parametrize("kind", ["none", "int8"])
    def test_refine_pipeline_stays_admissible(self, queries, kind):
        must = _segmented_must(kind)
        admissible = _admissible_by_ext_id(must)
        for q in queries[:4]:
            res = must.query(
                Query(q, filter=FILTER),
                SearchOptions(k=K, exact=True, refine=3),
            )
            assert all(admissible[int(i)] for i in res.ids)
            # On the dense store the refine shortlist comes from the
            # same deterministic scan the oracle ranks by, so the ids
            # match; the reranked similarities travel the exact-kernel
            # route (float32 GEMV) and agree to ~1e-7, not bitwise.
            if kind == "none":
                ids, sims = _oracle(must, q, K)
                assert np.array_equal(res.ids, ids)
                np.testing.assert_allclose(
                    res.similarities, sims, rtol=0, atol=1e-6
                )

    def test_segmented_equals_physical_postfilter(self, queries):
        """Filtered exact == unfiltered deterministic scan over a corpus
        that physically contains only the admissible objects."""
        must = _segmented_must("none")
        admissible = _admissible_by_ext_id(must)
        keep_ext = np.asarray(
            sorted(e for e, ok in admissible.items() if ok), dtype=np.int64
        )
        mats = [[] for _ in DIMS]
        for seg in must.segments.searchable_segments():
            alive = (
                np.ones(seg.n, dtype=bool)
                if seg.index.deleted is None
                else ~seg.index.deleted
            )
            mask = FILTER.mask(seg.space.vectors.attributes) & alive
            for i in range(len(DIMS)):
                mats[i].append(seg.space.vectors.exact_modality(i)[mask])
        # Reassemble in ascending external-id order.
        ext_concat = np.concatenate(
            [
                seg.ext_ids[
                    FILTER.mask(seg.space.vectors.attributes)
                    & (
                        np.ones(seg.n, dtype=bool)
                        if seg.index.deleted is None
                        else ~seg.index.deleted
                    )
                ]
                for seg in must.segments.searchable_segments()
            ]
        )
        order = np.argsort(ext_concat)
        assert np.array_equal(ext_concat[order], keep_ext)
        sub = MultiVectorSet(
            [np.concatenate(parts)[order] for parts in mats]
        )
        space = JointSpace(sub, WEIGHTS)
        for q in queries[:5]:
            filtered = must.query(
                Query(q, filter=FILTER), SearchOptions(k=K, exact=True)
            )
            physical = stable_oracle(space, q, K, ids=keep_ext)
            assert_bitwise(filtered, physical.ids, physical.similarities)


# ----------------------------------------------------------------------
# Batched execution: per-query filters and k overrides in one batch
# ----------------------------------------------------------------------
class TestBatchedFiltering:
    @pytest.mark.parametrize("layout", ["flat", "segmented"])
    def test_mixed_batch_matches_lone_requests(self, queries, layout):
        """A batch mixing filtered, unfiltered and
        k-overriding queries answers each one exactly as a lone request
        would."""
        must = (
            _flat_must("none") if layout == "flat"
            else _segmented_must("none")
        )
        typed = [
            Query(q, filter=FILTER if i % 2 == 0 else None, k=K - i % 3)
            for i, q in enumerate(queries)
        ]
        batch = must.query(typed, SearchOptions(k=K, l=64))
        for query, res in zip(typed, batch):
            ref = must.query(query, SearchOptions(k=K, l=64))
            assert np.array_equal(res.ids, ref.ids)
            assert np.array_equal(res.similarities, ref.similarities)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_exact_batch_matches_oracle_ranks(self, queries, kind):
        """The GEMM-wave batch keeps its rank-level contract under
        filters: same admissible ids as the oracle (similarities travel
        the stacked float32 route, hence ranks rather than bits)."""
        must = _flat_must(kind)
        batch = must.query(
            [Query(q, filter=FILTER) for q in queries],
            SearchOptions(k=K, exact=True),
        )
        for q, res in zip(queries, batch):
            ids, _ = _oracle(must, q, K)
            assert set(int(i) for i in res.ids) == set(int(i) for i in ids)

    def test_batch_stats_aggregate(self, queries):
        must = _flat_must("none")
        batch = must.query(
            [Query(q, filter=FILTER) for q in queries[:4]],
            SearchOptions(k=K, exact=True),
        )
        assert batch.stats.joint_evals >= 4 * N


# ----------------------------------------------------------------------
# Graph path: admissibility invariant + recall gate
# ----------------------------------------------------------------------
class TestGraphFiltering:
    @pytest.mark.parametrize("layout", ["flat", "segmented"])
    def test_recall_at_least_0_9(self, queries, layout):
        must = (
            _flat_must("none") if layout == "flat"
            else _segmented_must("none")
        )
        admissible = _admissible_by_ext_id(must)
        hits = total = 0
        for q in queries:
            ids, _ = _oracle(must, q, K)
            res = must.query(
                Query(q, filter=FILTER), SearchOptions(k=K, l=128)
            )
            assert all(admissible[int(i)] for i in res.ids)
            hits += np.intersect1d(res.ids, ids).size
            total += ids.size
        assert hits / total >= 0.9, f"filtered graph recall {hits / total}"

    @pytest.mark.parametrize("kind", ["int8", "pq"])
    def test_compressed_graph_stays_admissible(self, queries, kind):
        must = _flat_must(kind)
        admissible = _admissible_by_ext_id(must)
        for q in queries[:4]:
            res = must.query(
                Query(q, filter=FILTER),
                SearchOptions(k=K, l=128, refine=2),
            )
            assert all(admissible[int(i)] for i in res.ids)

    def test_empty_filter_returns_empty(self, queries):
        must = _flat_must("none")
        res = must.query(
            Query(queries[0], filter=Eq("category", "no-such")),
            SearchOptions(k=K, l=64),
        )
        assert len(res.ids) == 0
        res = must.query(
            Query(queries[0], filter=Eq("category", "no-such")),
            SearchOptions(k=K, exact=True),
        )
        assert len(res.ids) == 0


# ----------------------------------------------------------------------
# Lifecycle: inserts, deletes, compaction, persistence
# ----------------------------------------------------------------------
class TestFilterLifecycle:
    def test_filtered_after_compaction(self, queries):
        must = _segmented_must("none")
        must.compact()
        for q in queries[:5]:
            ids, sims = _oracle(must, q, K)
            res = must.query(
                Query(q, filter=FILTER), SearchOptions(k=K, exact=True)
            )
            assert_bitwise(res, ids, sims)

    @pytest.mark.parametrize("kind", ["none", "pq"])
    def test_filtered_after_save_load(self, tmp_path, queries, kind):
        must = _segmented_must(kind)
        ref = [
            must.query(
                Query(q, filter=FILTER), SearchOptions(k=K, exact=True)
            )
            for q in queries[:5]
        ]
        must.save_index(tmp_path / "idx")
        fresh = MUST(
            _attributed_set(N, seed=31), weights=WEIGHTS, compression=kind
        ).load_index(tmp_path / "idx")
        for q, r in zip(queries[:5], ref):
            res = fresh.query(
                Query(q, filter=FILTER), SearchOptions(k=K, exact=True)
            )
            assert_bitwise(res, r.ids, r.similarities)

    def test_insert_without_attributes_rejected(self):
        must = _segmented_must("none")
        with pytest.raises(ValueError, match="same attribute fields"):
            must.insert(random_multivector_set(10, DIMS, seed=99))

    def test_attach_after_insert_rejected(self):
        must = _segmented_must("none")
        with pytest.raises(ValueError, match="segment owns its attribute"):
            must.set_attributes({"category": np.array(["x"])})


# ----------------------------------------------------------------------
# Through the service, under concurrent writers
# ----------------------------------------------------------------------
class TestServiceFiltering:
    def test_quiesced_service_bitwise(self, queries):
        must = _segmented_must("none")
        with MustService(
            must, ServiceConfig(max_batch=8, max_wait_ms=2.0)
        ) as svc:
            for q in queries[:5]:
                ids, sims = _oracle(must, q, K)
                res = svc.search(
                    Query(q, filter=FILTER), SearchOptions(k=K, exact=True)
                )
                assert_bitwise(res, ids, sims)

    def test_filtered_reads_under_concurrent_writers(self, queries):
        must = _segmented_must("none")
        errors: list[Exception] = []
        stop = threading.Event()

        with MustService(
            must, ServiceConfig(max_batch=8, max_wait_ms=1.0)
        ) as svc:

            def writer():
                seed = 60
                try:
                    while not stop.is_set():
                        ids = svc.insert(_attributed_set(12, seed=seed))
                        svc.mark_deleted(ids[::3])
                        seed += 1
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            def reader(qi: int):
                try:
                    for _ in range(12):
                        for exact in (True, False):
                            res = svc.search(
                                Query(queries[qi], filter=FILTER),
                                SearchOptions(k=K, l=64, exact=exact),
                            )
                            # Every answer must satisfy the predicate —
                            # regardless of which snapshot served it.
                            assert res.ids.size <= K
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(i,)) for i in range(4)
            ]
            wthread = threading.Thread(target=writer)
            wthread.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stop.set()
            wthread.join()
            assert not errors, errors[0]

            # Quiesced: the live state answers bit-identically to the
            # oracle computed on that same state.
            for q in queries[:3]:
                ids, sims = _oracle(must, q, K)
                res = svc.search(
                    Query(q, filter=FILTER), SearchOptions(k=K, exact=True)
                )
                assert_bitwise(res, ids, sims)


# ----------------------------------------------------------------------
# Low selectivity: a filter or tombstones leave 10 % / 1 % admissible
# ----------------------------------------------------------------------
LOW_N = 2000
LOW_SEGMENTS = (700, 650, 650)
LOW_BUILDER = FusedIndexBuilder(gamma=12, seed=2)
#: how far the wave's recall may trail the per-query heap oracle's.
LOW_SLACK = 0.01


@pytest.fixture(scope="module")
def low_queries():
    return [random_query(DIMS, seed=900 + s) for s in range(30)]


@pytest.fixture(scope="module")
def low_layouts():
    """The same 2 000 objects as one graph and as three sealed segments;
    ``rank`` is a permutation, so ``rank < r`` admits exactly r."""
    objects = random_multivector_set(LOW_N, DIMS, seed=21).set_attributes(
        {"rank": np.random.default_rng(22).permutation(LOW_N)}
    )
    single = MUST(objects, weights=WEIGHTS, builder=LOW_BUILDER).build()
    bounds = np.cumsum((0,) + LOW_SEGMENTS)
    segmented = MUST(
        objects.subset(np.arange(bounds[1])),
        weights=WEIGHTS,
        builder=LOW_BUILDER,
        segment_policy=SegmentPolicy(seal_size=LOW_SEGMENTS[1], max_segments=8),
    ).build()
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        segmented.insert(objects.subset(np.arange(lo, hi)))
    sizes = [seg.n for seg in segmented.segments.view().segments]
    assert sizes == list(LOW_SEGMENTS)
    return {"single-graph": single, "3-segments": segmented}


def _recall(found, truth) -> float:
    hits = sum(np.intersect1d(f.ids, t.ids).size for f, t in zip(found, truth))
    return hits / sum(t.ids.size for t in truth)


class TestLowSelectivity:
    """Excluded vertices route but never report, so they fill the
    routing pool: the wave widens each row's pool to ``⌈l·n /
    reportable⌉`` and scans a row whose ``l`` reaches its admissible
    count.  Recall holds against the per-query heap oracle, and a row
    every probe of which is scanned is exact."""

    @pytest.mark.parametrize("l", [20, 100])
    @pytest.mark.parametrize("share", [0.1, 0.01])
    @pytest.mark.parametrize("layout", ["single-graph", "3-segments", "served"])
    def test_filtered(self, low_layouts, low_queries, layout, share, l):
        must = low_layouts["3-segments" if layout == "served" else layout]
        admitted = int(share * LOW_N)
        flt = Range("rank", high=admitted - 1)
        typed = [Query(q, filter=flt) for q in low_queries]
        opts = SearchOptions(k=K, l=l)
        if layout == "served":
            with must.serve(max_batch=len(typed), max_wait_ms=20.0) as svc:
                futures = [svc.submit(q, opts) for q in typed]
                found = [f.result(60) for f in futures]
        else:
            found = must.query(typed, opts).results
        truth = must.query(typed, SearchOptions(k=K, exact=True)).results
        if must.is_segmented:
            view = must.segments.view()
            oracle = [heap_view_search(view, q, K, l) for q in typed]
            scanned = all(
                min(l, seg.n) >= flt.mask(seg.space.vectors.attributes).sum()
                for seg in view.segments
            )
        else:
            oracle = [heap_search(must.index, q, K, l) for q in typed]
            scanned = l >= admitted
        assert _recall(found, truth) >= _recall(oracle, truth) - LOW_SLACK
        for got, ref in zip(found, truth):
            assert len(got) == K and (got.ids < LOW_N).all()
            if scanned:
                np.testing.assert_array_equal(np.sort(got.ids), np.sort(ref.ids))
                assert got.stats.hops == 0

    @pytest.mark.parametrize("l", [20, 100])
    @pytest.mark.parametrize("share", [0.1, 0.01])
    def test_tombstoned(self, low_layouts, low_queries, share, l):
        graph = low_layouts["single-graph"].index
        dead = np.ones(LOW_N, dtype=bool)
        dead[np.random.default_rng(23).permutation(LOW_N)[: int(share * LOW_N)]] = False
        holed = dataclasses.replace(graph, deleted=dead)
        found, _ = graph_wave_search(holed, low_queries, K, l)
        truth = [
            stable_oracle(graph.space, q, K, deleted=dead) for q in low_queries
        ]
        oracle = [heap_search(holed, q, K, l) for q in low_queries]
        assert _recall(found, truth) >= _recall(oracle, truth) - LOW_SLACK
        for q, got, ref in zip(low_queries, found, truth):
            assert not dead[got.ids].any()
            lone = joint_search(holed, q, k=K, l=l)
            np.testing.assert_array_equal(lone.ids, got.ids)
            np.testing.assert_array_equal(lone.similarities, got.similarities)
            if l >= share * LOW_N:
                np.testing.assert_array_equal(got.ids, ref.ids)
