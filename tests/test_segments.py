"""Randomized-trace parity suite for the segmented dynamic-update subsystem.

Replays random interleaved insert/delete/search/compact traces (seeded via
``SeedSequence`` children) against a brute-force oracle that stores every
object ever inserted in external-id order with an alive mask.  At **every
step of every trace**:

* exact-mode segmented search must be **bit-identical** to the oracle
  (ids and similarities — both sides score through the
  layout-independent kernel), and
* segmented graph search must reach recall@10 ≥ 0.9 against the oracle.

Plus unit coverage of the policy triggers (seal threshold, segment-count
compaction, tombstone-ratio compaction), id-map stability, the
executor parity guarantees on segmented instances, the scanned
probe (a segment the beam already covers is scored end to end instead
of traversed), whose oracle is the traversal itself, and the delta as
an append buffer: no graph, scanned under every beam.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import MUST
from repro.core.multivector import MultiVector, MultiVectorSet, normalize_rows
from repro.core.query import Eq, Query, Range, SearchOptions, compile_filter
from repro.core.results import SearchStats
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index import segments as segments_module
from repro.index.base import reseat_on_store
from repro.index.graphs.hnsw import HNSWBuilder
from repro.index.pipeline import FusedIndexBuilder
from repro.index.flat import FlatIndex
from repro.index.scoring import batch_score_all, rerank_exact
from repro.index.segments import (
    Segment,
    SegmentedIndex,
    SegmentPolicy,
    SegmentView,
    beam_covers,
)
from repro.sparse.hybrid import hybrid_union_rescore
from repro.sparse.synthetic import synthetic_hybrid
from repro.store import ScalarQuantStore, VectorStore, make_store

from tests.conftest import (
    heap_view_search,
    oracle_scores,
    random_multivector_set,
    random_query,
    stable_oracle,
)

DIMS = (8, 6)
WEIGHTS = Weights([0.5, 0.5])


def _objects(n: int, rng: np.random.Generator) -> MultiVectorSet:
    return MultiVectorSet(
        [normalize_rows(rng.standard_normal((n, d)).astype(np.float32))
         for d in DIMS]
    )


class Oracle:
    """Ground truth: every object ever inserted, in external-id order."""

    def __init__(self, objects: MultiVectorSet):
        self.mats = [m.copy() for m in objects.matrices]
        self.alive = np.ones(objects.n, dtype=bool)

    def insert(self, objects: MultiVectorSet) -> None:
        self.mats = [
            np.concatenate([old, new])
            for old, new in zip(self.mats, objects.matrices)
        ]
        self.alive = np.concatenate(
            [self.alive, np.ones(objects.n, dtype=bool)]
        )

    def delete(self, ext_ids: np.ndarray) -> None:
        self.alive[np.asarray(ext_ids)] = False

    @property
    def num_active(self) -> int:
        return int(self.alive.sum())

    def search(self, query, k: int):
        return stable_oracle(
            JointSpace(MultiVectorSet(self.mats), WEIGHTS), query, k,
            deleted=~self.alive,
        )


def _policy() -> SegmentPolicy:
    return SegmentPolicy(
        seal_size=12, max_segments=3,
        max_deleted_fraction=0.35, min_compact_size=24,
    )


def _fresh(n0: int = 40, seed: int = 11) -> tuple[MUST, Oracle]:
    objects = random_multivector_set(n0, DIMS, seed=seed)
    must = MUST(
        objects,
        weights=WEIGHTS,
        builder=FusedIndexBuilder(gamma=8, seed=3),
        segment_policy=_policy(),
    )
    must.build()
    oracle = Oracle(objects)
    return must, oracle


class TestRandomizedTraceParity:
    """The archetype suite: N random traces, parity asserted at every step."""

    N_TRACES = 3
    N_OPS = 22
    K = 10
    L = 80

    def _check_step(self, must: MUST, oracle: Oracle, queries) -> None:
        k = min(self.K, oracle.num_active)
        hits = total = 0
        for q in queries:
            exact_oracle = oracle.search(q, k)
            exact_seg = must.query(q, SearchOptions(k=k, exact=True))
            # Exact path: bit-identical, regardless of segment layout.
            np.testing.assert_array_equal(exact_seg.ids, exact_oracle.ids)
            np.testing.assert_array_equal(
                exact_seg.similarities, exact_oracle.similarities
            )
            approx = must.query(q, SearchOptions(k=k, l=self.L))
            assert approx.stats.segments_probed >= 1
            hits += np.intersect1d(approx.ids, exact_oracle.ids).size
            total += len(exact_oracle)
        assert hits / total >= 0.9, "graph-path recall@10 below 0.9"

    @pytest.mark.parametrize("trace_id", range(N_TRACES))
    def test_trace(self, trace_id):
        root = np.random.SeedSequence(20240)
        rng = np.random.default_rng(root.spawn(self.N_TRACES)[trace_id])
        must, oracle = _fresh(seed=100 + trace_id)
        queries = [random_query(DIMS, seed=1000 + trace_id * 10 + j)
                   for j in range(4)]
        # Enter streaming mode (wraps the built graph as sealed segment 0).
        warmup = _objects(5, rng)
        must.insert(warmup)
        oracle.insert(warmup)
        self._check_step(must, oracle, queries)

        for _ in range(self.N_OPS):
            op = rng.choice(
                ["insert", "delete", "compact", "search"],
                p=[0.40, 0.25, 0.10, 0.25],
            )
            if op == "insert":
                batch = _objects(int(rng.integers(1, 9)), rng)
                ext = must.insert(batch)
                oracle.insert(batch)
                assert ext.size == batch.n
            elif op == "delete":
                active = must.segments.active_ext_ids()
                # Keep at least two objects alive.
                max_kill = max(min(active.size - 2, 6), 0)
                if max_kill == 0:
                    continue
                count = int(rng.integers(1, max_kill + 1))
                doomed = rng.choice(active, size=count, replace=False)
                must.mark_deleted(doomed)
                oracle.delete(doomed)
            elif op == "compact":
                _, active = must.compact()
                np.testing.assert_array_equal(
                    active, np.flatnonzero(oracle.alive)
                )
            self._check_step(must, oracle, queries)

        # The trace must actually have exercised the lifecycle.
        seg = must.segments
        assert seg.num_seals + seg.num_compactions > 0

    def test_traces_are_deterministic(self):
        must, oracle = _fresh(seed=7)
        must.insert(_objects(15, np.random.default_rng(3)))
        q = random_query(DIMS, seed=5)
        a = must.query(q, SearchOptions(k=10, l=60))
        b = must.query(q, SearchOptions(k=10, l=60))
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.similarities, b.similarities)


class TestLayoutInvariance:
    """Same corpus, different segment layouts → identical exact answers."""

    def test_exact_independent_of_layout(self):
        corpus = random_multivector_set(90, DIMS, seed=42)
        q = random_query(DIMS, seed=2)

        # Layout A: everything in one sealed segment.
        one = SegmentedIndex(
            WEIGHTS, builder=FusedIndexBuilder(gamma=8, seed=3),
            policy=SegmentPolicy(seal_size=1000),
        )
        one.insert(corpus)
        one.seal_delta()

        # Layout B: three segments of very different sizes + live delta.
        many = SegmentedIndex(
            WEIGHTS, builder=FusedIndexBuilder(gamma=8, seed=3),
            policy=SegmentPolicy(seal_size=1000, max_segments=10),
        )
        for lo, hi in ((0, 50), (50, 71), (71, 84)):
            many.insert(corpus.subset(np.arange(lo, hi)))
            many.seal_delta()
        many.insert(corpus.subset(np.arange(84, 90)))  # stays in the delta

        for k in (1, 10, 25):
            (a,) = one.view().exact_wave([q], k)
            (b,) = many.view().exact_wave([q], k)
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.similarities, b.similarities)

    def test_deletes_respected_in_both_layouts(self):
        corpus = random_multivector_set(40, DIMS, seed=8)
        seg = SegmentedIndex(
            WEIGHTS, builder=FusedIndexBuilder(gamma=8, seed=3),
            policy=SegmentPolicy(seal_size=20, max_segments=10),
        )
        seg.insert(corpus)
        doomed = np.array([1, 5, 21, 33])
        seg.mark_deleted(doomed)
        q = random_query(DIMS, seed=3)
        view = seg.view()
        for res in (
            view.exact_wave([q], 15)[0], view.graph_wave([q], k=15, l=40)[0][0]
        ):
            assert not (set(res.ids.tolist()) & set(doomed.tolist()))


class TestPolicyTriggers:
    def _seg(self, **kwargs) -> SegmentedIndex:
        defaults = dict(seal_size=10, max_segments=2,
                        max_deleted_fraction=0.3, min_compact_size=15)
        defaults.update(kwargs)
        return SegmentedIndex(
            WEIGHTS, builder=FusedIndexBuilder(gamma=6, seed=1),
            policy=SegmentPolicy(**defaults),
        )

    def test_delta_seals_at_threshold(self):
        seg = self._seg()
        rng = np.random.default_rng(0)
        seg.insert(_objects(9, rng))
        assert seg.num_seals == 0 and seg.delta.n == 9
        seg.insert(_objects(1, rng))
        assert seg.num_seals == 1 and seg.delta.n == 0
        assert len(seg.sealed) == 1
        seg.sealed[-1].index.validate()

    def test_segment_count_triggers_merge_compaction(self):
        seg = self._seg(max_segments=2, min_compact_size=10_000)
        rng = np.random.default_rng(1)
        for _ in range(3):  # three seals → count trigger fires
            seg.insert(_objects(10, rng))
        assert seg.num_compactions == 1
        assert len(seg.sealed) == 1 and seg.sealed[0].n == 30
        seg.sealed[0].index.validate()

    def test_tombstone_ratio_triggers_compaction(self):
        seg = self._seg(seal_size=100, max_segments=10, min_compact_size=15)
        rng = np.random.default_rng(2)
        seg.insert(_objects(30, rng))
        seg.mark_deleted(np.arange(5))
        assert seg.num_compactions == 0  # 5/30 < 0.3
        seg.mark_deleted(np.arange(5, 12))
        assert seg.num_compactions == 1  # 12/30 > 0.3 → auto-rebuild
        assert seg.num_total == 18 and seg.deleted_fraction == 0.0
        np.testing.assert_array_equal(
            seg.active_ext_ids(), np.arange(12, 30)
        )

    def test_small_corpora_ignore_ratio_trigger(self):
        seg = self._seg(min_compact_size=50)
        rng = np.random.default_rng(3)
        seg.insert(_objects(8, rng))
        seg.mark_deleted(np.arange(4))  # 50% dead but below min size
        assert seg.num_compactions == 0

    def test_seal_reseats_deleted_seed(self):
        seg = self._seg(seal_size=10_000, max_segments=10,
                        min_compact_size=10_000)
        rng = np.random.default_rng(4)
        seg.insert(_objects(20, rng))
        # Kill most of the delta so the centroid seed is likely dead,
        # then seal: the sealed segment must still validate (live seed).
        seg.mark_deleted(np.arange(15))
        sealed = seg.seal_delta()
        sealed.index.validate()
        assert not sealed.index.deleted[sealed.index.seed_vertex]

    def test_fully_dead_delta_is_discarded_on_seal(self):
        seg = self._seg(seal_size=10_000, min_compact_size=10_000)
        rng = np.random.default_rng(5)
        seg.insert(_objects(6, rng))
        seg.seal_delta()
        seg.insert(_objects(4, rng))
        seg.mark_deleted(np.arange(6, 10))  # the whole delta
        assert seg.seal_delta() is None
        assert len(seg.sealed) == 1 and seg.delta.n == 0


class TestIdMapAndGuards:
    def test_external_ids_stable_across_compaction(self):
        must, _ = _fresh(n0=30, seed=1)
        ext = must.insert(_objects(10, np.random.default_rng(0)))
        np.testing.assert_array_equal(ext, np.arange(30, 40))
        must.mark_deleted(np.array([0, 35]))
        _, active = must.compact()
        assert 0 not in active and 35 not in active
        # Ids never reused: the next insert continues after 39.
        ext2 = must.insert(_objects(3, np.random.default_rng(1)))
        np.testing.assert_array_equal(ext2, np.arange(40, 43))

    def test_unknown_delete_rejected(self):
        must, _ = _fresh(n0=20, seed=2)
        must.insert(_objects(5, np.random.default_rng(0)))
        with pytest.raises(ValueError):
            must.mark_deleted(np.array([999]))

    def test_cannot_delete_every_object(self):
        seg = SegmentedIndex(WEIGHTS, builder=FusedIndexBuilder(gamma=6))
        seg.insert(_objects(5, np.random.default_rng(0)))
        with pytest.raises(ValueError):
            seg.mark_deleted(np.arange(5))

    def test_rejected_delete_leaves_state_unchanged(self):
        """A failed mark_deleted must be atomic: no partial tombstones."""
        seg = SegmentedIndex(
            WEIGHTS, builder=FusedIndexBuilder(gamma=6),
            policy=SegmentPolicy(seal_size=10),
        )
        seg.insert(_objects(25, np.random.default_rng(0)))  # sealed + delta
        with pytest.raises(ValueError):
            seg.mark_deleted(np.array([3, 12, 999]))  # 999 unknown
        assert seg.num_active == 25
        with pytest.raises(ValueError):
            seg.mark_deleted(np.arange(25))  # would kill everything
        assert seg.num_active == 25
        np.testing.assert_array_equal(seg.active_ext_ids(), np.arange(25))

    def test_build_refused_after_streaming(self):
        """build() would silently drop streamed objects and recycle their
        external ids — it must refuse and point at compact()."""
        must, _ = _fresh(n0=20, seed=9)
        must.insert(_objects(4, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="compact"):
            must.build()
        # The streamed objects are still there.
        assert must.segments.num_active == 24

    def test_fit_weights_refused_after_streaming(self):
        must, _ = _fresh(n0=20, seed=10)
        must.insert(_objects(4, np.random.default_rng(0)))
        q = random_query(DIMS, seed=0)
        with pytest.raises(ValueError, match="streaming"):
            must.fit_weights([q], np.array([1]))
        assert must.weight_result is None  # guard fired before training

    def test_dim_mismatch_rejected(self):
        must, _ = _fresh(n0=20, seed=3)
        bad = MultiVectorSet([
            normalize_rows(np.random.default_rng(0)
                           .standard_normal((2, 5)).astype(np.float32)),
            normalize_rows(np.random.default_rng(1)
                           .standard_normal((2, 6)).astype(np.float32)),
        ])
        with pytest.raises(ValueError):
            must.insert(bad)

    def test_empty_segmented_search(self):
        view = SegmentedIndex(WEIGHTS).view()
        results, _ = view.graph_wave([random_query(DIMS, seed=0)], k=5, l=10)
        assert len(results[0]) == 0
        assert len(view.exact_wave([random_query(DIMS, seed=0)], 5)[0]) == 0

    def test_weights_frozen_after_streaming(self):
        must, _ = _fresh(n0=20, seed=4)
        must.insert(_objects(4, np.random.default_rng(0)))
        with pytest.raises(ValueError):
            must.set_weights(Weights([0.9, 0.1]))


class TestExecutorParityOnSegments:
    def _streamed(self) -> MUST:
        must, _ = _fresh(n0=50, seed=6)
        must.insert(_objects(25, np.random.default_rng(0)))
        must.mark_deleted(np.arange(0, 20, 4))
        return must

    def test_graph_batch_bit_identical_to_per_query_loop(self):
        """The batch is the per-query loop of lone waves, bit for bit."""
        must = self._streamed()
        queries = [random_query(DIMS, seed=s) for s in range(8)]
        run = must.query(queries, SearchOptions(k=10, l=60))
        view = must.segments.view()
        for res, q in zip(run, queries):
            (ref,), _ = view.graph_wave([q], k=10, l=60)
            np.testing.assert_array_equal(res.ids, ref.ids)
            np.testing.assert_array_equal(res.similarities, ref.similarities)
        assert run.stats.segments_probed > 0

    def test_exact_batch_matches_single_query_ranks(self):
        must = self._streamed()
        queries = [random_query(DIMS, seed=s) for s in range(6)]
        batch = must.query(queries, SearchOptions(k=8, exact=True))
        for q, res in zip(queries, batch):
            single = must.query(q, SearchOptions(k=8, exact=True))
            np.testing.assert_array_equal(res.ids, single.ids)
            np.testing.assert_allclose(
                res.similarities, single.similarities, atol=1e-6
            )

    def test_stats_aggregate_counts_probes(self):
        must = self._streamed()
        queries = [random_query(DIMS, seed=s) for s in range(4)]
        run = must.query(queries, SearchOptions(k=5, l=40))
        per_query = sum(r.stats.segments_probed for r in run)
        assert run.stats.segments_probed == per_query
        assert per_query >= len(queries)  # ≥ 1 probe per query


# ----------------------------------------------------------------------
# The scanned probe: a segment the beam already covers is scored end to
# end.  The traversal is the oracle.  Each check runs on the view's
# waves ("wave") and on the heap oracle merged per segment the same way
# ("heap", :func:`tests.conftest.heap_view_search`), which the recall
# suites compare the wave against.
# ----------------------------------------------------------------------
SCAN_K, SCAN_L = 5, 40
SCAN_BUILDER = FusedIndexBuilder(gamma=8, seed=3)
HYBRID_SHAPE = dict(n_topics=2, groups_per_topic=5, dim=16)


def _scan_corpus(kind: str, n: int, seed: int) -> JointSpace:
    """*n* objects of *kind* with ``parity`` / ``rank`` attributes."""
    if kind == "hybrid":
        data = synthetic_hybrid(
            num_queries=1, seed=seed, group_size=-(-n // 10), **HYBRID_SHAPE
        )
        objects = MultiVectorSet([data.dense.copy()], sparse=data.sparse)
        weights = Weights([1.0])
    else:
        objects = random_multivector_set(n, DIMS, seed=seed)
        weights = WEIGHTS
    objects = objects.subset(np.arange(n)).set_attributes(
        {"parity": np.arange(n) % 2, "rank": np.arange(n)}
    )
    return JointSpace(objects, weights)


def _scan_segment(kind: str, n: int, seed: int) -> Segment:
    """One sealed segment of *n* objects over ``range(1000, 1000 + n)``."""
    index = SCAN_BUILDER.build(_scan_corpus(kind, n, seed))
    if kind == "pq":
        index = reseat_on_store(index, "pq", {"pq_dims": 2, "seed": 3})
    return Segment(index, np.arange(1000, 1000 + n))


def _scan_queries(kind: str) -> list[Query]:
    if kind != "hybrid":
        return [Query(random_query(DIMS, seed=s)) for s in range(6)]
    data = synthetic_hybrid(
        num_queries=6, seed=1, group_size=3, **HYBRID_SHAPE
    )
    return [
        Query(
            MultiVector.from_arrays([data.query_dense[i]]),
            sparse=data.query_sparse[i],
            sparse_weight=0.8,
        )
        for i in range(6)
    ]


#: case -> (corpus kind, tombstones, query filter, plan)
SCAN_CASES = {
    "dense": ("dense", False, None, {}),
    "pq": ("pq", False, None, {}),
    "hybrid": ("hybrid", False, None, {}),
    "filtered": ("dense", False, Eq("parity", 0), {}),
    "tombstoned": ("dense", True, None, {}),
    "early_termination": ("dense", False, None, {"early_termination": True}),
    "refine": ("pq", True, None, {"refine": 4}),
}


def _admissible(seg: Segment, query: Query) -> np.ndarray:
    admissible = np.ones(seg.n, dtype=bool)
    if seg.index.deleted is not None:
        admissible &= ~seg.index.deleted
    if query.filter is not None:
        admissible &= compile_filter(query.filter, seg.space.vectors.attributes)
    return admissible


def _brute_force(
    seg: Segment,
    query: Query,
    refine: int | None,
    k: int = SCAN_K,
    l: int = SCAN_L,
):
    """The probe's contract, spelled out: the engine's scorer over every
    vertex, the best ``min(l, admissible)`` admissible ones, then the
    probe's own finalise (fusion, or the view's rerank) and the cut."""
    space, n = seg.space, seg.n
    if query.k is not None:
        k, l = query.k, max(l, query.k)
    admissible = _admissible(seg, query)
    cand = np.flatnonzero(admissible)
    sims = oracle_scores(space, query.vector, np.arange(n), None, SearchStats())
    pool = cand[np.lexsort((cand, -sims[cand]))][:l]
    if query.sparse is not None and pool.size:
        ids, out = hybrid_union_rescore(
            space, query, pool, min(l, seg.num_active),
            admissible=admissible,
        )
    elif refine is not None:
        keep = min(refine * k, pool.size)
        ids, out = rerank_exact(space, query.vector, pool[:keep], keep)
    else:
        ids, out = pool, sims[pool]
    return seg.ext_ids[ids[:k]], out[:k]


def _reached_every_vertex(res, n: int) -> bool:
    """The traversal scored the whole segment (rerank evaluations
    aside), so its answer is the one the scan must reproduce."""
    return n <= SCAN_L or res.stats.joint_evals - res.stats.reranked == n


def _probe(
    view: SegmentView, engine: str, queries, plan,
    k: int = SCAN_K, l: int = SCAN_L,
):
    if engine == "wave":
        return view.graph_wave(queries, k=k, l=l, **plan)[0]
    return [heap_view_search(view, q, k, l, **plan) for q in queries]


class TestScannedProbe:
    @pytest.mark.parametrize("n", [30, 60])
    @pytest.mark.parametrize("engine", ["wave", "heap"])
    @pytest.mark.parametrize("case", list(SCAN_CASES))
    def test_scan_equals_brute_force_and_the_traversal(
        self, case, engine, n, monkeypatch
    ):
        kind, tombstones, flt, plan = SCAN_CASES[case]
        seg = _scan_segment(kind, n, seed=n)
        if tombstones:
            seg.index.mark_deleted(np.arange(0, n, 3))
        queries = [
            dataclasses.replace(q, filter=flt) for q in _scan_queries(kind)
        ]
        view = SegmentView([seg])
        assert beam_covers(SCAN_L, n)

        scanned = _probe(view, engine, queries, plan)
        monkeypatch.setattr(segments_module, "beam_covers", lambda l, n: False)
        traversed = _probe(view, engine, queries, plan)

        reached = 0
        for query, got, oracle in zip(queries, scanned, traversed):
            assert got.stats.segments_scanned == 1 and got.stats.hops == 0
            assert oracle.stats.segments_scanned == 0
            ids, sims = _brute_force(seg, query, plan.get("refine"))
            np.testing.assert_array_equal(got.ids, ids)
            np.testing.assert_allclose(got.similarities, sims, atol=1e-6)
            reportable = int(_admissible(seg, query).sum())
            if engine == "wave" and min(SCAN_L, n) >= reportable < n:
                # The engine's own cut-over: a row whose beam reaches
                # what it can report is scanned wherever it is asked.
                assert oracle.stats.hops == 0
                np.testing.assert_array_equal(oracle.ids, got.ids)
                np.testing.assert_array_equal(
                    oracle.similarities, got.similarities
                )
                reached += 1
                continue
            assert oracle.stats.hops > 0
            if kind == "hybrid" and n > SCAN_L:
                continue  # the fusion's own evaluations hide the count
            if not _reached_every_vertex(oracle, n):
                continue
            reached += 1
            np.testing.assert_array_equal(got.ids, oracle.ids)
            row_wise = engine == "wave" or "early_termination" in plan
            if row_wise or n <= SCAN_L or "refine" in plan:
                np.testing.assert_array_equal(
                    got.similarities, oracle.similarities
                )
            else:
                # The heap oracle's concat path is a BLAS GEMV, whose
                # float32 rounding depends on how many rows one call
                # carries; past the init the traversal's calls are
                # hop-sized and the scan's is not.
                np.testing.assert_allclose(
                    got.similarities, oracle.similarities, atol=1e-6
                )
        if kind != "hybrid" or n <= SCAN_L:
            assert reached >= len(queries) // 2, "oracle never reached all"

    @pytest.mark.parametrize("engine", ["wave", "heap"])
    def test_boundary_is_the_rest_of_the_segment(self, engine):
        query = [Query(random_query(DIMS, seed=0))]
        at = SegmentView([_scan_segment("dense", 2 * SCAN_L, seed=1)])
        past = SegmentView([_scan_segment("dense", 2 * SCAN_L + 1, seed=1)])
        (got,) = _probe(at, engine, query, {})
        assert (got.stats.hops, got.stats.segments_scanned) == (0, 1)
        assert got.stats.joint_evals == 2 * SCAN_L
        (got,) = _probe(past, engine, query, {})
        assert got.stats.hops > 0 and got.stats.segments_scanned == 0
        assert got.stats.segments_probed == 1

    @pytest.mark.parametrize("engine", ["wave", "heap"])
    def test_nothing_admissible_answers_empty(self, engine):
        dead = _scan_segment("dense", 30, seed=5)
        segments_module._mark_local(dead.index, np.arange(30))
        live = _scan_segment("dense", 30, seed=6)
        live.ext_ids = live.ext_ids + 100
        view = SegmentView([dead, live])
        plain = Query(random_query(DIMS, seed=0))
        nothing = dataclasses.replace(plain, filter=Eq("parity", 7))
        got, empty = _probe(view, engine, [plain, nothing], {})
        assert len(got) == SCAN_K and (got.ids >= 1100).all()
        assert got.stats.segments_probed == 1  # the dead one is skipped
        assert len(empty) == 0 and empty.stats.joint_evals == 0

    def test_a_mixed_plan_is_composition_independent(self):
        """n = 250, l = 100: ``Query(k=130)`` carries its own beam of
        130, which covers the segment, while its wave-mates' beam of 100
        does not — one lockstep call holds both kinds of row."""
        builder = FusedIndexBuilder(gamma=8, epsilon=1, max_candidates=16)
        policy = SegmentPolicy(seal_size=64, max_segments=8)
        opts = SearchOptions(k=10, l=100, engine="wave")

        def build(n: int) -> MUST:
            return MUST(
                random_multivector_set(n, DIMS, seed=n),
                weights=WEIGHTS, builder=builder, segment_policy=policy,
            ).build()

        must = build(250)
        must.insert(_objects(10, np.random.default_rng(0)))
        assert [s.n for s in must.segments.view().segments] == [250, 10]
        requests = [Query(random_query(DIMS, seed=s)) for s in range(5)]
        requests[2] = dataclasses.replace(requests[2], k=130)

        alone = [must.query(q, opts) for q in requests]
        assert [r.stats.segments_scanned for r in alone] == [1, 1, 2, 1, 1]
        assert [len(r) for r in alone] == [10, 10, 130, 10, 10]
        assert alone[2].stats.hops == 0 and alone[1].stats.hops > 0
        batched = must.query(requests, opts)
        assert batched.stats.segments_scanned == 6
        backward = must.query(requests[::-1], opts).results[::-1]
        with must.serve(max_batch=8, max_wait_ms=20.0) as svc:
            futures = [svc.submit(q, opts) for q in requests]
            served = [f.result(60) for f in futures]
        for ref, *others in zip(alone, batched, backward, served):
            for got in others:
                np.testing.assert_array_equal(got.ids, ref.ids)
                np.testing.assert_array_equal(
                    got.similarities, ref.similarities
                )
                assert got.stats.hops == ref.stats.hops
                assert got.stats.joint_evals == ref.stats.joint_evals


#: never seals and never compacts: whatever is inserted stays delta rows.
BUFFER_ONLY = SegmentPolicy(seal_size=10_000, max_deleted_fraction=1.0)

#: case -> (corpus kind, tombstoned share, per-query overrides, plan)
DELTA_CASES = {
    "dense": ("dense", 0.0, {}, {}),
    "hybrid": ("hybrid", 0.0, {}, {}),
    "filtered": ("dense", 0.0, {"filter": Eq("parity", 0)}, {}),
    "tombstoned": ("dense", 0.35, {}, {}),
    "early_termination": ("dense", 0.0, {}, {"early_termination": True}),
    "k_override": ("dense", 0.0, {"k": 17}, {}),
}


def _delta_only(kind: str, n: int) -> SegmentedIndex:
    """*n* objects in the delta (external ids ``0..n-1``), nothing sealed."""
    corpus = _scan_corpus(kind, n, seed=n)
    index = SegmentedIndex(corpus.weights, policy=BUFFER_ONLY)
    index.insert(corpus.vectors)
    return index


def _assert_exact_probe(index: SegmentedIndex, queries, plan, k: int, l: int):
    """The wave's probe of a delta-only *index*, and the oracle's, is
    the brute-force top of its admissible rows, reached without a hop."""
    view = index.view()
    for engine in ("heap", "wave"):
        for query, got in zip(queries, _probe(view, engine, queries, plan, k, l)):
            assert got.stats.hops == 0 and got.stats.waves == 0
            if index.num_active == 0:
                assert len(got) == 0
                continue
            (seg,) = view.segments
            ids, sims = _brute_force(seg, query, None, k=k, l=l)
            np.testing.assert_array_equal(got.ids, ids)
            np.testing.assert_allclose(got.similarities, sims, atol=1e-6)
            if ids.size == 0:
                assert got.stats.joint_evals == 0
                continue
            assert got.stats.segments_scanned == 1
            evals = got.stats.joint_evals - got.stats.reranked
            # A hybrid probe also rescores its fused candidate union.
            assert evals >= seg.n if query.sparse is not None else evals == seg.n


class TestDeltaBuffer:
    @pytest.mark.parametrize("n", [1, 30, 90, 260])
    @pytest.mark.parametrize("case", list(DELTA_CASES))
    def test_probe_is_exact_for_any_beam(self, case, n):
        kind, dead_share, overrides, plan = DELTA_CASES[case]
        index = _delta_only(kind, n)
        dead = np.random.default_rng(n).permutation(n)[:int(dead_share * n)]
        if dead.size:
            index.mark_deleted(dead)
        (seg,) = index.view().segments
        assert seg.kind == "delta" and seg.index.num_edges == 0
        queries = [
            dataclasses.replace(q, **overrides) for q in _scan_queries(kind)
        ]
        for l in (SCAN_K, 12, 40, 300):
            _assert_exact_probe(index, queries, plan, SCAN_K, l)

    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(
        n=st.integers(1, 120),
        l=st.integers(SCAN_K, 150),
        dead=st.sets(st.integers(0, 119)),
        threshold=st.integers(-1, 120),
    )
    def test_probe_is_exact_generated(self, n, l, dead, threshold):
        index = _delta_only("dense", n)
        # Rows are external ids here.  Tombstoned on the delta's own
        # bitset, so the index may lose every row (mark_deleted refuses).
        index.delta.deleted[[i for i in dead if i < n]] = True
        queries = [
            dataclasses.replace(q, filter=Range("rank", high=threshold))
            for q in _scan_queries("dense")[:2]
        ]
        _assert_exact_probe(index, queries, {}, SCAN_K, l)

    def test_nothing_on_the_write_path_grows_a_graph(
        self, tmp_path, monkeypatch
    ):
        def grown(*args, **kwargs):
            raise AssertionError("HNSWBuilder.insert reached")

        monkeypatch.setattr(HNSWBuilder, "insert", grown)
        must = MUST(
            random_multivector_set(64, DIMS, seed=1), weights=WEIGHTS,
            builder=SCAN_BUILDER,
            segment_policy=SegmentPolicy(seal_size=32, max_segments=8),
        ).build()
        rng = np.random.default_rng(2)
        for size in (32, 32, 16):
            must.insert(_objects(size, rng))
        segs = must.segments
        assert len(segs.sealed) == 3 and segs.delta.n == 16
        queries = [random_query(DIMS, seed=s) for s in range(3)]
        must.query(queries, SearchOptions(k=5, l=40))
        must.save_index(tmp_path / "saved")
        loaded = MUST.from_saved(tmp_path / "saved", builder=SCAN_BUILDER)
        assert loaded.segments.delta.n == 16
        loaded.insert(_objects(4, rng))
        loaded.query(queries, SearchOptions(k=5, l=8))
        assert loaded.segments.seal_delta().n == 20
        loaded.compact()
        assert len(loaded.segments.sealed) == 1
        assert len(loaded.query(queries[0], SearchOptions(k=5, l=40))) == 5

    @pytest.mark.parametrize("kind", ["dense", "hybrid"])
    def test_resume_from_a_save_mid_delta(self, kind, tmp_path):
        """Rows, ids and bitset are all a delta is: saved part-way,
        reloaded and fed the rest, it answers as if never saved."""
        corpus = _scan_corpus(kind, 90, seed=90)
        rows = corpus.vectors
        policy = SegmentPolicy(seal_size=64, max_segments=8)
        chunks = np.split(np.arange(90), [40, 55, 70])

        def stream(index: SegmentedIndex, upto: slice) -> SegmentedIndex:
            for chunk in chunks[upto]:
                index.insert(rows.subset(chunk))
                index.mark_deleted(chunk[::9])
            return index

        def empty() -> SegmentedIndex:
            return SegmentedIndex(
                corpus.weights, builder=SCAN_BUILDER, policy=policy
            )

        straight = stream(empty(), slice(None))
        stream(empty(), slice(0, 2)).save(tmp_path / "mid")
        resumed = SegmentedIndex.load(tmp_path / "mid", builder=SCAN_BUILDER)
        assert resumed.delta.n == 55 and not resumed.sealed
        stream(resumed, slice(2, None))
        assert [s.n for s in resumed.view().segments] == [70, 20]
        assert resumed.describe() == straight.describe()

        queries = _scan_queries(kind)
        for l in (12, 40):
            for engine in ("heap", "wave"):
                for got, ref in zip(
                    _probe(resumed.view(), engine, queries, {}, l=l),
                    _probe(straight.view(), engine, queries, {}, l=l),
                ):
                    np.testing.assert_array_equal(got.ids, ref.ids)
                    np.testing.assert_array_equal(
                        got.similarities, ref.similarities
                    )
                    assert got.stats.joint_evals == ref.stats.joint_evals
        for got, ref in zip(
            resumed.view().exact_wave(queries, k=SCAN_K),
            straight.view().exact_wave(queries, k=SCAN_K),
        ):
            np.testing.assert_array_equal(got.ids, ref.ids)
            np.testing.assert_array_equal(got.similarities, ref.similarities)

    @pytest.mark.parametrize("engine", ["heap", "wave"])
    def test_nothing_admissible_in_the_delta_answers_empty(self, engine):
        index = _delta_only("dense", 30)
        plain = Query(random_query(DIMS, seed=0))
        nothing = dataclasses.replace(plain, filter=Eq("parity", 7))
        (empty,) = _probe(index.view(), engine, [nothing], {}, l=12)
        assert len(empty) == 0 and empty.stats.joint_evals == 0
        index.delta.deleted[:] = True  # every row; mark_deleted refuses
        (empty,) = _probe(index.view(), engine, [plain], {}, l=12)
        assert len(empty) == 0 and empty.stats.segments_probed == 0


# ----------------------------------------------------------------------
# The one exact kernel: every exact surface is the full-row float64 scan
# ----------------------------------------------------------------------
KERNEL_DIMS = (96, 64)
KERNEL_WEIGHTS = Weights([1.0, 1.0])
KERNEL_BUILDER = FusedIndexBuilder(gamma=8, epsilon=1, max_candidates=16)


def _near_duplicates(norm: float, bases: int = 24, copies: int = 30):
    """*bases* unit directions, each repeated *copies* times a few
    float32 ulps apart and scaled to *norm*: the rows around any top-k
    cut-off differ by less than a float32 product of this length can
    resolve, and by more the larger the rows are."""
    rng = np.random.default_rng(0)
    mats = []
    for d in KERNEL_DIMS:
        base = normalize_rows(rng.standard_normal((bases, d)))
        rows = np.repeat(base, copies, axis=0)
        rows = rows + 3e-7 * rng.standard_normal(rows.shape) / np.sqrt(d)
        mats.append((norm * rows).astype(np.float32))
    shuffle = rng.permutation(bases * copies)
    queries = [
        MultiVector.from_arrays(
            [
                (norm * normalize_rows(rng.standard_normal((1, d)))[0])
                .astype(np.float32)
                for d in KERNEL_DIMS
            ]
        )
        for _ in range(100)
    ]
    return MultiVectorSet([m[shuffle] for m in mats]), queries


class TestExactKernel:
    """Row norm 1 sits inside any safety band; at 30 the float32
    prefilter is off by ~3e-4 and at 1 000 by ~0.3, which an absolute
    band does not cover — the derived one scales with the rows."""

    @pytest.mark.parametrize("layout", ["single-graph", "sealed+delta"])
    @pytest.mark.parametrize("norm", [1.0, 30.0, 1000.0])
    def test_every_exact_surface_is_the_stable_scan(self, norm, layout):
        objects, queries = _near_duplicates(norm)
        built = objects if layout == "single-graph" else objects.subset(
            np.arange(600)
        )
        must = MUST(
            built, weights=KERNEL_WEIGHTS, builder=KERNEL_BUILDER,
            segment_policy=SegmentPolicy(seal_size=600, max_segments=8),
        ).build()
        if layout == "sealed+delta":
            must.insert(objects.subset(np.arange(600, objects.n)))
            kinds = [s.kind for s in must.segments.view().segments]
            assert kinds == ["sealed", "delta"]
        space = JointSpace(objects, KERNEL_WEIGHTS)
        opts = SearchOptions(k=10, exact=True)
        snap = must.snapshot()
        surfaces = {
            "batch": must.query(queries, opts).results,
            "backward": must.query(queries[::-1], opts).results[::-1],
            "lone": [must.query(q, opts) for q in queries],
            "snapshot": [snap.query(q, opts) for q in queries],
            "snapshot wave": snap.exact_wave(queries, 10),
        }
        for j, query in enumerate(queries):
            ref = stable_oracle(space, query, 10)
            for name, answers in surfaces.items():
                np.testing.assert_array_equal(
                    answers[j].ids, ref.ids, err_msg=f"{name}, query {j}"
                )
                np.testing.assert_array_equal(
                    answers[j].similarities, ref.similarities,
                    err_msg=f"{name}, query {j}",
                )


class _DecliningStore(ScalarQuantStore):
    """A backend that proves nothing about its float32 wave."""

    batch_scores_bound = VectorStore.batch_scores_bound


def _kernel_store(kind: str, mats: list[np.ndarray]) -> VectorStore:
    if kind == "declines":
        quant = ScalarQuantStore.from_matrices(mats)
        return _DecliningStore.from_arrays(quant.store_meta(), quant.to_arrays())
    options = {"pq_iters": 2} if kind == "pq" else {}
    return make_store(kind, mats, **options)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    kind=st.sampled_from(["none", "int8", "pq", "declines"]),
    dims=st.lists(st.integers(1, 256), min_size=1, max_size=3),
    exponent=st.floats(-3.0, 3.0),
    copies=st.integers(1, 6),
    skew=st.floats(0.01, 1.0),
    override=st.booleans(),
    k=st.integers(1, 12),
    refine=st.sampled_from([None, 1, 3]),
    filtered=st.booleans(),
    dead=st.sets(st.integers(0, 47), max_size=30),
    seed=st.integers(0, 2**16),
)
def test_the_shortlist_covers_the_exact_top(
    kind, dims, exponent, copies, skew, override, k, refine, filtered,
    dead, seed,
):
    """Whatever the corpus looks like, the rows the kernel re-scores in
    float64 include every row of the oracle's top ``p`` — and are every
    admissible row where the store proves no bound."""
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    n = 8 * copies
    mats = [
        (
            scale
            * np.repeat(rng.standard_normal((8, d)), copies, axis=0)
            * (1.0 + 1e-7 * rng.standard_normal((n, 1)))
        ).astype(np.float32)
        for d in dims
    ]
    squared = np.array([skew**i for i in range(len(dims))])
    weights = Weights(squared / squared.sum())
    store = _kernel_store(kind, mats)
    vectors = MultiVectorSet.from_store(
        store, attributes={"parity": np.arange(n) % 2}
    )
    space = JointSpace(vectors, weights)
    deleted = np.zeros(n, dtype=bool)
    deleted[[i for i in dead if i < n]] = True
    ext_ids = rng.permutation(n) + 100
    query = Query(
        MultiVector.from_arrays(
            [(scale * rng.standard_normal(d)).astype(np.float32) for d in dims]
        ),
        filter=Eq("parity", 0) if filtered else None,
        weights=Weights(squared[::-1] / squared.sum()) if override else None,
    )

    rescored: list[np.ndarray] = []
    stable = space.query_ids_stable

    def spy(vector, ids=None, **kwargs):
        rescored.append(np.arange(n) if ids is None else np.asarray(ids))
        return stable(vector, ids, **kwargs)

    space.query_ids_stable = spy
    flat = FlatIndex(space, deleted=deleted, ids=ext_ids)
    got = flat.search(query, k, refine=refine)
    del space.query_ids_stable
    (shortlist,) = rescored

    admissible = ~deleted
    if filtered:
        admissible &= np.arange(n) % 2 == 0
    admissible = np.flatnonzero(admissible)
    sims = stable(query.vector, weights=query.weights)[admissible]
    p = k if refine is None else refine * k
    order = np.lexsort((ext_ids[admissible], -sims))[:p]
    assert np.isin(admissible[order], shortlist).all()
    assert np.isin(shortlist, admissible).all()
    eps = np.zeros(1)
    batch_score_all(space, [query.vector], [query.weights], bounds=eps)
    assert np.isfinite(eps[0]) == (kind != "declines")
    if kind == "declines":
        np.testing.assert_array_equal(shortlist, admissible)
    if refine is None:
        np.testing.assert_array_equal(got.ids, ext_ids[admissible[order]])
        np.testing.assert_array_equal(got.similarities, sims[order])
