"""Hybrid dense+lexical end-to-end suite.

What must hold, per the subsystem's acceptance gates:

* **engine parity** — the inverted posting-list engine answers
  bit-identically (ids *and* similarities) to the brute-force CSR
  oracle on every deployment surface: flat and segmented layouts,
  batches of one and four queries, graph and exact plans, through
  :class:`MustService` and :class:`ShardedService`, and while
  insert/delete/compact churn the corpus;
* **layout independence** — the exact hybrid answer is bitwise equal
  between a flat build and a segmented build of the same corpus
  (integer term frequencies make the summed statistics exact in
  float64, so the stamped global stats agree across layouts);
* **recall lift** — on the planted two-level corpus, hybrid fusion
  strictly beats dense-only recall@k (dense resolves the topic, only
  the rare lexical terms pin the group);
* **manifest v4** — a segmented corpus with a sparse plane round-trips
  through save/load bitwise, while dense-only corpora keep writing v2
  archives loadable by older builds;
* **registry validation** — typo'd metric/engine names fail at
  construction with did-you-mean errors, and non-IP dense metrics are
  served by the exact paths against a numpy reference.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.framework import MUST
from repro.core.multivector import (
    MultiVector,
    MultiVectorSet,
    normalize_rows,
)
from repro.core.query import Eq, Query, SearchOptions
from repro.core.registry import dense_score_rows
from repro.core.weights import Weights
from repro.index.graph_wave import bookkeeping, graph_wave_search
from repro.index.pipeline import FusedIndexBuilder
from repro.index.search import joint_search
from repro.index.segments import MANIFEST_NAME, SegmentPolicy
from repro.service import MustService, ServiceConfig, ShardedService
from repro.sparse.synthetic import synthetic_hybrid

pytest.importorskip("scipy.sparse")

K = 10
L = 60
#: shape knobs shared by the corpus and every churn chunk — vocabulary
#: size is a function of these, and inserted objects must carry the
#: corpus vocabulary.
SHAPE = dict(n_topics=4, groups_per_topic=4, group_size=8, dim=24)
CHEAP_BUILDER = FusedIndexBuilder(gamma=8, epsilon=1, max_candidates=16)


@pytest.fixture(scope="module")
def dataset():
    return synthetic_hybrid(num_queries=10, seed=3, **SHAPE)


@pytest.fixture(scope="module")
def hybrid_queries(dataset):
    return [
        Query(
            MultiVector.from_arrays([dataset.query_dense[i]]),
            sparse=dataset.query_sparse[i],
            sparse_weight=0.8,
        )
        for i in range(dataset.num_queries)
    ]


def churn_chunk(seed: int) -> MultiVectorSet:
    """A small insertable corpus slice sharing the fixture vocabulary."""
    extra = synthetic_hybrid(
        num_queries=1, seed=seed, **{**SHAPE, "group_size": 2}
    )
    return MultiVectorSet([extra.dense.copy()], sparse=extra.sparse)


def flat_must(dataset) -> MUST:
    return MUST(
        MultiVectorSet([dataset.dense.copy()], sparse=dataset.sparse),
        weights=Weights([1.0]),
        builder=CHEAP_BUILDER,
    ).build()


def segmented_must(dataset, churn: bool = True) -> MUST:
    must = MUST(
        MultiVectorSet([dataset.dense.copy()], sparse=dataset.sparse),
        weights=Weights([1.0]),
        builder=CHEAP_BUILDER,
        segment_policy=SegmentPolicy(
            seal_size=32, max_segments=8, max_deleted_fraction=0.9
        ),
    ).build()
    if churn:
        must.insert(churn_chunk(seed=90))
        must.mark_deleted(np.arange(0, 24, 5))
    return must


def assert_same(got, oracle) -> None:
    np.testing.assert_array_equal(got.ids, oracle.ids)
    np.testing.assert_array_equal(got.similarities, oracle.similarities)


def assert_engine_parity(search, queries, **plan) -> None:
    """``search(queries, options)`` answers identically on both engines."""
    inv = search(queries, SearchOptions(sparse_engine="inverted", **plan))
    ora = search(queries, SearchOptions(sparse_engine="exact", **plan))
    for got, oracle in zip(inv, ora):
        assert_same(got, oracle)


# ----------------------------------------------------------------------
# Accuracy: the two-level corpus separates the modality families
# ----------------------------------------------------------------------
def test_hybrid_recall_beats_dense_only(dataset, hybrid_queries):
    must = flat_must(dataset)
    opts = SearchOptions(k=K, exact=True)

    def recall(results):
        hits = [
            np.isin(r.ids[:K], t).sum() / min(K, t.size)
            for r, t in zip(results, dataset.truth)
        ]
        return float(np.mean(hits))

    hybrid = recall(must.query(hybrid_queries, opts))
    dense_only = recall(
        must.query([q.vector for q in hybrid_queries], opts)
    )
    assert hybrid > dense_only


# ----------------------------------------------------------------------
# Engine parity across layouts, plans, and batch sizes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("layout", ["flat", "segmented"])
@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("plan", ["graph", "exact"])
def test_engine_parity_in_process(
    dataset, hybrid_queries, layout, batch, plan
):
    must = (
        flat_must(dataset) if layout == "flat" else segmented_must(dataset)
    )
    kwargs: dict = {"k": K}
    if plan == "exact":
        kwargs["exact"] = True
    else:
        kwargs["l"] = L
    assert_engine_parity(must.query, hybrid_queries[:batch], **kwargs)


def test_engine_parity_survives_churn(dataset, hybrid_queries):
    must = segmented_must(dataset, churn=False)
    for stage, mutate in (
        ("insert", lambda: must.insert(churn_chunk(seed=91))),
        ("delete", lambda: must.mark_deleted(np.arange(0, 40, 3))),
        ("compact", lambda: must.segments.compact()),
    ):
        mutate()
        assert_engine_parity(
            must.query, hybrid_queries, k=K, l=L
        ), stage
        assert_engine_parity(
            must.query, hybrid_queries, k=K, exact=True
        ), stage


def test_flat_vs_segmented_exact_bitwise(dataset, hybrid_queries):
    """Layout independence extends to the hybrid exact plan: the same
    corpus answers identically whether it lives in one flat matrix or
    in sealed segments (stamped stats are exact sums of exact sums)."""
    flat = flat_must(dataset)
    seg = segmented_must(dataset, churn=False)
    opts = SearchOptions(k=K, exact=True)
    for a, b in zip(flat.query(hybrid_queries, opts),
                    seg.query(hybrid_queries, opts)):
        assert_same(a, b)


# ----------------------------------------------------------------------
# Serving surfaces
# ----------------------------------------------------------------------
def test_service_engine_parity_under_churn(dataset, hybrid_queries):
    with MustService(
        segmented_must(dataset, churn=False),
        ServiceConfig(max_batch=8, max_wait_ms=1.0),
    ) as svc:
        def search(queries, options):
            return [svc.search(q, options) for q in queries]

        assert_engine_parity(search, hybrid_queries, k=K, l=L)
        ext = svc.insert(churn_chunk(seed=92))
        svc.mark_deleted(ext[:6])
        assert_engine_parity(search, hybrid_queries, k=K, l=L)
        svc.compact()
        assert_engine_parity(search, hybrid_queries, k=K, l=L)
        assert_engine_parity(search, hybrid_queries, k=K, exact=True)


@pytest.mark.parametrize("n_shards", [1, 2])
def test_sharded_engine_parity_under_churn(
    dataset, hybrid_queries, n_shards
):
    svc = ShardedService(segmented_must(dataset), n_shards=n_shards)
    try:
        def search(queries, options):
            return [svc.search(q, options=options) for q in queries]

        assert_engine_parity(search, hybrid_queries, k=K, l=L)
        assert_engine_parity(search, hybrid_queries, k=K, exact=True)
        ext = svc.insert(churn_chunk(seed=93))
        svc.mark_deleted(ext[:6])
        assert_engine_parity(search, hybrid_queries, k=K, l=L)
        svc.compact()
        assert_engine_parity(search, hybrid_queries, k=K, l=L)
        assert_engine_parity(search, hybrid_queries, k=K, exact=True)
    finally:
        svc.close()


# ----------------------------------------------------------------------
# Persistence: manifest round-trip with and without a sparse plane
# ----------------------------------------------------------------------
def test_manifest_v4_roundtrip_bitwise(tmp_path, dataset, hybrid_queries):
    must = segmented_must(dataset)
    path = tmp_path / "hybrid_index"
    must.save_index(path)

    manifest = json.loads((path / MANIFEST_NAME).read_text())
    assert manifest["format"] == "must-segments-v5"
    assert manifest["format_version"] == 5

    fresh = MUST(
        MultiVectorSet([dataset.dense.copy()], sparse=dataset.sparse),
        weights=Weights([1.0]),
        builder=CHEAP_BUILDER,
    ).load_index(path)
    opts = SearchOptions(k=K, l=L)
    for a, b in zip(must.query(hybrid_queries, opts),
                    fresh.query(hybrid_queries, opts)):
        assert_same(a, b)
    for a, b in zip(
        must.query(hybrid_queries, SearchOptions(k=K, exact=True)),
        fresh.query(hybrid_queries, SearchOptions(k=K, exact=True)),
    ):
        assert_same(a, b)


def test_dense_only_archives_stay_v2(tmp_path, dataset):
    """One writer: with or without a sparse plane the manifest names
    the same format."""
    must = MUST(
        MultiVectorSet([dataset.dense.copy()]),
        weights=Weights([1.0]),
        builder=CHEAP_BUILDER,
        segment_policy=SegmentPolicy(seal_size=32, max_segments=8),
    ).build()
    rng = np.random.default_rng(13)
    must.insert(
        MultiVectorSet(
            [normalize_rows(rng.standard_normal((6, SHAPE["dim"]))
                            .astype(np.float32))]
        )
    )
    path = tmp_path / "dense_index"
    must.save_index(path)
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    assert manifest["format"] == "must-segments-v5"
    assert manifest["format_version"] == 5


def test_insert_requires_matching_sparse_plane(dataset):
    must = segmented_must(dataset, churn=False)
    rng = np.random.default_rng(7)
    dense_only = MultiVectorSet(
        [normalize_rows(rng.standard_normal((4, SHAPE["dim"]))
                        .astype(np.float32))]
    )
    with pytest.raises(ValueError, match="sparse"):
        must.insert(dense_only)


# ----------------------------------------------------------------------
# Registry validation at the public constructors
# ----------------------------------------------------------------------
class TestRegistryValidation:
    def test_metrics_did_you_mean_at_construction(self, dataset):
        with pytest.raises(ValueError, match="cosine"):
            MultiVectorSet([dataset.dense], metrics=["cosin"])
        with pytest.raises(ValueError, match="cosine"):
            MUST(
                MultiVectorSet([dataset.dense]),
                weights=Weights([1.0]),
                metrics=["cosin"],
            )

    def test_sparse_engine_did_you_mean(self):
        with pytest.raises(ValueError, match="inverted"):
            SearchOptions(sparse_engine="invrted")
        with pytest.raises(ValueError, match="sparse engine"):
            SearchOptions(sparse_engine="wave")  # dense engine name

    def test_sparse_metric_did_you_mean(self, dataset):
        from repro.sparse.store import SparseStore

        with pytest.raises(ValueError, match="bm25"):
            SparseStore(dataset.sparse.csr, metric="bm52")

    def test_build_rejects_non_ip_metrics(self, dataset):
        must = MUST(
            MultiVectorSet([dataset.dense]),
            weights=Weights([1.0]),
            metrics=["cosine"],
        )
        with pytest.raises(ValueError, match="exact"):
            must.build()


# ----------------------------------------------------------------------
# Non-IP dense metrics: exact path vs an independent numpy reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("metrics", [("cosine", "l2"), ("ip", "cosine")])
def test_non_ip_exact_matches_numpy_reference(metrics):
    rng = np.random.default_rng(11)
    n, dims = 60, (12, 8)
    mats = [
        rng.standard_normal((n, d)).astype(np.float32) for d in dims
    ]
    weights = Weights([0.6, 0.4])
    must = MUST(
        MultiVectorSet([m.copy() for m in mats]),
        weights=weights,
        metrics=list(metrics),
    )
    q_arrays = [rng.standard_normal(d).astype(np.float32) for d in dims]
    res = must.query(
        Query(MultiVector.from_arrays(q_arrays)),
        SearchOptions(k=8, exact=True),
    )

    expect = np.zeros(n, dtype=np.float64)
    for w2, metric, q, mat in zip(
        weights.squared, metrics, q_arrays, mats
    ):
        if metric == "ip":
            # every exact similarity is the row-wise float64 product
            scores = np.add.reduce(
                mat.astype(np.float64) * q.astype(np.float64), axis=1
            )
        else:
            scores = dense_score_rows(metric, q, mat)
        expect += float(w2) * scores
    order = np.lexsort((np.arange(n), -expect))[:8]
    np.testing.assert_array_equal(res.ids, order)
    np.testing.assert_allclose(
        res.similarities, expect[order], rtol=1e-12
    )


# ----------------------------------------------------------------------
# Hybrid queries are rows of the lockstep wave
# ----------------------------------------------------------------------
def wave_must(dataset, layout: str, compression: str) -> MUST:
    n = dataset.dense.shape[0]
    objects = MultiVectorSet(
        [dataset.dense.copy()],
        sparse=dataset.sparse,
        attributes={"parity": np.arange(n) % 2},
    )
    must = MUST(
        objects,
        weights=Weights([1.0]),
        builder=CHEAP_BUILDER,
        compression=compression,
        segment_policy=SegmentPolicy(
            seal_size=32, max_segments=8, max_deleted_fraction=0.9
        ),
    ).build()
    if layout == "segmented":
        extra = synthetic_hybrid(
            num_queries=1, seed=94, **{**SHAPE, "group_size": 2}
        )
        must.insert(
            MultiVectorSet(
                [extra.dense.copy()],
                sparse=extra.sparse,
                attributes={"parity": np.arange(extra.dense.shape[0]) % 2},
            )
        )
        must.mark_deleted(np.arange(0, 24, 5))
    return must


@pytest.mark.parametrize("layout", ["flat", "segmented"])
@pytest.mark.parametrize("compression", ["none", "pq"])
def test_wave_composition_independence(
    dataset, hybrid_queries, layout, compression
):
    """A hybrid query answers with the same bits alone, in a hybrid-only
    wave, in a mixed wave and coalesced by the service; its plain
    wave-mates answer as they do in a plain-only wave, with and without
    ``refine`` (which only they honour)."""
    must = wave_must(dataset, layout, compression)
    snap = must.snapshot()
    plain = [Query(q.vector) for q in hybrid_queries]

    def wave(queries, refine=None):
        return snap.graph_wave(
            list(queries),
            SearchOptions(k=K, l=L, engine="wave", refine=refine),
        ).results

    for refine in (None, 3):
        alone = [wave([q], refine=refine)[0] for q in hybrid_queries]
        plain_only = wave(plain, refine=refine)
        for got, ref in zip(wave(hybrid_queries, refine=refine), alone):
            assert_same(got, ref)
        # Even positions hybrid, odd positions plain.
        mixed = [
            hybrid_queries[i] if i % 2 == 0 else plain[i]
            for i in range(len(plain))
        ]
        for i, got in enumerate(wave(mixed, refine=refine)):
            assert_same(got, alone[i] if i % 2 == 0 else plain_only[i])

    with MustService(must, ServiceConfig(max_batch=16, max_wait_ms=5.0)) as svc:
        futures = [
            svc.submit(q, SearchOptions(k=K, l=L, engine="wave"))
            for q in mixed
        ]
        served = [f.result() for f in futures]
    unrefined = [wave([q])[0] for q in mixed]
    for got, ref in zip(served, unrefined):
        assert_same(got, ref)


@pytest.mark.parametrize("layout", ["flat", "segmented"])
def test_wave_hybrid_recall_matches_heap_oracle(
    dataset, hybrid_queries, layout
):
    must = wave_must(dataset, layout, "none")
    truth = must.query(hybrid_queries, SearchOptions(k=K, exact=True))

    def recall(run):
        hits = sum(
            len(set(r.ids[:K]) & set(t.ids[:K])) for r, t in zip(run, truth)
        )
        return hits / (K * len(truth))

    wave = must.query(hybrid_queries, SearchOptions(k=K, l=L))
    oracle = must.query(
        hybrid_queries, SearchOptions(k=K, l=L, engine="heap")
    )
    assert wave.plan == f"graph/wave/{bookkeeping()}"
    assert wave.stats.waves > 0
    assert recall(wave) >= recall(oracle) - 0.05


@pytest.mark.parametrize("layout", ["flat", "segmented"])
def test_wave_hybrid_nothing_admissible_is_empty(
    dataset, hybrid_queries, layout
):
    """A filter no object passes gives an empty answer, not an error."""
    must = wave_must(dataset, layout, "none")
    opts = SearchOptions(k=K, l=L, engine="wave")
    nothing = [
        dataclasses.replace(q, filter=Eq("parity", 7)) for q in hybrid_queries
    ]
    assert all(len(res) == 0 for res in must.query(nothing, opts))
    assert len(must.query(nothing[0], opts)) == 0


def test_wave_hybrid_without_lexical_candidates(dataset, hybrid_queries):
    """When the filter rejects every row holding a query term the
    lexical generator has nothing to propose; the dense candidates
    still answer."""
    must = wave_must(dataset, "flat", "none")
    q = hybrid_queries[0]
    plane = must.objects.sparse
    touched = np.unique(plane.csr[:, q.sparse.indices].nonzero()[0])
    must.set_attributes({"lexical": np.isin(np.arange(plane.n), touched)})
    got = must.query(
        [dataclasses.replace(q, filter=Eq("lexical", False))],
        SearchOptions(k=K, l=L),
    )[0]
    assert len(got) == K
    assert not np.isin(got.ids, touched).any()


def test_wave_hybrid_all_deleted_is_empty(dataset, hybrid_queries):
    index = flat_must(dataset).index
    dead = dataclasses.replace(index, deleted=np.ones(index.n, dtype=bool))
    results, _ = graph_wave_search(dead, hybrid_queries, k=K, l=L)
    assert all(len(r) == 0 for r in results)
    assert len(joint_search(dead, hybrid_queries[0], k=K, l=L)) == 0


def test_wave_hybrid_early_termination_still_answers(dataset, hybrid_queries):
    """Lemma-4 pruning is per query, so an early-termination batch keeps
    the per-query scorers — and still fuses."""
    must = wave_must(dataset, "flat", "pq")
    truth = must.query(hybrid_queries, SearchOptions(k=K, exact=True))
    run = must.query(
        hybrid_queries,
        SearchOptions(k=K, l=L, early_termination=True),
    )
    assert run.plan == f"graph/wave/{bookkeeping()}"
    hits = sum(
        len(set(r.ids) & set(t.ids)) for r, t in zip(run, truth)
    )
    assert all(len(r) == K for r in run)
    assert hits / (K * len(truth)) >= 0.9


@pytest.mark.parametrize("surface", ["live", "snapshot"])
def test_heap_hybrid_forwards_check_monotone(
    monkeypatch, dataset, hybrid_queries, surface
):
    """The per-query oracle used to drop ``check_monotone`` for hybrid
    queries (and the wave never saw them)."""
    import repro.index.search as search_mod

    must = flat_must(dataset)
    target = must if surface == "live" else must.snapshot()
    seen: list[bool] = []
    real = search_mod._heap_search

    def spy(*args):
        seen.append(args[6])
        return real(*args)

    monkeypatch.setattr(search_mod, "_heap_search", spy)
    res = target.query(
        hybrid_queries[0], SearchOptions(k=K, l=L, check_monotone=True)
    )
    assert seen == [True] and len(res) == K
    wave = must.query(
        hybrid_queries, SearchOptions(k=K, l=L, check_monotone=True)
    )
    assert wave.plan == f"graph/wave/{bookkeeping()}"
