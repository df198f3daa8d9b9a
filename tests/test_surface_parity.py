"""One table for surface parity: every way of asking answers the same.

Rows are plans, columns are layouts; each cell sends one filtered and
one ``Query(k=...)``-override request through every search surface —
``MUST.query``, ``IndexSnapshot.query`` and ``MustService.submit`` —
and compares ids *and* similarities bit for bit.  All of them run the one dispatcher
(:func:`repro.index.executor.execute`), so a cell failing here means a
surface grew its own interpretation of a plan.

A second table pins what makes that possible: an answer is a function
of the index and the query.  No plan carries a seed and no engine reads
its batch-mates — a graph search starts from the graph's own entry
order, an exact similarity comes from a kernel that reads one row and
the query — so the same request reads the same bits (ids, similarities,
work counters) alone, at either end of a batch, from a snapshot, served,
and from a reloaded save.  The exact plans' batches mix a hybrid request
with plain ones and ask for the top 1 of a row the corpus holds twice:
the tie at the cut-off goes to the lower external id on every surface.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.framework import MUST
from repro.core.multivector import MultiVector, MultiVectorSet
from repro.core.query import Eq, Query, SearchOptions
from repro.core.results import SearchResult
from repro.core.weights import Weights
from repro.index.pipeline import FusedIndexBuilder
from repro.index.segments import SegmentPolicy, SegmentView
from repro.sparse.synthetic import synthetic_hybrid

from tests.conftest import random_multivector_set, random_query

pytest.importorskip("scipy.sparse")

DIMS = (16, 8)
K = 5
CHEAP_BUILDER = FusedIndexBuilder(gamma=8, epsilon=1, max_candidates=16)
POLICY = SegmentPolicy(seal_size=32, max_segments=8, max_deleted_fraction=0.9)
HYBRID_SHAPE = dict(n_topics=4, groups_per_topic=4, dim=24)
FILTER = Eq("parity", 0)

#: plan name -> (corpus kind, options)
PLANS = {
    "auto": ("dense", SearchOptions(k=K, l=40)),
    "wave": ("dense", SearchOptions(k=K, l=40, engine="wave")),
    "exact": ("dense", SearchOptions(k=K, exact=True)),
    "exact+refine": ("int8", SearchOptions(k=K, exact=True, refine=3)),
    "hybrid-wave": ("hybrid", SearchOptions(k=K, l=40, engine="wave")),
}
#: the second table's exact plans run where a request can be hybrid.
HYBRID_KINDS = {"exact": "hybrid", "exact+refine": "hybrid-int8"}
#: rows TWIN and TWIN + 1 of every base chunk hold the same vectors
#: (both outlive the deletions below).
TWIN = 10
#: layout -> (objects built, inserts as (size, seed), segments a graph
#: plan scans).  Under the graph plans' l=40 a segment of up to 80
#: objects is scanned, not traversed
#: (:func:`repro.index.segments.beam_covers`): the second layout mixes
#: a traversed base with scanned segments, the third is scanned whole.
LAYOUTS = {
    "single-graph": (128, (), 0),
    "3-segment+delta": (128, ((32, 2), (32, 3), (16, 4)), 3),
    "scanned-segments": (64, ((32, 2), (32, 3), (16, 4)), 4),
}


def _chunk(mats, **planes) -> MultiVectorSet:
    mats = [m.copy() for m in mats]
    for m in mats:
        m[TWIN + 1] = m[TWIN]
    return MultiVectorSet(mats, **planes).set_attributes(
        {"parity": np.arange(mats[0].shape[0]) % 2}
    )


def _dense_chunk(n: int, seed: int) -> MultiVectorSet:
    return _chunk(random_multivector_set(n, DIMS, seed=seed).matrices)


def _hybrid_chunk(group_size: int, seed: int) -> MultiVectorSet:
    data = synthetic_hybrid(
        num_queries=1, seed=seed, group_size=group_size, **HYBRID_SHAPE
    )
    return _chunk([data.dense], sparse=data.sparse)


def _build(kind: str, layout: str) -> MUST:
    """The corpus *kind* in *layout*."""
    base, inserts, _ = LAYOUTS[layout]
    if kind.startswith("hybrid"):
        chunk = lambda size, seed: _hybrid_chunk(size // 16, seed)
        weights = Weights([1.0])
    else:
        chunk = _dense_chunk
        weights = Weights([0.6, 0.4])
    must = MUST(
        chunk(base, 1),
        weights=weights,
        builder=CHEAP_BUILDER,
        segment_policy=POLICY,
        compression="int8" if kind.endswith("int8") else "none",
    ).build()
    for size, seed in inserts:
        must.insert(chunk(size, seed))
    if inserts:
        assert len(must.segments.sealed) == 3 and must.segments.delta.n == 16
    must.mark_deleted(np.arange(0, 40, 7))
    return must


def _requests(kind: str) -> list[Query]:
    """One filtered request and one that overrides the plan's k."""
    if kind.startswith("hybrid"):
        data = synthetic_hybrid(
            num_queries=2, seed=1, group_size=8, **HYBRID_SHAPE
        )
        parts = [
            dict(
                vector=MultiVector.from_arrays([data.query_dense[i]]),
                sparse=data.query_sparse[i],
                sparse_weight=0.8,
            )
            for i in range(2)
        ]
    else:
        parts = [dict(vector=random_query(DIMS, seed=s)) for s in (5, 6)]
    return [Query(filter=FILTER, **parts[0]), Query(k=9, **parts[1])]


@pytest.fixture(scope="module")
def corpora():
    """(kind, layout) -> built MUST, each built once for the table."""
    cache: dict[tuple[str, str], MUST] = {}

    def get(kind: str, layout: str) -> MUST:
        if (kind, layout) not in cache:
            cache[kind, layout] = _build(kind, layout)
        return cache[kind, layout]

    return get


def assert_bitwise(got, ref) -> None:
    np.testing.assert_array_equal(got.ids, ref.ids)
    np.testing.assert_array_equal(got.similarities, ref.similarities)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("plan", list(PLANS))
def test_every_surface_answers_alike(corpora, plan, layout):
    kind, opts = PLANS[plan]
    must = corpora(kind, layout)
    requests = _requests(kind)

    direct = [must.query(q, opts) for q in requests]
    assert [len(r) for r in direct] == [K, 9]
    admissible = must.query(
        Query(requests[0].vector, filter=FILTER),
        SearchOptions(k=10**6, exact=True),
    ).ids
    assert np.isin(direct[0].ids, admissible).all()

    snap = must.snapshot()
    for q, ref in zip(requests, direct):
        assert_bitwise(snap.query(q, opts), ref)

    with must.serve(max_batch=8, max_wait_ms=5.0) as svc:
        futures = [svc.submit(q, opts) for q in requests]
        served = [f.result(60) for f in futures]
    for got, ref in zip(served, direct):
        assert_bitwise(got, ref)


def assert_same_bits(got: SearchResult, ref: SearchResult) -> None:
    """Ids, similarities and every per-query work counter; the
    ``waves`` / ``frontier_sizes`` trace describes the traversal a
    request shared, not the request, and is left out."""
    assert_bitwise(got, ref)
    counters = [dataclasses.asdict(r.stats) for r in (got, ref)]
    for stats in counters:
        del stats["waves"], stats["frontier_sizes"]
    assert counters[0] == counters[1]


def _reloaded(must: MUST, folder) -> MUST:
    if must.is_segmented:
        must.save_index(folder / "save")
        return MUST.from_saved(folder / "save", builder=CHEAP_BUILDER)
    must.save_index(folder / "save.npz")
    return MUST(must.objects, builder=CHEAP_BUILDER).load_index(
        folder / "save.npz"
    )


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("plan", list(PLANS))
def test_answer_is_a_function_of_index_and_query(
    corpora, plan, layout, tmp_path
):
    kind, opts = PLANS[plan]
    if opts.exact:
        kind = HYBRID_KINDS[plan]
        must = corpora(kind, layout)
        hybrid, plain = _requests(kind)
        requests = [
            hybrid,
            dataclasses.replace(plain, sparse=None),
            Query(must.objects.row(TWIN), k=1),
        ]
    else:
        must = corpora(kind, layout)
        requests = _requests(kind)
        requests += [Query(q.vector, sparse=q.sparse) for q in requests]

    alone = [must.query(q, opts) for q in requests]
    forward = must.query(requests, opts).results
    backward = must.query(requests[::-1], opts).results[::-1]
    snap = must.snapshot()
    with must.serve(max_batch=8, max_wait_ms=5.0) as svc:
        futures = [svc.submit(q, opts) for q in requests]
        served = [f.result(60) for f in futures]
    fresh = _reloaded(must, tmp_path)
    if layout == "3-segment+delta":
        # The delta is one of the three scanned: probed alone, it scans.
        delta = SegmentView(must.segments.view().segments[-1:])
        assert [seg.kind for seg in delta.segments] == ["delta"]
        (lone,), _ = delta.graph_wave(requests[:1], k=opts.k, l=opts.l)
        assert (lone.stats.segments_scanned, lone.stats.hops) == (1, 0)
    if opts.exact:
        assert alone[-1].ids.tolist() == [TWIN]
    for i, (q, ref) in enumerate(zip(requests, alone)):
        assert ref.stats.joint_evals > 0
        if not opts.exact:
            assert ref.stats.segments_scanned == LAYOUTS[layout][2]
            assert (ref.stats.hops == 0) == (layout == "scanned-segments")
        assert_same_bits(forward[i], ref)
        assert_same_bits(backward[i], ref)
        assert_same_bits(snap.query(q, opts), ref)
        assert_same_bits(served[i], ref)
        assert_same_bits(fresh.query(q, opts), ref)


def test_a_plan_has_no_seed_field():
    with pytest.raises(TypeError, match="rng"):
        SearchOptions(rng=0)
    assert len(dataclasses.fields(SearchOptions)) == 9
