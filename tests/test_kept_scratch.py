"""Kept traversal scratch: a traversal's answers do not depend on which
scratch it ran on.

Every graph keeps a free list of traversal scratch (the wave's per-row
arrays, result and route pools, seen bitsets and the row scorer's
query matrix) in the box its :meth:`~repro.index.base.GraphIndex.frozen`
copies share; a traversal takes one, grows it when its batch does not
fit, re-stamps it and gives it back once its answers are copied out.

* :func:`test_same_bits_digest` — ids, similarities and every
  :class:`~repro.core.results.SearchStats` counter over {dense, int8,
  PQ, PQ + ``refine=4``} × {dense, hybrid} × {single graph, segments} ×
  {``MUST.query``, served}, hashed and compared with the digest the
  engine gave before it kept any scratch.  Every vector is a small
  integer and every ``ω`` a power of two, so each dot product is exact
  and the graphs do not depend on the BLAS the build's matmuls run on.
  Nor do the PQ codebooks: no store trains on more than 256 rows, so
  k-means starts from every row as a centroid, each row keeps its own
  and every mean is one of identical integer rows — the test asserts
  that every PQ reconstruction is integral.
* :class:`TestKeepLimit` — a scratch larger than the graph's traversal
  constants is not kept, nor is one that only scanned (its limit unset).
* :class:`TestReuse` — lone queries from four threads at one index and
  at a frozen snapshot, and one caller whose ``l`` and filters change
  from query to query, so its scratch grows and shrinks: every answer
  equals the one from fresh scratch.
* :class:`TestSortedPoolSlice` — ``finalise`` slices the result pool
  ``wave_run`` left sorted; on duplicate corpus rows (ties) it must
  still answer as ranking the pool by ``(-sim, id)`` does, on dense,
  int8 and PQ rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import threading

import numpy as np
import pytest

from repro import MUST
from repro.core.multivector import MultiVector, MultiVectorSet
from repro.core.query import Query, SearchOptions
from repro.core.weights import Weights
from repro.index import graph_wave as gw
from repro.index.pipeline import FusedIndexBuilder
from repro.index.segments import SegmentPolicy
from repro.utils.topk import rank_order

pytest.importorskip("scipy.sparse")

from repro.sparse.store import SparseStore  # noqa: E402

K = 10
DIMS = (8, 6)
VOCAB = 24
#: ω = 1 and 1/2: every ω-scaled product of small integers is exact.
WEIGHTS = Weights([1.0, 0.25])
BUILDER = FusedIndexBuilder(gamma=8, epsilon=1, max_candidates=16)
STORES = {
    "dense": ("none", None),
    "int8": ("int8", None),
    "pq": ("pq", None),
    "pq_refine4": ("pq", 4),
}
#: the digest of :func:`_case_digests` before traversal scratch was kept.
SAME_BITS = "72dd3735ec402f0b"


def _ints(rng, shape):
    return rng.integers(-4, 5, shape).astype(np.float32)


def _objects(rng, n, hybrid):
    mats = [_ints(rng, (n, d)) for d in DIMS]
    sparse = None
    if hybrid:
        rows = [
            {
                int(t): float(rng.integers(1, 4))
                for t in rng.choice(VOCAB, 3, replace=False)
            }
            for _ in range(n)
        ]
        sparse = SparseStore.from_rows(rows, VOCAB)
    return MultiVectorSet(mats, sparse=sparse)


def _queries(rng, count, hybrid):
    out = []
    for _ in range(count):
        vec = MultiVector([_ints(rng, (d,)) for d in DIMS])
        if hybrid:
            terms = rng.choice(VOCAB, 2, replace=False).tolist()
            out.append(Query(vec, sparse={t: 1.0 for t in terms}, sparse_weight=0.5))
        else:
            out.append(Query(vec))
    return out


def _build(compression, corpus, layout):
    rng = np.random.default_rng(11)
    hybrid = corpus == "hybrid"
    kwargs = dict(weights=WEIGHTS, builder=BUILDER, compression=compression)
    if compression == "pq":
        kwargs["store_options"] = {"pq_dims": 2, "pq_iters": 2}
    if layout == "segments":
        kwargs["segment_policy"] = SegmentPolicy(
            seal_size=96, max_segments=8, max_deleted_fraction=0.9
        )
    must = MUST(_objects(rng, 240, hybrid), **kwargs).build()
    if layout == "segments":
        must.insert(_objects(rng, 130, hybrid))  # one sealed, a delta
        must.mark_deleted(np.arange(0, 300, 7))
    return must, _queries(rng, 12, hybrid)


def _digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(np.asarray(res.ids, dtype=np.int64).tobytes())
        h.update(np.asarray(res.similarities, dtype=np.float64).tobytes())
        h.update(repr(dataclasses.astuple(res.stats)).encode())
    return h.hexdigest()[:16]


def _pq_stores(must):
    if must.is_segmented:
        return [seg.index.space.store for seg in must.segments.searchable_segments()]
    return [must.index.space.store]


def _case_digests() -> dict[str, str]:
    out = {}
    for corpus in ("dense", "hybrid"):
        for layout in ("single", "segments"):
            built = {}
            for store, (compression, refine) in STORES.items():
                if compression not in built:
                    built[compression] = _build(compression, corpus, layout)
                    if compression == "pq":  # exact codebooks: see above
                        for pq in _pq_stores(built[compression][0]):
                            for i in range(len(DIMS)):
                                rows = pq.modality(i)
                                assert np.array_equal(rows, np.round(rows))
                must, queries = built[compression]
                options = SearchOptions(k=K, l=40, refine=refine)
                name = f"{store}/{corpus}/{layout}"
                out[f"{name}/query"] = _digest(must.query(q, options) for q in queries)
                with must.serve() as svc:
                    # One request in flight at a time: each is a group of
                    # one, so its wave trace is its own.
                    served = [svc.submit(q, options).result() for q in queries]
                out[f"{name}/served"] = _digest(served)
    return out


def test_same_bits_digest():
    cases = _case_digests()
    assert len(cases) == 32
    whole = hashlib.sha256(repr(sorted(cases.items())).encode()).hexdigest()[:16]
    assert whole == SAME_BITS, cases


def _fresh(index, run):
    """``run()`` on a graph whose free list is empty: the traversal
    builds its scratch anew, as it did before any was kept."""
    index.spare.clear()
    return run()


def _bits(result):
    return (
        result.ids.tobytes(),
        result.similarities.tobytes(),
        dataclasses.astuple(result.stats),
    )


@pytest.fixture(scope="module")
def filtered_must():
    rng = np.random.default_rng(5)
    n = 600
    mats = [rng.standard_normal((n, d)).astype(np.float32) for d in DIMS]
    attrs = {"color": np.array(["red", "blue", "green"] * (n // 3))}
    return MUST(
        MultiVectorSet(mats, attributes=attrs), weights=Weights([0.6, 0.4]),
        builder=BUILDER,
    ).build()


def _mixed_requests(count, seed):
    """Lone requests whose ``l`` and filter change from one to the next,
    so a kept scratch is grown and then re-cut narrower."""
    from repro.core.query import Eq

    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        vec = MultiVector([rng.standard_normal(d).astype(np.float32) for d in DIMS])
        query = Query(vec, filter=Eq("color", "blue")) if i % 2 else Query(vec)
        out.append((query, SearchOptions(k=K, l=(10, 100, 300)[i % 3])))
    return out


class TestReuse:
    def test_growing_and_shrinking_scratch_answers_as_fresh(self, filtered_must):
        index = filtered_must.index
        requests = _mixed_requests(12, seed=1)
        want = [
            _bits(_fresh(index, lambda: filtered_must.query(q, o)))
            for q, o in requests
        ]
        index.spare.clear()
        for _ in range(2):
            got = [_bits(filtered_must.query(q, o)) for q, o in requests]
            assert got == want
        assert len(index.spare) == 1  # one caller, one scratch, reused

    def test_threads_on_an_index_and_its_snapshot(self, filtered_must):
        """Lone queries from four threads (more than the cores), two at
        the index and two at a frozen snapshot sharing its free list,
        with the interpreter switching threads every few microseconds:
        ``wave_run`` releases the interpreter lock, so the traversals
        overlap, and each must work in its own scratch."""
        index = filtered_must.index
        snapshot = filtered_must.snapshot()
        requests = _mixed_requests(24, seed=2)
        want = [
            _bits(_fresh(index, lambda: filtered_must.query(q, o)))
            for q, o in requests
        ]
        got: dict[int, list] = {}
        errors: list[BaseException] = []
        start = threading.Barrier(4)

        def caller(slot, target):
            try:
                start.wait()
                got[slot] = [
                    [_bits(target.query(q, o)) for q, o in requests]
                    for _ in range(3)
                ]
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        targets = [filtered_must, snapshot, filtered_must, snapshot]
        threads = [
            threading.Thread(target=caller, args=(slot, target))
            for slot, target in enumerate(targets)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        for slot in range(len(targets)):
            assert all(rounds == want for rounds in got[slot]), slot
        assert 1 <= len(index.spare) <= len(targets)


class TestKeepLimit:
    def test_a_scratch_over_the_limit_is_not_kept(self, filtered_must, monkeypatch):
        """A batch whose scratch outgrows the graph's traversal
        constants gives it back to the allocator; a lone query's is
        kept, within the limit."""
        index = filtered_must.index
        rng = np.random.default_rng(3)
        batch = [
            MultiVector([rng.standard_normal(d).astype(np.float32) for d in DIMS])
            for _ in range(64)
        ]
        options = SearchOptions(k=K, l=100)
        index.spare.clear()
        fresh = [_bits(r) for r in filtered_must.query(batch, options)]
        limit = index.traversal_constants().nbytes
        assert index.spare == []
        made: list[gw._Scratch] = []
        finalise = gw._Wave.finalise

        def recorded(wave):
            made.append(wave.scratch)
            return finalise(wave)

        monkeypatch.setattr(gw._Wave, "finalise", recorded)
        again = [_bits(r) for r in filtered_must.query(batch, options)]
        assert again == fresh
        assert made[0].nbytes > made[0].limit == limit
        assert index.spare == []
        filtered_must.query(batch[0], options)
        assert len(index.spare) == 1 and index.spare[0].nbytes <= limit

    def test_a_scratch_that_only_scanned_is_not_kept(self, filtered_must):
        from repro.core.query import Eq

        index = filtered_must.index
        index.spare.clear()
        # l reaches the filter's 200 admissible rows: the row is scanned.
        query = Query(
            MultiVector([np.ones(d, dtype=np.float32) for d in DIMS]),
            filter=Eq("color", "red"),
        )
        result = filtered_must.query(query, SearchOptions(k=K, l=250))
        assert result.stats.hops == 0
        assert index.spare == []


def _tied_corpus(rng):
    """240 rows, the first 30 of them stored twice more: equal rows score
    equal bits, so a pool near them ties, and one elsewhere does not."""
    base = [rng.standard_normal((240, d)).astype(np.float32) for d in DIMS]
    return [np.concatenate([m, m[:30], m[:30]]) for m in base]


class TestSortedPoolSlice:
    @pytest.mark.parametrize("compression", ["none", "int8", "pq"])
    def test_the_slice_is_the_ranked_pool(self, compression, monkeypatch):
        """Per row, ``finalise``'s answer equals ranking the result pool by
        ``(-sim, id)`` and taking its first ``k`` — the slice where no
        similarities tie, :func:`rank_order` where they do — and both
        cases occur."""
        from repro.core.multivector import MultiVectorSet as Set
        from repro.store import make_store

        rng = np.random.default_rng(8)
        mats = _tied_corpus(rng)
        if compression == "none":
            objects = Set(mats)
        else:
            options = {"pq_dims": 2} if compression == "pq" else {}
            objects = Set.from_store(make_store(compression, mats, **options))
        must = MUST(objects, weights=Weights([0.6, 0.4]), builder=BUILDER).build()
        tied_rows, plain_rows = 0, 0
        ranked: list[tuple[bytes, bytes]] = []
        finalise = gw._Wave.finalise

        def checked(wave):
            nonlocal tied_rows, plain_rows
            for i in range(wave.b):
                sims = wave.res_sims[i]
                take = int(min(np.isfinite(sims).sum(), wave.k_inner_arr[i]))
                order = rank_order(wave.res_ids[i], sims, take)
                ranked.append(
                    (wave.res_ids[i][order].tobytes(), sims[order].tobytes())
                )
                head = sims[: take + 1]
                if (head[1:] == head[:-1]).any():
                    tied_rows += 1
                else:
                    plain_rows += 1
            return finalise(wave)

        monkeypatch.setattr(gw._Wave, "finalise", checked)
        queries = [
            MultiVector([rng.standard_normal(d).astype(np.float32) for d in DIMS])
            for _ in range(16)
        ]
        # Stored rows as queries: their best entry ties three ways.
        queries += [MultiVector([m[j] for m in mats]) for j in (0, 11, 29)]
        answers = [must.query(q, SearchOptions(k=K, l=40)) for q in queries]
        assert [(a.ids.tobytes(), a.similarities.tobytes()) for a in answers] == ranked
        assert tied_rows and plain_rows
