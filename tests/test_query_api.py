"""Typed Query API tests: SearchOptions validation, the Filter DSL,
attribute tables, plan plumbing, and the unified ``l`` clamp.

The headline contracts pinned here:

* an unknown ``SearchOptions`` field name raises immediately (a
  misspelled ``early_terminatoin=`` can never be silently swallowed);
* ``SearchOptions`` range errors name the offending field;
* ``l`` is clamped to the corpus size once, in
  ``SearchOptions.resolve``, on every surface (direct, snapshot,
  served) of the single-graph *and* segmented layouts, and an explicit
  ``l < k`` is the same error everywhere.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.attributes import AttributeTable
from repro.core.framework import MUST
from repro.core.multivector import MultiVectorSet
from repro.core.query import (
    And,
    Eq,
    In,
    Not,
    Or,
    Query,
    Range,
    SearchOptions,
)
from repro.core.weights import Weights
from repro.index.segments import SegmentPolicy
from repro.service import MustService, ServiceConfig

from tests.conftest import random_multivector_set, random_query

DIMS = (16, 8)
WEIGHTS = Weights([0.4, 0.6])


def _attributed_set(n: int, seed: int = 0) -> MultiVectorSet:
    objects = random_multivector_set(n, DIMS, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    objects.set_attributes(
        {
            "category": np.array(["alpha", "beta", "gamma"])[
                rng.integers(0, 3, n)
            ],
            "price": rng.uniform(0.0, 100.0, n),
            "year": rng.integers(2018, 2024, n),
        }
    )
    return objects


@pytest.fixture(scope="module")
def built_must() -> MUST:
    return MUST(_attributed_set(240), weights=WEIGHTS).build()


@pytest.fixture(scope="module")
def queries():
    return [random_query(DIMS, seed=s) for s in range(8)]


def assert_same_result(res, ref):
    assert np.array_equal(res.ids, ref.ids)
    assert np.array_equal(res.similarities, ref.similarities)


# ----------------------------------------------------------------------
# SearchOptions
# ----------------------------------------------------------------------
class TestSearchOptions:
    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("k", {"k": 0}),
            ("k", {"k": "ten"}),
            ("l", {"l": 0}),
            ("refine", {"refine": 0}),
            ("engine", {"engine": "warp"}),
            ("exact", {"exact": 1}),
            ("early_termination", {"early_termination": "yes"}),
            ("sparse_engine", {"sparse_engine": "invertd"}),
            ("check_monotone", {"check_monotone": 2}),
        ],
    )
    def test_range_errors_name_the_field(self, field, kwargs):
        with pytest.raises(ValueError, match=f"SearchOptions.{field}"):
            SearchOptions(**kwargs)

    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="early_terminatoin"):
            SearchOptions(early_terminatoin=True)
        with pytest.raises(TypeError, match="n_jobs"):
            SearchOptions(n_jobs=4)

    def test_resolve_clamps_l_to_corpus(self):
        opts = SearchOptions(k=5, l=100)
        assert opts.resolve(40).l == 40
        assert opts.resolve(1000).l == 100
        assert opts.resolve(1000) is opts  # no-op returns self

    def test_updated_revalidates(self):
        """A copy made with ``dataclasses.replace`` is validated again."""
        opts = SearchOptions(k=5)
        assert dataclasses.replace(opts, k=7).k == 7
        with pytest.raises(ValueError, match="SearchOptions.k"):
            dataclasses.replace(opts, k=0)

    def test_exact_with_large_k_needs_no_l(self):
        # l is a graph-path knob; exact plans with k > l stay valid.
        SearchOptions(k=500, exact=True)


class TestQueryObject:
    def test_validates_vector_type(self):
        with pytest.raises(ValueError, match="Query.vector"):
            Query(vector=np.zeros(4, dtype=np.float32))

    def test_validates_k_and_weights(self, queries):
        with pytest.raises(ValueError, match="Query.k"):
            Query(vector=queries[0], k=0)
        with pytest.raises(ValueError, match="Query.weights"):
            Query(vector=queries[0], weights=[0.5, 0.5])
        with pytest.raises(ValueError, match="Query.filter"):
            Query(vector=queries[0], filter="category == 'a'")

    def test_per_query_k_override(self, built_must, queries):
        res = built_must.query(
            Query(queries[0], k=3), SearchOptions(k=10, exact=True)
        )
        assert len(res.ids) == 3

    def test_per_query_k_exceeding_l_widens_both_layouts(self, queries):
        """A Query.k override larger than the wave l widens the result
        set instead of erroring — identically on the single-graph and
        segmented layouts."""
        flat = MUST(_attributed_set(200, seed=13), weights=WEIGHTS).build()
        seg = MUST(
            _attributed_set(150, seed=13),
            weights=WEIGHTS,
            segment_policy=SegmentPolicy(seal_size=48, max_segments=8),
        ).build()
        seg.insert(_attributed_set(50, seed=14))
        for must in (flat, seg):
            res = must.query(
                Query(queries[0], k=60), SearchOptions(k=5, l=20)
            )
            assert len(res.ids) == 60

    def test_explicit_l_below_k_still_raises(self, built_must, queries):
        """resolve()'s l floor covers only the tiny-corpus corner — an
        explicit l < k stays a loud error."""
        with pytest.raises(ValueError, match="at least k"):
            built_must.query(
                Query(queries[0]), SearchOptions(k=50, l=10)
            )
        # exact plans ignore l entirely
        res = built_must.query(
            Query(queries[0]), SearchOptions(k=50, l=10, exact=True)
        )
        assert len(res.ids) == 50


# ----------------------------------------------------------------------
# Attribute table + Filter DSL
# ----------------------------------------------------------------------
class TestAttributeTable:
    def test_column_lengths_must_align(self):
        with pytest.raises(ValueError, match="all columns must align"):
            AttributeTable({"a": np.arange(4), "b": np.arange(5)})

    def test_unknown_field_lists_available(self):
        table = AttributeTable({"price": np.arange(3)})
        with pytest.raises(ValueError, match="price"):
            table.column("prize")

    def test_mixed_object_column_rejected(self):
        with pytest.raises(ValueError, match="mixed/object"):
            AttributeTable({"a": np.array([1, "x", None], dtype=object)})

    def test_subset_and_concat_roundtrip(self):
        table = AttributeTable(
            {"a": np.arange(6), "b": np.array(list("xyzxyz"))}
        )
        front, back = table.subset(np.arange(3)), table.subset(np.arange(3, 6))
        merged = AttributeTable.concat([front, back])
        assert np.array_equal(merged.column("a"), table.column("a"))
        assert np.array_equal(merged.column("b"), table.column("b"))
        with pytest.raises(ValueError, match="different"):
            AttributeTable.concat(
                [front, AttributeTable({"a": np.arange(3)})]
            )

    def test_array_roundtrip(self):
        table = AttributeTable(
            {"a": np.arange(4), "tag": np.array(list("abcd"))}
        )
        back = AttributeTable.from_arrays(table.to_arrays())
        assert back.fields == table.fields
        assert np.array_equal(back.column("tag"), table.column("tag"))
        assert AttributeTable.from_arrays({"unrelated": np.arange(2)}) is None

    def test_set_attributes_validates_row_count(self):
        objects = random_multivector_set(10, DIMS, seed=0)
        with pytest.raises(ValueError, match="covers 4 objects"):
            objects.set_attributes({"a": np.arange(4)})

    def test_subset_slices_attributes(self):
        objects = _attributed_set(20, seed=3)
        sub = objects.subset(np.array([3, 7, 11]))
        assert np.array_equal(
            sub.attributes.column("price"),
            objects.attributes.column("price")[[3, 7, 11]],
        )


class TestFilterDSL:
    @pytest.fixture(scope="class")
    def table(self):
        return AttributeTable(
            {
                "cat": np.array(["a", "b", "a", "c", "b"]),
                "price": np.array([10.0, 20.0, 30.0, 40.0, 50.0]),
            }
        )

    def test_eq(self, table):
        assert Eq("cat", "a").mask(table).tolist() == [
            True, False, True, False, False,
        ]

    def test_in(self, table):
        assert In("cat", ("a", "c")).mask(table).tolist() == [
            True, False, True, True, False,
        ]
        with pytest.raises(ValueError, match="at least one value"):
            In("cat", ())

    def test_range_bounds(self, table):
        assert Range("price", low=20.0, high=40.0).mask(table).tolist() == [
            False, True, True, True, False,
        ]
        assert Range("price", low=30.0).mask(table).tolist() == [
            False, False, True, True, True,
        ]
        with pytest.raises(ValueError, match="at least one of"):
            Range("price")

    def test_boolean_composition(self, table):
        flt = (Eq("cat", "a") | Eq("cat", "b")) & ~Range("price", high=15.0)
        assert flt.mask(table).tolist() == [False, True, True, False, True]
        assert And(Eq("cat", "a"), Eq("cat", "a")).mask(table).sum() == 2
        assert Or(Eq("cat", "a"), Eq("cat", "c")).mask(table).sum() == 3
        assert Not(Eq("cat", "a")).mask(table).sum() == 3

    def test_unknown_field_is_actionable(self, table):
        with pytest.raises(ValueError, match="unknown attribute field"):
            Eq("colour", "red").mask(table)

    def test_filter_without_table_is_actionable(self, queries):
        must = MUST(
            random_multivector_set(60, DIMS, seed=4), weights=WEIGHTS
        ).build()
        with pytest.raises(ValueError, match="no attribute table"):
            must.query(
                Query(queries[0], filter=Eq("cat", "a")),
                SearchOptions(k=3, exact=True),
            )


# ----------------------------------------------------------------------
# Plan plumbing: containment, shared filter compilation, option forwarding
# ----------------------------------------------------------------------
class TestPlanPlumbing:
    def test_bad_filter_does_not_poison_wave_mates(self, built_must, queries):
        """One request's malformed filter fails through its own future;
        the other requests coalesced into the same exact wave still get
        their answers (per-request containment)."""
        svc = MustService(
            built_must,
            ServiceConfig(max_batch=8, max_wait_ms=5.0),
            start=False,  # queue both first, so they share one wave
        )
        try:
            bad = svc.submit(
                Query(queries[0], filter=Eq("no_such_field", 1)),
                SearchOptions(k=5, exact=True),
            )
            good = svc.submit(
                Query(queries[1]), SearchOptions(k=5, exact=True)
            )
            svc.start()
            with pytest.raises(ValueError, match="unknown attribute field"):
                bad.result(timeout=30)
            res = good.result(timeout=30)
            assert len(res.ids) == 5
            ref = built_must.query(Query(queries[1]),
                                   SearchOptions(k=5, exact=True))
            assert_same_result(res, ref)
        finally:
            svc.close()

    @pytest.mark.parametrize("engine", ["auto", "wave"])
    def test_batch_filter_compiles_once_per_wave(
        self, built_must, queries, engine
    ):
        """A shared Filter instance is compiled once per corpus slice on
        the graph batch path, whichever name asks for the wave, not once
        per query."""
        calls = 0
        flt = Eq("category", "alpha")
        original = flt.mask

        def counting(table):
            nonlocal calls
            calls += 1
            return original(table)

        object.__setattr__(flt, "mask", counting)
        try:
            built_must.query(
                [Query(q, filter=flt) for q in queries],
                SearchOptions(k=5, l=32, engine=engine),
            )
        finally:
            object.__delattr__(flt, "mask")
        assert calls == 1

    def test_snapshot_query_forwards_every_option(self, built_must, queries):
        snap = built_must.snapshot()
        opts = SearchOptions(
            k=5, l=64, early_termination=True, refine=2, check_monotone=True
        )
        ref = built_must.query(Query(queries[0]), opts)
        res = snap.query(Query(queries[0]), opts)
        assert np.array_equal(res.ids, ref.ids)
        assert np.array_equal(res.similarities, ref.similarities)


# ----------------------------------------------------------------------
# The unified l clamp (satellite: segmented path used to skip it)
# ----------------------------------------------------------------------
class TestLClamp:
    def test_single_graph_huge_l_equals_full_l(self, built_must, queries):
        huge = built_must.query(
            Query(queries[0]), SearchOptions(k=5, l=10**7)
        )
        full = built_must.query(
            Query(queries[0]), SearchOptions(k=5, l=built_must.objects.n)
        )
        assert_same_result(huge, full)

    def test_segmented_huge_l_equals_full_l(self, queries):
        must = MUST(
            random_multivector_set(120, DIMS, seed=9),
            weights=WEIGHTS,
            segment_policy=SegmentPolicy(seal_size=48, max_segments=8),
        ).build()
        must.insert(random_multivector_set(60, DIMS, seed=10))
        huge = must.query(Query(queries[0]), SearchOptions(k=5, l=10**7))
        full = must.query(
            Query(queries[0]),
            SearchOptions(k=5, l=must.segments.num_total),
        )
        assert_same_result(huge, full)

    def test_tiny_corpus_returns_everything(self, queries):
        must = MUST(
            random_multivector_set(6, DIMS, seed=11), weights=WEIGHTS
        ).build()
        res = must.query(Query(queries[0]), SearchOptions(k=10, l=100))
        assert len(res.ids) == 6

    @pytest.mark.parametrize("engine", ["auto", "wave"])
    def test_tiny_corpus_returns_everything_on_every_surface(
        self, queries, engine
    ):
        """Fewer objects than k: the snapshot and the service clamp ``l``
        through the same ``resolve`` as ``MUST.query`` (they used to
        clamp by hand and raise ``l=6 must be at least k=10``)."""
        must = MUST(
            random_multivector_set(6, DIMS, seed=11), weights=WEIGHTS
        ).build()
        must.mark_deleted(np.array([2]))
        opts = SearchOptions(k=10, engine=engine)
        ref = must.query(Query(queries[0]), opts)
        assert sorted(ref.ids) == [0, 1, 3, 4, 5]
        assert_same_result(must.snapshot().query(Query(queries[0]), opts), ref)
        with must.serve() as svc:
            assert_same_result(svc.submit(queries[0], opts).result(30), ref)

    @pytest.mark.parametrize("engine", ["auto", "wave"])
    def test_explicit_l_below_k_same_error_on_every_surface(
        self, built_must, queries, engine, monkeypatch
    ):
        """An explicit l < k is one error text from every surface, and it
        is raised before anything is scored."""
        from repro.index import graph_wave

        def no_scoring(*args, **kwargs):
            raise AssertionError("scored before the plan check")

        monkeypatch.setattr(graph_wave._Wave, "__init__", no_scoring)
        opts = SearchOptions(k=50, l=10, engine=engine)
        message = "result set size l=10 must be at least k=50"
        with pytest.raises(ValueError, match=message):
            built_must.query(queries[0], opts)
        with pytest.raises(ValueError, match=message):
            built_must.query(queries[:2], opts)
        with pytest.raises(ValueError, match=message):
            built_must.snapshot().query(queries[0], opts)
        with built_must.serve() as svc:
            with pytest.raises(ValueError, match=message):
                svc.submit(queries[0], opts).result(30)
