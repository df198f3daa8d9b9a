"""Sparse lexical plane unit suite: kernels, store lifecycle, scorer.

The load-bearing contract is **three-way bit parity**: the posting-list
scatter (:func:`sparse_scores_inverted`, the one scorer) and two
oracles in ``tests/conftest.py`` — the per-document reference loop
(:func:`sparse_scores_reference`) and the brute-force per-term scan
(:func:`sparse_scores_bruteforce`) — are deliberately structured
differently, yet must produce bit-identical float64 score arrays.  On
top of that:

* the store keeps rows in canonical CSR form, so scores are
  layout-independent — splitting the corpus into planes (with the
  global statistics stamped) changes no bits;
* ``local_stats`` is cached but the cache is invisible: re-wraps share
  it, subsets drop it, and the recomputed values are identical;
* the ``to_arrays``/``from_arrays`` npz codec round-trips rows, metric
  and stamped statistics exactly;
* degenerate inputs — empty vocabularies, all-zero rows, empty
  corpora, filters that eliminate every candidate — return empty (or
  all-zero) results instead of crashing, on the scorer and the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.framework import MUST
from repro.core.multivector import (
    MultiVector,
    MultiVectorSet,
    normalize_rows,
)
from repro.core.query import Eq, Query, SearchOptions
from repro.core.weights import Weights
from repro.sparse.inverted import lex_scatter, sparse_scores_inverted, sparse_topk
from repro.sparse.kernels import SparseQuery, as_sparse_query
from repro.sparse.store import PostingArrays, SparseStats, SparseStore, sum_stats

from tests import oracles
from tests.conftest import (
    on_sparse_oracle,
    oracle_scores_inverted,
    sparse_scores_bruteforce,
    sparse_scores_reference,
)

sp = pytest.importorskip("scipy.sparse")

METRICS = ("bm25", "tfidf")


def random_store(
    n: int = 80,
    vocab: int = 40,
    metric: str = "bm25",
    seed: int = 0,
    density: float = 0.15,
) -> SparseStore:
    """Integer term frequencies at roughly *density* — stats stay exact."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, vocab)) < density
    tfs = rng.integers(1, 6, size=(n, vocab)).astype(np.float32) * mask
    return SparseStore(sp.csr_matrix(tfs), metric=metric)


def random_sparse_query(
    vocab: int, seed: int = 0, terms: int = 6
) -> SparseQuery:
    rng = np.random.default_rng(seed)
    idx = rng.choice(vocab, size=min(terms, vocab), replace=False)
    val = rng.integers(1, 4, size=idx.size).astype(np.float64)
    return as_sparse_query((idx.astype(np.int64), val))


# ----------------------------------------------------------------------
# Query normalisation
# ----------------------------------------------------------------------
class TestSparseQuery:
    def test_canonical_form(self):
        q = as_sparse_query(([7, 3, 7, 5], [1.0, 2.0, 0.5, 0.0]))
        np.testing.assert_array_equal(q.indices, [3, 7])
        np.testing.assert_array_equal(q.values, [2.0, 1.5])

    def test_mapping_and_pair_forms_agree(self):
        a = as_sparse_query({3: 2.0, 9: 1.0})
        b = as_sparse_query(([9, 3], [1.0, 2.0]))
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)

    def test_idempotent_on_sparse_query(self):
        q = as_sparse_query({1: 1.0})
        assert as_sparse_query(q) is q

    def test_rejections(self):
        with pytest.raises(ValueError, match="non-negative"):
            as_sparse_query(([1], [-1.0]))
        with pytest.raises(ValueError, match="weights"):
            as_sparse_query(([1, 2], [1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            as_sparse_query(([-2], [1.0]))
        with pytest.raises(ValueError, match="sparse query"):
            as_sparse_query([1, 2, 3])  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Three-way scorer parity
# ----------------------------------------------------------------------
class TestKernelParity:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_scorers_bitwise(self, metric, seed):
        store = random_store(metric=metric, seed=seed)
        query = random_sparse_query(store.vocab, seed=seed + 10)
        ref = sparse_scores_reference(store, query)
        brute = sparse_scores_bruteforce(store, query)
        scatter, touched = sparse_scores_inverted(store, query)
        np.testing.assert_array_equal(ref, brute)
        np.testing.assert_array_equal(brute, scatter)
        # untouched rows score *exactly* +0.0 — the top-k shortcut's
        # soundness condition.
        untouched = np.setdiff1d(np.arange(store.n), touched)
        assert np.all(scatter[untouched] == 0.0)
        assert np.all(np.diff(touched) > 0)  # sorted unique

    @pytest.mark.parametrize("metric", METRICS)
    def test_engine_selector_same_bits(self, metric, monkeypatch):
        """Both ``sparse_engine`` names select the one scorer, and a
        hybrid answer through it — exact and graph plans — is the one
        the brute-force oracle gives."""
        rng = np.random.default_rng(4)
        n = 60
        dense = normalize_rows(rng.standard_normal((n, 8)).astype(np.float32))
        store = random_store(n=n, vocab=30, metric=metric, seed=4)
        must = MUST(MultiVectorSet([dense], sparse=store)).build()
        queries = [
            Query(
                MultiVector.from_arrays([dense[i]]),
                sparse=random_sparse_query(30, seed=5 + i),
            )
            for i in range(4)
        ]
        for exact in (True, False):
            runs = [
                must.query(queries, SearchOptions(
                    k=5, l=20, exact=exact, sparse_engine=name
                ))
                for name in SearchOptions.VALID_SPARSE_ENGINES
            ]
            runs.append(on_sparse_oracle(
                lambda: must.query(queries, SearchOptions(
                    k=5, l=20, exact=exact
                )),
                monkeypatch,
            ))
            for got in runs[1:]:
                for g, want in zip(got, runs[0]):
                    np.testing.assert_array_equal(g.ids, want.ids)
                    assert g.similarities.tobytes() == want.similarities.tobytes()

    def test_out_of_vocabulary_terms_drop(self):
        store = random_store(seed=6)
        query = random_sparse_query(store.vocab, seed=7)
        widened = as_sparse_query(
            (
                np.concatenate([query.indices, [store.vocab + 3]]),
                np.concatenate([query.values, [5.0]]),
            )
        )
        np.testing.assert_array_equal(
            sparse_scores_bruteforce(store, query),
            sparse_scores_bruteforce(store, widened),
        )

    @pytest.mark.parametrize("k", [3, 10, 200])
    def test_topk_touched_shortcut_equals_lexsort(self, k):
        store = random_store(n=60, seed=8)
        query = random_sparse_query(store.vocab, seed=9, terms=3)
        scores, touched = sparse_scores_inverted(store, query)
        full_ids = np.lexsort((np.arange(store.n), -scores))[:k]
        fast_ids, fast_scores = sparse_topk(scores, k, None, touched)
        np.testing.assert_array_equal(full_ids, fast_ids)
        np.testing.assert_array_equal(scores[full_ids], fast_scores)

    def test_topk_admissible_mask(self):
        store = random_store(n=50, seed=10)
        query = random_sparse_query(store.vocab, seed=11)
        scores, touched = sparse_scores_inverted(store, query)
        admissible = np.zeros(store.n, dtype=bool)
        admissible[::2] = True
        rows = np.flatnonzero(admissible)
        full_ids = rows[np.lexsort((rows, -scores[rows]))[:8]]
        fast_ids, _ = sparse_topk(scores, 8, admissible, touched)
        np.testing.assert_array_equal(full_ids, fast_ids)
        assert np.all(full_ids % 2 == 0)


def _postings(rng, n, vocab, density, tf_dtype):
    """A random CSC triplet: column t's rows ascending, positive
    fractional term frequencies of *tf_dtype*."""
    present = rng.random((vocab, n)) < density
    indptr = np.concatenate(([0], np.cumsum(present.sum(axis=1)))).astype(np.int64)
    indices = np.flatnonzero(present.ravel()) % max(n, 1)
    tf = (rng.random(indices.size) * 20.0 + 1e-3).astype(tf_dtype)
    return indptr, indices.astype(np.int64), tf


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 40),
    vocab=st.integers(1, 12),
    density=st.floats(0.0, 1.0),
    tf_dtype=st.sampled_from([np.float32, np.float64]),
    bm25=st.booleans(),
    terms=st.lists(st.integers(-2, 15), max_size=10),
)
@example(seed=0, n=0, vocab=3, density=0.5, tf_dtype=np.float32, bm25=True,
         terms=[0, 1])
@example(seed=1, n=9, vocab=4, density=0.0, tf_dtype=np.float64, bm25=False,
         terms=[0, 2])
@example(seed=2, n=9, vocab=4, density=0.7, tf_dtype=np.float32, bm25=True,
         terms=[1, 1, 3, 3, 3])
@example(seed=3, n=9, vocab=4, density=0.7, tf_dtype=np.float64, bm25=True,
         terms=[-1, 4, 9])
def test_lex_scatter_is_the_numpy_loop(
    seed, n, vocab, density, tf_dtype, bm25, terms
):
    """``lex_scatter`` gives the per-term NumPy loop's scores and touched
    rows bit for bit: BM25 and TF-IDF, float32 and float64 term
    frequencies, empty postings, terms outside the vocabulary, repeated
    terms (each adds again) and an empty plane."""
    rng = np.random.default_rng(seed)
    indptr, indices, tf = _postings(rng, n, vocab, density, tf_dtype)
    dl = rng.random(n) * 50.0
    avgdl = float(rng.random() * 30.0 + 0.5) if bm25 else None
    query = np.sort(np.array(terms, dtype=np.int64))
    weights = rng.random(query.size) * 5.0
    got = lex_scatter(
        PostingArrays(indptr, indices, tf.astype(np.float64)),
        dl, query, weights, avgdl,
    )
    want = oracles.lex_scatter((indptr, indices, tf), dl, query, weights, avgdl)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].dtype == np.int64 and got[1].tolist() == want[1].tolist()


def test_lex_scatter_refuses_a_posting_row_out_of_range():
    """A posting row outside ``[0, n)`` is refused with an error."""
    indptr = np.array([0, 2], dtype=np.int64)
    for bad in (-1, 3):
        postings = PostingArrays(
            indptr, np.array([0, bad], dtype=np.int64), np.ones(2)
        )
        with pytest.raises(RuntimeError, match="refused"):
            lex_scatter(postings, np.ones(3), np.array([0]), np.ones(1), 1.0)


def test_posting_arrays_are_cached_like_the_postings():
    """The scatter's copy of the postings is converted once per plane:
    a re-stamped plane shares it, a subset builds its own."""
    store = random_store(seed=12)
    arrays = store.posting_arrays()
    assert store.posting_arrays() is arrays
    assert store.with_stats(store.local_stats()).posting_arrays() is arrays
    sub = store.subset(np.arange(10))
    assert sub.posting_arrays() is not arrays
    csc = store.postings()
    assert arrays.indptr.tolist() == csc.indptr.tolist()
    assert arrays.indices.tolist() == csc.indices.tolist()
    assert arrays.tf.tobytes() == csc.data.astype(np.float64).tobytes()


# ----------------------------------------------------------------------
# Store lifecycle: canonical form, layout parity, stats cache, codecs
# ----------------------------------------------------------------------
class TestStoreLifecycle:
    def test_canonicalisation(self):
        # duplicate columns summed, explicit zeros dropped, indices sorted
        coo = sp.coo_matrix(
            (
                np.array([1.0, 2.0, 0.0, 3.0], dtype=np.float32),
                (np.array([0, 0, 1, 0]), np.array([4, 4, 2, 1])),
            ),
            shape=(2, 6),
        )
        store = SparseStore(coo)
        assert store.nnz == 2  # (0,4)=3 summed, (1,2)=0 eliminated
        row = store.csr.getrow(0)
        np.testing.assert_array_equal(row.indices, [1, 4])
        np.testing.assert_array_equal(row.data, [3.0, 3.0])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            SparseStore(sp.csr_matrix(np.array([[-1.0, 0.0]])))
        with pytest.raises(ValueError, match="scipy.sparse matrix"):
            SparseStore(np.zeros((2, 2)))  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            SparseStore(sp.csr_matrix((1, 1)), metric="ip")

    @pytest.mark.parametrize("metric", METRICS)
    def test_layout_independence(self, metric):
        """Splitting into stamped planes changes no score bits."""
        whole = random_store(n=90, metric=metric, seed=12)
        query = random_sparse_query(whole.vocab, seed=13)
        expect = sparse_scores_bruteforce(whole, query)

        cuts = [(0, 25), (25, 60), (60, 90)]
        parts = [whole.subset(np.arange(lo, hi)) for lo, hi in cuts]
        stats = sum_stats([p.local_stats() for p in parts])
        assert stats.key() == whole.local_stats().key()  # integer tfs

        for (lo, hi), part in zip(cuts, parts):
            stamped = part.with_stats(stats)
            np.testing.assert_array_equal(
                sparse_scores_bruteforce(stamped, query), expect[lo:hi]
            )
        merged = SparseStore.concat(parts, stats=stats)
        np.testing.assert_array_equal(
            sparse_scores_bruteforce(merged, query), expect
        )

    def test_subset_preserves_order_and_stats(self):
        store = random_store(seed=14)
        stats = store.local_stats()
        stamped = store.with_stats(stats)
        ids = np.array([5, 2, 2, 40])
        sub = stamped.subset(ids)
        assert sub.n == 4
        assert sub.stamped_stats is stats
        np.testing.assert_array_equal(
            sub.csr.toarray(), store.csr.toarray()[ids]
        )

    def test_local_stats_cache_is_invisible(self):
        store = random_store(seed=15)
        first = store.local_stats()
        assert store.local_stats() is first  # cached
        rewrap = store.with_stats(None)
        assert rewrap.local_stats() is first  # shared across re-wraps
        sub = store.subset(np.arange(10))
        fresh = random_store(seed=15).subset(np.arange(10)).local_stats()
        assert sub.local_stats().key() == fresh.key()

    def test_stats_fallback_and_stamp(self):
        store = random_store(seed=16)
        assert store.stamped_stats is None
        assert store.stats.key() == store.local_stats().key()
        foreign = SparseStats(
            n_docs=1000,
            doc_freq=np.ones(store.vocab, dtype=np.int64),
            total_len=5000.0,
        )
        assert store.with_stats(foreign).stats is foreign

    def test_avgdl_floor(self):
        empty = SparseStats(0, np.zeros(3, dtype=np.int64), 0.0)
        assert empty.avgdl == 1.0

    def test_sum_stats_vocab_mismatch(self):
        a = random_store(vocab=10, seed=17).local_stats()
        b = random_store(vocab=11, seed=18).local_stats()
        with pytest.raises(ValueError, match="vocabularies"):
            sum_stats([a, b])

    def test_concat_mismatches_rejected(self):
        a = random_store(vocab=10, seed=19)
        with pytest.raises(ValueError, match="vocabulary"):
            SparseStore.concat([a, random_store(vocab=12, seed=20)])
        with pytest.raises(ValueError, match="metric"):
            SparseStore.concat(
                [a, random_store(vocab=10, metric="tfidf", seed=21)]
            )

    @pytest.mark.parametrize("metric", METRICS)
    def test_npz_roundtrip_bitwise(self, tmp_path, metric):
        store = random_store(metric=metric, seed=22).with_stats(
            random_store(n=200, metric=metric, seed=23).local_stats()
        )
        path = tmp_path / "plane.npz"
        np.savez(path, **store.to_arrays())
        with np.load(path, allow_pickle=False) as arrays:
            loaded = SparseStore.from_arrays(dict(arrays.items()))
        assert loaded is not None
        assert loaded.metric == metric
        assert loaded.stats.key() == store.stats.key()
        query = random_sparse_query(store.vocab, seed=24)
        np.testing.assert_array_equal(
            sparse_scores_bruteforce(loaded, query),
            sparse_scores_bruteforce(store, query),
        )

    def test_from_arrays_absent_keys(self):
        assert SparseStore.from_arrays({"other": np.zeros(1)}) is None

    def test_byte_accounting(self):
        store = random_store(seed=25)
        assert store.cold_bytes() == 0
        bare = store.hot_bytes()
        stamped = store.with_stats(store.local_stats())
        assert stamped.hot_bytes() > bare


# ----------------------------------------------------------------------
# Degenerate corpora (satellite: must return empty, never crash)
# ----------------------------------------------------------------------
#: the lexical scorer each edge case runs on: the posting-list scatter,
#: or the brute-force oracle reporting every row touched.
SCORERS = {"inverted": sparse_scores_inverted, "exact": oracle_scores_inverted}


class TestEdgeCases:
    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    def test_empty_vocabulary_corpus(self, scorer):
        store = SparseStore(sp.csr_matrix((5, 0), dtype=np.float32))
        query = as_sparse_query(([3], [1.0]))  # out-of-vocab by definition
        scores, touched = SCORERS[scorer](store, query)
        assert np.all(scores == 0.0)
        ids, top = sparse_topk(scores, 3, None, touched)
        np.testing.assert_array_equal(ids, [0, 1, 2])  # zero-tie → asc id
        assert np.all(top == 0.0)

    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    def test_all_zero_rows(self, scorer):
        store = SparseStore.from_rows([{}, {}, {2: 1.0}, {}], vocab=4)
        assert store.nnz == 1
        query = as_sparse_query({2: 1.0})
        scores, touched = SCORERS[scorer](store, query)
        assert scores[2] > 0.0
        assert np.all(scores[[0, 1, 3]] == 0.0)
        if scorer == "inverted":
            np.testing.assert_array_equal(touched, [2])
        ids, _ = sparse_topk(scores, 3, None, touched)
        np.testing.assert_array_equal(ids, [2, 0, 1])  # zero back-fill asc

    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    def test_empty_corpus(self, scorer):
        store = SparseStore.empty(vocab=8)
        query = random_sparse_query(8, seed=26)
        scores, touched = SCORERS[scorer](store, query)
        assert scores.shape == (0,)
        ids, top = sparse_topk(scores, 5, None, touched)
        assert ids.size == 0 and top.size == 0

    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    def test_empty_query(self, scorer):
        store = random_store(seed=27)
        scores, _ = SCORERS[scorer](store, as_sparse_query({}))
        assert np.all(scores == 0.0)

    def test_topk_admissible_eliminates_everything(self):
        store = random_store(n=20, seed=28)
        query = random_sparse_query(store.vocab, seed=29)
        scores, touched = sparse_scores_inverted(store, query)
        nothing = np.zeros(store.n, dtype=bool)
        for t in (np.arange(store.n), touched):
            ids, top = sparse_topk(scores, 5, nothing, t)
            assert ids.size == 0 and top.size == 0

    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    @pytest.mark.parametrize("exact_plan", [False, True])
    def test_filter_eliminates_every_candidate(
        self, scorer, exact_plan, monkeypatch
    ):
        """End-to-end: a hybrid query whose filter admits nothing must
        return an empty result — not crash — on the scorer and the
        oracle, and on both search plans."""
        rng = np.random.default_rng(30)
        n = 40
        dense = normalize_rows(
            rng.standard_normal((n, 12)).astype(np.float32)
        )
        sparse = random_store(n=n, vocab=16, seed=31)
        objects = MultiVectorSet([dense], sparse=sparse).set_attributes(
            {"category": np.array(["kept"] * n)}
        )
        must = MUST(objects, weights=Weights([1.0])).build()
        query = Query(
            MultiVector.from_arrays([dense[0]]),
            sparse=random_sparse_query(16, seed=32),
            filter=Eq("category", "nope"),
        )
        opts = SearchOptions(k=5, l=20, exact=exact_plan)
        if scorer == "inverted":
            res = must.query(query, opts)
        else:
            res = on_sparse_oracle(lambda: must.query(query, opts), monkeypatch)
        assert res.ids.size == 0
        assert res.similarities.size == 0


# ----------------------------------------------------------------------
# Lexical metric and engine names
# ----------------------------------------------------------------------
class TestRegistry:
    def test_metric_did_you_mean(self):
        with pytest.raises(ValueError, match="did you mean 'bm25'"):
            random_store(metric="bm52")
        with pytest.raises(ValueError, match="did you mean 'tfidf'"):
            random_store(metric="tfidff")

    def test_metric_kind_mismatch(self):
        # a dense metric name is no lexical metric
        for name in ("ip", "cosine", "l2"):
            with pytest.raises(ValueError, match="unknown sparse metric"):
                random_store(metric=name)

    def test_engine_did_you_mean(self):
        with pytest.raises(ValueError, match="did you mean 'inverted'"):
            SearchOptions(sparse_engine="invrted")
        with pytest.raises(ValueError, match="did you mean 'wave'"):
            SearchOptions(engine="wav")
        assert SearchOptions(sparse_engine="inverted").sparse_engine == "inverted"

    def test_cosine_zero_row_safe(self):
        """A zero row (a missing modality) stays zero under
        ``normalize=True`` and scores exactly 0.0 against any query."""
        rows = np.zeros((3, 4), dtype=np.float32)
        rows[1] = [3.0, 0.0, 4.0, 0.0]
        objects = MultiVectorSet([rows], normalize=True)
        assert np.all(objects.modality(0)[[0, 2]] == 0.0)
        query = MultiVector.from_arrays([np.full(4, 0.5, dtype=np.float32)])
        must = MUST(objects, weights=Weights([1.0]))
        res = must.query(query, SearchOptions(k=3, exact=True))
        assert res.ids.tolist() == [1, 0, 2]
        assert res.similarities[1:].tolist() == [0.0, 0.0]
