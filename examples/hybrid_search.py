"""Hybrid retrieval: dense multi-vector search + a sparse lexical plane.

Dense embeddings resolve *semantics* (which neighbourhood of meaning a
document lives in) but blur *exact wording* — rare tokens, model
numbers, names.  The sparse lexical modality adds a BM25/TF-IDF plane
next to the dense modalities: one term-frequency row per object, scored
by an inverted posting-list engine and fused into the joint similarity
as one more weighted modality::

    score(q, x) = Σ_i ω_i²·IP_i(q, x)  +  ω_s²·BM25(q_s, x_s)

The walkthrough builds a toy product corpus where two groups of items
share a dense centroid (same kind of product) but differ in rare tokens
(brand / model terms), shows dense-only search confusing the groups and
hybrid search pinning the right one, then streams hybrid inserts and
round-trips the whole corpus through the v4 segment manifest.

Run:  python examples/hybrid_search.py
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro import MUST, Query, SearchOptions
from repro.core.multivector import (
    MultiVector,
    MultiVectorSet,
    normalize_rows,
)
from repro.core.weights import Weights
from repro.index.segments import SegmentPolicy
from repro.sparse import SparseStore

DIM = 32
PER_GROUP = 40

#: a tiny vocabulary — in a real system this is your tokenizer's
VOCAB = {
    "camera": 0, "lens": 1, "tripod": 2, "battery": 3,
    "acme": 4, "zenith": 5, "pro9000": 6, "lite100": 7,
}


def make_corpus(rng: np.random.Generator) -> MultiVectorSet:
    """Two brands of the same product: one dense centroid, two token
    profiles — the separation only the lexical plane can see."""
    centroid = rng.standard_normal(DIM).astype(np.float32)
    dense = normalize_rows(
        centroid
        + 0.6 * rng.standard_normal((2 * PER_GROUP, DIM)).astype(np.float32)
    )
    rows = []
    for i in range(2 * PER_GROUP):
        brand = "acme" if i < PER_GROUP else "zenith"
        model = "pro9000" if i < PER_GROUP else "lite100"
        rows.append({
            VOCAB["camera"]: float(rng.integers(1, 4)),
            VOCAB[brand]: float(rng.integers(1, 3)),
            VOCAB[model]: 1.0,
        })
    sparse = SparseStore.from_rows(rows, vocab=len(VOCAB), metric="bm25")
    return MultiVectorSet([dense], sparse=sparse)


def main() -> None:
    rng = np.random.default_rng(7)
    objects = make_corpus(rng)
    must = MUST(
        objects,
        weights=Weights([1.0]),
        segment_policy=SegmentPolicy(seal_size=64, max_segments=8),
    ).build()

    # A buyer searching for "acme pro9000 camera": semantically it is
    # just *a camera* (both brands match), lexically it is unambiguous.
    dense_q = MultiVector.from_arrays([objects.modality(0)[3]])
    lexical = {VOCAB["acme"]: 1.0, VOCAB["pro9000"]: 2.0}

    dense_only = must.query(dense_q, SearchOptions(k=10, exact=True))
    hybrid = must.query(
        Query(dense_q, sparse=lexical, sparse_weight=0.8),
        SearchOptions(k=10, exact=True),
    )
    frac = lambda r: float(np.mean(r.ids < PER_GROUP))  # noqa: E731
    print(f"dense-only top-10 in the acme group: {frac(dense_only):.0%}")
    print(f"hybrid     top-10 in the acme group: {frac(hybrid):.0%}")

    # Streamed objects carry their sparse rows with them; the corpus
    # statistics (document frequencies, avgdl) re-sync on every write.
    ext = must.insert(make_corpus(rng))
    must.mark_deleted(ext[:10])
    after = must.query(
        Query(dense_q, sparse=lexical, sparse_weight=0.8),
        SearchOptions(k=10, l=60),
    )
    print(f"after insert+delete churn, graph-path top-1 id: {after.ids[0]}")

    # A corpus with a sparse plane persists as manifest v4; dense-only
    # corpora keep writing v3/v2 archives readable by older builds.
    tmp = Path(tempfile.mkdtemp(prefix="hybrid_example_"))
    try:
        must.save_index(tmp / "index")
        reloaded = MUST(
            make_corpus(rng), weights=Weights([1.0])
        ).load_index(tmp / "index")
        again = reloaded.query(
            Query(dense_q, sparse=lexical, sparse_weight=0.8),
            SearchOptions(k=10, l=60),
        )
        assert np.array_equal(after.ids, again.ids)
        print("v4 manifest round-trip: answers bit-identical")
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    main()
