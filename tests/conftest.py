"""Shared fixtures: small deterministic corpora and prebuilt indexes.

Session-scoped so expensive artifacts (graph builds, weight training) are
constructed once for the whole suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.multivector import MultiVector, MultiVectorSet, normalize_rows
from repro.core.results import SearchResult
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.datasets import EncoderCombo, encode_dataset, make_mitstates
from repro.index.pipeline import FusedIndexBuilder
from repro.utils.rng import make_rng


def random_multivector_set(
    n: int, dims: tuple[int, ...], seed: int = 0
) -> MultiVectorSet:
    """Normalised random multi-vector corpus for structural tests."""
    rng = make_rng(seed)
    mats = [
        normalize_rows(rng.standard_normal((n, d)).astype(np.float32))
        for d in dims
    ]
    return MultiVectorSet(mats)


def random_query(dims: tuple[int, ...], seed: int = 0) -> MultiVector:
    rng = make_rng(seed)
    return MultiVector(
        tuple(
            (lambda v: (v / np.linalg.norm(v)).astype(np.float32))(
                rng.standard_normal(d)
            )
            for d in dims
        )
    )


def stable_oracle(
    space: JointSpace,
    query: MultiVector,
    k: int,
    *,
    ids: np.ndarray | None = None,
    deleted: np.ndarray | None = None,
) -> SearchResult:
    """The exact plans' reference: every row through the row-independent
    float64 kernel, live rows ordered by ``(-similarity, reported
    id)``."""
    sims = space.query_ids_stable(query)
    reported = np.arange(space.n) if ids is None else np.asarray(ids)
    if deleted is not None:
        sims, reported = sims[~deleted], reported[~deleted]
    order = np.lexsort((reported, -sims))[:k]
    return SearchResult(reported[order], sims[order])


@pytest.fixture(scope="session")
def tiny_set() -> MultiVectorSet:
    """200 objects × 2 modalities (16 and 8 dims)."""
    return random_multivector_set(200, (16, 8), seed=1)


@pytest.fixture(scope="session")
def tiny_space(tiny_set) -> JointSpace:
    return JointSpace(tiny_set, Weights([0.4, 0.6]))


@pytest.fixture(scope="session")
def tiny_index(tiny_space):
    return FusedIndexBuilder(gamma=10, seed=3).build(tiny_space)


@pytest.fixture(scope="session")
def mitstates_small():
    """A small MIT-States corpus shared by dataset/framework tests."""
    return make_mitstates(
        num_nouns=12, num_states=6, instances_per_pair=2, num_queries=40, seed=5
    )


@pytest.fixture(scope="session")
def mitstates_encoded(mitstates_small):
    return encode_dataset(
        mitstates_small, EncoderCombo("resnet50", ("lstm",)), seed=0
    )
