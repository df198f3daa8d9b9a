"""Exact (brute-force) answers under a joint space — evaluation ground
truth, e.g. :func:`~repro.datasets.largescale.exact_ground_truth` for the
semi-synthetic corpora.

Ground truth is the exact plan's own answer: one
:meth:`~repro.index.flat.FlatIndex.batch_search` call (a float32
prefilter GEMM, then a float64 rerank), ordered by ``(-similarity,
id)``.  So a recall of the exact plan against it is 1.0 by construction,
ties at the cut-off included.
"""

from __future__ import annotations

import numpy as np

from repro.core.multivector import MultiVector
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.flat import FlatIndex

__all__ = ["exact_top_k", "exact_top_k_batch"]


def exact_top_k(
    space: JointSpace,
    query: MultiVector,
    k: int,
    weights: Weights | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-*k* ids and float64 joint similarities for one query."""
    result = FlatIndex(space).search(query, k, weights=weights)
    return result.ids, result.similarities


def exact_top_k_batch(
    space: JointSpace,
    queries: list[MultiVector],
    k: int,
    weights: Weights | None = None,
) -> list[np.ndarray]:
    """Exact top-*k* ids for each query in a batch."""
    results = FlatIndex(space).batch_search(queries, k, weights=weights)
    return [result.ids for result in results]
