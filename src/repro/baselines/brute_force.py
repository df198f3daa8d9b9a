"""Brute-force MUST (the paper's **MUST--**): exact joint search.

Same multi-vector representation and weights as MUST, but a linear scan
instead of the fused graph — the reference point of Fig. 6 / Tab. VII.
"""

from __future__ import annotations

from repro.core.multivector import MultiVector, MultiVectorSet
from repro.core.query import Query
from repro.core.results import SearchResult
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.executor import BatchExecutor, BatchResult
from repro.index.flat import FlatIndex

__all__ = ["BruteForceMUST"]


class BruteForceMUST:
    """Exact joint-similarity search (no index).

    Accepts typed :class:`~repro.core.query.Query` objects anywhere a
    :class:`MultiVector` is accepted — per-query weights, attribute
    filters, and k overrides flow straight through the shared
    :class:`FlatIndex` scan, so the baseline stays a valid post-filter
    oracle for the filtered search paths.
    """

    name = "MUST--"

    def __init__(self, objects: MultiVectorSet, weights: Weights):
        self.space = JointSpace(objects, weights)
        self._flat = FlatIndex(self.space)
        self.build_seconds = 0.0

    def build(self) -> "BruteForceMUST":
        """No-op for API parity with the indexed searchers."""
        return self

    def search(
        self,
        query: MultiVector | Query,
        k: int,
        weights: Weights | None = None,
    ) -> SearchResult:
        return self._flat.search(query, k, weights=weights)

    def batch_search(
        self,
        queries: list[MultiVector | Query],
        k: int,
        weights: Weights | None = None,
    ) -> BatchResult:
        """Exact batch: all fast-path queries scored with one GEMM."""
        return BatchExecutor.run_flat(
            self._flat, queries, k, weights=weights
        )
