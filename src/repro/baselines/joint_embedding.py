"""Baseline 2 — Joint Embedding (JE), paper §III.

All query modalities are fused into a single composition vector
``Φ(q0,…,q_{t−1})`` and searched against the corpus of target-modality
vectors ``{ϕ0(o0)}`` over one index (Fig. 2, possible solution II).
Accuracy is bounded by the fusion encoder's error — the paper's §IV
example and Tables III–VI show it trailing both MR and MUST.
"""

from __future__ import annotations

import time

from repro.core.multivector import MultiVector, MultiVectorSet
from repro.core.query import Query, SearchOptions
from repro.core.results import SearchResult
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.executor import BatchResult, GraphTarget, execute
from repro.index.flat import FlatIndex
from repro.index.pipeline import FusedIndexBuilder
from repro.index.search import joint_search
from repro.utils.validation import require

__all__ = ["JointEmbeddingSearch"]


class JointEmbeddingSearch:
    """Single-channel vector search over the target modality."""

    def __init__(
        self,
        objects: MultiVectorSet,
        target_modality: int = 0,
        builder=None,
        exact: bool = False,
    ):
        self.objects = objects
        self.target_modality = int(target_modality)
        self.exact = bool(exact)
        self._builder = builder or FusedIndexBuilder(name="je")
        self.space = JointSpace(
            MultiVectorSet([objects.modality(self.target_modality)]),
            Weights([1.0]),
        )
        self._index = None
        self.build_seconds = 0.0

    @property
    def name(self) -> str:
        return "JE"

    def build(self) -> "JointEmbeddingSearch":
        start = time.perf_counter()
        self._index = (
            FlatIndex(self.space) if self.exact else self._builder.build(self.space)
        )
        self.build_seconds = time.perf_counter() - start
        return self

    def search(
        self, query: MultiVector, k: int, l: int = 100
    ) -> SearchResult:
        """Search with the composition vector in the query's target slot."""
        require(self._index is not None, "call build() first")
        sub_query = self._sub_query(query)
        if self.exact:
            return self._index.search(sub_query, k)
        return joint_search(
            self._index, sub_query, k=k, l=min(max(l, k), self.objects.n)
        )

    def _sub_query(self, query: MultiVector) -> MultiVector:
        composition = query.vectors[self.target_modality]
        require(
            composition is not None,
            "JE needs the composition vector in the target slot "
            "(encode the dataset with a composition encoder, Option 2)",
        )
        return MultiVector((composition,))

    def batch_search(
        self,
        queries: list[MultiVector],
        k: int,
        l: int = 100,
    ) -> BatchResult:
        """Batch JE search through the shared dispatcher (one GEMM when
        exact, the per-query loop on the graph otherwise)."""
        require(self._index is not None, "call build() first")
        return execute(
            GraphTarget(None if self.exact else self._index, self.space),
            [Query(self._sub_query(q)) for q in queries],
            SearchOptions(k=k, l=max(l, k), exact=self.exact, engine="heap"),
        )
