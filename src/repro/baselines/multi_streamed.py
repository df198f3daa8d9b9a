"""Baseline 1 — Multi-streamed Retrieval (MR), paper §III.

One vector index per modality; a query is split into sub-queries, each
searched independently, and the candidate lists are merged
(intersection-first rank fusion).  ``exact=True`` yields the brute-force
variant the paper labels **MR--**.

The §III optimisation is supported transparently: when the caller passes
Option-2 queries (composition vector in the target slot), the target
stream searches with ``Φ(q0,…,q_{t−1})`` instead of ``ϕ0(q0)``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.multivector import MultiVector, MultiVectorSet
from repro.core.results import SearchResult, SearchStats
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.baselines.merging import merge_candidates
from repro.index.executor import BatchResult
from repro.index.flat import FlatIndex
from repro.index.pipeline import FusedIndexBuilder
from repro.index.search import joint_search
from repro.utils.validation import require

__all__ = ["MultiStreamedRetrieval"]


class MultiStreamedRetrieval:
    """Per-modality indexes + candidate merging."""

    def __init__(
        self,
        objects: MultiVectorSet,
        builder_factory=None,
        exact: bool = False,
        merge_strategy: str = "intersection-target",
    ):
        """``builder_factory(modality_index) -> builder`` customises the
        per-modality graph; the default is the same fused pipeline MUST
        uses, applied to a single modality (fair comparison, §VIII-A).
        ``merge_strategy`` selects the candidate-merging rule (see
        :func:`repro.baselines.merging.merge_candidates`).
        """
        self.objects = objects
        self.exact = bool(exact)
        self.merge_strategy = merge_strategy
        self._builder_factory = builder_factory or (
            lambda i: FusedIndexBuilder(name=f"mr-modality{i}")
        )
        self._spaces = [
            JointSpace(MultiVectorSet([objects.modality(i)]), Weights([1.0]))
            for i in range(objects.num_modalities)
        ]
        self._indexes: list | None = None
        self.build_seconds = 0.0

    @property
    def name(self) -> str:
        return "MR--" if self.exact else "MR"

    @property
    def num_modalities(self) -> int:
        return self.objects.num_modalities

    # ------------------------------------------------------------------
    def build(self) -> "MultiStreamedRetrieval":
        """Build all per-modality indexes (t indexes, Fig. 2 left)."""
        start = time.perf_counter()
        if self.exact:
            self._indexes = [FlatIndex(space) for space in self._spaces]
        else:
            self._indexes = [
                self._builder_factory(i).build(space)
                for i, space in enumerate(self._spaces)
            ]
        self.build_seconds = time.perf_counter() - start
        return self

    def index_size_in_bytes(self) -> int:
        """Total size of all per-modality graphs (Fig. 7(b))."""
        require(self._indexes is not None, "call build() first")
        if self.exact:
            return 0
        return sum(index.size_in_bytes() for index in self._indexes)

    # ------------------------------------------------------------------
    def search(
        self,
        query: MultiVector,
        k: int,
        candidates_per_modality: int = 100,
    ) -> SearchResult:
        """Split → per-modality search → merge (Fig. 2, possible solution I).

        ``candidates_per_modality`` is the per-stream candidate budget the
        paper sweeps (it needs >10⁴ for best accuracy at million scale,
        which is exactly MR's weakness).
        """
        require(self._indexes is not None, "call build() first")
        require(
            query.num_modalities == self.num_modalities,
            "query modality count mismatch",
        )
        stats = SearchStats()
        lists: list[np.ndarray] = []
        per_stream_sims: dict[int, dict[int, float]] = {}
        for i, vec in enumerate(query.vectors):
            if vec is None:
                continue
            sub_query = MultiVector((vec,))
            if self.exact:
                result = self._indexes[i].search(
                    sub_query, candidates_per_modality
                )
            else:
                result = joint_search(
                    self._indexes[i],
                    sub_query,
                    k=min(candidates_per_modality, self.objects.n),
                    l=min(candidates_per_modality, self.objects.n),
                )
            stats.merge(result.stats)
            lists.append(result.ids)
            per_stream_sims[i] = {
                int(obj): float(s)
                for obj, s in zip(result.ids, result.similarities)
            }
        require(lists, "query has no usable modality")

        merged = merge_candidates(lists, k, strategy=self.merge_strategy)
        # Report the mean per-stream similarity where known (merging has
        # no joint score — that is the point of the baseline).
        sims = np.asarray([
            np.mean([
                stream.get(int(obj), 0.0)
                for stream in per_stream_sims.values()
            ])
            for obj in merged
        ])
        return SearchResult(ids=merged, similarities=sims, stats=stats)

    def batch_search(
        self,
        queries: list[MultiVector],
        k: int,
        candidates_per_modality: int = 100,
    ) -> BatchResult:
        """Batch MR search: one :meth:`search` per query, split and merge
        included."""
        results = [
            self.search(query, k, candidates_per_modality=candidates_per_modality)
            for query in queries
        ]
        return BatchResult(
            results, SearchStats.aggregate(r.stats for r in results)
        )
