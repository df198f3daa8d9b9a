"""Proximity-graph indexing and joint search (paper §VII).

* :class:`FusedIndexBuilder` — the paper's component-based pipeline
  (Algorithm 1), producing the re-assembled "Ours" index.
* :data:`BUILDERS` — the Fig. 10 graph zoo by name: "ours", and KGraph,
  NSG and NSSG as :class:`FusedIndexBuilder` recipes (one choice per
  component), beside :mod:`repro.index.graphs`' HNSW / Vamana / HCNNG.
* :func:`joint_search` — the merging-free joint search (Algorithm 2).
* :class:`FlatIndex` — exact brute force (the MUST-- reference): the
  one exact kernel, a float32 GEMM prefilter for the batch and a float64
  rerank inside a derived band; deletion- and filter-aware.
* :func:`batch_score_all` — the float32 prefilter of every exact scan
  (the wave scores its frontiers through
  :class:`~repro.index.scoring.RowScorer`, the native row scorer).
* :func:`execute` — the one dispatcher that interprets a
  :class:`~repro.core.query.SearchOptions` plan, over the
  :class:`BatchExecutor` strategy runners (the exact kernel, lockstep
  graph waves) with aggregated per-batch
  stats; every graph search starts from
  :meth:`GraphIndex.entry_points` and every exact similarity comes from
  a row-independent kernel, so an answer is a function of the index and
  the query.
* :class:`SegmentedIndex` — the §IX dynamic-update subsystem: streaming
  inserts into a mutable delta segment, sealed immutable segments, and
  automatic compaction under a :class:`SegmentPolicy`.
"""

from functools import partial

from repro.index.base import GraphIndex
from repro.index.executor import (
    BatchExecutor,
    BatchResult,
    GraphTarget,
    execute,
)
from repro.index.flat import FlatIndex
from repro.index.graphs import HCNNGBuilder, HNSWBuilder, VamanaBuilder
from repro.index.nndescent import graph_quality, nndescent, random_knn
from repro.index.pipeline import FusedIndexBuilder
from repro.index.scoring import batch_score_all
from repro.index.search import greedy_search_graph, joint_search
from repro.index.segments import Segment, SegmentedIndex, SegmentPolicy

BUILDERS = {
    "ours": FusedIndexBuilder,
    "kgraph": partial(
        FusedIndexBuilder,
        name="kgraph",
        candidate_source="knn",
        selection="top",
        connect=False,
    ),
    "nsg": partial(
        FusedIndexBuilder, name="nsg", init_k=20, candidate_source="search"
    ),
    "nssg": partial(
        FusedIndexBuilder, name="nssg", init_k=20, max_candidates=96, selection="angle"
    ),
    "hnsw": HNSWBuilder,
    "vamana": VamanaBuilder,
    "hcnng": HCNNGBuilder,
}

__all__ = [
    "GraphIndex",
    "FlatIndex",
    "SegmentedIndex",
    "SegmentPolicy",
    "Segment",
    "BatchExecutor",
    "BatchResult",
    "GraphTarget",
    "execute",
    "batch_score_all",
    "FusedIndexBuilder",
    "HNSWBuilder",
    "VamanaBuilder",
    "HCNNGBuilder",
    "BUILDERS",
    "graph_quality",
    "nndescent",
    "random_knn",
    "joint_search",
    "greedy_search_graph",
]
