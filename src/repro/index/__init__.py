"""Proximity-graph indexing and joint search (paper §VII).

* :class:`FusedIndexBuilder` — the paper's component-based pipeline
  (Algorithm 1), producing the re-assembled "Ours" index.
* :func:`joint_search` — the merging-free joint search (Algorithm 2) with
  the Lemma-4 multi-vector computation optimisation.
* :mod:`repro.index.graphs` — KGraph / NSG / NSSG / HNSW / Vamana / HCNNG
  for the Fig. 10 ablation.
* :class:`FlatIndex` — exact brute force (the MUST-- reference): the
  one exact kernel, a float32 GEMM prefilter for the batch and a float64
  rerank inside a derived band; deletion- and filter-aware.
* :class:`Scorer` / :func:`batch_score_all` — the unified scoring engine
  every search path (graph engines, flat scan, baselines) routes through.
* :func:`execute` — the one dispatcher that interprets a
  :class:`~repro.core.query.SearchOptions` plan, over the
  :class:`BatchExecutor` strategy runners (the exact kernel, lockstep
  graph waves, the per-query oracle loop) with aggregated per-batch
  stats; every graph search starts from
  :meth:`GraphIndex.entry_points` and every exact similarity comes from
  a row-independent kernel, so an answer is a function of the index and
  the query.
* :class:`SegmentedIndex` — the §IX dynamic-update subsystem: streaming
  inserts into a mutable delta segment, sealed immutable segments, and
  automatic compaction under a :class:`SegmentPolicy`.
"""

from repro.index.base import GraphIndex
from repro.index.executor import (
    BatchExecutor,
    BatchResult,
    GraphTarget,
    execute,
)
from repro.index.flat import FlatIndex
from repro.index.graphs import (
    HCNNGBuilder,
    HNSWBuilder,
    KGraphBuilder,
    NSGBuilder,
    NSSGBuilder,
    VamanaBuilder,
)
from repro.index.nndescent import graph_quality, nndescent, random_knn
from repro.index.pipeline import FusedIndexBuilder
from repro.index.scoring import MatrixScorer, Scorer, batch_score_all
from repro.index.search import greedy_search_graph, joint_search
from repro.index.segments import Segment, SegmentedIndex, SegmentPolicy

BUILDERS = {
    "ours": FusedIndexBuilder,
    "kgraph": KGraphBuilder,
    "nsg": NSGBuilder,
    "nssg": NSSGBuilder,
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
    "Scorer",
    "MatrixScorer",
    "batch_score_all",
    "FusedIndexBuilder",
    "KGraphBuilder",
    "NSGBuilder",
    "NSSGBuilder",
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
