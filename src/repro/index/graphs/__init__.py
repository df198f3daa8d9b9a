"""The Fig. 10 ablation's graphs that are their own algorithms: HNSW
(layered insertion), Vamana (α-passes from a random graph) and HCNNG
(clustering-tree MSTs).  KGraph, NSG and NSSG are
:class:`~repro.index.pipeline.FusedIndexBuilder` recipes
(``repro.index.BUILDERS``)."""

from repro.index.graphs.hcnng import HCNNGBuilder
from repro.index.graphs.hnsw import HNSWBuilder
from repro.index.graphs.vamana import VamanaBuilder

__all__ = [
    "HCNNGBuilder",
    "HNSWBuilder",
    "VamanaBuilder",
]
