"""repro — a full reproduction of MUST (ICDE 2024).

MUST: An Effective and Scalable Framework for Multimodal Search of Target
Modality (Wang et al.).  The package provides:

* :class:`repro.core.MUST` — the framework: multi-vector embedding,
  vector weight learning, fused proximity-graph indexing, joint search;
* :mod:`repro.baselines` — the MR / JE / MUST-- / MR-- comparison points;
* :mod:`repro.index` — seven proximity-graph algorithms built from a
  component pipeline;
* :mod:`repro.datasets` — generators for the paper's nine corpora;
* :mod:`repro.embedding` — the pluggable (simulated) encoder zoo;
* :mod:`repro.metrics` — Recall@k(k'), SME, and QPS measurement.

See the README's "Module map" for the architecture and its "Tests and
benchmarks" section for how every table and figure is regenerated.
"""

from repro.core import (
    MUST,
    And,
    AttributeTable,
    Eq,
    Filter,
    In,
    JointSpace,
    MultiVector,
    MultiVectorSet,
    Not,
    Or,
    Query,
    Range,
    SearchOptions,
    SearchResult,
    SearchStats,
    Weights,
)

__version__ = "1.1.0"

__all__ = [
    "MUST",
    "JointSpace",
    "MultiVector",
    "MultiVectorSet",
    "SearchResult",
    "SearchStats",
    "Weights",
    "AttributeTable",
    "Query",
    "SearchOptions",
    "Filter",
    "Eq",
    "In",
    "Range",
    "And",
    "Or",
    "Not",
    "__version__",
]
