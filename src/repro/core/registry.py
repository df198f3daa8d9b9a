"""Declarative metric/engine registry — the pluggability seam.

Historically the scoring engine assumed inner-product over dense float
planes: every kernel, every searcher, every bench hardwired ``q @ M.T``.
This module makes the two axes of that assumption *declarative*, in the
spirit of openTSNE's ``KNNIndex``/``VALID_METRICS`` pattern:

* **metrics** — how a query is scored against stored rows.  Dense
  modalities register ``ip`` (the paper's kernel; the default and the
  bit-identical legacy path), ``cosine`` and ``l2``; the sparse lexical
  modality registers ``bm25`` and ``tfidf``.
* **engines** — which search procedure produces candidates.  Dense
  modalities are served by the graph engines (``auto``/``heap``/
  ``paper``/``wave``) or the ``exact`` scan; the sparse modality by the
  ``inverted`` posting-list engine or its brute-force ``exact`` oracle.

Both tables are validated *once, up front* — at ``MUST(...)`` /
``SearchOptions`` construction — with did-you-mean errors, so a typo'd
``metric="cosin"`` fails at the constructor instead of deep inside a
scorer.

Bit-identity contract: when a dense modality's registered metric is
``ip`` (the default), every scoring path takes the exact historical code
route — the registry resolves to a sentinel the callers interpret as
"legacy path", so pre-registry results are preserved bit for bit.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.utils.validation import require

__all__ = [
    "MetricSpec",
    "EngineSpec",
    "METRICS",
    "ENGINES",
    "DENSE_METRICS",
    "SPARSE_METRICS",
    "DENSE_ENGINES",
    "SPARSE_ENGINES",
    "resolve_metric",
    "resolve_engine",
    "validate_metrics",
    "dense_score_rows",
]


@dataclass(frozen=True)
class MetricSpec:
    """One registered scoring metric.

    ``kind`` names the modality family the metric applies to (``dense``
    or ``sparse``); ``description`` feeds error messages and docs.
    """

    name: str
    kind: str
    description: str


@dataclass(frozen=True)
class EngineSpec:
    """One registered search engine (candidate-generation procedure)."""

    name: str
    kind: str
    description: str


#: metric name → spec.  ``ip`` is the default dense metric and the only
#: one the compressed stores and the concat fast path support — the
#: others score through the row-wise float64 fallback kernels.
METRICS: dict[str, MetricSpec] = {
    "ip": MetricSpec("ip", "dense", "inner product (the paper's kernel)"),
    "cosine": MetricSpec(
        "cosine", "dense", "angular similarity (IP over normalised rows)"
    ),
    "l2": MetricSpec(
        "l2", "dense", "negative squared Euclidean distance"
    ),
    "bm25": MetricSpec(
        "bm25", "sparse", "Okapi BM25 over term-frequency rows"
    ),
    "tfidf": MetricSpec(
        "tfidf", "sparse", "TF-IDF dot product over term-frequency rows"
    ),
}

#: engine name → spec.  The dense names match the historical
#: ``SearchOptions.engine`` values; the sparse names drive the lexical
#: candidate generator (``SearchOptions.sparse_engine``).
ENGINES: dict[str, EngineSpec] = {
    "auto": EngineSpec(
        "auto", "dense", "heap for single queries, wave for batches"
    ),
    "heap": EngineSpec("heap", "dense", "per-query two-heap beam search"),
    "paper": EngineSpec("paper", "dense", "Algorithm 2, literal"),
    "wave": EngineSpec("wave", "dense", "lockstep batched traversal"),
    "exact": EngineSpec("exact", "dense", "full scan (MUST--)"),
    "inverted": EngineSpec(
        "inverted", "sparse", "posting-list scatter-add over query terms"
    ),
    "sparse-auto": EngineSpec(
        "sparse-auto", "sparse", "inverted unless overridden"
    ),
    "sparse-exact": EngineSpec(
        "sparse-exact", "sparse", "brute-force per-term scan (the oracle)"
    ),
}

DENSE_METRICS: tuple[str, ...] = tuple(
    name for name, spec in METRICS.items() if spec.kind == "dense"
)
SPARSE_METRICS: tuple[str, ...] = tuple(
    name for name, spec in METRICS.items() if spec.kind == "sparse"
)
DENSE_ENGINES: tuple[str, ...] = tuple(
    name for name, spec in ENGINES.items() if spec.kind == "dense"
)
#: the public ``SearchOptions.sparse_engine`` values.
SPARSE_ENGINES: tuple[str, ...] = ("auto", "inverted", "exact")


def _did_you_mean(name: str, known: tuple[str, ...], what: str) -> str:
    close = difflib.get_close_matches(name, known, n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return (
        f"unknown {what} {name!r}{hint}; registered {what}s: "
        f"{', '.join(known)}"
    )


def resolve_metric(name: str, kind: str | None = None) -> MetricSpec:
    """Look up a metric by name, with a did-you-mean error on a typo.

    *kind* optionally restricts the lookup to one modality family so a
    dense modality declared with ``metric="bm25"`` fails with the dense
    candidate list, not a confusing pass.
    """
    known = tuple(
        n for n, spec in METRICS.items()
        if kind is None or spec.kind == kind
    )
    if name not in known:
        what = f"{kind} metric" if kind else "metric"
        raise ValueError(_did_you_mean(str(name), known, what))
    return METRICS[name]


def resolve_engine(name: str, kind: str | None = None) -> EngineSpec:
    """Look up an engine by name, with a did-you-mean error on a typo.

    ``kind="sparse"`` validates against the public
    :data:`SPARSE_ENGINES` names (``auto`` resolves to ``inverted``);
    ``kind="graph"`` restricts to the graph traversal engines — the
    legal :attr:`~repro.core.query.SearchOptions.engine` values, where
    ``exact`` is a separate flag rather than an engine name.
    """
    if kind == "sparse":
        if name not in SPARSE_ENGINES:
            raise ValueError(
                _did_you_mean(str(name), SPARSE_ENGINES, "sparse engine")
            )
        resolved = "inverted" if name == "auto" else name
        return ENGINES["inverted" if resolved == "inverted" else "sparse-exact"]
    if kind == "graph":
        known = tuple(n for n in DENSE_ENGINES if n != "exact")
        if name not in known:
            raise ValueError(_did_you_mean(str(name), known, "graph engine"))
        return ENGINES[name]
    known = tuple(
        n for n, spec in ENGINES.items()
        if (kind is None or spec.kind == kind) and not n.startswith("sparse-")
    )
    if name not in known:
        what = f"{kind} engine" if kind else "engine"
        raise ValueError(_did_you_mean(str(name), known, what))
    return ENGINES[name]


def validate_metrics(
    metrics: "tuple[str, ...] | list[str]", num_modalities: int
) -> tuple[str, ...]:
    """Validate a per-dense-modality metric declaration.

    Returns the normalised tuple.  One name per modality; every name
    must be a registered *dense* metric (the sparse metrics live on the
    sparse plane, not in this list).
    """
    names = tuple(str(m) for m in metrics)
    require(
        len(names) == num_modalities,
        f"metrics declares {len(names)} entries but the object set has "
        f"{num_modalities} dense modalities — one metric name per modality",
    )
    for name in names:
        resolve_metric(name, kind="dense")
    return names


# ----------------------------------------------------------------------
# Dense fallback kernels (non-IP metrics)
# ----------------------------------------------------------------------
def _score_cosine(query: np.ndarray, rows: np.ndarray) -> np.ndarray:
    ips = np.einsum("ij,j->i", rows, query, dtype=np.float64)
    row_norms = np.sqrt(
        np.einsum("ij,ij->i", rows, rows, dtype=np.float64)
    )
    q_norm = float(np.sqrt(np.einsum("i,i->", query, query)))
    denom = row_norms * q_norm
    safe = np.where(denom == 0.0, 1.0, denom)
    return np.asarray(ips / safe, dtype=np.float64)


def _score_l2(query: np.ndarray, rows: np.ndarray) -> np.ndarray:
    diff = rows - query
    return -np.einsum("ij,ij->i", diff, diff, dtype=np.float64)


_DENSE_KERNELS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "cosine": _score_cosine,
    "l2": _score_l2,
}


def dense_score_rows(
    metric: str, query: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Row-independent float64 scores of *query* against *rows*.

    The fallback kernel the :class:`~repro.core.space.JointSpace`
    scoring routes use for non-IP dense metrics.  Each row is reduced
    independently in float64 (einsum upcasts per element), so — like
    :meth:`JointSpace.query_ids_stable` — a row's score never depends
    on which other rows share the matrix.  ``ip`` deliberately has no
    entry here: IP takes the historical (bit-identical) code path, never
    this one.
    """
    kernel = _DENSE_KERNELS.get(metric)
    if kernel is None:
        raise ValueError(
            f"metric {metric!r} has no dense fallback kernel — 'ip' is "
            f"scored on the legacy path and sparse metrics are scored by "
            f"the sparse plane"
        )
    query64 = np.asarray(query, dtype=np.float64)
    rows64 = np.asarray(rows, dtype=np.float64)
    return kernel(query64, rows64)
