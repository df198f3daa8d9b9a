"""Search result containers and instrumentation counters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = ["SearchStats", "SearchResult"]


@dataclass(slots=True)
class SearchStats:
    """Work counters for one search (or an aggregate over a batch).

    ``modality_evals`` counts per-modality vector similarity evaluations —
    the unit the multi-vector computation optimisation (Lemma 4) saves.
    A full joint similarity over ``m`` modalities costs ``m`` modality
    evaluations; an early-terminated one costs fewer.  No search plan
    terminates early, so ``pruned_early`` is filled only by the Lemma-4
    reference of Fig. 10(c) (:mod:`repro.bench.efficiency`) and reads 0
    on every answer.

    ``segments_probed`` counts how many index segments contributed to the
    answer: 0 for a classic single-graph search, ≥1 when the query went
    through a :class:`~repro.index.segments.SegmentedIndex` (one per
    sealed/delta segment probed; merging per-segment stats sums it, so a
    batch aggregate reports total probes across the batch).
    ``segments_scanned`` counts the probes among them that scored the
    whole segment instead of traversing a graph — the delta, which has
    none, and a sealed segment the query's beam already covers
    (:func:`~repro.index.segments.beam_covers`): those probes add
    ``joint_evals`` but no ``hops`` or ``waves``.

    ``reranked`` counts candidates re-scored at full precision by the
    two-stage ``refine=`` pipeline (0 when rerank is off).

    ``waves`` and ``frontier_sizes`` are batch-level counters of the
    lockstep :func:`~repro.index.graph_wave.graph_wave_search` engine:
    one wave advances every active query by up to
    ``expansions_per_wave`` expansions, and each wave's frontier size
    is the number of stacked candidates it scored in one batched call.
    They stay 0/empty on per-query engines; merging sums waves and
    concatenates the frontier trace.  The trace is a tuple, empty by
    default, so the per-query stats every answer carries hold no list
    of their own (a retained answer is ~10 % smaller for it).
    """

    visited_vertices: int = 0
    hops: int = 0
    joint_evals: int = 0
    modality_evals: int = 0
    pruned_early: int = 0
    segments_probed: int = 0
    segments_scanned: int = 0
    reranked: int = 0
    waves: int = 0
    frontier_sizes: tuple[int, ...] = ()

    def merge(self, other: "SearchStats") -> None:
        """Accumulate *other* into self (for batch aggregation)."""
        self.visited_vertices += other.visited_vertices
        self.hops += other.hops
        self.joint_evals += other.joint_evals
        self.modality_evals += other.modality_evals
        self.pruned_early += other.pruned_early
        self.segments_probed += other.segments_probed
        self.segments_scanned += other.segments_scanned
        self.reranked += other.reranked
        self.waves += other.waves
        if other.frontier_sizes:
            self.frontier_sizes = (*self.frontier_sizes, *other.frontier_sizes)

    @classmethod
    def aggregate(cls, stats: "Iterable[SearchStats]") -> "SearchStats":
        """Sum of many per-query counters (one batch's total work)."""
        total = cls()
        for s in stats:
            total.merge(s)
        return total


@dataclass(slots=True)
class SearchResult:
    """Ranked answer to one query: best-first ids with joint similarities."""

    ids: np.ndarray
    similarities: np.ndarray
    stats: SearchStats = field(default_factory=SearchStats)

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.similarities = np.asarray(self.similarities, dtype=np.float64)

    def __len__(self) -> int:
        return int(self.ids.size)

    def top(self, k: int) -> "SearchResult":
        """First *k* entries (results are already best-first)."""
        return SearchResult(self.ids[:k], self.similarities[:k], self.stats)
