"""Component-based fused-index construction (paper §VII-A, Algorithm 1).

:class:`FusedIndexBuilder` assembles the five components —
① NNDescent initialisation, ② candidate acquisition, ③ neighbour
selection, ④ seed preprocessing, ⑤ connectivity — into the paper's
re-assembled "Ours" index.  Every stage is parameterised so the graph
ablation (Fig. 10) can swap strategies without new code.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.space import JointSpace
from repro.index.base import GraphIndex
from repro.index.components import (
    angle_select,
    centroid_seed,
    ensure_connectivity,
    mrng_select,
    rng_alpha_select,
    search_based_candidates,
    top_gamma_select,
    two_hop_candidates,
)
from repro.index.nndescent import nndescent
from repro.utils.validation import require

__all__ = ["FusedIndexBuilder"]

logger = logging.getLogger(__name__)

_SELECTIONS = ("mrng", "angle", "alpha", "top")
_CANDIDATES = ("two-hop", "search")


@dataclass
class FusedIndexBuilder:
    """Builds the fused proximity-graph index of Algorithm 1.

    Parameters mirror the paper: ``gamma`` is the maximum out-degree
    (Appendix H recommends 30), ``epsilon`` the NNDescent iteration count
    (3 reaches ≥0.99 graph quality, Tab. XI).
    """

    gamma: int = 30
    epsilon: int = 3
    init_k: int | None = None
    max_candidates: int = 64
    selection: str = "mrng"
    candidate_source: str = "two-hop"
    alpha: float = 1.2
    min_angle_deg: float = 60.0
    seed: int = 0
    connect: bool = True
    name: str = "ours"
    extra_meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require(self.gamma >= 1, "gamma must be positive")
        require(self.epsilon >= 0, "epsilon must be non-negative")
        require(self.init_k is None or self.init_k >= 1,
                f"init_k must be at least 1 (or None), got {self.init_k}")
        require(self.max_candidates >= 1,
                f"max_candidates must be at least 1, got {self.max_candidates}")
        require(self.selection in _SELECTIONS,
                f"selection must be one of {_SELECTIONS}")
        require(self.candidate_source in _CANDIDATES,
                f"candidate_source must be one of {_CANDIDATES}")

    def build(self, space: JointSpace) -> GraphIndex:
        """Run the five-component pipeline over *space*."""
        start = time.perf_counter()
        if space.n <= 2:
            return self._trivial(space, start)
        init_k = self.init_k if self.init_k is not None else self.gamma
        init_k = min(init_k, space.n - 1)

        # ① Initialisation — NNDescent KNN graph under joint similarity.
        knn = nndescent(space, k=init_k, iterations=self.epsilon, seed=self.seed)
        t_init = time.perf_counter()

        # ④ Seed preprocessing (needed early by search-based candidates).
        seed_vertex = centroid_seed(space)

        # ② Candidate acquisition.
        if self.candidate_source == "two-hop":
            cand, sims = two_hop_candidates(
                space, knn, max_candidates=self.max_candidates
            )
        else:
            cand, sims = search_based_candidates(
                space, knn, entry=seed_vertex,
                max_candidates=self.max_candidates,
            )
        t_cand = time.perf_counter()

        # ③ Neighbour selection.
        if self.selection == "mrng":
            neighbors = mrng_select(space, cand, sims, self.gamma)
        elif self.selection == "alpha":
            neighbors = rng_alpha_select(
                space, cand, sims, self.gamma, alpha=self.alpha
            )
        elif self.selection == "angle":
            neighbors = angle_select(
                space, cand, sims, self.gamma, min_angle_deg=self.min_angle_deg
            )
        else:
            neighbors = top_gamma_select(cand, sims, self.gamma)
        t_select = time.perf_counter()

        # ⑤ Connectivity.
        if self.connect:
            neighbors = ensure_connectivity(space, neighbors, seed_vertex)

        end = time.perf_counter()
        elapsed = end - start
        logger.debug(
            "event=build n=%d k=%d init_s=%.4f candidates_s=%.4f "
            "select_s=%.4f connect_s=%.4f seconds=%.4f",
            space.n, init_k, t_init - start, t_cand - t_init,
            t_select - t_cand, end - t_select, elapsed,
        )
        meta = self._meta()
        return GraphIndex(
            space=space,
            neighbors=neighbors,
            seed_vertex=seed_vertex,
            name=self.name,
            build_seconds=elapsed,
            meta=meta,
        )

    def _meta(self) -> dict[str, Any]:
        return {
            "gamma": self.gamma,
            "epsilon": self.epsilon,
            "selection": self.selection,
            "candidate_source": self.candidate_source,
            **self.extra_meta,
        }

    def _trivial(self, space: JointSpace, start: float) -> GraphIndex:
        """Degenerate corpora (n ≤ 2): the pipeline's components assume
        at least one non-self neighbour per vertex, so emit the complete
        graph directly.  Compaction can shrink a segment this far."""
        n = space.n
        neighbors = [
            np.asarray([u for u in range(n) if u != v], dtype=np.int32)
            for v in range(n)
        ]
        return GraphIndex(
            space=space,
            neighbors=neighbors,
            seed_vertex=0,
            name=self.name,
            build_seconds=time.perf_counter() - start,
            meta=self._meta(),
        )
