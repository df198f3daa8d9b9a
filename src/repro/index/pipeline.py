"""Component-based fused-index construction (paper §VII-A, Algorithm 1).

:class:`FusedIndexBuilder` assembles the five components —
① NNDescent initialisation, ② candidate acquisition, ③ neighbour
selection, ④ seed preprocessing, ⑤ connectivity — into the paper's
re-assembled "Ours" index.  A graph of the Fig. 10 ablation that is
only another choice per component is a recipe — settings of this one
builder (``repro.index.BUILDERS``), not a class of its own:

* KGraph — ② the NNDescent rows themselves, ③ ``"top"``, no ⑤;
* NSG — ① ``init_k=20``, ② search-based (NSG's beam of 48), ③ MRNG;
* NSSG — ① ``init_k=20``, ② two-hop capped at 96, ③ angle (60°).

HNSW, Vamana and HCNNG build differently (layered insertion, α-passes
from a random graph, clustering-tree MSTs) and keep their own classes
in :mod:`repro.index.graphs`.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.space import JointSpace
from repro.index.base import GraphIndex
from repro.index.components import (
    angle_select,
    centroid_seed,
    ensure_connectivity,
    mrng_select,
    search_based_candidates,
    top_gamma_select,
    two_hop_candidates,
)
from repro.index.nndescent import nndescent
from repro.utils.validation import require

__all__ = ["FusedIndexBuilder"]

logger = logging.getLogger(__name__)

_SELECTIONS = ("mrng", "angle", "top")
_CANDIDATES = ("two-hop", "search", "knn")


@dataclass
class FusedIndexBuilder:
    """Builds the fused proximity-graph index of Algorithm 1.

    Parameters mirror the paper: ``gamma`` is the maximum out-degree
    (Appendix H recommends 30), ``epsilon`` the NNDescent iteration count
    (3 reaches ≥0.99 graph quality, Tab. XI).  One setting per
    component: ``init_k`` (①, ``gamma`` when ``None``),
    ``candidate_source`` and ``max_candidates`` (②: two-hop, NSG's
    search-based, or ``"knn"``, the NNDescent rows unranked, which only
    ``"top"`` takes, and only whole), ``selection`` (③: MRNG, NSSG's angle, or the
    first ``gamma``) and ``connect`` (⑤); the seed (④) is the vertex
    nearest the centroid.
    """

    gamma: int = 30
    epsilon: int = 3
    init_k: int | None = None
    max_candidates: int = 64
    selection: str = "mrng"
    candidate_source: str = "two-hop"
    seed: int = 0
    connect: bool = True
    name: str = "ours"

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
        ranked = self.candidate_source != "knn"
        whole_rows = self.init_k is None or self.init_k <= self.gamma
        require(ranked or (self.selection == "top" and whole_rows),
                "candidate_source 'knn' leaves the rows unranked: only "
                "selection 'top' takes them, and only whole (init_k <= gamma)")

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
        sims: np.ndarray | None = None
        if self.candidate_source == "knn":
            cand = knn
        elif self.candidate_source == "two-hop":
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
        if self.selection == "top":
            neighbors = top_gamma_select(cand, self.gamma)
        elif self.selection == "angle":
            neighbors = angle_select(space, cand, self.gamma)
        else:
            assert sims is not None  # __post_init__: "knn" takes "top" only
            neighbors = mrng_select(space, cand, sims, self.gamma)
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
