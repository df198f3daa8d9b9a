"""HNSW [Malkov & Yashunin, TPAMI'20]: hierarchical navigable small world.

Incremental insertion with geometric level assignment, per-layer beam
search, and the neighbour-selection heuristic (RNG-style pruning).  The
exported :class:`~repro.index.base.GraphIndex` is the **base layer with
the hierarchy's entry point as seed** — routing from a good entry on the
base layer is the behaviour the upper layers exist to provide, and it
lets the shared :func:`~repro.index.search.joint_search` drive every
graph uniformly (documented simplification).

HNSW supports *incremental* inserts, which is why §IX names it (with
Vamana) as the index family that handles dynamic updates: an
:meth:`HNSWBuilder.insert`-built graph grows one point at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.space import JointSpace
from repro.index.base import GraphIndex
from repro.index.components import prune_one
from repro.index.search import greedy_search_graph
from repro.utils.rng import make_rng

__all__ = ["HNSWBuilder", "HNSWGraph"]


@dataclass
class HNSWGraph:
    """Mutable multi-layer adjacency built by :class:`HNSWBuilder`."""

    layers: list[dict[int, list[int]]] = field(default_factory=list)
    levels: dict[int, int] = field(default_factory=dict)
    entry_point: int = -1

    @property
    def top_level(self) -> int:
        return len(self.layers) - 1


class HNSWBuilder:
    """Incremental HNSW construction over a joint space."""

    def __init__(
        self,
        m: int = 16,
        ef_construction: int = 64,
        seed: int = 0,
        name: str = "hnsw",
    ):
        self.m = int(m)
        self.m0 = 2 * int(m)  # base layer allows double degree
        self.ef_construction = int(ef_construction)
        self.seed = int(seed)
        self.name = name
        self._level_scale = 1.0 / np.log(self.m)

    # ------------------------------------------------------------------
    def build(self, space: JointSpace) -> GraphIndex:
        start = time.perf_counter()
        rng = make_rng(self.seed)
        graph = HNSWGraph()
        for v in range(space.n):
            self.insert(space, graph, v, rng)
        index = self.materialize(space, graph)
        index.build_seconds = time.perf_counter() - start
        return index

    def materialize(self, space: JointSpace, graph: HNSWGraph) -> GraphIndex:
        """Export *graph*'s base layer as a searchable :class:`GraphIndex`.

        Valid at any point during incremental insertion as long as the
        first ``space.n`` vertices have been inserted — the structural
        property tests validate the export after every insert step.
        """
        neighbors = [
            np.asarray(graph.layers[0].get(v, []), dtype=np.int32)
            for v in range(space.n)
        ]
        return GraphIndex(
            space=space,
            neighbors=neighbors,
            seed_vertex=graph.entry_point,
            name=self.name,
            meta={
                "m": self.m,
                "ef_construction": self.ef_construction,
                "levels": graph.top_level + 1,
            },
        )

    # ------------------------------------------------------------------
    def insert(
        self,
        space: JointSpace,
        graph: HNSWGraph,
        v: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        """Insert vertex *v* into *graph* (the §IX dynamic-update path)."""
        rng = make_rng(rng)
        concat = space.concatenated
        total = space.weights.total
        level = int(-np.log(max(rng.random(), 1e-12)) * self._level_scale)
        while graph.top_level < level:
            graph.layers.append({})
        graph.levels[v] = level

        if graph.entry_point < 0:
            graph.entry_point = v
            for lc in range(level + 1):
                graph.layers[lc][v] = []
            return

        # Greedy descend through layers above the insertion level.
        cur = graph.entry_point
        for lc in range(graph.top_level, level, -1):
            ids, _ = greedy_search_graph(
                concat, _LayerView(graph.layers[lc]), cur, concat[v], beam=1
            )
            cur = int(ids[0])

        # Beam search + heuristic selection on each layer ≤ level.
        for lc in range(min(level, graph.top_level), -1, -1):
            layer = graph.layers[lc]
            layer.setdefault(v, [])
            ids, sims = greedy_search_graph(
                concat, _LayerView(layer), cur, concat[v],
                beam=self.ef_construction,
            )
            keep = ids != v
            ids, sims = ids[keep], sims[keep]
            cap = self.m0 if lc == 0 else self.m
            chosen = prune_one(concat, total, ids, sims, cap)
            layer[v] = [int(u) for u in chosen]
            for u in chosen:
                adj = layer.setdefault(int(u), [])
                adj.append(v)
                if len(adj) > cap:
                    adj_ids = np.asarray(adj, dtype=np.int64)
                    adj_sims = concat[adj_ids] @ concat[int(u)]
                    order = np.argsort(-adj_sims, kind="stable")
                    layer[int(u)] = [
                        int(x)
                        for x in prune_one(
                            concat, total,
                            adj_ids[order], adj_sims[order], cap,
                        )
                    ]
            if ids.size:
                cur = int(ids[0])

        if level > graph.levels.get(graph.entry_point, 0):
            graph.entry_point = v


class _LayerView:
    """Adapter exposing a layer dict as ``neighbors[v]`` sequence access."""

    def __init__(self, layer: dict[int, list[int]]):
        self._layer = layer

    def __getitem__(self, v: int) -> np.ndarray:
        return np.asarray(self._layer.get(int(v), []), dtype=np.int64)
