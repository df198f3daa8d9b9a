"""Graph index container shared by every proximity-graph algorithm."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.space import JointSpace
from repro.store import make_store
from repro.utils.io import load_arrays, pack_adjacency, save_arrays, unpack_adjacency
from repro.utils.validation import require

__all__ = ["GraphIndex", "reseat_on_store"]


#: edges :func:`_check_csr` looks at per step, so its temporaries stay
#: small beside the graph it checks.
_CSR_BLOCK = 1 << 14


def _check_csr(flat: np.ndarray, offsets: np.ndarray, n: int) -> None:
    """Raise ``ValueError`` naming the first vertex whose CSR row is
    malformed: offsets out of order, a neighbour id outside ``[0, n)``
    or one id listed twice."""
    counts = np.diff(offsets)
    bad = np.flatnonzero(counts < 0)
    require(
        bad.size == 0 and offsets[0] == 0 and offsets[-1] == flat.size,
        f"vertex {int(bad[0]) if bad.size else 0} has malformed CSR offsets",
    )
    # Whole rows at a time, about _CSR_BLOCK edges each.
    firsts = np.searchsorted(
        offsets, np.arange(0, flat.size, _CSR_BLOCK), side="right"
    ) - 1
    bounds = np.append(np.unique(firsts), n).tolist()
    for v0, v1 in zip(bounds[:-1], bounds[1:]):
        lo = int(offsets[v0])
        ids = flat[lo : offsets[v1]]
        out = np.flatnonzero((ids < 0) | (ids >= n))
        if out.size:
            vertex = int(np.searchsorted(offsets, lo + out[0], side="right")) - 1
            raise ValueError(
                f"vertex {vertex} has out-of-range neighbour id "
                f"{int(ids[out[0]])} (n={n})"
            )
        # Sorting (row, id) keys puts a repeated id next to itself.
        rows = np.repeat(np.arange(v0, v1, dtype=np.int64), counts[v0:v1])
        keys = np.sort(rows * n + ids)
        twice = np.flatnonzero(keys[1:] == keys[:-1])
        if twice.size:
            vertex, dup = divmod(int(keys[twice[0]]), n)
            raise ValueError(f"vertex {vertex} lists neighbour {dup} twice")


def reseat_on_store(
    index: "GraphIndex", compression: str, store_options: dict | None = None
) -> "GraphIndex":
    """Swap a built graph's serving representation for a compressed store.

    The routing graph is untouched; the space is rebound to a
    :func:`~repro.store.make_store` encoding of the current vectors'
    exact tier, under the same weights.  ``compression="none"`` is a
    no-op.  Its caller in the library is the one seal path,
    :func:`repro.index.segments.seal_index`.
    """
    if compression == "none":
        return index
    vectors = index.space.vectors
    store = make_store(
        compression,
        [vectors.exact_modality(i) for i in range(vectors.num_modalities)],
        **(store_options or {}),
    )
    # The attribute table, sparse plane, and metric declaration ride
    # along: compression changes the dense vector representation, never
    # which objects a filter admits or how lexical rows score.
    index.space = index.space.rebind(store)
    return index


@dataclass
class GraphIndex:
    """A directed proximity graph over a joint similarity space.

    ``neighbors[v]`` lists the out-neighbours of vertex ``v``; the searcher
    (Algorithm 2) greedily routes from ``seed_vertex``.  The same container
    serves the fused MUST index and every single-modality index the MR
    baseline builds.

    Algorithm 2's initial result set (l. 1-3: the seed vertex plus
    ``l - 1`` random vertices) is a property of the graph, not of the
    request: :meth:`entry_points` hands every search the same prefix of
    one fixed entry order, so an answer is a function of the index and
    the query alone.
    """

    space: JointSpace
    neighbors: list[np.ndarray]
    seed_vertex: int
    name: str = "graph"
    build_seconds: float = 0.0
    meta: dict = field(default_factory=dict)
    #: data-status bitset (paper §IX): True marks a soft-deleted vertex.
    #: Deleted vertices keep routing traffic (they may be essential for
    #: connectivity) but are excluded from results until reconstruction.
    deleted: np.ndarray | None = None
    #: lazily built entry order (:meth:`entry_points`); never persisted.
    _entry_order: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: one-slot box for the lazily built CSR form (:meth:`csr_adjacency`).
    #: :meth:`frozen` copies share the box itself, so whichever copy is
    #: traversed first builds it for all of them; never persisted.
    _csr: list[tuple[np.ndarray, np.ndarray]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        require(
            len(self.neighbors) == self.space.n,
            f"adjacency covers {len(self.neighbors)} vertices, space has "
            f"{self.space.n}",
        )
        require(
            0 <= self.seed_vertex < self.space.n,
            "seed vertex out of range",
        )
        self.neighbors = [
            np.asarray(adj, dtype=np.int32) for adj in self.neighbors
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.space.n

    @property
    def num_edges(self) -> int:
        return int(self.csr_adjacency()[1][-1])

    def csr_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """``(flat, offsets)`` CSR form of :attr:`neighbors`, built once.

        The adjacency is immutable after build (deletes go through the
        bitset, compaction builds a fresh index), so the arrays live as
        long as the graph and every :meth:`frozen` copy reads the same
        pair.  Only a traversal that gathers whole frontiers needs it
        (:func:`~repro.index.graph_wave.graph_wave_search`); a graph
        that is never traversed never pays for one.

        Building it checks what a traversal relies on — offsets that
        never decrease, every neighbour id in ``[0, n)``, no id twice in
        one row — and raises ``ValueError`` naming the first bad vertex,
        so a corrupt archive fails here instead of indexing out of
        bounds mid-wave.  Both arrays are read-only.
        """
        if not self._csr:
            flat, offsets = pack_adjacency(self.neighbors)  # int32, int64
            _check_csr(flat, offsets, self.n)
            flat.setflags(write=False)
            offsets.setflags(write=False)
            self._csr.append((flat, offsets))
        return self._csr[0]

    def degree_stats(self) -> dict[str, float]:
        """Min / mean / max out-degree — the paper's γ bounds the max."""
        degrees = np.asarray([len(adj) for adj in self.neighbors])
        return {
            "min": float(degrees.min()),
            "mean": float(degrees.mean()),
            "max": float(degrees.max()),
        }

    def size_in_bytes(self) -> int:
        """Index size (adjacency only, as in the paper's Fig. 7(b)).

        The vector payload is shared by every method, so index-size
        comparisons count the graph structure: 4 bytes per edge plus the
        offsets array.
        """
        return self.num_edges * 4 + (self.n + 1) * 8

    def entry_points(self, l: int) -> np.ndarray:
        """The first ``min(l, n)`` vertices of the entry order (read-only).

        The order is the seed vertex followed by a fixed pseudo-random
        permutation of every other vertex — a pure function of
        ``(n, seed_vertex)``, computed once per graph and shared by its
        :meth:`frozen` copies, so a search pays an ``O(l)`` slice.  It is
        not written to disk: a loaded graph recomputes the same order.
        """
        order = self._entry_order
        if order is None or order[0] != self.seed_vertex:
            n = self.n
            order = np.empty(n, dtype=np.int64)
            order[0] = self.seed_vertex
            # Shifted around the seed so it never appears twice.
            rest = np.random.default_rng(0).permutation(n - 1)
            order[1:] = (rest + self.seed_vertex + 1) % n
            order.setflags(write=False)
            self._entry_order = order
        return order[:l]

    def frozen(self) -> "GraphIndex":
        """A copy later :meth:`mark_deleted` calls cannot reach.

        Only the §IX bitset is copied; adjacency (with the box that
        holds its CSR form), entry order, space and metadata are shared
        as they are (nothing is re-validated), so a capture costs
        ``O(n)`` bytes of bitset and no Python loop.  The
        entry order is built here if it was not yet, under the caller's
        write serialisation, so every copy shares one array and threads
        reading a copy never race to build it.
        """
        self.entry_points(0)
        clone = copy.copy(self)
        if self.deleted is not None:
            clone.deleted = self.deleted.copy()
        return clone

    def validate(self) -> None:
        """Structural sanity: ids in range, no self-loops, seed alive.

        A soft-deleted seed still routes traffic, but an index meant to
        *serve* (a sealed segment, a freshly compacted graph) must keep
        an active entry point — deleting it is legal mid-stream and is
        repaired by the next compaction, so this check belongs at
        seal/compact transitions rather than inside :meth:`mark_deleted`.
        """
        for v, adj in enumerate(self.neighbors):
            if adj.size == 0:
                continue
            require(bool((adj >= 0).all() and (adj < self.n).all()),
                    f"vertex {v} has out-of-range neighbour ids")
            require(bool((adj != v).all()), f"vertex {v} has a self-loop")
        require(
            self.deleted is None or not bool(self.deleted[self.seed_vertex]),
            f"seed vertex {self.seed_vertex} is soft-deleted",
        )

    # ------------------------------------------------------------------
    # Dynamic updates (paper §IX)
    # ------------------------------------------------------------------
    @property
    def num_active(self) -> int:
        if self.deleted is None:
            return self.n
        return int(self.n - self.deleted.sum())

    def mark_deleted(self, ids: np.ndarray) -> None:
        """Soft-delete objects via the data-status bitset.

        The vertices stay in the graph — removing them could disconnect
        regions — and are filtered out of search results; call a builder
        on the active subset (:meth:`active_ids`) to reconstruct.
        """
        ids = np.asarray(ids, dtype=np.int64)
        require(
            bool((ids >= 0).all() and (ids < self.n).all()),
            "deleted ids out of range",
        )
        if self.deleted is None:
            self.deleted = np.zeros(self.n, dtype=bool)
        self.deleted[ids] = True
        require(self.num_active > 0, "cannot delete every object")

    def active_ids(self) -> np.ndarray:
        """Ids of all non-deleted objects (for reconstruction)."""
        if self.deleted is None:
            return np.arange(self.n, dtype=np.int64)
        return np.flatnonzero(~self.deleted).astype(np.int64)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Serialise the graph structure (not the vectors) to ``.npz``."""
        flat, offsets = pack_adjacency(self.neighbors)
        arrays = {"flat": flat, "offsets": offsets}
        if self.deleted is not None:
            arrays["deleted"] = self.deleted
        save_arrays(
            path,
            metadata={
                "name": self.name,
                "seed_vertex": int(self.seed_vertex),
                "build_seconds": float(self.build_seconds),
                "meta": {
                    k: v
                    for k, v in self.meta.items()
                    if isinstance(v, (str, int, float, bool))
                    or (
                        isinstance(v, (list, tuple))
                        and all(isinstance(x, (str, int, float, bool)) for x in v)
                    )
                    or (
                        isinstance(v, dict)
                        and all(
                            isinstance(x, (str, int, float, bool))
                            for x in v.values()
                        )
                    )
                },
            },
            **arrays,
        )

    @classmethod
    def from_arrays(
        cls, metadata: dict, arrays: dict[str, np.ndarray], space: JointSpace
    ) -> "GraphIndex":
        """Rebuild a graph from already-loaded archive contents.

        Lets callers that need to inspect the metadata first (e.g. to
        restore stored weights before constructing *space*) avoid a
        second read of the archive — :meth:`load` is this plus the I/O.
        """
        neighbors = unpack_adjacency(arrays["flat"], arrays["offsets"])
        deleted = arrays.get("deleted")
        return cls(
            space=space,
            neighbors=neighbors,
            seed_vertex=int(metadata["seed_vertex"]),
            name=str(metadata["name"]),
            build_seconds=float(metadata["build_seconds"]),
            meta=dict(metadata.get("meta", {})),
            deleted=None if deleted is None else deleted.astype(bool),
        )

    @classmethod
    def load(cls, path: str | Path, space: JointSpace) -> "GraphIndex":
        """Load a graph saved by :meth:`save`, rebinding it to *space*."""
        metadata, arrays = load_arrays(path)
        return cls.from_arrays(metadata, arrays, space)
