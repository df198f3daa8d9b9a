"""Immutable read views of a :class:`~repro.core.framework.MUST` index.

:class:`IndexSnapshot` is the unit of snapshot isolation in the serving
layer: the dispatcher captures one at the head of every wave, and every
search in that wave runs against it lock-free while inserts, deletes,
and compactions keep mutating the live index.  Two flavours, matching
the two states a framework instance can be in:

* **segmented** — wraps :meth:`SegmentedIndex.snapshot`, a frozen
  :class:`~repro.index.segments.SegmentView` (copied §IX bitsets,
  detached containers; vectors shared copy-on-write).
* **single-graph** — a not-yet-segmented instance.  The built graph is
  immutable apart from its deletion bitset, so the snapshot is its
  :meth:`~repro.index.base.GraphIndex.frozen` copy; the exact path
  keeps the full-precision scan over ``MUST.space`` (compression never
  touches it).

On both, and on both the graph and the exact path, a search is
bit-identical to what ``MUST.query`` answered at capture time — alone
or coalesced into a wave, because no engine reads its wave-mates.

Either way the snapshot is a *target* of
:func:`repro.index.executor.execute` — the same dispatcher
``MUST.query`` runs through, which is what makes the parity hold by
construction.

Snapshots are cheap (no vector data is copied) and plain objects —
holding one pins the captured arrays in memory but costs nothing else.
Capturing must be serialised with writers (the service takes its write
lock); once captured, a snapshot is safe to read from any number of
threads.

Memory-mapped cold tiers need no special casing here: the share-not-copy
capture (``GraphIndex.frozen`` / ``SegmentedIndex.snapshot``) keeps the
*same* :class:`~repro.store.MmapPlane` objects across epochs, so every
snapshot reads the cold files through one pinned mapping — page-cache
pages are shared copy-on-write between all live epochs, and a compaction
that retires a segment's files first pins their mappings (POSIX keeps an
unlinked inode readable through open maps) so older snapshots keep
answering bit-identically until they are garbage collected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.multivector import MultiVector
from repro.core.query import Query, SearchOptions, as_query
from repro.core.results import SearchResult
from repro.core.weights import Weights
from repro.index.executor import BatchResult, GraphTarget, execute
from repro.index.segments import SegmentView
from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.core.framework import MUST

__all__ = ["IndexSnapshot"]


class IndexSnapshot:
    """One frozen, searchable state of a framework instance.

    Construct via :meth:`of` (or :meth:`MUST.snapshot`).  For any
    request the snapshot answers exactly what the live instance would
    have answered at capture time — the parity contract the serving
    layer's tests pin down bit for bit.
    """

    def __init__(self, target: SegmentView | GraphTarget) -> None:
        self.target = target

    @classmethod
    def of(cls, must: "MUST") -> "IndexSnapshot":
        """Capture the current state of *must* (which must be built)."""
        require(
            must.is_built,
            "cannot snapshot an unbuilt index — call build() first",
        )
        if must.is_segmented:
            return cls(must.segments.snapshot())
        return cls(GraphTarget(must.index.frozen(), must.space))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_segmented(self) -> bool:
        return isinstance(self.target, SegmentView)

    @property
    def num_active(self) -> int:
        if isinstance(self.target, SegmentView):
            return int(self.target.num_active)
        assert self.target.index is not None  # of() captured a built graph
        return int(self.target.index.num_active)

    @property
    def n(self) -> int:
        if isinstance(self.target, SegmentView):
            return int(self.target.num_total)
        return int(self.target.exact_space.n)

    def prepare(self) -> None:
        """Materialise lazy per-space artifacts (concat matrices and
        their row-norm scalars) so threads reading this snapshot never
        race to build them (the entry order was built at capture, by
        ``GraphIndex.frozen``)."""
        if isinstance(self.target, SegmentView):
            self.target.prepare_search()
            return
        assert self.target.index is not None  # of() captured a built graph
        for space in (self.target.index.space, self.target.exact_space):
            if not space.is_compressed:
                space.max_concat_norm

    # ------------------------------------------------------------------
    # Searching
    # ------------------------------------------------------------------
    def query(
        self,
        query: MultiVector | Query,
        options: SearchOptions | None = None,
    ) -> SearchResult:
        """One typed query against the captured state — what
        :meth:`MUST.query` answered for it at capture time
        (``options.collection`` is ignored: routing is the service's
        concern, a snapshot *is* one collection's state)."""
        opts = options if options is not None else SearchOptions()
        return execute(
            self.target, [as_query(query)], opts, independent=True
        ).results[0]

    def graph_wave(
        self,
        queries: "Sequence[MultiVector | Query]",
        options: SearchOptions,
    ) -> BatchResult:
        """Coalesced graph group — the serving layer's lockstep wave.

        One traversal per segment (or one for a single-graph snapshot)
        carries every request that shares *options*, as independent
        requests: an answer is bit-identical to the same request
        dispatched alone with ``engine="wave"`` (composition
        independence).
        """
        return execute(
            self.target,
            [as_query(q) for q in queries],
            options,
            independent=True,
        )

    def exact_wave(
        self,
        queries: "Sequence[MultiVector | Query]",
        k: int,
        weights: Weights | None = None,
        refine: int | None = None,
        sparse_engine: str = "auto",
    ) -> list[SearchResult]:
        """Coalesced exact group — one prefilter GEMM per segment (or
        one, on a single graph) carries every request.

        The one exact kernel (:meth:`FlatIndex.batch_search`) behind
        :meth:`~repro.index.segments.SegmentView.exact_wave` or the
        single graph's scanner, so each answer is bit-identical to the
        same request sent alone through :meth:`query`.
        """
        scan = (
            self.target.exact_wave
            if isinstance(self.target, SegmentView)
            else self.target.flat().batch_search
        )
        return scan(
            list(queries), k, weights=weights, refine=refine,
            sparse_engine=sparse_engine,
        )
