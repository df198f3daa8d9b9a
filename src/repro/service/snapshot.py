"""Immutable read views of a :class:`~repro.core.framework.MUST` index.

:class:`IndexSnapshot` is the unit of snapshot isolation in the serving
layer: the dispatcher captures one at the head of every wave, and every
search in that wave runs against it lock-free while inserts, deletes,
and compactions keep mutating the live index.  Two flavours, matching
the two states a framework instance can be in:

* **segmented** — wraps :meth:`SegmentedIndex.snapshot`, a frozen
  :class:`~repro.index.segments.SegmentView` (copied §IX bitsets,
  detached containers; vectors shared copy-on-write).  Searches are
  bit-identical to what ``MUST.search`` answered at capture time, on
  both the graph and the exact path.
* **single-graph** — a not-yet-segmented instance.  The built graph is
  immutable apart from its deletion bitset, so the snapshot re-wraps it
  around a copy; the exact path keeps the legacy full-precision scan
  over ``MUST.space`` (compression never touches it), again matching
  ``MUST.search`` bit for bit.

Snapshots are cheap (no vector data is copied) and plain objects —
holding one pins the captured arrays in memory but costs nothing else.
Capturing must be serialised with writers (the service takes its write
lock); once captured, a snapshot is safe to read from any number of
threads.

Memory-mapped cold tiers need no special casing here: the share-not-copy
capture (``dataclasses.replace`` / ``SegmentedIndex.snapshot``) keeps the
*same* :class:`~repro.store.MmapPlane` objects across epochs, so every
snapshot reads the cold files through one pinned mapping — page-cache
pages are shared copy-on-write between all live epochs, and a compaction
that retires a segment's files first pins their mappings (POSIX keeps an
unlinked inode readable through open maps) so older snapshots keep
answering bit-identically until they are garbage collected.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any

from repro.core.multivector import MultiVector
from repro.core.query import Query, SearchOptions
from repro.core.results import SearchResult, SearchStats
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.base import GraphIndex
from repro.index.flat import FlatIndex
from repro.index.search import joint_search
from repro.index.segments import SegmentView
from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.core.framework import MUST

__all__ = ["IndexSnapshot"]


class IndexSnapshot:
    """One frozen, searchable state of a framework instance.

    Construct via :meth:`of` (or :meth:`MUST.snapshot`).  The search
    API mirrors :meth:`MUST.search`, so for any request the snapshot
    answers exactly what the live instance would have answered at
    capture time — the parity contract the serving layer's tests pin
    down bit for bit.
    """

    def __init__(
        self,
        view: SegmentView | None = None,
        graph: GraphIndex | None = None,
        exact_space: JointSpace | None = None,
    ) -> None:
        require(
            (view is None) != (graph is None),
            "a snapshot wraps either a segment view or a single graph",
        )
        require(
            graph is None or exact_space is not None,
            "single-graph snapshots need the exact-scan space",
        )
        self.view = view
        self.graph = graph
        self.exact_space = exact_space

    @classmethod
    def of(cls, must: "MUST") -> "IndexSnapshot":
        """Capture the current state of *must* (which must be built)."""
        require(
            must.is_built,
            "cannot snapshot an unbuilt index — call build() first",
        )
        if must.is_segmented:
            return cls(view=must.segments.snapshot())
        index = must.index
        frozen = dataclasses.replace(
            index,
            deleted=None if index.deleted is None else index.deleted.copy(),
        )
        return cls(graph=frozen, exact_space=must.space)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_segmented(self) -> bool:
        return self.view is not None

    def _graph(self) -> GraphIndex:
        """The single-graph flavour's index (constructor invariant)."""
        assert self.graph is not None
        return self.graph

    def _exact_space(self) -> JointSpace:
        """The single-graph flavour's exact-scan space."""
        assert self.exact_space is not None
        return self.exact_space

    @property
    def num_active(self) -> int:
        if self.view is not None:
            return int(self.view.num_active)
        return int(self._graph().num_active)

    @property
    def n(self) -> int:
        if self.view is not None:
            return int(self.view.num_total)
        return int(self._graph().n)

    def prepare(self) -> None:
        """Materialise lazy per-space artifacts (concat matrices) so a
        thread pool reading this snapshot never races to build them."""
        if self.view is not None:
            self.view.prepare_search()
            return
        if not self._graph().space.is_compressed:
            self._graph().space.concatenated
        if not self._exact_space().is_compressed:
            self._exact_space().concatenated

    # ------------------------------------------------------------------
    # Searching — mirrors MUST.search argument for argument
    # ------------------------------------------------------------------
    def search(
        self,
        query: MultiVector | Query,
        k: int = 10,
        l: int = 100,
        weights: Weights | None = None,
        early_termination: bool = False,
        exact: bool = False,
        refine: int | None = None,
        engine: str = "auto",
        sparse_engine: str = "auto",
        **search_kwargs: Any,
    ) -> SearchResult:
        """Joint top-*k* against the captured state.

        Same signature and same arithmetic as :meth:`MUST.search` —
        including the graph path's ``rng`` handling via
        ``search_kwargs`` — so results are bit-identical to the live
        instance at capture time.  Typed :class:`Query` objects pass
        straight through (per-query weights/filter/k), and
        :meth:`query` is the options-native equivalent.

        ``engine="auto"`` resolves to the per-query heap engine (a
        snapshot read is a single query, so the historical bits are
        preserved); an explicit ``engine="wave"`` runs the lockstep
        engine as a batch of one — bit-identical to the same query
        inside any coalesced wave, by the engine's composition
        independence.
        """
        if engine == "wave" and not exact:
            rngs = [search_kwargs.pop("rng", 0)]
            check_monotone = bool(search_kwargs.pop("check_monotone", False))
            results, wave_stats = self.graph_wave(
                [query],
                k=k,
                l=l,
                weights=weights,
                early_termination=early_termination,
                refine=refine,
                check_monotone=check_monotone,
                rngs=rngs,
                sparse_engine=sparse_engine,
            )
            results[0].stats.merge(wave_stats)
            return results[0]
        engine = "heap" if engine == "auto" else engine
        if self.view is not None:
            if exact:
                return self.view.exact_search(
                    query, k, weights=weights, refine=refine,
                    sparse_engine=sparse_engine,
                )
            return self.view.search(
                query,
                k=k,
                l=l,
                weights=weights,
                early_termination=early_termination,
                refine=refine,
                engine=engine,
                sparse_engine=sparse_engine,
                **search_kwargs,
            )
        if exact:
            return self._flat().search(
                query, k, weights=weights, refine=refine,
                sparse_engine=sparse_engine,
            )
        return joint_search(
            self._graph(),
            query,
            k=k,
            l=min(l, self._graph().n),
            weights=weights,
            early_termination=early_termination,
            refine=refine,
            engine=engine,
            sparse_engine=sparse_engine,
            **search_kwargs,
        )

    def query(
        self,
        query: MultiVector | Query,
        options: SearchOptions | None = None,
    ) -> SearchResult:
        """One typed query against the captured state.

        Mirrors :meth:`MUST.query` for a single request.  The kwargs
        are derived from the option fields (``n_jobs`` excepted — a
        snapshot read is single-query; ``collection`` too — routing is
        the service's concern, a snapshot *is* one collection's state),
        so a new :class:`SearchOptions` field can never be silently
        dropped on this path.
        """
        opts = options if options is not None else SearchOptions()
        return self.search(
            query, **opts.to_kwargs(exclude=("n_jobs", "collection"))
        )

    def _flat(self) -> FlatIndex:
        """The legacy exact scanner over the frozen bitset."""
        return FlatIndex(self._exact_space(), deleted=self._graph().deleted)

    def graph_wave(
        self,
        queries: "list[MultiVector | Query]",
        k: int = 10,
        l: int = 100,
        weights: Weights | None = None,
        early_termination: bool = False,
        refine: int | None = None,
        check_monotone: bool = False,
        rng: Any = 0,
        rngs: list[Any] | None = None,
        sparse_engine: str = "auto",
    ) -> "tuple[list[SearchResult], SearchStats]":
        """Coalesced graph batch — the serving layer's lockstep wave.

        One :func:`~repro.index.graph_wave.graph_wave_search` traversal
        per segment (or one for a single-graph snapshot) carries every
        request that shares this plan; ``rngs`` keeps each request's own
        init seed, so an answer is bit-identical to the same request
        dispatched alone with ``engine="wave"`` (composition
        independence).  Returns ``(results, wave_stats)``.
        """
        if self.view is not None:
            return self.view.graph_wave(
                queries,
                k=k,
                l=l,
                weights=weights,
                early_termination=early_termination,
                rng=rng,
                rngs=rngs,
                refine=refine,
                check_monotone=check_monotone,
                sparse_engine=sparse_engine,
            )
        from repro.index.graph_wave import graph_wave_search

        return graph_wave_search(
            self._graph(),
            queries,
            k=k,
            l=min(l, self._graph().n),
            weights=weights,
            early_termination=early_termination,
            rng=rng,
            rngs=rngs,
            refine=refine,
            check_monotone=check_monotone,
            filter_memo={},
            sparse_engine=sparse_engine,
        )

    def exact_wave(
        self,
        queries: "list[MultiVector | Query]",
        k: int,
        weights: Weights | None = None,
        refine: int | None = None,
        margin: float = 1e-4,
        sparse_engine: str = "auto",
    ) -> list[SearchResult]:
        """Coalesced exact batch — the serving layer's GEMM fast path.

        On a segmented snapshot this is
        :meth:`~repro.index.segments.SegmentView.exact_wave`:
        bit-identical to per-query :meth:`search` with ``exact=True``
        (float32 GEMM prefilter + layout-independent float64 rerank
        within ``margin`` of each cut-off).  On a single-graph snapshot
        the legacy exact scan is a full-matrix float32 GEMV whose values
        cannot be reproduced on row subsets, so the wave falls back to
        :meth:`FlatIndex.batch_search` — same ranks on non-degenerate
        data, similarities within ~1e-7 (see its docstring).
        """
        if self.view is not None:
            return self.view.exact_wave(
                queries,
                k,
                weights=weights,
                refine=refine,
                margin=margin,
                sparse_engine=sparse_engine,
            )
        return self._flat().batch_search(
            list(queries),
            k,
            weights=weights,
            refine=refine,
            sparse_engine=sparse_engine,
        )
