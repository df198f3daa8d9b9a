"""Segmented dynamic-update subsystem: streaming inserts + auto-compaction.

The paper's §IX sketches dynamic updates as a data-status bitset plus
periodic reconstruction.  This module turns that sketch into an LSM-style
segmented index, the architecture streaming vector stores use:

* a list of **sealed** immutable :class:`~repro.index.base.GraphIndex`
  segments, each a self-contained graph over its own vector slice;
* one **mutable delta segment**: an append buffer with no graph, which
  every search scores end to end (the engines' own scan) until it seals;
* a global id map: every object carries a **stable external id**,
  allocated monotonically and never reused, so ids survive sealing,
  compaction, and persistence round-trips;
* per-segment §IX deletion bitsets — tombstones keep routing searches
  inside their segment but never surface in results;
* a **seal/compaction policy** (:class:`SegmentPolicy`): the delta seals
  into an immutable graph at a size threshold, and the whole index is
  rebuilt over the surviving objects — the §IX "periodic reconstruction"
  made automatic — when the tombstone fraction or the segment count
  crosses configurable ratios;
* a **compressed serving tier**: with ``compression=`` every sealed
  segment's vectors live in a :mod:`repro.store` backend (float16 /
  int8-SQ / PQ) encoded at seal/compact time, while the delta stays
  dense float32 — it is scanned at full precision and encoded once, at
  seal; manifests persist store kind + codebooks per segment and
  compaction rebuilds from the exact cold tier so quantisation error
  never accumulates.

All cross-segment searching lives in :class:`SegmentView`, a fixed
list of segments: :meth:`SegmentedIndex.view` is a live view, and
:meth:`SegmentedIndex.snapshot` returns a
**frozen** view (copied bitsets, detached containers) whose answers
later inserts/deletes/compactions can never change — the snapshot
primitive the serving layer (:mod:`repro.service`) batches against.

Cross-segment search asks every segment for its candidates through the
unified scorer stack and merges by ``(similarity, external id)``: a
graph plan takes each segment's top ``l``
(:func:`~repro.index.search.joint_search` — traversing a sealed graph,
scanning the delta), an exact plan (:meth:`SegmentView.exact_wave`)
runs the one exact kernel, :meth:`FlatIndex.batch_search`, per segment.
That kernel reads its similarities from the layout-independent float64
route (:meth:`~repro.core.space.JointSpace.query_ids_stable`), where a
row's score depends on the row and the query alone — which is what makes
a merge of per-segment answers **bit-identical to one scan of the whole
corpus**, for a lone query and a wave alike.  Graph-path determinism
mirrors the executor: every segment search starts from that segment
graph's own entry order (:meth:`GraphIndex.entry_points`).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import shutil
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.attributes import AttributeTable
from repro.core.multivector import MultiVector, MultiVectorSet
from repro.core.query import Query, as_query
from repro.core.results import SearchResult, SearchStats
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.base import GraphIndex, reseat_on_store
from repro.index.flat import FlatIndex
from repro.index.pipeline import FusedIndexBuilder
from repro.index.scoring import rerank_exact
from repro.index.search import joint_search
from repro.sparse.store import SparseStats, SparseStore, sum_stats
from repro.store import (
    STORE_KINDS,
    ColdPlane,
    MmapPlane,
    spill_cold,
    store_from_arrays,
)
from repro.utils.io import load_arrays, pack_adjacency, save_arrays
from repro.utils.validation import require

__all__ = [
    "SegmentPolicy",
    "Segment",
    "SegmentView",
    "SegmentedIndex",
    "beam_covers",
    "MANIFEST_NAME",
    "FORMAT_VERSION",
]

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
#: the one manifest format :meth:`SegmentedIndex.save` writes.  Every
#: earlier one still loads — v1 (pre-store, implicitly dense float32),
#: v2 (store-aware), v3 (per-segment ``"storage": "mmap"`` with its
#: ``"cold_files"`` sidecars) and v4 (``sparse__``-prefixed CSR planes)
#: each lay out a subset of what v5 does, beside a graph over the delta
#: (builder options in the manifest, layers in the delta archive) that
#: :meth:`SegmentedIndex.load` does not read.
FORMAT_VERSION = 5
_FORMAT = f"must-segments-v{FORMAT_VERSION}"
_READABLE_FORMATS = tuple(
    f"must-segments-v{v}" for v in range(1, FORMAT_VERSION + 1)
)


@dataclass
class SegmentPolicy:
    """Seal/compaction knobs — §IX "periodic reconstruction" made automatic.

    ``seal_size``: the delta segment is sealed into an immutable graph
    once it holds this many objects.  ``max_segments``: a merge
    compaction runs when the sealed-segment count exceeds this.
    ``max_deleted_fraction``: a compaction runs when tombstones exceed
    this share of the whole corpus (ignored below ``min_compact_size``
    objects, where rebuilding costs more than the tombstones do).
    """

    seal_size: int = 128
    max_segments: int = 4
    max_deleted_fraction: float = 0.3
    min_compact_size: int = 64

    def __post_init__(self) -> None:
        require(self.seal_size >= 1, "seal_size must be positive")
        require(self.max_segments >= 1, "max_segments must be positive")
        require(0.0 < self.max_deleted_fraction <= 1.0,
                "max_deleted_fraction must be in (0, 1]")
        require(self.min_compact_size >= 0,
                "min_compact_size must be non-negative")

    def to_dict(self) -> dict:
        return {
            "seal_size": self.seal_size,
            "max_segments": self.max_segments,
            "max_deleted_fraction": self.max_deleted_fraction,
            "min_compact_size": self.min_compact_size,
        }


@dataclass
class Segment:
    """One searchable slice: a graph over its own vectors + the id map."""

    index: GraphIndex
    ext_ids: np.ndarray
    kind: str = "sealed"

    def __post_init__(self) -> None:
        self.ext_ids = np.asarray(self.ext_ids, dtype=np.int64)
        require(self.ext_ids.size == self.index.n,
                "one external id per segment row required")

    @property
    def n(self) -> int:
        return self.index.n

    @property
    def num_active(self) -> int:
        return self.index.num_active

    @property
    def space(self) -> JointSpace:
        return self.index.space


class _DeltaSegment:
    """The mutable head of the LSM hierarchy: an append buffer.

    Vectors accumulate in per-modality matrices beside their external
    ids, deletion bitset, attribute table and sparse plane.  There is no
    graph to grow: a delta holds fewer than ``seal_size`` rows, every
    search scores all of them (:meth:`SegmentView.search`), and sealing
    builds the fused graph over them once.
    """

    def __init__(self, weights: Weights):
        self.weights = weights
        self.mats: list[np.ndarray] | None = None
        self.attrs: AttributeTable | None = None
        self.sparse: SparseStore | None = None
        self.ext_ids = np.zeros(0, dtype=np.int64)
        self.deleted = np.zeros(0, dtype=bool)
        self._space: JointSpace | None = None
        self._materialized: GraphIndex | None = None

    @property
    def n(self) -> int:
        return int(self.ext_ids.size)

    @property
    def num_active(self) -> int:
        return int(self.n - self.deleted.sum())

    @property
    def space(self) -> JointSpace:
        require(self._space is not None, "delta segment is empty")
        return self._space

    def append(self, objects: MultiVectorSet, ext_ids: np.ndarray) -> None:
        if self.mats is None:
            self.mats = [m.copy() for m in objects.matrices]
            self.attrs = objects.attributes
            self.sparse = objects.sparse
        else:
            require(
                objects.dims == tuple(m.shape[1] for m in self.mats),
                "inserted objects must match the corpus modality dims",
            )
            self.mats = [
                np.concatenate([old, new])
                for old, new in zip(self.mats, objects.matrices)
            ]
            if self.attrs is not None:
                # Field consistency is enforced upstream in
                # SegmentedIndex.insert; concat re-checks it.
                self.attrs = AttributeTable.concat(
                    [self.attrs, objects.attributes]
                )
            if self.sparse is not None or objects.sparse is not None:
                # Presence parity is enforced upstream in
                # SegmentedIndex.insert; concat re-checks vocab/metric.
                require(
                    self.sparse is not None and objects.sparse is not None,
                    "inserted objects must carry a sparse plane exactly "
                    "when the corpus does",
                )
                self.sparse = SparseStore.concat(
                    [self.sparse, objects.sparse]
                )
        self.ext_ids = np.concatenate([self.ext_ids, ext_ids])
        self.deleted = np.concatenate(
            [self.deleted, np.zeros(ext_ids.size, dtype=bool)]
        )
        self.refresh()

    def refresh(self) -> None:
        """Rows or sparse statistics changed: a new space over them, and
        the cached segment goes (snapshots keep the ones they hold)."""
        self._space = JointSpace(
            MultiVectorSet(
                self.mats, attributes=self.attrs, sparse=self.sparse
            ),
            self.weights,
        )
        self._materialized = None

    def as_segment(self) -> Segment:
        """The rows as a searchable transient segment: an edge-free
        :class:`GraphIndex`, cached until the next append."""
        if self._materialized is None:
            no_edges = np.zeros(0, dtype=np.int32)
            self._materialized = GraphIndex(
                self.space, [no_edges] * self.n, seed_vertex=0, name="delta"
            )
        self._materialized.deleted = (
            self.deleted if bool(self.deleted.any()) else None
        )
        return Segment(self._materialized, self.ext_ids, kind="delta")


def _mark_local(index: GraphIndex, local_ids: np.ndarray) -> None:
    """Set bitset rows directly — unlike :meth:`GraphIndex.mark_deleted`
    this permits a *segment* to become fully dead (the global liveness
    guard lives in :meth:`SegmentedIndex.mark_deleted`)."""
    if index.deleted is None:
        index.deleted = np.zeros(index.n, dtype=bool)
    index.deleted[local_ids] = True


def _merge_candidates(
    parts: list[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Global top-*k* of per-segment candidate lists, ordered by
    ``(-similarity, external id)`` — external ids are unique across
    segments, so no dedup is needed."""
    if not parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    ids = np.concatenate([p[0] for p in parts])
    sims = np.concatenate([p[1] for p in parts])
    order = np.lexsort((ids, -sims))[:k]
    return ids[order], sims[order]


def beam_covers(l: int, n: int) -> bool:
    """The per-(query, sealed segment) plan decision: scan or traverse.

    Algorithm 2 starts by scoring ``l`` entry vertices.  When that init
    set is at least the rest of the segment (``l >= n - l``), the
    traversal goes on to score what is left one hop at a time — at
    ``l = 100`` it evaluates 1.00 n vertices at n = 100 and 200, 0.97 n
    at 300, 0.83 n at 600 and 0.25 n at 4 000 — so the probe takes the
    init over every vertex instead and runs no hops at all: the same
    evaluations, the same similarities, none of the routing.  *l* is the
    query's own beam before it is clamped to the segment, never a batch
    aggregate, so a query's plan does not depend on its wave-mates; and
    both read paths (:meth:`SegmentView.search`,
    :meth:`SegmentView.graph_wave`) ask here, so ``engine=`` never
    changes which segments are scanned.  Two things are never asked: a
    single-graph index, which stays pure Algorithm 2, and the delta
    (``kind == "delta"``), which has no graph and is always scanned.
    """
    return l >= n - l


class SegmentView:
    """A fixed list of searchable segments — the cross-segment read path.

    :meth:`SegmentedIndex.view` is a live view over the current
    segments, and :meth:`SegmentedIndex.snapshot`
    returns a **frozen** view (copied deletion bitsets, detached index
    containers) that later inserts/deletes/compactions can never touch —
    the snapshot-isolation primitive the serving layer
    (:class:`~repro.service.MustService`) builds on.  A view never
    mutates: it has no insert/seal/compact machinery, only searches.

    Search semantics are identical whether a view is live or frozen; a
    frozen view simply keeps answering from the state it captured.
    """

    def __init__(self, segments: list[Segment]):
        self.segments = list(segments)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def searchable_segments(self) -> list[Segment]:
        return self.segments

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def num_total(self) -> int:
        """Objects including tombstones."""
        return sum(seg.n for seg in self.segments)

    @property
    def num_active(self) -> int:
        return sum(seg.num_active for seg in self.segments)

    def active_ext_ids(self) -> np.ndarray:
        """External ids of all live objects, ascending."""
        parts = []
        for seg in self.segments:
            if seg.index.deleted is None:
                parts.append(seg.ext_ids)
            else:
                parts.append(seg.ext_ids[~seg.index.deleted])
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.sort(np.concatenate(parts))

    def prepare_search(self) -> None:
        """Materialise every lazy artifact (per-segment concatenated
        matrices and their row-norm scalars) so threads reading one
        frozen view never race to build them.  Compressed segments have
        no concat matrix to build — materialising one would undo the
        compression — and their per-query kernels are thread-local by
        construction.  Entry orders need nothing here:
        :meth:`GraphIndex.frozen` built them at capture."""
        for seg in self.segments:
            if not seg.space.is_compressed:
                seg.space.max_concat_norm

    def memory_stats(self) -> dict:
        """Byte accounting split by tier, summed over the segments.

        ``hot_bytes`` (codes + codebooks, always resident),
        ``cold_bytes`` (logical size of the exact tier wherever it
        lives) and ``resident_bytes`` (hot plus the RAM-resident part
        of cold — equal to hot for fully memory-mapped cold tiers).
        """
        hot = cold = resident = 0
        for seg in self.segments:
            store = seg.space.vectors.store
            hot += store.hot_bytes()
            cold += store.cold_bytes()
            resident += store.resident_bytes()
        return {
            "hot_bytes": int(hot),
            "cold_bytes": int(cold),
            "resident_bytes": int(resident),
        }

    # ------------------------------------------------------------------
    # Searching
    # ------------------------------------------------------------------
    def search(
        self,
        query: MultiVector | Query,
        k: int = 10,
        l: int = 100,
        weights: Weights | None = None,
        early_termination: bool = False,
        engine: str = "heap",
        refine: int | None = None,
        sparse_engine: str = "auto",
        **search_kwargs,
    ) -> SearchResult:
        """Cross-segment graph search: per-segment top-``l`` candidates
        through :func:`joint_search`, merged by ``(similarity, id)``.
        Result ids are external ids.  The delta, and a sealed segment
        the beam already covers (:func:`beam_covers`), is scored end to
        end instead of traversed — ``joint_search(scan=True)``, whatever
        the *engine*.

        A typed :class:`Query` carries per-query weights/filter/k; its
        filter compiles against each segment's own attribute slice
        inside :func:`joint_search`, so masked-out vertices still route
        within their segment but never surface.

        ``refine=r`` runs the two-stage rerank per segment: each
        segment's top ``min(r·k, |candidates|)`` hot-tier survivors are
        re-scored at full precision before the cross-segment merge, so
        the merged ranking is by exact similarity.

        A hybrid query (``Query.sparse=``) fuses per segment inside
        :func:`joint_search`: the dense traversal's candidates union
        with the sparse engine's top admissible rows and the union is
        rescored under the combined metric
        (:func:`~repro.sparse.hybrid.hybrid_union_rescore`).  That
        rescore takes the place of ``refine`` — it scores the hot tier
        (decoded PQ/int8 rows on a compressed store), not the cold
        exact plane, so ``refine`` is not applied on top of it.
        """
        require(refine is None or refine >= 1, "refine must be >= 1")
        typed = as_query(query)
        k = typed.resolve_k(k)
        weights = typed.resolve_weights(weights)
        # The per-query k override must not shrink the *per-segment*
        # candidate pool (k=min(l, active) below), so strip it before
        # the inner searches; weights/filter still ride along.  It may
        # however *widen* the pool — the wave-level l was sized for the
        # wave-level k (the single-graph path does the same).
        inner = typed
        if typed.k is not None:
            inner = dataclasses.replace(typed, k=None)
            l = max(l, k)
        parts: list[tuple[np.ndarray, np.ndarray]] = []
        stats_parts: list[SearchStats] = []
        for seg in self.segments:
            if seg.num_active == 0:
                continue
            scan = seg.kind == "delta" or beam_covers(l, seg.n)
            res = joint_search(
                seg.index,
                inner,
                k=min(l, seg.num_active),
                l=min(l, seg.n),
                weights=weights,
                early_termination=early_termination,
                engine=engine,
                sparse_engine=sparse_engine,
                scan=scan,
                **search_kwargs,
            )
            res.stats.segments_probed = 1
            res.stats.segments_scanned = int(scan)
            if refine is not None and typed.sparse is None:
                keep = min(refine * k, res.ids.size)
                local, exact = rerank_exact(
                    seg.space, typed.vector, res.ids[:keep], keep,
                    weights=weights, stats=res.stats,
                )
                parts.append((seg.ext_ids[local], exact))
            else:
                parts.append((seg.ext_ids[res.ids], res.similarities))
            stats_parts.append(res.stats)
        ids, sims = _merge_candidates(parts, k)
        return SearchResult(ids, sims, SearchStats.aggregate(stats_parts))

    def graph_wave(
        self,
        queries: list[MultiVector | Query],
        k: int = 10,
        l: int = 100,
        weights: Weights | None = None,
        early_termination: bool = False,
        refine: int | None = None,
        check_monotone: bool = False,
        filter_memo: dict | None = None,
        sparse_engine: str = "auto",
    ) -> tuple[list[SearchResult], SearchStats]:
        """Cross-segment lockstep batch: one
        :func:`~repro.index.graph_wave.graph_wave_search` wave per
        segment carries the *whole* batch, so a view with ``s`` active
        segments pays ``s`` lockstep traversals instead of ``b × s``
        per-query beam loops.  Per-segment candidates merge per query by
        ``(similarity, external id)`` exactly like :meth:`search`, and
        the same rows scan the same segments (the delta always, a sealed
        segment by :func:`beam_covers`): on a segment every row scans,
        the call runs no wave at all.

        Results are independent of batch composition and position, as
        in the engine.  A shared ``filter_memo`` compiles each distinct
        :class:`~repro.core.query.Filter` once per segment table, not
        once per query.

        ``refine=r`` reranks each segment's top ``min(r·k, |candidates|)``
        survivors at full precision *at the view level* (the engine runs
        without rerank), matching :meth:`search`'s two-stage pipeline.

        Returns ``(results, wave_stats)``: per-query results with
        aggregated per-segment stats, plus one batch-level
        :class:`~repro.core.results.SearchStats` holding the summed
        ``waves``/``frontier_sizes`` trace across segments.

        Hybrid queries (``Query.sparse=``) are rows of the same waves:
        the engine fuses each one's per-segment candidate pool with the
        segment's lexical candidates at finalise, so the view only
        merges — the union rescore takes the place of ``refine`` for
        them, as in :meth:`search`.
        """
        from repro.index.graph_wave import graph_wave_search

        require(refine is None or refine >= 1, "refine must be >= 1")
        wave_total = SearchStats()
        queries = list(queries)
        if not queries:
            return [], wave_total
        typed = [as_query(q) for q in queries]
        ks = [t.resolve_k(k) for t in typed]
        ws = [t.resolve_weights(weights) for t in typed]
        # As in :meth:`search`, the per-query k override must not shrink
        # the per-segment pool but may widen it; strip it before the
        # inner waves so it cannot re-trigger k resolution downstream.
        inner = [
            dataclasses.replace(t, k=None) if t.k is not None else t
            for t in typed
        ]
        ls = [max(l, k_i) for k_i in ks]
        memo: dict = {} if filter_memo is None else filter_memo
        parts: list[list[tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in typed
        ]
        stats_parts: list[list[SearchStats]] = [[] for _ in typed]
        for seg in self.segments:
            active = seg.num_active
            if active == 0:
                continue
            scan = [
                seg.kind == "delta" or beam_covers(l_i, seg.n) for l_i in ls
            ]
            seg_results, wstats = graph_wave_search(
                seg.index,
                inner,
                k=k,
                l=l,
                weights=weights,
                early_termination=early_termination,
                check_monotone=check_monotone,
                filter_memo=memo,
                ks=[min(l_i, active) for l_i in ls],
                ls=[min(l_i, seg.n) for l_i in ls],
                sparse_engine=sparse_engine,
                scan=scan,
            )
            wave_total.merge(wstats)
            for i, res in enumerate(seg_results):
                res.stats.segments_probed = 1
                res.stats.segments_scanned = int(scan[i])
                if refine is not None and typed[i].sparse is None:
                    keep = min(refine * ks[i], res.ids.size)
                    local, exact = rerank_exact(
                        seg.space, typed[i].vector, res.ids[:keep], keep,
                        weights=ws[i], stats=res.stats,
                    )
                    parts[i].append((seg.ext_ids[local], exact))
                else:
                    parts[i].append((seg.ext_ids[res.ids], res.similarities))
                stats_parts[i].append(res.stats)
        results = []
        for k_i, p_i, s_i in zip(ks, parts, stats_parts):
            ids, sims = _merge_candidates(p_i, k_i)
            results.append(
                SearchResult(ids, sims, SearchStats.aggregate(s_i))
            )
        return results, wave_total

    def exact_wave(
        self,
        queries: list[MultiVector | Query],
        k: int,
        weights: Weights | None = None,
        refine: int | None = None,
        sparse_engine: str = "auto",
    ) -> list[SearchResult]:
        """Exact cross-segment top-*k* for a batch (the MUST-- plan over
        segments): the one exact kernel
        (:meth:`FlatIndex.batch_search`) once per segment, merged per
        query by ``(-similarity, external id)``.

        The kernel reads every similarity from the row-independent
        float64 route, so ids and similarities are bit-identical to one
        brute-force scan over the concatenation of all live objects —
        however the corpus is split into segments, and whether the query
        came alone or in a wave (a lone query is ``exact_wave([q],
        k)[0]``).  A typed :class:`Query`'s filter compiles against each
        segment's own attribute slice and intersects its deletion
        bitset; a hybrid one (``Query.sparse=``) is a row of the same
        wave.  On compressed segments the scan covers the *decoded* hot
        tier; ``refine=r`` re-scores each segment's top ``r·k`` against
        the exact cold tier before the merge.
        """
        require(k >= 1, "k must be positive")
        typed = [as_query(q) for q in queries]
        parts: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in typed]
        stats_parts: list[list[SearchStats]] = [[] for _ in typed]
        for seg in self.segments:
            if seg.num_active == 0:
                continue
            flat = FlatIndex(
                seg.space,
                deleted=seg.index.deleted,
                ids=seg.ext_ids,
                context=f"{seg.kind} segment",
            )
            for j, res in enumerate(
                flat.batch_search(
                    typed, k, weights, refine=refine,
                    sparse_engine=sparse_engine,
                )
            ):
                res.stats.segments_probed = 1
                parts[j].append((res.ids, res.similarities))
                stats_parts[j].append(res.stats)
        return [
            SearchResult(
                *_merge_candidates(p_j, q.resolve_k(k)),
                SearchStats.aggregate(s_j),
            )
            for q, p_j, s_j in zip(typed, parts, stats_parts)
        ]


class SegmentedIndex:
    """Streaming-updatable index: sealed graph segments + a mutable delta.

    Construct empty (``SegmentedIndex(weights)``) and stream objects in,
    or wrap an existing single-graph index with :meth:`from_graph` (its
    rows become external ids ``0..n-1``).  All mutating entry points run
    the auto-seal/auto-compact policy inline — there is no background
    thread to coordinate with, which keeps results reproducible.
    """

    name = "segmented"

    def __init__(
        self,
        weights: Weights,
        builder: FusedIndexBuilder | None = None,
        policy: SegmentPolicy | None = None,
        compression: str = "none",
        store_options: dict | None = None,
        cold_storage: str = "resident",
        data_dir: str | Path | None = None,
    ):
        require(
            compression in STORE_KINDS,
            f"unknown compression {compression!r}; supported: "
            f"{sorted(STORE_KINDS)}",
        )
        require(
            cold_storage in ("resident", "mmap"),
            f"unknown cold_storage {cold_storage!r}; supported: "
            f"'resident', 'mmap'",
        )
        if cold_storage == "mmap":
            require(
                compression != "none",
                "cold_storage='mmap' requires a compressed hot tier "
                "(float16/int8/pq) — a dense store serves graph "
                "traversal from the float32 corpus itself, which must "
                "stay resident",
            )
            require(
                data_dir is not None,
                "cold_storage='mmap' requires data_dir= (the directory "
                "that receives the per-segment cold-tier .npy files)",
            )
            require(
                bool((store_options or {}).get("keep_exact", True)),
                "cold_storage='mmap' spills the exact cold tier to disk "
                "— keep_exact=False leaves nothing to spill",
            )
        self.weights = weights
        self.builder = builder if builder is not None else FusedIndexBuilder()
        self.policy = policy if policy is not None else SegmentPolicy()
        #: vector-store backend for sealed segments; the mutable delta
        #: always stays dense float32 (it is scanned at full precision
        #: and its rows are encoded once, when it seals), compression is
        #: applied at seal/compact time — the LSM moment the slice
        #: becomes immutable.
        self.compression = compression
        self.store_options = dict(store_options or {})
        #: where sealed segments' exact cold tier lives: ``"resident"``
        #: keeps float32 matrices in RAM (historical behaviour),
        #: ``"mmap"`` spills them to per-segment ``.npy`` files under
        #: :attr:`data_dir` at seal/compact time and serves rerank reads
        #: through lazy memory mappings — bit-identical results, O(hot)
        #: resident bytes.
        self.cold_storage = cold_storage
        self.data_dir = None if data_dir is None else Path(data_dir)
        if cold_storage == "mmap":
            self.data_dir.mkdir(parents=True, exist_ok=True)
            self._cold_seq = self._scan_cold_seq(self.data_dir)
        else:
            self._cold_seq = 0
        self.sealed: list[Segment] = []
        self.delta = _DeltaSegment(weights)
        self._next_ext = 0
        self.num_seals = 0
        self.num_compactions = 0
        #: shard assignment ``(shard_index, shard_count)`` when this
        #: index is one shard of a partitioned corpus (ids routed by
        #: ``ext_id % shard_count``); ``None`` for a whole corpus.
        #: Persisted in the manifest so a reloaded shard knows which
        #: slice of the id space it owns.
        self.shard: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        index: GraphIndex,
        builder: FusedIndexBuilder | None = None,
        policy: SegmentPolicy | None = None,
        compression: str = "none",
        store_options: dict | None = None,
        ext_ids: np.ndarray | None = None,
        cold_storage: str = "resident",
        data_dir: str | Path | None = None,
    ) -> "SegmentedIndex":
        """Wrap a built single-graph index as the first sealed segment.

        The index's space is taken as-is — if its vectors already sit in
        a compressed store (``MUST.build`` with ``compression=``), the
        segment serves from those codes.  ``ext_ids`` maps graph rows to
        explicit external ids (default ``0..n-1``) — a shard's rows keep
        their *global* ids this way, so cross-shard merges and
        id-routed writes stay coherent.  With ``cold_storage="mmap"``
        the wrapped index's resident cold tier (if any) is spilled to
        ``data_dir`` immediately.
        """
        seg = cls(index.space.weights, builder=builder, policy=policy,
                  compression=compression, store_options=store_options,
                  cold_storage=cold_storage, data_dir=data_dir)
        if ext_ids is None:
            ids = np.arange(index.n, dtype=np.int64)
        else:
            ids = np.asarray(ext_ids, dtype=np.int64)
            require(
                ids.ndim == 1 and ids.size == index.n,
                f"ext_ids must map every graph row "
                f"(got {ids.shape} for n={index.n})",
            )
            require(
                ids.size == 0 or int(ids.min()) >= 0,
                "external ids must be non-negative",
            )
            require(
                np.unique(ids).size == ids.size,
                "explicit ext_ids contain duplicates",
            )
        if cold_storage == "mmap" and index.space.vectors.store.kind != "none":
            seg._spill_segment(index)
        seg.sealed.append(Segment(index, ids))
        seg._next_ext = int(ids.max()) + 1 if ids.size else 0
        return seg

    def _compress_sealed(self, index: GraphIndex) -> GraphIndex:
        """Re-seat a freshly built (dense) segment graph on the
        configured store — called at seal/compact, after seed fixing.

        The graph was built over full-precision vectors; only the
        serving representation changes.  The original float32 matrices
        become the store's cold exact tier (rerank + future compaction),
        unless ``store_options['keep_exact']`` says otherwise.  Under
        ``cold_storage="mmap"`` that cold tier is then spilled to
        sidecar files, leaving only the compressed codes resident.
        """
        index = reseat_on_store(index, self.compression, self.store_options)
        if self.cold_storage == "mmap":
            index = self._spill_segment(index)
        return index

    @staticmethod
    def _scan_cold_seq(data_dir: Path) -> int:
        """First unused cold-file sequence number in *data_dir* — never
        reuse a name: an older live index (or a frozen snapshot) may
        still be serving from a file with a lower sequence."""
        seq = 0
        for f in data_dir.glob("seg_*.cold_0.npy"):
            try:
                seq = max(seq, int(f.name.split(".")[0][4:]) + 1)
            except ValueError:
                continue
        return seq

    def _next_cold_paths(self, dims: tuple[int, ...]) -> list[Path]:
        """Reserve sidecar file names for one segment's cold tier."""
        stem = f"seg_{self._cold_seq:06d}"
        self._cold_seq += 1
        return [
            self.data_dir / f"{stem}.cold_{i}.npy" for i in range(len(dims))
        ]

    def _spill_segment(self, index: GraphIndex) -> GraphIndex:
        """Spill a segment's resident cold tier to ``data_dir`` and
        re-seat the store on the resulting memory mapping (no-op when
        the cold tier is absent or already mapped)."""
        vectors = index.space.vectors
        store = vectors.store
        plane = store.cold_plane
        if plane is None or not plane.is_resident:
            return index
        stem = f"seg_{self._cold_seq:06d}"
        self._cold_seq += 1
        spilled = spill_cold(store, self.data_dir, stem)
        index.space = JointSpace(
            MultiVectorSet.from_store(
                spilled, attributes=vectors.attributes,
                sparse=vectors.sparse, metrics=vectors.declared_metrics,
            ),
            index.space.weights,
        )
        return index

    def _retire_cold_files(
        self, planes: list[ColdPlane | None], keep: set[Path]
    ) -> None:
        """Unlink sidecar files of replaced segments.

        Frozen snapshots may still hold these planes; mapping every
        modality first pins the inodes, so their lazily-deferred first
        probe keeps working after the unlink (POSIX semantics).
        """
        for plane in planes:
            if not isinstance(plane, MmapPlane):
                continue
            for i, path in enumerate(plane.paths):
                if path in keep:
                    continue
                plane.modality(i)
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_total(self) -> int:
        """Objects including tombstones."""
        return sum(s.n for s in self.sealed) + self.delta.n

    @property
    def num_active(self) -> int:
        return sum(s.num_active for s in self.sealed) + self.delta.num_active

    @property
    def deleted_fraction(self) -> float:
        total = self.num_total
        if total == 0:
            return 0.0
        return 1.0 - self.num_active / total

    @property
    def num_segments(self) -> int:
        """Searchable segments (sealed + a non-empty delta)."""
        return len(self.sealed) + (1 if self.delta.n else 0)

    def searchable_segments(self) -> list[Segment]:
        segs = list(self.sealed)
        if self.delta.n:
            segs.append(self.delta.as_segment())
        return segs

    def view(self) -> SegmentView:
        """A live :class:`SegmentView` over the current segments.

        Shares the underlying index containers and bitsets, so it sees
        (and races with) later mutations — use :meth:`snapshot` for an
        isolated view.
        """
        return SegmentView(self.searchable_segments())

    def snapshot(self) -> SegmentView:
        """A frozen :class:`SegmentView` of the current state.

        Searches against the snapshot are unaffected by any later
        :meth:`insert` / :meth:`mark_deleted` / :meth:`seal_delta` /
        :meth:`compact` on this index:

        * sealed segment graphs and vectors are immutable already — only
          their §IX deletion bitsets mutate in place, so each segment is
          re-wrapped around a **copy** of its bitset;
        * the delta's matrices and id map are copy-on-write (``append``
          replaces the arrays it grows and drops the cached segment
          rather than mutating them), so the snapshot pins the
          pre-append arrays;
        * the segment *list* itself is copied, so seals and compactions
          swap segments under the live index without touching the view.

        Taking a snapshot is cheap: no vector data is copied, only the
        bitsets and the container dataclasses
        (:meth:`GraphIndex.frozen`).  Callers interleaving
        snapshots with mutations from other threads must serialise the
        two (the serving layer holds its write lock across both).
        """
        return SegmentView(
            [
                Segment(seg.index.frozen(), seg.ext_ids, kind=seg.kind)
                for seg in self.searchable_segments()
            ]
        )

    def active_ext_ids(self) -> np.ndarray:
        """External ids of all live objects, ascending."""
        return self.view().active_ext_ids()

    def memory_stats(self) -> dict:
        """Per-tier byte accounting — see :meth:`SegmentView.memory_stats`."""
        return self.view().memory_stats()

    def describe(self) -> dict:
        """JSON-ready summary (used by the manifest and the benchmarks)."""
        return {
            "segments": [
                {
                    "kind": seg.kind,
                    "n": int(seg.n),
                    "active": int(seg.num_active),
                    "edges": int(seg.index.num_edges),
                }
                for seg in self.searchable_segments()
            ],
            "total": int(self.num_total),
            "active": int(self.num_active),
            "deleted_fraction": float(self.deleted_fraction),
            "seals": int(self.num_seals),
            "compactions": int(self.num_compactions),
            "next_ext_id": int(self._next_ext),
        }

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(
        self,
        objects: MultiVectorSet | MultiVector,
        ext_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """Stream objects into the delta segment; returns their external ids.

        May seal the delta and/or trigger a compaction on the way out,
        per :attr:`policy`.

        ``ext_ids`` assigns explicit external ids instead of drawing from
        the monotone allocator — the sharding hook: a shard holds only
        the objects whose *global* id it owns, so the front-end allocates
        ids and each shard inserts under them.  Explicit ids must be
        unique, non-negative, and absent from this index; the allocator
        advances past the maximum so later allocator-assigned ids never
        collide.
        """
        if isinstance(objects, MultiVector):
            require(
                all(v is not None for v in objects.vectors),
                "inserted objects must carry every modality",
            )
            objects = MultiVectorSet([v[None, :] for v in objects.vectors])
        require(objects.n >= 1, "nothing to insert")
        if self.num_total:
            dims = self._modality_dims()
            require(objects.dims == dims,
                    f"inserted objects have dims {objects.dims}, "
                    f"index holds {dims}")
            existing = self._attribute_fields()
            incoming = (
                None
                if objects.attributes is None
                else objects.attributes.fields
            )
            require(
                existing == incoming,
                f"inserted objects must carry the same attribute fields as "
                f"the corpus (corpus: {existing}, inserted: {incoming}) — "
                f"attach them via MultiVectorSet.set_attributes before "
                f"insert",
            )
            existing_sp = self._sparse_signature()
            incoming_sp = (
                None
                if objects.sparse is None
                else (objects.sparse.vocab, objects.sparse.metric)
            )
            require(
                existing_sp == incoming_sp,
                f"inserted objects must carry the same sparse plane as the "
                f"corpus (corpus (vocab, metric): {existing_sp}, inserted: "
                f"{incoming_sp}) — attach rows via "
                f"MultiVectorSet.set_sparse before insert",
            )
        if ext_ids is None:
            ext = np.arange(
                self._next_ext, self._next_ext + objects.n, dtype=np.int64
            )
            self._next_ext += objects.n
        else:
            ext = np.asarray(ext_ids, dtype=np.int64)
            require(
                ext.ndim == 1 and ext.size == objects.n,
                f"ext_ids must supply one id per inserted object "
                f"(got {ext.shape} for {objects.n} objects)",
            )
            require(
                ext.size == 0 or int(ext.min()) >= 0,
                "external ids must be non-negative",
            )
            require(
                np.unique(ext).size == ext.size,
                "explicit ext_ids contain duplicates",
            )
            for seg in self.searchable_segments():
                require(
                    not np.isin(ext, seg.ext_ids).any(),
                    "explicit ext_ids collide with ids already in the index",
                )
            self._next_ext = max(self._next_ext, int(ext.max()) + 1)
        self.delta.append(objects, ext)
        self._maybe_seal()
        self._maybe_compact()
        self._restamp_sparse()
        return ext

    def mark_deleted(
        self, ext_ids: np.ndarray, allow_empty: bool = False
    ) -> None:
        """Soft-delete by external id (per-segment §IX bitsets).

        Unknown ids raise; re-deleting is idempotent.  Deleting the last
        active object is rejected, mirroring the single-graph guard —
        unless ``allow_empty=True``, which a *shard* of a partitioned
        corpus needs: one shard may legitimately lose its last object
        while the global corpus stays non-empty (the front-end enforces
        the global guard).  Validation happens before any bitset is
        touched, so a rejected call leaves the index unchanged.
        """
        ext_ids = np.unique(np.asarray(ext_ids, dtype=np.int64))
        # Pass 1: locate everything and count the *newly* dead, so both
        # guards fire before any mutation.
        sealed_hits: list[tuple[Segment, np.ndarray]] = []
        found = fresh_kills = 0
        for seg in self.sealed:
            local = np.flatnonzero(np.isin(seg.ext_ids, ext_ids))
            found += int(local.size)
            if local.size:
                sealed_hits.append((seg, local))
                if seg.index.deleted is None:
                    fresh_kills += int(local.size)
                else:
                    fresh_kills += int((~seg.index.deleted[local]).sum())
        dmask = np.isin(self.delta.ext_ids, ext_ids)
        found += int(dmask.sum())
        fresh_kills += int((dmask & ~self.delta.deleted).sum())
        require(found == ext_ids.size,
                "unknown external ids in mark_deleted")
        require(allow_empty or self.num_active - fresh_kills > 0,
                "cannot delete every object")
        # Pass 2: apply.
        for seg, local in sealed_hits:
            _mark_local(seg.index, local)
        if dmask.any():
            self.delta.deleted[dmask] = True
        self._maybe_compact()

    def seal_delta(self) -> Segment | None:
        """Freeze the delta into an immutable sealed segment.

        The main :attr:`builder` builds the fused graph over the
        buffered rows — the first graph they get.  Tombstones ride
        along — compaction is what drops them — unless the whole delta
        is dead, in which case it is simply discarded.
        """
        if self.delta.n == 0:
            return None
        if self.delta.num_active == 0:
            self.delta = _DeltaSegment(self.weights)
            return None
        start = time.perf_counter()
        index = self.builder.build(self.delta.space)
        if bool(self.delta.deleted.any()):
            index.deleted = self.delta.deleted.copy()
            self._reseat_seed(index)
        index = self._compress_sealed(index)
        seg = Segment(index, self.delta.ext_ids.copy())
        self.sealed.append(seg)
        self.delta = _DeltaSegment(self.weights)
        self.num_seals += 1
        self._restamp_sparse()
        self._log_lifecycle("seal", seg.n, seg.n, start)
        return seg

    def compact(self) -> np.ndarray:
        """Rebuild one sealed segment over every live object (§IX
        periodic reconstruction); drops all tombstones and empties the
        delta.  Returns the surviving external ids, ascending — row ``j``
        of the new segment is external id ``active[j]``.

        Under ``cold_storage="mmap"`` the merged cold tier is streamed
        segment-at-a-time into freshly pre-sized ``.npy`` files —
        peak extra RAM is one segment's live rows, not the corpus —
        and the replaced segments' sidecar files are unlinked."""
        segs = self.searchable_segments()
        if not segs:
            return np.zeros(0, dtype=np.int64)
        start = time.perf_counter()
        n_in = sum(seg.n for seg in segs)
        num_modalities = segs[0].space.num_modalities
        streaming = self.cold_storage == "mmap"
        old_planes = [seg.space.vectors.store.cold_plane for seg in segs]
        ext_parts: list[np.ndarray] = []
        alive_parts: list[tuple[Segment, np.ndarray]] = []
        mat_parts: list[list[np.ndarray]] = [[] for _ in range(num_modalities)]
        attr_parts: list[AttributeTable] = []
        sparse_parts: list[SparseStore] = []
        contributing = 0
        for seg in segs:
            alive = (
                np.arange(seg.n)
                if seg.index.deleted is None
                else np.flatnonzero(~seg.index.deleted)
            )
            if alive.size == 0:
                continue
            contributing += 1
            ext_parts.append(seg.ext_ids[alive])
            alive_parts.append((seg, alive))
            seg_attrs = seg.space.vectors.attributes
            if seg_attrs is not None:
                attr_parts.append(seg_attrs.subset(alive))
            seg_sparse = seg.space.vectors.sparse
            if seg_sparse is not None:
                sparse_parts.append(seg_sparse.subset(alive))
            if not streaming:
                for i in range(num_modalities):
                    # Rebuild from the exact cold tier, not the hot
                    # codes — compaction must never accumulate
                    # quantisation error.
                    mat_parts[i].append(
                        seg.space.vectors.exact_modality(i)[alive]
                    )
        if not ext_parts:
            # Every object is dead (possible only via allow_empty
            # shard deletes): drop all segments instead of crashing on
            # an empty concatenate.  The index stays usable — searches
            # over zero segments answer empty, inserts restart it.
            self.sealed = []
            self.delta = _DeltaSegment(self.weights)
            self.num_compactions += 1
            if streaming:
                self._retire_cold_files(old_planes, keep=set())
            self._log_lifecycle("compact", n_in, 0, start)
            return np.zeros(0, dtype=np.int64)
        ext = np.concatenate(ext_parts)
        order = np.argsort(ext)
        attributes: AttributeTable | None = None
        if attr_parts:
            require(
                len(attr_parts) == contributing,
                "cannot compact: some segments carry an attribute table "
                "and some do not — the corpus attribute state is "
                "inconsistent",
            )
            attributes = AttributeTable.concat(attr_parts).subset(order)
        sparse_plane: SparseStore | None = None
        if sparse_parts:
            require(
                len(sparse_parts) == contributing,
                "cannot compact: some segments carry a sparse plane and "
                "some do not — the corpus sparse state is inconsistent",
            )
            # Tombstoned rows just fell out of the corpus, so the stats
            # stamped on the parts are stale; _restamp_sparse below
            # recomputes them over the survivors.
            sparse_plane = SparseStore.concat(sparse_parts).subset(order)
        if streaming:
            mats, out_paths = self._stream_merged_cold(
                alive_parts, order, num_modalities
            )
        else:
            mats = [np.concatenate(parts)[order] for parts in mat_parts]
            out_paths = []
        objects = MultiVectorSet(
            mats, attributes=attributes, sparse=sparse_plane
        )
        space = JointSpace(objects, self.weights)
        index = self.builder.build(space)
        if streaming:
            # Train the compressed hot tier from the merged (mapped)
            # matrices, then attach the freshly written files directly
            # as the cold plane — same bytes, no second spill.
            index = reseat_on_store(
                index, self.compression, self.store_options
            )
            store = index.space.vectors.store.with_cold_plane(
                MmapPlane(out_paths)
            )
            index.space = JointSpace(
                MultiVectorSet.from_store(
                    store, attributes=attributes, sparse=sparse_plane
                ),
                self.weights,
            )
        else:
            index = self._compress_sealed(index)
        self.sealed = [Segment(index, ext[order])]
        self.delta = _DeltaSegment(self.weights)
        self.num_compactions += 1
        if streaming:
            self._retire_cold_files(old_planes, keep=set(out_paths))
        self._restamp_sparse()
        self._log_lifecycle("compact", n_in, ext.size, start)
        return ext[order]

    def _log_lifecycle(
        self, event: str, n_in: int, n_out: int, start: float
    ) -> None:
        """One line per seal/compaction: rows in (tombstones included),
        rows out, sealed segments afterwards, wall seconds."""
        logger.info(
            "event=%s n_in=%d n_out=%d segments=%d seconds=%.4f",
            event, n_in, n_out, len(self.sealed),
            time.perf_counter() - start,
        )

    def _stream_merged_cold(
        self,
        alive_parts: list[tuple[Segment, np.ndarray]],
        order: np.ndarray,
        num_modalities: int,
    ) -> tuple[list[np.ndarray], list[Path]]:
        """Merge the live cold rows of *alive_parts* into pre-sized
        sidecar ``.npy`` files, one source segment at a time.

        Row ``j`` of the output is row ``order[j]`` of the source
        concatenation — byte-identical to the in-RAM
        ``concatenate(parts)[order]`` merge, without ever holding more
        than one segment's rows in memory.  Returns the read-only
        mappings plus their paths.
        """
        total = int(order.size)
        inv = np.empty(total, dtype=np.int64)
        inv[order] = np.arange(total, dtype=np.int64)
        dims = alive_parts[0][0].space.vectors.dims
        out_paths = self._next_cold_paths(dims)
        outs = [
            np.lib.format.open_memmap(
                path, mode="w+", dtype=np.float32, shape=(total, d)
            )
            for path, d in zip(out_paths, dims)
        ]
        offset = 0
        for seg, alive in alive_parts:
            target = inv[offset:offset + alive.size]
            for i in range(num_modalities):
                outs[i][target] = seg.space.vectors.exact_modality(i)[alive]
            offset += alive.size
        for out in outs:
            out.flush()
        del outs
        mats = [np.load(path, mmap_mode="r") for path in out_paths]
        return mats, out_paths

    def _modality_dims(self) -> tuple[int, ...]:
        if self.delta.n:
            return self.delta.space.vectors.dims
        return self.sealed[0].space.vectors.dims

    def _attribute_fields(self) -> tuple[str, ...] | None:
        """Attribute fields the corpus carries (None when unattributed)."""
        if self.delta.n:
            attrs = self.delta.attrs
        elif self.sealed:
            attrs = self.sealed[0].space.vectors.attributes
        else:
            return None
        return None if attrs is None else attrs.fields

    def _sparse_signature(self) -> tuple[int, str] | None:
        """``(vocab, metric)`` of the corpus sparse plane, or ``None``."""
        if self.delta.n:
            plane = self.delta.sparse
        elif self.sealed:
            plane = self.sealed[0].space.vectors.sparse
        else:
            return None
        return None if plane is None else (plane.vocab, plane.metric)

    def sparse_local_stats(self) -> SparseStats | None:
        """Sum of per-segment local sparse statistics — the corpus truth.

        Covers every *stored* row, tombstones included: soft-deleted
        rows keep shaping the document frequencies until a compaction
        physically drops them, matching the single-plane convention.
        ``None`` when the corpus carries no sparse plane.  The sharded
        front-end sums these across shards to build the global stats it
        broadcasts back.
        """
        parts = []
        for seg in self.sealed:
            plane = seg.space.vectors.sparse
            if plane is not None:
                parts.append(plane.local_stats())
        if self.delta.n and self.delta.sparse is not None:
            parts.append(self.delta.sparse.local_stats())
        if not parts:
            return None
        return sum_stats(parts)

    def _restamp_sparse(self, stats: SparseStats | None = None) -> None:
        """Re-stamp every segment's sparse plane with corpus-global
        statistics — run after insert/seal/compact so BM25/TF-IDF scores
        are independent of how the corpus is split into segments.

        Each sealed segment's space is *replaced* (never mutated) with a
        new :class:`JointSpace` over the re-wrapped plane
        (:meth:`SparseStore.with_stats`); frozen snapshots hold the old
        space objects, so their answers cannot shift underneath them.
        The dense concat/float64 caches transplant onto the new space —
        restamping is metadata-only, no vector work is redone.

        *stats* overrides the locally computed sum: a shard of a
        partitioned corpus receives the cross-shard global sum from the
        front-end this way.
        """
        if stats is None:
            stats = self.sparse_local_stats()
        if stats is None:
            return
        for seg in self.sealed:
            old = seg.index.space
            vectors = old.vectors
            plane = vectors.sparse
            if plane is None:
                continue
            new_space = JointSpace(
                MultiVectorSet.from_store(
                    vectors.store,
                    attributes=vectors.attributes,
                    sparse=plane.with_stats(stats),
                    metrics=vectors.declared_metrics,
                ),
                old.weights,
            )
            new_space._concat = old._concat
            new_space._concat_norm = old._concat_norm
            seg.index.space = new_space
        if self.delta.n and self.delta.sparse is not None:
            self.delta.sparse = self.delta.sparse.with_stats(stats)
            self.delta.refresh()

    def _maybe_seal(self) -> None:
        if self.delta.n >= self.policy.seal_size:
            self.seal_delta()

    def _maybe_compact(self) -> None:
        if len(self.sealed) > self.policy.max_segments:
            self.compact()
            return
        if (
            self.num_total >= self.policy.min_compact_size
            and self.deleted_fraction > self.policy.max_deleted_fraction
        ):
            self.compact()

    def _reseat_seed(self, index: GraphIndex) -> None:
        """Point the seed at a live vertex (nearest the live centroid) —
        the builder picks seeds deletion-blind, and a sealed segment must
        stay servable (see :meth:`GraphIndex.validate`)."""
        if index.deleted is None or not index.deleted[index.seed_vertex]:
            return
        alive = np.flatnonzero(~index.deleted)
        c = index.space.concatenated
        centroid = c[alive].mean(axis=0)
        index.seed_vertex = int(alive[np.argmax(c[alive] @ centroid)])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist the full segmented state into directory *path*:
        ``manifest.json`` plus one ``.npz`` per segment (vectors,
        adjacency, external ids, deletion bitset).  The delta is one
        more such archive with an empty adjacency — its rows, ids and
        bitset are all there is to resume from.

        Memory-mapped cold tiers ride as sidecar
        ``segment_{i:03d}.cold_{m}.npy`` files next to the archives
        (``.npz`` is a zip and cannot be mapped); their segments are
        recorded with ``"storage": "mmap"``.  A corpus with a sparse
        lexical plane stores its per-segment CSR arrays (stamped stats
        included) inside the archives.  Whatever the index holds, the
        manifest format is ``must-segments-v5``."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        entries = []
        for i, seg in enumerate(self.sealed):
            fname = f"segment_{i:03d}.npz"
            self._save_segment(path / fname, seg.index, seg.ext_ids)
            entry: dict = {"file": fname, "kind": "sealed", "n": int(seg.n)}
            plane = seg.space.vectors.store.cold_plane
            if isinstance(plane, MmapPlane):
                cold_files = []
                for m, src in enumerate(plane.paths):
                    dst = path / f"segment_{i:03d}.cold_{m}.npy"
                    if src.resolve() != dst.resolve():
                        shutil.copyfile(src, dst)
                    cold_files.append(dst.name)
                entry["storage"] = "mmap"
                entry["cold_files"] = cold_files
            entries.append(entry)
        if self.delta.n:
            fname = f"segment_{len(self.sealed):03d}.npz"
            self._save_segment(
                path / fname, self.delta.as_segment().index,
                self.delta.ext_ids,
            )
            entries.append(
                {"file": fname, "kind": "delta", "n": int(self.delta.n)}
            )
        manifest = {
            "format": _FORMAT,
            "format_version": FORMAT_VERSION,
            "compression": self.compression,
            "store_options": {
                k: v
                for k, v in self.store_options.items()
                if isinstance(v, (str, int, float, bool))
            },
            "squared_weights": [float(x) for x in self.weights.squared],
            "next_ext_id": int(self._next_ext),
            "policy": self.policy.to_dict(),
            "counters": {
                "seals": self.num_seals,
                "compactions": self.num_compactions,
            },
            "segments": entries,
        }
        if self.cold_storage == "mmap" or any(
            e.get("storage") == "mmap" for e in entries
        ):
            manifest["cold_storage"] = self.cold_storage
        if self.shard is not None:
            manifest["shard"] = {
                "index": int(self.shard[0]),
                "count": int(self.shard[1]),
            }
        (path / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2) + "\n"
        )

    def _save_segment(
        self, file: Path, index: GraphIndex, ext_ids: np.ndarray
    ) -> None:
        flat, offsets = pack_adjacency(index.neighbors)
        arrays = {"flat": flat, "offsets": offsets, "ext_ids": ext_ids}
        if index.deleted is not None:
            arrays["deleted"] = index.deleted
        store = index.space.vectors.store
        arrays.update(store.to_arrays())
        attrs = index.space.vectors.attributes
        if attrs is not None:
            # Attribute columns ride in the same archive under the
            # ``attr__`` prefix, so filters answer identically after a
            # save/load round-trip.
            arrays.update(attrs.to_arrays())
        sparse = index.space.vectors.sparse
        if sparse is not None:
            # The CSR plane rides under the ``sparse__`` prefix with its
            # stamped corpus-global statistics, so a reloaded segment
            # scores lexical terms identically without a restamp pass.
            arrays.update(sparse.to_arrays())
        metadata = {
            "name": index.name,
            "seed_vertex": int(index.seed_vertex),
            "build_seconds": float(index.build_seconds),
            "num_modalities": index.space.num_modalities,
            # kind + dtype + codebook shape info; validated on load so an
            # unknown store fails fast with an actionable error.
            "store": store.store_meta(),
        }
        save_arrays(file, metadata=metadata, **arrays)

    @classmethod
    def load(
        cls,
        path: str | Path,
        builder: FusedIndexBuilder | None = None,
    ) -> "SegmentedIndex":
        """Restore an index saved by :meth:`save`.

        The manifest carries weights, policy, and id-allocator state; the
        *builder* (used for future seals/compactions) is supplied by the
        caller since build pipelines are not serialised.
        """
        path = Path(path)
        manifest_file = path / MANIFEST_NAME
        if not manifest_file.exists():
            raise FileNotFoundError(
                f"no segment manifest at {manifest_file} — not a segmented "
                f"index directory"
            )
        manifest = json.loads(manifest_file.read_text())
        fmt = manifest.get("format")
        if fmt not in _READABLE_FORMATS:
            raise ValueError(
                f"unsupported segment manifest format {fmt!r} "
                f"(format_version {manifest.get('format_version')!r}) at "
                f"{manifest_file} — this build reads "
                f"{'/'.join(map(repr, _READABLE_FORMATS))} "
                f"(format_version ≤ {FORMAT_VERSION}); the index was "
                f"written by a newer library version, upgrade it or "
                f"re-save the index"
            )
        weights = Weights(manifest["squared_weights"])
        cold_storage = manifest.get("cold_storage", "resident")
        seg_index = cls(
            weights,
            builder=builder,
            policy=SegmentPolicy(**manifest["policy"]),
            compression=manifest.get("compression", "none"),
            store_options=manifest.get("store_options"),
            cold_storage=cold_storage,
            data_dir=path if cold_storage == "mmap" else None,
        )
        seg_index._next_ext = int(manifest["next_ext_id"])
        shard = manifest.get("shard")
        if shard is not None:
            seg_index.shard = (int(shard["index"]), int(shard["count"]))
        counters = manifest.get("counters", {})
        seg_index.num_seals = int(counters.get("seals", 0))
        seg_index.num_compactions = int(counters.get("compactions", 0))
        for entry in manifest["segments"]:
            file = path / entry["file"]
            if not file.exists():
                raise FileNotFoundError(
                    f"segment file {entry['file']!r} listed in "
                    f"{manifest_file} is missing from {path} — the index "
                    f"directory is incomplete"
                )
            try:
                metadata, arrays = load_arrays(file)
            except (zipfile.BadZipFile, ValueError, OSError, KeyError) as exc:
                raise ValueError(
                    f"segment file {entry['file']!r} in {path} is "
                    f"unreadable ({exc}) — the archive is corrupt or "
                    f"truncated; restore it from a backup or re-save "
                    f"the index"
                ) from exc
            vectors = cls._load_vectors(metadata, arrays)
            if entry.get("storage") == "mmap":
                # Sidecar cold tier: headers are validated eagerly
                # (missing/truncated files fail here, with the file
                # named), the data mapping is deferred to first probe —
                # loading a sealed segment never pages its cold bytes.
                plane = MmapPlane(
                    [path / f for f in entry["cold_files"]]
                )
                store = vectors.store.with_cold_plane(plane)
                vectors = MultiVectorSet.from_store(
                    store, attributes=vectors.attributes,
                    sparse=vectors.sparse,
                )
            space = JointSpace(vectors, weights)
            if entry["kind"] == "sealed":
                index = GraphIndex.from_arrays(metadata, arrays, space)
                seg_index.sealed.append(
                    Segment(index, arrays["ext_ids"].astype(np.int64))
                )
            else:
                require(
                    not vectors.is_compressed,
                    "delta segment must be stored dense — the archive is "
                    "corrupt or from an incompatible writer",
                )
                # Rows, ids and bitset are the whole delta; an archive
                # written before v5 also holds a graph, which is not read.
                seg_index.delta.append(
                    vectors, arrays["ext_ids"].astype(np.int64)
                )
                deleted = arrays.get("deleted")
                if deleted is not None:
                    seg_index.delta.deleted = deleted.astype(bool)
        return seg_index

    @staticmethod
    def _load_vectors(metadata: dict, arrays: dict) -> MultiVectorSet:
        """Segment vectors from an archive: store-aware (v2) or the v1
        dense ``mod_{i}`` layout.  Unknown store kinds/dtypes raise the
        actionable error from :func:`~repro.store.store_from_arrays`.
        A ``sparse__``-prefixed CSR plane (v4) reattaches with its
        persisted stats; older archives simply have none."""
        attributes = AttributeTable.from_arrays(arrays)
        sparse = SparseStore.from_arrays(arrays)
        store_meta = metadata.get("store")
        if store_meta is not None:
            return MultiVectorSet.from_store(
                store_from_arrays(store_meta, arrays),
                attributes=attributes,
                sparse=sparse,
            )
        mats = [
            arrays[f"mod_{i}"]
            for i in range(int(metadata["num_modalities"]))
        ]
        return MultiVectorSet(mats, attributes=attributes, sparse=sparse)
