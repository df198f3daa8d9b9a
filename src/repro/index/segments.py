"""Segmented dynamic-update subsystem: streaming inserts + auto-compaction.

The paper's §IX sketches dynamic updates as a data-status bitset plus
periodic reconstruction.  This module turns that sketch into an LSM-style
segmented index, the architecture streaming vector stores use:

* a list of **sealed** immutable :class:`~repro.index.base.GraphIndex`
  segments, each a self-contained graph over its own vector slice;
* one **mutable delta segment**: an append buffer with no graph, which
  every search scores end to end (the engine's own scan) until it seals;
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
  segment's vectors live in a :mod:`repro.store` backend (int8-SQ /
  PQ) encoded at seal/compact time, while the delta stays
  dense float32 — it is scanned at full precision and encoded once, at
  seal; manifests persist store kind + codebooks per segment and
  compaction rebuilds from the exact cold tier so quantisation error
  never accumulates.

How live rows become a served segment is decided here once, for every
caller.  :func:`live_rows` is the one walk — the surviving external ids
in ascending order, each segment's alive rows, the merged attribute
table and sparse plane — that compaction rebuilds over.
:func:`seal_index` is the one seal path — re-seat on the configured
store, then attach a given cold plane, spill under mmap, or stay
resident — behind seal, compaction, ``MUST.build`` and
``MUST.load_index``.

All cross-segment searching lives in :class:`SegmentView`, a fixed
list of segments: :meth:`SegmentedIndex.view` is a live view, and
:meth:`SegmentedIndex.snapshot` returns a
**frozen** view (copied bitsets, detached containers) whose answers
later inserts/deletes/compactions can never change — the snapshot
primitive the serving layer (:mod:`repro.service`) batches against.

Cross-segment search asks every segment for its candidates through the
unified scorer stack and merges by ``(similarity, external id)``: a
graph plan (:meth:`SegmentView.graph_wave`) takes each segment's top
``l`` from one lockstep wave per segment — traversing a sealed graph,
scanning the delta — and an exact plan (:meth:`SegmentView.exact_wave`)
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
from repro.sparse.store import SparseStats, SparseStore, sum_stats
from repro.store import (
    STORE_KINDS,
    ColdPlane,
    MmapPlane,
    spill_cold,
    store_from_arrays,
)
from repro.store.base import refuse_retired_kind
from repro.utils.io import load_arrays, pack_adjacency, save_arrays
from repro.utils.topk import merge_candidates
from repro.utils.validation import require

__all__ = [
    "SegmentPolicy",
    "Segment",
    "SegmentView",
    "SegmentedIndex",
    "LiveRows",
    "beam_covers",
    "check_storage",
    "live_rows",
    "retire_cold_files",
    "seal_index",
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
    search scores all of them (:meth:`SegmentView.graph_wave`), and sealing
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
    aggregate, so a query's plan does not depend on its wave-mates.  Two
    things are never asked: a single-graph index, which stays pure
    Algorithm 2, and the delta (``kind == "delta"``), which has no graph
    and is always scanned.  (The engine adds one rule of its own, per
    row and on any graph: a row that excludes vertices and whose beam
    reaches its admissible count is scanned too.)
    """
    return l >= n - l


def check_storage(
    compression: str,
    store_options: dict | None,
    cold_storage: str,
    data_dir: str | Path | None,
) -> None:
    """Validate where sealed rows are served from — the compression
    backend and the home of the exact cold tier — for the segmented
    index and the framework alike."""
    refuse_retired_kind(compression)
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
            "(int8/pq) — a dense store serves graph "
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


def _cold_stem(data_dir: Path) -> str:
    """First unused sidecar stem ``seg_NNNNNN`` in *data_dir* — never
    the name of a file on disk: an older live index (or a frozen
    snapshot) may still be serving from it."""
    seq = 0
    for f in data_dir.glob("seg_*.cold_0.npy"):
        try:
            seq = max(seq, int(f.name.split(".")[0][4:]) + 1)
        except ValueError:
            continue
    return f"seg_{seq:06d}"


def seal_index(
    index: GraphIndex,
    compression: str,
    store_options: dict | None = None,
    plane: ColdPlane | None = None,
    cold_dir: Path | None = None,
) -> GraphIndex:
    """The one seal path: a freshly built graph becomes a served one.

    The graph was built over full-precision vectors; only the serving
    representation changes.  :func:`reseat_on_store` encodes it on the
    configured store (``"none"`` keeps the store it has), whose cold
    exact tier is then settled: *plane* replaces it when given (the
    sidecar files compaction just streamed); otherwise, with a
    *cold_dir* (``cold_storage="mmap"``), a resident tier spills to
    fresh sidecar files there, leaving only the hot codes in RAM;
    otherwise it stays resident.
    """
    index = reseat_on_store(index, compression, store_options)
    store = index.space.store
    cold = store.cold_plane
    if plane is not None:
        index.space = index.space.rebind(store.with_cold_plane(plane))
    elif cold_dir is not None and cold is not None and cold.is_resident:
        spilled = spill_cold(store, cold_dir, _cold_stem(cold_dir))
        index.space = index.space.rebind(spilled)
    return index


def retire_cold_files(
    planes: list[ColdPlane | None], keep: frozenset[Path] = frozenset()
) -> None:
    """Unlink the sidecar files of replaced indexes (all but *keep*).

    Frozen snapshots and the replaced instance itself may still hold
    these planes; mapping every modality first pins the inodes, so their
    reads keep working after the unlink (POSIX semantics).
    """
    for plane in planes:
        if not isinstance(plane, MmapPlane):
            continue
        for i, path in enumerate(plane.paths):
            if path in keep:
                continue
            plane.modality(i)
            path.unlink(missing_ok=True)


@dataclass
class LiveRows:
    """Every live row of a list of segments, ordered by external id.

    ``ext_ids`` ascend.  Each of ``parts`` is one segment with live
    rows: the segment, its alive local rows, and each one's position in
    ``ext_ids``.  ``attributes`` / ``sparse`` are merged in that order.
    """

    ext_ids: np.ndarray
    parts: list[tuple[Segment, np.ndarray, np.ndarray]]
    attributes: AttributeTable | None
    sparse: SparseStore | None


def live_rows(segments: list[Segment]) -> LiveRows:
    """The one live-row walk: which rows survive, and in what order.

    Compaction rebuilds over its answer (a single graph is one segment
    with ids ``0..n-1``).  Each sparse plane is stamped with its own
    statistics before its tombstones drop, so the merged plane scores
    against the document frequencies its rows were served with until
    compaction restamps it over the survivors.
    """
    parts: list[tuple[Segment, np.ndarray]] = []
    ext_parts: list[np.ndarray] = []
    attr_parts: list[AttributeTable] = []
    sparse_parts: list[SparseStore] = []
    for seg in segments:
        deleted = seg.index.deleted
        alive = np.arange(seg.n) if deleted is None else np.flatnonzero(~deleted)
        if alive.size == 0:
            continue
        parts.append((seg, alive))
        ext_parts.append(seg.ext_ids[alive])
        vectors = seg.space.vectors
        if vectors.attributes is not None:
            attr_parts.append(vectors.attributes.subset(alive))
        if vectors.sparse is not None:
            plane = vectors.sparse
            sparse_parts.append(plane.with_stats(plane.stats).subset(alive))
    for what, found in (
        ("an attribute table", attr_parts), ("a sparse plane", sparse_parts)
    ):
        require(
            not found or len(found) == len(parts),
            f"some segments carry {what} and some do not — the corpus "
            f"state is inconsistent",
        )
    if not parts:
        return LiveRows(np.zeros(0, dtype=np.int64), [], None, None)
    ext = np.concatenate(ext_parts)
    order = np.argsort(ext)
    where = np.empty_like(order)
    where[order] = np.arange(order.size)
    ends = np.cumsum([alive.size for _, alive in parts])
    return LiveRows(
        ext[order],
        [
            (seg, alive, where[end - alive.size:end])
            for (seg, alive), end in zip(parts, ends)
        ],
        AttributeTable.concat(attr_parts).subset(order) if attr_parts else None,
        SparseStore.concat(sparse_parts).subset(order) if sparse_parts else None,
    )


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
    ) -> tuple[list[SearchResult], SearchStats]:
        """Cross-segment lockstep batch: one
        :func:`~repro.index.graph_wave.graph_wave_search` wave per
        segment carries the *whole* batch, so a view with ``s`` active
        segments pays ``s`` lockstep traversals instead of ``b × s``
        per-query beam loops; a lone query is ``graph_wave([q])``.
        Per-segment candidates — each segment's top ``min(l, active)``
        — merge per query by ``(similarity, external id)``, with
        external ids in the results.  The delta is always scanned and a
        sealed segment when :func:`beam_covers` says so: on a segment
        every row scans, the call runs no wave at all.

        Results are independent of batch composition and position, as
        in the engine.  A shared ``filter_memo`` compiles each distinct
        :class:`~repro.core.query.Filter` once per segment table, not
        once per query.

        A typed :class:`Query` carries per-query weights/filter/k; its
        filter compiles against each segment's own attribute slice, so
        masked-out vertices still route within their segment but never
        surface.  A per-query ``k`` override widens the per-segment pool
        but never shrinks it.

        ``refine=r`` reranks each segment's top ``min(r·k, |candidates|)``
        survivors at full precision *at the view level* (the engine runs
        without rerank), so the merged ranking is by exact similarity.

        Returns ``(results, wave_stats)``: per-query results with
        aggregated per-segment stats, plus one batch-level
        :class:`~repro.core.results.SearchStats` holding the summed
        ``waves``/``frontier_sizes`` trace across segments.

        Hybrid queries (``Query.sparse=``) are rows of the same waves:
        the engine fuses each one's per-segment candidate pool with the
        segment's lexical candidates at finalise, so the view only
        merges — the union rescore takes the place of ``refine`` for
        them: it scores the hot tier (decoded PQ/int8 rows on a
        compressed store), not the cold exact plane.
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
        # The per-query k override must not shrink the per-segment pool
        # but may widen it; strip it before the inner waves so it cannot
        # re-trigger k resolution downstream.
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
            ids, sims = merge_candidates(p_i, k_i)
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
                flat.batch_search(typed, k, weights, refine=refine)
            ):
                res.stats.segments_probed = 1
                parts[j].append((res.ids, res.similarities))
                stats_parts[j].append(res.stats)
        return [
            SearchResult(
                *merge_candidates(p_j, q.resolve_k(k)),
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
        check_storage(compression, store_options, cold_storage, data_dir)
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
        #: where seals spill their cold tier: ``data_dir`` under mmap.
        self._cold_dir = self.data_dir if cold_storage == "mmap" else None
        if self._cold_dir is not None:
            self._cold_dir.mkdir(parents=True, exist_ok=True)
        self.sealed: list[Segment] = []
        self.delta = _DeltaSegment(weights)
        self._next_ext = 0
        self.num_seals = 0
        self.num_compactions = 0

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
        cold_storage: str = "resident",
        data_dir: str | Path | None = None,
    ) -> "SegmentedIndex":
        """Wrap a built single-graph index as the first sealed segment.

        The index's space is taken as-is — if its vectors already sit in
        a compressed store (``MUST.build`` with ``compression=``), the
        segment serves from those codes, under external ids ``0..n-1``.
        With ``cold_storage="mmap"`` the wrapped index's resident cold
        tier (if any) is spilled to ``data_dir`` immediately.
        """
        seg = cls(index.space.weights, builder=builder, policy=policy,
                  compression=compression, store_options=store_options,
                  cold_storage=cold_storage, data_dir=data_dir)
        # Already on its store: the seal path only spills a resident
        # cold tier under mmap.
        index = seal_index(index, "none", cold_dir=seg._cold_dir)
        seg.sealed.append(Segment(index, np.arange(index.n, dtype=np.int64)))
        seg._next_ext = index.n
        return seg

    def _seal_rows(
        self,
        space: JointSpace,
        ext_ids: np.ndarray,
        deleted: np.ndarray | None = None,
        plane: ColdPlane | None = None,
    ) -> Segment:
        """How rows become a served segment — at seal and at compaction:
        the fused graph over *space*, its seed on a live vertex, then
        :func:`seal_index` on the configured store (with *plane* as its
        cold tier when given)."""
        index = self.builder.build(space)
        if deleted is not None:
            index.deleted = deleted
            self._reseat_seed(index)
        index = seal_index(
            index, self.compression, self.store_options, plane=plane,
            cold_dir=self._cold_dir,
        )
        return Segment(index, ext_ids)

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
    def insert(self, objects: MultiVectorSet | MultiVector) -> np.ndarray:
        """Stream objects into the delta segment; returns their external ids.

        May seal the delta and/or trigger a compaction on the way out,
        per :attr:`policy`.  Ids come from the monotone allocator, so
        they never repeat.
        """
        if isinstance(objects, MultiVector):
            require(
                all(v is not None for v in objects.vectors),
                "inserted objects must carry every modality",
            )
            objects = MultiVectorSet([v[None, :] for v in objects.vectors])
        require(objects.n >= 1, "nothing to insert")
        if self.num_total:
            corpus = self._corpus_vectors()
            require(objects.dims == corpus.dims,
                    f"inserted objects have dims {objects.dims}, "
                    f"index holds {corpus.dims}")
            existing, incoming = (
                None if v.attributes is None else v.attributes.fields
                for v in (corpus, objects)
            )
            require(
                existing == incoming,
                f"inserted objects must carry the same attribute fields as "
                f"the corpus (corpus: {existing}, inserted: {incoming}) — "
                f"attach them via MultiVectorSet.set_attributes before "
                f"insert",
            )
            existing_sp, incoming_sp = (
                None if v.sparse is None else (v.sparse.vocab, v.sparse.metric)
                for v in (corpus, objects)
            )
            require(
                existing_sp == incoming_sp,
                f"inserted objects must carry the same sparse plane as the "
                f"corpus (corpus (vocab, metric): {existing_sp}, inserted: "
                f"{incoming_sp}) — attach rows via "
                f"MultiVectorSet.set_sparse before insert",
            )
        ext = np.arange(
            self._next_ext, self._next_ext + objects.n, dtype=np.int64
        )
        self._next_ext += objects.n
        self.delta.append(objects, ext)
        self._maybe_seal()
        self._maybe_compact()
        self._restamp_sparse()
        return ext

    def mark_deleted(self, ext_ids: np.ndarray) -> None:
        """Soft-delete by external id (per-segment §IX bitsets).

        Unknown ids raise; re-deleting is idempotent.  Deleting the last
        active object is rejected, mirroring the single-graph guard.
        Validation happens before any bitset is touched, so a rejected
        call leaves the index unchanged.
        """
        ext_ids = np.unique(np.asarray(ext_ids, dtype=np.int64))
        # Count first, so both guards fire before any mutation.
        found, fresh_kills, hits = self.locate(ext_ids)
        require(found == ext_ids.size,
                "unknown external ids in mark_deleted")
        require(self.num_active - fresh_kills > 0,
                "cannot delete every object")
        for seg, local in hits:
            if seg.kind == "delta":
                self.delta.deleted[local] = True
            else:
                _mark_local(seg.index, local)
        self._maybe_compact()

    def locate(
        self, ext_ids: np.ndarray
    ) -> tuple[int, int, list[tuple[Segment, np.ndarray]]]:
        """The delete census of unique *ext_ids*: ``(found, fresh,
        hits)`` — how many this index holds, how many of those are still
        live, and each holding segment (the delta included) with its
        local rows."""
        found = fresh = 0
        hits = []
        for seg in self.searchable_segments():
            local = np.flatnonzero(np.isin(seg.ext_ids, ext_ids))
            if local.size:
                hits.append((seg, local))
                found += int(local.size)
                deleted = seg.index.deleted
                fresh += int(
                    local.size if deleted is None else (~deleted[local]).sum()
                )
        return found, fresh, hits

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
        deleted = self.delta.deleted
        seg = self._seal_rows(
            self.delta.space, self.delta.ext_ids.copy(),
            deleted.copy() if bool(deleted.any()) else None,
        )
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
        if self.num_active == 0:
            return np.zeros(0, dtype=np.int64)
        segs = self.searchable_segments()
        start = time.perf_counter()
        old_planes = [seg.space.vectors.store.cold_plane for seg in segs]
        live = live_rows(segs)
        mats, paths = self._merge_cold(live)
        objects = MultiVectorSet(
            mats, attributes=live.attributes, sparse=live.sparse
        )
        # The hot tier trains on the merged matrices; under mmap the
        # files just written are the cold plane — no second spill.
        self.sealed = [
            self._seal_rows(
                JointSpace(objects, self.weights), live.ext_ids,
                plane=MmapPlane(paths) if paths else None,
            )
        ]
        self.delta = _DeltaSegment(self.weights)
        self.num_compactions += 1
        if self._cold_dir is not None:
            retire_cold_files(old_planes, keep=frozenset(paths))
        self._restamp_sparse()
        self._log_lifecycle(
            "compact", sum(seg.n for seg in segs), live.ext_ids.size, start
        )
        return live.ext_ids

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

    def _merge_cold(
        self, live: LiveRows
    ) -> tuple[list[np.ndarray], list[Path]]:
        """The live rows' exact vectors in ``live.ext_ids`` order,
        gathered one source segment at a time — from the exact cold
        tier, never the hot codes, so compaction never accumulates
        quantisation error.

        Under ``cold_storage="mmap"`` they stream into freshly pre-sized
        sidecar ``.npy`` files (never more than one segment's rows in
        RAM) and come back as read-only mappings with their paths;
        otherwise as in-RAM matrices and no path.
        """
        total = live.ext_ids.size
        dims = live.parts[0][0].space.vectors.dims
        paths: list[Path] = []
        if self._cold_dir is None:
            outs = [np.empty((total, d), dtype=np.float32) for d in dims]
        else:
            stem = _cold_stem(self._cold_dir)
            paths = [
                self._cold_dir / f"{stem}.cold_{i}.npy" for i in range(len(dims))
            ]
            outs = [
                np.lib.format.open_memmap(
                    path, mode="w+", dtype=np.float32, shape=(total, d)
                )
                for path, d in zip(paths, dims)
            ]
        for seg, alive, target in live.parts:
            for i, out in enumerate(outs):
                out[target] = seg.space.vectors.exact_modality(i)[alive]
        if not paths:
            return outs, paths
        for out in outs:
            out.flush()
        del outs
        return [np.load(path, mmap_mode="r") for path in paths], paths

    def _corpus_vectors(self) -> MultiVectorSet:
        """The rows that speak for a non-empty corpus: the modality
        dims, attribute fields and sparse plane every insert must match."""
        return (self.delta if self.delta.n else self.sealed[0]).space.vectors

    def sparse_local_stats(self) -> SparseStats | None:
        """Sum of per-segment local sparse statistics — the corpus truth.

        Covers every *stored* row, tombstones included: soft-deleted
        rows keep shaping the document frequencies until a compaction
        physically drops them, matching the single-plane convention.
        ``None`` when the corpus carries no sparse plane.
        """
        planes = [seg.space.vectors.sparse for seg in self.sealed]
        if self.delta.n:
            planes.append(self.delta.sparse)
        parts = [plane.local_stats() for plane in planes if plane is not None]
        return sum_stats(parts) if parts else None

    def _restamp_sparse(self) -> None:
        """Re-stamp every segment's sparse plane with corpus-global
        statistics — run after insert/seal/compact so BM25/TF-IDF scores
        are independent of how the corpus is split into segments.

        Each sealed segment's space is *replaced* (never mutated) with a
        new :class:`JointSpace` over the re-wrapped plane
        (:meth:`SparseStore.with_stats`); frozen snapshots hold the old
        space objects, so their answers cannot shift underneath them.
        The dense concat/float64 caches transplant onto the new space —
        restamping is metadata-only, no vector work is redone.
        """
        stats = self.sparse_local_stats()
        if stats is None:
            return
        for seg in self.sealed:
            plane = seg.space.vectors.sparse
            if plane is not None:
                seg.index.space = seg.space.rebind(sparse=plane.with_stats(stats))
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
            space = JointSpace(vectors, weights)
            if entry.get("storage") == "mmap":
                # Sidecar cold tier: headers are validated eagerly
                # (missing/truncated files fail here, with the file
                # named), the data mapping is deferred to first probe —
                # loading a sealed segment never pages its cold bytes.
                plane = MmapPlane(
                    [path / f for f in entry["cold_files"]]
                )
                space = space.rebind(vectors.store.with_cold_plane(plane))
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
