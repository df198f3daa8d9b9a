"""Process-sharded serving tier: N worker processes, one coalescing front-end.

Every hot path in the library is GIL-bound on its Python half, so
threads cannot scale it.  :class:`ShardedService` breaks that ceiling
the only way CPython allows: the corpus is partitioned by external id
(``ext_id % n_shards``) across **worker processes**, each holding its
own :class:`~repro.index.segments.SegmentedIndex` over its slice.

The data plane is built so vectors cross the process boundary exactly
once, at spawn:

* each shard's vector planes (plus external ids and attribute columns)
  are packed into one shared-memory block
  (:class:`~repro.utils.shm.SharedArrays`); the worker attaches
  zero-copy views and builds its graph over them.  After every worker
  acknowledges, the parent unlinks the block — it lives exactly as long
  as its mappings;
* with an mmap-backed template (``cold_storage="mmap"``) the block
  shrinks from O(corpus) to O(hot): it carries only ids, attributes, a
  per-row ``(source, row)`` map into the on-disk cold files, and any
  rows still resident in the parent (the delta "tail").  Each worker
  opens the cold ``.npy`` files read-only via mmap
  (:class:`~repro.store.GatherPlane` over
  :class:`~repro.store.MmapPlane` sources), gathers its slice once to
  build the graph — the same bytes the resident protocol ships — and
  serves refine/exact reranks straight from the shared page cache.
  ``spawn_shm_bytes`` records what actually crossed;
* at serve time only queries travel down and top-k ``(id, score)``
  pairs travel up — a few hundred bytes per request, never a vector
  plane.

The control plane **reuses** :class:`MustService` unchanged: the same
bounded queue, admission control, micro-batch coalescing dispatcher,
and plan grouping.  Only the group executors differ — each coalesced
group scatters to every live shard (exact groups via the shard's
``exact_wave``, lockstep graph groups via ``graph_wave``, per-query
graph requests via a per-item command — each message carries the
group's :class:`~repro.core.query.SearchOptions`, which the worker hands
to :func:`repro.index.executor.execute`), gathers the per-shard pools,
and merges a global top-k with
:func:`~repro.index.segments._merge_candidates`.

**Bit-parity.**  The exact path scores through the layout-independent
``query_ids_stable`` kernel inside each shard, per segment — the same
kernel a single-process :class:`~repro.index.segments.SegmentView` scans
with.  A shard's local top-k is therefore a subset of the global
candidate list with *identical* similarities, the union of local top-k
lists contains the global top-k, and the merge orders by
``(-similarity, external id)`` exactly like the single-process merge —
so the sharded exact answer is **bit-identical to the unsharded
``SegmentView`` answer for every shard count and layout**, filters and
deletes included.  Graph-path answers are a function of the sharded
index and the query (every shard's segment graphs search from their own
entry order), but a different — recall-equivalent — sample than the
single-process graph, exactly as two differently-built graphs answer
differently.

**Failure containment.**  A worker that dies mid-wave fails only the
requests of the group in flight (each future gets a
:class:`ShardFailed`); the shard is marked dead and subsequent waves
keep answering from the surviving shards (degraded: their slice of the
corpus is gone from results until the service is rebuilt).  Writes
route by external id to the owning shard under per-shard epochs; a
write touching a dead shard raises.

**Multi-tenancy.**  Constructed from a
:class:`~repro.service.CollectionManager`, every worker process holds
one shard slice of *every* collection (its own
:class:`~repro.index.segments.SegmentedIndex`, id space, and shm pack
per collection), and every hot-path command carries the collection
name.  Requests route exactly as in :class:`MustService`
(``SearchOptions(collection=...)``), writes take ``collection=``, and
the per-tenant admission quotas are inherited unchanged — sharding is
orthogonal to tenancy.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.attributes import AttributeTable
from repro.core.multivector import MultiVector, MultiVectorSet
from repro.core.query import Query, SearchOptions
from repro.core.results import SearchResult, SearchStats
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.base import reseat_on_store
from repro.index.executor import BatchResult, execute
from repro.index.segments import SegmentedIndex, SegmentView, _merge_candidates
from repro.service.collections import Collection, CollectionManager
from repro.service.service import MustService, ServiceConfig, _Request
from repro.service.snapshot import IndexSnapshot
from repro.sparse.store import SparseStats, SparseStore, sum_stats
from repro.store import GatherPlane, MmapPlane, ResidentPlane
from repro.utils.shm import SharedArrays
from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.core.framework import MUST

__all__ = ["ShardedService", "ShardFailed"]


class ShardFailed(RuntimeError):
    """A worker process died (or timed out) while serving a request."""


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _empty_result() -> SearchResult:
    return SearchResult(
        ids=np.zeros(0, dtype=np.int64),
        similarities=np.zeros(0, dtype=np.float64),
    )


class _ShardCollection:
    """One collection's shard slice: a segmented index + its epoch."""

    def __init__(self, spec: dict[str, Any] | None, meta: dict[str, Any]):
        self.meta = meta
        self.pack = SharedArrays.attach(spec) if spec is not None else None
        weights = Weights(meta["squared_weights"])
        builder = meta["builder"]
        kwargs = dict(
            builder=builder,
            policy=meta["policy"],
            compression=meta["compression"],
            store_options=meta["store_options"],
        )
        if self.pack is not None:
            arrays = self.pack.arrays
            ext_ids = np.asarray(arrays["ext_ids"], dtype=np.int64)
            num_modalities = meta["num_modalities"]
            plane = None
            if meta.get("cold_storage") == "mmap":
                # The cold tier stays on disk: the shm pack carries only a
                # per-row (source, row) map plus any rows whose source
                # segment was still resident in the parent (the "tail").
                # The worker opens the parent's cold files read-only and
                # gathers its slice once to build the graph — identical
                # bytes to the resident protocol, O(hot) shm instead of
                # O(corpus).
                sources: list = [MmapPlane(p) for p in meta["cold_sources"]]
                if "tail_mod_0" in arrays:
                    sources.append(
                        ResidentPlane(
                            [
                                np.asarray(arrays[f"tail_mod_{i}"])
                                for i in range(num_modalities)
                            ]
                        )
                    )
                plane = GatherPlane(
                    sources,
                    np.asarray(arrays["cold_src"], dtype=np.int64),
                    np.asarray(arrays["cold_row"], dtype=np.int64),
                )
                mats = [plane.modality(i) for i in range(num_modalities)]
            else:
                mats = [
                    np.asarray(arrays[f"mod_{i}"]) for i in range(num_modalities)
                ]
            attributes = AttributeTable.from_arrays(arrays)
            # The sparse lexical plane rides in the pack stamped with
            # the collection-global statistics, so this shard's BM25/
            # TF-IDF scores match every other shard's from the start.
            sparse = SparseStore.from_arrays(arrays)
            space = JointSpace(
                MultiVectorSet(mats, attributes=attributes, sparse=sparse),
                weights,
            )
            index = reseat_on_store(
                builder.build(space), meta["compression"], meta["store_options"]
            )
            if plane is not None:
                store = index.space.vectors.store
                if store.cold_plane is not None:
                    index.space = JointSpace(
                        MultiVectorSet.from_store(
                            store.with_cold_plane(plane),
                            attributes=attributes,
                            sparse=sparse,
                        ),
                        weights,
                    )
            self.seg = SegmentedIndex.from_graph(
                index, ext_ids=ext_ids, **kwargs
            )
        else:
            self.seg = SegmentedIndex(weights, **kwargs)
        self.seg.shard = (meta["shard"], meta["n_shards"])
        self.epoch = 0
        self._view: SegmentView | None = None
        self._view_epoch = -1

    def view(self) -> SegmentView:
        """The current epoch's frozen view (captured lazily per write)."""
        view = self._view
        if view is None or self._view_epoch != self.epoch:
            view = self.seg.snapshot()
            if view.num_segments:
                view.prepare_search()
            self._view = view
            self._view_epoch = self.epoch
        return view

    # Commands ---------------------------------------------------------
    def exact_wave(
        self, queries: list[Query], options: SearchOptions
    ) -> list[SearchResult]:
        view = self.view()
        if view.num_segments == 0:
            return [_empty_result() for _ in queries]
        return execute(view, queries, options).results

    def graph_wave(
        self, queries: list[Query], options: SearchOptions
    ) -> BatchResult:
        view = self.view()
        if view.num_segments == 0:
            return BatchResult([_empty_result() for _ in queries])
        return execute(view, queries, options, independent=True)

    def search_many(
        self, items: list[tuple[Query, SearchOptions]]
    ) -> list[tuple[str, Any]]:
        """Per-item outcomes: ``("ok", result)`` or ``("err", exc)``.

        The containment unit — one malformed request errors alone while
        its batch-mates still answer from this shard, each exactly as
        it would against a single-process snapshot of this slice.
        """
        out: list[tuple[str, Any]] = []
        for query, options in items:
            try:
                view = self.view()
                if view.num_segments == 0:
                    out.append(("ok", _empty_result()))
                else:
                    batch = execute(view, [query], options, independent=True)
                    out.append(("ok", batch.results[0]))
            except Exception as exc:
                out.append(("err", exc))
        return out

    def insert(
        self,
        mats: list[np.ndarray],
        ext_ids: np.ndarray,
        attr_arrays: dict[str, np.ndarray] | None,
        sparse_arrays: dict[str, np.ndarray] | None = None,
    ) -> int:
        attributes = (
            AttributeTable.from_arrays(attr_arrays) if attr_arrays else None
        )
        sparse = (
            SparseStore.from_arrays(sparse_arrays) if sparse_arrays else None
        )
        objects = MultiVectorSet(
            list(mats), attributes=attributes, sparse=sparse
        )
        self.seg.insert(objects, ext_ids=np.asarray(ext_ids, dtype=np.int64))
        self.epoch += 1
        return int(self.seg.num_active)

    def sparse_stats(self) -> SparseStats | None:
        """This shard's local sparse statistics (for the global sum)."""
        return self.seg.sparse_local_stats()

    def set_sparse_stats(self, stats: SparseStats) -> None:
        """Adopt the collection-global statistics broadcast by the front."""
        self.seg._restamp_sparse(stats)
        self.epoch += 1

    def delete_check(self, ids: np.ndarray) -> tuple[int, int, int]:
        """Pre-delete census: (ids found here, fresh kills, active now)."""
        ids = np.asarray(ids, dtype=np.int64)
        parts = [s.ext_ids for s in self.seg.sealed]
        if self.seg.delta.n:
            parts.append(self.seg.delta.ext_ids)
        known = (
            np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        )
        active = self.seg.active_ext_ids() if parts else np.zeros(0, np.int64)
        found = int(np.isin(ids, known).sum())
        fresh = int(np.isin(ids, active).sum())
        return found, fresh, int(self.seg.num_active)

    def delete(self, ids: np.ndarray) -> int:
        self.seg.mark_deleted(
            np.asarray(ids, dtype=np.int64), allow_empty=True
        )
        self.epoch += 1
        return int(self.seg.num_active)

    def compact(self) -> np.ndarray:
        survivors = self.seg.compact()
        self.epoch += 1
        return np.asarray(survivors, dtype=np.int64)

    def active_ids(self) -> np.ndarray:
        if self.seg.num_segments == 0:
            return np.zeros(0, dtype=np.int64)
        return self.seg.active_ext_ids()

    def census(self) -> dict[str, int]:
        return {
            "n": int(self.seg.num_total),
            "active": int(self.seg.num_active),
            "segments": int(self.seg.num_segments),
            "epoch": int(self.epoch),
        }


class _ShardWorker:
    """The per-process state machine: one shard slice of every collection."""

    def __init__(
        self,
        specs: dict[str, dict[str, Any] | None],
        meta: dict[str, Any],
    ):
        self.meta = meta
        shard = meta["shard"]
        n_shards = meta["n_shards"]
        self.collections = {
            name: _ShardCollection(
                specs.get(name),
                {**col_meta, "shard": shard, "n_shards": n_shards},
            )
            for name, col_meta in meta["collections"].items()
        }

    def col(self, name: str) -> _ShardCollection:
        collection = self.collections.get(name)
        if collection is None:
            raise ValueError(
                f"shard {self.meta['shard']} has no collection {name!r} "
                f"(knows {sorted(self.collections)})"
            )
        return collection

    def stats(self, busy_seconds: float) -> dict[str, Any]:
        per = {
            name: col.census()
            for name, col in sorted(self.collections.items())
        }
        return {
            "shard": self.meta["shard"],
            "busy_seconds": float(busy_seconds),
            "n": sum(c["n"] for c in per.values()),
            "active": sum(c["active"] for c in per.values()),
            "segments": sum(c["segments"] for c in per.values()),
            "epoch": sum(c["epoch"] for c in per.values()),
            "collections": per,
        }

    def close(self) -> None:
        for collection in self.collections.values():
            if collection.pack is not None:
                collection.pack.close()


def _worker_main(
    conn: Any,
    specs: dict[str, dict[str, Any] | None],
    meta: dict[str, Any],
) -> None:
    """Worker process entry: build the shard, then serve the pipe.

    Replies are ``("ok", payload)`` or ``("err", exception)``; command
    handling time accumulates into ``busy_seconds`` (reported by the
    ``stats`` command), which is the shard's critical-path compute
    clock — the scaling denominator the bench gates on.  It is measured
    with :func:`time.process_time` (CPU seconds of this worker), not
    wall clock: on a host with fewer cores than shards the workers
    timeshare, and wall time inside a descheduled worker would charge
    one shard for another's compute.

    Hot-path commands carry their collection name right after the
    command word (``("exact_wave", name, ...)``); ``stats`` and ``stop``
    are worker-wide.
    """
    try:
        worker = _ShardWorker(specs, meta)
    except BaseException as exc:  # noqa: BLE001 - must report boot failure
        try:
            conn.send(("err", RuntimeError(f"shard boot failed: {exc!r}")))
        finally:
            conn.close()
        return
    busy = 0.0
    conn.send(("ok", worker.stats(busy)))
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            cmd = msg[0]
            if cmd == "stop":
                conn.send(("ok", None))
                break
            started = time.process_time()
            try:
                if cmd == "exact_wave":
                    payload: Any = worker.col(msg[1]).exact_wave(*msg[2:])
                elif cmd == "graph_wave":
                    payload = worker.col(msg[1]).graph_wave(*msg[2:])
                elif cmd == "search_many":
                    payload = worker.col(msg[1]).search_many(msg[2])
                elif cmd == "insert":
                    payload = worker.col(msg[1]).insert(*msg[2:])
                elif cmd == "delete_check":
                    payload = worker.col(msg[1]).delete_check(msg[2])
                elif cmd == "delete":
                    payload = worker.col(msg[1]).delete(msg[2])
                elif cmd == "compact":
                    payload = worker.col(msg[1]).compact()
                elif cmd == "active_ids":
                    payload = worker.col(msg[1]).active_ids()
                elif cmd == "sparse_stats":
                    payload = worker.col(msg[1]).sparse_stats()
                elif cmd == "set_sparse_stats":
                    payload = worker.col(msg[1]).set_sparse_stats(msg[2])
                elif cmd == "stats":
                    payload = worker.stats(busy)
                else:
                    raise ValueError(f"unknown shard command {cmd!r}")
                reply = ("ok", payload)
            except Exception as exc:
                reply = ("err", exc)
            busy += time.process_time() - started
            conn.send(reply)
    finally:
        conn.close()
        worker.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _ShardHandle:
    def __init__(self, shard: int, process: Any, conn: Any) -> None:
        self.shard = shard
        self.process = process
        self.conn = conn
        self.alive = True
        self.active = 0


def _corpus_slices(
    must: "MUST",
) -> tuple[
    np.ndarray,
    list[np.ndarray],
    AttributeTable | None,
    SparseStore | None,
    int,
]:
    """The live corpus as flat arrays: (ext_ids, mats, attrs, sparse, next_ext).

    Rows come out sorted by external id, exact-tier (full-precision)
    vectors only — each shard re-applies its own compression at build,
    so sharding never compounds quantisation error.  The sparse lexical
    plane (when present) comes out stamped with corpus-global statistics
    so every shard slice keeps scoring against the whole-collection
    frequencies.
    """
    if must.is_segmented:
        segs = must.segments.searchable_segments()
        require(segs, "cannot shard an empty index")
        num_modalities = segs[0].space.num_modalities
        ext_parts: list[np.ndarray] = []
        mat_parts: list[list[np.ndarray]] = [
            [] for _ in range(num_modalities)
        ]
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
            attrs = seg.space.vectors.attributes
            if attrs is not None:
                attr_parts.append(attrs.subset(alive))
            seg_sparse = seg.space.vectors.sparse
            if seg_sparse is not None:
                sparse_parts.append(seg_sparse.subset(alive))
            for i in range(num_modalities):
                mat_parts[i].append(seg.space.vectors.exact_modality(i)[alive])
        require(ext_parts, "cannot shard an index with no live objects")
        ext = np.concatenate(ext_parts)
        order = np.argsort(ext)
        attributes = None
        if attr_parts:
            require(
                len(attr_parts) == contributing,
                "cannot shard: inconsistent attribute state across segments",
            )
            attributes = AttributeTable.concat(attr_parts).subset(order)
        sparse = None
        if sparse_parts:
            require(
                len(sparse_parts) == contributing,
                "cannot shard: inconsistent sparse state across segments",
            )
            sparse = SparseStore.concat(sparse_parts).subset(order)
            # Make the global stamp explicit: subset slices taken per
            # shard must never fall back to shard-local statistics.
            sparse = sparse.with_stats(sparse.stats)
        mats = [np.concatenate(parts)[order] for parts in mat_parts]
        return ext[order], mats, attributes, sparse, int(must.segments._next_ext)
    index = must.index
    alive = index.active_ids()
    require(alive.size, "cannot shard an index with no live objects")
    vectors = index.space.vectors
    mats = [
        vectors.exact_modality(i)[alive]
        for i in range(vectors.num_modalities)
    ]
    attributes = vectors.attributes
    if attributes is not None:
        attributes = attributes.subset(alive)
    sparse = vectors.sparse
    if sparse is not None:
        # Stamp before slicing: the shard slices keep scoring against
        # the whole corpus' statistics, exactly like the flat index.
        sparse = sparse.with_stats(sparse.stats).subset(alive)
    return alive.astype(np.int64), mats, attributes, sparse, int(index.n)


def _corpus_slices_mmap(
    must: "MUST",
) -> tuple[
    np.ndarray,
    np.ndarray,
    np.ndarray,
    list[list[str]],
    list[np.ndarray] | None,
    AttributeTable | None,
    SparseStore | None,
    int,
]:
    """Cold-tier *provenance* for an mmap-backed corpus.

    Instead of gathering the full-precision rows (O(corpus) bytes
    through shared memory), returns, sorted by external id::

        (ext_ids, src_of, row_of, sources, tail_mats, attrs, sparse,
        next_ext)

    where ``sources[s]`` is the path list of the ``s``-th memory-mapped
    cold plane and ``(src_of[j], row_of[j])`` addresses row ``j``'s
    exact vectors inside it.  Rows whose segment is still resident in
    the parent (the delta, or a dense segment) are gathered into
    ``tail_mats`` and addressed as source ``len(sources)`` — the only
    vector bytes that ever cross the process boundary.  The sparse
    plane (postings, not vectors — already O(nnz)) always rides shared
    memory, stamped with corpus-global statistics.
    """
    if must.is_segmented:
        segs = must.segments.searchable_segments()
        require(segs, "cannot shard an empty index")
        entries = [
            (seg.space.vectors, seg.ext_ids, seg.index.deleted) for seg in segs
        ]
        next_ext = int(must.segments._next_ext)
    else:
        index = must.index
        entries = [
            (
                index.space.vectors,
                np.arange(index.n, dtype=np.int64),
                index.deleted,
            )
        ]
        next_ext = int(index.n)
    num_modalities = entries[0][0].num_modalities
    sources: list[list[str]] = []
    ext_parts: list[np.ndarray] = []
    src_parts: list[np.ndarray] = []
    row_parts: list[np.ndarray] = []
    tail_parts: list[list[np.ndarray]] = [[] for _ in range(num_modalities)]
    tail_n = 0
    attr_parts: list[AttributeTable] = []
    sparse_parts: list[SparseStore] = []
    contributing = 0
    for vectors, ext_ids, deleted in entries:
        alive = (
            np.arange(ext_ids.size)
            if deleted is None
            else np.flatnonzero(~deleted)
        )
        if alive.size == 0:
            continue
        contributing += 1
        ext_parts.append(np.asarray(ext_ids, dtype=np.int64)[alive])
        attrs = vectors.attributes
        if attrs is not None:
            attr_parts.append(attrs.subset(alive))
        entry_sparse = vectors.sparse
        if entry_sparse is not None:
            sparse_parts.append(entry_sparse.subset(alive))
        plane = vectors.store.cold_plane
        if isinstance(plane, MmapPlane):
            src_parts.append(np.full(alive.size, len(sources), dtype=np.int64))
            row_parts.append(alive.astype(np.int64))
            sources.append([str(p) for p in plane.paths])
        else:
            # Tail sentinel; renumbered to len(sources) once the source
            # count is final.
            src_parts.append(np.full(alive.size, -1, dtype=np.int64))
            row_parts.append(np.arange(tail_n, tail_n + alive.size, dtype=np.int64))
            tail_n += alive.size
            for i in range(num_modalities):
                tail_parts[i].append(vectors.exact_modality(i)[alive])
    require(ext_parts, "cannot shard an index with no live objects")
    ext = np.concatenate(ext_parts)
    order = np.argsort(ext)
    src_of = np.concatenate(src_parts)[order]
    src_of[src_of < 0] = len(sources)
    row_of = np.concatenate(row_parts)[order]
    tail_mats = (
        [np.ascontiguousarray(np.concatenate(p)) for p in tail_parts]
        if tail_n
        else None
    )
    attributes = None
    if attr_parts:
        require(
            len(attr_parts) == contributing,
            "cannot shard: inconsistent attribute state across segments",
        )
        attributes = AttributeTable.concat(attr_parts).subset(order)
    sparse = None
    if sparse_parts:
        require(
            len(sparse_parts) == contributing,
            "cannot shard: inconsistent sparse state across segments",
        )
        sparse = SparseStore.concat(sparse_parts).subset(order)
        sparse = sparse.with_stats(sparse.stats)
    return (
        ext[order], src_of, row_of, sources, tail_mats, attributes, sparse,
        next_ext,
    )


class ShardedService(MustService):
    """N-process sharded serving over built :class:`MUST` instances.

    Reuses the :class:`MustService` control plane — queue, admission,
    per-tenant quotas, coalescing dispatcher, plan grouping, stats —
    and replaces the group executors with scatter/gather over worker
    processes.  See the module docstring for the data plane and parity
    argument.  Construct with one built instance (the ``"default"``
    collection) or a :class:`~repro.service.CollectionManager`; each
    worker then holds one shard slice per collection.

    The wrapped instances are *spawn templates*: their live corpora are
    partitioned at construction and all subsequent writes must go
    through the service (they route to the owning shard); the templates
    themselves are not kept in sync.

    ``worker_timeout_s`` bounds how long a gather waits on one shard
    before declaring it dead.  ``mp_start`` picks the multiprocessing
    start method (default: ``fork`` where available, else ``spawn``;
    override with env ``REPRO_MP_START``).
    """

    def __init__(
        self,
        must: "MUST | CollectionManager",
        n_shards: int = 2,
        config: ServiceConfig | None = None,
        start: bool = True,
        worker_timeout_s: float = 120.0,
        spawn_timeout_s: float = 600.0,
        mp_start: str | None = None,
    ) -> None:
        require(n_shards >= 1, "n_shards must be positive")
        manager = CollectionManager.of(must)
        require(
            len(manager) >= 1,
            "ShardedService needs at least one collection — "
            "CollectionManager.create() one first",
        )
        for collection in manager:
            require(
                collection.must.is_built,
                f"ShardedService needs built indexes — collection "
                f"{collection.name!r} is unbuilt; call MUST.build() first",
            )
        require(worker_timeout_s > 0.0, "worker_timeout_s must be positive")
        self.n_shards = int(n_shards)
        self.worker_timeout_s = float(worker_timeout_s)
        method = mp_start or os.environ.get("REPRO_MP_START")
        if method is None:
            method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(method)
        #: one lock for all pipe traffic: the dispatcher thread and
        #: writer threads never interleave commands on a worker pipe.
        #: Workers still overlap *within* a gather (all requests are
        #: sent before any reply is awaited) — that is where the
        #: multi-core speedup comes from.
        self._pipes_lock = threading.RLock()
        self._handles: list[_ShardHandle] = []
        self._workers_stopped = False
        # Spawn before the dispatcher thread exists: forking a process
        # while other threads hold locks is the classic fork-safety trap.
        self._spawn_workers(manager, float(spawn_timeout_s))
        super().__init__(manager, config, start=start)

    # ------------------------------------------------------------------
    # Spawn
    # ------------------------------------------------------------------
    def _collection_meta_arrays(
        self, must: "MUST", name: str
    ) -> tuple[dict[str, Any], list[dict[str, Any] | None]]:
        """One collection's worker meta + its per-shard shm array dicts.

        Returns ``(meta, shard_arrays)`` where ``shard_arrays[s]`` is
        the array dict shard ``s``'s pack carries for this collection
        (``None`` when the shard owns no rows of it).
        """
        cold_storage = (
            must.segments.cold_storage
            if must.is_segmented
            else getattr(must, "cold_storage", "resident")
        )
        mmap_mode = cold_storage == "mmap"
        if mmap_mode:
            (
                ext, src_of, row_of, cold_sources, tail_mats, attributes,
                sparse_all, next_ext,
            ) = _corpus_slices_mmap(must)
            mats = None
        else:
            ext, mats, attributes, sparse_all, next_ext = _corpus_slices(must)
            src_of = row_of = None
            cold_sources, tail_mats = [], None
        self._next_ext[name] = next_ext
        self._has_sparse[name] = sparse_all is not None
        if must.is_segmented:
            src = must.segments
            meta = dict(
                builder=src.builder,
                policy=src.policy,
                compression=src.compression,
                store_options=src.store_options,
            )
        else:
            meta = dict(
                builder=must.builder,
                policy=must.segment_policy,
                compression=must.compression,
                store_options=must.store_options,
            )
        meta.update(
            squared_weights=[float(x) for x in must.weights.squared],
            num_modalities=len(must.weights.squared),
        )
        if mmap_mode:
            meta.update(cold_storage="mmap", cold_sources=cold_sources)
        owners = ext % self.n_shards
        shard_arrays: list[dict[str, Any] | None] = []
        for shard in range(self.n_shards):
            rows = np.flatnonzero(owners == shard)
            if rows.size == 0:
                shard_arrays.append(None)
                continue
            if mmap_mode:
                # O(hot): ids, attributes and the (source, row)
                # cold map — never a full vector plane.  Tail
                # rows (resident in the parent) ride along
                # renumbered to the shard-local tail source.
                assert src_of is not None and row_of is not None
                arrays: dict[str, Any] = {"ext_ids": ext[rows]}
                shard_src = src_of[rows].copy()
                shard_row = row_of[rows].copy()
                tmask = shard_src == len(cold_sources)
                if tmask.any():
                    sel = shard_row[tmask]
                    assert tail_mats is not None
                    for i, tmat in enumerate(tail_mats):
                        arrays[f"tail_mod_{i}"] = tmat[sel]
                    shard_row[tmask] = np.arange(
                        int(tmask.sum()), dtype=np.int64
                    )
                arrays["cold_src"] = shard_src
                arrays["cold_row"] = shard_row
            else:
                assert mats is not None
                arrays = {
                    f"mod_{i}": mat[rows] for i, mat in enumerate(mats)
                }
                arrays["ext_ids"] = ext[rows]
            if attributes is not None:
                arrays.update(attributes.subset(rows).to_arrays())
            if sparse_all is not None:
                # subset keeps the collection-global stamp; to_arrays
                # persists it, so the shard scores corpus-wide stats.
                arrays.update(sparse_all.subset(rows).to_arrays())
            shard_arrays.append(arrays)
        return meta, shard_arrays

    def _spawn_workers(
        self, manager: CollectionManager, spawn_timeout_s: float
    ) -> None:
        self._next_ext: dict[str, int] = {}
        self._has_sparse: dict[str, bool] = {}
        meta_cols: dict[str, dict[str, Any]] = {}
        arrays_by_col: dict[str, list[dict[str, Any] | None]] = {}
        for collection in manager:
            meta, shard_arrays = self._collection_meta_arrays(
                collection.must, collection.name
            )
            meta_cols[collection.name] = meta
            arrays_by_col[collection.name] = shard_arrays
        packs: list[SharedArrays | None] = []
        try:
            for shard in range(self.n_shards):
                specs: dict[str, dict[str, Any] | None] = {}
                for name, shard_arrays in arrays_by_col.items():
                    arrays = shard_arrays[shard]
                    if arrays is None:
                        specs[name] = None
                        continue
                    pack = SharedArrays.create(arrays)
                    packs.append(pack)
                    specs[name] = pack.spec
                meta = {
                    "shard": shard,
                    "n_shards": self.n_shards,
                    "collections": meta_cols,
                }
                parent_conn, child_conn = self._ctx.Pipe()
                process = self._ctx.Process(
                    target=_worker_main,
                    args=(child_conn, specs, meta),
                    name=f"must-shard-{shard}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._handles.append(_ShardHandle(shard, process, parent_conn))
            for handle in self._handles:
                if not handle.conn.poll(spawn_timeout_s):
                    raise ShardFailed(
                        f"shard {handle.shard} did not come up within "
                        f"{spawn_timeout_s:.0f}s"
                    )
                status, payload = handle.conn.recv()
                if status != "ok":
                    raise payload
                handle.active = int(payload["active"])
        except BaseException:
            self._stop_workers(force=True)
            raise
        finally:
            # Every worker has attached (or spawn failed): drop the
            # parent mappings and unlink — the blocks now live exactly
            # as long as the worker processes mapping them.  Unlink even
            # if close() raises, and finish the loop even if one pack
            # fails: a worker that died before its ready-ack must not
            # leave /dev/shm segments behind.
            self.spawn_shm_bytes = sum(
                pack.nbytes for pack in packs if pack is not None
            )
            for pack in packs:
                if pack is None:
                    continue
                try:
                    pack.close()
                except Exception:
                    pass
                try:
                    pack.unlink()
                except Exception:
                    pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def live_shards(self) -> list[int]:
        return [h.shard for h in self._handles if h.alive]

    @property
    def degraded(self) -> bool:
        """True once any worker has been declared dead."""
        return any(not h.alive for h in self._handles)

    def _snapshot_of(self, collection: Collection) -> IndexSnapshot | None:
        """Sharded reads have no parent-side snapshot.

        Isolation lives in the workers: each holds a frozen
        per-epoch :class:`~repro.index.segments.SegmentView` of its
        slice of the collection, refreshed when a routed write bumps
        its epoch.  The dispatcher's per-wave capture is therefore a
        no-op token here.
        """
        return None

    def shard_stats(self) -> list[dict[str, Any]]:
        """One stats dict per live shard (worker-side census).

        Includes ``busy_seconds`` — the shard's cumulative command
        handling time, i.e. its critical-path compute clock — plus a
        ``collections`` breakdown mapping each collection name to its
        per-shard ``{n, active, segments, epoch}`` census.  The
        top-level ``n``/``active``/``segments``/``epoch`` keys stay
        whole-worker aggregates.
        """
        replies = self._gather(
            {s: (("stats",), 0) for s in self.live_shards}
        )
        out: list[dict[str, Any]] = []
        for shard in sorted(replies):
            reply = replies[shard]
            if isinstance(reply, tuple) and reply[0] == "ok":
                out.append(reply[1])
        return out

    def active_ids(self, collection: str | None = None) -> np.ndarray:
        name = self.collections.get(collection).name
        replies = self._gather(
            {s: (("active_ids", name), 0) for s in self.live_shards}
        )
        parts = []
        for shard, reply in sorted(replies.items()):
            if isinstance(reply, Exception):
                raise reply
            status, payload = reply
            if status != "ok":
                raise payload
            parts.append(np.asarray(payload, dtype=np.int64))
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.sort(np.concatenate(parts))

    # ------------------------------------------------------------------
    # Scatter / gather
    # ------------------------------------------------------------------
    def _mark_dead(self, handle: _ShardHandle) -> None:
        if not handle.alive:
            return
        handle.alive = False
        self.stats.record_shard_lost(handle.shard)
        try:
            handle.process.terminate()
        except Exception:
            pass
        try:
            handle.conn.close()
        except Exception:
            pass

    def _gather(
        self, messages: dict[int, tuple[tuple[Any, ...], int]]
    ) -> dict[int, Any]:
        """Send one command per shard, then collect every reply.

        ``messages`` maps shard → ``(command_tuple, size)`` where size
        is the number of queries carried (for the per-shard histogram).
        Returns shard → ``("ok", payload)`` / ``("err", exc)`` from the
        worker, or a :class:`ShardFailed` when the worker is (or is
        declared) dead.  All sends complete before any reply is awaited,
        so live workers compute concurrently.
        """
        out: dict[int, object] = {}
        with self._pipes_lock:
            sent: list[tuple[_ShardHandle, float, int]] = []
            for shard, (command, size) in sorted(messages.items()):
                handle = self._handles[shard]
                if not handle.alive:
                    out[shard] = ShardFailed(f"shard {shard} is down")
                    continue
                try:
                    handle.conn.send(command)
                except Exception:
                    self._mark_dead(handle)
                    out[shard] = ShardFailed(
                        f"shard {shard} died (send failed)"
                    )
                    continue
                sent.append((handle, time.perf_counter(), size))
            for handle, started, size in sent:
                try:
                    if not handle.conn.poll(self.worker_timeout_s):
                        raise TimeoutError(
                            f"no reply within {self.worker_timeout_s:.0f}s"
                        )
                    reply = handle.conn.recv()
                except Exception as exc:
                    self._mark_dead(handle)
                    out[handle.shard] = ShardFailed(
                        f"shard {handle.shard} died mid-wave ({exc!r})"
                    )
                    continue
                self.stats.record_shard_wave(
                    handle.shard, time.perf_counter() - started, size
                )
                out[handle.shard] = reply
        return out

    # ------------------------------------------------------------------
    # Group executors (called by the inherited dispatcher)
    # ------------------------------------------------------------------
    def _run_exact(
        self, snap: IndexSnapshot | None, reqs: list[_Request]
    ) -> None:
        queries = [r.query for r in reqs]
        command = (
            "exact_wave", reqs[0].collection.name, queries, reqs[0].options
        )
        replies = self._gather(
            {s: (command, len(queries)) for s in self.live_shards}
        )
        self._finish_group("exact", reqs, replies)

    def _run_graph_wave(
        self, snap: IndexSnapshot | None, reqs: list[_Request]
    ) -> None:
        queries = [r.query for r in reqs]
        command = (
            "graph_wave", reqs[0].collection.name, queries, reqs[0].options
        )
        replies = self._gather(
            {s: (command, len(queries)) for s in self.live_shards}
        )
        self._finish_group("graph", reqs, replies)

    def _run_requests(
        self, snap: IndexSnapshot | None, reqs: list[_Request]
    ) -> None:
        """Per-query graph requests: one ``search_many`` per shard.

        Each request gets its own per-item outcome, so a malformed
        request fails through its own future while batch-mates still
        merge — the same containment the in-process dispatcher
        guarantees.
        """
        command = (
            "search_many",
            reqs[0].collection.name,
            [(req.query, req.options) for req in reqs],
        )
        replies = self._gather(
            {s: (command, len(reqs)) for s in self.live_shards}
        )
        dead = [r for r in replies.values() if isinstance(r, Exception)]
        for j, req in enumerate(reqs):
            if dead:
                self._resolve(req, dead[0])
                continue
            parts: list[tuple[np.ndarray, np.ndarray]] = []
            stats: list[SearchStats] = []
            error: Exception | None = None
            for shard in sorted(replies):
                status, payload = replies[shard]
                if status != "ok":
                    error = payload
                    break
                item_status, item_payload = payload[j]
                if item_status != "ok":
                    error = item_payload
                    break
                parts.append((item_payload.ids, item_payload.similarities))
                stats.append(item_payload.stats)
            if error is not None:
                self._resolve(req, error)
                continue
            ids, sims = _merge_candidates(
                parts, req.query.resolve_k(req.options.k)
            )
            self._resolve(
                req,
                SearchResult(
                    ids=ids,
                    similarities=sims,
                    stats=SearchStats.aggregate(stats),
                ),
            )

    def _finish_group(
        self, kind: str, reqs: list[_Request], replies: dict[int, Any]
    ) -> None:
        """Merge per-shard pools into per-request answers.

        * a dead shard fails every request of this group individually
          (:class:`ShardFailed` through each future — later groups and
          waves continue on the survivors);
        * a worker-side *error* (one request's malformed filter, say)
          triggers the per-request containment retry, so only the
          offending future errors;
        * otherwise each request's per-shard pools merge by
          ``(-similarity, external id)`` — the exact path's bit-parity
          merge.  A graph group's per-shard results already carry their
          shard's traversal trace, so the summed stats match the
          in-process wave path.
        """
        dead = [r for r in replies.values() if isinstance(r, Exception)]
        errors = [
            r[1]
            for r in replies.values()
            if isinstance(r, tuple) and r[0] == "err"
        ]
        if dead:
            for req in reqs:
                self._resolve(req, dead[0])
            return
        if errors:
            self._retry_alone(kind, None, reqs, errors[0])
            return
        per_shard_results: list[list[SearchResult]] = []
        wave_stats: list[SearchStats] = []
        for shard in sorted(replies):
            payload = replies[shard][1]
            if isinstance(payload, BatchResult):
                wave_stats.append(payload.stats)
                payload = payload.results
            per_shard_results.append(payload)
        if wave_stats:
            total = SearchStats.aggregate(wave_stats)
            self.stats.record_graph_wave(total.waves, total.frontier_sizes)
        for j, req in enumerate(reqs):
            parts = [
                (results[j].ids, results[j].similarities)
                for results in per_shard_results
            ]
            ids, sims = _merge_candidates(
                parts, req.query.resolve_k(req.options.k)
            )
            stats = SearchStats.aggregate(
                [results[j].stats for results in per_shard_results]
            )
            self._resolve(
                req, SearchResult(ids=ids, similarities=sims, stats=stats)
            )

    # ------------------------------------------------------------------
    # Write path — routed by external id to the owning shard
    # ------------------------------------------------------------------
    def insert(
        self, objects: Any, collection: str | None = None
    ) -> np.ndarray:
        """Insert under parent-allocated global ids, routed per shard."""
        col = self.collections.get(collection)
        if isinstance(objects, MultiVector):
            require(
                all(v is not None for v in objects.vectors),
                "inserted objects must carry every modality",
            )
            objects = MultiVectorSet([v[None, :] for v in objects.vectors])
        require(objects.n >= 1, "nothing to insert")
        with self._write_lock:
            next_ext = self._next_ext[col.name]
            ext = np.arange(next_ext, next_ext + objects.n, dtype=np.int64)
            owners = ext % self.n_shards
            mats = [np.asarray(m) for m in objects.matrices]
            messages: dict[int, tuple[tuple[Any, ...], int]] = {}
            for shard in range(self.n_shards):
                rows = np.flatnonzero(owners == shard)
                if rows.size == 0:
                    continue
                attr_arrays = None
                if objects.attributes is not None:
                    attr_arrays = objects.attributes.subset(rows).to_arrays()
                sparse_arrays = None
                if objects.sparse is not None:
                    sparse_arrays = objects.sparse.subset(rows).to_arrays()
                command = (
                    "insert",
                    col.name,
                    [np.ascontiguousarray(m[rows]) for m in mats],
                    ext[rows],
                    attr_arrays,
                    sparse_arrays,
                )
                messages[shard] = (command, int(rows.size))
            replies = self._gather(messages)
            self._raise_write_failures("insert", replies)
            self._next_ext[col.name] += objects.n
            if objects.sparse is not None:
                self._has_sparse[col.name] = True
            if self._has_sparse.get(col.name):
                self._sync_sparse_stats(col.name)
            col.epoch += 1
            return ext

    def mark_deleted(
        self, object_ids: np.ndarray, collection: str | None = None
    ) -> None:
        """Soft-delete globally, enforcing the whole-collection guards.

        Two phases: a census gather validates that every id exists
        somewhere and that at least one object survives across the
        collection (one *shard* may legitimately empty out), then the
        delete scatters to the owning shards with the per-shard guard
        relaxed.
        """
        col = self.collections.get(collection)
        ids = np.unique(np.asarray(object_ids, dtype=np.int64))
        with self._write_lock:
            owners = ids % self.n_shards
            targets = {
                shard: ids[owners == shard]
                for shard in range(self.n_shards)
                if np.any(owners == shard)
            }
            census = self._gather(
                {
                    s: (("delete_check", col.name, ids_s), 0)
                    for s, ids_s in targets.items()
                }
            )
            self._raise_write_failures("mark_deleted", census)
            found = sum(census[s][1][0] for s in census)
            fresh = sum(census[s][1][1] for s in census)
            active = self._total_active(col.name)
            require(found == ids.size, "unknown external ids in mark_deleted")
            require(active - fresh > 0, "cannot delete every object")
            replies = self._gather(
                {
                    s: (("delete", col.name, ids_s), 0)
                    for s, ids_s in targets.items()
                }
            )
            self._raise_write_failures("mark_deleted", replies)
            col.epoch += 1

    def compact(
        self, collection: str | None = None
    ) -> "tuple[MUST, np.ndarray]":
        """Compact one collection's shards in place.

        Signature mirrors :meth:`MustService.compact`; the template
        instance is returned unchanged (shards own the data), and
        ``active`` is the collection's globally sorted surviving id
        array.
        """
        col = self.collections.get(collection)
        with self._write_lock:
            replies = self._gather(
                {s: (("compact", col.name), 0) for s in self.live_shards}
            )
            self._raise_write_failures("compact", replies)
            parts = [
                np.asarray(replies[s][1], dtype=np.int64)
                for s in sorted(replies)
            ]
            if self._has_sparse.get(col.name):
                # Compaction dropped the soft-deleted rows, so the
                # collection-global frequencies changed on every shard.
                self._sync_sparse_stats(col.name)
            col.epoch += 1
            active = (
                np.sort(np.concatenate(parts))
                if parts
                else np.zeros(0, dtype=np.int64)
            )
            return col.must, active

    def _sync_sparse_stats(self, name: str) -> None:
        """Re-establish collection-global sparse statistics on every shard.

        Gather each live shard's local counts, sum them (exact in
        float64 with integer term frequencies), and broadcast the total
        back so every shard's BM25/TF-IDF scores use whole-collection
        document frequencies — the two-phase analogue of the in-process
        :meth:`SegmentedIndex._restamp_sparse`.  Callers hold the write
        lock, so no wave observes a half-stamped collection.
        """
        replies = self._gather(
            {s: (("sparse_stats", name), 0) for s in self.live_shards}
        )
        self._raise_write_failures("sparse_stats", replies)
        parts = [
            replies[s][1] for s in sorted(replies)
            if replies[s][1] is not None
        ]
        if not parts:
            return
        total = sum_stats(parts)
        replies = self._gather(
            {
                s: (("set_sparse_stats", name, total), 0)
                for s in self.live_shards
            }
        )
        self._raise_write_failures("set_sparse_stats", replies)

    def _total_active(self, name: str) -> int:
        replies = self._gather(
            {s: (("stats",), 0) for s in self.live_shards}
        )
        self._raise_write_failures("stats", replies)
        return sum(
            replies[s][1]["collections"][name]["active"] for s in replies
        )

    @staticmethod
    def _raise_write_failures(op: str, replies: dict[int, Any]) -> None:
        for shard in sorted(replies):
            reply = replies[shard]
            if isinstance(reply, Exception):
                raise ShardFailed(f"{op} failed: shard {shard} is down")
            status, payload = reply
            if status != "ok":
                raise payload

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _stop_workers(self, force: bool = False) -> None:
        if self._workers_stopped:
            return
        self._workers_stopped = True
        for handle in self._handles:
            if not handle.alive:
                continue
            if not force:
                try:
                    with self._pipes_lock:
                        handle.conn.send(("stop",))
                        handle.conn.poll(5.0)
                except Exception:
                    pass
            try:
                handle.process.terminate()
            except Exception:
                pass
        for handle in self._handles:
            try:
                handle.process.join(5.0)
            except Exception:
                pass
            try:
                handle.conn.close()
            except Exception:
                pass
            handle.alive = False

    def close(self, timeout: float | None = 30.0) -> None:
        """Drain the dispatcher, then stop every worker process."""
        super().close(timeout)
        self._stop_workers()
