"""In-process serving front-end: micro-batch coalescing over snapshots.

:class:`MustService` turns many independent callers into efficient
batched waves — the shift a serving deployment makes over raw index
code.  Three mechanisms, each visible in :class:`ServiceStats`:

* **Micro-batch coalescing** — client threads submit single queries
  into a bounded queue; a dispatcher thread drains up to
  ``max_batch`` requests (waiting at most ``max_wait_ms`` for
  stragglers) and executes them as one wave.  Requests whose
  :class:`SearchOptions` are equal form one group, and each group is
  one :func:`~repro.index.executor.execute` call
  (:meth:`IndexSnapshot.graph_wave`): 32 concurrent exact callers cost
  a few prefilter GEMMs instead of 32 full scans, and 32 graph callers
  share one lockstep traversal.
* **Snapshot-isolated reads** — each wave runs against an immutable
  :class:`~repro.service.snapshot.IndexSnapshot` captured under the
  write lock, so :meth:`insert` / :meth:`mark_deleted` /
  :meth:`compact` proceed concurrently without any lock on the read
  path.  Every response equals what ``MUST.query`` would have
  answered at its wave's capture time — a search overlapping a
  compaction returns the pre- or post-compaction answer, never a
  torn hybrid.
* **Admission control** — the queue is bounded (``max_queue``);
  beyond it, submits either block (``backpressure="block"``, up to
  ``submit_timeout_s``) or fail fast (``"reject"``), both surfacing
  :class:`ServiceOverloaded` rather than unbounded memory growth.
* **Multi-tenancy** — one service hosts many named
  :class:`~repro.service.collections.Collection` workspaces (a bare
  ``MUST`` becomes the ``"default"`` one).  Requests route by
  ``SearchOptions(collection=...)``, writes take a ``collection=``
  argument, and each collection's :class:`CollectionQuota` bounds its
  queued and unanswered requests — a hot tenant breaching its budget
  gets :class:`CollectionOverloaded` while its neighbours keep being
  admitted.  Snapshots, epochs, and a second :class:`ServiceStats` are
  kept per collection, and a tenant-level execution failure (say a
  snapshot capture error) fails only that tenant's share of the wave.

Determinism: a graph search starts from the graph's own entry order
(:meth:`~repro.index.base.GraphIndex.entry_points`) and reads nothing of
its wave-mates — so the answer to a request is what
:meth:`MUST.query` gives for it on the captured state, whichever other
requests happened to share its wave.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, cast

import numpy as np

from repro.core.multivector import MultiVector, MultiVectorSet
from repro.core.query import Query, SearchOptions, as_query
from repro.core.results import SearchResult, SearchStats
from repro.service.collections import Collection, CollectionManager
from repro.service.snapshot import IndexSnapshot
from repro.service.stats import ServiceStats
from repro.utils.validation import require

if TYPE_CHECKING:
    from types import TracebackType

    from repro.core.framework import MUST

__all__ = [
    "ServiceConfig",
    "MustService",
    "ServiceClosed",
    "ServiceOverloaded",
    "CollectionOverloaded",
]


class ServiceClosed(RuntimeError):
    """Raised on submits to (and pending requests of) a closed service."""


class ServiceOverloaded(RuntimeError):
    """Raised when admission control drops a request (queue full)."""


class CollectionOverloaded(ServiceOverloaded):
    """One tenant's quota is exhausted — the service itself has room.

    Subclasses :class:`ServiceOverloaded`, so callers treating any
    admission drop uniformly keep working; callers that care which
    budget fired can catch this one and read the collection name from
    the message.
    """


@dataclass
class ServiceConfig:
    """Coalescing, backpressure, and execution knobs for one service.

    ``max_batch``/``max_wait_ms`` trade latency for batching: the
    dispatcher ships a wave as soon as it holds ``max_batch`` requests
    or the oldest one has waited ``max_wait_ms``.  ``max_queue`` bounds
    accepted-but-undispatched requests; ``backpressure`` picks what a
    full queue does to ``submit`` (``"block"`` waits up to
    ``submit_timeout_s``, ``"reject"`` raises immediately).
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    max_queue: int = 256
    backpressure: str = "block"
    submit_timeout_s: float | None = 30.0
    latency_window: int = 10_000

    def __post_init__(self) -> None:
        require(self.max_batch >= 1, "max_batch must be positive")
        require(self.max_wait_ms >= 0.0, "max_wait_ms must be non-negative")
        require(self.max_queue >= 1, "max_queue must be positive")
        require(
            self.backpressure in ("block", "reject"),
            "backpressure must be 'block' or 'reject'",
        )
        require(
            self.submit_timeout_s is None or self.submit_timeout_s >= 0.0,
            "submit_timeout_s must be non-negative or None",
        )
        require(self.latency_window >= 1, "latency_window must be positive")


@dataclass
class _Request:
    """One queued search: the typed query, its validated plan, the
    collection it routes to, and the client's future."""

    query: Query
    options: SearchOptions
    collection: Collection
    future: "Future[SearchResult]" = field(default_factory=Future)
    submitted: float = field(default_factory=time.perf_counter)


logger = logging.getLogger(__name__)

_STOP = object()  # queue sentinel: drain everything before it, then exit


class MustService:
    """Concurrent serving wrapper over one or many built :class:`MUST`.

    Construct with a single built instance (served as the ``"default"``
    collection) or a :class:`~repro.service.CollectionManager` hosting
    many named workspaces.  Reads (:meth:`search` / :meth:`submit`) go
    through the coalescing dispatcher and route to their collection via
    ``SearchOptions(collection=...)``; writes (:meth:`insert` /
    :meth:`mark_deleted` / :meth:`compact`) take a ``collection=``
    argument, mutate that collection's instance under the service's
    write lock, and advance its snapshot epoch, so the next wave serves
    the new state while in-flight waves finish on the old one.  Do not
    mutate a wrapped instance directly while the service is running —
    route writes through the service so they serialise with snapshot
    capture.

    Parity: a response is bit-identical to ``MUST.query`` with the
    same arguments against the request's snapshot — on the graph and
    the exact path of both layouts, coalesced or not.

    Use as a context manager or call :meth:`close` to stop the
    dispatcher; ``start=False`` defers the dispatcher thread (requests
    queue up until :meth:`start`), which tests use to exercise
    admission control deterministically.
    """

    def __init__(
        self,
        must: "MUST | CollectionManager",
        config: ServiceConfig | None = None,
        start: bool = True,
    ) -> None:
        self.collections = CollectionManager.of(must)
        require(
            len(self.collections) >= 1,
            "MustService needs at least one collection — "
            "CollectionManager.create() one first",
        )
        for collection in self.collections:
            require(
                collection.must.is_built,
                f"MustService needs built indexes — collection "
                f"{collection.name!r} is unbuilt; call MUST.build() first",
            )
        self.config = config or ServiceConfig()
        self.stats = ServiceStats(self.config.latency_window)
        self._queue: "queue.Queue[Any]" = queue.Queue(
            maxsize=self.config.max_queue
        )
        #: serialises the closing-flag check with queue puts, so a racing
        #: submit can never slip a request in after close()'s final drain
        #: (which would leave its future unresolved forever).  The
        #: per-collection pending/inflight quota counters mutate under
        #: the same lock, so an admit decision always sees a consistent
        #: census.
        self._admit_lock = threading.Lock()
        self._write_lock = threading.RLock()
        self._closing = False
        self._thread: threading.Thread | None = None
        if start:
            self.start()

    @property
    def must(self) -> "MUST":
        """The ``"default"`` collection's instance (single-tenant compat).

        Raises :class:`~repro.service.UnknownCollection` on a service
        with no ``"default"`` collection — address instances through
        ``service.collections.get(name).must`` there.
        """
        return self.collections.get(None).must

    @must.setter
    def must(self, value: "MUST") -> None:
        self.collections.get(None).must = value

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MustService":
        """Start the dispatcher thread (idempotent)."""
        require(not self._closing, "service is closed")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._dispatch_loop,
                name="must-service-dispatcher",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self, timeout: float | None = 30.0) -> None:
        """Stop accepting requests, drain the queue, stop the dispatcher.

        Requests already accepted are still answered (the queue is FIFO
        and the stop sentinel goes in last); requests submitted after
        ``close`` raises :class:`ServiceClosed`.  Idempotent.
        """
        with self._admit_lock:
            already_closing = self._closing
            self._closing = True
        if already_closing:
            if self._thread is not None:
                self._thread.join(timeout)
            return
        if self._thread is None:
            # Never started: nothing will drain the queue — fail pending.
            self._fail_queued(ServiceClosed("service closed before start"))
            return
        self._queue.put(_STOP)
        self._thread.join(timeout)

    def _fail_queued(self, exc: Exception) -> None:
        while True:
            try:
                req = self._queue.get_nowait()
            except queue.Empty:
                return
            if req is _STOP:
                continue
            self._note_dispatched([req])
            self._resolve(req, exc)

    def __enter__(self) -> "MustService":
        return self.start()

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: BaseException | None,
        tb: "TracebackType | None",
    ) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def submit(
        self,
        query: MultiVector | Query,
        options: SearchOptions | None = None,
    ) -> "Future[SearchResult]":
        """Enqueue one search; returns a future resolving to its
        :class:`~repro.core.results.SearchResult`.

        Per-query weights/filter/k ride inside the :class:`Query`.
        ``options.collection`` routes the
        request to a named collection (``None`` → ``"default"``); an
        unknown name raises :class:`~repro.service.UnknownCollection`
        here, before the queue.  Raises :class:`ServiceOverloaded` when
        admission control drops the request (its
        :class:`CollectionOverloaded` subclass when the request's own
        tenant budget is the one exhausted) and :class:`ServiceClosed`
        after :meth:`close`.
        """
        opts = options if options is not None else SearchOptions()
        require(
            isinstance(opts, SearchOptions),
            f"options must be a SearchOptions instance, got "
            f"{type(opts).__name__} — build one with SearchOptions(...)",
        )
        # Resolve the collection eagerly: an unknown name fails fast at
        # the call site, and the admission path needs the Collection
        # for its quota census.
        req = _Request(
            query=as_query(query),
            options=opts,
            collection=self.collections.get(opts.collection),
        )
        self._admit(req)  # counts the submit inside its critical section
        return req.future

    def _admit(self, req: _Request) -> None:
        """Place *req* in the queue, or raise — never both.

        Every put happens under :attr:`_admit_lock` with the closing
        flag checked in the same critical section; :meth:`close` flips
        the flag under the same lock before its final drain, so a
        request can never be enqueued after the last consumer is gone.
        The ``"block"`` path waits for queue space in short slices
        outside the lock (overload is the slow path already), re-checking
        the flag each round.

        Per-tenant budgets gate inside the same critical section: a
        request whose collection has exhausted its
        :class:`~repro.service.CollectionQuota` is treated exactly like
        a full queue — rejected (:class:`CollectionOverloaded`) or
        blocked until the tenant's own backlog drains — while requests
        for other collections keep being admitted.
        """
        if self.config.backpressure == "reject":
            with self._admit_lock:
                if self._closing:
                    raise ServiceClosed("service is closed")
                reason = self._try_admit(req)
                if reason is None:
                    return
            self.stats.record_rejected()
            req.collection.stats.record_rejected()
            raise self._overloaded(req.collection, reason)
        timeout = self.config.submit_timeout_s
        deadline = None if timeout is None else time.perf_counter() + timeout
        while True:
            with self._admit_lock:
                if self._closing:
                    raise ServiceClosed("service is closed")
                reason = self._try_admit(req)
                if reason is None:
                    return
            if deadline is not None and time.perf_counter() >= deadline:
                self.stats.record_rejected()
                req.collection.stats.record_rejected()
                raise self._overloaded(req.collection, reason)
            time.sleep(0.002)

    def _try_admit(self, req: _Request) -> str | None:
        """One admission attempt under :attr:`_admit_lock`.

        Returns ``None`` on success (request enqueued, counters and
        stats updated) or the refusal reason: ``""`` for the global
        queue bound, a tenant-budget description otherwise.
        """
        collection = req.collection
        quota = collection.quota
        if (
            quota.max_pending is not None
            and collection.pending >= quota.max_pending
        ):
            return (
                f"queue-depth quota exhausted "
                f"({collection.pending}/{quota.max_pending} pending)"
            )
        if (
            quota.max_inflight is not None
            and collection.inflight >= quota.max_inflight
        ):
            return (
                f"in-flight quota exhausted "
                f"({collection.inflight}/{quota.max_inflight} unanswered)"
            )
        try:
            self._queue.put_nowait(req)
        except queue.Full:
            return ""
        collection.pending += 1
        collection.inflight += 1
        self.stats.record_submitted()
        collection.stats.record_submitted()
        return None

    def _note_dispatched(self, reqs: list[_Request]) -> None:
        """Release the requests' queue-depth quota slots.

        Called exactly once per request, when it leaves the queue — by
        the dispatcher at the head of :meth:`_execute` or by
        :meth:`_fail_queued` on shutdown.  (The in-flight slot is held
        until :meth:`_resolve`.)
        """
        with self._admit_lock:
            for req in reqs:
                req.collection.pending -= 1

    def _overloaded(
        self, collection: Collection, reason: str
    ) -> ServiceOverloaded:
        if reason:
            return CollectionOverloaded(
                f"collection {collection.name!r}: {reason}; "
                f"backpressure={self.config.backpressure!r}"
            )
        return ServiceOverloaded(
            f"request queue full ({self.config.max_queue} pending); "
            f"backpressure={self.config.backpressure!r}"
        )

    def search(
        self,
        query: MultiVector | Query,
        options: SearchOptions | None = None,
    ) -> SearchResult:
        """Blocking single search — :meth:`submit` + ``result()``.

        This is the call each concurrent client thread makes; the
        dispatcher coalesces whatever is waiting into one wave.
        """
        return self.submit(query, options).result()

    def snapshot(self, collection: str | None = None) -> IndexSnapshot:
        """The snapshot serving a collection's next wave (lazy per epoch)."""
        return self._snapshot_of(self.collections.get(collection))

    def _snapshot_of(self, collection: Collection) -> IndexSnapshot:
        with self._write_lock:
            if (
                collection.snap is None
                or collection.snap_epoch != collection.epoch
            ):
                snap = IndexSnapshot.of(collection.must)
                snap.prepare()
                collection.snap = snap
                collection.snap_epoch = collection.epoch
            return collection.snap

    def active_ids(self, collection: str | None = None) -> np.ndarray:
        """Ids of a collection's live objects, read under the write lock.

        The convenience read for writers picking deletion targets:
        inspecting ``service.must`` directly from another thread would
        race the dispatcher's snapshot capture on the delta segment's
        lazily materialised graph, which the lock serialises.
        """
        col = self.collections.get(collection)
        with self._write_lock:
            if col.must.is_segmented:
                ids = col.must.segments.active_ext_ids()
            else:
                ids = col.must.index.active_ids()
            return np.asarray(ids, dtype=np.int64)

    # ------------------------------------------------------------------
    # Write path — serialised with snapshot capture, never with reads
    # ------------------------------------------------------------------
    def insert(
        self,
        objects: MultiVectorSet | MultiVector,
        collection: str | None = None,
    ) -> np.ndarray:
        """Stream objects into a collection; returns their stable ids.

        Ids are per-collection: each workspace owns an independent
        external-id space, so the same id in two collections names two
        unrelated objects.
        """
        col = self.collections.get(collection)
        with self._write_lock:
            out = col.must.insert(objects)
            col.epoch += 1
            return np.asarray(out, dtype=np.int64)

    def mark_deleted(
        self,
        object_ids: np.ndarray,
        collection: str | None = None,
    ) -> None:
        """Soft-delete objects from a collection's live index."""
        col = self.collections.get(collection)
        with self._write_lock:
            col.must.mark_deleted(object_ids)
            col.epoch += 1

    def compact(
        self, collection: str | None = None
    ) -> "tuple[MUST, np.ndarray]":
        """Rebuild a collection's live objects (see :meth:`MUST.compact`).

        On a segmented instance the rebuild is in place; on a
        single-graph instance the collection re-binds to the fresh
        framework ``MUST.compact`` returns (external ids then remap per
        the returned ``active_ids``, exactly as for a direct call).
        In-flight waves keep answering from their pre-compaction
        snapshot either way, and other collections are untouched.
        """
        col = self.collections.get(collection)
        with self._write_lock:
            fresh, active = col.must.compact()
            col.must = fresh
            col.epoch += 1
            return fresh, np.asarray(active, dtype=np.int64)

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        cfg = self.config
        try:
            while True:
                first = self._queue.get()
                if first is _STOP:
                    break
                batch = [first]
                stop = False
                deadline = time.perf_counter() + cfg.max_wait_ms / 1e3
                while len(batch) < cfg.max_batch:
                    remaining = deadline - time.perf_counter()
                    try:
                        item = (
                            self._queue.get_nowait()
                            if remaining <= 0.0
                            else self._queue.get(timeout=remaining)
                        )
                    except queue.Empty:
                        break
                    if item is _STOP:
                        stop = True
                        break
                    batch.append(item)
                self._execute(batch)
                if stop:
                    break
        finally:
            # However the loop exits — drained sentinel or an unexpected
            # dispatcher error — stop admitting and fail whatever is
            # still queued, so no client ever blocks on a future that
            # nothing will resolve.
            with self._admit_lock:
                self._closing = True
            self._fail_queued(ServiceClosed("service is closed"))

    def _execute(self, batch: list[_Request]) -> None:
        self._note_dispatched(batch)
        try:
            self.stats.record_batch(len(batch), self._queue.qsize())
            dispatched = time.perf_counter()
            groups: dict[str, list[_Request]] = {}
            for req in batch:
                wait = dispatched - req.submitted
                self.stats.record_wait(wait)
                req.collection.stats.record_wait(wait)
                groups.setdefault(req.collection.name, []).append(req)
        except Exception as exc:
            # Batch-level failure: fail every unresolved request instead
            # of letting the exception kill the dispatcher and strand
            # every caller.
            for req in batch:
                if not req.future.done():
                    self._resolve(req, exc)
            return
        for reqs in groups.values():
            try:
                self._execute_collection(reqs)
            except Exception as exc:
                # Tenant-level failure (snapshot capture, plan grouping,
                # …): fail only this collection's share of the wave —
                # its neighbours' groups still run.
                for req in reqs:
                    if not req.future.done():
                        self._resolve(req, exc)

    def _execute_collection(self, reqs: list[_Request]) -> None:
        """One collection's share of a dispatched batch: one group per
        distinct plan.

        :class:`SearchOptions` is a frozen dataclass, so equal plans key
        one group; per-query weights/filters/k ride inside each
        :class:`Query` and never split one.
        """
        collection = reqs[0].collection
        snap = self._snapshot_of(collection)
        collection.stats.record_batch(len(reqs), collection.pending)
        groups: dict[SearchOptions, list[_Request]] = {}
        for req in reqs:
            groups.setdefault(req.options, []).append(req)
        for group in groups.values():
            self._run_group(snap, group)

    def _run_group(self, snap: IndexSnapshot, reqs: list[_Request]) -> None:
        """One :func:`~repro.index.executor.execute` call answers every
        request of the group, exact or graph.

        No engine reads its batch-mates, so a coalesced answer is
        bit-identical to the request dispatched alone — pooling callers
        only amortises the prefilter GEMM or the lockstep traversal,
        never changes a result.
        """
        try:
            batch = snap.graph_wave([r.query for r in reqs], reqs[0].options)
        except Exception as exc:
            self._retry_alone(snap, reqs, exc)
            return
        self._record_group(reqs, batch.stats)
        for req, res in zip(reqs, batch.results):
            self._resolve(req, res)

    def _record_group(self, reqs: list[_Request], stats: SearchStats) -> None:
        """Count a graph group's waves; an exact group has none."""
        if reqs[0].options.exact:
            return
        for sink in (self.stats, reqs[0].collection.stats):
            sink.record_graph_wave(stats.waves, stats.frontier_sizes)

    def _retry_alone(
        self, snap: IndexSnapshot, reqs: list[_Request], error: Exception
    ) -> None:
        """A coalesced group failed as a whole.  That may be one
        request's doing (a filter naming an unknown attribute, say), so
        each is re-run on its own over the shared snapshot (a graph
        request as a wave of one): only the offender's future errors and
        its wave-mates still get answers — the per-request containment
        contract.  Counted and logged, because a group that keeps
        failing pays for every request twice."""
        self.stats.record_wave_retry()
        reqs[0].collection.stats.record_wave_retry()
        logger.warning(
            "event=wave_retry kind=%s size=%d error=%r",
            "exact" if reqs[0].options.exact else "graph", len(reqs), error,
        )
        for req in reqs:
            try:
                self._resolve(req, snap.query(req.query, req.options))
            except Exception as exc:  # propagate per request, not per wave
                self._resolve(req, exc)

    def _resolve(self, req: _Request, outcome: object) -> None:
        """Deliver *outcome* through the request's future.

        A client may ``cancel()`` a queued future at any time;
        ``set_result``/``set_exception`` on a cancelled future raise
        ``InvalidStateError``, which used to escape through the
        wave-level handler (re-raising on the *same* future) and kill
        the dispatch loop — one impatient caller wedging every other
        client.  ``set_running_or_notify_cancel`` claims the future
        atomically: if the claim fails the request was cancelled and is
        counted as failed without delivery.
        """
        latency = time.perf_counter() - req.submitted
        ok = not isinstance(outcome, Exception)
        try:
            claimed = req.future.set_running_or_notify_cancel()
        except InvalidStateError:
            # Already RUNNING/finished — a double resolve; never
            # overwrite the first delivery.
            return
        # Exactly one call per request reaches this point (the double
        # resolve returned above), so the in-flight quota slot releases
        # exactly once.
        with self._admit_lock:
            req.collection.inflight -= 1
        if not claimed:
            self.stats.record_done(latency, ok=False)
            req.collection.stats.record_done(latency, ok=False)
            return
        self.stats.record_done(latency, ok=ok)
        req.collection.stats.record_done(latency, ok=ok)
        if isinstance(outcome, Exception):
            req.future.set_exception(outcome)
        else:
            req.future.set_result(cast(SearchResult, outcome))
