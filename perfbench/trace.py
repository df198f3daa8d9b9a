"""Span tracing from outside the program.

A span is ``(name, start_ns, end_ns, parent, request, count)``: *parent*
is the index of the span that caused it on the same thread (-1 for a
root), *request* the index of that thread's root span, so the spans of
one request (or one dispatched batch) share an identifier.  A layer's
self time is its span's duration minus the part its child spans cover.

Spans are produced by wrapping public callables of ``repro`` at their
binding sites — the defining module or class, plus every
``from x import f`` copy found by scanning ``sys.modules`` — only while
a :class:`Tracer` is installed.  ``remove()`` puts the original objects
back, so the untraced pass runs the program exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

__all__ = ["Target", "Tracer", "Totals", "TARGETS"]

#: ``count(args, kwargs, result) -> int`` — work done by one call.
CountFn = Callable[[tuple, dict, Any], int]


@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``module`` + dotted ``qualname``."""

    span: str
    module: str
    qualname: str
    count: CountFn | None = None


@dataclass
class Totals:
    """Aggregate of every span of one name (times in nanoseconds)."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    count: int = 0

    def add(self, other: "Totals") -> None:
        self.calls += other.calls
        self.total_ns += other.total_ns
        self.self_ns += other.self_ns
        self.count += other.count


class _ThreadLog:
    """Per-thread span storage: no lock on the hot path."""

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.stack: list[list] = []
        self.spans: list[tuple | None] = []
        self.totals: dict[str, Totals] = {}


def _len_of(position: int) -> CountFn:
    return lambda args, kwargs, result: len(args[position])


def _touched_rows(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result[1].shape[0])  # (scores, touched_rows)


# Self is args[0] on methods, so the query list of a method is args[1].
TARGETS: tuple[Target, ...] = (
    Target("core.framework.query", "repro.core.framework", "MUST.query"),
    Target("core.query.compile_filter", "repro.core.query", "compile_filter"),
    Target("index.search.joint_search", "repro.index.search", "joint_search"),
    Target(
        "index.graph_wave.search", "repro.index.graph_wave",
        "graph_wave_search",
    ),
    Target(
        "index.scoring.batch_score_all", "repro.index.scoring",
        "batch_score_all",
    ),
    Target("index.scoring.rerank_exact", "repro.index.scoring", "rerank_exact"),
    Target(
        "index.executor.run", "repro.index.executor",
        "BatchExecutor.run_graph_wave",
    ),
    Target(
        "index.executor.run", "repro.index.executor",
        "BatchExecutor.run_segmented",
    ),
    Target(
        "index.executor.run", "repro.index.executor",
        "BatchExecutor.run_exact_wave",
    ),
    Target(
        "index.executor.run", "repro.index.executor", "BatchExecutor.run_flat"
    ),
    Target(
        "index.segments.graph_wave", "repro.index.segments",
        "SegmentView.graph_wave",
    ),
    Target(
        "index.segments.exact_wave", "repro.index.segments",
        "SegmentView.exact_wave",
    ),
    Target(
        "index.segments.insert", "repro.index.segments",
        "SegmentedIndex.insert",
        count=lambda args, kwargs, result: len(result),
    ),
    Target(
        "index.segments.seal", "repro.index.segments",
        "SegmentedIndex.seal_delta",
    ),
    Target(
        "index.segments.compact", "repro.index.segments",
        "SegmentedIndex.compact",
    ),
    Target("index.segments.save", "repro.index.segments", "SegmentedIndex.save"),
    Target("index.segments.load", "repro.index.segments", "SegmentedIndex.load"),
    Target(
        "index.pipeline.build", "repro.index.pipeline",
        "FusedIndexBuilder.build",
        count=lambda args, kwargs, result: result.n,
    ),
    Target("store.encode", "repro.store.base", "make_store"),
    Target("store.mmap.gather", "repro.store.mmap", "MmapPlane.rows",
           count=_len_of(2)),
    Target("store.mmap.gather", "repro.store.mmap", "GatherPlane.rows",
           count=_len_of(2)),
    Target("store.mmap.spill", "repro.store.mmap", "spill_cold"),
    Target(
        "sparse.score", "repro.sparse.inverted", "sparse_scores_inverted",
        count=_touched_rows,
    ),
    Target("sparse.topk", "repro.sparse.inverted", "sparse_topk"),
    Target("sparse.fuse", "repro.sparse.hybrid", "hybrid_union_rescore"),
    Target("sparse.fuse", "repro.sparse.hybrid", "hybrid_rerank"),
    Target("sparse.fuse", "repro.sparse.hybrid", "sparse_candidates"),
    Target("utils.topk.select", "repro.utils.topk", "top_k_sorted"),
    Target("utils.topk.select", "repro.utils.topk", "merge_top_k"),
    Target("service.submit", "repro.service.service", "MustService.submit"),
    Target(
        "service.execute", "repro.service.snapshot",
        "IndexSnapshot.graph_wave", count=_len_of(1),
    ),
    Target(
        "service.execute", "repro.service.snapshot",
        "IndexSnapshot.exact_wave", count=_len_of(1),
    ),
    Target(
        "service.execute", "repro.service.snapshot", "IndexSnapshot.query",
        count=lambda args, kwargs, result: 1,
    ),
    Target("service.snapshot.capture", "repro.service.snapshot",
           "IndexSnapshot.of"),
)

#: ``VectorStore.batch_scores`` / ``query_kernel`` are overridden per
#: backend, and the kernel a store hands out does its scoring in
#: ``ModalityKernel.all`` / ``ids``; all of them are wrapped on every
#: class that defines them ("store.kernel").
_STORE_METHODS = ("batch_scores", "query_kernel")
_KERNEL_METHODS = ("all", "ids")


def _subclasses(cls: type) -> set[type]:
    found = set()
    for sub in cls.__subclasses__():
        found.add(sub)
        found |= _subclasses(sub)
    return found


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        #: (owner, attribute, original binding) — undone in reverse.
        self._patches: list[tuple[Any, str, Any]] = []
        #: (label, perf_counter_ns) marks written with the spans.
        self.marks: list[tuple[str, int]] = []

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Wrap every target at every binding site."""
        if self.installed:
            raise RuntimeError("tracer is already installed")
        for target in targets:
            module = importlib.import_module(target.module)
            owner: Any = module
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            self._patch(owner, attr, target.span, target.count)
        from repro.store import ModalityKernel, VectorStore

        for base, methods in (
            (VectorStore, _STORE_METHODS),
            (ModalityKernel, _KERNEL_METHODS),
        ):
            for cls in sorted(_subclasses(base), key=lambda c: c.__qualname__):
                for attr in methods:
                    if attr in vars(cls):
                        self._patch(cls, attr, "store.kernel", None)

    def remove(self) -> None:
        """Restore every original binding."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(
        self, owner: Any, attr: str, span: str, count: CountFn | None
    ) -> None:
        binding = vars(owner)[attr]
        if isinstance(binding, (classmethod, staticmethod)):
            traced: Any = type(binding)(
                self._wrap(span, binding.__func__, count)
            )
        else:
            traced = self._wrap(span, binding, count)
        self._patches.append((owner, attr, binding))
        setattr(owner, attr, traced)
        if isinstance(owner, type):
            return
        # A module-level function: other modules may hold their own
        # reference through ``from x import f``.
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is binding:
                    self._patches.append((module, key, binding))
                    setattr(module, key, traced)

    def _log(self) -> _ThreadLog:
        log = _ThreadLog(threading.get_ident())
        self._local.log = log
        with self._lock:
            self._logs.append(log)
        return log

    def _wrap(self, span: str, fn: Callable, count: CountFn | None) -> Callable:
        local = self._local
        new_log = self._log
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                log = local.log
            except AttributeError:
                log = new_log()
            stack, spans = log.stack, log.spans
            index = len(spans)
            spans.append(None)
            frame = [index, 0, 0]  # span index, child ns, work count
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    frame[2] = count(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                    parent, request = stack[-1][0], stack[0][0]
                else:
                    parent, request = -1, index
                spans[index] = (span, start, end, parent, request, frame[2])
                totals = log.totals.get(span)
                if totals is None:
                    totals = log.totals[span] = Totals()
                totals.calls += 1
                totals.total_ns += duration
                totals.self_ns += duration - frame[1]
                totals.count += frame[2]

        traced.perfbench_span = span  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------
    # Reading (call when no traced call is in flight)
    # ------------------------------------------------------------------
    def mark(self, label: str) -> None:
        self.marks.append((label, time.perf_counter_ns()))

    def take(self) -> dict[str, Totals]:
        """Totals since the previous ``take`` (all threads), then reset."""
        merged: dict[str, Totals] = {}
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            for span, totals in log.totals.items():
                merged.setdefault(span, Totals()).add(totals)
            log.totals = {}
        return merged

    def write(self, path: str | Path) -> int:
        """Write every span as JSON lines; returns the number written."""
        written = 0
        with self._lock:
            logs = list(self._logs)
        with open(path, "w", encoding="utf-8") as out:
            for label, at in self.marks:
                out.write(json.dumps({"mark": label, "at_ns": at}) + "\n")
            for log in logs:
                for index, span in enumerate(log.spans):
                    if span is None:
                        continue
                    name, start, end, parent, request, count = span
                    out.write(
                        json.dumps(
                            {
                                "thread": log.ident,
                                "id": index,
                                "name": name,
                                "start_ns": start,
                                "end_ns": end,
                                "parent": parent,
                                "request": request,
                                "count": count,
                            }
                        )
                        + "\n"
                    )
                    written += 1
        return written
