"""Load generation and the statistics the harness reports.

One load-generating thread, always.  The open loop times every request
from the instant it was **due**, so a stall is charged to every request
it delayed; a request unanswered :data:`ANSWER_TIMEOUT_S` after it was
due is a failure.  Completion callbacks run on the service's dispatcher
thread and record a timestamp only.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "ANSWER_TIMEOUT_S",
    "ClosedRound",
    "OpenStep",
    "Saturation",
    "closed_round",
    "open_step",
    "saturate",
    "percentile",
    "iqr_frac",
    "rss_mb",
]

ANSWER_TIMEOUT_S = 5.0


def rss_mb() -> float:
    """``VmRSS`` of this process in MiB, from ``/proc/self/status``."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS not found in /proc/self/status")


def percentile(
    samples: np.ndarray, q: float, weight: int = 1, min_beyond: int = 10
) -> float:
    """The *q*-th percentile, refused when fewer than *min_beyond*
    samples lie beyond it.  *weight* is how many queries each sample
    stands for (a query in a batch call inherits the call's latency)."""
    beyond = samples.size * weight * (1.0 - q / 100.0)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} needs {min_beyond} samples beyond it; "
            f"{samples.size * weight} samples leave {beyond:.1f} — "
            f"lengthen the run"
        )
    return float(np.percentile(samples, q))


def iqr_frac(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ----------------------------------------------------------------------
# Closed loop, one caller
# ----------------------------------------------------------------------
@dataclass
class ClosedRound:
    elapsed_s: float
    latencies_s: np.ndarray  # one per call
    results: list  # what each call returned


def closed_round(
    call: Callable[[Any], Any], items: Sequence[Any], start: int,
    seconds: float,
) -> ClosedRound:
    """Issue ``call(items[i])`` one at a time, cycling from *start*,
    until *seconds* have passed."""
    clock = time.perf_counter
    latencies: list[float] = []
    results: list = []
    n = len(items)
    i = start
    begin = clock()
    deadline = begin + seconds
    now = begin
    while now < deadline:
        results.append(call(items[i % n]))
        done = clock()
        latencies.append(done - now)
        now = done
        i += 1
    return ClosedRound(now - begin, np.asarray(latencies), results)


# ----------------------------------------------------------------------
# Open loop against a service
# ----------------------------------------------------------------------
@dataclass
class OpenStep:
    """One open-loop step: *attempted* requests on a fixed schedule."""

    attempted: int
    latencies_s: np.ndarray  # due → done, answered requests only
    late_s: np.ndarray  # due → actually sent, every attempted request
    refused: int
    raised: int
    unanswered: int  # not done within ANSWER_TIMEOUT_S of due
    backlog_at_end: int  # still unanswered when the last request was due

    @property
    def failed(self) -> int:
        return self.refused + self.raised + self.unanswered


def open_step(
    submit: Callable[[Any], "Future[Any]"],
    items: Sequence[Any],
    start: int,
    due_s: np.ndarray,
    refusal: type[BaseException],
) -> OpenStep:
    """Send ``items`` at the offsets in *due_s* (at least one), whatever
    the service does, then wait for the answers.  The step ends when its
    last request is due."""
    clock = time.perf_counter
    count = int(due_s.shape[0])
    done_at = [0.0] * count
    sent_at = np.zeros(count)
    futures: list["Future[Any] | None"] = [None] * count
    n = len(items)
    begin = clock()
    for j in range(count):
        target = begin + float(due_s[j])
        while (delay := target - clock()) > 0.0:
            time.sleep(delay)
        sent_at[j] = clock()
        try:
            future = submit(items[(start + j) % n])
        except refusal:
            continue
        # Timestamp only: this runs on the dispatcher thread.
        future.add_done_callback(
            lambda _f, j=j: done_at.__setitem__(j, clock())
        )
        futures[j] = future
    step_end = begin + float(due_s[-1])
    pending = [f for f in futures if f is not None]
    wait_futures(
        pending, timeout=max(0.0, step_end + ANSWER_TIMEOUT_S - clock())
    )
    due_abs = begin + due_s
    latencies: list[float] = []
    refused = raised = unanswered = backlog = 0
    for j, future in enumerate(futures):
        if future is None:
            refused += 1
            continue
        finished = done_at[j]
        if finished == 0.0 or finished > step_end:
            backlog += 1
        if finished == 0.0 or finished - due_abs[j] > ANSWER_TIMEOUT_S:
            unanswered += 1
            future.cancel()
            continue
        if future.exception() is not None:
            raised += 1
            continue
        latencies.append(finished - due_abs[j])
    return OpenStep(
        attempted=count,
        latencies_s=np.asarray(latencies),
        late_s=sent_at - due_abs,
        refused=refused,
        raised=raised,
        unanswered=unanswered,
        backlog_at_end=backlog,
    )


@dataclass
class Saturation:
    elapsed_s: float
    attempted: int
    answered: int
    failed: int
    latencies_s: np.ndarray  # submit -> done, answered requests only
    results: list


def saturate(
    submit: Callable[[Any], "Future[Any]"],
    items: Sequence[Any],
    start: int,
    seconds: float,
    window: int = 64,
) -> Saturation:
    """Closed loop from one thread with up to *window* futures in
    flight: refill, then wait for the oldest."""
    clock = time.perf_counter
    inflight: deque[tuple[int, float, "Future[Any]"]] = deque()
    done_at: dict[int, float] = {}
    results: list = []
    latencies: list[float] = []
    failed = 0
    n = len(items)
    i = start
    begin = clock()
    deadline = begin + seconds

    def reap(block: bool) -> None:
        nonlocal failed
        while inflight and (block or inflight[0][2].done()):
            serial, sent, future = inflight.popleft()
            try:
                answer = future.result(timeout=ANSWER_TIMEOUT_S)
            except Exception:  # raised, or unanswered within the limit
                failed += 1
            else:
                results.append((serial % n, answer))
                # result() can return before the callbacks have run
                latencies.append(done_at.pop(serial, clock()) - sent)
            block = False

    while clock() < deadline:
        while len(inflight) < window:
            sent = clock()
            future = submit(items[i % n])
            # Timestamp only: this runs on the dispatcher thread.
            future.add_done_callback(
                lambda _f, serial=i: done_at.__setitem__(serial, clock())
            )
            inflight.append((i, sent, future))
            i += 1
        reap(block=True)
    while inflight:
        reap(block=True)
    return Saturation(
        elapsed_s=clock() - begin,
        attempted=i - start,
        answered=len(results),
        failed=failed,
        latencies_s=np.asarray(latencies),
        results=results,
    )
