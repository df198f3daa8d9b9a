"""Thread-pool helper behind the multi-streamed retrieval baseline's
``batch_search(n_jobs=)`` (:mod:`repro.baselines.multi_streamed`), its
one caller.

It parallelises with **threads**, not processes: the per-modality
searches bottom out in BLAS calls that release the GIL, the indexes and
corpus matrices are shared read-only, and each task (one whole query)
is stateless, so threads give speed-up without any pickling or memory
duplication.  ``n_jobs`` follows the scikit-learn
convention: ``1`` means sequential, ``-1`` means all cores.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = ["resolve_n_jobs", "thread_map"]

T = TypeVar("T")
R = TypeVar("R")


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalise an ``n_jobs`` knob to a concrete worker count (≥ 1)."""
    if n_jobs is None or n_jobs == 0:
        return 1
    if n_jobs < 0:
        return max(1, os.cpu_count() or 1)
    return int(n_jobs)


def thread_map(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    n_jobs: int | None = 1,
) -> list[R]:
    """``[fn(x) for x in items]`` — sequential or on a thread pool.

    Output order always matches input order, and with ``n_jobs=1`` the
    call degenerates to a plain loop (no pool, no overhead), which keeps
    sequential runs bit-identical to their pre-parallel behaviour.
    """
    items = list(items)
    workers = resolve_n_jobs(n_jobs)
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))
