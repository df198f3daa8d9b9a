"""Named shared-memory array packs for the process-sharded serving tier.

:class:`SharedArrays` places a set of numpy arrays into **one** POSIX
shared-memory block so worker processes can map the same physical pages
instead of receiving pickled copies — the mechanism that lets a shard's
vector planes cross the process boundary exactly once, at spawn.  The
lifecycle is the classic create/attach split:

* the parent calls :meth:`create` (copies each array into the block
  once), hands the JSON-able :attr:`spec` to each worker, and — after
  every worker has acknowledged attaching — calls :meth:`close` +
  :meth:`unlink` so the block disappears with its last mapping;
* each worker calls :meth:`attach` with the spec and reads zero-copy
  ``numpy`` views for as long as it lives.

Attached views are marked read-only: the planes are shared between
processes with no synchronisation, so an accidental in-place write in
one worker would silently corrupt every other's reads.

On CPython ≥ 3.8 the resource tracker registers a segment only in the
*creating* process, so worker attaches never race the parent's unlink.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Iterator

import numpy as np

from repro.utils.validation import require

__all__ = ["SharedArrays", "teardown"]

logger = logging.getLogger(__name__)

#: entry offsets are rounded up to cache-line multiples so every view is
#: at least 64-byte aligned — BLAS kernels prefer it and it costs bytes,
#: not correctness.
_ALIGNMENT = 64


@contextmanager
def teardown(op: str) -> Iterator[None]:
    """One best-effort cleanup step (closing a block, a pipe, a worker):
    an error is logged as ``event=teardown_error`` and never raised, so
    the steps after it still run."""
    try:
        yield
    except Exception as exc:
        logger.warning("event=teardown_error op=%s error=%r", op, exc)


class SharedArrays:
    """A named dict of numpy arrays living in one shared-memory block.

    ``arrays`` maps each key to its view into the block; ``spec`` is the
    pickle-light description (block name + per-entry dtype/shape/offset)
    a worker needs to :meth:`attach`.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        arrays: dict[str, np.ndarray],
        spec: dict,
        owner: bool,
    ):
        self._shm = shm
        self.arrays = arrays
        self.spec = spec
        self._owner = owner
        self._closed = False

    @classmethod
    def create(cls, arrays: dict[str, np.ndarray]) -> "SharedArrays":
        """Copy *arrays* into a fresh shared block (one copy, at spawn)."""
        require(len(arrays) > 0, "SharedArrays.create needs at least one array")
        entries: list[dict] = []
        prepared: dict[str, np.ndarray] = {}
        offset = 0
        for key, value in arrays.items():
            arr = np.ascontiguousarray(value)
            offset = -(-offset // _ALIGNMENT) * _ALIGNMENT
            entries.append(
                {
                    "key": str(key),
                    "dtype": arr.dtype.str,
                    "shape": [int(d) for d in arr.shape],
                    "offset": int(offset),
                }
            )
            prepared[str(key)] = arr
            offset += arr.nbytes
        # A zero-byte block is invalid on every platform; empty arrays
        # still get well-formed (zero-length) views into a 1-byte block.
        shm = shared_memory.SharedMemory(create=True, size=max(int(offset), 1))
        try:
            views: dict[str, np.ndarray] = {}
            for entry in entries:
                arr = prepared[entry["key"]]
                view = np.ndarray(
                    arr.shape,
                    dtype=arr.dtype,
                    buffer=shm.buf,
                    offset=entry["offset"],
                )
                view[...] = arr
                views[entry["key"]] = view
        except BaseException:
            # Population failed after the named block was created: the
            # caller never sees the handle, so unlink here or the
            # segment leaks until process exit.
            views.clear()
            view = None  # noqa: F841 — drop the exported buffer view
            with teardown("shm_close"):
                shm.close()
            shm.unlink()
            raise
        spec = {"name": shm.name, "entries": entries}
        return cls(shm, views, spec, owner=True)

    @classmethod
    def attach(cls, spec: dict) -> "SharedArrays":
        """Map an existing block by its :attr:`spec`; views are read-only."""
        shm = shared_memory.SharedMemory(name=spec["name"], create=False)
        views: dict[str, np.ndarray] = {}
        for entry in spec["entries"]:
            view = np.ndarray(
                tuple(entry["shape"]),
                dtype=np.dtype(entry["dtype"]),
                buffer=shm.buf,
                offset=entry["offset"],
            )
            view.flags.writeable = False
            views[entry["key"]] = view
        return cls(shm, views, spec, owner=False)

    def close(self) -> None:
        """Release this process's mapping (idempotent).

        Dropping the views first is mandatory — ``SharedMemory.close``
        raises ``BufferError`` while exported pointers exist.  A worker
        that handed views to long-lived structures (a built index) calls
        this only at exit, where a still-pinned buffer is harmless: the
        tolerated ``BufferError`` leaves cleanup to process teardown.
        """
        if self._closed:
            return
        self.arrays = {}
        try:
            self._shm.close()
        except BufferError:
            return
        self._closed = True

    def unlink(self) -> None:
        """Remove the named block (owner only; after every attach ack)."""
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    @property
    def nbytes(self) -> int:
        return self._shm.size
