"""Build and load the native kernels, ``native.c``.

One C library serves two layers.  :mod:`repro.index.graph_wave` splits
a wave into arithmetic and bookkeeping.  The bookkeeping — which route
columns a wave expands, which neighbours are fresh, the order of a
row's frontier and the two stable pool merges — runs in ``wave_expand``
and ``wave_merge`` when this module could build and load the library,
and in NumPy otherwise; both leave the same bits behind, since it only
compares and moves similarities.  Of the arithmetic, the dense rows'
inner products (traversed and scanned) run in ``gather_dot`` under the
eight-lane float32 contract the source's header states, and in NumPy's
``einsum`` otherwise, which agrees with it within the float32
dot-product bound (:func:`~repro.store.dot_error`).  A PQ store's rows
(:mod:`repro.store.pq`: a whole wave's stacked frontier, or one query's
rows) are summed by ``adc_gather`` in the NumPy fallback's own order —
sub-space by sub-space from a float32 zero — so they carry the same
bits on both paths.  int8 rows, dense Lemma-4 steps, thresholds,
rerank and fusion are NumPy on both paths.

This module imports nothing from :mod:`repro`, so the store layer and
the index layer, which imports the store layer, can both call it.

The source is compiled once, at import, with the first C compiler on
``PATH`` (``cc``, ``gcc``, ``clang``), into the user cache directory
(``$XDG_CACHE_HOME/must-repro``, else ``~/.cache/must-repro``) under a
name keyed by a SHA-256 of source, compiler, flags and platform.  The
build is written to a temporary name and moved into place with
:func:`os.replace`, so processes importing side by side never load a
half-written library.  Loading goes through :mod:`ctypes`
(:func:`declare` types every exported function); NumPy stays the only
dependency.

Whichever path runs is logged once, as ``event=native_kernel
status=native|numpy path=… reason=…``, and :data:`lib` is the handle
both layers read on every call (``None`` means NumPy everywhere: the
bookkeeping, ``einsum`` and the PQ table sums).  No option, setting or
environment variable picks between the two.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path
from typing import Any

__all__ = [
    "WaveState", "check", "compiler", "declare", "lib", "load", "path", "reason"
]

logger = logging.getLogger(__name__)

PACKAGE, SOURCE = "repro", "native.c"
#: build flags; tier-1 also compiles the source with -Wall -Wextra -Werror.
#: ``-ffp-contract=off`` is part of the float contract: no FMA.
FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC", "-ffp-contract=off")
COMPILERS = ("cc", "gcc", "clang")

_i64 = ctypes.c_int64
_ptr = ctypes.c_void_p


class WaveState(ctypes.Structure):
    """One traversal's arrays, as ``wave_state`` in ``native.c``."""

    _fields_ = [
        ("b", _i64),
        ("width", _i64),
        ("n", _i64),
        ("m", _i64),
        ("row_cap", _i64),
        ("flat", _ptr),
        ("offsets", _ptr),
        ("width_arr", _ptr),
        ("cap_arr", _ptr),
        ("active", _ptr),
        ("excluded", _ptr),
        ("route_ids", _ptr),
        ("route_sims", _ptr),
        ("route_dead", _ptr),
        ("res_ids", _ptr),
        ("res_sims", _ptr),
        ("seen", _ptr),
        ("hops", _ptr),
        ("thr", _ptr),
        ("owner", _ptr),
        ("cand", _ptr),
        ("rows", _ptr),
    ]


_state = ctypes.POINTER(WaveState)
#: ``(argtypes, restype)`` of every function ``native.c`` exports;
#: ctypes would otherwise read each ``int64_t`` status as a C ``int``.
SIGNATURES: dict[str, tuple[list[Any], Any]] = {
    "wave_expand": ([_state], _i64),
    "wave_merge": ([_state, _ptr, _ptr, _ptr, _i64], _i64),
    "gather_dot": (
        [_ptr, _i64, _i64, _ptr, _i64, _ptr, _ptr, _i64, _ptr, _ptr, _ptr],
        _i64,
    ),
    "adc_gather": (
        [_ptr, _i64, _i64, _ptr, _i64, _i64, _ptr, _ptr, _i64, _ptr],
        _i64,
    ),
}

#: ``native.c``'s status for a failed allocation.
NO_MEMORY = -2


def check(status: int) -> None:
    """Raise for a kernel call's negative status (``native.c``'s
    ``enum``): ``MemoryError`` for ``NO_MEMORY``, else a refusal."""
    if status == NO_MEMORY:
        raise MemoryError("native kernel: out of memory")
    if status < 0:
        raise RuntimeError(f"native kernel refused its input (status {status})")


def declare(kernel: ctypes.CDLL) -> ctypes.CDLL:
    """Declare :data:`SIGNATURES` on a loaded build of the source — this
    module's or any other (a sanitised one, in the tests)."""
    for name, (argtypes, restype) in SIGNATURES.items():
        function = getattr(kernel, name)
        function.argtypes = argtypes
        function.restype = restype
    return kernel


def compiler() -> str | None:
    """The C compiler the kernel is built with, or ``None``."""
    for name in COMPILERS:
        found = shutil.which(name)
        if found is not None:
            return found
    return None


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "must-repro"


def _build(cc: str, source: Path, target: Path) -> None:
    """Compile *source* to a temporary sibling of *target*, then move it
    into place."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=target.parent, prefix=f"{target.stem}.", suffix=".tmp"
    )
    os.close(fd)
    try:
        subprocess.run(
            [cc, *FLAGS, "-o", tmp, str(source)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(cc: str) -> tuple[ctypes.CDLL, Path, str]:
    """Build the library unless the cache holds it; load and declare it."""
    with resources.as_file(resources.files(PACKAGE) / SOURCE) as source:
        key = hashlib.sha256(source.read_bytes())
        compiled_by = (os.path.realpath(cc), *FLAGS)
        for part in (*compiled_by, sys.platform, platform.machine()):
            key.update(b"\0" + part.encode())
        target = _cache_dir() / f"native-{key.hexdigest()[:16]}.so"
        how = "cached"
        if not target.exists():
            _build(cc, source, target)
            how = "built"
    return declare(ctypes.CDLL(str(target))), target, how


def load() -> tuple[ctypes.CDLL | None, str, str]:
    """Build (or find) and load the kernel; log which path runs.

    Returns ``(lib, path, reason)``: the loaded library or ``None``, the
    library file (``""`` when there is none) and why — ``built`` /
    ``cached`` on the native path, the failure on the NumPy one.
    """
    cc = compiler()
    kernel: ctypes.CDLL | None = None
    where, why = "", "no C compiler on PATH"
    if cc is not None:
        try:
            kernel, target, why = _open(cc)
            where = str(target)
        except subprocess.CalledProcessError as exc:
            why = "compile failed: " + " ".join((exc.stderr or "").split())[-300:]
        except (
            OSError, RuntimeError, subprocess.SubprocessError, AttributeError
        ) as exc:
            # RuntimeError: no home directory; AttributeError: a symbol
            # the library lacks.
            why = f"{type(exc).__name__}: {exc}"
    if kernel is None:
        logger.warning(
            "event=native_kernel status=numpy path=%s reason=%s", where or "-", why
        )
    else:
        logger.info(
            "event=native_kernel status=native path=%s reason=%s", where, why
        )
    return kernel, where, why


#: the loaded library, or ``None`` when NumPy runs in its place.
lib, path, reason = load()
