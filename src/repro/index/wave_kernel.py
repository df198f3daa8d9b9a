"""Build and load the C half of the lockstep wave.

:mod:`repro.index.graph_wave` splits a wave into arithmetic and
bookkeeping.  The bookkeeping — which route columns a wave expands,
which neighbours are fresh, the order of a row's frontier and the two
stable pool merges — runs in ``wave_kernel.c`` when this module could
build and load it, and in NumPy otherwise; both leave the same bits
behind, since it only compares and moves similarities.  Of the
arithmetic, the dense rows' inner products (traversed and scanned) run
in the same file's ``gather_dot`` under the eight-lane float32 contract
its header states, and in NumPy's ``einsum`` otherwise, which agrees
with it within the float32 dot-product bound
(:func:`~repro.store.dot_error`).  Compressed-store and Lemma-4 scoring,
thresholds, rerank and fusion are NumPy on both paths.

The source is compiled once, at import, with the first C compiler on
``PATH`` (``cc``, ``gcc``, ``clang``), into the user cache directory
(``$XDG_CACHE_HOME/must-repro``, else ``~/.cache/must-repro``) under a
name keyed by a SHA-256 of source, compiler, flags and platform.  The
build is written to a temporary name and moved into place with
:func:`os.replace`, so processes importing side by side never load a
half-written library.  Loading goes through :mod:`ctypes`
(:func:`declare` types every exported function); NumPy stays the only
dependency.

Whichever path runs is logged once, as ``event=wave_kernel
status=native|numpy path=… reason=…``, and :data:`lib` is the handle
:mod:`~repro.index.graph_wave` reads on every wave (``None`` means the
NumPy bookkeeping and ``einsum``).  No option, setting or environment
variable picks between the two.
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

__all__ = ["WaveState", "compiler", "declare", "lib", "load", "path", "reason"]

logger = logging.getLogger(__name__)

PACKAGE, SOURCE = "repro.index", "wave_kernel.c"
#: build flags; tier-1 also compiles the source with -Wall -Wextra -Werror.
#: ``-ffp-contract=off`` is part of the float contract: no FMA.
FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC", "-ffp-contract=off")
COMPILERS = ("cc", "gcc", "clang")

_i64 = ctypes.c_int64
_ptr = ctypes.c_void_p


class WaveState(ctypes.Structure):
    """One traversal's arrays, as ``wave_state`` in ``wave_kernel.c``."""

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
#: ``(argtypes, restype)`` of every function ``wave_kernel.c`` exports;
#: ctypes would otherwise read each ``int64_t`` status as a C ``int``.
SIGNATURES: dict[str, tuple[list[Any], Any]] = {
    "wave_expand": ([_state], _i64),
    "wave_merge": ([_state, _ptr, _ptr, _ptr, _i64], _i64),
    "gather_dot": (
        [_ptr, _i64, _i64, _ptr, _i64, _ptr, _ptr, _i64, _ptr, _ptr, _ptr],
        _i64,
    ),
}


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
        target = _cache_dir() / f"wave_kernel-{key.hexdigest()[:16]}.so"
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
            "event=wave_kernel status=numpy path=%s reason=%s", where or "-", why
        )
    else:
        logger.info(
            "event=wave_kernel status=native path=%s reason=%s", where, why
        )
    return kernel, where, why


#: the loaded kernel, or ``None`` when the NumPy bookkeeping and einsum run.
lib, path, reason = load()
