"""Build and load the native kernels, ``native.c``.

One C library serves the search and the build, and :mod:`repro` does
not run without it.  :mod:`repro.index.graph_wave` runs every traversal
in one call, ``wave_run``: the init wave (each row's prefix of the
graph's entry order, scored and merged) and every wave after it.  A
wave is bookkeeping — which route columns it expands, which neighbours
are fresh, the order of a row's frontier and the two stable pool
merges, ``wave_expand`` and ``wave_merge``, which only compare and move
similarities — around one call of the row scorer, ``score_rows``.  That
scorer is all the search's arithmetic, for every kind of row
(:class:`ScorerState`): a fast-path row's dot product with the
ω-scaled concatenation, and any other row's float64 sum, modality by
modality, of ``ω²`` times a dense, int8 or PQ row's float32 inner
product (:class:`Operand`), each under the contract the source's header
states.  A scanned row is one ``score_rows`` call; thresholds, rerank
and fusion are NumPy.

The lexical scorer (:mod:`repro.sparse.inverted`) is one call too,
``lex_scatter``: a query's BM25 or TF-IDF score on every row of a sparse
plane, each query term's contribution added at its posting rows in
float64, terms in ascending order, every contribution in the float64
operation order of the NumPy loop it replaced — ``(1 - b) + b·(dl /
avgdl)``, then ``k1·``, then ``w·((tf·(k1 + 1)) / (tf + norm))`` for
BM25, ``w·tf`` for TF-IDF — with ``avgdl`` passed per call from the
plane's stamped statistics.  It returns the touched rows ascending.

The build (:mod:`repro.index.nndescent`, :mod:`repro.index.components`)
hands the library its bookkeeping and one selection.  NNDescent's local
join numbers a block's candidate union in ``join_number`` and, after the
BLAS matmul against that union, lays the similarities out and masks
repeats and self-references in ``join_fill``; the angle selection's
greedy pick over a domination matrix is ``greedy_pick``.  The MRNG
selection and HNSW / Vamana's α-pruning are ``prune_rows``: every
vertex's greedy pick in one call, scoring a candidate pair only when
the scan asks whether one blocks the other, under the same eight-lane
contract as ``score_rows``.

Each kernel has a NumPy oracle in the test suite (``tests/oracles.py``)
that it is compared with bit for bit; none of them runs here.

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
dependency.  One ``event=native_kernel path=… reason=built|cached`` line
is logged.  When no compiler is found, the build fails or the cache
cannot be written, importing this module — hence :mod:`repro` — raises
:class:`ImportError` saying which; :data:`lib` is always a loaded
library.
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
    "DENSE_ROWS", "INT8_ROWS", "Operand", "PQ_ROWS", "ScorerState", "WaveState",
    "address", "check", "compiler", "declare", "lib", "load", "path", "reason",
]

logger = logging.getLogger(__name__)

PACKAGE, SOURCE = "repro", "native.c"
#: build flags; tier-1 also compiles the source with -Wall -Wextra -Werror.
#: ``-ffp-contract=off`` is part of the float contract: no FMA.
FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC", "-ffp-contract=off")
COMPILERS = ("cc", "gcc", "clang")

_i64 = ctypes.c_int64
_f64 = ctypes.c_double
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


#: the kinds of stored rows an :class:`Operand` holds, as in ``native.c``.
DENSE_ROWS, INT8_ROWS, PQ_ROWS = 0, 1, 2


class Operand(ctypes.Structure):
    """One modality of the row scorer, as ``operand`` in ``native.c``."""

    _fields_ = [
        ("kind", _i64),
        ("width", _i64),
        ("ncent", _i64),
        ("rows", _ptr),
        ("queries", _ptr),
        ("offset", _ptr),
        ("slot", _ptr),
        ("w2", _ptr),
    ]


class ScorerState(ctypes.Structure):
    """The row scorer, as ``row_scorer`` in ``native.c``."""

    _fields_ = [
        ("b", _i64),
        ("n", _i64),
        ("fast", _ptr),
        ("concat", _ptr),
        ("dim", _i64),
        ("qmat", _ptr),
        ("m", _i64),
        ("mods", ctypes.POINTER(Operand)),
        ("evals", _ptr),
    ]


_state = ctypes.POINTER(WaveState)
_scorer = ctypes.POINTER(ScorerState)
#: ``(argtypes, restype)`` of every function ``native.c`` exports;
#: ctypes would otherwise read each ``int64_t`` status as a C ``int``.
SIGNATURES: dict[str, tuple[list[Any], Any]] = {
    "wave_expand": ([_state], _i64),
    "wave_merge": ([_state, _ptr, _ptr, _ptr, _i64], _i64),
    "wave_run": ([_state, _ptr, _ptr, _scorer, _ptr, _i64], _i64),
    "score_rows": ([_scorer, _ptr, _ptr, _i64, _ptr, _ptr], _i64),
    "lex_scatter": (
        [_ptr, _ptr, _ptr, _i64, _ptr, _i64, _ptr, _ptr, _i64, _ptr, _ptr, _ptr],
        _i64,
    ),
    "join_number": ([_ptr, _i64, _i64, _ptr, _ptr], _i64),
    "join_fill": ([_ptr, _i64, _i64, _ptr, _i64, _ptr, _i64, _ptr, _ptr], _i64),
    "greedy_pick": ([_ptr, _i64, _i64, _ptr], _i64),
    "prune_rows": (
        [_ptr, _i64, _i64, _ptr, _ptr, _i64, _i64, _i64, _f64, _f64, _ptr, _ptr],
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


def address(buffer: Any) -> int:
    """The address of a writable, C-contiguous, non-empty buffer's first
    byte — what ``ndarray.ctypes.data`` reads, at under half its cost;
    a read-only, strided or empty buffer raises instead."""
    return ctypes.addressof(ctypes.c_char.from_buffer(buffer))


def declare(kernel: ctypes.CDLL) -> ctypes.CDLL:
    """Declare :data:`SIGNATURES` on a loaded build of the source — this
    module's or any other (a sanitised one, in the tests)."""
    for name, (argtypes, restype) in SIGNATURES.items():
        function = getattr(kernel, name)
        function.argtypes = argtypes
        function.restype = restype
    return kernel


def compiler() -> str | None:
    """The C compiler the kernel is built with, or ``None`` when there
    is none on ``PATH``."""
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


def _compiled(cc: str) -> tuple[Path, str]:
    """The library's file, built unless the cache holds it, and how."""
    with resources.as_file(resources.files(PACKAGE) / SOURCE) as source:
        key = hashlib.sha256(source.read_bytes())
        compiled_by = (os.path.realpath(cc), *FLAGS)
        for part in (*compiled_by, sys.platform, platform.machine()):
            key.update(b"\0" + part.encode())
        target = _cache_dir() / f"native-{key.hexdigest()[:16]}.so"
        if target.exists():
            return target, "cached"
        _build(cc, source, target)
    return target, "built"


def load() -> tuple[ctypes.CDLL, str, str]:
    """Build (or find) and load the kernel, and log which file it is.

    Returns ``(lib, path, reason)``: the loaded library, its file and
    whether this call ``built`` it or found it ``cached``.  Raises
    :class:`ImportError` naming what failed — no C compiler on ``PATH``,
    the compiler's error output, a cache directory it cannot write (fix:
    point ``XDG_CACHE_HOME`` at a writable one) or a library that would
    not load — since nothing in :mod:`repro` runs without the kernel.
    """
    cc = compiler()
    if cc is None:
        raise ImportError(
            f"repro needs a C compiler to build {SOURCE}: none of "
            f"{', '.join(COMPILERS)} is on PATH"
        )
    try:
        target, why = _compiled(cc)
    except subprocess.CalledProcessError as exc:
        tail = " ".join((exc.stderr or "").split())[-300:]
        raise ImportError(f"compiling {SOURCE} with {cc} failed: {tail}") from exc
    except subprocess.SubprocessError as exc:
        raise ImportError(f"compiling {SOURCE} with {cc} failed: {exc}") from exc
    except (OSError, RuntimeError) as exc:
        # RuntimeError: no home directory to put the cache under.
        raise ImportError(
            f"cannot write the kernel cache ({type(exc).__name__}: {exc}); "
            "set XDG_CACHE_HOME to a writable directory"
        ) from exc
    try:
        kernel = declare(ctypes.CDLL(str(target)))
    except (OSError, AttributeError) as exc:
        # AttributeError: a symbol the library lacks.
        raise ImportError(f"loading {target} failed: {exc}") from exc
    logger.info("event=native_kernel path=%s reason=%s", target, why)
    return kernel, str(target), why


#: the loaded library; every kernel call reads it at call time.
lib, path, reason = load()
