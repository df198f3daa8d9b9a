"""Memory-mapped cold tier: the beyond-RAM seam of the vector stores.

The two-tier hot/cold split (compressed codes hot, exact float32 cold)
keeps QPS bounded by the hot tier — the cold tier is touched for ~40
rerank rows per query plus compaction.  Keeping it resident therefore
wastes the bulk of RAM: at PQ the hot tier is ~116 bytes/vector while
the cold tier is ``4·d``.  This module makes the cold tier's *location*
pluggable:

``ResidentPlane``
    float32 matrices in RAM — bit-for-bit today's behaviour.
``MmapPlane``
    one uncompressed ``.npy`` file per modality, opened lazily with
    ``np.load(..., mmap_mode="r")`` on first probe.  A rerank gather
    (``plane.rows``) pages in only the touched rows; nothing is read at
    construction beyond the 128-byte header (validated eagerly so a
    truncated file fails loudly at load, not mid-query).
``GatherPlane``
    a row-addressed view over several underlying planes — what
    ``MmapPlane.subset`` returns, so a row subset of a mapped tier is
    read straight out of its files without copying them.

Bit-identity contract: every plane returns the *same float32 bytes* the
resident path would, so ``rerank_exact``/``query_ids_exact`` results
are bit-identical regardless of where the cold tier lives.  The memory
split is reported per tier: ``hot_bytes`` (codes, always resident),
``cold_bytes`` (logical size of the exact tier wherever it lives) and
``resident_bytes`` (hot plus whatever part of the cold tier is RAM).

``.npz`` archives are zip files and cannot be memory-mapped, which is
why mmap cold tiers live in *sidecar* ``.npy`` files next to the
segment archive (see ``"storage": "mmap"`` in
:mod:`repro.index.segments`).
"""

from __future__ import annotations

import abc
import os
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.utils.validation import require

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.store.base import VectorStore

__all__ = [
    "ColdPlane",
    "ResidentPlane",
    "MmapPlane",
    "GatherPlane",
    "as_cold_plane",
    "spill_cold",
    "evict_page_cache",
]


class ColdPlane(abc.ABC):
    """Full-precision float32 cold tier behind a compressed store."""

    @property
    @abc.abstractmethod
    def n(self) -> int:
        """Number of rows."""

    @property
    @abc.abstractmethod
    def dims(self) -> tuple[int, ...]:
        """Per-modality vector dimensionality."""

    @property
    def num_modalities(self) -> int:
        return len(self.dims)

    @property
    @abc.abstractmethod
    def is_resident(self) -> bool:
        """True when the plane's bytes live in RAM (not a file mapping)."""

    @abc.abstractmethod
    def modality(self, i: int) -> np.ndarray:
        """Full ``(n, d_i)`` float32 matrix of modality *i*.

        Mapped planes return the memmap itself (zero-copy; consumers
        that fancy-index it page in only the touched rows).  Gather
        planes materialise — reserve for build/compaction paths.
        """

    @abc.abstractmethod
    def rows(self, i: int, ids: np.ndarray) -> np.ndarray:
        """Float32 rows *ids* of modality *i* (pages in only those rows)."""

    @abc.abstractmethod
    def subset(self, ids: np.ndarray) -> "ColdPlane":
        """Plane over the rows in *ids*, preserving their order."""

    def nbytes(self) -> int:
        """Logical bytes of the cold tier, wherever it lives."""
        return 4 * self.n * int(sum(self.dims))

    @abc.abstractmethod
    def resident_bytes(self) -> int:
        """The RAM-resident portion of :meth:`nbytes` (0 for pure mmap)."""


class ResidentPlane(ColdPlane):
    """Cold tier held in RAM — bit-for-bit the historical behaviour."""

    __slots__ = ("_mats",)

    def __init__(self, matrices: Sequence[np.ndarray]):
        mats = tuple(np.ascontiguousarray(m, dtype=np.float32) for m in matrices)
        require(len(mats) >= 1, "cold plane needs at least one modality")
        n = mats[0].shape[0]
        for i, m in enumerate(mats):
            require(m.ndim == 2, f"cold modality {i} must be 2-D")
            require(
                m.shape[0] == n,
                f"cold modality {i} has {m.shape[0]} rows, expected {n}",
            )
        self._mats = mats

    @property
    def n(self) -> int:
        return self._mats[0].shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(m.shape[1] for m in self._mats)

    @property
    def is_resident(self) -> bool:
        return True

    def modality(self, i: int) -> np.ndarray:
        return self._mats[i]

    def rows(self, i: int, ids: np.ndarray) -> np.ndarray:
        return self._mats[i][np.asarray(ids)]

    def subset(self, ids: np.ndarray) -> "ResidentPlane":
        ids = np.asarray(ids)
        return ResidentPlane([m[ids] for m in self._mats])

    def nbytes(self) -> int:
        return int(sum(m.nbytes for m in self._mats))

    def resident_bytes(self) -> int:
        return self.nbytes()


def _read_npy_header(path: Path) -> tuple[tuple[int, ...], np.dtype, int]:
    """Parse an ``.npy`` header without touching the data pages.

    Returns ``(shape, dtype, data_offset)`` or raises ``ValueError``
    with an actionable message for anything that is not a well-formed
    2-D C-order array file.
    """
    try:
        with open(path, "rb") as fh:
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                header = np.lib.format.read_array_header_1_0(fh)
            elif version == (2, 0):
                header = np.lib.format.read_array_header_2_0(fh)
            else:
                raise ValueError(f"unsupported .npy format version {version}")
            shape, fortran, dtype = header
            offset = fh.tell()
    except FileNotFoundError:
        raise FileNotFoundError(
            f"cold-tier file {path} is missing — the index directory is "
            f"incomplete; restore the sidecar .npy files next to the "
            f"segment archives or re-save the index"
        ) from None
    except (ValueError, OSError) as exc:
        raise ValueError(
            f"cold-tier file {path} has a corrupt .npy header ({exc}) — "
            f"the file was truncated or overwritten; re-save the index"
        ) from exc
    require(
        not fortran,
        f"cold-tier file {path} is Fortran-ordered; expected C-order",
    )
    return tuple(int(s) for s in shape), np.dtype(dtype), int(offset)


#: Rows closer than this share one ``WILLNEED`` advice range — beyond
#: it a fresh range costs less than reading the untouched gap.  64 rows
#: of a typical 128-d float32 modality is two 16 KiB readahead windows.
_ADVISE_GAP = 64


class MmapPlane(ColdPlane):
    """Cold tier in per-modality ``.npy`` files, mapped lazily.

    Headers are validated eagerly (shape, dtype, file size) so a
    missing or truncated file fails at load time with a pointed error;
    the data mapping itself is deferred to the first probe, which is
    what lets a sealed segment load without touching its cold bytes.
    """

    __slots__ = ("_paths", "_shapes", "_offsets", "_maps", "_fds")

    def __init__(self, paths: Sequence[str | Path]):
        require(len(paths) >= 1, "mmap cold plane needs at least one file")
        self._paths = tuple(Path(p) for p in paths)
        shapes: list[tuple[int, ...]] = []
        offsets: list[int] = []
        for path in self._paths:
            shape, dtype, offset = _read_npy_header(path)
            require(
                len(shape) == 2,
                f"cold-tier file {path} holds a {len(shape)}-D array; "
                f"expected a 2-D (n, d) matrix",
            )
            require(
                dtype == np.dtype(np.float32),
                f"cold-tier file {path} holds dtype {dtype}; the cold "
                f"tier is always float32 — the file is not a cold-tier "
                f"sidecar or was written by an incompatible version",
            )
            expected = offset + 4 * shape[0] * shape[1]
            actual = path.stat().st_size
            require(
                actual == expected,
                f"cold-tier file {path} is truncated: {actual} bytes on "
                f"disk, header promises {expected} — restore the file "
                f"from a backup or re-save the index",
            )
            shapes.append(shape)
            offsets.append(offset)
        n = shapes[0][0]
        for path, shape in zip(self._paths, shapes):
            require(
                shape[0] == n,
                f"cold-tier file {path} has {shape[0]} rows but its "
                f"sibling modalities have {n} — the sidecar set is "
                f"inconsistent; re-save the index",
            )
        self._shapes = tuple(shapes)
        self._offsets = tuple(offsets)
        self._maps: list[np.ndarray | None] = [None] * len(self._paths)
        self._fds: list[int | None] = [None] * len(self._paths)

    @property
    def paths(self) -> tuple[Path, ...]:
        return self._paths

    @property
    def n(self) -> int:
        return self._shapes[0][0]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(shape[1] for shape in self._shapes)

    @property
    def is_resident(self) -> bool:
        return False

    def _map(self, i: int) -> np.ndarray:
        mapped = self._maps[i]
        if mapped is None:
            mapped = np.load(self._paths[i], mmap_mode="r")
            if hasattr(os, "posix_fadvise"):
                # Opened with the mapping, so a file unlinked after its
                # first probe (a retired segment a snapshot still
                # holds) keeps taking advice through the same inode.
                self._fds[i] = os.open(str(self._paths[i]), os.O_RDONLY)
            self._maps[i] = mapped
        return mapped

    def modality(self, i: int) -> np.ndarray:
        return self._map(i)

    def rows(self, i: int, ids: np.ndarray) -> np.ndarray:
        # Fancy-indexing a memmap pages in only the touched rows and
        # returns an ordinary in-RAM ndarray of the same bytes.  A
        # WILLNEED advice ahead of the gather lets the kernel start
        # readahead for all touched ranges at once instead of faulting
        # them in one row at a time (a large win on a cold page cache;
        # harmless when the pages are already resident).
        ids = np.asarray(ids)
        mapped = self._map(i)
        self._advise_willneed(i, ids)
        return mapped[ids]

    def _advise_willneed(self, i: int, ids: np.ndarray) -> None:
        """Issue ``posix_fadvise(WILLNEED)`` for the rows about to be read.

        Touched rows are coalesced into contiguous runs (rows less than
        ``_ADVISE_GAP`` apart share one advice call) so a scattered
        gather issues a handful of syscalls, not one per row.  No-op on
        platforms without ``posix_fadvise`` and for empty gathers.
        """
        fd = self._fds[i]
        if fd is None or ids.size == 0:
            return
        row_bytes = 4 * self._shapes[i][1]
        base = self._offsets[i]
        sorted_ids = np.sort(ids.astype(np.int64, copy=False))
        # Runs split where consecutive touched rows are far apart (a
        # repeated id is a gap of 0, so it never splits one).
        cut = np.flatnonzero(np.diff(sorted_ids) > _ADVISE_GAP)
        firsts = np.concatenate((sorted_ids[:1], sorted_ids[cut + 1])).tolist()
        lasts = np.concatenate((sorted_ids[cut], sorted_ids[-1:])).tolist()
        for first, last in zip(firsts, lasts):
            try:
                os.posix_fadvise(
                    fd,
                    base + first * row_bytes,
                    (last - first + 1) * row_bytes,
                    os.POSIX_FADV_WILLNEED,
                )
            except OSError:  # pragma: no cover - advice is best-effort
                return

    def subset(self, ids: np.ndarray) -> "GatherPlane":
        ids = np.asarray(ids, dtype=np.int64)
        return GatherPlane([self], np.zeros(ids.shape[0], dtype=np.int64), ids)

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        for fd in getattr(self, "_fds", ()):
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass

    def nbytes(self) -> int:
        return 4 * self.n * int(sum(self.dims))

    def resident_bytes(self) -> int:
        # The OS page cache may hold recently-touched pages, but they
        # are reclaimable — nothing here pins process-resident memory.
        return 0


class GatherPlane(ColdPlane):
    """Row-addressed composite over several source planes.

    Row ``j`` of this plane is row ``row_of[j]`` of source plane
    ``src_of[j]``.  :meth:`MmapPlane.subset` returns one over its own
    files, so a subset reads the mapped rows in place.
    """

    __slots__ = ("_sources", "_src_of", "_row_of")

    def __init__(
        self,
        sources: Sequence[ColdPlane],
        src_of: np.ndarray,
        row_of: np.ndarray,
    ):
        require(len(sources) >= 1, "gather plane needs at least one source")
        dims = sources[0].dims
        for s, source in enumerate(sources):
            require(
                source.dims == dims,
                f"gather source {s} has dims {source.dims}, expected {dims}",
            )
        self._sources = tuple(sources)
        self._src_of = np.ascontiguousarray(src_of, dtype=np.int64)
        self._row_of = np.ascontiguousarray(row_of, dtype=np.int64)
        require(
            self._src_of.shape == self._row_of.shape and self._src_of.ndim == 1,
            "src_of and row_of must be equal-length 1-D arrays",
        )

    @property
    def n(self) -> int:
        return int(self._src_of.shape[0])

    @property
    def dims(self) -> tuple[int, ...]:
        return self._sources[0].dims

    @property
    def is_resident(self) -> bool:
        return False

    def rows(self, i: int, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        src = self._src_of[ids]
        row = self._row_of[ids]
        out = np.empty((src.shape[0], self.dims[i]), dtype=np.float32)
        for s in np.unique(src):
            mask = src == s
            out[mask] = self._sources[s].rows(i, row[mask])
        return out

    def modality(self, i: int) -> np.ndarray:
        return self.rows(i, np.arange(self.n))

    def subset(self, ids: np.ndarray) -> "GatherPlane":
        ids = np.asarray(ids)
        return GatherPlane(self._sources, self._src_of[ids], self._row_of[ids])

    def resident_bytes(self) -> int:
        return int(sum(s.resident_bytes() for s in self._sources))


def as_cold_plane(
    exact: "Sequence[np.ndarray] | ColdPlane | None",
    n: int,
    dims: tuple[int, ...],
) -> ColdPlane | None:
    """Normalise a store's ``exact=`` argument into a cold plane.

    Accepts ``None`` (no cold tier), a ready-made :class:`ColdPlane`,
    or the historical sequence of float32 matrices (wrapped into a
    :class:`ResidentPlane`).  Shape-checks against the hot tier either
    way.
    """
    if exact is None:
        return None
    plane = exact if isinstance(exact, ColdPlane) else ResidentPlane(exact)
    require(
        plane.n == n and plane.dims == dims,
        f"cold tier shape mismatch: hot tier is n={n}, dims={dims}; "
        f"cold plane is n={plane.n}, dims={plane.dims}",
    )
    return plane


def spill_cold(
    store: "VectorStore", directory: str | Path, stem: str
) -> "VectorStore":
    """Write a store's cold tier to sidecar files and re-seat it on mmap.

    Writes one ``{stem}.cold_{i}.npy`` per modality under *directory*
    (streamed by ``np.save``; nothing extra is materialised when the
    source is already resident) and returns the same store with its
    cold plane replaced by an :class:`MmapPlane` over those files.
    """
    require(
        store.has_exact,
        f"store kind {store.kind!r} has no exact cold tier to spill — "
        f"build it with keep_exact=True",
    )
    require(
        store.kind != "none",
        "dense stores keep the float32 corpus as the hot tier; an mmap "
        "cold tier requires a compressed backend "
        "(int8/pq) so graph traversal never touches the mapping",
    )
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: list[Path] = []
    for i in range(store.num_modalities):
        target = out_dir / f"{stem}.cold_{i}.npy"
        np.save(
            target,
            np.ascontiguousarray(store.exact_modality(i), dtype=np.float32),
        )
        paths.append(target)
    return store.with_cold_plane(MmapPlane(paths))


def evict_page_cache(plane: ColdPlane) -> bool:
    """Best-effort eviction of a mapped plane's pages from the OS cache.

    Used by the mmap bench to measure a genuinely cold first read.
    Returns True when the advice was issued (Linux/POSIX), False when
    unsupported or the plane has no file backing.
    """
    if not isinstance(plane, MmapPlane) or not hasattr(os, "posix_fadvise"):
        return False
    for path in plane.paths:
        fd = os.open(str(path), os.O_RDONLY)
        try:
            os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
        finally:
            os.close(fd)
    return True
