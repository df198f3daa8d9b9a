"""Serialisation for indexes and datasets.

Uses ``numpy.savez`` archives with a JSON metadata blob — dependency-free,
portable, and bit-exact for float32 payloads.  Variable-length structures
(adjacency lists) are stored flattened with an offsets array, the standard
CSR-style layout used by graph databases.  Manifests are replaced whole
(:func:`replace_text`), so a crash leaves the old one or the new one.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "pack_adjacency",
    "unpack_adjacency",
    "save_arrays",
    "load_arrays",
    "replace_text",
]


def pack_adjacency(neighbors: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a ragged adjacency list into (flat, offsets) CSR form."""
    offsets = np.zeros(len(neighbors) + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, neighbors), dtype=np.int64, count=len(neighbors)),
        out=offsets[1:],
    )
    if offsets[-1] == 0:
        flat = np.empty(0, dtype=np.int32)
    else:
        flat = np.concatenate([np.asarray(a, dtype=np.int32) for a in neighbors])
    return flat, offsets


def unpack_adjacency(flat: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    """Inverse of :func:`pack_adjacency`."""
    return [
        np.asarray(flat[offsets[i]:offsets[i + 1]], dtype=np.int32)
        for i in range(len(offsets) - 1)
    ]


def save_arrays(path: str | Path, metadata: dict, **arrays: np.ndarray) -> None:
    """Write *arrays* plus a JSON *metadata* dict to a ``.npz`` archive."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta_blob = np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8)
    np.savez(path, __metadata__=meta_blob, **arrays)


def load_arrays(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read back an archive written by :func:`save_arrays`."""
    with np.load(Path(path)) as archive:
        payload = {key: archive[key] for key in archive.files}
    meta_blob = payload.pop("__metadata__")
    metadata = json.loads(bytes(meta_blob.tobytes()).decode("utf-8"))
    return metadata, payload


def replace_text(path: str | Path, text: str) -> None:
    """Replace the file *path* with *text*, durably and whole.

    The text goes to a temporary sibling, which is ``fsync``ed and moved
    over *path* with :func:`os.replace`; then the directory is
    ``fsync``ed, so the rename itself survives a power cut.  A reader or
    a crash sees the old file or the new one, never a torn one.  If the
    write fails the temporary is removed; one a killed process leaves
    behind (``.<name>.*.tmp``) is never read.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as out:
            out.write(text)
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
