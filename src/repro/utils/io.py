"""Serialisation for indexes and datasets.

Uses ``numpy.savez`` archives with a JSON metadata blob — dependency-free,
portable, and bit-exact for float32 payloads.  Variable-length structures
(adjacency lists) are stored flattened with an offsets array, the standard
CSR-style layout used by graph databases.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = [
    "pack_adjacency",
    "unpack_adjacency",
    "save_arrays",
    "load_arrays",
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
