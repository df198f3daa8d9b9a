"""Deterministic random-number utilities.

Every stochastic component in the library (dataset generators, encoders,
graph initialisation, weight-learning batching) draws its randomness from a
:class:`numpy.random.Generator` derived here, so that experiments are exactly
reproducible given a seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["make_rng", "derive_seed", "spawn"]

_MAX_SEED = 2**63 - 1


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a Generator for *seed*.

    Accepts an int seed, an existing generator (returned as-is), or ``None``
    for OS entropy.  Centralising this keeps every call-site one line.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a stable child seed from *base_seed* and a label path.

    Hashing the label path decouples independent components: adding a new
    consumer of randomness does not shift the streams of existing ones,
    which keeps previously published experiment numbers stable.
    """
    digest = hashlib.sha256()
    digest.update(str(int(base_seed)).encode())
    for label in labels:
        digest.update(b"\x00")
        digest.update(str(label).encode())
    return int.from_bytes(digest.digest()[:8], "little") % _MAX_SEED


def spawn(base_seed: int, *labels: object) -> np.random.Generator:
    """Shorthand for ``make_rng(derive_seed(base_seed, *labels))``."""
    return make_rng(derive_seed(base_seed, *labels))

