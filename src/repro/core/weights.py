"""Modality weights (paper §VI, Lemma 1).

The joint similarity between two multi-vector objects is the weighted sum of
per-modality inner products::

    IP(â, b̂) = Σ_i ω_i² · IP(ϕ_i(a_i), ϕ_i(b_i))

Weights are stored in *squared* form (``w2 = ω²``) because that is the
quantity every kernel consumes; the paper's appendix tables (XIII–XVIII)
also report ``ω²`` directly.

Two sources of weights exist (Fig. 4(g)):

* **Option 1 — learned weights** from :mod:`repro.weightlearn`.
* **Option 2 — user-defined weights** for customised preferences (Tab. IX).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.multivector import MultiVector
from repro.utils.validation import require

__all__ = ["Weights"]


class Weights:
    """Immutable per-modality weight vector, stored as ``ω²``."""

    def __init__(self, squared: Sequence[float]):
        arr = np.asarray(squared, dtype=np.float64)
        require(arr.ndim == 1 and arr.size >= 1, "weights must be a 1-D sequence")
        require(bool(np.all(arr >= 0.0)), "squared weights must be non-negative")
        require(bool(arr.sum() > 0.0), "at least one weight must be positive")
        self._squared = arr.copy()
        self._squared.flags.writeable = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_omegas(cls, omegas: Sequence[float]) -> "Weights":
        """Build from raw ω values (squares them)."""
        omegas = np.asarray(omegas, dtype=np.float64)
        return cls(omegas**2)

    @classmethod
    def uniform(cls, num_modalities: int) -> "Weights":
        """Equal importance for every modality, ``Σ ω² = 1``."""
        require(num_modalities >= 1, "need at least one modality")
        return cls(np.full(num_modalities, 1.0 / num_modalities))

    @classmethod
    def user_defined(cls, squared: Sequence[float]) -> "Weights":
        """Explicit user preference (paper Tab. IX); alias for the ctor."""
        return cls(squared)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def squared(self) -> np.ndarray:
        """The ``ω²`` vector (read-only)."""
        return self._squared

    @property
    def omegas(self) -> np.ndarray:
        """The ω vector (non-negative root)."""
        return np.sqrt(self._squared)

    @property
    def num_modalities(self) -> int:
        return int(self._squared.size)

    @property
    def total(self) -> float:
        """``S = Σ ω²`` — the self-similarity of any fully-present object."""
        return float(self._squared.sum())

    def normalized(self) -> "Weights":
        """Rescale so ``Σ ω² = 1`` (pure rescaling never changes rankings)."""
        return Weights(self._squared / self._squared.sum())

    def masked(self, query: MultiVector) -> "Weights":
        """Zero out weights of modalities missing from *query*.

        Implements the paper's ``t ≠ m`` rule (§VII-B): absent modalities
        contribute ``ω_i = 0`` to the joint similarity.  A query that
        carries every modality masks nothing and gets ``self`` back
        (weights are immutable) — the common case on the per-query path.
        """
        present = query.present
        if len(present) != self._squared.size:  # no message formatted per query
            raise ValueError(
                f"query has {len(present)} modality slots, weights have "
                f"{self._squared.size}"
            )
        if all(present):
            return self
        masked = self._squared * np.asarray(present, dtype=np.float64)
        require(bool(masked.sum() > 0.0), "query has no usable modality")
        return Weights(masked)

    # ------------------------------------------------------------------
    # Dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        vals = ", ".join(f"{v:.4f}" for v in self._squared)
        return f"Weights(squared=[{vals}])"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Weights):
            return NotImplemented
        return np.array_equal(self._squared, other._squared)

    def __hash__(self) -> int:
        return hash(self._squared.tobytes())
