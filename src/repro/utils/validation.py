"""Input validation helpers.

The public API validates eagerly and raises with actionable messages; the
internal kernels assume validated inputs and stay branch-free.
"""

from __future__ import annotations

import difflib

import numpy as np
import numpy.typing as npt

__all__ = [
    "did_you_mean",
    "require",
    "as_float_matrix",
    "as_float_vector",
    "check_normalized",
]


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless *condition* holds."""
    if not condition:
        raise ValueError(message)


def did_you_mean(
    name: str, known: tuple[str, ...], what: str, cutoff: float = 0.6
) -> str:
    """``unknown <what> <name>``, the closest of *known* when one is
    within *cutoff* (:func:`difflib.get_close_matches`), and the full
    list."""
    close = difflib.get_close_matches(name, known, n=1, cutoff=cutoff)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return (
        f"unknown {what} {name!r}{hint}; registered {what}s: "
        f"{', '.join(known)}"
    )


def as_float_matrix(array: npt.ArrayLike, name: str = "array") -> np.ndarray:
    """Coerce to a C-contiguous float32 2-D matrix."""
    out = np.ascontiguousarray(array, dtype=np.float32)
    require(out.ndim == 2, f"{name} must be 2-D, got shape {out.shape}")
    return out


def as_float_vector(array: npt.ArrayLike, name: str = "array") -> np.ndarray:
    """Coerce to a contiguous float32 1-D vector."""
    out = np.ascontiguousarray(array, dtype=np.float32)
    require(out.ndim == 1, f"{name} must be 1-D, got shape {out.shape}")
    return out


def check_normalized(matrix: np.ndarray, atol: float = 1e-3) -> bool:
    """Return True when every row of *matrix* has (near-)unit L2 norm."""
    norms = np.linalg.norm(matrix, axis=-1)
    return bool(np.all(np.abs(norms - 1.0) <= atol))
