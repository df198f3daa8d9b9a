"""Int8 scalar quantisation (per-modality, per-dimension min/max).

Each modality matrix is quantised column-wise: dimension ``d`` of
modality ``i`` maps the range ``[min_d, max_d]`` onto the 256 uint8
levels, so a stored code reconstructs as ``min_d + step_d · code``.
4× fewer resident bytes than float32 at ~0.2% reconstruction error on
unit-norm data.

The asymmetric kernel never decodes: because reconstruction is affine,

    IP(decode(row), q) = codes_row · (step ⊙ q) + min · q

— one dot product of the codes with a pre-scaled query plus a scalar
offset, both prepared once per (query, modality) by
:meth:`ScalarQuantStore.stacked_kernel`.  A frontier row runs that dot
in the native row scorer: the eight-lane float32 contract over the
codes widened to float32, then the offset in one float32 add
(``native.c``'s header).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro import native
from repro.store.base import (
    ModalityKernel,
    VectorStore,
    dot_error,
    register_store,
)
from repro.store.mmap import ColdPlane, as_cold_plane
from repro.utils.validation import require

__all__ = ["ScalarQuantStore"]


@register_store
class ScalarQuantStore(VectorStore):
    """Per-dimension min/max scalar quantisation to uint8 codes."""

    kind = "int8"
    dtype = "uint8"

    def __init__(
        self,
        codes: Sequence[np.ndarray],
        lows: Sequence[np.ndarray],
        steps: Sequence[np.ndarray],
        exact: Sequence[np.ndarray] | ColdPlane | None = None,
    ):
        self._codes = tuple(np.ascontiguousarray(c, dtype=np.uint8) for c in codes)
        self._lows = tuple(np.ascontiguousarray(v, dtype=np.float32) for v in lows)
        self._scales = tuple(np.ascontiguousarray(v, dtype=np.float32) for v in steps)
        require(len(self._codes) == len(self._lows) == len(self._scales),
                "one (low, step) pair per modality required")
        n = self._codes[0].shape[0]
        for i, (c, lo, st) in enumerate(
            zip(self._codes, self._lows, self._scales)
        ):
            require(c.ndim == 2 and c.shape[0] == n,
                    f"modality {i} codes must be (n, d)")
            require(lo.shape == (c.shape[1],) and st.shape == (c.shape[1],),
                    f"modality {i} scale vectors must match its dimension")
        self._exact = as_cold_plane(
            exact, n=n, dims=tuple(c.shape[1] for c in self._codes)
        )

    # -- shape ----------------------------------------------------------
    @property
    def n(self) -> int:
        return self._codes[0].shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self._codes)

    # -- decode / exact -------------------------------------------------
    def modality(self, i: int) -> np.ndarray:
        return (
            self._codes[i].astype(np.float32) * self._scales[i] + self._lows[i]
        )

    def rows(self, i: int, ids: np.ndarray) -> np.ndarray:
        rows = self._codes[i][np.asarray(ids)].astype(np.float32)
        return rows * self._scales[i] + self._lows[i]

    @property
    def has_exact(self) -> bool:
        return self._exact is not None

    def exact_modality(self, i: int) -> np.ndarray:
        if self._exact is not None:
            return self._exact.modality(i)
        return self.modality(i)

    def exact_rows(self, i: int, ids: np.ndarray) -> np.ndarray:
        if self._exact is not None:
            return self._exact.rows(i, np.asarray(ids))
        return self.rows(i, np.asarray(ids))

    # -- scoring --------------------------------------------------------
    def stacked_kernel(self, i: int, queries: np.ndarray) -> ModalityKernel:
        q = np.ascontiguousarray(queries, dtype=np.float32)
        # One dot per query, not one (b, d) @ (d,) GEMV: a GEMV may
        # round differently, and the offset's bits are the answer's.
        offset = np.asarray([self._lows[i] @ row for row in q], dtype=np.float32)
        return ModalityKernel(
            native.INT8_ROWS, self._codes[i],
            np.ascontiguousarray(self._scales[i] * q, dtype=np.float32), offset,
        )

    def batch_scores(self, i: int, queries: np.ndarray) -> np.ndarray:
        q = np.ascontiguousarray(queries, dtype=np.float32)  # (b, d)
        scaled = q * self._scales[i]
        offsets = q @ self._lows[i]  # (b,)
        scores: np.ndarray = self._codes[i] @ scaled.T + offsets[None, :]
        return scores

    def batch_scores_bound(self, i: int, queries: np.ndarray) -> np.ndarray:
        # Both sides are sums of q_d·(code_d·step_d + low_d) up to a few
        # float32 roundings per term (the pre-scaled query and the
        # offset here, the two-op decode in the float64 reference), so
        # the dot bound applies to ‖code ⊙ step‖ + ‖low‖ — at most
        # 255·‖step‖ + ‖low‖, which needs no pass over the rows.
        steps = self._scales[i].astype(np.float64)
        lows = self._lows[i].astype(np.float64)
        reach = 255.0 * np.linalg.norm(steps) + np.linalg.norm(lows)
        q_norms = np.linalg.norm(np.asarray(queries, dtype=np.float64), axis=1)
        bound: np.ndarray = dot_error(steps.shape[0]) * reach * q_norms
        return bound

    # -- lifecycle ------------------------------------------------------
    def subset(self, ids: np.ndarray) -> "ScalarQuantStore":
        ids = np.asarray(ids)
        exact = None if self._exact is None else self._exact.subset(ids)
        return ScalarQuantStore(
            [c[ids] for c in self._codes], self._lows, self._scales, exact
        )

    def hot_bytes(self) -> int:
        return int(
            sum(c.nbytes for c in self._codes)
            + sum(v.nbytes for v in self._lows)
            + sum(v.nbytes for v in self._scales)
        )

    def cold_bytes(self) -> int:
        return 0 if self._exact is None else self._exact.nbytes()

    def resident_bytes(self) -> int:
        cold = 0 if self._exact is None else self._exact.resident_bytes()
        return self.hot_bytes() + cold

    @property
    def cold_plane(self) -> ColdPlane | None:
        return self._exact

    def with_cold_plane(self, plane: ColdPlane | None) -> "ScalarQuantStore":
        return ScalarQuantStore(self._codes, self._lows, self._scales, plane)

    # -- persistence ----------------------------------------------------
    def store_meta(self) -> dict[str, Any]:
        return {"kind": self.kind, "dtype": self.dtype,
                "num_modalities": self.num_modalities,
                "keep_exact": self.has_exact}

    def to_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i in range(self.num_modalities):
            out[f"codes_{i}"] = self._codes[i]
            out[f"qlow_{i}"] = self._lows[i]
            out[f"qstep_{i}"] = self._scales[i]
            if self._exact is not None and self._exact.is_resident:
                out[f"exact_{i}"] = self._exact.modality(i)
        return out

    @classmethod
    def from_arrays(
        cls, meta: dict[str, Any], arrays: dict[str, np.ndarray]
    ) -> "ScalarQuantStore":
        m = int(meta["num_modalities"])
        exact = None
        if meta.get("keep_exact") and "exact_0" in arrays:
            exact = [arrays[f"exact_{i}"] for i in range(m)]
        return cls(
            [arrays[f"codes_{i}"] for i in range(m)],
            [arrays[f"qlow_{i}"] for i in range(m)],
            [arrays[f"qstep_{i}"] for i in range(m)],
            exact,
        )

    @classmethod
    def from_matrices(
        cls,
        matrices: Sequence[np.ndarray],
        keep_exact: bool = True,
        **options: Any,
    ) -> "ScalarQuantStore":
        require(not options,
                f"ScalarQuantStore options: keep_exact; got {sorted(options)}")
        mats = [np.ascontiguousarray(m, dtype=np.float32) for m in matrices]
        codes: list[np.ndarray] = []
        lows: list[np.ndarray] = []
        steps: list[np.ndarray] = []
        for mat in mats:
            lo = mat.min(axis=0)
            hi = mat.max(axis=0)
            span = hi - lo
            # Constant columns quantise to code 0 with step 0 (decode = lo).
            step = np.where(span > 0.0, span / 255.0, 1.0).astype(np.float32)
            q = np.rint((mat - lo) / step)
            codes.append(np.clip(q, 0, 255).astype(np.uint8))
            lows.append(lo.astype(np.float32))
            steps.append(np.where(span > 0.0, span / 255.0, 0.0).astype(np.float32))
        return cls(codes, lows, steps, mats if keep_exact else None)
