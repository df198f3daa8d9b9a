"""Pluggable vector-store backends (memory/compression layer).

==============  ======================  ==========  =====================
kind            hot representation      bytes/dim   scoring kernel
==============  ======================  ==========  =====================
``"none"``      float32 matrices        4           BLAS (bit-identical)
``"float16"``   float16 matrices        2           up-cast GEMV/GEMM
``"int8"``      uint8 min/max codes     1           affine-rescaled GEMV
``"pq"``        PQ codes + codebooks    1/pq_dims   ADC lookup tables
==============  ======================  ==========  =====================

Compressed backends keep an optional full-precision cold tier
(``keep_exact=True``) consulted only by the ``refine=`` rerank stage and
by compaction; :meth:`VectorStore.hot_bytes` is the resident figure.
"""

from repro.store.base import (
    STORE_KINDS,
    ModalityKernel,
    StackedKernel,
    VectorStore,
    dot_error,
    make_store,
    max_row_norm,
    register_store,
    store_from_arrays,
)
from repro.store.dense import DenseStore, HalfStore
from repro.store.mmap import (
    ColdPlane,
    GatherPlane,
    MmapPlane,
    ResidentPlane,
    as_cold_plane,
    evict_page_cache,
    spill_cold,
)
from repro.store.pq import PQStore
from repro.store.quant import ScalarQuantStore

__all__ = [
    "STORE_KINDS",
    "ModalityKernel",
    "StackedKernel",
    "VectorStore",
    "dot_error",
    "make_store",
    "max_row_norm",
    "register_store",
    "store_from_arrays",
    "DenseStore",
    "HalfStore",
    "ScalarQuantStore",
    "PQStore",
    "ColdPlane",
    "ResidentPlane",
    "MmapPlane",
    "GatherPlane",
    "as_cold_plane",
    "spill_cold",
    "evict_page_cache",
]
