"""Concurrent serving layer: micro-batch coalescing + snapshot reads.

The production front-end over :class:`~repro.core.framework.MUST`:
many independent callers submit single queries, a dispatcher thread
coalesces them into batched GEMM waves against immutable index
snapshots, and writers stream inserts/deletes/compactions concurrently
without ever locking the read path.  See
:class:`~repro.service.service.MustService` for the full model and
:class:`~repro.service.collections.CollectionManager` for hosting many
named collections (workspaces) behind one service with per-tenant
admission quotas.
"""

from repro.service.collections import (
    DEFAULT_COLLECTION,
    Collection,
    CollectionManager,
    CollectionQuota,
    UnknownCollection,
)
from repro.service.service import (
    CollectionOverloaded,
    MustService,
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
)
from repro.service.snapshot import IndexSnapshot
from repro.service.stats import ServiceStats

__all__ = [
    "MustService",
    "ServiceConfig",
    "ServiceClosed",
    "ServiceOverloaded",
    "CollectionOverloaded",
    "IndexSnapshot",
    "ServiceStats",
    "Collection",
    "CollectionManager",
    "CollectionQuota",
    "UnknownCollection",
    "DEFAULT_COLLECTION",
]
