"""Named collections: many isolated corpora behind one serving front-end.

A production deployment rarely serves one giant corpus — it serves many
small-to-medium ones (one per user, per tenant, per product surface)
behind a single front-end.  :class:`CollectionManager` is that tenancy
layer: a registry of named :class:`Collection` workspaces, each wrapping
its own built :class:`~repro.core.framework.MUST` (own segments, own
:class:`~repro.core.attributes.AttributeTable`, own learned weights,
own compression / cold-storage config), handed as one unit to
:class:`~repro.service.MustService`.

Isolation is structural, not advisory:

* **Data** — collections never share segments, id spaces, or snapshots;
  a request executes against exactly one collection's index, selected
  by ``SearchOptions(collection=...)`` (``None`` means ``"default"``).
  Answers are bit-identical to a standalone ``MUST`` serving the same
  corpus — the parity suite in ``tests/test_collections.py`` pins this
  across layouts, stores, and cross-tenant write churn.
* **Admission** — each collection carries a :class:`CollectionQuota`
  (queue-depth and in-flight budgets).  A hot tenant exhausting its
  budget is rejected or back-pressured with
  :class:`~repro.service.CollectionOverloaded` while its neighbours
  keep being admitted; the service-wide queue bound still backstops the
  whole box.
* **Observability** — every collection owns a
  :class:`~repro.service.ServiceStats`, so per-tenant latency,
  rejection, and batching numbers come for free next to the global ones.

Persistence is a **manifest of manifests** (``must-collections-v1``): a
directory with one ``collections.json`` naming per-collection
subdirectories, each a plain ``must-segments-v5`` save.  A
single-collection save (a segment directory produced by
``MUST.save_index``) loads as the implicit ``"default"`` collection
bit-identically, so single-tenant deployments migrate without a rebuild.
:meth:`CollectionManager.from_saved` is corpus-free across every
collection, exactly like :meth:`MUST.from_saved`.
"""

from __future__ import annotations

import difflib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.service.stats import ServiceStats
from repro.utils.validation import require

if TYPE_CHECKING:
    from repro.core.framework import MUST
    from repro.service.service import MustService, ServiceConfig
    from repro.service.snapshot import IndexSnapshot

__all__ = [
    "DEFAULT_COLLECTION",
    "Collection",
    "CollectionManager",
    "CollectionQuota",
    "UnknownCollection",
]

#: The collection a request without an explicit ``collection=`` targets,
#: and the name a bare ``MUST`` is registered under by
#: :meth:`CollectionManager.of` — the seam that keeps every
#: single-tenant call site working unchanged.
DEFAULT_COLLECTION = "default"

_MANIFEST_NAME = "collections.json"
_FORMAT = "must-collections-v1"
_FORMAT_VERSION = 1
#: Collection names double as subdirectory names in the persistence
#: layout, so they must be path-safe: no separators, no leading dot
#: (which also rules out ``.`` / ``..`` traversal).
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")

# Private-to-package: the segmented save's own manifest file name, used
# to recognise a single-collection directory save.
_SEGMENTS_MANIFEST = "manifest.json"


class UnknownCollection(KeyError):
    """A request or management call named a collection that does not exist."""


@dataclass(frozen=True)
class CollectionQuota:
    """Per-tenant admission budgets (``None`` = unlimited).

    ``max_pending`` bounds this collection's share of the service queue:
    admitted-but-undispatched requests.  ``max_inflight`` bounds its
    *unanswered* requests (queued or executing) — the knob that caps how
    much of the dispatcher a single tenant can occupy even when the
    queue itself drains fast.  Breaching either rejects (or, under
    ``backpressure="block"``, waits out) the submit with
    :class:`~repro.service.CollectionOverloaded`; other collections'
    admission is untouched.
    """

    max_pending: int | None = None
    max_inflight: int | None = None

    def __post_init__(self) -> None:
        require(
            self.max_pending is None or self.max_pending >= 1,
            f"max_pending must be a positive int or None, "
            f"got {self.max_pending!r}",
        )
        require(
            self.max_inflight is None or self.max_inflight >= 1,
            f"max_inflight must be a positive int or None, "
            f"got {self.max_inflight!r}",
        )

    def to_dict(self) -> dict[str, int | None]:
        return {
            "max_pending": self.max_pending,
            "max_inflight": self.max_inflight,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any] | None) -> "CollectionQuota":
        data = data or {}
        return cls(
            max_pending=data.get("max_pending"),
            max_inflight=data.get("max_inflight"),
        )


class Collection:
    """One named workspace: a built index plus its serving-side state.

    ``must`` is the collection's framework instance; ``quota`` its
    admission budgets; ``stats`` its private
    :class:`~repro.service.ServiceStats`.  The remaining attributes are
    the per-tenant serving state a :class:`~repro.service.MustService`
    keeps: ``epoch`` / ``snap`` / ``snap_epoch`` implement the lazy
    per-collection snapshot cache (mutated only under the service's
    write lock), and ``pending`` / ``inflight`` are the live admission
    counters the quotas compare against (mutated only under the
    service's admit lock).
    """

    def __init__(
        self,
        name: str,
        must: "MUST",
        quota: CollectionQuota | None = None,
        stats: ServiceStats | None = None,
    ) -> None:
        require(
            isinstance(name, str) and _NAME_RE.fullmatch(name) is not None,
            f"invalid collection name {name!r}: use 1-64 characters from "
            f"[A-Za-z0-9._-], not starting with '.' (names double as "
            f"directory names in the persistence layout)",
        )
        self.name = name
        self.must = must
        self.quota = quota if quota is not None else CollectionQuota()
        self.stats = stats if stats is not None else ServiceStats()
        self.epoch = 0
        self.pending = 0
        self.inflight = 0
        self.snap: "IndexSnapshot | None" = None
        self.snap_epoch = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Collection(name={self.name!r}, quota={self.quota!r}, "
            f"epoch={self.epoch}, pending={self.pending}, "
            f"inflight={self.inflight})"
        )


class CollectionManager:
    """Registry of named collections, served as one unit.

    Construct empty and :meth:`create` collections, or lift a bare
    ``MUST`` with :meth:`of` (it becomes the ``"default"`` collection —
    which is why every pre-existing single-tenant call keeps working).
    Hand the manager to :class:`~repro.service.MustService` (or call
    :meth:`serve`) to serve every collection behind one dispatcher.

    Management calls (:meth:`create` / :meth:`drop` / quota changes) are
    configuration-time operations: do them before handing the manager to
    a service, not while it is running.  Iteration is sorted by name.
    """

    def __init__(self) -> None:
        self._collections: dict[str, Collection] = {}

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, source: "MUST | CollectionManager") -> "CollectionManager":
        """Lift *source* into a manager (a no-op on an existing one).

        A bare ``MUST`` registers as the ``"default"`` collection with
        an unlimited quota — the exact single-tenant service of every
        release so far.
        """
        if isinstance(source, CollectionManager):
            return source
        manager = cls()
        manager.create(DEFAULT_COLLECTION, source)
        return manager

    def create(
        self,
        name: str,
        must: "MUST",
        quota: CollectionQuota | None = None,
    ) -> Collection:
        """Register a new collection; returns its :class:`Collection`."""
        collection = Collection(name, must, quota=quota)
        require(
            name not in self._collections,
            f"collection {name!r} already exists — drop() it first or "
            f"pick another name",
        )
        self._collections[name] = collection
        return collection

    def get(self, name: str | None) -> Collection:
        """Resolve *name* (``None`` means ``"default"``) or raise
        :class:`UnknownCollection` with a did-you-mean hint."""
        key = DEFAULT_COLLECTION if name is None else name
        collection = self._collections.get(key) if isinstance(key, str) else None
        if collection is None:
            known = sorted(self._collections)
            hint = ""
            if isinstance(key, str) and known:
                close = difflib.get_close_matches(key, known, n=1)
                if close:
                    hint = f" — did you mean {close[0]!r}?"
            raise UnknownCollection(
                f"unknown collection {key!r}; known collections: "
                f"{known}{hint}"
            )
        return collection

    def drop(self, name: str) -> Collection:
        """Deregister and return a collection.

        In-flight requests holding the :class:`Collection` object still
        complete against it; new submits naming it fail with
        :class:`UnknownCollection`.
        """
        collection = self.get(name)
        del self._collections[collection.name]
        return collection

    def names(self) -> list[str]:
        return sorted(self._collections)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name in self._collections

    def __len__(self) -> int:
        return len(self._collections)

    def __iter__(self) -> Iterator[Collection]:
        for name in sorted(self._collections):
            yield self._collections[name]

    # ------------------------------------------------------------------
    # Serving conveniences
    # ------------------------------------------------------------------
    def serve(
        self,
        config: "ServiceConfig | None" = None,
        start: bool = True,
        **config_kwargs: Any,
    ) -> "MustService":
        """Serve every collection behind one coalescing dispatcher.

        Pass a :class:`~repro.service.ServiceConfig` or its fields as
        keyword arguments; :meth:`MUST.serve` is this call on the
        one-collection manager :meth:`of` lifts it into.
        """
        from repro.service.service import MustService, ServiceConfig

        if config is None:
            config = ServiceConfig(**config_kwargs)
        else:
            require(
                not config_kwargs,
                "pass either a ServiceConfig or its fields, not both",
            )
        return MustService(self, config, start=start)

    # ------------------------------------------------------------------
    # Persistence — manifest of manifests (must-collections-v1)
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist every collection under one directory.

        Layout: ``path/collections.json`` (format ``must-collections-v1``,
        carrying each collection's name, subdirectory, and quota) plus
        one ``path/<name>/`` segmented save per collection — each a
        plain ``must-segments-v5`` directory that ``MUST.from_saved``
        could also load on its own.  Every collection must be in
        segmented form (the state any built instance reaches on its
        first :meth:`MUST.insert`); single-graph instances save alone
        via ``MUST.save_index``.
        """
        require(
            len(self._collections) >= 1,
            "nothing to save: the manager has no collections",
        )
        for collection in self:
            require(
                collection.must.is_built,
                f"collection {collection.name!r} is unbuilt — call "
                f"MUST.build() first",
            )
            require(
                collection.must.is_segmented,
                f"collection {collection.name!r} is a single-graph index; "
                f"the collections layout stores per-collection segment "
                f"manifests — insert() at least once (which seals the "
                f"graph into segment 0) or save it alone with "
                f"MUST.save_index",
            )
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        entries: list[dict[str, Any]] = []
        for collection in self:
            collection.must.save_index(root / collection.name)
            entries.append(
                {
                    "name": collection.name,
                    "path": collection.name,
                    "kind": "segments",
                    "quota": collection.quota.to_dict(),
                }
            )
        manifest = {
            "format": _FORMAT,
            "format_version": _FORMAT_VERSION,
            "collections": entries,
        }
        # Manifest last: a crash mid-save leaves a directory without a
        # readable collections.json rather than one naming missing saves.
        (root / _MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))

    @classmethod
    def from_saved(
        cls,
        path: str | Path,
        builder: Any = None,
    ) -> "CollectionManager":
        """Corpus-free restore of a saved deployment.

        *path* may be a ``must-collections-v1`` directory (every
        collection restores via :meth:`MUST.from_saved`, quotas
        included) **or** a plain segmented save from a single-tenant
        ``MUST.save_index`` — which loads as the implicit ``"default"``
        collection, answering bit-identically to the instance that saved
        it.  ``builder`` seeds each restored instance's graph builder
        for post-load compactions, exactly as in ``MUST.from_saved``.
        """
        from repro.core.framework import MUST

        root = Path(path)
        manifest_path = root / _MANIFEST_NAME
        if not manifest_path.exists():
            require(
                root.is_dir() or (root / _SEGMENTS_MANIFEST).exists(),
                f"{root} is neither a {_FORMAT} directory (no "
                f"{_MANIFEST_NAME}) nor a segmented index save — save "
                f"with CollectionManager.save or MUST.save_index",
            )
            manager = cls()
            manager.create(DEFAULT_COLLECTION, MUST.from_saved(root, builder=builder))
            return manager
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"corrupt collections manifest {manifest_path}: {exc}"
            ) from exc
        require(
            isinstance(manifest, dict) and manifest.get("format") == _FORMAT,
            f"{manifest_path} is not a {_FORMAT} manifest "
            f"(format={manifest.get('format')!r} if it parsed at all)",
        )
        version = manifest.get("format_version")
        require(
            isinstance(version, int) and version <= _FORMAT_VERSION,
            f"{manifest_path} has format_version {version!r}; this build "
            f"reads versions <= {_FORMAT_VERSION} — upgrade the library",
        )
        entries = manifest.get("collections")
        require(
            isinstance(entries, list) and len(entries) >= 1,
            f"{manifest_path} lists no collections",
        )
        manager = cls()
        assert isinstance(entries, list)
        for entry in entries:
            require(
                isinstance(entry, dict) and isinstance(entry.get("name"), str),
                f"{manifest_path}: malformed collection entry {entry!r}",
            )
            name = entry["name"]
            kind = entry.get("kind", "segments")
            require(
                kind == "segments",
                f"collection {name!r} was saved as kind {kind!r}; this "
                f"build restores 'segments' collections only",
            )
            rel = entry.get("path", name)
            require(
                isinstance(rel, str) and _NAME_RE.fullmatch(rel) is not None,
                f"collection {name!r} has an unsafe save path {rel!r}",
            )
            save_dir = root / rel
            if not save_dir.is_dir():
                raise FileNotFoundError(
                    f"collection {name!r}: saved segments missing at "
                    f"{save_dir}"
                )
            manager.create(
                name,
                MUST.from_saved(save_dir, builder=builder),
                quota=CollectionQuota.from_dict(entry.get("quota")),
            )
        return manager

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CollectionManager(collections={self.names()!r})"
