"""The MUST framework facade (paper §IV, Fig. 4).

Ties the pieces together behind one object:

* **Embedding** is upstream (a :class:`~repro.datasets.base.EncodedDataset`
  or any :class:`~repro.core.multivector.MultiVectorSet`) — pluggable.
* **Vector weight learning** — :meth:`MUST.fit_weights` trains the §VI
  model on (anchor, positive) pairs and installs the learned weights.
* **Indexing** — :meth:`MUST.build` constructs the fused proximity graph
  (Algorithm 1) under the current weights.
* **Searching** — :meth:`MUST.query` runs the joint search
  (Algorithm 2) through the typed request surface: per-query weight
  overrides (Fig. 4(g) Option 2), attribute filters, exact brute
  force.  It is the only search entry point; the plan is executed by
  :func:`repro.index.executor.execute`.

Typical usage::

    must = MUST.from_dataset(encoded)
    must.fit_weights(train_queries, train_positive_ids)
    must.build()
    result = must.query(Query(vector), SearchOptions(k=10, l=100))
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.attributes import AttributeTable
from repro.core.multivector import MultiVector, MultiVectorSet
from repro.core.query import Query, SearchOptions, as_query
from repro.core.results import SearchResult
from repro.core.space import JointSpace
from repro.core.weights import Weights
from repro.index.base import GraphIndex, reseat_on_store
from repro.index.executor import BatchResult, GraphTarget, execute
from repro.index.pipeline import FusedIndexBuilder
from repro.index.search import joint_search  # noqa: F401 - perfbench patches it
from repro.index.segments import MANIFEST_NAME, SegmentedIndex, SegmentPolicy
from repro.store import STORE_KINDS, spill_cold
from repro.utils.io import load_arrays
from repro.utils.validation import require
from repro.weightlearn.trainer import VectorWeightLearner, WeightLearningResult

__all__ = ["MUST"]


class MUST:
    """Multimodal Search of Target Modality — the full framework.

    ``compression`` selects the vector-store backend serving the index
    (:data:`~repro.store.STORE_KINDS`: ``"none"``, ``"float16"``,
    ``"int8"``, ``"pq"``).  The graph is always *built* over the
    full-precision vectors; with a compressed backend it then *serves*
    from the compressed codes (asymmetric kernels), the original
    float32 corpus staying available as the cold exact tier for
    ``SearchOptions(refine=r)`` rerank, ``exact=True`` scans, and
    compaction.  ``store_options`` is forwarded to the backend
    (``keep_exact``, PQ's ``pq_dims``/``pq_centroids``/``seed``, …).
    """

    name = "MUST"

    def __init__(
        self,
        objects: MultiVectorSet,
        weights: Weights | None = None,
        builder=None,
        segment_policy: SegmentPolicy | None = None,
        compression: str = "none",
        store_options: dict | None = None,
        cold_storage: str = "resident",
        data_dir: str | Path | None = None,
        metrics: Sequence[str] | None = None,
    ):
        require(
            compression in STORE_KINDS,
            f"unknown compression {compression!r}; supported: "
            f"{sorted(STORE_KINDS)}",
        )
        require(
            cold_storage in ("resident", "mmap"),
            f"unknown cold_storage {cold_storage!r}; supported: "
            f"'resident', 'mmap'",
        )
        if cold_storage == "mmap":
            require(
                compression != "none",
                "cold_storage='mmap' requires a compressed hot tier "
                "(float16/int8/pq) — a dense store serves graph "
                "traversal from the float32 corpus itself, which must "
                "stay resident",
            )
            require(
                data_dir is not None,
                "cold_storage='mmap' requires data_dir= (the directory "
                "that receives the per-segment cold-tier .npy files)",
            )
            require(
                bool((store_options or {}).get("keep_exact", True)),
                "cold_storage='mmap' spills the exact cold tier to disk "
                "— keep_exact=False leaves nothing to spill",
            )
        #: where compressed segments' exact cold tier lives — see the
        #: class docstring; ``"mmap"`` makes resident bytes O(hot).
        self.cold_storage = cold_storage
        self.data_dir = None if data_dir is None else Path(data_dir)
        if metrics is not None:
            # Per-modality metric declarations are validated at
            # construction, so a typo ("cosin") fails here with the
            # registry's did-you-mean hint rather than at first query.
            objects = MultiVectorSet.from_store(
                objects.store,
                attributes=objects.attributes,
                sparse=objects.sparse,
                metrics=tuple(metrics),
            )
        self.objects = objects
        self.weights = weights or Weights.uniform(objects.num_modalities)
        self.builder = builder or FusedIndexBuilder()
        #: Seal/compaction knobs used once :meth:`insert` switches the
        #: instance to the segmented subsystem.
        self.segment_policy = segment_policy
        self.compression = compression
        self.store_options = dict(store_options or {})
        self._index: GraphIndex | None = None
        self._segments: SegmentedIndex | None = None
        self._space: JointSpace | None = None
        self.weight_result: WeightLearningResult | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset, **kwargs) -> "MUST":
        """Build from an :class:`~repro.datasets.base.EncodedDataset`."""
        return cls(dataset.objects, **kwargs)

    # ------------------------------------------------------------------
    # Stage 2: vector weight learning (§VI)
    # ------------------------------------------------------------------
    def fit_weights(
        self,
        anchors: list[MultiVector],
        positive_object_ids: np.ndarray,
        pool_object_ids: np.ndarray | None = None,
        **learner_kwargs,
    ) -> WeightLearningResult:
        """Learn modality weights from training queries.

        ``positive_object_ids[b]`` is the corpus id of anchor ``b``'s true
        object.  The mining pool ``T`` defaults to the **whole corpus**:
        the paper mines negatives from its true-object set, which at its
        query volumes (up to 72k queries) covers the corpus densely — at
        reproduction scale the corpus itself is the faithful equivalent
        (pass ``pool_object_ids=np.unique(positive_object_ids)`` for the
        literal positives-only construction).  The learned weights are
        installed on this instance; call :meth:`build` afterwards, since
        the fused index depends on the weights.
        """
        require(
            self._segments is None,
            "cannot change weights after streaming inserts: segment graphs "
            "and inserted vectors are bound to the old weights — fit "
            "weights before going dynamic, or rebuild a fresh MUST",
        )
        positive_object_ids = np.asarray(positive_object_ids, dtype=np.int64)
        if pool_object_ids is None:
            pool_object_ids = np.arange(self.objects.n, dtype=np.int64)
        else:
            pool_object_ids = np.asarray(pool_object_ids, dtype=np.int64)
            missing = np.setdiff1d(positive_object_ids, pool_object_ids)
            require(missing.size == 0,
                    "every positive must be contained in the pool")
        pool = self.objects.subset(pool_object_ids)
        lookup = {int(obj): row for row, obj in enumerate(pool_object_ids)}
        positions = np.asarray(
            [lookup[int(obj)] for obj in positive_object_ids], dtype=np.int64
        )
        learner = VectorWeightLearner(**learner_kwargs)
        result = learner.fit(anchors, positions, pool)
        self.weight_result = result
        self.set_weights(result.weights)
        return result

    def set_weights(self, weights: Weights) -> None:
        """Install user-defined weights (Fig. 4(g) Option 2)."""
        require(
            self._segments is None,
            "cannot change weights after streaming inserts: segment graphs "
            "and inserted vectors are bound to the old weights — fit "
            "weights before going dynamic, or rebuild a fresh MUST",
        )
        self.weights = weights
        self._space = None  # weights changed → spaces/indexes are stale
        self._index = None

    def set_attributes(self, attributes: AttributeTable | dict) -> "MUST":
        """Attach the per-corpus attribute table that filters compile
        against (one value per object per named field).

        Accepts an :class:`~repro.core.attributes.AttributeTable` or a
        plain ``{field: values}`` mapping.  Attach before going dynamic:
        once streaming inserts have split the corpus into segments, each
        segment owns its attribute slice and new attributes arrive on
        the inserted :class:`MultiVectorSet` itself.
        """
        require(
            self._segments is None,
            "cannot attach attributes after streaming inserts — each "
            "segment owns its attribute slice; pass attributes on the "
            "inserted MultiVectorSet instead",
        )
        self.objects.set_attributes(attributes)
        if (
            self._index is not None
            and self._index.space.vectors is not self.objects
        ):
            # A compressed build re-seats the graph on a different
            # MultiVectorSet; mirror the table so filters compile on the
            # serving store too.
            self._index.space.vectors.set_attributes(self.objects.attributes)
        return self

    def set_sparse(self, sparse) -> "MUST":
        """Attach the sparse lexical plane hybrid queries score against
        (row ``j`` of the plane holds object ``j``'s term frequencies,
        exactly as row ``j`` of each dense matrix holds its vector).

        Accepts a :class:`~repro.sparse.store.SparseStore` (build one
        with ``SparseStore.from_rows``).  Attach before going dynamic:
        once streaming inserts have split the corpus into segments, each
        segment owns its sparse slice and new rows arrive on the
        inserted :class:`MultiVectorSet` itself.
        """
        require(
            self._segments is None,
            "cannot attach a sparse plane after streaming inserts — each "
            "segment owns its sparse slice; pass sparse= on the inserted "
            "MultiVectorSet instead",
        )
        self.objects.set_sparse(sparse)
        if (
            self._index is not None
            and self._index.space.vectors is not self.objects
        ):
            # Mirror onto the re-seated serving store, exactly as
            # set_attributes does for the attribute table.
            self._index.space.vectors.set_sparse(self.objects.sparse)
        return self

    # ------------------------------------------------------------------
    # Stage 3: indexing (§VII-A)
    # ------------------------------------------------------------------
    @property
    def space(self) -> JointSpace:
        if self._space is None:
            self._space = JointSpace(self.objects, self.weights)
        return self._space

    @property
    def index(self) -> GraphIndex:
        require(self._index is not None, "call build() first")
        return self._index

    @property
    def segments(self) -> SegmentedIndex:
        """The segmented subsystem (only exists after :meth:`insert` or
        loading a segment manifest)."""
        require(self._segments is not None,
                "no segmented index — call insert() first")
        return self._segments

    @property
    def is_built(self) -> bool:
        return self._index is not None or self._segments is not None

    @property
    def is_segmented(self) -> bool:
        return self._segments is not None

    def build(self) -> "MUST":
        """Construct the fused proximity-graph index (Algorithm 1).

        With ``compression=`` the build itself runs over full-precision
        vectors; the finished graph is then re-seated on the compressed
        store, so query-time scoring reads the hot codes.  With
        ``cold_storage="mmap"`` the store's exact cold tier is then
        spilled to ``data_dir`` and served through a lazy memory
        mapping — only the hot codes stay resident.
        """
        require(
            self._segments is None,
            "rebuilding from the original corpus would discard streamed "
            "objects and tombstones (and recycle their external ids) — "
            "use compact() to reconstruct a segmented index",
        )
        require(
            self.objects.is_ip_only,
            f"build() fuses modalities via the Lemma-1 concatenation, "
            f"which requires metric 'ip' on every dense modality "
            f"(declared: {list(self.objects.metrics)}) — cosine/l2 "
            f"modalities are served by the exact paths "
            f"(SearchOptions(exact=True))",
        )
        index = reseat_on_store(
            self.builder.build(self.space), self.compression,
            self.store_options,
        )
        if self.cold_storage == "mmap":
            index = self._spill_index(index)
        self._index = index
        return self

    def _spill_index(self, index: GraphIndex) -> GraphIndex:
        """Move a built index's resident cold tier into ``data_dir``
        sidecar files (no-op when absent or already mapped)."""
        vectors = index.space.vectors
        store = vectors.store
        plane = store.cold_plane
        if plane is None or not plane.is_resident:
            return index
        self.data_dir.mkdir(parents=True, exist_ok=True)
        seq = SegmentedIndex._scan_cold_seq(self.data_dir)
        spilled = spill_cold(store, self.data_dir, f"seg_{seq:06d}")
        index.space = JointSpace(
            MultiVectorSet.from_store(
                spilled,
                attributes=vectors.attributes,
                sparse=vectors.sparse,
                metrics=vectors.declared_metrics,
            ),
            index.space.weights,
        )
        return index

    # ------------------------------------------------------------------
    # Stage 4: searching (§VII-B) — the unified typed entry point
    # ------------------------------------------------------------------
    def query(
        self,
        queries: "Query | MultiVector | Sequence[Query | MultiVector]",
        options: SearchOptions | None = None,
    ) -> SearchResult | BatchResult:
        """Joint top-*k* search through the typed request surface.

        The only search entry point.  *queries* is one
        :class:`~repro.core.query.Query` (or a raw
        :class:`MultiVector`) for a single
        :class:`~repro.core.results.SearchResult`, or a sequence of them
        for a :class:`~repro.index.executor.BatchResult`; *options* is a
        validated :class:`~repro.core.query.SearchOptions` plan (default
        plan when omitted).

        Per-query ``weights`` / ``filter`` / ``k`` ride inside each
        :class:`Query`; a filter compiles against the corpus attribute
        table (:meth:`set_attributes`) and is intersected with the §IX
        deletion bitsets — exact paths are then bit-identical to an
        unfiltered search over the post-filtered corpus, while graph
        paths treat masked-out vertices as routable but not reportable.

        A hybrid query (``Query.sparse``) on a graph plan is a row of
        the same search as its plain batch-mates: its dense traversal
        fills an ``l``-wide candidate pool, which is fused with the
        sparse engine's top admissible rows and rescored under the
        combined metric
        (:func:`~repro.sparse.hybrid.hybrid_union_rescore`).  The
        rescore reads the serving store's hot tier — decoded PQ/int8
        rows under ``compression=``, never the cold exact plane — and
        takes the place of ``options.refine`` for that query.

        Determinism: an answer is a function of the index and the
        query — every graph search starts from the graph's fixed entry
        order (:meth:`GraphIndex.entry_points`), so the same query reads
        the same alone, at any batch position, from a snapshot, served,
        or after :meth:`save` / :meth:`from_saved`.
        """
        opts = options if options is not None else SearchOptions()
        # Not require(): it would format the message on every query.
        if not isinstance(opts, SearchOptions):
            raise ValueError(
                f"options must be a SearchOptions instance, got "
                f"{type(opts).__name__} — build one with SearchOptions(...)"
            )
        target = (
            self._segments.view()
            if self._segments is not None
            else GraphTarget(self._index, self.space)
        )
        if isinstance(queries, (Query, MultiVector)):
            return execute(
                target, [as_query(queries)], opts, independent=True
            ).results[0]
        return execute(target, [as_query(q) for q in queries], opts)

    # ------------------------------------------------------------------
    # Serving (snapshot reads + micro-batch coalescing)
    # ------------------------------------------------------------------
    def snapshot(self):
        """A frozen, searchable view of the current index state.

        Returns an :class:`~repro.service.IndexSnapshot`: later
        :meth:`insert` / :meth:`mark_deleted` / :meth:`compact` calls
        never change what it answers, and its ``query`` mirrors
        :meth:`query` bit for bit at capture time.  Capturing is cheap
        (no vector data is copied).  When other threads may be mutating
        this instance, serialise the capture with them — or use
        :meth:`serve`, which does.
        """
        from repro.service.snapshot import IndexSnapshot

        return IndexSnapshot.of(self)

    def serve(self, config=None, **config_kwargs):
        """Wrap this built instance in a concurrent serving front-end.

        Returns a started :class:`~repro.service.MustService`: client
        threads call ``service.search`` concurrently, the dispatcher
        coalesces them into batched waves over snapshots, and writes
        routed through the service proceed without blocking reads.
        Pass a :class:`~repro.service.ServiceConfig` or its fields as
        keyword arguments (``max_batch=64, max_wait_ms=1.0, ...``).
        """
        from repro.service.service import MustService, ServiceConfig

        if config is None:
            config = ServiceConfig(**config_kwargs)
        else:
            require(
                not config_kwargs,
                "pass either a ServiceConfig or its fields, not both",
            )
        return MustService(self, config)

    def serve_sharded(
        self, n_shards: int = 2, config=None, **kwargs
    ):
        """Wrap this built instance in the process-sharded serving tier.

        Returns a started :class:`~repro.service.ShardedService`: the
        corpus is partitioned by external id across ``n_shards`` worker
        processes (vector planes shared at spawn, never pickled on the
        hot path), each coalesced wave scatters to every shard, and the
        gathered exact answers merge bit-identically to this instance's
        own :meth:`query`.  ``config`` / extra keyword arguments are
        the same :class:`~repro.service.ServiceConfig` fields as
        :meth:`serve`; ``worker_timeout_s`` / ``mp_start`` pass through
        to the sharded constructor.
        """
        from repro.service.service import ServiceConfig
        from repro.service.sharded import ShardedService

        passthrough = {
            key: kwargs.pop(key)
            for key in ("worker_timeout_s", "spawn_timeout_s", "mp_start")
            if key in kwargs
        }
        if config is None:
            config = ServiceConfig(**kwargs)
        else:
            require(
                not kwargs,
                "pass either a ServiceConfig or its fields, not both",
            )
        return ShardedService(
            self, n_shards=n_shards, config=config, **passthrough
        )

    # ------------------------------------------------------------------
    # Dynamic updates (paper §IX, segmented subsystem)
    # ------------------------------------------------------------------
    def insert(self, objects: MultiVectorSet | MultiVector) -> np.ndarray:
        """Stream new objects into the live index; returns their ids.

        The first insert switches the instance to the segmented
        subsystem: the existing fused graph becomes sealed segment 0
        (its rows keep ids ``0..n-1``) and new objects are appended to
        a mutable delta segment, scanned by every search until it seals
        into a fused graph of its own.  Sealing and compaction run
        automatically per
        :class:`~repro.index.segments.SegmentPolicy` (override via the
        ``segment_policy`` constructor argument).  An unbuilt instance is
        built first.
        """
        return self._ensure_segments().insert(objects)

    def mark_deleted(self, object_ids: np.ndarray) -> None:
        """Soft-delete objects (data-status bitset, §IX).

        Deleted objects stop appearing in results immediately but keep
        routing searches — proximity graphs need periodic reconstruction
        to physically remove them; see :meth:`compact` (automatic on a
        segmented instance once the tombstone ratio crosses the policy
        threshold).
        """
        if self._segments is not None:
            self._segments.mark_deleted(object_ids)
            return
        self.index.mark_deleted(object_ids)

    def compact(self) -> tuple["MUST", np.ndarray]:
        """Reconstruct over the active subset (§IX periodic rebuild).

        Returns ``(must, active_ids)``.  On a segmented instance the
        rebuild happens **in place** (all segments merge into one fresh
        sealed segment, tombstones dropped, external ids preserved) and
        ``must is self``; otherwise the legacy behaviour returns a
        freshly built framework over the surviving objects, where row
        ``j`` of the new corpus is object ``active_ids[j]`` of the old.
        """
        if self._segments is not None:
            active = self._segments.compact()
            self._drop_caches()
            return self, active
        active = self.index.active_ids()
        fresh = MUST(
            self.objects.subset(active),
            weights=self.weights,
            builder=self.builder,
            segment_policy=self.segment_policy,
            compression=self.compression,
            store_options=self.store_options,
            cold_storage=self.cold_storage,
            data_dir=self.data_dir,
        )
        fresh.build()
        self._drop_caches()
        return fresh, active

    def memory_stats(self) -> dict:
        """Byte accounting split by tier: ``hot_bytes`` (always
        resident), ``cold_bytes`` (logical exact-tier size wherever it
        lives), ``resident_bytes`` (hot plus the RAM-resident part of
        cold — equal to hot under ``cold_storage="mmap"``)."""
        if self._segments is not None:
            return self._segments.memory_stats()
        require(self._index is not None, "call build() first")
        store = self._index.space.vectors.store
        return {
            "hot_bytes": int(store.hot_bytes()),
            "cold_bytes": int(store.cold_bytes()),
            "resident_bytes": int(store.resident_bytes()),
        }

    def _drop_caches(self) -> None:
        """Release the lazily materialised per-space cache (the ω-scaled
        concatenation) after a compaction — the rebuilt index no longer
        needs the old corpus's derived state pinned in memory."""
        if self._space is not None:
            self._space.drop_caches()
        if self._index is not None:
            self._index.space.drop_caches()

    def _ensure_segments(self) -> SegmentedIndex:
        if self._segments is None:
            if self._index is None:
                self.build()
            self._segments = SegmentedIndex.from_graph(
                self._index,
                builder=self.builder,
                policy=self.segment_policy,
                compression=self.compression,
                store_options=self.store_options,
                cold_storage=self.cold_storage,
                data_dir=self.data_dir,
            )
            self._index = None
        return self._segments

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save_index(self, path: str | Path) -> None:
        """Persist the index; weights go in the metadata.

        A classic single-graph index saves as one ``.npz`` archive
        (graph structure only — vectors stay with the corpus).  A
        segmented instance saves *path* as a directory: a manifest plus
        one ``.npz`` per segment, vectors included, so streamed objects
        survive the round-trip.
        """
        if self._segments is not None:
            self._segments.save(path)
            return
        require(self._index is not None, "call build() first")
        self._index.meta["squared_weights"] = [
            float(x) for x in self.weights.squared
        ]
        # Store kind + options ride along so a reload re-derives the
        # same compressed serving store (codebook training is
        # deterministic given the corpus and these options).
        self._index.meta["compression"] = self.compression
        self._index.meta["store_options"] = {
            k: v
            for k, v in self.store_options.items()
            if isinstance(v, (str, int, float, bool))
        }
        self._index.save(path)

    def load_index(self, path: str | Path) -> "MUST":
        """Restore an index saved by :meth:`save_index`.

        Directories holding a segment manifest load the full segmented
        state; plain archives load the legacy single-graph path for these
        objects.  Either way the archive is read once — stored weights
        are applied before the graph is bound to its space, not by
        re-reading the file.

        Loading is **atomic**: every fallible step (archive reads,
        store reconstruction, graph rebinding) runs before any instance
        state is touched, so a corrupt or incompatible save raises and
        leaves this instance exactly as it was.
        """
        path = Path(path)
        if path.is_dir() or (path / MANIFEST_NAME).exists():
            segments = SegmentedIndex.load(path, builder=self.builder)
            self._segments = segments
            self.weights = segments.weights
            self.cold_storage = segments.cold_storage
            self.data_dir = segments.data_dir
            self._space = None
            self._index = None
            return self
        metadata, arrays = load_arrays(path)
        meta = metadata.get("meta", {})
        stored = meta.get("squared_weights")
        weights = self.weights if stored is None else Weights(stored)
        stored_kind = meta.get("compression", "none")
        if stored_kind != "none":
            require(
                stored_kind in STORE_KINDS,
                f"index was saved with compression {stored_kind!r}; this "
                f"build supports {sorted(STORE_KINDS)} — upgrade the "
                f"library or rebuild the index",
            )
            # Restore the saved codec options too: retraining with
            # different ones would silently serve different codes than
            # the index was built and benchmarked with.
            compression = stored_kind
            store_options = dict(meta.get("store_options", {}))
        else:
            compression = self.compression
            store_options = self.store_options
        space = JointSpace(self.objects, weights)
        index = reseat_on_store(
            GraphIndex.from_arrays(metadata, arrays, space),
            compression,
            store_options,
        )
        if self.cold_storage == "mmap":
            index = self._spill_index(index)
        # All fallible work is done — commit.
        self.weights = weights
        self.compression = compression
        self.store_options = store_options
        self._space = space
        self._index = index
        self._segments = None
        return self

    @classmethod
    def from_saved(cls, path: str | Path, builder=None) -> "MUST":
        """Serve a saved *segmented* index without the original corpus.

        Segment archives carry their vectors, so a serving process
        never needs the corpus the index was built from — the seam that
        lets a beyond-RAM index load on a machine that could not hold
        the float32 corpus in the first place.  The returned instance
        holds a placeholder one-row corpus: query/serve/insert/compact
        all work (they read the segments), but corpus-bound stages
        (``fit_weights``, ``build``) need the real objects.
        """
        path = Path(path)
        require(
            path.is_dir() or (path / MANIFEST_NAME).exists(),
            f"{path} is not a segmented index directory — from_saved "
            f"restores directory saves (MUST.save_index of a segmented "
            f"instance); for single-graph archives construct MUST with "
            f"the corpus and call load_index",
        )
        segments = SegmentedIndex.load(path, builder=builder)
        dims = segments._modality_dims()
        placeholder = MultiVectorSet(
            [np.zeros((1, d), dtype=np.float32) for d in dims]
        )
        must = cls(
            placeholder,
            weights=segments.weights,
            builder=builder,
            compression=segments.compression,
            store_options=segments.store_options,
            cold_storage=segments.cold_storage,
            data_dir=segments.data_dir,
        )
        must._segments = segments
        return must
