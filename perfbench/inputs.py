"""Seeded inputs: corpora, query pools, traffic mix, schedules, deletes.

Everything a workload feeds the program derives from ``--seed`` here;
the program only ever receives the generated inputs.  Each ``*Inputs``
exposes ``arrays()`` — every generated array in a fixed order — so
:func:`digest` can show that one seed gives byte-identical inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.multivector import MultiVector, MultiVectorSet
from repro.core.query import Eq, Query, Range, SearchOptions
from repro.datasets.largescale import encode_largescale, make_largescale
from repro.sparse.synthetic import HybridDataset, synthetic_hybrid

__all__ = [
    "Scale",
    "SCALES",
    "SingleInputs",
    "ServeInputs",
    "ChurnInputs",
    "HybridInputs",
    "digest",
    "BATCH",
]

#: queries per batch call (churn, hybrid_compressed) and k everywhere.
BATCH = 32
K = 10

# churn: one cycle = 4 inserts of 16, 4 query batches, 1 delete of 24.
INSERTS_PER_CYCLE = 4
INSERT_SIZE = 16
QUERY_CALLS_PER_CYCLE = 4
DELETES_PER_CYCLE = 24
CHURN_MAX_SEGMENTS = 3

# serve_open: the three open-loop rates, req/s.  Fixed absolute rates,
# so a parent commit and a change face the same load.
SERVE_RATES = (150, 300, 450)
SERVE_MID_RATE = 300
SERVE_EXACT_SHARE = 0.4
SERVE_CATEGORIES = 10

# hybrid_compressed: share of queries that carry lexical terms.  The
# rest are plain dense queries, which stay in the wave engine and are
# the ones refine= reranks from the mmap cold tier.
HYBRID_SHARE = 0.75


@dataclass(frozen=True)
class Scale:
    """Corpus sizes.  ``full`` is what the driver runs; ``smoke`` keeps
    the tier-1 test under a minute."""

    name: str
    single_n: int
    serve_base: int
    serve_extra: int  # inserted after build, in serve_insert-object calls
    serve_insert: int
    serve_seal: int
    churn_n0: int
    churn_seal: int  # multiple of 64 (objects inserted per cycle)
    churn_lap_seconds: float  # nominal lap duration on the reference host
    hybrid_topics: int  # x 50 objects
    pool: int
    heldout: int
    setups: int  # set-up repetitions behind the setup_s median
    min_beyond: int  # samples a reported percentile needs beyond it

    @property
    def churn_cycles_per_lap(self) -> int:
        """Cycles between two compactions: a lap holds exactly one."""
        per_cycle = INSERTS_PER_CYCLE * INSERT_SIZE
        return self.churn_seal // per_cycle * CHURN_MAX_SEGMENTS


SCALES = {
    "full": Scale(
        name="full", single_n=4000, serve_base=4000, serve_extra=650,
        serve_insert=100, serve_seal=200, churn_n0=1500, churn_seal=192,
        churn_lap_seconds=3.4, hybrid_topics=80, pool=1024, heldout=256,
        setups=3, min_beyond=10,
    ),
    "smoke": Scale(
        name="smoke", single_n=1000, serve_base=800, serve_extra=240,
        serve_insert=60, serve_seal=80, churn_n0=600, churn_seal=64,
        churn_lap_seconds=0.5, hybrid_topics=20, pool=256, heldout=64,
        setups=1, min_beyond=0,
    ),
}


def _rng(seed: int, tag: str) -> np.random.Generator:
    word = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, word]))


def _image_corpus(
    seed: int, n: int, scale: "Scale"
) -> tuple[MultiVectorSet, list[MultiVector]]:
    """ImageText corpus of *n* objects with its pool + held-out queries."""
    sem = make_largescale(
        "image", n=n, num_queries=scale.pool + scale.heldout, seed=seed
    )
    enc = encode_largescale(sem, seed=seed)
    return enc.objects, list(enc.queries)


def _vector_arrays(vectors: list[MultiVector]) -> list[np.ndarray]:
    return [np.stack([v.vectors[i] for v in vectors])
            for i in range(vectors[0].num_modalities)]


def digest(arrays: list[np.ndarray]) -> str:
    """SHA-256 over dtype, shape and bytes of every array, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# single_query
# ----------------------------------------------------------------------
@dataclass
class SingleInputs:
    objects: MultiVectorSet
    pool: list[Query]
    heldout: list[Query]
    order: np.ndarray  # the order the caller cycles through the pool
    options: SearchOptions = field(
        default_factory=lambda: SearchOptions(k=K, l=100)
    )

    @classmethod
    def generate(cls, seed: int, scale: Scale) -> "SingleInputs":
        objects, queries = _image_corpus(seed, scale.single_n, scale)
        typed = [Query(q) for q in queries]
        return cls(
            objects=objects,
            pool=typed[: scale.pool],
            heldout=typed[scale.pool:],
            order=_rng(seed, "single-order").permutation(scale.pool),
        )

    def arrays(self) -> list[np.ndarray]:
        return [
            *self.objects.matrices,
            *_vector_arrays([q.vector for q in self.pool + self.heldout]),
            self.order,
        ]


# ----------------------------------------------------------------------
# serve_open
# ----------------------------------------------------------------------
@dataclass
class ServeInputs:
    base: MultiVectorSet  # with attributes
    inserts: list[MultiVectorSet]
    requests: list[tuple[Query, SearchOptions]]  # the pool, mix applied
    is_exact: np.ndarray  # mix draw per pool entry
    category: np.ndarray  # filter value per pool entry (exact ones use it)
    heldout: list[Query]
    gaps: np.ndarray  # unit-rate exponential gaps; due = cumsum / rate
    order: np.ndarray
    attributes: dict[str, np.ndarray]
    graph_options: SearchOptions = field(
        default_factory=lambda: SearchOptions(k=K, l=100, engine="wave")
    )
    exact_options: SearchOptions = field(
        default_factory=lambda: SearchOptions(k=K, exact=True)
    )

    @classmethod
    def generate(cls, seed: int, scale: Scale, seconds: float) -> "ServeInputs":
        n = scale.serve_base + scale.serve_extra
        objects, queries = _image_corpus(seed, n, scale)
        rng = _rng(seed, "serve")
        attributes = {
            "category": rng.integers(SERVE_CATEGORIES, size=n),
            "price": rng.uniform(0.0, 100.0, size=n),
        }

        def piece(lo: int, hi: int) -> MultiVectorSet:
            ids = np.arange(lo, hi)
            part = objects.subset(ids)
            part.set_attributes({k: v[ids] for k, v in attributes.items()})
            return part

        is_exact = rng.random(scale.pool) < SERVE_EXACT_SHARE
        category = rng.integers(SERVE_CATEGORIES, size=scale.pool)
        inputs = cls(
            base=piece(0, scale.serve_base),
            inserts=[
                piece(lo, min(lo + scale.serve_insert, n))
                for lo in range(scale.serve_base, n, scale.serve_insert)
            ],
            requests=[],
            is_exact=is_exact,
            category=category,
            heldout=[Query(q) for q in queries[scale.pool:]],
            # Enough arrivals for the longest step at the highest rate.
            gaps=rng.exponential(
                1.0, size=int(max(SERVE_RATES) * seconds) + 64
            ),
            order=rng.permutation(scale.pool),
            attributes=attributes,
        )
        # Every request carries its own Filter instance, as independent
        # clients would send it.
        for q, exact, cat in zip(queries[: scale.pool], is_exact, category):
            if exact:
                flt = Eq("category", int(cat)) & Range("price", high=50.0)
                inputs.requests.append(
                    (Query(q, filter=flt), inputs.exact_options)
                )
            else:
                inputs.requests.append((Query(q), inputs.graph_options))
        return inputs

    def due_times(self, rate: float, count: int) -> np.ndarray:
        """Poisson arrival offsets (s) of an open-loop step of *count*
        requests at *rate* per second."""
        return np.cumsum(self.gaps[:count]) / rate

    def arrays(self) -> list[np.ndarray]:
        return [
            *self.base.matrices,
            *(m for part in self.inserts for m in part.matrices),
            self.attributes["category"],
            self.attributes["price"],
            *_vector_arrays(
                [q.vector for q, _ in self.requests]
                + [q.vector for q in self.heldout]
            ),
            self.is_exact,
            self.category,
            self.gaps,
            self.order,
        ]


# ----------------------------------------------------------------------
# churn
# ----------------------------------------------------------------------
@dataclass
class ChurnInputs:
    base: MultiVectorSet
    inserts: list[MultiVectorSet]  # INSERTS_PER_CYCLE per cycle
    pool: list[Query]
    picks: np.ndarray  # (query calls, BATCH) pool indices, 4 rows per cycle
    deletes: list[np.ndarray]  # one per cycle, live external ids
    heldout: list[Query]
    cycles: int
    options: SearchOptions = field(
        default_factory=lambda: SearchOptions(k=K, l=100, engine="wave")
    )

    @classmethod
    def generate(cls, seed: int, scale: Scale, cycles: int) -> "ChurnInputs":
        per_cycle = INSERTS_PER_CYCLE * INSERT_SIZE
        n = scale.churn_n0 + cycles * per_cycle
        objects, queries = _image_corpus(seed, n, scale)
        rng = _rng(seed, "churn")
        pool = [Query(q) for q in queries[: scale.pool]]
        picks = rng.integers(
            scale.pool, size=(cycles * QUERY_CALLS_PER_CYCLE, BATCH)
        )
        # External ids are allocated in insertion order, so the live set
        # at every delete is known without asking the program.
        live = list(range(scale.churn_n0))
        deletes = []
        for cycle in range(cycles):
            first = scale.churn_n0 + cycle * per_cycle
            live.extend(range(first, first + per_cycle))
            chosen = rng.choice(len(live), DELETES_PER_CYCLE, replace=False)
            deletes.append(np.asarray(sorted(live[i] for i in chosen)))
            for i in sorted(chosen, reverse=True):
                live.pop(int(i))
        return cls(
            base=objects.subset(np.arange(scale.churn_n0)),
            inserts=[
                objects.subset(np.arange(lo, lo + INSERT_SIZE))
                for lo in range(scale.churn_n0, n, INSERT_SIZE)
            ],
            pool=pool,
            picks=picks,
            deletes=deletes,
            heldout=[Query(q) for q in queries[scale.pool:]],
            cycles=cycles,
        )

    def batch(self, call: int) -> list[Query]:
        return [self.pool[i] for i in self.picks[call]]

    def arrays(self) -> list[np.ndarray]:
        return [
            *self.base.matrices,
            *(m for part in self.inserts for m in part.matrices),
            *_vector_arrays([q.vector for q in self.pool + self.heldout]),
            self.picks,
            *self.deletes,
        ]


# ----------------------------------------------------------------------
# hybrid_compressed
# ----------------------------------------------------------------------
@dataclass
class HybridInputs:
    dataset: HybridDataset
    objects: MultiVectorSet  # dense plane + BM25 sparse plane
    pool: list[Query]
    heldout: list[Query]
    is_hybrid: np.ndarray  # mix draw per pool + held-out query
    order: np.ndarray  # pool indices, cut into batches by the caller
    options: SearchOptions = field(
        default_factory=lambda: SearchOptions(
            k=K, l=80, refine=4, engine="wave", sparse_engine="inverted"
        )
    )
    oracle_options: SearchOptions = field(
        default_factory=lambda: SearchOptions(
            k=K, exact=True, sparse_engine="inverted"
        )
    )

    @classmethod
    def generate(cls, seed: int, scale: Scale) -> "HybridInputs":
        ds = synthetic_hybrid(
            n_topics=scale.hybrid_topics,
            groups_per_topic=5,
            group_size=10,
            num_queries=scale.pool + scale.heldout,
            seed=seed,
        )
        is_hybrid = (
            _rng(seed, "hybrid-mix").random(ds.num_queries) < HYBRID_SHARE
        )
        typed = [
            Query(
                MultiVector.from_arrays([qd]),
                sparse=qs if lexical else None,
                sparse_weight=1.0,
            )
            for qd, qs, lexical in zip(
                ds.query_dense, ds.query_sparse, is_hybrid
            )
        ]
        return cls(
            dataset=ds,
            objects=MultiVectorSet([ds.dense], sparse=ds.sparse),
            pool=typed[: scale.pool],
            heldout=typed[scale.pool:],
            is_hybrid=is_hybrid,
            order=_rng(seed, "hybrid-order").permutation(scale.pool),
        )

    def arrays(self) -> list[np.ndarray]:
        ds = self.dataset
        csr = ds.sparse.csr
        return [
            ds.dense,
            csr.indptr, csr.indices, csr.data,
            ds.query_dense,
            *(q.indices for q in ds.query_sparse),
            *(q.values for q in ds.query_sparse),
            self.is_hybrid,
            self.order,
        ]
