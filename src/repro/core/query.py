"""Typed request surface: queries, search options, and attribute filters.

Every search surface in the library — :meth:`MUST.query`,
:meth:`IndexSnapshot.query`, :class:`~repro.service.MustService` and the
shard workers — takes the same three frozen dataclasses, and
:func:`repro.index.executor.execute` is the one place a plan is
interpreted:

* :class:`Query` — one request: the multi-vector, plus optional
  per-query ``weights`` (Fig. 4(g) Option 2), a structured ``filter``,
  and a per-query ``k`` override.
* :class:`SearchOptions` — the execution plan shared by a wave of
  queries (``k``, ``l``, ``exact``, ``refine``, ``early_termination``,
  ``engine``, ``check_monotone``), validated once at construction with
  errors that name the offending field; a misspelled field name is a
  ``TypeError`` from the dataclass constructor.  A plan carries no
  seed: an answer is a function of the index and the query.
* a :class:`Filter` mini-DSL (:class:`Eq` / :class:`In` /
  :class:`Range` / :class:`And` / :class:`Or` / :class:`Not`) over the
  per-corpus :class:`~repro.core.attributes.AttributeTable`, compiling
  to a boolean candidate mask.  Exact paths intersect the mask into the
  §IX deletion bitsets (so filtered exact search is bit-identical to an
  unfiltered search over the post-filtered corpus); graph paths treat
  masked-out vertices as routable-but-not-reportable — the standard
  filtered-ANN construction.

Filters compose with ``&``, ``|`` and ``~``::

    flt = (Eq("category", "shoes") & Range("price", high=50.0)) | \
          In("brand", ("acme", "zenith"))
    result = must.query(Query(vector, filter=flt), SearchOptions(k=5))
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Any, Iterable

import numpy as np
import numpy.typing as npt

from repro.core.attributes import AttributeTable
from repro.core.multivector import MultiVector
from repro.core.registry import resolve_engine
from repro.core.weights import Weights
from repro.utils.validation import require

__all__ = [
    "Filter",
    "Eq",
    "In",
    "Range",
    "And",
    "Or",
    "Not",
    "Query",
    "SearchOptions",
    "as_query",
    "compile_filter",
    "unpack_query",
]

BoolMask = npt.NDArray[np.bool_]


# ----------------------------------------------------------------------
# Filter mini-DSL
# ----------------------------------------------------------------------
class Filter(abc.ABC):
    """A predicate over attribute columns, compiling to a boolean mask.

    ``mask(table)[j]`` is True when object ``j`` is admissible.  Clauses
    compose structurally (:class:`And` / :class:`Or` / :class:`Not`, or
    the ``&`` / ``|`` / ``~`` operators); compilation is a handful of
    vectorised column comparisons, cheap next to any scan or traversal.
    """

    @abc.abstractmethod
    def mask(self, table: AttributeTable) -> BoolMask:
        """Admissibility of every object under this clause."""

    def __and__(self, other: "Filter") -> "And":
        return And(self, other)

    def __or__(self, other: "Filter") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class Eq(Filter):
    """``column == value``."""

    field: str
    value: object

    def mask(self, table: AttributeTable) -> BoolMask:
        return np.asarray(table.column(self.field) == self.value, dtype=bool)


@dataclass(frozen=True, init=False)
class In(Filter):
    """``column ∈ values`` (membership over an explicit set)."""

    field: str
    values: tuple[object, ...]

    def __init__(self, field: str, values: Iterable[object]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "values", tuple(values))
        require(len(self.values) >= 1, "In() needs at least one value")

    def mask(self, table: AttributeTable) -> BoolMask:
        return np.asarray(
            np.isin(table.column(self.field), np.asarray(self.values)),
            dtype=bool,
        )


@dataclass(frozen=True)
class Range(Filter):
    """``low ≤ column ≤ high`` (either bound optional, both inclusive)."""

    field: str
    low: object = None
    high: object = None

    def __post_init__(self) -> None:
        require(
            self.low is not None or self.high is not None,
            f"Range({self.field!r}) needs at least one of low=/high=",
        )

    def mask(self, table: AttributeTable) -> BoolMask:
        column = table.column(self.field)
        out = np.ones(column.shape[0], dtype=bool)
        if self.low is not None:
            out &= column >= self.low
        if self.high is not None:
            out &= column <= self.high
        return out


@dataclass(frozen=True, init=False)
class And(Filter):
    """Conjunction of one or more clauses."""

    clauses: tuple[Filter, ...]

    def __init__(self, *clauses: Filter) -> None:
        object.__setattr__(self, "clauses", tuple(clauses))
        require(len(self.clauses) >= 1, "And() needs at least one clause")

    def mask(self, table: AttributeTable) -> BoolMask:
        out = self.clauses[0].mask(table)
        for clause in self.clauses[1:]:
            out = out & clause.mask(table)
        return out


@dataclass(frozen=True, init=False)
class Or(Filter):
    """Disjunction of one or more clauses."""

    clauses: tuple[Filter, ...]

    def __init__(self, *clauses: Filter) -> None:
        object.__setattr__(self, "clauses", tuple(clauses))
        require(len(self.clauses) >= 1, "Or() needs at least one clause")

    def mask(self, table: AttributeTable) -> BoolMask:
        out = self.clauses[0].mask(table)
        for clause in self.clauses[1:]:
            out = out | clause.mask(table)
        return out


@dataclass(frozen=True)
class Not(Filter):
    """Negation of a clause."""

    clause: Filter

    def mask(self, table: AttributeTable) -> BoolMask:
        return ~self.clause.mask(table)


#: per-wave filter-compilation cache: (filter id, attribute-table id) →
#: mask.  Keyed on both identities so one memo can serve every segment
#: of a cross-segment wave without mask-length collisions.
FilterMemo = dict[tuple[int, int], BoolMask]


def compile_filter(
    flt: Filter,
    attributes: "AttributeTable | None",
    context: str = "corpus",
    memo: "FilterMemo | None" = None,
) -> BoolMask:
    """Compile *flt* against a corpus slice's attribute table.

    Raises an actionable error when the slice carries no attributes at
    all (the caller names the slice via *context*, e.g. which segment);
    unknown fields raise from :meth:`AttributeTable.column` with the
    available field list.

    *memo* lets a batch entry point compile each shared filter once per
    corpus slice instead of once per query — batches typically reuse
    one ``Filter`` instance across every request in the wave.
    """
    key = (id(flt), id(attributes))
    if memo is not None:
        cached = memo.get(key)
        if cached is not None:
            return cached
    if attributes is None:
        raise ValueError(
            f"query has a filter but the {context} has no attribute table — "
            f"attach one with MultiVectorSet.set_attributes(...) (inserted "
            f"objects must carry the same fields as the corpus)"
        )
    mask = flt.mask(attributes)
    if memo is not None:
        memo[key] = mask
    return mask


# ----------------------------------------------------------------------
# Query
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Query:
    """One typed search request.

    ``vector`` is the multi-vector (missing modalities allowed, §VII-B);
    ``weights`` overrides the index weights for this query only;
    ``filter`` restricts admissible answers via the corpus attribute
    table; ``k`` overrides the wave-level ``SearchOptions.k`` for this
    query only.

    ``sparse`` optionally adds a lexical component — a
    :class:`~repro.sparse.kernels.SparseQuery`, a ``{term: weight}``
    mapping, or an ``(indices, values)`` pair, normalised at
    construction — scored against the corpus's sparse plane and mixed
    into the joint similarity as ``ω_s²·lex`` with
    ``ω_s = sparse_weight`` (squared, mirroring the dense ω²
    convention).
    """

    vector: MultiVector
    weights: "Weights | None" = None
    filter: "Filter | None" = None
    k: "int | None" = None
    sparse: Any = None
    sparse_weight: float = 1.0

    def __post_init__(self) -> None:
        require(
            isinstance(self.vector, MultiVector),
            f"Query.vector must be a MultiVector, got "
            f"{type(self.vector).__name__} — wrap per-modality arrays with "
            f"MultiVector.from_arrays(...)",
        )
        require(
            self.weights is None or isinstance(self.weights, Weights),
            "Query.weights must be a Weights instance or None",
        )
        require(
            self.filter is None or isinstance(self.filter, Filter),
            "Query.filter must be a Filter clause or None",
        )
        require(
            self.k is None or (isinstance(self.k, int) and self.k >= 1),
            f"Query.k must be a positive int or None, got {self.k!r}",
        )
        if self.sparse is not None:
            # Normalise once at construction; dataclasses.replace()
            # re-runs this, where as_sparse_query is the identity on an
            # already-canonical SparseQuery.
            from repro.sparse.kernels import as_sparse_query

            object.__setattr__(self, "sparse", as_sparse_query(self.sparse))
        require(
            isinstance(self.sparse_weight, (int, float))
            and np.isfinite(self.sparse_weight)
            and float(self.sparse_weight) >= 0.0,
            f"Query.sparse_weight must be a finite non-negative number, "
            f"got {self.sparse_weight!r}",
        )

    def resolve_k(self, default: int) -> int:
        """This query's effective ``k`` under a wave-level default."""
        return default if self.k is None else self.k

    def resolve_weights(self, default: "Weights | None") -> "Weights | None":
        """This query's effective weight override."""
        return default if self.weights is None else self.weights


def as_query(query: "Query | MultiVector") -> Query:
    """Coerce a raw :class:`MultiVector` into a plain :class:`Query`."""
    if isinstance(query, Query):
        return query
    return Query(vector=query)


def unpack_query(
    query: "Query | MultiVector",
    k: int,
    weights: "Weights | None",
    attributes: "AttributeTable | None",
    context: str = "corpus",
    memo: "FilterMemo | None" = None,
) -> "tuple[MultiVector, int, Weights | None, BoolMask | None]":
    """Resolve a possibly-typed query against wave-level defaults.

    Returns ``(vector, k, weights, mask)`` where ``mask`` is the
    compiled filter (None when the query carries no filter).  Raw
    :class:`MultiVector` inputs pass straight through — the seam that
    lets every search layer accept both representations with one line.
    *memo* forwards to :func:`compile_filter` so batch callers compile
    each shared filter once.
    """
    q = as_query(query)
    if q.filter is None:
        mask = None
    else:
        mask = compile_filter(q.filter, attributes, context, memo=memo)
    return q.vector, q.resolve_k(k), q.resolve_weights(weights), mask


# ----------------------------------------------------------------------
# SearchOptions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchOptions:
    """The validated execution plan for one search or one wave of them.

    Field errors name the field; an unknown field name is a
    ``TypeError`` from the constructor, so a typo'd
    ``early_terminatoin=`` fails loudly instead of being dropped.

    ``refine=r`` is the two-stage rerank for compressed stores: the top
    ``r·k`` hot-tier survivors are re-scored against the exact cold
    tier before the cut to ``k``.  It applies to plain queries only — a
    hybrid query (``Query.sparse``) on a graph path is finalised by the
    dense ∪ lexical union rescore
    (:func:`~repro.sparse.hybrid.hybrid_union_rescore`, which scores the
    hot tier), and that rescore takes the place of ``refine``.

    ``collection`` names the target workspace when the request is
    served by a multi-tenant :class:`~repro.service.MustService`
    (``None`` means the service's default collection).  A standalone
    :class:`~repro.core.framework.MUST` *is* a single collection, so
    the field is ignored on direct queries — routing is a service-level
    concern.
    """

    k: int = 10
    l: int = 100
    exact: bool = False
    refine: "int | None" = None
    early_termination: bool = False
    engine: str = "auto"
    check_monotone: bool = False
    collection: "str | None" = None
    sparse_engine: str = "auto"

    def __post_init__(self) -> None:
        require(
            isinstance(self.k, int) and self.k >= 1,
            f"SearchOptions.k must be a positive int, got {self.k!r}",
        )
        require(
            isinstance(self.l, int) and self.l >= 1,
            f"SearchOptions.l must be a positive int, got {self.l!r}",
        )
        # l >= k is a *graph-path* contract (exact scans ignore l), so
        # it is checked where the plan runs, not here.
        require(
            isinstance(self.exact, bool),
            f"SearchOptions.exact must be a bool, got {self.exact!r}",
        )
        require(
            self.refine is None
            or (isinstance(self.refine, int) and self.refine >= 1),
            f"SearchOptions.refine must be an int >= 1 or None, got "
            f"{self.refine!r}",
        )
        require(
            isinstance(self.early_termination, bool),
            f"SearchOptions.early_termination must be a bool, got "
            f"{self.early_termination!r}",
        )
        # Engine names resolve through the metric/engine registry, so a
        # typo'd engine= fails here with a did-you-mean instead of deep
        # inside a searcher.
        try:
            resolve_engine(self.engine, kind="graph")
        except ValueError as exc:
            raise ValueError(f"SearchOptions.engine: {exc}") from None
        try:
            resolve_engine(self.sparse_engine, kind="sparse")
        except ValueError as exc:
            raise ValueError(f"SearchOptions.sparse_engine: {exc}") from None
        require(
            isinstance(self.check_monotone, bool),
            f"SearchOptions.check_monotone must be a bool, got "
            f"{self.check_monotone!r}",
        )
        require(
            self.collection is None
            or (isinstance(self.collection, str) and self.collection),
            f"SearchOptions.collection must be a non-empty str or None, "
            f"got {self.collection!r}",
        )

    def resolve_engine(self, batch: bool) -> str:
        """Concrete graph engine for this plan.

        ``"auto"`` (the default) picks the per-query heap engine for
        an independent request and the lockstep wave engine for a
        batch, where per-query beam loops are the measured throughput
        trap.  An explicit engine name always wins, including
        ``"wave"`` on a single query (a batch of one) and
        ``"heap"``/``"paper"`` on batches (the per-query oracle the
        parity tests pin against).
        """
        if self.engine != "auto":
            return self.engine
        return "wave" if batch else "heap"

    def resolve(self, n: int) -> "SearchOptions":
        """Clamp the result-set size to the corpus: ``l = min(l, n)``.

        ``l`` never drops below ``k``, so a corpus smaller than ``k``
        searches with ``l = k`` and simply returns every admissible
        object.
        """
        clamped = max(min(self.l, int(n)), self.k)
        if clamped == self.l:
            return self
        return replace(self, l=clamped)

    def updated(self, **changes: Any) -> "SearchOptions":
        """A copy with *changes* applied (re-validated)."""
        return replace(self, **changes)
