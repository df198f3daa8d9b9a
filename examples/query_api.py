"""Typed Query API end to end: build → filter → serve.

A product-search corpus with structured attributes (category, price,
rating) attached to the multi-vector objects.  Shows the typed request
surface:

* ``Query`` + ``SearchOptions`` through ``MUST.query`` (the only
  search entry point);
* per-query **attribute filters** (the ``Eq``/``In``/``Range`` DSL,
  composed with ``&``/``|``/``~``) pushed down into exact and graph
  search;
* per-query **weights** and **k overrides** mixed inside one batch;
* graph batches riding the lockstep **wave engine** (the default
  batch plan), with the executed plan and wave counters on the result;
* the same typed requests served through the concurrent
  ``MustService`` front-end while a writer streams new objects in,
  including ``engine="wave"`` requests coalescing into wave groups.

Run:  python examples/query_api.py
"""

import numpy as np

from repro import MUST, Eq, MultiVectorSet, Query, Range, SearchOptions, Weights
from repro.core.multivector import MultiVector, normalize_rows

CATEGORIES = np.array(["shoes", "bags", "watches"])
DIMS = (32, 16)  # image embedding, text embedding


def make_catalogue(n: int, seed: int) -> MultiVectorSet:
    """Random L2-normalised product embeddings + structured attributes."""
    rng = np.random.default_rng(seed)
    objects = MultiVectorSet(
        [normalize_rows(rng.standard_normal((n, d))) for d in DIMS]
    )
    return objects.set_attributes({
        "category": CATEGORIES[rng.integers(0, 3, n)],
        "price": np.round(rng.uniform(5.0, 200.0, n), 2),
        "rating": rng.integers(1, 6, n),
    })


def make_query(seed: int) -> MultiVector:
    rng = np.random.default_rng(seed)
    return MultiVector(tuple(
        normalize_rows(rng.standard_normal((1, d)))[0] for d in DIMS
    ))


def main() -> None:
    # 1. Build over an attributed corpus.
    objects = make_catalogue(2000, seed=0)
    must = MUST(objects, weights=Weights([0.6, 0.4])).build()
    print(f"corpus: {objects.n} products, "
          f"attributes: {', '.join(objects.attributes.fields)}")

    # 2. One typed query — unfiltered vs filtered, exact and graph.
    q = make_query(seed=1)
    flt = Eq("category", "shoes") & Range("price", high=80.0) \
        & Range("rating", low=4)
    plain = must.query(Query(q), SearchOptions(k=5, exact=True))
    filtered = must.query(Query(q, filter=flt), SearchOptions(k=5, exact=True))
    graph = must.query(Query(q, filter=flt), SearchOptions(k=5, l=128))
    price = objects.attributes.column("price")
    print(f"\nunfiltered exact top-5: {plain.ids.tolist()}")
    print(f"filtered   exact top-5: {filtered.ids.tolist()} "
          f"(prices {[float(price[i]) for i in filtered.ids]})")
    overlap = np.intersect1d(graph.ids, filtered.ids).size
    print(f"filtered   graph top-5: {graph.ids.tolist()} "
          f"({overlap}/5 agree with exact)")

    # 3. A batch mixing per-query filters, weights, and k overrides —
    #    the exact path still shares one GEMM wave.
    batch = must.query(
        [
            Query(make_query(2), filter=flt),
            Query(make_query(3), weights=Weights([0.9, 0.1]), k=3),
            make_query(4),  # raw MultiVector coerces to Query
        ],
        SearchOptions(k=5, exact=True),
    )
    print(f"\nbatch answer sizes: {[len(r.ids) for r in batch]} "
          f"(middle query overrode k=3)")

    # 4. The same batch on the graph index rides the lockstep wave
    #    engine by default (SearchOptions(engine="auto")): every query
    #    advances its beam frontier in lockstep, one batched scoring
    #    call per wave, per-query filters/weights/k still honoured.
    wave = must.query(
        [
            Query(make_query(2), filter=flt),
            Query(make_query(3), weights=Weights([0.9, 0.1]), k=3),
            make_query(4),
        ],
        SearchOptions(k=5, l=128),
    )
    print(f"\ngraph batch plan: {wave.plan} — "
          f"{wave.stats.waves} waves, "
          f"largest frontier {max(wave.stats.frontier_sizes)} candidates, "
          f"answer sizes {[len(r.ids) for r in wave]}")

    # 5. Serve the same typed requests concurrently; new inserts carry
    #    their own attribute slices and are filterable immediately.
    with must.serve(max_batch=16, max_wait_ms=1.0) as service:
        before = service.search(Query(q, filter=flt),
                                SearchOptions(k=5, exact=True))
        fresh = make_catalogue(50, seed=9)
        ids = service.insert(fresh)
        after = service.search(Query(q, filter=flt),
                               SearchOptions(k=5, exact=True))
        newly = set(after.ids.tolist()) & set(ids.tolist())
        print(f"\nserved filtered top-5 before insert: {before.ids.tolist()}")
        print(f"served filtered top-5 after  insert: {after.ids.tolist()} "
              f"({len(newly)} from the new batch)")
        # Graph requests opting into engine="wave" coalesce into
        # lockstep wave groups on the dispatcher; the stats histograms
        # make the grouping observable.
        futures = [
            service.submit(
                Query(make_query(20 + i)),
                SearchOptions(k=5, l=128, engine="wave"),
            )
            for i in range(8)
        ]
        served = [f.result() for f in futures]
        waves_hist = service.stats.summary()["graph_waves"]
        print(f"wave-served {len(served)} graph requests; "
              f"waves-per-group histogram: {waves_hist}")

    # 6. Typos fail loudly: an unknown option name is a TypeError, an
    #    unknown engine name comes back with a did-you-mean.
    try:
        SearchOptions(k=5, early_terminatoin=True)
    except TypeError as exc:
        print(f"\ntypo'd option rejected: {exc}")
    try:
        SearchOptions(k=5, engine="wavee")
    except ValueError as exc:
        print(f"typo'd engine rejected: {exc}")


if __name__ == "__main__":
    main()
