"""Fig. 10(c) — the Lemma-4 multi-vector computation optimisation."""

from repro.bench import cache
from repro.bench.efficiency import fig10c_multivector

from repro.core.query import Query, SearchOptions

from benchmarks.conftest import emit


def test_fig10c_multivector(benchmark, capsys):
    table = fig10c_multivector()
    emit(table, "fig10c_multivector", capsys)
    enc, must, _ = cache.trained_must(*cache.celeba_plus_combo(4))
    query = enc.queries[0]
    benchmark(
        lambda: must.query(
            Query(query), SearchOptions(k=10, l=80, early_termination=True)
        )
    )
