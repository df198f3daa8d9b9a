"""Every paper table and figure, one test each.

The test is parametrised over :func:`repro.bench.report._registry`, so
a table has one stem everywhere: the test id, the archive under
``benchmarks/results/<stem>.txt`` and ``python -m repro.bench.report``.
pytest-benchmark times one regeneration.  The env knobs shrink the
corpora for a quick run::

    REPRO_LARGESCALE_N=2500 REPRO_LARGESCALE_QUERIES=16 \\
    REPRO_WEIGHT_EPOCHS=60 PYTHONPATH=src \\
    python -m pytest benchmarks/bench_paper.py -q -k fig6_imagetext
"""

import pytest

from repro.bench.harness import format_table, save_table
from repro.bench.report import _registry

ENTRIES = _registry()


@pytest.mark.parametrize(
    "stem, make_table", ENTRIES, ids=[stem for stem, _ in ENTRIES]
)
def test_paper_table(benchmark, capsys, stem, make_table):
    table = benchmark.pedantic(make_table, rounds=1, iterations=1)
    save_table(table, stem)
    with capsys.disabled():
        print()
        print(format_table(table))
