"""Benchmark harness: one experiment function per paper table/figure.

The experiment index is :func:`repro.bench.report._registry` (the
README's "Tests and benchmarks").  ``python -m repro.bench.report``
regenerates every artifact and the EXPERIMENTS.md record.
"""

from repro.bench.harness import Table, format_table, save_table

__all__ = ["Table", "format_table", "save_table"]
