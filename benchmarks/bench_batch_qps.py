"""Batch-execution throughput — single-query vs batched QPS.

Writes the ``BENCH_batch_qps.json`` perf-trajectory artifact at the repo
root so CI can track executor throughput over time.  Runnable standalone
(``PYTHONPATH=src python benchmarks/bench_batch_qps.py``) or through
pytest like the other bench files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.bench import cache
from repro.bench.efficiency import batch_throughput
from repro.bench.harness import format_table, save_table
from repro.core.query import Query, SearchOptions

ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_batch_qps.json"


def run(kind: str = "image") -> dict:
    """Run the experiment and write the JSON artifact."""
    table, payload = batch_throughput(kind)
    save_table(table, "batch_qps")
    print(format_table(table))
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_batch_qps(benchmark, capsys):
    from benchmarks.conftest import emit

    table, payload = batch_throughput("image")
    emit(table, "batch_qps", capsys)
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
    # Acceptance guard: the GEMM-batched exact path must beat the
    # per-query exact loop on throughput.
    modes = payload["modes"]
    assert (
        modes["exact/executor GEMM batch"]["qps"]
        > modes["exact/single-query loop"]["qps"]
    )
    # Wave acceptance: the lockstep engine must actually have run as
    # the default batch plan, beat the single-query graph loop by the
    # ≥1.5× bar, and give up no recall against the per-query engine.
    wave = modes["graph/wave"]
    assert wave["plan"] == "graph/wave"
    assert wave["qps"] >= 1.5 * modes["graph/single-query loop"]["qps"]
    assert wave["recall"] >= modes["graph/single-query loop"]["recall"] - 0.005
    enc, must = cache.largescale_must("image")
    queries = list(enc.queries[:16])
    benchmark(
        lambda: must.query(
            [Query(q) for q in queries], SearchOptions(k=10, l=80)
        )
    )


def main() -> int:
    """Standalone entry point; non-zero exit on a broken/empty harness
    so the CI bench-smoke job cannot green-wash a failed run."""
    out = run()
    modes = out.get("modes", {})
    if not modes or not all(m.get("qps", 0.0) > 0.0 for m in modes.values()):
        print("bench_batch_qps: empty or zero-QPS payload", file=sys.stderr)
        return 1
    print(json.dumps(modes, indent=2))
    print(f"wrote {ARTIFACT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
