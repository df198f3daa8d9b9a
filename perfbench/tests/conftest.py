"""Shared runner: each (workload, mode, seed) runs once per session."""

from __future__ import annotations

import pytest

from perfbench import run

#: a seed that was not used while the benchmark was written
FRESH_SEED = 90210
SMOKE_SECONDS = 1.0


@pytest.fixture(scope="session")
def smoke_run():
    cache: dict[tuple, dict] = {}

    def runner(workload: str, trace: bool, seed: int = FRESH_SEED,
               repeat: int = 0) -> dict:
        key = (workload, trace, seed, repeat)
        if key not in cache:
            cache[key] = run.run_workload(
                workload, seed, SMOKE_SECONDS, trace, "smoke"
            )
        return cache[key]

    return runner
