"""One seed gives the same inputs and the same counters; another seed
gives other inputs."""

from __future__ import annotations

import pytest

from perfbench import spec
from perfbench.inputs import SCALES
from perfbench.tests.conftest import FRESH_SEED, SMOKE_SECONDS
from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload, tmp_path):
    def digest(seed: int) -> str:
        return WORKLOADS[workload](
            seed, SCALES["smoke"], SMOKE_SECONDS, tmp_path
        ).input_digest()

    first = digest(FRESH_SEED)
    assert digest(FRESH_SEED) == first
    assert digest(FRESH_SEED + 1) != first


def test_input_digest_is_reported_and_repeats(smoke_run):
    first = smoke_run("serve_open", trace=False)["info"]["input_digest"]
    again = smoke_run("serve_open", trace=True)["info"]["input_digest"]
    assert first == again


@pytest.mark.parametrize(
    "workload, counters",
    [
        ("single_query", ("index.search.joint_evals_per_query",
                          "index.search.hops_per_query",
                          "index.search.visited_per_query")),
        ("churn", ("index.segments.seals", "index.segments.compactions",
                   "index.search.hops_per_query",
                   "index.graph_wave.waves_per_batch")),
    ],
)
def test_counters_repeat_exactly(smoke_run, workload, counters):
    first = smoke_run(workload, trace=True)["metrics"]
    again = smoke_run(workload, trace=True, repeat=1)["metrics"]
    for name in counters:
        assert first[name]["value"] > 0, name
        assert first[name]["value"] == again[name]["value"], name
