"""Every workload at smoke scale emits exactly what BENCHMARK.json
declares, answers correctly, and leaves no tracing wrapper behind."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import load, run, spec
from perfbench.trace import Tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
ROOT = run.ROOT


def _wrapped_bindings() -> list[str]:
    """Every binding in a loaded ``repro`` module or class that is a
    tracing wrapper (module functions, ``from x import f`` copies,
    methods)."""
    found = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if hasattr(value, "perfbench_span"):
                found.append(f"{name}.{key}")
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in list(vars(value).items()):
                    inner = getattr(member, "__func__", member)
                    if hasattr(inner, "perfbench_span"):
                        found.append(f"{name}.{key}.{attr}")
    return found


def test_declared_shape_fits_the_contract():
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    names = [*spec.WORKLOADS, *(m.name for m in spec.END_TO_END + spec.PER_LAYER)]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(why) <= 200 and "\n" not in why for why in spec.WORKLOADS.values())
    for metric in spec.END_TO_END:
        assert metric.better in ("lower", "higher")
        assert 0 < metric.bound <= 0.25
    setup = spec.END_TO_END[0]
    assert (setup.name, setup.unit, setup.better) == ("setup_s", "s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)


def test_benchmark_json_agrees_with_the_implementation(tmp_path):
    assert run.check() == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared["end_to_end"][1]["bound"] = 0.24
    declared["per_layer"][0]["unit"] = "s"
    tampered = tmp_path / "BENCHMARK.json"
    tampered.write_text(json.dumps(declared))
    problems = run.check(tampered)
    assert len(problems) == 2
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.run", "--check"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(smoke_run, workload):
    result = smoke_run(workload, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m.name: m.unit for m in spec.END_TO_END}
    assert list(result["metrics"]) == list(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name]
        assert math.isfinite(entry["value"]) and entry["value"] > 0, name
    assert _wrapped_bindings() == []


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(smoke_run, workload):
    result = smoke_run(workload, trace=True)
    assert result["correct"] and result["failed"] == 0
    declared = {m.name: m.unit for m in spec.PER_LAYER}
    assert list(result["metrics"]) == list(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name]
        assert math.isfinite(entry["value"]), name
    # Wrappers are removed after the traced pass.
    assert _wrapped_bindings() == []


def test_layers_a_workload_bypasses_read_zero(smoke_run):
    """The contrast the workloads were chosen for."""
    value = {
        w: {k: v["value"] for k, v in smoke_run(w, trace=True)["metrics"].items()}
        for w in spec.WORKLOADS
    }
    for name in value["single_query"]:
        layer = name.rsplit(".", 1)[0]
        for workload in ("single_query", "serve_open", "churn"):
            if layer in ("sparse", "store.mmap"):
                assert value[workload][name] == 0, (workload, name)
        if layer == "service" or layer == "service.snapshot":
            for workload in ("single_query", "churn", "hybrid_compressed"):
                assert value[workload][name] == 0, (workload, name)
    for name in ("index.segments.ingest_obj_s", "index.segments.compact_s_total",
                 "index.segments.save_ms_mean", "index.segments.load_ms"):
        assert value["churn"][name] > 0
        for workload in ("single_query", "serve_open", "hybrid_compressed"):
            assert value[workload][name] == 0, (workload, name)
    assert value["serve_open"]["index.segments.seal_s_total"] > 0  # its set-up
    assert value["hybrid_compressed"]["sparse.score_ms_per_query"] > 0
    assert value["hybrid_compressed"]["store.mmap.rows_gathered_per_query"] > 0
    assert value["serve_open"]["core.query.compile_filter_ms_per_query"] > 0
    # joint_search (children included) is most of a single query.
    single = value["single_query"]
    assert single["index.search.joint_search_ms_per_query"] > 0.5 * (
        single["index.search.joint_search_ms_per_query"]
        + single["core.framework.dispatch_self_ms_per_query"]
    )
    for workload in spec.WORKLOADS:
        assert value[workload]["harness.untraced_frac"] <= 0.2, workload


def test_tracer_wraps_every_binding_site_and_restores_the_originals():
    import repro.core.framework as framework
    import repro.index.search as search
    from repro.index.segments import SegmentedIndex
    from repro.service.snapshot import IndexSnapshot

    assert _wrapped_bindings() == []
    originals = {
        "defining": search.joint_search,
        "copy": framework.joint_search,
        "method": vars(framework.MUST)["query"],
        "classmethod": vars(IndexSnapshot)["of"],
        "load": vars(SegmentedIndex)["load"],
    }
    assert originals["defining"] is originals["copy"]
    tracer = Tracer()
    tracer.install()
    try:
        assert search.joint_search.perfbench_span == "index.search.joint_search"
        # the ``from repro.index.search import joint_search`` copy too
        assert framework.joint_search is search.joint_search
        assert framework.MUST.query.perfbench_span == "core.framework.query"
        assert isinstance(vars(IndexSnapshot)["of"], classmethod)
        assert IndexSnapshot.of.__func__.perfbench_span == "service.snapshot.capture"
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.remove()
    assert search.joint_search is originals["defining"]
    assert framework.joint_search is originals["copy"]
    assert vars(framework.MUST)["query"] is originals["method"]
    assert vars(IndexSnapshot)["of"] is originals["classmethod"]
    assert vars(SegmentedIndex)["load"] is originals["load"]
    assert _wrapped_bindings() == []


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    import time

    import repro.utils.topk as topk
    from perfbench.trace import Target

    tracer = Tracer()
    tracer.install((
        Target("outer", "repro.utils.topk", "merge_top_k"),
        Target("inner", "repro.utils.topk", "top_k_sorted",
               count=lambda args, kwargs, result: len(result)),
    ))
    try:
        ids = np.arange(6)
        topk.merge_top_k(ids, ids * 1.0, ids + 6, ids * 2.0, 4)
        time.sleep(0)
    finally:
        tracer.remove()
    totals = tracer.take()
    assert totals["outer"].calls == 1 and totals["inner"].calls == 1
    assert totals["inner"].count == 4
    assert totals["outer"].self_ns == totals["outer"].total_ns - totals["inner"].total_ns
    assert tracer.take() == {}
    path = tmp_path / "spans.jsonl"
    assert tracer.write(path) == 2
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    outer = next(s for s in spans if s["name"] == "outer")
    inner = next(s for s in spans if s["name"] == "inner")
    assert inner["parent"] == outer["id"] and outer["parent"] == -1
    assert inner["request"] == outer["request"] == outer["id"]
    assert outer["start_ns"] <= inner["start_ns"] <= inner["end_ns"] <= outer["end_ns"]


def test_percentile_is_refused_without_ten_samples_beyond_it():
    samples = np.linspace(1.0, 2.0, 150)
    with pytest.raises(ValueError, match="lengthen the run"):
        load.percentile(samples, 95)
    assert load.percentile(samples, 95, weight=2) == pytest.approx(1.95, abs=0.01)
    assert load.iqr_frac([1.0]) == 0.0


def test_command_line_contract(tmp_path):
    """Last line of stdout is the result object; a checkout without the
    program fails without printing one."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single_query",
         "--seed", "5", "--seconds", "1", "--trace", "0", "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    bare = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single_query",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False,
    )
    assert bare.returncode != 0
    assert bare.stdout.strip() == ""
