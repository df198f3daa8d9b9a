"""The benchmark's one command.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N
    python3 perfbench/run.py --check

One invocation runs one workload in this process and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  ``--all``
starts both modes of every workload, each in a process of its own, and
prints every metric by name with its unit.  See README.md beside this
file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    # One BLAS thread, said before NumPy is first imported.
    for _var in BLAS_VARS:
        os.environ[_var] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(
            f"perfbench: the program under test is missing — expected "
            f"{ROOT / 'src' / 'repro'}"
        )
    if __package__ in (None, ""):
        # Run as a script: make ``perfbench`` importable as a package and
        # keep this directory's ``trace.py`` from shadowing the stdlib one.
        sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))

from perfbench import spec  # noqa: E402

RECALL_FLOOR = 0.9
WORK_DIR = ROOT / ".bench_work"


def _value(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def host_block() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "load_threads": 1,
    }


# ----------------------------------------------------------------------
# One workload, one mode
# ----------------------------------------------------------------------
def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale_name: str = "full",
    trace_out: str | None = None,
) -> dict:
    """Run one workload in this process; returns the result object
    (plus ``host`` and ``info`` keys the CLI prints above the result)."""
    from perfbench.inputs import SCALES
    from perfbench.workloads import WORKLOADS

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR, prefix=f"{name}-"))
    workload = WORKLOADS[name](seed, SCALES[scale_name], seconds, workdir)
    try:
        if trace:
            return _run_traced(workload, seconds, trace_out)
        return _run_untraced(workload, seconds)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)


def _timed_setup(workload) -> float:
    """Seconds inside the program's set-up calls, at reference host speed."""
    from perfbench.calibrate import Bracket

    bracket = Bracket()
    begin = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - begin
    return elapsed * bracket.next()


def _result(workload, timed, checks, metrics: dict, info: dict) -> dict:
    failed = timed.failed + checks.failed
    return {
        "correct": failed == 0 and checks.recall_at_10 >= RECALL_FLOOR,
        "attempted": timed.attempted + checks.checked,
        "failed": failed,
        "metrics": metrics,
        "host": host_block(),
        "info": {
            "workload": workload.name,
            "seed": workload.seed,
            "scale": workload.scale.name,
            "input_digest": workload.input_digest(),
            "answered": timed.queries,
            **info,
        },
    }


def _run_untraced(workload, seconds: float) -> dict:
    from perfbench import load

    scale = workload.scale
    setups = [_timed_setup(workload)]
    timed = workload.timed(seconds)
    rss = load.rss_mb()
    memory = workload.memory_per_obj()
    checks = workload.verify(timed)
    # setup_s is the median of several set-ups; the extra ones run after
    # the timed phase so their garbage is not in rss_mb.
    for _ in range(scale.setups - 1):
        workload.teardown()
        setups.append(_timed_setup(workload))
    units = {m.name: m.unit for m in spec.END_TO_END}
    values = {
        "setup_s": statistics.median(setups),
        "qps": statistics.median(timed.round_qps),
        "lat_p50_ms": timed.median_percentile_ms(50, scale.min_beyond),
        "lat_p95_ms": timed.median_percentile_ms(95, scale.min_beyond),
        "recall_at_10": checks.recall_at_10,
        "rss_mb": rss,
        "resident_bytes_per_obj": memory["resident_bytes"],
    }
    return _result(
        workload, timed, checks,
        {name: _value(values[name], unit) for name, unit in units.items()},
        {
            "setups_s": setups,
            "round_qps": timed.round_qps,
            "host_speed": timed.speed,
            "latency_samples": timed.latency_samples,
        },
    )


def _run_traced(workload, seconds: float, trace_out: str | None) -> dict:
    from perfbench import layers
    from perfbench.calibrate import Bracket
    from perfbench.trace import Tracer

    untraced_share, traced_share, extra_share = workload.shares1
    tracer = Tracer()
    tracer.install()
    try:
        tracer.mark("setup")
        bracket = Bracket()
        workload.setup()
        setup_speed = bracket.next()
        setup_totals = tracer.take()
        edges_per_obj = layers.edges_per_obj(workload.must)
        tracer.remove()

        untraced = workload.timed(seconds * untraced_share)
        if workload.mutates:
            workload.teardown()
            workload.setup()

        tracer.install()
        tracer.mark("timed")
        traced = workload.timed(seconds * traced_share, on_warm=tracer.take)
        totals = tracer.take()
        tracer.mark("extra")
        extra = workload.traced_extra(seconds * extra_share)
    finally:
        tracer.remove()
    checks = workload.verify(traced)
    values = layers.layer_metrics(
        workload, setup_totals, setup_speed, totals, edges_per_obj, untraced,
        traced, checks, extra,
    )
    spans = tracer.write(trace_out) if trace_out else 0
    return _result(
        workload, traced, checks,
        {m.name: _value(values[m.name], m.unit) for m in spec.PER_LAYER},
        {
            "spans_written": spans,
            "untraced_round_qps": untraced.round_qps,
            "traced_round_qps": traced.round_qps,
            **{k: v for k, v in extra.items() if k not in values},
        },
    )


# ----------------------------------------------------------------------
# --check
# ----------------------------------------------------------------------
def check(path: Path | None = None) -> list[str]:
    """Every way ``BENCHMARK.json`` and this implementation disagree."""
    path = path or ROOT / "BENCHMARK.json"
    if not path.is_file():
        return [f"{path} is missing"]
    declared = json.loads(path.read_text(encoding="utf-8"))
    expected = spec.benchmark_json()
    problems = []
    for key in sorted(set(declared) | set(expected)):
        if declared.get(key) == expected.get(key):
            continue
        if key not in ("workloads", "end_to_end", "per_layer"):
            problems.append(
                f"{key}: file has {declared.get(key)!r}, "
                f"implementation has {expected.get(key)!r}"
            )
            continue
        have = {row["name"]: row for row in declared.get(key, [])}
        want = {row["name"]: row for row in expected[key]}
        for name in sorted(set(have) | set(want)):
            if have.get(name) != want.get(name):
                problems.append(
                    f"{key}.{name}: file has {have.get(name)!r}, "
                    f"implementation has {want.get(name)!r}"
                )
        if not problems and list(have) != list(want):
            problems.append(f"{key}: same rows, different order")
    return problems


# ----------------------------------------------------------------------
# --all
# ----------------------------------------------------------------------
def run_all(seed: int, seconds: float, scale: str, out: str | None) -> int:
    """Both modes of every workload, each in its own process.  The runs
    are appended to the JSON list in *out* (what compare.py reads)."""
    print("host:", json.dumps(host_block()))
    status = 0
    runs = json.loads(Path(out).read_text()) if out and Path(out).exists() else []
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            began = time.perf_counter()
            proc = subprocess.run(
                [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace),
                    "--scale", scale,
                ],
                capture_output=True, text=True, check=False,
            )
            took = time.perf_counter() - began
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                print(f"== {name} --trace {trace}: exit {proc.returncode}")
                print(proc.stderr.strip())
            if not lines:
                continue
            result = json.loads(lines[-1])
            runs.append(
                {"workload": name, "seed": seed, "trace": trace, **result}
            )
            print(
                f"== {name} --trace {trace}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"({took:.1f} s)"
            )
            for metric, entry in result["metrics"].items():
                print(f"   {metric:46s} {entry['value']:14.6g} {entry['unit']}")
    if out:
        Path(out).write_text(json.dumps(runs, indent=1) + "\n")
    return status


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace-out", help="write the spans here (--trace 1)")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--out", help="append the runs of --all to this file")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    if args.check:
        problems = check()
        for problem in problems:
            print(problem)
        print("BENCHMARK.json", "disagrees" if problems else "agrees",
              "with perfbench/spec.py")
        return 1 if problems else 0
    if args.all:
        return run_all(args.seed, args.seconds, args.scale, args.out)
    if args.workload is None:
        parser.error("one of --workload, --all, --check is required")

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.scale, args.trace_out,
    )
    print("host:", json.dumps(result.pop("host")))
    print("info:", json.dumps(result.pop("info")))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
