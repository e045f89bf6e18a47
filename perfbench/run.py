"""Closed-loop benchmark of eqlef: one process, one client, one op at a time.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``report_mix``, ``torus_ladder``,
``dense_blocks`` and ``tied_blocks``.  Each op starts only after the previous
one finished and its output passed its oracle check; checks run outside the
timed region.  The loop runs whole cycles of the workload until ``S`` seconds
of op time and at least 100 ops are done, so every run sees the same mix.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
interpreters of ``import eqlef`` up to the first ``load_builtin("example1")``),
``ops_per_s``, ``op_p50_ms``, ``op_p90_ms`` and ``peak_rss_mb``.
``--trace 1`` runs each op of one cycle untraced and then with eqlef's
public functions wrapped (``tracing.py``), and prints the per-layer metrics;
the spans go to ``.perfbench_out/trace-<workload>-<seed>.json``.

Times and rates are scaled to a nominal host speed.  Right after each op
the loop times a fixed unit of pure-Python work (``reference.py``), for a
tenth of the op time.  Each latency is multiplied by the host's speed
relative to the nominal one that the units after its op show, and
``ops_per_s`` is divided by the speed all units of the run show: a long op
spans many swings of host speed that the units after it do not see.  Each
setup interpreter times units around its setup.  The wall-clock figures are
printed beside the scaled ones.  On a shared two-vCPU virtual machine the same code ran up
to 1.5 times slower for a minute at a time, which moved wall-clock
``ops_per_s`` by a third between runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program exits 2
without that line when the eqlef sources are missing.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import reference
import tracing

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 5
MIN_OPS = 100
WARMUP_OPS = 3
# Reference units timed after each op: this share of its time, and at least
# this many.
REFERENCE_SHARE = 0.1
MIN_REFERENCE_UNITS = 3
SETUP_REFERENCE_UNITS = 20

SETUP_CODE = (
    "import statistics, time\n"
    "import reference\n"
    f"before = reference.time_units({SETUP_REFERENCE_UNITS})\n"
    "start = time.perf_counter()\n"
    "import eqlef\n"
    "eqlef.load_builtin('example1')\n"
    "setup = time.perf_counter() - start\n"
    f"after = reference.time_units({SETUP_REFERENCE_UNITS})\n"
    "print(setup, statistics.mean(before + after))\n"
)

# Per-layer metrics of the traced run.  Times are reported only for spans
# that every workload enters, since a span a workload never enters would
# read 0 ms on every run; the other spans report calls here and their times
# in the printed table and the span file.
TIMED_SPANS = {
    "complex_model.load_complex": "self_ms",
    "complex_model.expand_matrix": "ms",
    "equivariant_groups.matmul": "ms",
    "equivariant_groups.FiniteGroup": "ms",
    "equivariant_groups.AutGroup": "ms",
    "equivariant_groups.conjugacy_classes_of_subgroups": "ms",
    "equivariant_groups.weyl_group": "ms",
    "invariants.KClass.from_terms": "ms",
    "invariants.universal_invariant": "ms",
    tracing.OP_SPAN: "self_ms",
}
# Layers whose summed self time is reported; every workload enters each.
LAYERS = ("complex_model", "equivariant_groups", "invariants")
COUNTERS = (
    "complex_model.expanded_cells",
    "equivariant_groups.matmul.entry_products",
    "equivariant_groups.GroupRingElement.constructed",
    "invariants.kclass.inexact",
)
MAXIMA = ("invariants.kclass.max_block", "exact_algebra.char_poly.max_n")
RENAMED_CALLS = {
    "equivariant_groups.FiniteGroup": "equivariant_groups.FiniteGroup.constructed",
    "equivariant_groups.AutGroup": "equivariant_groups.AutGroup.constructed",
}


def measure_setup() -> tuple[float, float]:
    """Seconds from ``import eqlef`` to a loaded builtin in fresh interpreters.

    Returns the median of the raw times and the median of the times scaled by
    the reference units each interpreter ran around its setup.  The first
    interpreter is discarded: it may compile the bytecode cache.
    """
    paths = [str(SRC), str(pathlib.Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    samples = []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        setup, unit = (float(word) for word in done.stdout.split()[-2:])
        samples.append((setup, setup * reference.NOMINAL_UNIT_S / unit))
    return tuple(statistics.median(column) for column in zip(*samples[1:]))


def time_op(op, runner=None) -> tuple[float, object, str | None]:
    """Run one op; return (seconds, result, failure or None)."""
    start = time.perf_counter()
    try:
        result = runner(op.run) if runner else op.run()
    except Exception as exc:  # an op that raises counts as failed
        return time.perf_counter() - start, None, f"{op.label}: raised {exc!r}"
    return time.perf_counter() - start, result, None


def check_op(op, result) -> str | None:
    try:
        op.check(result)
    except Exception as exc:  # so does one whose output fails its oracle
        return f"{op.label}: {exc}"
    return None


def run_checked(op, runner=None) -> tuple[float, str | None]:
    """Time one op, then check its output; return (seconds, failure or None)."""
    elapsed, result, failure = time_op(op, runner)
    return elapsed, failure or check_op(op, result)


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``fraction`` at or below it."""
    ordered = sorted(samples)
    return ordered[math.ceil(fraction * len(ordered)) - 1]


def timed_run(cycles, seconds: float) -> dict:
    """Whole cycles until ``seconds`` of op time and ``MIN_OPS`` ops are done.

    Right after each op, before its check, the loop times reference units
    for a tenth of the op time (at least ``MIN_REFERENCE_UNITS``); the op's
    scaled latency is its latency times the host speed those units show.
    """
    latencies: list[float] = []
    scaled: list[float] = []
    all_units: list[float] = []
    failures: list[str] = []
    family_time: collections.Counter = collections.Counter()
    for op in cycles[0][:WARMUP_OPS]:
        run_checked(op)
    busy = 0.0
    cycles_done = 0
    while busy < seconds or len(latencies) < MIN_OPS:
        for op in cycles[cycles_done % len(cycles)]:
            elapsed, result, failure = time_op(op)
            count = max(MIN_REFERENCE_UNITS, round(REFERENCE_SHARE * elapsed / reference.NOMINAL_UNIT_S))
            units = reference.time_units(count)
            all_units += units
            latencies.append(elapsed)
            scaled.append(elapsed * reference.NOMINAL_UNIT_S / statistics.mean(units))
            family_time[op.family] += elapsed
            busy += elapsed
            failure = failure or check_op(op, result)
            if failure:
                failures.append(failure)
        cycles_done += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "latencies": latencies,
        "scaled": scaled,
        "failures": failures,
        "busy": busy,
        "cycles": cycles_done,
        "family_time": family_time,
        "peak_rss_mb": peak_rss_mb,
        "speed": reference.NOMINAL_UNIT_S / statistics.mean(all_units),
    }


def traced_run(cycles, workload: str, seed: int) -> dict:
    """Run each op of the first cycle untraced, then traced, back to back."""
    ops = cycles[0]
    failures: list[str] = []
    for op in ops[:WARMUP_OPS]:
        run_checked(op)
    untraced = traced = 0.0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for index, op in enumerate(ops):
            elapsed, failure = run_checked(op)
            untraced += elapsed
            failures += [failure] if failure else []
            elapsed, failure = run_checked(op, lambda run, index=index: tracer.run_op(index, run))
            traced += elapsed
            failures += [failure] if failure else []
    finally:
        tracer.remove()
    tracer.write(OUT_DIR / f"trace-{workload}-{seed}.json")
    return {
        "ops": len(ops),
        "untraced": untraced,
        "traced": traced,
        "failures": failures,
        "summary": tracer.summary(),
        "counts": tracer.counts,
        "maxima": tracer.maxima,
    }


def per_layer_metrics(result: dict) -> dict[str, dict]:
    summary = result["summary"]
    metrics: dict[str, dict] = {}
    for name, kind in TIMED_SPANS.items():
        metrics[f"{name}.{kind}"] = {"value": summary.get(name, {}).get(kind, 0.0), "unit": "ms"}
    for layer in LAYERS:
        busy = sum(row["self_ms"] for name, row in summary.items() if name.startswith(layer + "."))
        metrics[f"layer.{layer}.self_ms"] = {"value": busy, "unit": "ms"}
    for name in (target[2] for target in tracing.SPAN_TARGETS):
        calls_name = RENAMED_CALLS.get(name, f"{name}.calls")
        metrics[calls_name] = {"value": int(summary.get(name, {}).get("calls", 0)), "unit": "count"}
    for name in COUNTERS:
        metrics[name] = {"value": int(result["counts"][name]), "unit": "count"}
    for name in MAXIMA:
        metrics[name] = {"value": int(result["maxima"][name]), "unit": "count"}
    metrics["trace.throughput_ratio"] = {
        "value": result["untraced"] / result["traced"],
        "unit": "ratio",
    }
    return metrics


def report_traced(result: dict) -> dict[str, dict]:
    print(f"{'span':52} {'calls':>8} {'ms':>10} {'self_ms':>10}")
    for name, row in sorted(result["summary"].items(), key=lambda item: -item[1]["self_ms"]):
        print(f"{name:52} {row['calls']:8d} {row['ms']:10.2f} {row['self_ms']:10.2f}")
    self_total = sum(row["self_ms"] for row in result["summary"].values())
    print(
        f"self-time sum {self_total:.1f} ms; traced ops {result['traced'] * 1e3:.1f} ms; "
        f"untraced ops {result['untraced'] * 1e3:.1f} ms; "
        f"traced/untraced {result['traced'] / result['untraced']:.3f}"
    )
    return per_layer_metrics(result)


def report_timed(result: dict, setup_wall: float, setup_s: float) -> dict[str, dict]:
    latencies = result["latencies"]
    scaled = result["scaled"]
    busy = result["busy"]
    wall = {
        "setup_s": setup_wall,
        "ops_per_s": len(latencies) / busy,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": percentile(latencies, 0.9) * 1e3,
    }
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": wall["ops_per_s"] / result["speed"], "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.median(scaled) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": percentile(scaled, 0.9) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    p90 = metrics["op_p90_ms"]["value"] / 1e3
    beyond = sum(1 for x in scaled if x > p90)
    print(
        f"{len(latencies)} ops in {result['cycles']} cycles, {busy:.2f} s of op time; "
        f"host speed {result['speed']:.4f} of nominal"
    )
    for family, spent in sorted(result["family_time"].items()):
        print(f"  family {family}: {100 * spent / busy:.1f}% of op time")
    notes = {
        "setup_s": f" (median of {SETUP_RUNS} interpreters)",
        "op_p50_ms": f" (n={len(latencies)})",
        "op_p90_ms": f" (n={len(latencies)}, {beyond} beyond)",
    }
    for name, metric in metrics.items():
        raw = f"; wall clock {wall[name]:.6g}" if name in wall else ""
        print(f"{name} {metric['value']:.6g} {metric['unit']}{notes.get(name, '')}{raw}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eqlef" / "__init__.py").is_file():
        print(f"error: no eqlef sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eqlef

    if pathlib.Path(eqlef.__file__).resolve().parent != (SRC / "eqlef").resolve():
        print(f"error: imported eqlef from {eqlef.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
        cycles = workloads.WORKLOADS[args.workload](args.seed, pathlib.Path(work_dir))
        print(f"workload {args.workload} seed {args.seed}: {len(cycles[0])} ops per cycle")
        if args.trace:
            result = traced_run(cycles, args.workload, args.seed)
            attempted = 2 * result["ops"]
            metrics = report_traced(result)
        else:
            setup_wall, setup_s = measure_setup()
            result = timed_run(cycles, args.seconds)
            attempted = len(result["latencies"])
            metrics = report_timed(result, setup_wall, setup_s)
    failures = result["failures"]
    print(f"fail_frac {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted})")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
