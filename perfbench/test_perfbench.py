"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench -q``.

They live outside ``tests/`` so that the repository's own suite does not
collect them.
"""

from __future__ import annotations

import json
import pathlib
import random
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import eqlef  # noqa: E402
from eqlef import complex_model, invariants  # noqa: E402

import golden  # noqa: E402
import run  # noqa: E402
import torus_docs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Degree vectors for k = 1..7, with and without a coordinate of degree 1.
NIELSEN_CASES = (
    (2,),
    (1,),
    (-2, 3),
    (0, -1, 2),
    (3, 1, -2, 0),
    (-1, 2, 0, 3, -2),
    (2, -1, 3, 0, -2, -1),
    (-1, 2, 3, 0, 2, -1, -2),
)


def test_torus_documents_satisfy_the_nielsen_formula():
    for degrees in NIELSEN_CASES:
        c = complex_model.load_complex(torus_docs.torus_document(degrees))
        assert len(c.classes[0].degrees) == len(degrees) + 1
        assert sum(entry.rank for entry in c.classes[0].degrees) == 2 ** len(degrees)
        workloads.check_nielsen(invariants.build_report(c), degrees)


def test_torus_degrees_stay_inside_the_golden_enumeration():
    rng = random.Random(0)
    for k in (3, 4):
        space = set(workloads.all_torus_degrees(k))
        assert all(workloads.torus_degrees(rng, k) in space for _ in range(50))


def test_generators_give_valid_inputs_at_tiny_sizes(tmp_path):
    rng = random.Random(0)
    ops = [workloads._torus_op(workloads.torus_degrees(rng, 3), {})]
    ops.append(workloads._dense_op([[1, 2], [3, -1]], [[2]], tmp_path))
    for kind in ("cycle", "circulant"):
        rows = workloads.tied_block(rng, kind, 3)
        ops.append(workloads._tied_op(rows, [2, 0, 1], kind))
    for op in ops:
        op.check(op.run())


def test_report_mix_documents_load_and_pass_their_checks(tmp_path):
    (cycle, *_) = workloads.report_mix(0, tmp_path)
    assert {op.family for op in cycle} == {"builtin", *workloads.REPORT_GROUPS}
    for op in cycle:
        if op.family != "Zn:60":
            op.check(op.run())


def test_golden_digests_match_the_program():
    assert golden.capture() == json.loads(workloads.GOLDEN_PATH.read_text(encoding="utf-8"))


def _bindings():
    """Every attribute of every eqlef module and of every patched class."""
    modules = [m for key, m in sys.modules.items() if key == "eqlef" or key.startswith("eqlef.")]
    owners = modules + [
        getattr(sys.modules[f"eqlef.{module}"], path.split(".")[0])
        for module, path, _ in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS
        if "." in path
    ]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_tracer_removal_restores_every_original_object():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert eqlef.cli.main is not before[(id(eqlef.cli), "main")]
        assert eqlef.complex_model.load_complex is not before[(id(eqlef.complex_model), "load_complex")]
        assert eqlef.load_complex is eqlef.complex_model.load_complex
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_per_layer_counts_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    for workload in ("report_mix", "tied_blocks"):
        counts = []
        for _ in range(2):
            cycles = workloads.WORKLOADS[workload](5, tmp_path)
            result = run.traced_run(cycles, workload, 5)
            assert not result["failures"]
            metrics = run.per_layer_metrics(result)
            counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
        assert counts[0] == counts[1]
        assert counts[0]["invariants.KClass.from_terms.calls"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
