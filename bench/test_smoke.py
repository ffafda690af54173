"""Smoke-size checks of the benchmark itself, not of micropull's speed.

    python3 -m pytest -q bench/test_smoke.py

One small operation per workload, traced twice: counts must repeat exactly,
the wrappers must fire where the workload needs them, and every metric the
benchmark declares must be produced.  No timing is judged.  Takes about
a minute, most of it one field2d pull-in run twice.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import metrics  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

def _smoke_ops(name):
    """The workload and its smoke-size operations.

    Field workloads: the first operation of a cycle.  Plate load: the first
    operation of each mode, so that every beam entry point the workload
    must reach is reached.
    """
    workload = workloads.build(name)
    ops = workload.cycle(np.random.default_rng([0, 0]))
    if name != "pullin-plate":
        return workload, ops[:1]
    first_of_mode = {}
    for op in ops:
        structural, coupling = op.label.split()[0].split("/")[3:]
        first_of_mode.setdefault((structural, coupling), op)
    return workload, list(first_of_mode.values())


def _traced_calls(ops):
    tracer = spans.Tracer()
    with tracer.installed():
        results = [tracer.op(op.call) for op in ops]
    for op, result in zip(ops, results):
        assert op.check(result) is None, op.label
    sweep_points = sum(worker._sweep_points(r) for r in results)
    _, calls = spans.layer_metrics(tracer, len(ops), sweep_points)
    return calls


@pytest.mark.parametrize("name", metrics.WORKLOADS)
def test_counts_exact_and_coverage(name):
    workload, ops = _smoke_ops(name)
    first = _traced_calls(ops)
    second = _traced_calls(ops)
    assert first == second
    assert first[spans.OP] == len(ops)
    spans.check_coverage(first, workload.must_fire, workload.must_not_fire)


def test_wrappers_restored():
    before = [getattr(owner, attr) for _, owner, attr in spans.TARGETS]
    with spans.Tracer().installed():
        pass
    assert [getattr(owner, attr) for _, owner, attr in spans.TARGETS] == before


def test_coverage_guard_fails_loudly():
    with pytest.raises(spans.CoverageError, match="electro.spsolve"):
        spans.check_coverage({"electro.spsolve": 0}, {"electro.spsolve"}, set())
    with pytest.raises(spans.CoverageError, match="electro.solve_field2d"):
        spans.check_coverage({"electro.solve_field2d": 3}, set(), {"electro.solve_field2d"})


def test_traced_pass_reports_every_per_layer_metric():
    workload, ops = _smoke_ops("pullin-plate")
    out = worker._measure_traced(workload, ops, 0.0, [])
    assert out["failed"] == 0
    assert set(out["layers"]) == set(metrics.PER_LAYER)
    assert out["layers"]["electro.solve_field2d.calls_per_op"] == 0
    assert out["layers"]["beam.share"] > out["layers"]["electro.share"]


def test_benchmark_json_matches_metric_tables():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(metrics.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]} == (
        metrics.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == (
        metrics.PER_LAYER
    )


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pullin-plate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
