"""Spans around the library's public functions, patched in from outside.

``Tracer.installed()`` rebinds the public functions of ``micropull.electro``
and ``micropull.beam`` (and ``scipy.sparse.linalg.spsolve``, which
``electro`` reaches through the module attribute) to timing wrappers, and
restores them on exit.  The library calls these through module attributes,
so every call, including those between its own modules, passes a wrapper.
Each operation is one more span, opened by the benchmark around the
``micropull.coupled`` call it makes; whatever of it no wrapper covers is
``coupled`` self time.

Spans are kept in memory as (name, start, end, parent, flag) and reduced
to per-layer metrics when the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import scipy.sparse.linalg as spla

from micropull import beam, electro
from micropull.errors import GapClosureError

OP = "coupled.op"

# (span name, owner, attribute)
TARGETS = (
    ("electro.solve_field2d", electro, "solve_field2d"),
    ("electro.spsolve", spla, "spsolve"),
    ("electro.maxwell_load", electro, "maxwell_load"),
    ("electro.plate_load", electro, "plate_load"),
    ("beam.consistent_load_vector", beam, "consistent_load_vector"),
    ("beam.newton_solve", beam, "newton_solve"),
    ("beam.corotational_internal", beam, "corotational_internal"),
    ("beam.solve_clamped_banded", beam, "solve_clamped_banded"),
    ("beam.solve_nonlinear", beam, "solve_nonlinear"),
    ("beam.LinearBeamOperator.solve", beam.LinearBeamOperator, "solve"),
)


class CoverageError(RuntimeError):
    """A wrapper saw calls it must not see, or none where it must see some."""


@dataclass
class _Span:
    name: str
    start: float
    end: float
    parent: int | None
    flag: str | None  # exception name, or "nonconverged" for a failed Newton solve


class Tracer:
    def __init__(self):
        self.spans: list[_Span] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = _Span(name, 0.0, 0.0, stack[-1] if stack else None, None)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.flag = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if name == "beam.newton_solve" and not out[2]:
                span.flag = "nonconverged"
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every target to its wrapper; restore the originals on exit."""
        originals = []
        try:
            for name, owner, attr in TARGETS:
                fn = getattr(owner, attr)  # AttributeError: a target was renamed
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def op(self, call):
        """Run one operation inside an op span; returns the call's result."""
        return self._wrap(OP, call)()


def layer_metrics(tracer: Tracer, n_ops: int, sweep_points: int):
    """Reduce the spans of ``n_ops`` traced operations to per-layer metrics.

    Returns (metrics, calls per span name); ``process.cpu_over_wall`` and
    ``trace.overhead_frac`` are the caller's to add.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    nested_in_newton = 0
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
            parent = spans[s.parent].name
            if s.name == "beam.corotational_internal" and parent == "beam.newton_solve":
                nested_in_newton += 1

    names = [OP] + [name for name, _, _ in TARGETS]
    calls = dict.fromkeys(names, 0)
    total = dict.fromkeys(names, 0.0)
    self_time = dict.fromkeys(names, 0.0)
    flags = Counter()
    field_ms = []
    for i, s in enumerate(spans):
        d = s.end - s.start
        calls[s.name] += 1
        total[s.name] += d
        self_time[s.name] += d - child_time[i]
        if s.flag:
            flags[f"{s.name}:{s.flag}"] += 1
        if s.name == "electro.solve_field2d":
            field_ms.append(1e3 * d)

    op_time = total[OP]
    electro_self = sum(v for k, v in self_time.items() if k.startswith("electro."))
    beam_self = sum(v for k, v in self_time.items() if k.startswith("beam."))
    newton = calls["beam.newton_solve"]

    def per_op(x):
        return x / n_ops

    return {
        "electro.solve_field2d.calls_per_op": per_op(calls["electro.solve_field2d"]),
        "electro.solve_field2d.gap_closures_per_op": per_op(
            flags[f"electro.solve_field2d:{GapClosureError.__name__}"]
        ),
        "electro.solve_field2d.ms_p50": statistics.median(field_ms) if field_ms else 0.0,
        "electro.solve_field2d.self_s_per_op": per_op(self_time["electro.solve_field2d"]),
        "electro.spsolve.s_per_op": per_op(total["electro.spsolve"]),
        "electro.maxwell_load.s_per_op": per_op(total["electro.maxwell_load"]),
        "electro.plate_load.calls_per_op": per_op(calls["electro.plate_load"]),
        "electro.plate_load.s_per_op": per_op(total["electro.plate_load"]),
        "electro.share": electro_self / op_time,
        "beam.newton_solve.calls_per_op": per_op(newton),
        "beam.newton_solve.ok_frac": (
            1.0 - flags["beam.newton_solve:nonconverged"] / newton if newton else 0.0
        ),
        "beam.newton_solve.iters_per_call": nested_in_newton / newton if newton else 0.0,
        "beam.newton_solve.self_s_per_op": per_op(self_time["beam.newton_solve"]),
        "beam.corotational_internal.calls_per_op": per_op(calls["beam.corotational_internal"]),
        "beam.corotational_internal.s_per_op": per_op(total["beam.corotational_internal"]),
        "beam.solve_clamped_banded.calls_per_op": per_op(calls["beam.solve_clamped_banded"]),
        "beam.solve_clamped_banded.s_per_op": per_op(total["beam.solve_clamped_banded"]),
        "beam.solve_nonlinear.calls_per_op": per_op(calls["beam.solve_nonlinear"]),
        "beam.solve_nonlinear.self_s_per_op": per_op(self_time["beam.solve_nonlinear"]),
        "beam.LinearBeamOperator.solve.calls_per_op": per_op(
            calls["beam.LinearBeamOperator.solve"]
        ),
        "beam.LinearBeamOperator.solve.s_per_op": per_op(total["beam.LinearBeamOperator.solve"]),
        "beam.consistent_load_vector.s_per_op": per_op(total["beam.consistent_load_vector"]),
        "beam.share": beam_self / op_time,
        "coupled.self_s_per_op": per_op(self_time[OP]),
        "coupled.load_evals_per_op": per_op(
            calls["electro.solve_field2d"] + calls["electro.plate_load"]
        ),
        "coupled.sweep_points_per_op": per_op(sweep_points),
        "coupled.share": self_time[OP] / op_time,
    }, calls


def check_coverage(calls: dict[str, int], must_fire, must_not_fire) -> None:
    """Raise CoverageError unless the wrappers fired exactly where expected."""
    silent = sorted(name for name in must_fire if calls.get(name, 0) == 0)
    if silent:
        raise CoverageError(
            f"wrappers saw no calls: {', '.join(silent)}; the library no longer reaches "
            "them through the patched attribute (renamed or rebound?)"
        )
    stray = sorted(name for name in must_not_fire if calls.get(name, 0) > 0)
    if stray:
        raise CoverageError(f"wrappers fired where this workload must not: {', '.join(stray)}")
