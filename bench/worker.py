"""One benchmark run of one workload, in its own process.

Started by ``run.py``, which pins the BLAS thread count in this process's
environment before numpy is imported.  Prints one JSON object on stdout.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --spawned T
    python3 bench/worker.py --workload NAME --seed N --setup-only --spawned T

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _timed(op, run=lambda call: call()):
    """Run one operation; returns (seconds, failure reason or None, result)."""
    t0 = time.perf_counter()
    try:
        result = run(op.call)
        reason = op.check(result)
    except Exception as exc:  # an operation that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        result, reason = None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, reason, result


def _rng(seed: int, cycle: int):
    import numpy as np

    return np.random.default_rng([seed, cycle])


def _sweep_points(result) -> int:
    if isinstance(result, tuple):  # a modulus band: (low sweep, high sweep)
        return sum(len(s.points) for s in result)
    return 0


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def _measure(workload, seed: int, seconds: float, first_op_at: list) -> dict:
    """Untraced closed loop over whole cycles.

    The first cycle always runs; another starts only if, at the mean cycle
    time so far, it would end within ``seconds``.
    """
    times, failures = [], []
    passed = 0
    cycle = 0
    t_start = None
    while True:
        ops = workload.cycle(_rng(seed, cycle))
        if t_start is None:
            first_op_at.append(time.monotonic())
            t_start = time.perf_counter()
        for op in ops:
            dt, reason, _ = _timed(op)
            times.append(dt)
            if reason is None:
                passed += 1
            else:
                failures.append(f"{op.label}: {reason}")
        cycle += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / cycle > seconds:  # another cycle would overrun
            break
    wall = time.perf_counter() - t_start
    return {
        "attempted": len(times),
        "failed": len(failures),
        "failures": failures[:10],
        "cycles": cycle,
        "wall_s": wall,
        "ops_per_s": passed / wall,
        "op_times_s": times,
    }


def _measure_traced(workload, ops, seconds: float, first_op_at: list) -> dict:
    """Pairs of an untraced and a traced pass over the same operations.

    Repeating one set of inputs keeps the per-operation counts exact
    whatever the number of pairs; the untraced pass of each pair is the
    reference for the tracing overhead.
    """
    from spans import Tracer, check_coverage, layer_metrics

    tracer = Tracer()
    plain_s = traced_s = 0.0
    n_traced = sweep_points = pairs = 0
    attempted = 0
    failures = []
    first_op_at.append(time.monotonic())
    t_start = time.perf_counter()
    cpu_start = time.process_time()
    while True:
        for op in ops:
            dt, reason, _ = _timed(op)
            plain_s += dt
            attempted += 1
            if reason is not None:
                failures.append(f"{op.label}: {reason}")
        with tracer.installed():
            for op in ops:
                dt, reason, result = _timed(op, tracer.op)
                traced_s += dt
                attempted += 1
                n_traced += 1
                sweep_points += _sweep_points(result)
                if reason is not None:
                    failures.append(f"{op.label} (traced): {reason}")
        pairs += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / pairs > seconds:
            break
    wall = time.perf_counter() - t_start
    cpu = time.process_time() - cpu_start
    metrics, calls = layer_metrics(tracer, n_traced, sweep_points)
    check_coverage(calls, workload.must_fire, workload.must_not_fire)
    metrics["process.cpu_over_wall"] = cpu / wall
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "traced_ops": n_traced,
        "calls": {k: v for k, v in calls.items() if v},
        "layers": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned", type=float, required=True)
    args = p.parse_args(argv)

    for var in THREAD_VARS:  # run.py sets these; never let numpy start unpinned
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

    import micropull
    import workloads

    if Path(micropull.__file__).resolve().parent != ROOT / "src" / "micropull":
        raise SystemExit(f"imported micropull from {micropull.__file__}, not from this checkout")

    workload = workloads.build(args.workload)
    workload.warm_up()

    first_op_at: list[float] = []
    out = {"workload": args.workload, "env": environment(args.seed)}
    if args.setup_only:
        first_op_at.append(time.monotonic())
    elif args.trace:
        ops = workload.cycle(_rng(args.seed, 0))
        out.update(_measure_traced(workload, ops, args.seconds, first_op_at))
    else:
        out.update(_measure(workload, args.seed, args.seconds, first_op_at))
    out["setup_s"] = first_op_at[0] - args.spawned
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if "op_times_s" in out:
        out["op_s_p50"] = statistics.median(out["op_times_s"])
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
