"""micropull benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload pullin-field2d --seed 1 --seconds 40 --trace 0

Each run starts fresh worker processes (``worker.py``) with the BLAS thread
count pinned to 1 before numpy loads.  Four set-up-only workers and the
measuring worker give five set-up samples, of which the median is
reported.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  Human-readable lines, including the
environment, come first; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A completed run exits 0, with ``correct`` false if any operation raised or
failed its check.  A run that cannot complete (no ``src/micropull`` beside
``bench/``, a worker that crashes or overruns, a traced run whose wrappers
miss the library) exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, set-up workers included


def _worker(args, extra, deadline) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), *extra,
        "--spawned", repr(time.monotonic()),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for a worker before the run's deadline")
    # subprocess.run kills the worker and waits for it on timeout
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=remaining, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _percentile_line(times) -> str:
    """The highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(times)
    best = None
    for p in (50, 75, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return f"n={n}; no percentile has ten samples beyond it"
    value = statistics.quantiles(times, n=100, method="inclusive")[best - 1]
    return f"n={n}; p{best}={value:.4f} s"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="micropull benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    needed = [ROOT / "src" / "micropull" / "__init__.py", HERE / "reference.json"]
    missing = [str(f.relative_to(ROOT)) for f in needed if not f.is_file()]
    if missing:
        print(f"error: cannot run, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            setups = []
            main_out = _worker(args, ["--seconds", str(args.seconds), "--trace", "1"], deadline)
        else:
            setups = [
                _worker(args, ["--setup-only"], deadline)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            main_out = _worker(args, ["--seconds", str(args.seconds)], deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(main_out["setup_s"])

    env = main_out["env"]
    print(
        f"# micropull benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(
        "# env: nproc={nproc} usable={cpus_usable} python={python} numpy={numpy} "
        "scipy={scipy} ".format(**env)
        + " ".join(f"{k}={v}" for k, v in env["threads"].items())
    )
    attempted, failed = main_out["attempted"], main_out["failed"]
    for reason in main_out["failures"]:
        print(f"# FAILED {reason}")
    print(f"fail_frac          {failed / attempted:.4f}  ({failed} of {attempted} operations)")

    if args.trace:
        metrics = main_out["layers"]
        table = PER_LAYER
        print(f"# traced operations: {main_out['traced_ops']}; calls: {main_out['calls']}")
    else:
        metrics = {
            "ops_per_s": main_out["ops_per_s"],
            "op_s_p50": main_out["op_s_p50"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main_out["peak_rss_mb"],
        }
        table = END_TO_END
        print(f"# {main_out['cycles']} cycles, {main_out['wall_s']:.2f} s measured")
        print(f"# op_s_p50 {_percentile_line(main_out['op_times_s'])}")
        print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    if set(metrics) != set(table):
        print(f"error: metrics {sorted(set(metrics) ^ set(table))} do not match the table",
              file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name:<44} {value:.6g} {table[name][0]}")

    if not all(math.isfinite(v) for v in metrics.values()):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": table[k][0]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
