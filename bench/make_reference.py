"""Regenerate ``reference.json``: pull-in voltages at 166 GPa for every
(specimen, load, mode) case the pull-in workloads use.

    python3 bench/make_reference.py

The table is the yardstick each benchmark operation is checked against
(within 1 %, after scaling by sqrt(E / 166 GPa)), so regenerate it only
when the model itself is meant to change, and say so where the change is
recorded.  Takes about a minute on one core.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from micropull import find_pull_in

    import workloads

    table = {}
    for case in workloads.field2d_cases() + workloads.plate_cases():
        spec = case.spec.with_young_modulus(workloads.E_HIGH)
        # the table is searched to the fine bracket, whatever the workload's bracket
        config = dataclasses.replace(
            case.config, pull_in_bracket_tolerance=workloads.REFERENCE_BRACKET_V
        )
        table[case.key] = find_pull_in(spec, config).pull_in_voltage
        print(f"{case.key}: {table[case.key]!r} V", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"pull_in_voltage_at_166GPa": table}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
