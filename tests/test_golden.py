"""CLI output against committed goldens, byte for byte.

Each golden under ``tests/golden/`` but ``specimens-builtin.json`` (the
saved-file golden of ``tests/test_catalog.py``) and ``gap-closure-reasons.json``
(of ``tests/test_coupled.py``) is the standard output of
one command line run through ``cli.run``: ``<case>.csv``, or ``<case>`` itself for the
``.json`` cases, which add ``--format json``.  A refactor that keeps the algorithm must keep
these bytes.  To record them again from the current tree (only where a
change of output is intended and explained):

    PYTHONPATH=src python tests/test_golden.py

To run every case through a command instead, such as the installed console
script; it exits 1 and names each case whose exit code is not 0 or whose
output differs, with the first line where output and golden differ:

    python tests/test_golden.py --check micropull
"""

import argparse
import contextlib
import io
import itertools
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from micropull.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    **{
        f"pullin-{spec}-{dims}-{model}-{coupling}": [
            "pullin", "--id", spec, "--dims", dims, "--load", "plate",
            "--model", model, "--coupling", coupling,
        ]
        for spec, dims in (("ST1-1", "measured"), ("ST1-3", "nominal"))
        for model in ("linear", "nonlinear")
        for coupling in ("staggered", "monolithic")
    },
    # the defaults: field2d load, nonlinear beam, staggered coupling
    "pullin-ST1-1-measured-field2d-nonlinear-staggered": [
        "pullin", "--id", "ST1-1", "--dims", "measured",
    ],
    "sweep-ST1-1-measured-plate-linear-monolithic": [
        "sweep", "--id", "ST1-1", "--dims", "measured", "--load", "plate",
        "--model", "linear", "--coupling", "monolithic", "--vmax", "200", "--steps", "8",
    ],
    # the staggered plate sweep ends in a point that fails on gap closure
    "sweep-ST1-1-measured-plate-nonlinear-staggered": [
        "sweep", "--id", "ST1-1", "--dims", "measured", "--load", "plate",
        "--model", "nonlinear", "--coupling", "staggered", "--vmax", "200", "--steps", "8",
    ],
    "band-ST1-6-measured-plate-linear": [
        "band", "--id", "ST1-6", "--dims", "measured", "--load", "plate",
        "--model", "linear", "--vmax", "100", "--steps", "6",
    ],
    # the default field2d load on the modulus band: its iteration counts
    "band-ST1-6-measured-field2d-nonlinear": [
        "band", "--id", "ST1-6", "--dims", "measured", "--vmax", "100", "--steps", "3",
    ],
    "sweep-ST1-1-measured-field2d-linear": [
        "sweep", "--id", "ST1-1", "--dims", "measured", "--load", "field2d",
        "--model", "linear", "--vmax", "200", "--steps", "5",
    ],
    "catalog": ["catalog"],
    "ratios-ST1-8-measured": ["ratios", "--id", "ST1-8", "--dims", "measured"],
    "analytic-ST1-3-nominal-E150": ["analytic", "--id", "ST1-3", "--E", "150"],
}
CASES.update({
    f"{name}.json": [*CASES[name], "--format", "json"]
    for name in (
        "catalog",
        "sweep-ST1-1-measured-plate-linear-monolithic",
        "band-ST1-6-measured-plate-linear",
        "pullin-ST1-1-measured-linear-monolithic",
    )
})


def _golden(name: str) -> Path:
    return GOLDEN / (name if name.endswith(".json") else f"{name}.csv")


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = _golden(name).read_text(encoding="utf-8")
    assert _run(CASES[name]) == expected


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Record the goldens, or check a command.")
    parser.add_argument("--check", metavar="CMD", help="run every case through CMD (shlex-split)")
    cmd = parser.parse_args().check
    if cmd is None:
        GOLDEN.mkdir(exist_ok=True)
        for name, argv in CASES.items():
            _golden(name).write_text(_run(argv), encoding="utf-8")
            print(name, file=sys.stderr)
        sys.exit(0)

    def difference(name: str, argv) -> str | None:
        proc = subprocess.run([*shlex.split(cmd), *argv], capture_output=True)
        if proc.returncode != 0:
            return f"exit code {proc.returncode}"
        golden = _golden(name).read_text(encoding="utf-8").splitlines(keepends=True)
        output = proc.stdout.decode("utf-8", "replace").splitlines(keepends=True)
        pairs = itertools.zip_longest(golden, output, fillvalue="<end>")
        for number, (want, got) in enumerate(pairs, 1):
            if want != got:
                return f"line {number}: golden {want!r}, output {got!r}"
        return None

    differ = False
    for name, argv in CASES.items():
        found = difference(name, argv)
        if found is not None:
            print(f"differs: {name}: {found}", file=sys.stderr)
            differ = True
    sys.exit(1 if differ else 0)
