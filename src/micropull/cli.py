"""Command-line front end.

Subcommands: catalog, ratios, analytic, sweep, pullin, band.  Values cross
the CLI boundary in micrometres, volts and GPa; everything internal is SI.
Output is CSV by default (JSON with --format json), written to --out or
standard output.  Exit codes: 0 success, 2 usage error, 3 solver
non-convergence where convergence was required, 4 file error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import Sequence, TextIO

from . import catalog, electro
from .analytic import osterberg_pull_in
from .coupled import (
    VOLTAGE_CAP,
    SolverConfig,
    SweepResult,
    find_pull_in,
    modulus_band_sweep,
    voltage_sweep,
)
from .errors import PullInNotFoundError, SpecimenFormatError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_FILE = 4


class _UsageError(Exception):
    pass


def _fmt(value: float) -> str:
    """Shortest exact decimal form; keeps CSV output byte-stable."""
    return repr(float(value))


def _fmt6(value: float) -> str:
    """Six significant digits (micrometre displacement columns)."""
    return f"{value:.6g}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="micropull",
        description=(
            "Static simulation of electrostatically actuated microcantilevers: "
            "displacement-voltage curves and pull-in prediction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_selector(p: argparse.ArgumentParser) -> None:
        p.add_argument("--id", help="specimen id, e.g. ST1-1")
        p.add_argument("--file", help="specimen file (JSON, micrometre units)")
        p.add_argument(
            "--dims", choices=(catalog.NOMINAL, catalog.MEASURED),
            help="dimension set (default: nominal)",
        )

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_model(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", choices=("linear", "nonlinear"), default="nonlinear")
        p.add_argument("--load", choices=("plate", "field2d"), default="field2d")
        p.add_argument(
            "--coupling", choices=("staggered", "monolithic"), default="staggered"
        )
        p.add_argument("--fringing", type=float, metavar="F",
                       help="fringing coefficient of the plate load (--load plate only)")
        p.add_argument("--E", dest="modulus", metavar="GPA[,GPA]",
                       help="override Young's modulus; a pair selects a band")
        p.add_argument("--dump-field", dest="dump_field", metavar="PATH",
                       help="write the final potential grid as CSV "
                            "(sweep and pullin, field2d only)")

    p = sub.add_parser("catalog", help="list specimens")
    p.add_argument("--file", help="specimen file instead of the built-in catalog")
    add_output(p)

    p = sub.add_parser("ratios", help="aspect ratios and behaviour flags")
    add_selector(p)
    add_output(p)

    p = sub.add_parser("analytic", help="closed-form pull-in estimate")
    add_selector(p)
    p.add_argument("--E", dest="modulus", metavar="GPA")
    add_output(p)

    p = sub.add_parser("sweep", help="displacement-voltage sweep")
    add_selector(p)
    add_model(p)
    p.add_argument("--vmax", type=float, required=True, metavar="V")
    p.add_argument("--steps", type=int, default=20, metavar="N")
    add_output(p)

    p = sub.add_parser("pullin", help="bracket the pull-in voltage")
    add_selector(p)
    add_model(p)
    add_output(p)

    p = sub.add_parser("band", help="sweeps at the ends of a modulus band")
    add_selector(p)
    add_model(p)
    p.add_argument("--vmax", type=float, required=True, metavar="V")
    p.add_argument("--steps", type=int, default=20, metavar="N")
    add_output(p)

    return parser


def _specimens_for(args) -> list[catalog.Specimen]:
    if getattr(args, "file", None):
        return catalog.load_specimens(args.file)
    return catalog.builtin_catalog()


def _select(args) -> catalog.Specimen:
    """The specimen of --id and --dims; without --id, the set's only entry,
    which an explicit --dims must match."""
    specimens = _specimens_for(args)
    if not args.id:
        if not specimens:
            raise _UsageError("the specimen set is empty")
        if len(specimens) > 1:
            raise _UsageError("--id is required (the specimen set has several entries)")
        if args.dims is None:
            return specimens[0]
    specimen_id = args.id or specimens[0].id
    try:
        return catalog.select_specimen(specimens, specimen_id, args.dims or catalog.NOMINAL)
    except KeyError as exc:
        raise _UsageError(str(exc.args[0])) from exc


def _parse_modulus(text: str | None, expect_pair: bool) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        values = tuple(float(part) * 1e9 for part in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"--E must be GPa numbers, got {text!r}") from exc
    if expect_pair and len(values) != 2:
        raise _UsageError("--E must be a 'low,high' GPa pair for band sweeps")
    if not expect_pair and len(values) != 1:
        raise _UsageError("--E takes a single GPa value for this command")
    if not all(catalog.MIN_YOUNG_MODULUS <= v < math.inf for v in values):
        raise _UsageError(f"--E values must be finite, at least {catalog.MIN_YOUNG_MODULUS:g} Pa")
    if expect_pair and values[0] == values[1]:
        raise _UsageError("--E band ends must differ")
    return values


def _check_sweep_range(args) -> None:
    if not 0.0 < args.vmax <= VOLTAGE_CAP:
        raise _UsageError(f"--vmax must lie in (0, {VOLTAGE_CAP:.0f}] V, got {args.vmax!r}")
    if args.steps < 2:
        raise _UsageError(f"--steps must be at least 2, got {args.steps}")


def _solver_config(args) -> SolverConfig:
    kind = electro.PARALLEL_PLATE if args.load == "plate" else electro.FIELD_2D
    if args.dump_field and kind != electro.FIELD_2D:
        raise _UsageError("--dump-field requires --load field2d")
    if args.fringing is not None and kind != electro.PARALLEL_PLATE:
        raise _UsageError("--fringing requires --load plate")
    fringing = {} if args.fringing is None else {"fringing_coefficient": args.fringing}
    try:
        return SolverConfig(
            structural_mode=args.model,
            load_model=electro.LoadModelConfig(kind=kind, **fringing),
            coupling_mode=args.coupling,
        )
    except ValueError as exc:
        raise _UsageError(f"invalid model options: {exc}") from exc


def _write_csv(
    sink: TextIO, header, rows, six_digit: tuple[str, ...] = (), comments=()
) -> None:
    """A header line, one line per row dict, then ``# `` comment lines.  Cells
    print floats exactly (``six_digit`` keys to six digits), booleans lower case."""

    def cell(key: str, value) -> str:
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, float):
            return _fmt6(value) if key in six_digit else _fmt(value)
        return str(value)

    sink.write(",".join(header) + "\n")
    for row in rows:
        sink.write(",".join(cell(k, row[k]) for k in header) + "\n")
    for line in comments:
        sink.write(f"# {line}\n")


_SWEEP_HEADER = ("voltage_V", "tip_displacement_um", "converged", "iterations")
_SWEEP_SIX_DIGIT = ("tip_displacement_um",)


def _sweep_rows(result: SweepResult) -> list[dict]:
    return [
        dict(zip(_SWEEP_HEADER, (p.voltage, p.tip_displacement * 1e6, p.converged, p.iterations)))
        for p in result.points
    ]


def _pull_in_comments(result: SweepResult, tag: str = "") -> list[str]:
    return [f"pull_in_V{tag}={_fmt(result.pull_in.pull_in_voltage)}"] if result.pull_in else []


def emit_sweep_csv(result: SweepResult, sink: TextIO) -> None:
    """Serialize a sweep: one row per point, trailing pull-in comment if any."""
    rows = _sweep_rows(result)
    _write_csv(sink, _SWEEP_HEADER, rows, _SWEEP_SIX_DIGIT, _pull_in_comments(result))


def _sweep_json_obj(result: SweepResult) -> dict:
    return {
        "points": _sweep_rows(result),
        "pull_in_V": result.pull_in.pull_in_voltage if result.pull_in else None,
    }


def _emit(args, csv_writer, json_obj) -> None:
    """Write ``json_obj`` as JSON with --format json, else call ``csv_writer``."""
    stdout = contextlib.nullcontext(sys.stdout)
    with open(args.out, "w", encoding="utf-8", newline="") if args.out else stdout as sink:
        if args.format == "json":
            json.dump(json_obj, sink, indent=2)
            sink.write("\n")
        else:
            csv_writer(sink)


def _emit_row(args, row: dict, six_digit: tuple[str, ...] = ()) -> None:
    """One record as a CSV header and row, or as the JSON object."""
    _emit(args, lambda sink: _write_csv(sink, row, [row], six_digit), row)


def _select_with_modulus(args) -> catalog.Specimen:
    """The selected specimen, with the single ``--E`` value applied if given."""
    spec = _select(args)
    modulus = _parse_modulus(args.modulus, expect_pair=False)
    return spec.with_young_modulus(modulus[0]) if modulus else spec


_CATALOG_HEADER = (
    "id", "dimension_source", "length_um", "width_um", "thickness_um", "gap_um",
    "young_modulus_gpa", "poisson_ratio",
)


def _cmd_catalog(args) -> int:
    records = map(catalog.specimen_record, _specimens_for(args))
    rows = [{key: rec[key] for key in _CATALOG_HEADER} for rec in records]
    _emit(args, lambda sink: _write_csv(sink, _CATALOG_HEADER, rows), {"specimens": rows})
    return EXIT_OK


def _cmd_ratios(args) -> int:
    spec = _select(args)
    ratios = catalog.aspect_ratios(spec)
    flags = catalog.classify(ratios)
    row = {"id": spec.id, "dimension_source": spec.dimension_source}
    row.update(vars(ratios))
    row.update(vars(flags))
    _emit_row(args, row, six_digit=("r1", "r2", "r3", "r4"))
    return EXIT_OK


def _cmd_analytic(args) -> int:
    spec = _select_with_modulus(args)
    estimate = osterberg_pull_in(spec)
    row = {
        "id": spec.id,
        "dimension_source": spec.dimension_source,
        "method": "osterberg",
        "pull_in_voltage_V": estimate.voltage,
        "pull_in_displacement_um": estimate.displacement * 1e6,
    }
    _emit_row(args, row, six_digit=("pull_in_displacement_um",))
    return EXIT_OK


def _maybe_dump_field(args, spec, cfg: SolverConfig, voltage: float, state) -> None:
    """Write the potential of the reported equilibrium ``state`` at ``voltage``."""
    if not args.dump_field:
        return
    field = electro.solve_field2d(spec, state, voltage, cfg.load_model)
    columns = zip(field.grid_x.tolist(), field.grid_y.tolist(), field.potential.tolist())
    rows = [
        {"x_um": x * 1e6, "y_um": y * 1e6, "phi_V": phi}
        for x, ys, phis in columns
        for y, phi in zip(ys, phis)
    ]
    with open(args.dump_field, "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, ("x_um", "y_um", "phi_V"), rows)


def _cmd_sweep(args) -> int:
    spec = _select_with_modulus(args)
    cfg = _solver_config(args)
    _check_sweep_range(args)
    result = voltage_sweep(spec, args.vmax, args.steps, cfg)
    _emit(args, lambda sink: emit_sweep_csv(result, sink), _sweep_json_obj(result))
    converged = result.converged_points()
    last = converged[-1] if converged else result.pull_in  # pullin's state if none converged
    voltage = last.voltage if converged else last.bracket_low
    _maybe_dump_field(args, spec, cfg, voltage, last.deflection)
    return EXIT_OK


def _cmd_pullin(args) -> int:
    spec = _select_with_modulus(args)
    cfg = _solver_config(args)
    result = find_pull_in(spec, cfg)
    row = {
        "id": spec.id,
        "dimension_source": spec.dimension_source,
        "pull_in_V": result.pull_in_voltage,
        "bracket_low_V": result.bracket_low,
        "bracket_high_V": result.bracket_high,
        "last_stable_tip_um": result.tip_displacement * 1e6,
    }
    _emit_row(args, row, six_digit=("last_stable_tip_um",))
    _maybe_dump_field(args, spec, cfg, result.bracket_low, result.deflection)
    return EXIT_OK


def _cmd_band(args) -> int:
    if args.dump_field:
        raise _UsageError("--dump-field is not supported by band")
    spec = _select(args)
    moduli = _parse_modulus(args.modulus, expect_pair=True) or (150e9, 166e9)
    e_low, e_high = sorted(moduli)
    cfg = _solver_config(args)
    _check_sweep_range(args)
    low, high = modulus_band_sweep(spec, e_low, e_high, args.vmax, args.steps, cfg)
    sweeps = ((e_low / 1e9, low), (e_high / 1e9, high))
    rows = [{"young_modulus_gpa": e, **row} for e, sweep in sweeps for row in _sweep_rows(sweep)]
    comments = [c for e, sweep in sweeps for c in _pull_in_comments(sweep, f"[{_fmt(e)}]")]
    json_obj = {
        "low_modulus_gpa": e_low / 1e9,
        "high_modulus_gpa": e_high / 1e9,
        "low": _sweep_json_obj(low),
        "high": _sweep_json_obj(high),
    }
    header = ("young_modulus_gpa", *_SWEEP_HEADER)
    _emit(args, lambda sink: _write_csv(sink, header, rows, _SWEEP_SIX_DIGIT, comments), json_obj)
    return EXIT_OK


_COMMANDS = {
    "catalog": _cmd_catalog,
    "ratios": _cmd_ratios,
    "analytic": _cmd_analytic,
    "sweep": _cmd_sweep,
    "pullin": _cmd_pullin,
    "band": _cmd_band,
}


def run(argv: Sequence[str]) -> int:
    """Execute one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"micropull: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PullInNotFoundError as exc:
        print(f"micropull: no pull-in: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (SpecimenFormatError, OSError) as exc:
        print(f"micropull: file error: {exc}", file=sys.stderr)
        return EXIT_FILE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
