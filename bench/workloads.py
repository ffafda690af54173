"""The benchmark's workloads: inputs drawn from a seed, one library call per
operation, and the check that the call's result is right.

A workload is a fixed list of templates.  One *cycle* runs every template
once, with the continuous inputs (Young's modulus, sweep voltage) drawn
afresh from the cycle's random generator, so no two operations repeat an
input while every cycle does the same mix of work.  Runs are made of whole
cycles, which keeps throughput independent of where the clock stops.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from micropull import (
    LoadModelConfig,
    SolverConfig,
    Specimen,
    builtin_catalog,
    find_pull_in,
    modulus_band_sweep,
    osterberg_pull_in,
    select_specimen,
    solve_equilibrium,
)

E_LOW = 150e9  # Pa, bottom of the polysilicon modulus band
E_HIGH = 166e9  # Pa, catalog modulus and the reference table's modulus

# criterion 9 resolution
REFINED = SolverConfig(
    n_elements=80,
    load_model=LoadModelConfig(cells_across_gap=48, cells_along_beam=320),
)
PLATE = LoadModelConfig(kind="parallel_plate")
# (structural_mode, coupling_mode) pairs of the plate-load workload
PLATE_MODES = (
    ("nonlinear", "staggered"),
    ("nonlinear", "monolithic"),
    ("linear", "staggered"),
)

# Pull-in bracket width of the field2d workload.  The library default, 0.1 V,
# spends its last three probes (about half of an operation) at the coupling
# iteration cap; 1 V keeps the search whole, the default field mesh and a
# midpoint within 0.5 %, and brings an operation to about 6 s, so that a run
# holds enough operations for a steady median.
FIELD2D_BRACKET_V = 1.0
REFERENCE_BRACKET_V = 0.1  # the reference table's bracket width, the library default
REFERENCE_TOLERANCE = 0.01  # criterion 9 tolerance, relative
OSTERBERG_TOLERANCE = 0.10  # plate load against the closed-form fit
BAND_STEPS = 3
BAND_OPS_PER_SPECIMEN = 2
BAND_FRACTIONS = (0.80, 0.90)  # v_max as a share of the 150 GPa Osterberg voltage

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Op:
    """One library call with its inputs bound, and the check of its result."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # failure reason, or None when right


@dataclass(frozen=True)
class PullInCase:
    """A (specimen, solver configuration) pair whose pull-in is searched."""

    spec: Specimen
    config: SolverConfig

    @property
    def key(self) -> str:
        s, c = self.spec, self.config
        return (
            f"{s.id}/{s.dimension_source}/{c.load_model.kind}/"
            f"{c.structural_mode}/{c.coupling_mode}"
        )


def _measured(ids):
    cat = builtin_catalog()
    return [select_specimen(cat, sid, "measured") for sid in ids]


def field2d_cases() -> list[PullInCase]:
    """Field2d pull-in at the default mesh on the shortest and the longest
    measured beam, with a 1 V bracket.

    Both have g/l near 0.05 and so one field-mesh size.  These are the two
    cheapest field2d pull-ins (about 12 s each at the default 0.1 V bracket,
    about 6 s at 1 V); the others take 13 to 40 s each and do not fit a run.
    """
    config = SolverConfig(pull_in_bracket_tolerance=FIELD2D_BRACKET_V)
    return [PullInCase(s, config) for s in _measured(("ST1-1", "ST1-6"))]


def plate_cases() -> list[PullInCase]:
    """Plate-load pull-in on every seventh of the 48 (specimen, mode) pairs.

    Seven operations reach seven of the eight geometries, both dimension
    sets and all three modes.  The short cycle repeats five or more times
    in a run, and the odd count puts the median operation time inside one
    template's repeats rather than in the gap between two templates.
    """
    pairs = [(s, mode) for s in builtin_catalog() for mode in PLATE_MODES][::7]
    return [
        PullInCase(s, SolverConfig(load_model=PLATE, structural_mode=sm, coupling_mode=cm))
        for s, (sm, cm) in pairs
    ]


def load_reference() -> dict[str, float]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["pull_in_voltage_at_166GPa"]


def check_pull_in(result, spec, config, reference: float, osterberg: bool) -> str | None:
    """Failure reason for a PullInResult, or None when it passes."""
    if not result.bracket_low < result.pull_in_voltage < result.bracket_high:
        return "pull-in voltage outside its bracket"
    width = result.bracket_high - result.bracket_low
    if width > config.pull_in_bracket_tolerance:
        return f"bracket width {width:.4g} V above tolerance"
    if not 0.0 < result.tip_displacement < spec.gap_g:
        return f"tip {result.tip_displacement:.4g} m outside (0, gap)"
    expected = reference * math.sqrt(spec.material.young_modulus / E_HIGH)
    if abs(result.pull_in_voltage / expected - 1.0) > REFERENCE_TOLERANCE:
        return f"pull-in {result.pull_in_voltage:.4f} V vs reference {expected:.4f} V"
    if osterberg:
        closed_form = osterberg_pull_in(spec).voltage
        if abs(result.pull_in_voltage / closed_form - 1.0) > OSTERBERG_TOLERANCE:
            return f"pull-in {result.pull_in_voltage:.4f} V vs Osterberg {closed_form:.4f} V"
    return None


def check_band(pair, v_max: float) -> str | None:
    """Failure reason for a (low, high) modulus band, or None when it passes."""
    low, high = pair
    for name, sweep in (("low", low), ("high", high)):
        if sweep.pull_in is not None or not all(p.converged for p in sweep.points):
            return f"{name}-modulus sweep did not converge at every point below {v_max:.3f} V"
        tips = [p.tip_displacement for p in sweep.points]
        if not all(b > a for a, b in zip(tips, tips[1:])) or tips[0] <= 0.0:
            return f"{name}-modulus tip does not rise strictly with voltage"
    if len(low.points) != len(high.points):
        return "band sweeps have different lengths"
    for pl, ph in zip(low.points, high.points):
        if not pl.tip_displacement > ph.tip_displacement:
            return f"low-modulus tip not above high-modulus tip at {pl.voltage:.3f} V"
    return None


def _pull_in_op(case: PullInCase, young_modulus: float, reference: float, osterberg: bool) -> Op:
    spec = case.spec.with_young_modulus(young_modulus)
    return Op(
        label=f"{case.key} E={young_modulus / 1e9:.3f}GPa",
        call=lambda: find_pull_in(spec, case.config),
        check=lambda r: check_pull_in(r, spec, case.config, reference, osterberg),
    )


def _band_op(spec, fraction: float) -> Op:
    v_max = fraction * osterberg_pull_in(spec.with_young_modulus(E_LOW)).voltage
    return Op(
        label=f"{spec.id}/{spec.dimension_source} v_max={v_max:.3f}V",
        call=lambda: modulus_band_sweep(spec, E_LOW, E_HIGH, v_max, BAND_STEPS, REFINED),
        check=lambda pair: check_band(pair, v_max),
    )


def _moduli(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(E_LOW, E_HIGH, size=n)


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """One draw from each of n equal strata of [lo, hi), in random order.

    Work per band operation grows with v_max, so stratifying keeps a
    cycle's total work nearly fixed while every input stays seed-drawn.
    """
    u = (np.arange(n) + rng.uniform(size=n)) / n
    return lo + (hi - lo) * rng.permutation(u)


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[np.random.Generator], list[Op]]
    warm_up: Callable[[], object]
    # wrappers that must see calls in a traced run, and ones that must not
    must_fire: frozenset[str]
    must_not_fire: frozenset[str]


_FIELD_LAYERS = frozenset(
    {
        "electro.solve_field2d",
        "electro.spsolve",
        "electro.maxwell_load",
        "beam.consistent_load_vector",
        "beam.newton_solve",
        "beam.corotational_internal",
        "beam.solve_clamped_banded",
    }
)


def _warm_up(spec, config: SolverConfig):
    """One low-voltage equilibrium: loads lazy imports and fills the field-mesh topology cache."""
    return lambda: solve_equilibrium(spec, 0.25 * osterberg_pull_in(spec).voltage, config)


def _pull_in_workload(name, cases, osterberg, must_fire, must_not_fire) -> Workload:
    reference = load_reference()
    missing = [c.key for c in cases if c.key not in reference]
    if missing:
        raise KeyError(f"reference table has no entry for {missing}")

    def cycle(rng):
        moduli = _moduli(rng, len(cases))
        return [
            _pull_in_op(c, e, reference[c.key], osterberg) for c, e in zip(cases, moduli)
        ]

    return Workload(
        name=name,
        cycle=cycle,
        warm_up=_warm_up(cases[0].spec, cases[0].config),
        must_fire=frozenset(must_fire),
        must_not_fire=frozenset(must_not_fire),
    )


def _band_workload() -> Workload:
    specs = _measured(("ST1-1", "ST1-4", "ST1-6"))

    def cycle(rng):
        return [
            _band_op(s, f)
            for s in specs
            for f in _stratified(rng, BAND_OPS_PER_SPECIMEN, *BAND_FRACTIONS)
        ]

    return Workload(
        name="band-refined",
        cycle=cycle,
        warm_up=_warm_up(specs[0], REFINED),
        must_fire=_FIELD_LAYERS,
        must_not_fire=frozenset({"electro.plate_load"}),
    )


def build(name: str) -> Workload:
    """The named workload, with its inputs' fixed parts prepared."""
    if name == "pullin-field2d":
        return _pull_in_workload(
            name, field2d_cases(), osterberg=False,
            must_fire=_FIELD_LAYERS, must_not_fire={"electro.plate_load"},
        )
    if name == "pullin-plate":
        return _pull_in_workload(
            name, plate_cases(), osterberg=True,
            must_fire={
                "electro.plate_load",
                "beam.consistent_load_vector",
                "beam.newton_solve",
                "beam.corotational_internal",
                "beam.solve_clamped_banded",
                "beam.LinearBeamOperator.solve",
            },
            must_not_fire={"electro.solve_field2d", "electro.spsolve", "electro.maxwell_load"},
        )
    if name == "band-refined":
        return _band_workload()
    raise KeyError(f"unknown workload {name!r}")

