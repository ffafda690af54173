"""Coupled electromechanical equilibrium, voltage sweeps and pull-in search.

Two coupling modes solve the same discrete problem:

* staggered: alternate an electrostatic load evaluation on the current
  deflection with a structural solve under that frozen load, until the tip
  displacement settles.  Each update is scaled by an Aitken dynamic
  relaxation factor (Irons & Tuck 1969; Kuettler & Wall 2008) that starts
  at, and never falls below, 1;
* monolithic (parallel-plate load only): ``beam.newton_solve`` on the
  combined structure/electrostatics residual, with the plate load as a
  function of the deflection and its analytic load-softening term
  d q / d v in the Jacobian.

Both modes build every load vector the same way: ``beam.consistent_load_vector``
assembles the load model's line load at the beam's quadrature points, and the
plate load takes its gaps there from one product with the cached matrix G of
``beam.transverse_load_operators``, and checks the tip's gap too.

Pull-in is the maximum of the equilibrium voltage over the tip deflection.
The search prescribes the tip deflection and solves for V (DIPIE: Bochobza-
Degani, Elata & Nemirovsky, JMEMS 11(5), 2002): at fixed geometry both load
models are V^2 times their 1 V load, so lam = V^2 is the one extra unknown
of a structural solve with the tip pinned, bordered as in Keller (1977).
A prescribed tip has an equilibrium on both sides of the fold, so no solve
runs where none exists, and the result does not depend on an iteration
budget.  Voltage sweeps stay voltage-controlled, each point starting from
the previous one scaled by the ratio of the squared voltages.  Nothing is
retried: every equilibrium is one coupling loop or one Newton solve from its
start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from . import beam, electro
from .catalog import Specimen
from .errors import GapClosureError, PullInNotFoundError

LINEAR = "linear"
NONLINEAR = "nonlinear"
_STRUCTURAL_MODES = (LINEAR, NONLINEAR)

STAGGERED = "staggered"
MONOLITHIC = "monolithic"
_COUPLING_MODES = (STAGGERED, MONOLITHIC)

# a coupling loop stops at this relative tip change, or at a prescribed tip
# at this relative estimated error of V^2
COUPLING_TOLERANCE = 1e-6
MAX_COUPLING_ITERATIONS = 100  # a staggered loop that has not settled by then fails
VOLTAGE_CAP = 10_000.0  # no solve above this voltage; every pull-in search gives up there


@dataclass(frozen=True)
class SolverConfig:
    """Models, coupling, pull-in bracket width and beam mesh of the coupled solves."""

    structural_mode: str = NONLINEAR
    load_model: electro.LoadModelConfig = dataclass_field(
        default_factory=electro.LoadModelConfig
    )
    coupling_mode: str = STAGGERED
    pull_in_bracket_tolerance: float = 0.1  # volts
    n_elements: int = 40

    def __post_init__(self) -> None:
        if self.structural_mode not in _STRUCTURAL_MODES:
            raise ValueError(f"structural_mode must be one of {_STRUCTURAL_MODES}")
        if self.coupling_mode not in _COUPLING_MODES:
            raise ValueError(f"coupling_mode must be one of {_COUPLING_MODES}")
        if self.coupling_mode == MONOLITHIC and self.load_model.kind != electro.PARALLEL_PLATE:
            raise ValueError("monolithic coupling supports the parallel_plate load model only")
        if not 0.0 < self.pull_in_bracket_tolerance < math.inf:
            raise ValueError("pull_in_bracket_tolerance must be positive and finite")
        if self.n_elements < beam.MIN_ELEMENTS:
            raise ValueError(f"n_elements must be at least {beam.MIN_ELEMENTS}")


@dataclass(frozen=True)
class EquilibriumResult:
    """One point of the displacement-voltage curve: on failure, the state
    the solve started from and the reason."""

    deflection: beam.DeflectionField = dataclass_field(compare=False, repr=False)
    converged: bool
    iterations: int
    voltage: float
    failure_reason: str | None = None

    @property
    def tip_displacement(self) -> float:
        return self.deflection.tip


@dataclass(frozen=True)
class PullInResult:
    """Bracketed instability voltage, with the equilibrium at bracket_low."""

    bracket_low: float  # voltage of a computed stable equilibrium
    bracket_high: float  # bound above which no equilibrium exists
    pull_in_voltage: float  # largest computed equilibrium voltage
    tip_displacement: float  # tip deflection at bracket_low (m)
    deflection: beam.DeflectionField | None = dataclass_field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.bracket_low < self.pull_in_voltage < self.bracket_high:
            raise ValueError("pull-in voltage must lie strictly inside its bracket")


@dataclass(frozen=True)
class SweepResult:
    """Ordered displacement-voltage curve, optionally ending in pull-in."""

    points: tuple[EquilibriumResult, ...]
    pull_in: PullInResult | None = None

    def __post_init__(self) -> None:
        volts = [p.voltage for p in self.points]
        if any(b <= a for a, b in zip(volts, volts[1:])):
            raise ValueError("sweep voltages must be strictly increasing")
        seen_failure = False
        for p in self.points:
            if seen_failure and p.converged:
                raise ValueError("converged sweep points must precede the first failure")
            seen_failure = seen_failure or not p.converged

    def converged_points(self) -> tuple[EquilibriumResult, ...]:
        return tuple(p for p in self.points if p.converged)


class _Runner:
    """Per-(specimen, config) workspace: mesh, operators, cached matrices."""

    def __init__(self, spec: Specimen, cfg: SolverConfig):
        self.spec = spec
        self.cfg = cfg
        self.mesh = beam.build_mesh(spec, cfg.n_elements)

    @cached_property
    def linear_op(self) -> beam.LinearBeamOperator:
        return beam.LinearBeamOperator(self.mesh)

    # -- load construction -------------------------------------------------

    def _plate_load(self, d: np.ndarray, voltage: float):
        """Plate load vector of ``voltage`` on the DOF vector ``d``, and the gaps
        g - v at the quadrature points it was formed from; the tip's gap is
        checked too."""
        g_mat = beam.transverse_load_operators(self.mesh)[0]
        gaps = self.spec.gap_g - np.append(g_mat @ d, d[-2])
        q = electro.plate_load(self.spec, gaps, voltage, self.cfg.load_model.fringing_coefficient)
        return beam.consistent_load_vector(self.mesh, q[:-1]), gaps[:-1]

    def _load_for(self, d: np.ndarray, voltage: float) -> np.ndarray:
        """Load vector of ``voltage`` on the DOF vector ``d``."""
        lm = self.cfg.load_model
        if lm.kind == electro.PARALLEL_PLATE:
            return self._plate_load(d, voltage)[0]
        fld = beam.DeflectionField(self.mesh, d)
        solution = electro.solve_field2d(self.spec, fld, voltage, lm)
        q = electro.maxwell_load(solution, self.spec, self.mesh.gauss_points().ravel())
        return beam.consistent_load_vector(self.mesh, q)

    # -- equilibrium -------------------------------------------------------

    def equilibrium(
        self, voltage: float, start: beam.DeflectionField | None = None, tip: float | None = None
    ) -> EquilibriumResult:
        """Equilibrium at ``voltage`` from ``start`` (undeformed if None), or at
        a prescribed ``tip``, V = voltage sqrt(lam) unknown, ``start`` scaled to it."""
        if start is None:
            start = beam.zero_field(self.mesh)
        elif tip is not None and start.tip > 0.0:
            start = beam.DeflectionField(self.mesh, start.dofs * (tip / start.tip))
        solve = self._staggered if self.cfg.coupling_mode == STAGGERED else self._monolithic
        dofs, lam, iterations, reason = solve(voltage, start.dofs, tip)
        if reason is not None:
            return EquilibriumResult(start, False, iterations, voltage, reason)
        found = voltage * math.sqrt(max(lam, 0.0))  # lam is 1 at a voltage
        return EquilibriumResult(beam.DeflectionField(self.mesh, dofs), True, iterations, found)

    def _structural_solve(self, f_ext: np.ndarray, warm: np.ndarray, tip: float | None = None):
        """Solve under the load vector ``f_ext``, or with ``tip`` under lam times
        it with the tip pinned, from the DOF vector ``warm``; returns (dofs,
        lam), dofs None if the Newton solve diverges."""
        if self.cfg.structural_mode == LINEAR:
            solved = self.linear_op.solve(f_ext)
            lam = 1.0 if tip is None else tip / solved.tip
            return lam * solved.dofs, lam
        d, _, ok, lam = beam.newton_solve(self.mesh, f_ext, start=warm, tip=tip)
        return (d if ok else None), lam

    def _staggered(self, voltage: float, d: np.ndarray, tip: float | None = None):
        """Load and structural solves from the DOF vector ``d`` until the tip
        settles, or with ``tip`` pinned under lam times the load of ``voltage``
        until lam settles; returns (dofs, lam, iterations, failure reason)."""
        omega = 1.0
        settled = float(d[-2]) if tip is None else math.inf
        step_prev = math.inf
        r_prev: np.ndarray | None = None

        for it in range(1, MAX_COUPLING_ITERATIONS + 1):
            try:
                f_ext = self._load_for(d, voltage)
            except GapClosureError:
                return None, math.nan, it, "gap closure"
            except OverflowError:
                return None, math.nan, it, "load overflow"
            solved, lam = self._structural_solve(f_ext, d, tip)
            if solved is None:
                return None, math.nan, it, "structural divergence"
            # Aitken dynamic relaxation on the transverse residual, floored
            # at 1: the plain map climbs monotonically to the stable
            # branch, so Aitken may extrapolate but never damp
            r = solved[1::3] - d[1::3]
            if r_prev is not None:
                dr = r - r_prev
                dr_sq = float(dr @ dr)
                if dr_sq > 0.0:
                    omega = max(1.0, -omega * float(r_prev @ dr) / dr_sq)
            r_prev = r
            d = d + omega * (solved - d)
            now = float(d[-2]) if tip is None else lam
            step = est = abs(now - settled)
            # at a prescribed tip, a contracting lam bounds its own error by
            # rho / (1 - rho) times the step (Kelley 1995)
            if tip is not None and math.isfinite(step_prev) and step < step_prev:
                rho = step / step_prev
                est = step * min(1.0, rho / (1.0 - rho))
            if est <= COUPLING_TOLERANCE * abs(now):
                return d, lam, it, None
            settled, step_prev = now, step
        return None, math.nan, MAX_COUPLING_ITERATIONS, "max coupling iterations"

    def _monolithic(self, voltage: float, d: np.ndarray, tip: float | None = None):
        """``beam.newton_solve`` from the DOF vector ``d`` under the plate load of
        ``voltage`` as it follows the deflection, or under lam times it with ``tip``
        prescribed; returns (dofs, lam, load evaluations, failure reason)."""
        _, weights, stiffness = beam.transverse_load_operators(self.mesh)
        f_coeff = self.cfg.load_model.fringing_coefficient
        evals = 0

        def load(d: np.ndarray):
            nonlocal evals
            evals += 1
            f_ext, gaps = self._plate_load(d, voltage)
            dq_dv = electro.plate_load_slope(self.spec, gaps, voltage, f_coeff)
            return f_ext, stiffness(weights * dq_dv)

        linear = self.linear_op if self.cfg.structural_mode == LINEAR else None
        try:
            d, _, ok, lam = beam.newton_solve(self.mesh, load, d, tip=tip, linear=linear)
        except GapClosureError:
            return None, math.nan, evals, "gap closure"
        except OverflowError:
            return None, math.nan, evals, "load overflow"
        return d, lam, evals, None if ok else "newton divergence"


def solve_equilibrium(
    spec: Specimen, voltage: float, config: SolverConfig | None = None
) -> EquilibriumResult:
    """Coupled equilibrium at a fixed voltage, from a cold start."""
    if not 0.0 <= voltage <= VOLTAGE_CAP:
        raise ValueError(f"voltage must lie in [0, {VOLTAGE_CAP:.0f}] V (got {voltage})")
    cfg = config or SolverConfig()
    return _Runner(spec, cfg).equilibrium(voltage)


def _pull_in_search(runner: _Runner) -> PullInResult:
    """Maximise V over the prescribed tip x (in gaps), giving up above ``VOLTAGE_CAP``.

    Successive parabolic interpolation through the three highest solved
    points, from x = 0.35, 0.45 and 0.55; each solve starts from the nearest
    solved state, the first from the linear shape under a uniform load.  It
    stops once the parabola predicts a gain under a quarter of the tolerance:
    that bounds bracket_high.  bracket_low is a solved point left of the
    highest, so on the stable branch.
    """
    cfg, spec = runner.cfg, runner.spec
    tol = cfg.pull_in_bracket_tolerance
    solved: dict[float, EquilibriumResult] = {}

    def solve_at(x: float) -> None:
        near = min(solved, key=lambda t: abs(t - x), default=None)
        if near is None:  # the linear shape under a uniform load
            start = runner.linear_op.solve(beam.consistent_load_vector(runner.mesh, 1.0))
        else:
            start = solved[near].deflection
        res = runner.equilibrium(1.0, start, x * spec.gap_g)
        if not res.converged or res.voltage > VOLTAGE_CAP:
            raise PullInNotFoundError(
                f"no pull-in found for {spec.id} ({spec.dimension_source}) below "
                f"{VOLTAGE_CAP:.0f} V: at a tip deflection of {x:.3g} gap, "
                f"{res.failure_reason or f'{res.voltage:.6g} V'}"
            )
        solved[x] = res

    for x in (0.35, 0.45, 0.55):
        solve_at(x)
    for _ in range(100):
        top = sorted(solved, key=lambda t: solved[t].voltage, reverse=True)[:3]
        best, x1, x2 = top
        v_max, v1, v2 = (solved[t].voltage for t in top)
        # the parabola through the three points by divided differences: its
        # slope between the first two and its curvature c2
        s1 = (v1 - v_max) / (x1 - best)
        c2 = ((v2 - v1) / (x2 - x1) - s1) / (x2 - best)
        span = max(top) - min(top)
        lo = max(min(top) - span, 0.5 * min(top))
        hi = min(max(top) + span, 0.5 * (max(top) + 1.0))
        if c2 >= 0.0:  # the highest point is an end one: step beyond it
            solve_at(hi if best == max(top) else lo)
            continue
        vertex = 0.5 * (best + x1 - s1 / c2)
        gain = -c2 * (vertex - best) ** 2  # of the parabola's peak over v_max
        # the parabola through the fixed start points is never final
        if len(solved) == 3 or not lo <= vertex <= hi or gain >= 0.25 * tol:
            solve_at(min(max(vertex, lo), hi))
            continue
        left = [t for t in solved if t < best and solved[t].voltage < v_max]
        low = max(left, key=lambda t: solved[t].voltage, default=0.0)
        if left and v_max - solved[low].voltage <= 0.75 * tol:
            found = solved[low]
            return PullInResult(
                found.voltage, v_max + 0.25 * tol, v_max, found.tip_displacement,
                deflection=found.deflection,
            )
        # where the parabola drops tol / 2 below the maximum, else bisect
        x = vertex - np.sqrt((gain + 0.5 * tol) / -c2)
        solve_at(x if low < x < best else 0.5 * (low + best))
    raise PullInNotFoundError(f"pull-in search for {spec.id} did not settle")


def find_pull_in(spec: Specimen, config: SolverConfig | None = None) -> PullInResult:
    """Pull-in as the maximum of the equilibrium voltage over the tip deflection.

    Raises PullInNotFoundError if that maximum lies above ``VOLTAGE_CAP``
    or a solve at a prescribed tip fails.
    """
    cfg = config or SolverConfig()
    return _pull_in_search(_Runner(spec, cfg))


def voltage_sweep(
    spec: Specimen,
    v_max: float,
    n_steps: int,
    config: SolverConfig | None = None,
) -> SweepResult:
    """The equilibria at n_steps equally spaced voltages up to v_max (at most
    ``VOLTAGE_CAP``), one ``EquilibriumResult`` per voltage.

    The first point starts at rest, each later one from the previous
    solution scaled by (V_k / V_{k-1})^2, or unscaled where that tip would not
    lie inside the gap.  The sweep stops at the first non-converged point and
    then adds the PullInResult of ``find_pull_in``'s search, which gives up
    above ``VOLTAGE_CAP`` like every other.
    """
    if not 0.0 < v_max <= VOLTAGE_CAP:
        raise ValueError(f"v_max must lie in (0, {VOLTAGE_CAP:.0f}] V (got {v_max})")
    if n_steps < 2:
        raise ValueError("n_steps must be at least 2")
    cfg = config or SolverConfig()
    runner = _Runner(spec, cfg)

    points: list[EquilibriumResult] = []
    for k in range(1, n_steps + 1):
        v = v_max * k / n_steps
        start = None
        if points:  # the load scales as V^2: extrapolate, unless that reaches the electrode
            prev = points[-1].deflection
            scaled = beam.DeflectionField(runner.mesh, prev.dofs * (v / points[-1].voltage) ** 2)
            start = scaled if scaled.tip < spec.gap_g else prev
        points.append(runner.equilibrium(v, start=start))
        if not points[-1].converged:
            return SweepResult(tuple(points), _pull_in_search(runner))
    return SweepResult(tuple(points))


def modulus_band_sweep(
    spec: Specimen,
    e_low: float,
    e_high: float,
    v_max: float,
    n_steps: int,
    config: SolverConfig | None = None,
) -> tuple[SweepResult, SweepResult]:
    """Voltage sweeps at the two ends of a Young's modulus band.

    Returns (low-modulus sweep, high-modulus sweep); the low-modulus curve
    shows the larger displacement at every shared converged voltage.
    """
    if not 0.0 < e_low < e_high:
        raise ValueError("moduli must satisfy 0 < e_low < e_high")
    low = voltage_sweep(spec.with_young_modulus(e_low), v_max, n_steps, config)
    high = voltage_sweep(spec.with_young_modulus(e_high), v_max, n_steps, config)
    return low, high
