"""Coupled electromechanical equilibrium, voltage sweeps and pull-in search.

Two coupling modes solve the same discrete problem:

* staggered: alternate an electrostatic load evaluation on the current
  deflection with a structural solve under that frozen load, until the tip
  displacement settles.  Each update is scaled by an Aitken dynamic
  relaxation factor (Irons & Tuck 1969; Kuettler & Wall 2008) that starts
  at, and never falls below, ``SolverConfig.relaxation``;
* monolithic (parallel-plate load only): Newton iteration on the combined
  structure/electrostatics residual, with the analytic load-softening term
  d q / d v in the Jacobian.

Pull-in is defined operationally as loss of convergence of the equilibrium
iteration (either gap closure or iteration divergence) and is bracketed to
a configurable voltage tolerance by doubling followed by bisection.  The
search is a continuation: every probe after the first converged one starts
from the converged state at the largest voltage that has converged so far.
That state lies below the stable branch at any higher voltage, and the
staggered map climbs monotonically from below, so a warm probe normally
reaches the fixed point a cold probe reaches, or fails where no equilibrium
exists.  The bracket then equals the one a cold-start search finds and
replays from a cold start: field2d and every plate mode on measured ST1-1,
and 40 of the 48 catalog plate searches.  It can differ by a bisection step
or more where the two iterations part within a step of the fold: where the
monolithic substep ladder converges from one start and not from the other,
where a cold probe runs out of coupling budget, or where an extrapolated
warm step overshoots the stable equilibrium.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from . import beam, electro
from .analytic import FEM, osterberg_pull_in
from .catalog import Specimen
from .errors import ConvergenceError, GapClosureError, PullInNotFoundError

logger = logging.getLogger(__name__)

LINEAR = "linear"
NONLINEAR = "nonlinear"
_STRUCTURAL_MODES = (LINEAR, NONLINEAR)

STAGGERED = "staggered"
MONOLITHIC = "monolithic"
_COUPLING_MODES = (STAGGERED, MONOLITHIC)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls for the coupled solves."""

    structural_mode: str = NONLINEAR
    load_model: electro.LoadModelConfig = dataclass_field(
        default_factory=electro.LoadModelConfig
    )
    coupling_mode: str = STAGGERED
    coupling_tolerance: float = 1e-6  # relative tip-displacement change
    max_coupling_iterations: int = 100
    relaxation: float = 1.0  # Aitken's starting and minimum factor
    pull_in_bracket_tolerance: float = 0.1  # volts
    n_elements: int = 40
    voltage_cap: float = 10_000.0  # pull-in search gives up above this

    def __post_init__(self) -> None:
        if self.structural_mode not in _STRUCTURAL_MODES:
            raise ValueError(f"structural_mode must be one of {_STRUCTURAL_MODES}")
        if self.coupling_mode not in _COUPLING_MODES:
            raise ValueError(f"coupling_mode must be one of {_COUPLING_MODES}")
        if self.coupling_mode == MONOLITHIC and self.load_model.kind != electro.PARALLEL_PLATE:
            raise ValueError("monolithic coupling supports the parallel_plate load model only")
        if not self.coupling_tolerance > 0.0:
            raise ValueError("coupling_tolerance must be positive")
        if not self.pull_in_bracket_tolerance > 0.0:
            raise ValueError("pull_in_bracket_tolerance must be positive")
        if not 0.0 < self.relaxation <= 1.0:
            raise ValueError("relaxation must be in (0, 1]")
        if self.max_coupling_iterations < 1:
            raise ValueError("max_coupling_iterations must be at least 1")
        if self.n_elements < beam.MIN_ELEMENTS:
            raise ValueError(f"n_elements must be at least {beam.MIN_ELEMENTS}")
        if not self.voltage_cap > 0.0:
            raise ValueError("voltage_cap must be positive")


@dataclass(frozen=True)
class EquilibriumResult:
    """One point of the displacement-voltage curve."""

    deflection: beam.DeflectionField
    converged: bool
    iterations: int
    voltage: float
    failure_reason: str | None = None


@dataclass(frozen=True)
class PullInResult:
    """Bracketed instability voltage of a coupled model."""

    bracket_low: float  # largest voltage with a converged equilibrium
    bracket_high: float  # smallest voltage without one
    pull_in_voltage: float  # bracket midpoint
    tip_displacement: float  # tip deflection at bracket_low (m)
    method: str = FEM

    def __post_init__(self) -> None:
        if not self.bracket_low < self.pull_in_voltage < self.bracket_high:
            raise ValueError("pull-in voltage must lie strictly inside its bracket")


@dataclass(frozen=True)
class SweepPoint:
    voltage: float
    tip_displacement: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class SweepResult:
    """Ordered displacement-voltage curve, optionally ending in pull-in."""

    points: tuple[SweepPoint, ...]
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

    def converged_points(self) -> tuple[SweepPoint, ...]:
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

    @cached_property
    def load_basis(self) -> np.ndarray:
        return beam.transverse_basis_matrix(self.mesh)

    # -- load construction -------------------------------------------------

    def _load_for(self, fld: beam.DeflectionField, voltage: float):
        lm = self.cfg.load_model
        if lm.kind == electro.PARALLEL_PLATE:
            return electro.plate_load(self.spec, fld, voltage, lm.fringing_coefficient)
        solution = electro.solve_field2d(self.spec, fld, voltage, lm)
        return electro.maxwell_load(solution, self.spec)

    # -- equilibrium -------------------------------------------------------

    def equilibrium(
        self, voltage: float, start: beam.DeflectionField | None = None
    ) -> EquilibriumResult:
        started = time.perf_counter()
        if self.cfg.coupling_mode == STAGGERED:
            result = self._staggered(voltage, start)
        else:
            result = self._monolithic(voltage, start)
        logger.debug(
            "equilibrium V=%.4f: converged=%s iters=%d (%.1f ms)",
            voltage, result.converged, result.iterations,
            1e3 * (time.perf_counter() - started),
        )
        return result

    def _structural_solve(
        self, load, warm: beam.DeflectionField
    ) -> beam.DeflectionField:
        if self.cfg.structural_mode == LINEAR:
            return self.linear_op.solve(load)
        f_ext = beam.consistent_load_vector(self.mesh, load)
        d, _, ok = beam.newton_solve(self.mesh, f_ext, start=warm.dofs)
        if ok:
            return beam.DeflectionField(self.mesh, d)
        # warm start led Newton astray; retry with automatic load increments
        return beam.solve_nonlinear(self.mesh, load)

    def _staggered(
        self, voltage: float, start: beam.DeflectionField | None
    ) -> EquilibriumResult:
        cfg = self.cfg
        fld = start if start is not None else beam.zero_field(self.mesh)
        prev = fld  # the iterate before fld, still short of the electrode
        omega = cfg.relaxation
        tip_floor = 1e-12 * self.spec.gap_g
        tip_prev = fld.tip
        r_prev: np.ndarray | None = None

        for it in range(1, cfg.max_coupling_iterations + 1):
            try:
                load = self._load_for(fld, voltage)
                solved = self._structural_solve(load, fld)
            except GapClosureError:
                # fld reaches through the counter-electrode; report the
                # last iterate whose load evaluation succeeded
                return EquilibriumResult(prev, False, it, voltage, "gap closure")
            except ConvergenceError:
                return EquilibriumResult(fld, False, it, voltage, "structural divergence")
            # Aitken dynamic relaxation on the transverse residual, floored
            # at cfg.relaxation: the plain map climbs monotonically to the
            # stable branch, so Aitken may extrapolate but never damp
            r = solved.deflection - fld.deflection
            if r_prev is not None:
                dr = r - r_prev
                dr_sq = float(dr @ dr)
                if dr_sq > 0.0:
                    omega = max(cfg.relaxation, -omega * float(r_prev @ dr) / dr_sq)
            r_prev = r
            relaxed = beam.DeflectionField(
                self.mesh, fld.dofs + omega * (solved.dofs - fld.dofs)
            )
            tip_new = relaxed.tip
            if abs(tip_new - tip_prev) <= cfg.coupling_tolerance * max(abs(tip_new), tip_floor):
                return EquilibriumResult(relaxed, True, it, voltage)
            prev, fld = fld, relaxed
            tip_prev = tip_new
        return EquilibriumResult(
            fld, False, cfg.max_coupling_iterations, voltage, "max coupling iterations"
        )

    def _monolithic(
        self, voltage: float, start: beam.DeflectionField | None
    ) -> EquilibriumResult:
        fld = start if start is not None else beam.zero_field(self.mesh)
        total_iters = 0
        for substeps in (1, 2, 4, 8, 16, 32):
            d = fld.dofs
            ok = True
            reason = None
            for k in range(1, substeps + 1):
                d, iters, ok, reason = self._monolithic_newton(voltage * (k / substeps), d)
                total_iters += iters
                if not ok:
                    break
            if ok:
                return EquilibriumResult(
                    beam.DeflectionField(self.mesh, d), True, total_iters, voltage
                )
        return EquilibriumResult(
            fld, False, total_iters, voltage, reason or "newton divergence"
        )

    def _monolithic_newton(self, voltage: float, d: np.ndarray):
        cfg = self.cfg
        spec = self.spec
        g_mat = self.load_basis
        weights = np.tile(self.mesh.gauss_weights(), self.mesh.n_elements)
        gap0 = spec.gap_g
        f_coeff = cfg.load_model.fringing_coefficient
        w = spec.width_w
        scale = 0.5 * electro.VACUUM_PERMITTIVITY * w * voltage**2
        dq_dv = electro.plate_load_derivative(spec, voltage, f_coeff)

        max_iter = 50
        r0 = None
        for it in range(1, max_iter + 1):
            v_pts = g_mat @ d
            if not np.all(np.isfinite(v_pts)):
                return d, it, False, "newton divergence"
            gap = gap0 - v_pts
            if np.any(gap <= 0.0):
                return d, it, False, "gap closure"
            q = scale / gap**2 * (1.0 + f_coeff * gap / w)
            f_es = g_mat.T @ (weights * q)
            if cfg.structural_mode == LINEAR:
                k_t = self.linear_op.k0
                f_int = k_t @ d
                # matvec roundoff bound for the K d internal force
                noise = 4.0 * np.finfo(float).eps * float(
                    np.linalg.norm(np.abs(k_t) @ np.abs(d))
                )
            else:
                try:
                    f_int, k_t, max_local = beam.corotational_internal(self.mesh, d)
                except ConvergenceError:
                    return d, it, False, "newton divergence"
                if max_local > 1.4:
                    return d, it, False, "newton divergence"
                noise = beam.assembly_noise_floor(self.mesh, d)
            res = f_es - f_int
            res[:3] = 0.0
            rn = float(np.linalg.norm(res))
            ref = max(float(np.linalg.norm(f_es[3:])), 1e-30)
            if rn <= 1e-10 * ref + noise:
                return d, it, True, None
            if not np.isfinite(rn):
                return d, it, False, "newton divergence"
            r0 = rn if r0 is None else r0
            if it > 5 and rn > 100.0 * r0:
                return d, it, False, "newton divergence"
            jac = k_t - g_mat.T @ ((weights * dq_dv(v_pts))[:, None] * g_mat)
            try:
                step = beam.solve_clamped_banded(jac, res)
            except np.linalg.LinAlgError:
                return d, it, False, "newton divergence"
            if not np.all(np.isfinite(step)):
                return d, it, False, "newton divergence"
            max_dv = float(np.max(np.abs(step[1::3])))
            factor = min(1.0, 0.2 * gap0 / max_dv) if max_dv > 0 else 1.0
            d = d + factor * step
        return d, max_iter, False, "newton divergence"


def solve_equilibrium(
    spec: Specimen, voltage: float, config: SolverConfig | None = None
) -> EquilibriumResult:
    """Coupled equilibrium at a fixed voltage, from a cold start."""
    if voltage < 0.0:
        raise ValueError("voltage must be non-negative")
    cfg = config or SolverConfig()
    return _Runner(spec, cfg).equilibrium(voltage)


def _bisect_pull_in(runner: _Runner, lo: EquilibriumResult, hi: float) -> PullInResult:
    """Shrink a (converged, diverged) voltage bracket to the configured width.

    Each probe starts from the converged state at the bracket's low end.
    """
    tol = runner.cfg.pull_in_bracket_tolerance
    for _ in range(200):
        if hi - lo.voltage <= tol:
            break
        mid = 0.5 * (lo.voltage + hi)
        res = runner.equilibrium(mid, start=lo.deflection)
        if res.converged:
            lo = res
        else:
            hi = mid
    return PullInResult(
        bracket_low=lo.voltage,
        bracket_high=hi,
        pull_in_voltage=0.5 * (lo.voltage + hi),
        tip_displacement=lo.deflection.tip,
    )


def find_pull_in(spec: Specimen, config: SolverConfig | None = None) -> PullInResult:
    """Bracket the pull-in voltage by doubling and bisection.

    Every probe after the first converged one starts from the converged
    state at the largest voltage that has converged so far (continuation).
    A probe normally reaches the fixed point a cold start reaches, so
    re-solving from the undeformed beam converges at bracket_low and fails
    at bracket_high; the module docstring names where the two part.
    Raises PullInNotFoundError if no divergent voltage exists below the cap.
    """
    cfg = config or SolverConfig()
    runner = _Runner(spec, cfg)
    cap = cfg.voltage_cap

    probe = min(max(osterberg_pull_in(spec).voltage / 4.0, 1.0), cap)
    lo: EquilibriumResult | None = None
    hi = None

    res = runner.equilibrium(probe)
    if res.converged:
        lo = res
        v = probe
        while hi is None:
            if v >= cap:
                raise PullInNotFoundError(
                    f"no pull-in found for {spec.id} ({spec.dimension_source}) "
                    f"below the {cap:.0f} V cap"
                )
            v = min(2.0 * v, cap)
            res = runner.equilibrium(v, start=lo.deflection)
            if res.converged:
                lo = res
            else:
                hi = v
    else:
        hi = probe
        v = probe
        while lo is None:
            v = 0.5 * v
            if v < 1e-9:
                raise PullInNotFoundError(
                    f"equilibrium fails even at negligible voltage for {spec.id}"
                )
            # nothing has converged yet, so each halving starts cold
            res = runner.equilibrium(v)
            if res.converged:
                lo = res
            else:
                hi = v

    return _bisect_pull_in(runner, lo, hi)


def voltage_sweep(
    spec: Specimen,
    v_max: float,
    n_steps: int,
    config: SolverConfig | None = None,
) -> SweepResult:
    """Equilibria at n_steps equally spaced voltages up to v_max.

    Each point is warm-started from the previous solution (continuation);
    the sweep stops at the first non-converged point and, when that
    happens, refines the enclosing voltage interval into a PullInResult,
    again starting every probe from the last converged state.
    """
    if not v_max > 0.0:
        raise ValueError("v_max must be positive")
    if n_steps < 2:
        raise ValueError("n_steps must be at least 2")
    cfg = config or SolverConfig()
    runner = _Runner(spec, cfg)

    points: list[SweepPoint] = []
    pull_in: PullInResult | None = None
    # the unloaded beam is the exact equilibrium at 0 V
    last_ok = EquilibriumResult(beam.zero_field(runner.mesh), True, 0, 0.0)
    for k in range(1, n_steps + 1):
        v = v_max * k / n_steps
        res = runner.equilibrium(v, start=last_ok.deflection)
        points.append(SweepPoint(v, res.deflection.tip, res.converged, res.iterations))
        if not res.converged:
            pull_in = _bisect_pull_in(runner, last_ok, v)
            break
        last_ok = res
    return SweepResult(points=tuple(points), pull_in=pull_in)


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
