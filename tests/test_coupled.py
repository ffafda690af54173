"""Coupled equilibrium, sweeps and pull-in search.

``tests/golden/gap-closure-reasons.json`` holds the failure reasons that
``TestGapClosureParity`` checks; to record them again from the current tree
(only where a change of reasons is intended and explained):

    PYTHONPATH=src python tests/test_coupled.py
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from micropull import (
    EquilibriumResult,
    LoadModelConfig,
    Material,
    PullInNotFoundError,
    SolverConfig,
    Specimen,
    SweepResult,
    build_mesh,
    find_pull_in,
    modulus_band_sweep,
    osterberg_pull_in,
    plate_load,
    select_specimen,
    solve_equilibrium,
    solve_nonlinear,
    voltage_sweep,
)
from micropull import beam, builtin_catalog, coupled, electro
from micropull.coupled import COUPLING_TOLERANCE, MAX_COUPLING_ITERATIONS, VOLTAGE_CAP, _Runner

PLATE = SolverConfig(load_model=LoadModelConfig(kind="parallel_plate"))
PLATE_MONO = SolverConfig(
    load_model=LoadModelConfig(kind="parallel_plate"), coupling_mode="monolithic"
)
PLATE_F0 = SolverConfig(
    load_model=LoadModelConfig(kind="parallel_plate", fringing_coefficient=0.0)
)
FIELD2D_1V = SolverConfig(pull_in_bracket_tolerance=1.0)
PLATE_MODES = [(m, c) for m in ("linear", "nonlinear") for c in ("staggered", "monolithic")]
REASONS = Path(__file__).resolve().parent / "golden" / "gap-closure-reasons.json"
COLD_FACTORS = (1.001, 1.05, 1.5)
# pulls in far above the default 10 kV search cap
STIFF = Specimen(
    id="stiff", length_l=50e-6, width_w=15e-6, thickness_t=10e-6,
    gap_g=20e-6, material=Material(166e9, 0.23), dimension_source="nominal",
)


def _plate_config(mode, coupling):
    return SolverConfig(
        structural_mode=mode,
        load_model=LoadModelConfig(kind="parallel_plate"),
        coupling_mode=coupling,
    )


class TestConfig:
    def test_monolithic_requires_parallel_plate(self):
        with pytest.raises(ValueError, match="monolithic"):
            SolverConfig(coupling_mode="monolithic")  # default load is field2d

    @pytest.mark.parametrize("kwargs", [
        {"structural_mode": "elastic"},
        {"coupling_mode": "simultaneous"},
        {"pull_in_bracket_tolerance": -1.0},
        {"n_elements": 2},
        {"pull_in_bracket_tolerance": float("inf")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_fewest_elements_run_a_pull_in(self, st1_1_measured):
        cfg = SolverConfig(load_model=LoadModelConfig(kind="parallel_plate"), n_elements=4)
        assert find_pull_in(st1_1_measured, cfg).pull_in_voltage == pytest.approx(
            179.2356, rel=1e-6
        )
        with pytest.raises(ValueError, match="n_elements"):
            SolverConfig(n_elements=3)


class TestEquilibrium:
    def test_zero_voltage_single_iteration(self, st1_1_measured):
        for cfg in (PLATE, SolverConfig(), PLATE_F0):
            res = solve_equilibrium(st1_1_measured, 0.0, cfg)
            assert res.converged
            assert res.iterations == 1
            assert res.deflection.tip == 0.0

    def test_negative_voltage_rejected(self, st1_1_measured):
        with pytest.raises(ValueError, match="voltage"):
            solve_equilibrium(st1_1_measured, -1.0, PLATE)

    @pytest.mark.parametrize("cfg", [PLATE, PLATE_MONO])
    @pytest.mark.parametrize("voltage", [float("nan"), float("inf")])
    def test_non_finite_voltage_rejected(self, st1_1_measured, voltage, cfg):
        with pytest.raises(ValueError, match="voltage"):
            solve_equilibrium(st1_1_measured, voltage, cfg)

    def test_softening_beats_one_pass_deflection(self, st1_1_measured):
        s = st1_1_measured
        voltage = 50.0
        res = solve_equilibrium(s, voltage, PLATE)
        assert res.converged
        assert res.deflection.tip < 0.05 * s.gap_g
        one_pass = solve_nonlinear(
            build_mesh(s, PLATE.n_elements), plate_load(s, s.gap_g, voltage, 0.65)
        )
        assert res.deflection.tip >= one_pass.tip

    def test_staggered_monolithic_agreement(self, st1_1_measured):
        # cross-oracle: two independent solution paths for the same
        # discrete equations
        voltage = 150.0
        stag = solve_equilibrium(st1_1_measured, voltage, PLATE_F0)
        mono = solve_equilibrium(
            st1_1_measured, voltage,
            SolverConfig(
                load_model=LoadModelConfig(kind="parallel_plate", fringing_coefficient=0.0),
                coupling_mode="monolithic",
            ),
        )
        assert stag.converged and mono.converged
        assert stag.deflection.tip == pytest.approx(mono.deflection.tip, rel=1e-4, abs=0.0)

    def test_monolithic_linear_mode(self, st1_1_measured):
        cfg_lin_mono = SolverConfig(
            structural_mode="linear",
            load_model=LoadModelConfig(kind="parallel_plate", fringing_coefficient=0.0),
            coupling_mode="monolithic",
        )
        cfg_lin_stag = SolverConfig(
            structural_mode="linear",
            load_model=LoadModelConfig(kind="parallel_plate", fringing_coefficient=0.0),
        )
        mono = solve_equilibrium(st1_1_measured, 120.0, cfg_lin_mono)
        stag = solve_equilibrium(st1_1_measured, 120.0, cfg_lin_stag)
        assert mono.converged and stag.converged
        assert mono.deflection.tip == pytest.approx(stag.deflection.tip, rel=1e-4, abs=0.0)

    def test_failure_above_pull_in(self, st1_1_measured):
        res = solve_equilibrium(st1_1_measured, 400.0, PLATE)
        assert not res.converged
        assert res.failure_reason in ("gap closure", "max coupling iterations",
                                      "structural divergence")
        # the reported state is its start
        assert 0.0 <= res.deflection.tip < st1_1_measured.gap_g
        assert res.deflection.tip == 0.0

    @pytest.mark.parametrize("module, name, value, reason, iterations", [
        (coupled, "MAX_COUPLING_ITERATIONS", 2, "max coupling iterations", 2),
        (beam, "NEWTON_ITERATIONS", 0, "structural divergence", 1),
    ], ids=["budget", "divergence"])
    def test_staggered_failure_reason(self, st1_1_measured, monkeypatch,
                                      module, name, value, reason, iterations):
        # 150 V converges with the default budgets; each cut one ends the
        # loop with its own reason, reporting the cold start
        monkeypatch.setattr(module, name, value)
        res = solve_equilibrium(st1_1_measured, 150.0, PLATE)
        assert not res.converged
        assert res.failure_reason == reason
        assert res.iterations == iterations
        assert res.voltage == 150.0
        assert res.deflection.tip == 0.0

    @pytest.mark.parametrize("budget, converged", [(8, True), (7, False)])
    def test_budget_includes_its_last_iteration(self, st1_1_measured, monkeypatch,
                                                budget, converged):
        # 170 V settles in exactly 8 coupling iterations
        monkeypatch.setattr(coupled, "MAX_COUPLING_ITERATIONS", budget)
        res = solve_equilibrium(st1_1_measured, 170.0, PLATE)
        assert (res.converged, res.iterations) == (converged, budget)

    @pytest.mark.parametrize("coupling, module, name, value, reason", [
        ("staggered", coupled, "MAX_COUPLING_ITERATIONS", 1, "max coupling iterations"),
        ("monolithic", beam, "NEWTON_ITERATIONS", 0, "newton divergence"),
    ])
    def test_tip_failure_reports_scaled_start(self, st1_1_measured, monkeypatch,
                                              coupling, module, name, value, reason):
        # a loop at a prescribed tip never stops after one pass, nor Newton
        # after no step: the failure reports the start scaled to the tip, and
        # the voltage the solve was given
        monkeypatch.setattr(module, name, value)
        runner = _Runner(st1_1_measured, replace(PLATE, coupling_mode=coupling))
        start = runner.linear_op.solve(beam.consistent_load_vector(runner.mesh, 1.0))
        tip = 0.5 * st1_1_measured.gap_g
        res = runner.equilibrium(2.0, None, tip)  # from the linear shape
        assert not res.converged
        assert res.failure_reason == reason
        assert res.voltage == 2.0
        assert res.deflection.tip == pytest.approx(tip, rel=1e-15, abs=0.0)
        np.testing.assert_allclose(
            res.deflection.dofs, start.dofs * (tip / start.tip), rtol=1e-15, atol=0.0
        )

    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    def test_monolithic_gap_closure_reports_start(self, st1_1_measured, model):
        # 60 V from a state bent to 0.9 gap, far above its equilibrium voltage:
        # the first Newton step closes the gap and the failure reports the start,
        # unscaled, as the state is given at 60 V
        runner = _Runner(st1_1_measured, replace(PLATE_MONO, structural_mode=model))
        bent = runner.equilibrium(1.0, None, 0.9 * st1_1_measured.gap_g)
        assert bent.converged
        res = runner.equilibrium(60.0, replace(bent, voltage=60.0))
        assert not res.converged
        assert res.failure_reason == "gap closure"
        assert res.iterations == 2
        assert res.voltage == 60.0
        assert res.tip_displacement == bent.tip_displacement


class TestSweep:
    def test_monotone_below_pull_in(self, st1_1_measured):
        est = osterberg_pull_in(st1_1_measured).voltage
        sweep = voltage_sweep(st1_1_measured, 0.2 * est, 6, PLATE)
        assert all(p.converged for p in sweep.points)
        tips = [p.tip_displacement for p in sweep.points]
        assert all(b > a for a, b in zip(tips, tips[1:]))
        assert sweep.pull_in is None

    def test_convex_displacement_curve(self, st1_1_measured):
        sweep = voltage_sweep(st1_1_measured, 170.0, 17, PLATE)
        tips = np.array([p.tip_displacement for p in sweep.points if p.converged])
        assert len(tips) >= 10
        assert np.all(np.diff(tips) > 0.0)
        assert np.all(np.diff(tips, 2) >= -1e-9)

    def test_step_doubling_leaves_fixed_points(self, st1_1_measured):
        est = osterberg_pull_in(st1_1_measured).voltage
        coarse = voltage_sweep(st1_1_measured, 0.5 * est, 5, PLATE)
        fine = voltage_sweep(st1_1_measured, 0.5 * est, 10, PLATE)
        fine_by_voltage = {p.voltage: p.tip_displacement for p in fine.points}
        for p in coarse.points:
            assert p.voltage in fine_by_voltage
            assert p.tip_displacement == pytest.approx(
                fine_by_voltage[p.voltage], rel=1e-6, abs=0.0
            )

    def test_sweep_through_pull_in_field2d(self, st1_1_measured):
        sweep = voltage_sweep(st1_1_measured, 200.0, 10, SolverConfig())
        assert not sweep.points[-1].converged
        converged = sweep.converged_points()
        assert converged
        assert converged[-1].voltage < 200.0
        assert sweep.pull_in is not None
        assert converged[-1].voltage <= sweep.pull_in.bracket_low

    @pytest.mark.parametrize("cfg", [PLATE, SolverConfig()])
    def test_failed_point_tip_inside_gap(self, st1_1_measured, cfg):
        sweep = voltage_sweep(st1_1_measured, 200.0, 5, cfg)
        last = sweep.points[-1]
        assert not last.converged
        assert 0.0 <= last.tip_displacement < st1_1_measured.gap_g

    @pytest.mark.parametrize("cfg, v_max", [
        (PLATE, 350.0), (_plate_config("nonlinear", "monolithic"), 350.0), (SolverConfig(), 360.0),
    ])
    def test_extrapolated_start_stays_inside_gap(self, st1_1_measured, cfg, v_max):
        # the first point lies just below pull-in, so the (V_2 / V_1)^2 = 4
        # extrapolation would start the second beyond the electrode
        first, last = voltage_sweep(st1_1_measured, v_max, 2, cfg).points
        gap = st1_1_measured.gap_g
        assert first.converged and 4.0 * first.tip_displacement >= gap
        assert not last.converged
        assert 0.0 <= last.tip_displacement < gap

    @pytest.mark.parametrize("cfg", [PLATE, PLATE_MONO, SolverConfig()])
    def test_rejects_voltage_above_cap(self, st1_1_measured, cfg):
        # the squared voltage of the load overflows from about 1e154 V
        for v_max in (2e4, 1e200):
            with pytest.raises(ValueError, match="v_max"):
                voltage_sweep(st1_1_measured, v_max, 2, cfg)
            with pytest.raises(ValueError, match="voltage"):
                solve_equilibrium(st1_1_measured, v_max, cfg)

    def test_sweep_to_the_cap(self):
        # the cap itself is a valid end voltage, below this pull-in
        sweep = voltage_sweep(STIFF, VOLTAGE_CAP, 2, PLATE)
        assert [p.voltage for p in sweep.converged_points()] == [0.5 * VOLTAGE_CAP, VOLTAGE_CAP]
        assert sweep.pull_in is None

    # the plate sweep goldens (nonlinear staggered, linear monolithic): each
    # plate mode ends in a failed point above pull-in
    @pytest.mark.parametrize("mode, coupling, reason", [
        ("nonlinear", "staggered", "gap closure"), ("linear", "monolithic", "newton divergence"),
        ("linear", "staggered", "gap closure"), ("nonlinear", "monolithic", "newton divergence"),
    ])
    def test_rows_are_the_solved_equilibria(
        self, st1_1_measured, monkeypatch, mode, coupling, reason
    ):
        solved = []
        equilibrium = _Runner.equilibrium

        def recording(self, voltage, near=None, tip=None):
            res = equilibrium(self, voltage, near, tip)
            if tip is None:  # not a solve of the pull-in search
                solved.append(res)
            return res

        monkeypatch.setattr(_Runner, "equilibrium", recording)
        cfg = _plate_config(mode, coupling)
        sweep = voltage_sweep(st1_1_measured, 200.0, 8, cfg)
        assert len(sweep.points) == len(solved) == 8
        for k, p in enumerate(sweep.points):
            assert p is solved[k]
            assert p.voltage == 25.0 * (k + 1)
            assert (p.failure_reason is None) == p.converged
        last = sweep.points[-1]
        assert last.failure_reason == reason
        assert 0.0 < last.tip_displacement < st1_1_measured.gap_g
        assert last.tip_displacement == last.deflection.tip
        # the failed point reports its start: the 175 V state scaled by (200 / 175)^2
        before = sweep.points[-2]
        assert before.voltage == 175.0
        assert np.array_equal(last.deflection.dofs, before.deflection.dofs * (200.0 / 175.0) ** 2)
        assert voltage_sweep(st1_1_measured, 200.0, 8, cfg) == sweep

    @pytest.mark.parametrize("mode", ["linear", "nonlinear"])
    def test_failed_rows_agree_across_couplings(self, st1_1_measured, mode):
        # the staggered loop reported its last iterate short of the electrode:
        # 3.908 um against 2.354 um monolithic (nonlinear)
        stag, mono = (
            voltage_sweep(st1_1_measured, 200.0, 8, _plate_config(mode, c)).points[-1]
            for c in ("staggered", "monolithic")
        )
        assert not stag.converged and not mono.converged
        assert stag.voltage == mono.voltage == 200.0
        assert stag.tip_displacement == pytest.approx(mono.tip_displacement, rel=1e-5, abs=0.0)

    @pytest.mark.parametrize("specimen,mode,coupling", [
        pytest.param(("ST1-1", "measured"), *mc, id="-".join(mc)) for mc in PLATE_MODES
    ] + [
        pytest.param(("ST1-8", "nominal"), *mc, id="-".join(("ST1-8", *mc)))
        for mc in PLATE_MODES
    ])
    def test_overflowing_load_fails_the_first_point(self, catalog, specimen, mode, coupling):
        # measured ST1-1 (g/w = 0.33): the squared residual norm overflowed, and
        # so did its acceptance floor: the unloaded beam came back converged at 0 um.
        # nominal ST1-8 (g/w = 26.7): the fringing factor 1 + f (g - v)/w itself
        # overflows, and the load vector raised ValueError
        spec = select_specimen(catalog, *specimen)
        cfg = SolverConfig(
            structural_mode=mode,
            load_model=LoadModelConfig(kind="parallel_plate", fringing_coefficient=1e308),
            coupling_mode=coupling,
        )
        if spec.id == "ST1-8":
            # the load of 1 V overflows as well, so the search fails at its first tip
            first = solve_equilibrium(spec, 100.0, cfg)
            assert (first.converged, first.failure_reason) == (False, "load overflow")
            with pytest.raises(PullInNotFoundError, match=r"0\.35 gap, load overflow$"):
                voltage_sweep(spec, 200.0, 2, cfg)
            return
        sweep = voltage_sweep(spec, 200.0, 2, cfg)
        assert not sweep.points[0].converged
        if coupling == "monolithic":
            # the load stiffness overflows: it failed the Newton solve as
            # "newton divergence", with a RuntimeWarning
            assert sweep.points[0].failure_reason == "load overflow"
        assert sweep.pull_in is not None
        assert sweep.pull_in.pull_in_voltage < 1e-150

    def test_validation(self, st1_1_measured):
        for v_max in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="v_max"):
                voltage_sweep(st1_1_measured, v_max, 5, PLATE)
        with pytest.raises(ValueError, match="n_steps"):
            voltage_sweep(st1_1_measured, 10.0, 1, PLATE)

    def test_result_invariants_enforced(self, sweep_point):
        for second in (1.0, 2.0):  # decreasing, then equal
            with pytest.raises(ValueError, match="increasing"):
                SweepResult(points=(
                    sweep_point(2.0, 0.0, True, 1), sweep_point(second, 0.0, True, 1),
                ))
        with pytest.raises(ValueError, match="precede"):
            SweepResult(points=(
                sweep_point(1.0, 0.0, False, 1), sweep_point(2.0, 0.0, True, 1),
            ))


@pytest.fixture(scope="module")
def plate_pull_in(st1_1_measured):
    return find_pull_in(st1_1_measured, PLATE)


@pytest.fixture(scope="module")
def field2d_pull_ins(st1_1_measured, st1_6_measured):
    """Field2d pull-ins at a 1 V bracket, with the field solves each took."""
    out = {}
    for spec in (st1_1_measured, st1_6_measured):
        calls = []
        solve = electro.solve_field2d

        def counting(*args, **kwargs):
            calls.append(None)
            return solve(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(electro, "solve_field2d", counting)
            out[spec.id] = find_pull_in(spec, FIELD2D_1V), len(calls)
    return out


class TestPullIn:
    def test_bracket_width(self, plate_pull_in):
        r = plate_pull_in
        assert r.bracket_high - r.bracket_low <= PLATE.pull_in_bracket_tolerance * 1.0001
        assert r.bracket_low < r.pull_in_voltage < r.bracket_high

    def test_bracket_replays_deterministically(
        self, st1_1_measured, plate_pull_in, field2d_pull_ins
    ):
        # the search starts its probes warm; a cold solve gives the same verdicts
        field2d, _ = field2d_pull_ins["ST1-1"]
        for cfg, r in ((PLATE, plate_pull_in), (FIELD2D_1V, field2d)):
            low = solve_equilibrium(st1_1_measured, r.bracket_low, cfg)
            high = solve_equilibrium(st1_1_measured, r.bracket_high, cfg)
            assert low.converged
            assert not high.converged

    def test_against_dense_voltage_scan(self, st1_1_measured, plate_pull_in):
        # brute-force the transition at 0.05 V resolution around the bracket
        runner = _Runner(st1_1_measured, PLATE)
        last_ok, last_tip = None, None
        for v in np.arange(plate_pull_in.bracket_low - 1.0,
                           plate_pull_in.bracket_high + 1.0, 0.05):
            res = runner.equilibrium(v)
            if res.converged:
                last_ok, last_tip = v, res.deflection.tip
        assert last_ok is not None
        assert plate_pull_in.bracket_low - 0.05 <= last_ok < plate_pull_in.bracket_high + 0.05
        assert last_tip == pytest.approx(plate_pull_in.tip_displacement, rel=0.05)

    @pytest.mark.parametrize("sid", ["ST1-1", "ST1-4"])
    def test_last_stable_tip_fraction(self, catalog, sid):
        from micropull import select_specimen
        s = select_specimen(catalog, sid, "measured")
        r = find_pull_in(s, PLATE)
        assert 0.3 * s.gap_g < r.tip_displacement < 0.6 * s.gap_g

    def test_no_pull_in_below_cap(self):
        assert osterberg_pull_in(STIFF).voltage > 10_000.0
        with pytest.raises(PullInNotFoundError):
            find_pull_in(STIFF, PLATE)

    def test_convex_start_steps_beyond_the_end(self, st1_1_measured, monkeypatch):
        # V(x) = 100 e^(6x) (1 - x) is convex at the start points 0.35, 0.45
        # and 0.55, so the search first steps beyond 0.55; its maximum is
        # 100 e^5 / 6 at x = 5/6
        xs = _synthetic_curve(monkeypatch, lambda x: 100.0 * math.exp(6.0 * x) * (1.0 - x))
        r = find_pull_in(st1_1_measured, PLATE)
        assert xs[3] == pytest.approx(0.75)
        assert r.bracket_high - r.bracket_low <= PLATE.pull_in_bracket_tolerance
        assert r.bracket_low <= 100.0 * math.exp(5.0) / 6.0 <= r.bracket_high

    def test_sweep_search_gives_up_above_cap(self, st1_1_measured, monkeypatch):
        # every sweep point fails, and the search that follows meets a V(x)
        # peaking at 12 kV: like every pull-in search it gives up above the cap
        xs = _synthetic_curve(monkeypatch, lambda x: 48_000.0 * x * (1.0 - x))
        with pytest.raises(PullInNotFoundError, match="below 10000 V"):
            voltage_sweep(st1_1_measured, 100.0, 2, PLATE)
        assert xs == [0.35]


def _synthetic_curve(monkeypatch, v_of_x):
    """Replace the staggered loop by the equilibrium curve V(x), x the tip in
    gaps: a prescribed tip returns its start and lam = (V(x) / voltage)^2, a
    voltage fails.  Returns the list of the prescribed x, filled as solved."""
    xs = []

    def staggered(self, voltage, d, tip=None):
        if tip is None:
            return None, math.nan, 1, "gap closure"
        xs.append(tip / self.spec.gap_g)
        return d, (v_of_x(xs[-1]) / voltage) ** 2, 1, None

    monkeypatch.setattr(_Runner, "_staggered", staggered)
    return xs


class TestModulusBand:
    def test_low_modulus_dominates(self, st1_1_measured):
        low, high = modulus_band_sweep(st1_1_measured, 150e9, 166e9, 140.0, 7, PLATE)
        assert all(p.converged for p in low.points)
        assert all(p.converged for p in high.points)
        for pl, ph in zip(low.points, high.points):
            assert pl.voltage == ph.voltage
            assert pl.tip_displacement > ph.tip_displacement

    def test_intermediate_modulus_between(self, st1_1_measured):
        low, high = modulus_band_sweep(st1_1_measured, 150e9, 166e9, 140.0, 7, PLATE)
        mid = voltage_sweep(st1_1_measured.with_young_modulus(158e9), 140.0, 7, PLATE)
        for pl, pm, ph in zip(low.points, mid.points, high.points):
            assert pl.tip_displacement > pm.tip_displacement > ph.tip_displacement

    def test_pull_in_ordering_in_modulus(self, st1_1_measured):
        v_low = find_pull_in(st1_1_measured.with_young_modulus(150e9), PLATE).pull_in_voltage
        v_high = find_pull_in(st1_1_measured.with_young_modulus(166e9), PLATE).pull_in_voltage
        assert v_low < v_high

    def test_validation(self, st1_1_measured):
        with pytest.raises(ValueError, match="moduli"):
            modulus_band_sweep(st1_1_measured, 166e9, 150e9, 100.0, 5, PLATE)


def _similar(spec, law, k):
    """The specimen under one similarity law, with the factor its pull-in
    voltage scales by."""
    if law == "E":
        return spec.with_young_modulus(k * spec.material.young_modulus), math.sqrt(k)
    if law == "s":
        lengths = ("length_l", "width_w", "thickness_t", "gap_g")
        return replace(spec, **{name: k * getattr(spec, name) for name in lengths}), k
    return replace(spec, thickness_t=k * spec.thickness_t), k**1.5


_SIMILARITY_MODELS = {
    **{f"plate-{m}-{c}": _plate_config(m, c) for m, c in PLATE_MODES},
    **{f"field2d-{m}": SolverConfig(structural_mode=m) for m in ("linear", "nonlinear")},
}
# V ∝ √E and V ∝ s in every model; V ∝ t^{3/2} in the linear beam only, as the
# nonlinear one couples bending (stiffness ∝ t³) to stretching (∝ t)
_SIMILARITY_CASES = [
    *[(law, k, name) for law, ks in (("E", (0.5, 2.0)), ("s", (0.5, 3.0)))
      for k in ks for name in _SIMILARITY_MODELS],
    *[("t", k, name) for k in (0.8, 1.25)
      for name, cfg in _SIMILARITY_MODELS.items() if cfg.structural_mode == "linear"],
]


@pytest.fixture(scope="module")
def reference_pull_ins(st1_1_measured):
    return {name: find_pull_in(st1_1_measured, cfg) for name, cfg in _SIMILARITY_MODELS.items()}


class TestSimilarityLaws:
    """With the bracket tolerance scaled like V, the discrete model keeps the
    similarity laws of the continuum one; a failure points to a hidden absolute
    tolerance or floor."""

    @pytest.mark.parametrize("law,k,name", _SIMILARITY_CASES)
    def test_pull_in_scales(self, st1_1_measured, reference_pull_ins, law, k, name):
        spec, v_scale = _similar(st1_1_measured, law, k)
        cfg = _SIMILARITY_MODELS[name]
        cfg = replace(cfg, pull_in_bracket_tolerance=v_scale * cfg.pull_in_bracket_tolerance)
        ref, got = reference_pull_ins[name], find_pull_in(spec, cfg)
        for attr in ("bracket_low", "pull_in_voltage", "bracket_high"):
            expected = v_scale * getattr(ref, attr)
            assert getattr(got, attr) == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_field2d_shift_from_plate_scales_as_gap_over_length(catalog):
    # field2d adds the in-plane tip fringe to the plate load without fringing;
    # its pull-in shift times L/g is the same (about -0.517) on the three
    # measured specimens with L/g near 20, although their t, L, g and E differ
    shifts = []
    for sid in ("ST1-1", "ST1-4", "ST1-6"):
        spec = select_specimen(catalog, sid, "measured")
        ratio = find_pull_in(spec).pull_in_voltage / find_pull_in(spec, PLATE_F0).pull_in_voltage
        shifts.append((ratio - 1.0) * spec.length_l / spec.gap_g)
    assert max(shifts) < 0.0
    assert max(shifts) - min(shifts) <= 0.01 * abs(max(shifts))


@pytest.fixture(scope="module")
def plate_brackets(st1_1_measured):
    """Plate-load pull-ins of measured ST1-1 by (structural mode, coupling,
    coupling-iteration budget)."""
    out = {}
    for mode in ("linear", "nonlinear"):
        for coupling in ("staggered", "monolithic"):
            cfg = _plate_config(mode, coupling)
            for budget in (MAX_COUPLING_ITERATIONS, 1000):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(coupled, "MAX_COUPLING_ITERATIONS", budget)
                    out[mode, coupling, budget] = find_pull_in(st1_1_measured, cfg)
    return out


class TestAitkenRelaxation:
    """The staggered loop's Aitken relaxation makes pull-in a model property."""

    @pytest.mark.parametrize("mode", ["linear", "nonlinear"])
    def test_plate_bracket_independent_of_budget(self, plate_brackets, mode):
        default = plate_brackets[mode, "staggered", MAX_COUPLING_ITERATIONS]
        generous = plate_brackets[mode, "staggered", 1000]
        assert (default.bracket_low, default.bracket_high) == (
            generous.bracket_low, generous.bracket_high,
        )

    @pytest.mark.parametrize("mode", ["linear", "nonlinear"])
    def test_staggered_agrees_with_monolithic(self, plate_brackets, mode):
        stag = plate_brackets[mode, "staggered", MAX_COUPLING_ITERATIONS]
        mono = plate_brackets[mode, "monolithic", MAX_COUPLING_ITERATIONS]
        tol = SolverConfig().pull_in_bracket_tolerance
        assert abs(stag.bracket_low - mono.bracket_low) <= tol
        assert abs(stag.bracket_high - mono.bracket_high) <= tol

    @pytest.mark.parametrize("mode", ["linear", "nonlinear"])
    def test_monolithic_bracket_independent_of_budget(self, plate_brackets, mode):
        default = plate_brackets[mode, "monolithic", MAX_COUPLING_ITERATIONS]
        generous = plate_brackets[mode, "monolithic", 1000]
        assert (default.bracket_low, default.bracket_high) == (
            generous.bracket_low, generous.bracket_high,
        )

    def test_field2d_bracket_independent_of_budget(self, st1_1_measured):
        default = find_pull_in(st1_1_measured, SolverConfig())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coupled, "MAX_COUPLING_ITERATIONS", 1000)
            generous = find_pull_in(st1_1_measured, SolverConfig())
        assert (default.bracket_low, default.bracket_high) == (
            generous.bracket_low, generous.bracket_high,
        )

    def test_near_pull_in_iteration_count(self, st1_1_measured):
        # the plain staggered map took 87 iterations here
        res = solve_equilibrium(st1_1_measured, 186.6, SolverConfig())
        assert res.converged
        assert res.iterations <= 25

    @pytest.mark.parametrize("cfg, voltage", [
        (SolverConfig(), 186.6),
        (PLATE, 179.1),
        (SolverConfig(structural_mode="linear",
                      load_model=LoadModelConfig(kind="parallel_plate")), 179.1),
    ])
    def test_converged_state_is_a_fixed_point(self, st1_1_measured, cfg, voltage):
        # an extrapolated step must not stop short: one more plain
        # load-and-solve pass barely moves the converged tip
        runner = _Runner(st1_1_measured, cfg)
        res = runner.equilibrium(voltage)
        assert res.converged
        again, _ = runner._structural_solve(
            runner._load_for(res.deflection.dofs, voltage), res.deflection.dofs
        )
        tip = res.deflection.tip
        assert abs(again[-2] - tip) <= 5.0 * COUPLING_TOLERANCE * tip

    @pytest.mark.parametrize("cfg", [SolverConfig(), PLATE], ids=["field2d", "plate"])
    @pytest.mark.parametrize("x", [0.35, 0.45, 0.55])
    def test_converged_tip_state_is_a_fixed_point(self, st1_1_measured, cfg, x):
        # the contraction estimate must not stop short either: one more plain
        # load-and-solve pass at the same tip barely moves lam = V^2
        runner = _Runner(st1_1_measured, cfg)
        tip = x * st1_1_measured.gap_g
        res = runner.equilibrium(1.0, None, tip)  # from the linear shape
        assert res.converged
        _, lam = runner._structural_solve(
            runner._load_for(res.deflection.dofs, 1.0), res.deflection.dofs, tip
        )
        assert abs(lam - res.voltage**2) <= 5.0 * COUPLING_TOLERANCE * res.voltage**2

    def test_default_stop_agrees_with_tight_stop(self, catalog, catalog_plate_pull_ins,
                                                 st1_1_measured, monkeypatch):
        # the contraction estimate at a prescribed tip moves no pull-in by
        # more than the coupling tolerance allows
        default = {
            (label, mode): r.pull_in_voltage
            for (label, mode, coupling), r in catalog_plate_pull_ins.items()
            if coupling == "staggered"
        }
        default["ST1-1 measured", "field2d"] = find_pull_in(st1_1_measured).pull_in_voltage
        monkeypatch.setattr(coupled, "COUPLING_TOLERANCE", 1e-13)
        for spec in catalog:
            label = f"{spec.id} {spec.dimension_source}"
            for mode in ("linear", "nonlinear"):
                tight = find_pull_in(spec, _plate_config(mode, "staggered")).pull_in_voltage
                assert default[label, mode] == pytest.approx(tight, rel=1e-8), (label, mode)
        tight = find_pull_in(st1_1_measured).pull_in_voltage
        assert default["ST1-1 measured", "field2d"] == pytest.approx(tight, rel=1e-8)


def cold_pull_in(spec, cfg):
    """The pull-in search with every probe solved from the undeformed beam."""
    runner = _Runner(spec, cfg)
    probe = max(osterberg_pull_in(spec).voltage / 4.0, 1.0)
    lo, hi = 0.0, None
    if runner.equilibrium(probe).converged:
        lo = v = probe
        while hi is None:
            v = 2.0 * v
            if runner.equilibrium(v).converged:
                lo = v
            else:
                hi = v
    else:
        hi = v = probe
        while lo == 0.0:
            v = 0.5 * v
            if runner.equilibrium(v).converged:
                lo = v
            else:
                hi = v
    while hi - lo > cfg.pull_in_bracket_tolerance:
        mid = 0.5 * (lo + hi)
        if runner.equilibrium(mid).converged:
            lo = mid
        else:
            hi = mid
    return lo, hi


class TestContinuation:
    """Prescribed-tip solves start from the nearest solved state."""

    @pytest.mark.parametrize("sid", ["ST1-1", "ST1-6"])
    def test_field_solves_per_search(self, field2d_pull_ins, sid):
        # 16 with the plain stop and an undeformed first start; cold probes
        # took 114 (ST1-1) and 103 (ST1-6)
        _, n_solves = field2d_pull_ins[sid]
        assert n_solves == 12

    def test_field2d_sweep_field_solves(self, st1_1_measured, monkeypatch):
        # 43 with each point starting from the unscaled previous state
        calls = _counting(monkeypatch, electro, "solve_field2d")
        sweep = voltage_sweep(st1_1_measured, 170.0, 10, SolverConfig())
        assert all(p.converged for p in sweep.points)
        assert len(calls) == 36

    def test_field2d_bracket_equals_cold_search(self, st1_1_measured, field2d_pull_ins):
        # the maximum of V(tip) lies in the bracket of a cold voltage search,
        # widened by one tolerance on each side
        r, _ = field2d_pull_ins["ST1-1"]
        lo, hi = cold_pull_in(st1_1_measured, FIELD2D_1V)
        tol = FIELD2D_1V.pull_in_bracket_tolerance
        assert lo - tol <= r.pull_in_voltage <= hi + tol

    @pytest.mark.parametrize("mode, coupling", [
        ("nonlinear", "staggered"),
        ("nonlinear", "monolithic"),
        ("linear", "staggered"),
    ])
    def test_plate_bracket_equals_cold_search(
        self, st1_1_measured, plate_brackets, mode, coupling
    ):
        cfg = _plate_config(mode, coupling)
        r = plate_brackets[mode, coupling, MAX_COUPLING_ITERATIONS]
        lo, hi = cold_pull_in(st1_1_measured, cfg)
        tol = cfg.pull_in_bracket_tolerance
        assert lo - tol <= r.pull_in_voltage <= hi + tol


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper; returns the list that grows per call."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def _bordered_slope(spec, cfg, dofs, lam):
    """lam' = g / b_tip in V^2 per gap at the plate-load equilibrium ``dofs`` under
    lam times the 1 V load, from J b = f(1 V) with J = K_t - lam K_load."""
    mesh = build_mesh(spec, cfg.n_elements)
    g_mat, weights, stiffness = beam.transverse_load_operators(mesh)
    fringing = cfg.load_model.fringing_coefficient
    gaps = spec.gap_g - g_mat @ dofs
    f_1v = beam.consistent_load_vector(mesh, plate_load(spec, gaps, 1.0, fringing))
    k_load = stiffness(weights * electro.plate_load_slope(spec, gaps, 1.0, fringing))
    if cfg.structural_mode == "linear":
        k_t = beam.LinearBeamOperator(mesh).k_band
    else:
        k_t = beam.corotational_internal(mesh, dofs)[1]
    b = beam.solve_clamped_banded(k_t - lam * k_load, f_1v)
    return spec.gap_g / b[-2]


@pytest.fixture(scope="module")
def catalog_plate_pull_ins(catalog):
    """Plate-load pull-ins of every catalog specimen by (label, mode, coupling)."""
    return {
        (f"{spec.id} {spec.dimension_source}", mode, coupling): (
            find_pull_in(spec, _plate_config(mode, coupling))
        )
        for spec in catalog
        for mode in ("linear", "nonlinear")
        for coupling in ("staggered", "monolithic")
    }


class TestDisplacementControl:
    """Pull-in is the maximum of V over the prescribed tip deflection."""

    def test_default_field2d_field_solves(self, st1_1_measured, monkeypatch):
        # the voltage-controlled bisection took 188
        calls = _counting(monkeypatch, electro, "solve_field2d")
        find_pull_in(st1_1_measured, SolverConfig())
        assert len(calls) <= 40

    def test_no_equilibrium_above_bracket(self, st1_1_measured, plate_pull_in):
        # V(tip) on a fine grid around the maximum stays below bracket_high,
        # and reaches above bracket_low
        runner = _Runner(st1_1_measured, PLATE)
        gap = st1_1_measured.gap_g
        r = plate_pull_in
        start = EquilibriumResult(r.deflection, True, 0, r.bracket_low)
        volts = []
        for x in np.linspace(0.40, 0.52, 25):
            res = runner.equilibrium(1.0, start, x * gap)
            assert res.converged
            volts.append(res.voltage)
        assert max(volts) < plate_pull_in.bracket_high
        assert max(volts) > plate_pull_in.bracket_low

    def test_result_carries_stable_state(self, st1_1_measured, plate_pull_in):
        r = plate_pull_in
        assert r.deflection.tip == r.tip_displacement
        # a voltage-controlled solve from that state stays on it
        start = EquilibriumResult(r.deflection, True, 0, r.bracket_low)
        res = _Runner(st1_1_measured, PLATE).equilibrium(r.bracket_low, start)
        assert res.converged
        assert res.deflection.tip == pytest.approx(r.tip_displacement, rel=1e-4, abs=0.0)

    def test_bordered_slope_certifies_every_catalog_bracket(
        self, catalog, catalog_plate_pull_ins
    ):
        # lam' = dlam/d(tip) changes sign at the fold (Keller 1977): positive
        # at bracket_low's state, negative at a converged tip 5 % beyond it
        # (0.55 g is still left of the fold on ST1-7 and ST1-8, whose
        # bracket_low tips are 0.59-0.66 g)
        for spec in catalog:
            for mode, coupling in PLATE_MODES:
                label = f"{spec.id} {spec.dimension_source} {mode} {coupling}"
                cfg = _plate_config(mode, coupling)
                r = catalog_plate_pull_ins[f"{spec.id} {spec.dimension_source}", mode, coupling]
                assert _bordered_slope(spec, cfg, r.deflection.dofs, r.bracket_low**2) > 0.0, label
                start = EquilibriumResult(r.deflection, True, 0, r.bracket_low)
                right = _Runner(spec, cfg).equilibrium(1.0, start, 1.05 * r.tip_displacement)
                assert right.converged, label
                assert right.voltage < r.bracket_high, label
                lam = right.voltage**2
                assert _bordered_slope(spec, cfg, right.deflection.dofs, lam) < 0.0, label

    @pytest.mark.parametrize("mode", ["linear", "nonlinear"])
    def test_catalog_staggered_agrees_with_monolithic(self, catalog_plate_pull_ins, mode):
        # the voltage-controlled search put nominal ST1-8 (nonlinear) at
        # 779.14-779.23 V monolithic and 785.77-785.86 V staggered
        tol = PLATE.pull_in_bracket_tolerance
        for label in sorted({key[0] for key in catalog_plate_pull_ins}):
            stag, mono = (
                catalog_plate_pull_ins[label, mode, coupling]
                for coupling in ("staggered", "monolithic")
            )
            assert abs(stag.pull_in_voltage - mono.pull_in_voltage) <= tol, label
            assert abs(stag.bracket_low - mono.bracket_low) <= tol, label
            assert abs(stag.bracket_high - mono.bracket_high) <= tol, label

    @pytest.mark.parametrize("mode", ["linear", "nonlinear"])
    def test_cold_monolithic_solve_below_pull_in(self, catalog, catalog_plate_pull_ins, mode):
        # one Newton solve from the unloaded beam climbs to just below
        # pull-in; its residual alternates by orders of magnitude on the way,
        # so a guard on residual growth stopped it, and a substep ladder
        # then took up to 168 load evaluations
        for spec in catalog:
            label = f"{spec.id} {spec.dimension_source}"
            r = catalog_plate_pull_ins[label, mode, "monolithic"]
            res = solve_equilibrium(spec, 0.99 * r.bracket_low, _plate_config(mode, "monolithic"))
            assert res.converged, label
            assert res.iterations <= 31, label

    @pytest.mark.parametrize("mode", ["linear", "nonlinear"])
    def test_cold_monolithic_solve_above_pull_in(self, catalog, catalog_plate_pull_ins, mode):
        # one Newton solve, no retry: a substep ladder spent 284-378 load
        # evaluations on each of these
        for spec in catalog:
            label = f"{spec.id} {spec.dimension_source}"
            r = catalog_plate_pull_ins[label, mode, "monolithic"]
            res = solve_equilibrium(spec, 1.05 * r.bracket_high, _plate_config(mode, "monolithic"))
            assert not res.converged, label
            assert res.failure_reason == "newton divergence", label
            assert res.iterations <= 31, label
            assert res.deflection.tip == 0.0, label  # the start's tip

    def test_monolithic_structural_work(self, catalog, monkeypatch):
        # failing voltage-controlled probes made 3901 of the 3942 calls
        spec = select_specimen(catalog, "ST1-3", "nominal")
        calls = _counting(monkeypatch, beam, "corotational_internal")
        find_pull_in(spec, SolverConfig(
            load_model=LoadModelConfig(kind="parallel_plate"), coupling_mode="monolithic",
        ))
        assert len(calls) <= 400

    def test_cold_solve_fails_at_bracket_high(self, catalog):
        # a warm Aitken probe overshot here and left an equilibrium at bracket_high
        spec = select_specimen(catalog, "ST1-3", "measured")
        cfg = SolverConfig(
            structural_mode="linear", load_model=LoadModelConfig(kind="parallel_plate"),
        )
        r = find_pull_in(spec, cfg)
        assert solve_equilibrium(spec, r.bracket_low, cfg).converged
        assert not solve_equilibrium(spec, r.bracket_high, cfg).converged


def _failure_reasons(spec, cfg, pull_in_v):
    """Failure reason, None where converged, of each point of a 13-point sweep
    to 1.3 x ``pull_in_v`` up to its first failure, and of cold starts at
    COLD_FACTORS x ``pull_in_v``."""
    sweep = []
    equilibrium = _Runner.equilibrium

    def recording(self, voltage, near=None, tip=None):
        res = equilibrium(self, voltage, near, tip)
        if tip is None:  # not a solve of the pull-in search
            sweep.append(res.failure_reason)
        return res

    _Runner.equilibrium = recording
    try:
        voltage_sweep(spec, 1.3 * pull_in_v, 13, cfg)
    finally:
        _Runner.equilibrium = equilibrium
    cold = [solve_equilibrium(spec, k * pull_in_v, cfg).failure_reason for k in COLD_FACTORS]
    return {"sweep": sweep, "cold": cold}


class TestGapClosureParity:
    """Gap closure and the other failure reasons land on the recorded points
    of catalog plate sweeps past pull-in and of cold starts above it."""

    @pytest.mark.parametrize("mode,coupling", PLATE_MODES)
    def test_reasons_on_recorded_points(self, catalog, mode, coupling):
        recorded = json.loads(REASONS.read_text(encoding="utf-8"))
        got, want = {}, {}
        for spec in catalog:
            key = f"{spec.id}/{spec.dimension_source}/{mode}/{coupling}"
            entry = recorded[key]
            got[key] = _failure_reasons(spec, _plate_config(mode, coupling), entry["pull_in_V"])
            want[key] = {"sweep": entry["sweep"], "cold": entry["cold"]}
        assert got == want


class TestOneLoadPath:
    @pytest.mark.parametrize("mode,coupling", PLATE_MODES)
    def test_plate_solves_never_evaluate_the_deflection(
        self, st1_1_measured, monkeypatch, mode, coupling
    ):
        # both modes take the plate gaps from one product with the cached
        # quadrature matrix; the sweep ends in a failed point past pull-in
        calls = _counting(monkeypatch, beam.DeflectionField, "evaluate")
        cfg = _plate_config(mode, coupling)
        find_pull_in(st1_1_measured, cfg)
        sweep = voltage_sweep(st1_1_measured, 200.0, 8, cfg)
        assert sweep.pull_in is not None
        assert calls == []
        # the field load does sample the deflection at its mesh columns
        solve_equilibrium(st1_1_measured, 50.0, SolverConfig(structural_mode=mode))
        assert calls


if __name__ == "__main__":
    record = {}
    for spec in builtin_catalog():
        for mode, coupling in PLATE_MODES:
            cfg = _plate_config(mode, coupling)
            pull_in_v = find_pull_in(spec, cfg).pull_in_voltage
            key = f"{spec.id}/{spec.dimension_source}/{mode}/{coupling}"
            record[key] = {"pull_in_V": pull_in_v, **_failure_reasons(spec, cfg, pull_in_v)}
            print(key, file=sys.stderr)
    lines = (f" {json.dumps(key)}: {json.dumps(entry)}" for key, entry in record.items())
    REASONS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
