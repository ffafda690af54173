"""Electrostatic load models: plate formula, 2D field solve, pressure extraction."""

import io

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from micropull import (
    GapClosureError,
    LoadModelConfig,
    VACUUM_PERMITTIVITY,
    maxwell_load,
    plate_load,
    select_specimen,
    solve_field2d,
)
from micropull import electro
from micropull.beam import DeflectionField, build_mesh, transverse_load_operators
from micropull.coupled import SolverConfig, _Runner
from micropull.electro import (
    FACE_PROBE_FRACTION,
    TIP_EXTENSION_GAPS,
    _field_pattern,
    dump_field_csv,
    integrated_face_force,
    plate_load_slope,
)

PLATE = SolverConfig(load_model=LoadModelConfig(kind="parallel_plate", fringing_coefficient=0.0))


def nodal_deflection(spec, v, theta=0.0, n_elements=40):
    """A DeflectionField with nodal deflections ``v`` and rotations ``theta``."""
    mesh = build_mesh(spec, n_elements)
    dofs = np.zeros((mesh.n_nodes, 3))
    dofs[:, 1], dofs[:, 2] = v, theta
    return DeflectionField(mesh, dofs.ravel())


def bent(spec, bend):
    """The deflection bend g (x / l)^2, which the cubic elements hold exactly."""
    xi = np.linspace(0.0, 1.0, 41)  # x / l at the nodes
    tip = bend * spec.gap_g
    return nodal_deflection(spec, tip * xi**2, 2.0 * tip * xi / spec.length_l)


def at_tip(spec, value):
    """The deflection ``value`` at the tip node, zero at the other nodes."""
    v = np.zeros(41)
    v[-1] = value
    return nodal_deflection(spec, v)


class TestLoadModelConfig:
    def test_defaults_valid(self):
        cfg = LoadModelConfig()
        assert cfg.kind == "field2d"
        assert cfg.cells_across_gap == 24
        assert cfg.cells_along_beam == 160

    @pytest.mark.parametrize("kwargs", [
        {"kind": "magnetostatic"},
        {"fringing_coefficient": -0.1},
        {"fringing_coefficient": float("nan")},
        {"fringing_coefficient": float("inf")},
        {"cells_across_gap": 7},
        {"cells_along_beam": 39},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            LoadModelConfig(**kwargs)


class TestPlateLoad:
    def test_undeformed_reference_value(self, st1_1_measured):
        s = st1_1_measured
        q = plate_load(s, np.full(11, s.gap_g), 100.0, 0.0)
        expected = VACUUM_PERMITTIVITY * s.width_w * 100.0**2 / (2.0 * s.gap_g**2)
        assert expected == pytest.approx(2.6562e-2, rel=1e-3)
        assert q.shape == (11,)
        assert np.allclose(q, expected, rtol=1e-12)

    def test_zero_voltage_zero_load(self, st1_1_measured):
        q = plate_load(st1_1_measured, np.full(5, st1_1_measured.gap_g), 0.0, 0.65)
        assert np.all(q == 0.0)

    def test_fringing_increases_load(self, st1_1_measured):
        g = st1_1_measured.gap_g
        assert plate_load(st1_1_measured, g, 50.0, 0.65) > plate_load(st1_1_measured, g, 50.0, 0.0)

    def test_contact_raises(self, st1_1_measured):
        gap = np.array([st1_1_measured.gap_g, 0.0])
        with pytest.raises(GapClosureError):
            plate_load(st1_1_measured, gap, 10.0, 0.0)

    def test_gap_closure_only_near_tip_raises(self, st1_1_measured):
        # the tip node 2 % past the gap, every quadrature point still short
        # of it: the tip's gap, which the runner passes too, catches it
        s = st1_1_measured
        runner = _Runner(s, PLATE)
        d = at_tip(s, 1.02 * s.gap_g).dofs
        assert (transverse_load_operators(runner.mesh)[0] @ d).max() < s.gap_g
        with pytest.raises(GapClosureError):
            runner._load_for(d, 10.0)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_tip_raises(self, st1_1_measured, bad):
        s = st1_1_measured
        with pytest.raises(GapClosureError):
            _Runner(s, PLATE)._load_for(at_tip(s, bad).dofs, 10.0)

    def test_non_finite_at_load_points_raises_on_evaluation(self, st1_1_measured):
        # the tip is open; the load meets the NaN at the quadrature points
        # and raises before the beam's finiteness check
        s = st1_1_measured
        v = np.zeros(41)
        v[20] = np.nan
        with pytest.raises(GapClosureError):
            _Runner(s, PLATE)._load_for(nodal_deflection(s, v).dofs, 10.0)

    def test_on_gap_raises_on_nan(self, st1_1_measured):
        gap = np.array([st1_1_measured.gap_g, np.nan])
        with pytest.raises(GapClosureError):
            plate_load(st1_1_measured, gap, 10.0, 0.0)

    def test_deformed_gap_amplification(self, st1_1_measured):
        g = st1_1_measured.gap_g
        q_flat = plate_load(st1_1_measured, g, 80.0, 0.0)
        q_half = plate_load(st1_1_measured, 0.5 * g, 80.0, 0.0)
        assert q_half == pytest.approx(4.0 * q_flat, rel=1e-12)

    def test_derivative_matches_finite_difference(self, st1_1_measured):
        s = st1_1_measured
        v0 = 0.3 * s.gap_g
        dv = 1e-6 * s.gap_g
        for f in (0.0, 0.65):
            qp = plate_load(s, s.gap_g - (v0 + dv), 70.0, f)
            qm = plate_load(s, s.gap_g - (v0 - dv), 70.0, f)
            fd = (qp - qm) / (2.0 * dv)
            analytic = plate_load_slope(s, s.gap_g - np.array([v0]), 70.0, f)[0]
            assert analytic == pytest.approx(fd, rel=1e-6)


DEFAULT_AND_CRITERION_9_MESHES = pytest.mark.parametrize(
    "cfg",
    [LoadModelConfig(), LoadModelConfig(cells_across_gap=48, cells_along_beam=320)],
    ids=["default", "criterion-9"],
)
FIELD_MESHES = pytest.mark.parametrize(
    "cfg, extension",
    [
        (LoadModelConfig(), TIP_EXTENSION_GAPS),
        (LoadModelConfig(cells_across_gap=13, cells_along_beam=57), TIP_EXTENSION_GAPS),
        (LoadModelConfig(), 0.0),  # the beam face is the whole bottom edge
    ],
    ids=["default", "non-default-mesh", "no-extension"],
)


def captured_kff(spec, deflection, voltage, cfg, monkeypatch):
    """``solve_field2d``'s solution and the matrix K_ff it hands to ``spsolve``."""
    seen = []
    inner = spla.spsolve

    def spsolve(a, b, **kwargs):
        seen.append(a.copy())
        return inner(a, b, **kwargs)

    monkeypatch.setattr(electro.spla, "spsolve", spsolve)
    fs = solve_field2d(spec, deflection, voltage, cfg)
    return seen[-1], fs


@pytest.fixture(scope="module")
def uniform_solution(st1_1_measured):
    return solve_field2d(st1_1_measured, None, 100.0, LoadModelConfig())


class TestField2D:
    V = 100.0

    def test_interior_field_matches_parallel_plate(self, st1_1_measured, uniform_solution):
        s = st1_1_measured
        fs = uniform_solution
        interior = fs.face_x < s.length_l - 3.0 * s.gap_g
        expected = self.V / s.gap_g
        worst = np.max(np.abs(fs.face_field[interior] - expected)) / expected
        assert worst < 1e-2

    def test_discrete_maximum_principle(self, st1_1_measured, uniform_solution):
        fs = uniform_solution
        slack = 1e-9 * self.V
        assert fs.potential.min() >= -slack
        assert fs.potential.max() <= self.V + slack

    @DEFAULT_AND_CRITERION_9_MESHES
    @pytest.mark.parametrize("bend", [0.4, 0.9, 0.99])
    def test_maximum_principle_deformed(self, st1_1_measured, cfg, bend, monkeypatch):
        # K_ff of a bent grid has positive off-diagonal entries, so it is no
        # M-matrix and the discrete maximum principle is no theorem here: a
        # property of these meshes, checked up to a nearly closed tip
        s = st1_1_measured
        k_ff, fs = captured_kff(s, bent(s, bend), self.V, cfg, monkeypatch)
        assert sp.triu(k_ff, k=1).max() > 0.0
        slack = 1e-9 * self.V
        assert fs.potential.min() >= -slack
        assert fs.potential.max() <= self.V + slack

    def test_zero_voltage(self, st1_1_measured):
        fs = solve_field2d(st1_1_measured, None, 0.0, LoadModelConfig())
        assert np.all(fs.potential == 0.0)
        assert np.all(fs.face_field == 0.0)

    def test_linearity_in_voltage(self, st1_1_measured, uniform_solution):
        fs2 = solve_field2d(st1_1_measured, None, 2.0 * self.V, LoadModelConfig())
        assert np.allclose(fs2.potential, 2.0 * uniform_solution.potential, rtol=0, atol=1e-11 * self.V)

    def test_charge_balance(self, st1_1_measured, uniform_solution):
        fs = uniform_solution
        imbalance = abs(fs.beam_charge_per_depth + fs.counter_charge_per_depth)
        assert imbalance <= 1e-2 * abs(fs.beam_charge_per_depth)

    def test_charge_balance_deformed(self, st1_1_measured):
        s = st1_1_measured
        fs = solve_field2d(s, bent(s, 0.4), self.V, LoadModelConfig())
        imbalance = abs(fs.beam_charge_per_depth + fs.counter_charge_per_depth)
        assert imbalance <= 1e-2 * abs(fs.beam_charge_per_depth)

    def test_tip_field_enhancement(self, st1_1_measured, uniform_solution):
        s = st1_1_measured
        fs = uniform_solution
        interior = np.mean(fs.face_field[fs.face_x < s.length_l - 3.0 * s.gap_g])
        assert fs.face_field[-1] > interior

    def test_force_stable_under_mesh_doubling(self, st1_1_measured, uniform_solution):
        s = st1_1_measured
        coarse = integrated_face_force(uniform_solution, s)
        fine_cfg = LoadModelConfig(cells_across_gap=48, cells_along_beam=320)
        fine = integrated_face_force(solve_field2d(s, None, self.V, fine_cfg), s)
        assert abs(fine - coarse) / coarse < 5e-3

    def test_contact_raises(self, st1_1_measured):
        s = st1_1_measured
        with pytest.raises(GapClosureError):
            solve_field2d(s, nodal_deflection(s, s.gap_g), self.V, LoadModelConfig())

    def test_gap_closure_during_coupling_shapes(self, st1_1_measured):
        # a shape exceeding the gap only near the tip must still be caught
        s = st1_1_measured
        with pytest.raises(GapClosureError):
            solve_field2d(s, at_tip(s, 1.02 * s.gap_g), self.V, LoadModelConfig())

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_deflection_raises(self, st1_1_measured, bad):
        s = st1_1_measured
        with pytest.raises(GapClosureError):
            solve_field2d(s, at_tip(s, bad), self.V, LoadModelConfig())

    @pytest.mark.parametrize("depth", [1e8, 1e300])
    def test_degenerate_mesh_raises(self, st1_1_measured, depth):
        # the gap stays open, but g is lost beside the depth: the grid's
        # triangles have no area, and a solve would return NaN
        s = st1_1_measured
        with pytest.raises(ValueError, match="degenerate"):
            solve_field2d(s, at_tip(s, -depth), self.V, LoadModelConfig())

    def test_large_open_deflection_stays_finite(self, st1_1_measured):
        s = st1_1_measured
        fs = solve_field2d(s, at_tip(s, -1e7), self.V, LoadModelConfig())
        assert np.isfinite(fs.potential).all() and np.isfinite(fs.face_field).all()


def reference_field(fs, n_beam: int):
    """Reference solve on the grid of ``fs``: global COO assembly, submatrix
    slicing, the default-ordering sparse solve and charges from K phi.

    Returns (potential, face_field, beam_charge, counter_charge).
    """
    x, y, voltage = fs.grid_x, fs.grid_y, fs.voltage
    nx, ny = x.size - 1, y.shape[1] - 1
    n_nodes = (nx + 1) * (ny + 1)
    cols, rows = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    n00 = (cols * (ny + 1) + rows).ravel()
    n10 = n00 + (ny + 1)
    tri = np.concatenate(
        [np.stack([n00, n10, n10 + 1], axis=1), np.stack([n00, n10 + 1, n00 + 1], axis=1)]
    )
    px = np.repeat(x, ny + 1)[tri]
    py = y.ravel()[tri]
    b = py[:, [1, 2, 0]] - py[:, [2, 0, 1]]
    c = px[:, [2, 0, 1]] - px[:, [1, 2, 0]]
    area2 = np.sum(px * b, axis=1)
    k_el = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (
        2.0 * area2
    )[:, None, None]
    k = sp.coo_matrix(
        (k_el.ravel(), (np.repeat(tri, 3, axis=1).ravel(), np.tile(tri, (1, 3)).ravel())),
        shape=(n_nodes, n_nodes),
    ).tocsr()

    bottom = np.arange(nx + 1) * (ny + 1)
    beam_face, top = bottom[: n_beam + 1], bottom + ny
    phi = np.zeros(n_nodes)
    phi[beam_face] = voltage
    dirichlet = np.zeros(n_nodes, dtype=bool)
    dirichlet[beam_face] = True
    dirichlet[top] = True
    free = ~dirichlet
    rhs = -k[:, dirichlet] @ phi[dirichlet]
    phi[free] = spla.spsolve(k[free][:, free].tocsc(), rhs[free])
    reaction = k @ phi

    grid = phi.reshape(nx + 1, ny + 1)
    pos = FACE_PROBE_FRACTION * ny
    j0 = min(int(pos), ny - 1)
    probe = (1.0 - (pos - j0)) * grid[: n_beam + 1, j0] + (pos - j0) * grid[: n_beam + 1, j0 + 1]
    local_gap = y[: n_beam + 1, -1] - y[: n_beam + 1, 0]
    face_field = (voltage - probe) / (FACE_PROBE_FRACTION * local_gap)
    return (
        grid,
        face_field,
        VACUUM_PERMITTIVITY * reaction[beam_face].sum(),
        VACUUM_PERMITTIVITY * reaction[top].sum(),
    )


def assert_matches_reference(fs, cfg: LoadModelConfig, rel=1e-12):
    n_beam = cfg.cells_along_beam
    potential, face_field, beam_q, counter_q = reference_field(fs, n_beam)
    assert fs.potential.shape == potential.shape
    assert np.max(np.abs(fs.potential - potential)) <= rel * abs(fs.voltage)
    assert np.max(np.abs(fs.face_field - face_field)) <= rel * np.max(np.abs(face_field))
    assert fs.beam_charge_per_depth == pytest.approx(beam_q, rel=rel)
    assert fs.counter_charge_per_depth == pytest.approx(counter_q, rel=rel)


class TestField2DAgainstReference:
    """The cached scatter assembly against the global-matrix reference solve."""

    @FIELD_MESHES
    @pytest.mark.parametrize("bend", [0.0, 0.3, 0.9], ids=["flat", "bent", "near-gap"])
    def test_matches_reference(self, st1_1_measured, cfg, extension, bend, monkeypatch):
        monkeypatch.setattr(electro, "TIP_EXTENSION_GAPS", extension)
        s = st1_1_measured
        fs = solve_field2d(s, bent(s, bend), 83.0, cfg)
        if extension == 0.0:
            assert fs.grid_x.size == cfg.cells_along_beam + 1
        assert_matches_reference(fs, cfg)

    def test_same_columns_different_beam_face(self, catalog):
        # measured ST1-1 on 43 beam cells and nominal ST1-2 (twice the gap)
        # on 40 both extend to nx = 48 columns: one nx, two beam faces
        cases = [
            (select_specimen(catalog, "ST1-1", "measured"), LoadModelConfig(cells_along_beam=43)),
            (select_specimen(catalog, "ST1-2", "nominal"), LoadModelConfig(cells_along_beam=40)),
        ]
        solutions = [solve_field2d(s, None, 50.0, cfg) for s, cfg in cases]
        for fs, (_, cfg) in zip(solutions, cases):
            assert fs.grid_x.size - 1 == 48
            assert_matches_reference(fs, cfg)
        ny = LoadModelConfig().cells_across_gap
        a = _field_pattern(48, ny, 43)
        b = _field_pattern(48, ny, 40)
        assert a is not b
        assert b.free.size == a.free.size + 3


class TestFieldOrdering:
    """The unknowns' nested-dissection order, which SuperLU keeps as given."""

    @FIELD_MESHES
    def test_free_nodes_permuted(self, st1_1_measured, cfg, extension, monkeypatch):
        monkeypatch.setattr(electro, "TIP_EXTENSION_GAPS", extension)
        fs = solve_field2d(st1_1_measured, None, 1.0, cfg)
        nx, ny, n_beam = fs.grid_x.size - 1, fs.grid_y.shape[1] - 1, cfg.cells_along_beam
        dirichlet = np.zeros((nx + 1, ny + 1), dtype=bool)
        dirichlet[: n_beam + 1, 0] = True
        dirichlet[:, ny] = True
        free = _field_pattern(nx, ny, n_beam).free
        assert np.array_equal(np.sort(free), np.flatnonzero(~dirichlet))

    @DEFAULT_AND_CRITERION_9_MESHES
    def test_factors_without_pivoting_and_little_fill(self, st1_1_measured, cfg, monkeypatch):
        s = st1_1_measured
        k_ff, fs = captured_kff(s, bent(s, 0.9), 100.0, cfg, monkeypatch)
        lu = spla.splu(k_ff, permc_spec="NATURAL")
        assert np.array_equal(lu.perm_r, lu.perm_c)  # every pivot on the diagonal
        # against a minimum-degree order of K_ff in increasing node id
        nx, ny = fs.grid_x.size - 1, fs.grid_y.shape[1] - 1
        by_id = np.argsort(_field_pattern(nx, ny, cfg.cells_along_beam).free)
        mmd = spla.splu(k_ff[by_id][:, by_id].tocsc(), permc_spec="MMD_AT_PLUS_A")
        assert lu.L.nnz + lu.U.nnz <= 1.2 * (mmd.L.nnz + mmd.U.nnz)


class TestMaxwellLoad:
    V = 100.0

    def test_matches_plate_load_in_interior(self, st1_1_measured):
        s = st1_1_measured
        fs = solve_field2d(s, None, self.V, LoadModelConfig())
        x = np.linspace(0.0, s.length_l - 3.0 * s.gap_g, 41)
        q_plate = plate_load(s, s.gap_g, self.V, 0.0)
        assert np.allclose(maxwell_load(fs, s, x), q_plate, rtol=2e-2)

    def test_total_force_agreement_with_plate(self, st1_1_measured):
        s = st1_1_measured
        fs = solve_field2d(s, None, self.V, LoadModelConfig())
        x = np.linspace(0.0, s.length_l, 4001)
        total_maxwell = np.trapezoid(maxwell_load(fs, s, x), x)
        total_plate = np.trapezoid(plate_load(s, np.full_like(x, s.gap_g), self.V, 0.0), x)
        assert abs(total_maxwell - total_plate) / total_plate < 5e-2

    def test_zero_field_zero_load(self, st1_1_measured):
        s = st1_1_measured
        fs = solve_field2d(s, None, 0.0, LoadModelConfig())
        assert np.all(maxwell_load(fs, s, np.linspace(0, s.length_l, 7)) == 0.0)

    def test_sign_independent_of_voltage(self, st1_1_measured):
        s = st1_1_measured
        x = np.linspace(0, s.length_l, 11)
        q_pos = maxwell_load(solve_field2d(s, None, +self.V, LoadModelConfig()), s, x)
        q_neg = maxwell_load(solve_field2d(s, None, -self.V, LoadModelConfig()), s, x)
        assert np.all(q_pos >= 0.0)
        assert np.allclose(q_pos, q_neg, rtol=1e-10)

    def test_zero_beyond_tip(self, st1_1_measured):
        s = st1_1_measured
        fs = solve_field2d(s, None, self.V, LoadModelConfig())
        beyond = np.array([s.length_l * 1.01, s.length_l + s.gap_g])
        assert np.all(maxwell_load(fs, s, beyond) == 0.0)


class TestFieldDump:
    def test_csv_shape_and_header(self, st1_1_measured):
        fs = solve_field2d(st1_1_measured, None, 10.0, LoadModelConfig())
        sink = io.StringIO()
        dump_field_csv(fs, sink)
        lines = sink.getvalue().strip().split("\n")
        assert lines[0] == "x_um,y_um,phi_V"
        nx1, ny1 = fs.potential.shape
        assert len(lines) == 1 + nx1 * ny1
        x, y, phi = (float(v) for v in lines[1].split(","))
        assert phi == pytest.approx(10.0)
