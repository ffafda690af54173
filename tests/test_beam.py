"""Structural solvers against closed-form cantilever and large-rotation oracles."""

import math

import numpy as np
import pytest
import scipy.linalg

from micropull import ConvergenceError, build_mesh, solve_linear, solve_nonlinear
from micropull import beam


def classical_stiffness(mesh):
    """Classical Euler-Bernoulli assembly in the (v, theta) layout, clamped
    node included: the reference for the tangent at rest."""
    length = mesh.element_length
    l2 = length * length
    ke = (mesh.bending_rigidity / length**3) * np.array(
        [
            [12.0, 6.0 * length, -12.0, 6.0 * length],
            [6.0 * length, 4.0 * l2, -6.0 * length, 2.0 * l2],
            [-12.0, -6.0 * length, 12.0, -6.0 * length],
            [6.0 * length, 2.0 * l2, -6.0 * length, 4.0 * l2],
        ]
    )
    k = np.zeros((2 * mesh.n_nodes, 2 * mesh.n_nodes))
    for e in range(mesh.n_elements):
        k[2 * e : 2 * e + 4, 2 * e : 2 * e + 4] += ke
    return k


def dense(k_band):
    """The square matrix held in LAPACK band storage: row 5 + i - j holds K[i, j]."""
    n = k_band.shape[1]
    k = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - 5), min(n, i + 6)):
            k[i, j] = k_band[5 + i - j, j]
    return k


def reference_corotational(mesh, dofs):
    """Dense corotational force and tangent, summed from 6 x 6 element blocks
    of B-matrix outer products with np.add.at: the reference for the
    closed-form band assembly."""
    l0 = np.diff(mesh.node_positions)
    u, v, theta = dofs[0::3], dofs[1::3], dofs[2::3]
    du, dy = u[1:] - u[:-1], v[1:] - v[:-1]
    dx = l0 + du
    ln = np.hypot(dx, dy)
    c, s = dx / ln, dy / ln
    beta = np.arctan2(dy, dx)
    th_a = beam._wrap_angle(theta[:-1] - beta)
    th_b = beam._wrap_angle(theta[1:] - beta)
    elong = (2.0 * l0 * du + du * du + dy * dy) / (ln + l0)
    axial_n = mesh.axial_rigidity * elong / l0
    ei_l = mesh.bending_rigidity / l0
    m_a = ei_l * (4.0 * th_a + 2.0 * th_b)
    m_b = ei_l * (2.0 * th_a + 4.0 * th_b)

    zero, one = np.zeros_like(c), np.ones_like(c)
    r_vec = np.stack([-c, -s, zero, c, s, zero], axis=1)
    z_vec = np.stack([s, -c, zero, -s, c, zero], axis=1)
    b_th_a = -z_vec / ln[:, None]
    b_th_a[:, 2] += one
    b_th_b = -z_vec / ln[:, None]
    b_th_b[:, 5] += one
    f_el = r_vec * axial_n[:, None] + b_th_a * m_a[:, None] + b_th_b * m_b[:, None]

    def outer(a, b):
        return np.einsum("ei,ej->eij", a, b)

    ea_l, ei_l3 = (mesh.axial_rigidity / l0)[:, None, None], ei_l[:, None, None]
    k_el = ea_l * outer(r_vec, r_vec) + ei_l3 * (
        4.0 * outer(b_th_a, b_th_a)
        + 2.0 * (outer(b_th_a, b_th_b) + outer(b_th_b, b_th_a))
        + 4.0 * outer(b_th_b, b_th_b)
    )
    k_el += (axial_n / ln)[:, None, None] * outer(z_vec, z_vec)
    k_el += ((m_a + m_b) / ln**2)[:, None, None] * (outer(r_vec, z_vec) + outer(z_vec, r_vec))

    n_dof = 3 * mesh.n_nodes
    idx = 3 * np.arange(mesh.n_elements)[:, None] + np.arange(6)[None, :]
    f_int = np.zeros(n_dof)
    np.add.at(f_int, idx, f_el)
    k = np.zeros((n_dof, n_dof))
    np.add.at(k, (idx[:, :, None], idx[:, None, :]), k_el)
    return f_int, k


def bent_state(mesh, seed, rotation):
    """Random (u, v, theta) state, clamped node at rest, rotations of order
    ``rotation`` and displacements of order rotation * L."""
    length = mesh.specimen.length_l
    scale = np.tile([1e-3 * rotation * length, rotation * length, rotation], mesh.n_nodes)
    d = np.random.default_rng(seed).normal(size=3 * mesh.n_nodes) * scale
    d[:3] = 0.0
    return d


class TestMesh:
    def test_rigidity_from_direct_arithmetic(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 20)
        expected = 166e9 * 15e-6 * (1.8e-6) ** 3 / 12.0
        assert mesh.bending_rigidity == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert mesh.bending_rigidity == pytest.approx(1.210e-12, rel=1e-3)
        assert mesh.n_nodes == 21

    def test_nodes_span_beam_exactly(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 20)
        assert mesh.node_positions[0] == 0.0
        assert mesh.node_positions[-1] == st1_1_measured.length_l
        assert np.all(np.diff(mesh.node_positions) > 0)

    def test_minimum_element_count_enforced(self, st1_1_measured):
        with pytest.raises(ValueError, match="n_elements"):
            build_mesh(st1_1_measured, 3)


class TestLinear:
    @pytest.mark.parametrize("n_elements", [20, 40, 80])
    def test_uniform_load_tip(self, st1_1_measured, n_elements):
        # Hermite elements are nodally exact for a uniform load, so only the
        # solve's roundoff, growing as the n^4 conditioning of K, is left
        mesh = build_mesh(st1_1_measured, n_elements)
        q0 = 1e-2
        fld = solve_linear(mesh, q0)
        l, ei = st1_1_measured.length_l, mesh.bending_rigidity
        assert fld.tip == pytest.approx(q0 * l**4 / (8.0 * ei), rel=1e-8, abs=0.0)
        assert fld.rotation[-1] == pytest.approx(q0 * l**3 / (6.0 * ei), rel=1e-8)

    def test_uniform_load_midpoint(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 20)
        q0 = 1e-2
        fld = solve_linear(mesh, q0)
        l = st1_1_measured.length_l
        exact = q0 * l**4 * (17.0 / 384.0) / mesh.bending_rigidity
        assert fld.evaluate(l / 2.0) == pytest.approx(exact, rel=1e-3)

    def test_deflection_curve_against_closed_form(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 20)
        q0 = 5e-3
        fld = solve_linear(mesh, q0)
        l = st1_1_measured.length_l
        ei = mesh.bending_rigidity
        x = np.linspace(0.0, l, 333)
        exact = q0 * x**2 * (6 * l**2 - 4 * l * x + x**2) / (24.0 * ei)
        assert np.allclose(fld.evaluate(x), exact, rtol=1e-3, atol=1e-6 * exact.max())

    def test_zero_load_zero_field(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 8)
        fld = solve_linear(mesh, 0.0)
        assert np.all(fld.deflection == 0.0)
        assert np.all(fld.rotation == 0.0)

    def test_clamped_boundary_exact(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 12)
        fld = solve_linear(mesh, 0.3)
        assert fld.deflection[0] == 0.0
        assert fld.rotation[0] == 0.0

    def test_linearity_in_load(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 16)
        base = solve_linear(mesh, 1e-3)
        scaled = solve_linear(mesh, 7e-3)
        assert np.allclose(scaled.deflection, 7.0 * base.deflection, rtol=1e-12)

    def test_tip_point_load(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 20)
        p = 1e-6
        fld = solve_linear(mesh, tip_force=p)
        exact = p * st1_1_measured.length_l**3 / (3.0 * mesh.bending_rigidity)
        assert fld.tip == pytest.approx(exact, rel=1e-9, abs=0.0)

    def test_convergence_with_refinement(self, st1_1_measured):
        # nodal values are exact for polynomial loads (the point-load Green's
        # functions lie in the cubic trial space), so check the interpolated
        # curve, and allow a floating-noise floor under the quadratic ratio
        q0 = 1e-2
        l = st1_1_measured.length_l
        probe = 0.37 * l

        def interp_error(n):
            mesh = build_mesh(st1_1_measured, n)
            fld = solve_linear(mesh, q0)
            ei = mesh.bending_rigidity
            exact = q0 * probe**2 * (6 * l**2 - 4 * l * probe + probe**2) / (24.0 * ei)
            return abs(fld.evaluate(probe) - exact), exact

        errors = []
        for n in (8, 16, 32):
            err, ref = interp_error(n)
            errors.append(err)
        floor = 1e-12 * ref
        assert errors[1] <= max(errors[0] / 4.0, floor)
        assert errors[2] <= max(errors[1] / 4.0, floor)


class TestLinearIsTangentAtRest:
    """The small-displacement model is the corotational tangent K_t(0)."""

    @pytest.fixture
    def mesh_and_k0(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 12)
        return mesh, dense(beam.LinearBeamOperator(mesh).k_band)

    def test_bending_block_is_classical_element(self, mesh_and_k0):
        mesh, k0 = mesh_and_k0
        transverse = np.flatnonzero(np.arange(3 * mesh.n_nodes) % 3 != 0)
        ref = classical_stiffness(mesh)
        # relative to sqrt(K_ii K_jj): entries that cancel to zero in the
        # reference cancel to roundoff in K_t(0)
        diag = np.sqrt(np.diag(ref))
        err = np.abs(k0[np.ix_(transverse, transverse)] - ref) / np.outer(diag, diag)
        assert err.max() <= 1e-13

    def test_axial_block_is_uncoupled_chain(self, mesh_and_k0):
        mesh, k0 = mesh_and_k0
        ea_l = mesh.axial_rigidity / mesh.element_length
        chain = np.zeros((mesh.n_nodes, mesh.n_nodes))
        for e in range(mesh.n_elements):
            chain[e : e + 2, e : e + 2] += ea_l * np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(k0[0::3, 0::3], chain, rtol=1e-13, atol=0.0)
        assert np.all(k0[0::3, 1::3] == 0.0)
        assert np.all(k0[0::3, 2::3] == 0.0)
        assert np.all(k0[1::3, 0::3] == 0.0)
        assert np.all(k0[2::3, 0::3] == 0.0)

    @pytest.mark.parametrize("n_elements", [12, 40])
    def test_newton_step_from_rest_is_the_linear_solve(self, st1_1_measured, n_elements):
        # K_t(0) d is exact for the linear structure, so one Newton step from
        # rest solves it, and that step is the linear solve's banded LU call
        # on the same right-hand side, bit for bit
        mesh = build_mesh(st1_1_measured, n_elements)
        op = beam.LinearBeamOperator(mesh)
        f_ext = beam.consistent_load_vector(mesh, 0.3, tip_force=1e-6)
        d, history, ok, lam = beam.newton_solve(mesh, f_ext, linear=op)
        assert ok and lam == 1.0
        assert len(history) == 2
        assert np.array_equal(d, op.solve(f_ext).dofs)

    def test_linear_solve_has_zero_axial(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 12)
        fld = solve_linear(mesh, 0.3, tip_force=1e-6, tip_moment=1e-12)
        assert fld.tip > 0.0
        assert np.all(fld.axial == 0.0)


class TestBandAssembly:
    """The closed-form band tangent is the dense np.add.at assembly, bit for bit."""

    @pytest.fixture
    def mesh(self, st1_1_measured):
        return build_mesh(st1_1_measured, 12)

    def assert_matches_reference(self, mesh, d):
        f_int, k_band, _ = beam.corotational_internal(mesh, d)
        f_ref, k_ref = reference_corotational(mesh, d)
        assert k_band.shape == (11, 3 * mesh.n_nodes)
        assert np.array_equal(f_int, f_ref)
        assert np.array_equal(dense(k_band), k_ref)
        # storage outside the matrix holds zeros
        i = np.arange(k_band.shape[1]) + np.arange(-5, 6)[:, None]
        assert not np.any(k_band[(i < 0) | (i >= k_band.shape[1])])
        return k_band

    def test_at_rest(self, mesh):
        k_band = self.assert_matches_reference(mesh, np.zeros(3 * mesh.n_nodes))
        assert np.array_equal(dense(beam.LinearBeamOperator(mesh).k_band), dense(k_band))

    def test_random_bent_state(self, mesh):
        self.assert_matches_reference(mesh, bent_state(mesh, 11, 0.05))

    def test_local_rotation_near_one_radian(self, mesh):
        d = bent_state(mesh, 13, 0.01)
        d[2::3] += 1.0
        d[2] = 0.0
        _, _, max_local = beam.corotational_internal(mesh, d)
        assert 0.9 < max_local < beam._MAX_LOCAL_ROTATION
        self.assert_matches_reference(mesh, d)

    def test_load_stiffness_is_reference_assembly(self, mesh):
        # the dense sum of 4 x 4 element blocks c_k N_p N_q, in element order
        g, _, stiffness = beam.transverse_load_operators(mesh)
        c = np.random.default_rng(17).uniform(-2.0, 2.0, size=len(g))
        shape = np.stack(beam._hermite_basis(beam._GAUSS_XI, mesh.element_length), axis=1)
        blocks = c.reshape(-1, 3) @ (shape[:, :, None] * shape[:, None, :]).reshape(3, 16)
        dofs = 3 * np.arange(mesh.n_elements)[:, None] + np.array([1, 2, 4, 5])
        ref = np.zeros((g.shape[1], g.shape[1]))
        np.add.at(ref, (dofs[:, :, None], dofs[:, None, :]), blocks.reshape(-1, 4, 4))
        assert np.array_equal(dense(stiffness(c)), ref)

    def test_clamped_solve_matches_dense_reduced_solve(self, mesh):
        d = bent_state(mesh, 19, 0.05)
        _, k_band, _ = beam.corotational_internal(mesh, d)
        rhs = np.random.default_rng(23).normal(size=d.size)
        out = beam.solve_clamped_banded(k_band, rhs)
        expected = np.linalg.solve(dense(k_band)[3:, 3:], rhs[3:])
        assert np.all(out[:3] == 0.0)
        assert np.linalg.norm(out[3:] - expected) <= 1e-12 * np.linalg.norm(expected)


class TestRawLapack:
    """The raw LAPACK calls give scipy.linalg's wrapped results and errors."""

    @pytest.fixture
    def mesh(self, st1_1_measured):
        return build_mesh(st1_1_measured, 12)

    def test_clamped_solve_is_solve_banded_bit_for_bit(self, mesh):
        d = bent_state(mesh, 29, 0.05)
        _, k_band, _ = beam.corotational_internal(mesh, d)
        rng = np.random.default_rng(31)
        for rhs in (rng.normal(size=d.size), rng.normal(size=(d.size, 2))):
            out = beam.solve_clamped_banded(k_band, rhs)
            expected = scipy.linalg.solve_banded((5, 5), k_band[:, 3:], rhs[3:])
            assert out.shape == rhs.shape
            assert np.all(out[:3] == 0.0)
            assert np.array_equal(out[3:], expected)
        # the linear operator's solve is the same call on K_t(0)
        for n_elements in (12, 40):
            op = beam.LinearBeamOperator(build_mesh(mesh.specimen, n_elements))
            f = beam.consistent_load_vector(op.mesh, 0.3, tip_force=1e-6)
            out = op.solve(f).dofs
            expected = scipy.linalg.solve_banded((5, 5), op.k_band[:, 3:], f[3:])
            assert np.all(out[:3] == 0.0)
            assert np.array_equal(out[3:], expected)

    def test_singular_tangent_fails_the_newton_solve(self, mesh):
        op = beam.LinearBeamOperator(mesh)
        f_ext = beam.consistent_load_vector(mesh, 0.3)
        with pytest.raises(np.linalg.LinAlgError):
            beam.solve_clamped_banded(np.zeros_like(op.k_band), f_ext)
        # a load stiffness equal to K_t(0) leaves the Jacobian K_t - K_load zero
        d, history, ok, _ = beam.newton_solve(mesh, lambda d: (f_ext, op.k_band), linear=op)
        assert not ok
        assert len(history) == 1
        assert np.all(d == 0.0)

    def test_non_finite_tangent_fails_the_newton_solve(self, mesh):
        # as a singular one does; the banded solve's ValueError escaped before
        op = beam.LinearBeamOperator(mesh)
        f_ext = beam.consistent_load_vector(mesh, 0.3)
        k_load = np.full_like(op.k_band, np.inf)
        d, history, ok, _ = beam.newton_solve(mesh, lambda d: (f_ext, k_load), linear=op)
        assert not ok
        assert len(history) == 1
        assert np.all(d == 0.0)

    def test_nan_input_raises_value_error(self, mesh):
        _, k_band, _ = beam.corotational_internal(mesh, bent_state(mesh, 37, 0.05))
        rhs = np.ones(k_band.shape[1])
        bad_k, bad_rhs = k_band.copy(), rhs.copy()
        bad_k[5, 9] = np.nan
        bad_rhs[9] = np.nan
        for k, r in ((bad_k, rhs), (k_band, bad_rhs)):
            with pytest.raises(ValueError):
                beam.solve_clamped_banded(k, r)
        with pytest.raises(ValueError):
            beam.LinearBeamOperator(mesh).solve(beam.consistent_load_vector(mesh, tip_force=np.nan))


class TestNonlinear:
    def test_zero_load_zero_field(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 8)
        fld = solve_nonlinear(mesh, 0.0)
        assert np.all(fld.deflection == 0.0)

    def test_small_load_matches_linear(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 20)
        q0 = 1e-4  # tip deflection well below 1e-3 l
        nl = solve_nonlinear(mesh, q0)
        li = solve_linear(mesh, q0)
        assert nl.tip < 1e-3 * st1_1_measured.length_l
        assert nl.tip == pytest.approx(li.tip, rel=1e-3)

    def test_stiffening_ordering(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 20)
        q0 = 0.5  # tip/l around 5 percent
        nl = solve_nonlinear(mesh, q0)
        li = solve_linear(mesh, q0)
        assert nl.tip < li.tip
        assert (li.tip - nl.tip) / li.tip > 1e-3  # materially stiffer, not noise

    def test_elastica_end_moment(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 40)
        moment = 2.0 * math.pi * mesh.bending_rigidity / st1_1_measured.length_l
        fld = solve_nonlinear(mesh, tip_moment=moment)
        assert fld.rotation[-1] == pytest.approx(2.0 * math.pi, rel=1e-2)

    def test_finest_incrementation_is_tried(self, st1_1_measured, monkeypatch):
        # the elastica's end moment needs 2 load increments: a budget of 2 solves
        # it, and a budget of 1 does not
        mesh = build_mesh(st1_1_measured, 40)
        moment = 2.0 * math.pi * mesh.bending_rigidity / st1_1_measured.length_l
        monkeypatch.setattr(beam, "LOAD_INCREMENTS", 2)
        fld = solve_nonlinear(mesh, tip_moment=moment)
        assert fld.rotation[-1] == pytest.approx(2.0 * math.pi, rel=1e-2)
        monkeypatch.setattr(beam, "LOAD_INCREMENTS", 1)
        with pytest.raises(ConvergenceError):
            solve_nonlinear(mesh, tip_moment=moment)

    def test_tip_displacement_bounded_by_length(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 40)
        moment = 2.0 * math.pi * mesh.bending_rigidity / st1_1_measured.length_l
        for load, kwargs in [(0.0, {"tip_moment": moment}), (50.0, {})]:
            fld = solve_nonlinear(mesh, load, **kwargs)
            assert abs(fld.tip) < st1_1_measured.length_l

    def test_clamped_boundary_exact(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 12)
        fld = solve_nonlinear(mesh, 0.2)
        assert fld.deflection[0] == 0.0
        assert fld.rotation[0] == 0.0
        assert fld.axial[0] == 0.0

    def test_axial_strain_near_zero(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 20)
        fld = solve_nonlinear(mesh, 0.5)  # tip/l around 5 percent
        assert fld.tip / st1_1_measured.length_l > 0.04
        l0 = np.diff(mesh.node_positions)
        ln = np.hypot(l0 + np.diff(fld.axial), np.diff(fld.deflection))
        assert np.max(np.abs((ln - l0) / l0)) < 1e-5

    def test_newton_quadratic_tail(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 20)
        q0 = 0.5
        f_ext = beam.consistent_load_vector(mesh, q0)
        _, history, ok, _ = beam.newton_solve(mesh, f_ext)
        assert ok
        ref = np.linalg.norm(f_ext[3:])
        rho = [h / ref for h in history]
        # contraction phase: iterates after the largest residual, above the
        # roundoff floor; each step must be quadratic with a moderate constant
        start = int(np.argmax(rho))
        tail = [r for r in rho[start:] if r > 1e-13]
        assert len(tail) >= 3
        for a, b in zip(tail, tail[1:]):
            assert b <= 50.0 * a * a

    def test_tangent_matches_finite_differences(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 6)
        rng = np.random.default_rng(7)
        d = np.zeros(3 * mesh.n_nodes)
        d[3:] = rng.normal(scale=1e-7, size=d.size - 3)
        f0, k_band, _ = beam.corotational_internal(mesh, d)
        k = dense(k_band)
        eps = 1e-12
        worst = 0.0
        for j in range(3, d.size):
            dp = d.copy()
            dp[j] += eps
            fp, _, _ = beam.corotational_internal(mesh, dp)
            col = (fp - f0) / eps
            scale = max(1.0, np.max(np.abs(k[:, j])))
            worst = max(worst, np.max(np.abs(col - k[:, j])) / scale)
        assert worst < 1e-4

    def test_divergence_reported(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 8)
        with pytest.raises(ConvergenceError):
            solve_nonlinear(mesh, 1e9)

    def test_overflowing_load_reported(self, st1_1_measured):
        # the residual norm overflows, and so did its acceptance floor: the
        # unloaded beam came back as the solution
        mesh = build_mesh(st1_1_measured, 40)
        with pytest.raises(ConvergenceError):
            solve_nonlinear(mesh, 1e200)
        _, _, ok, _ = beam.newton_solve(mesh, beam.consistent_load_vector(mesh, 1e160))
        assert not ok


class TestDeflectionField:
    def test_interpolation_continuity(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 10)
        fld = solve_linear(mesh, 1e-2)
        nodes = mesh.node_positions
        h = 1e-12 * st1_1_measured.length_l
        for xn in nodes[1:-1]:
            left = fld.evaluate(xn - h)
            right = fld.evaluate(xn + h)
            assert left == pytest.approx(right, abs=1e-9 * abs(fld.tip))
            slope_l = (fld.evaluate(xn) - left) / h
            slope_r = (right - fld.evaluate(xn)) / h
            assert slope_l == pytest.approx(slope_r, rel=1e-3)

    def test_nodal_values_reproduced(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 10)
        fld = solve_linear(mesh, 1e-2)
        assert np.allclose(fld.evaluate(mesh.node_positions), fld.deflection, rtol=1e-12)

    def test_fields_are_read_only(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 8)
        fld = solve_linear(mesh, 1e-2)
        with pytest.raises(ValueError):
            fld.deflection[0] = 1.0
        with pytest.raises(ValueError):
            fld.dofs[4] = 1.0

    def test_components_are_views_of_one_copied_vector(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 8)
        dofs = np.arange(3.0 * mesh.n_nodes)
        fld = beam.DeflectionField(mesh, dofs)
        dofs[:] = -1.0
        assert np.array_equal(fld.axial, np.arange(0.0, dofs.size, 3))
        assert np.array_equal(fld.deflection, np.arange(1.0, dofs.size, 3))
        assert np.array_equal(fld.rotation, np.arange(2.0, dofs.size, 3))
        assert fld.tip == dofs.size - 2.0
        for view in (fld.axial, fld.deflection, fld.rotation):
            assert np.shares_memory(view, fld.dofs)

    def test_wrong_length_rejected(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 8)
        with pytest.raises(ValueError, match="dofs"):
            beam.DeflectionField(mesh, np.zeros(2 * mesh.n_nodes))


class TestTransverseLoadOperators:
    def test_basis_samples_field_and_assembles_load_vector(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 12)
        g, w, _ = beam.transverse_load_operators(mesh)
        d = np.random.default_rng(3).normal(size=3 * mesh.n_nodes) * 1e-7
        d[:3] = 0.0
        xg = mesh.gauss_points().ravel()
        fld = beam.DeflectionField(mesh, d)
        assert g @ d == pytest.approx(fld.evaluate(xg), rel=1e-12, abs=1e-20)

        def q(x):
            return 1e-3 * (1.0 + x / mesh.specimen.length_l) ** 2

        assert g.T @ (w * q(xg)) == pytest.approx(
            beam.consistent_load_vector(mesh, q(xg)), rel=1e-12, abs=1e-20
        )

    def test_load_stiffness_is_dense_product(self, st1_1_measured):
        mesh = build_mesh(st1_1_measured, 12)
        g, _, stiffness = beam.transverse_load_operators(mesh)
        c = np.random.default_rng(5).uniform(0.5, 2.0, size=len(g))
        k = dense(stiffness(c))
        product = g.T @ (c[:, None] * g)
        np.testing.assert_allclose(k, product, rtol=0.0, atol=1e-15 * np.abs(product).max())
        assert np.array_equal(k, k.T)

    def test_newton_with_affine_state_dependent_load(self, st1_1_measured):
        # q = q0 + kappa v is affine in the state, so K_t - K_load is the
        # exact Jacobian of the linear structure and one step solves it
        mesh = build_mesh(st1_1_measured, 20)
        g, w, stiffness = beam.transverse_load_operators(mesh)
        linear = beam.LinearBeamOperator(mesh)
        length = mesh.specimen.length_l
        q0, kappa = 1e-3, 0.5 * mesh.bending_rigidity * (1.875 / length) ** 4
        k_load = stiffness(kappa * w)

        def load(d):
            return g.T @ (w * (q0 + kappa * (g @ d))), k_load

        d, history, ok, lam = beam.newton_solve(mesh, load, linear=linear)
        assert ok and lam == 1.0
        assert len(history) == 2
        f0 = g.T @ (w * np.full(len(w), q0))
        expected = np.linalg.solve(dense(linear.k_band - k_load)[3:, 3:], f0[3:])
        np.testing.assert_allclose(
            d[3:], expected, rtol=1e-9, atol=1e-12 * np.abs(expected).max()
        )
