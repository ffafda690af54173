"""Cantilever finite elements on one (u, v, theta) DOF layout.

A structural state is one DOF vector holding, node by node, the axial
displacement u, the transverse displacement v and the cross-section
rotation theta; node 0 is clamped.  Transverse interpolation is cubic per
two-node element, and consistent load vectors are integrated with 3-point
Gauss quadrature per element.

The large-rotation model wraps the elements' local bending behaviour in a
corotational frame per element: the element's rigid rotation is removed
via its current chord, local deformations (elongation and two
chord-relative end rotations) stay small, and the global residual is
solved by full Newton iteration.  For a free-ended cantilever the axial
strain stays near zero.  Every tangent is assembled straight into LAPACK
band storage: row ``5 + i - j`` of an (11, n) array holds K[i, j], as a
node's three DOFs couple only to its neighbours'.

The small-displacement model is the same element's tangent at rest: at
d = 0 the corotational tangent K_t(0) is the classical Euler-Bernoulli
element plus an EA/l axial chain, with no axial-transverse coupling
(Crisfield, Non-linear Finite Element Analysis of Solids and Structures,
vol. 1, 1991, ch. 7).  ``LinearBeamOperator`` solves it by the banded LU
of every Newton step; the axial DOFs of a linear solve stay exactly zero.

Transverse loads are given per unit undeformed length, as values at the
quadrature points, and keep their direction (transverse to the undeformed
axis) as the beam deforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg.blas import dgbmv, dnrm2
from scipy.linalg.lapack import dgbsv

from .catalog import Specimen
from .errors import ConvergenceError

MIN_ELEMENTS = 4
NEWTON_ITERATIONS = 30  # a Newton solve fails after this many steps
LOAD_INCREMENTS = 256  # solve_nonlinear gives up beyond this many load steps

# 3-point Gauss rule on [0, 1]
_G = np.sqrt(3.0 / 5.0) / 2.0
_GAUSS_XI = np.array([0.5 - _G, 0.5, 0.5 + _G])
_GAUSS_W = np.array([5.0, 8.0, 5.0]) / 18.0

# Local rotations beyond this are outside the corotational frame's validity;
# a Newton iterate that reaches them counts as diverged.
_MAX_LOCAL_ROTATION = 1.4

_EPS = np.finfo(float).eps
_HALF_BAND = 5  # of the tangents in band storage
_BAND_ROWS = 2 * _HALF_BAND + 1

# Corotational element tangent over (u_a, v_a, theta_a, u_b, v_b, theta_b): entry (p, q) is
# value _BLOCK[p, q] of (A00, A01, A11, 6 EI/l a, 6 EI/l b, 4 EI/l, 2 EI/l) and of the first
# five negated; the translational part is [[A, -A], [-A, A]] with A symmetric 2 x 2.
_BLOCK = np.array([[0, 1, 10, 7, 8, 10],
                   [1, 2, 4, 8, 9, 4],
                   [10, 4, 5, 3, 11, 6],
                   [7, 8, 3, 0, 1, 3],
                   [8, 9, 11, 1, 2, 11],
                   [10, 4, 6, 3, 11, 5]])


@dataclass(frozen=True)
class BeamMesh:
    """Uniform discretization of a cantilever, clamped at node 0."""

    specimen: Specimen
    n_elements: int
    node_positions: np.ndarray  # (n_elements + 1,), 0 .. length_l
    bending_rigidity: float  # E I  (N m^2)
    axial_rigidity: float  # E A  (N)

    @property
    def n_nodes(self) -> int:
        return self.n_elements + 1

    @property
    def element_length(self) -> float:
        return self.node_positions[1] - self.node_positions[0]

    def gauss_points(self) -> np.ndarray:
        """Global quadrature abscissae, shape (n_elements, 3)."""
        return self.node_positions[:-1, None] + _GAUSS_XI[None, :] * self.element_length


def build_mesh(spec: Specimen, n_elements: int) -> BeamMesh:
    """Uniform mesh with bending rigidity E w t^3 / 12 (in-plane bending)."""
    if n_elements < MIN_ELEMENTS:
        raise ValueError(f"n_elements must be at least {MIN_ELEMENTS} (got {n_elements})")
    nodes = np.linspace(0.0, spec.length_l, n_elements + 1)
    nodes.setflags(write=False)
    e = spec.material.young_modulus
    return BeamMesh(
        specimen=spec,
        n_elements=n_elements,
        node_positions=nodes,
        bending_rigidity=e * spec.bending_inertia,
        axial_rigidity=e * spec.section_area,
    )


@dataclass(frozen=True)
class DeflectionField:
    """Nodal solution of a structural solve on a BeamMesh.

    ``dofs`` is the read-only (u, v, theta) vector, node by node with the
    clamped node first; ``axial``, ``deflection`` and ``rotation`` are
    strided views of it.  The constructor copies ``dofs``.
    """

    mesh: BeamMesh
    dofs: np.ndarray

    def __post_init__(self) -> None:
        dofs = np.array(self.dofs, dtype=float)
        if dofs.shape != (3 * self.mesh.n_nodes,):
            raise ValueError(
                f"dofs must have shape ({3 * self.mesh.n_nodes},), got {dofs.shape}"
            )
        dofs.setflags(write=False)
        object.__setattr__(self, "dofs", dofs)

    @property
    def axial(self) -> np.ndarray:
        return self.dofs[0::3]

    @property
    def deflection(self) -> np.ndarray:
        return self.dofs[1::3]

    @property
    def rotation(self) -> np.ndarray:
        return self.dofs[2::3]

    def evaluate(self, x) -> np.ndarray | float:
        """Transverse displacement v(x) by elementwise cubic interpolation."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        length = self.mesh.element_length
        idx = np.minimum(np.maximum((x_arr / length).astype(int), 0), self.mesh.n_elements - 1)
        xi = (x_arr - self.mesh.node_positions[idx]) / length
        n1, n2, n3, n4 = _hermite_basis(xi, length)
        v, theta = self.deflection, self.rotation
        out = n1 * v[idx] + n2 * theta[idx] + n3 * v[idx + 1] + n4 * theta[idx + 1]
        return out if np.ndim(x) else float(out[0])

    @property
    def tip(self) -> float:
        """Transverse displacement at the free end."""
        return float(self.dofs[-2])


def zero_field(mesh: BeamMesh) -> DeflectionField:
    """The undeformed configuration."""
    return DeflectionField(mesh, np.zeros(3 * mesh.n_nodes))


def _hermite_basis(xi: np.ndarray, length: float):
    """Cubic transverse shape functions on [0, 1] (rotation DOFs carry L)."""
    xi2 = xi * xi
    xi3 = xi2 * xi
    n1 = 1.0 - 3.0 * xi2 + 2.0 * xi3
    n2 = length * (xi - 2.0 * xi2 + xi3)
    n3 = 3.0 * xi2 - 2.0 * xi3
    n4 = length * (xi3 - xi2)
    return n1, n2, n3, n4


def transverse_load_operators(mesh: BeamMesh):
    """(G, w, K) for a transverse load q(v) that follows the deflection.

    The rows of G map a DOF vector to v at the quadrature points and w holds
    their quadrature weights, so the load vector is G^T (w q); the function
    K(c) = G^T diag(c) G, summed from 4 x 4 element blocks in band storage,
    gives the load stiffness K(w q').  Cached per element count and length;
    G and w are read-only."""
    return _load_operators(mesh.n_elements, mesh.element_length)


@lru_cache(maxsize=8)
def _load_operators(n_elements: int, length: float):
    shape = np.stack(_hermite_basis(_GAUSS_XI, length), axis=1)  # (point, DOF)
    dofs = 3 * np.arange(n_elements)[:, None] + np.array([1, 2, 4, 5])
    n = 3 * n_elements + 3
    g = np.zeros((3 * n_elements, n))
    g[np.arange(len(g))[:, None], np.repeat(dofs, 3, axis=0)] = np.tile(shape, (n_elements, 1))
    outer = (shape[:, :, None] * shape[:, None, :]).reshape(3, 16)
    flat = ((_HALF_BAND + dofs[:, :, None] - dofs[:, None, :]) * n + dofs[:, None, :]).ravel()

    def stiffness(c: np.ndarray) -> np.ndarray:
        return np.bincount(flat, (c.reshape(-1, 3) @ outer).ravel(), _BAND_ROWS * n).reshape(-1, n)

    w = np.tile(_GAUSS_W * length, n_elements)
    g.setflags(write=False)
    w.setflags(write=False)
    return g, w, stiffness


def consistent_load_vector(
    mesh: BeamMesh, q=0.0, tip_force: float = 0.0, tip_moment: float = 0.0
) -> np.ndarray:
    """Work-equivalent nodal force vector G^T (w q) of a transverse line load
    ``q`` plus tip loads; ``q`` holds the load at ``mesh.gauss_points()`` in
    that order, or one value for a uniform load.  Raises ValueError if a
    value of ``q`` is not finite."""
    if not np.isfinite(q).all():
        raise ValueError("line load is not finite")
    g, w, _ = transverse_load_operators(mesh)
    f = g.T @ (w * np.ravel(q))
    f[-2] += tip_force
    f[-1] += tip_moment
    return f


# ----------------------------------------------------------------------
# small-displacement solve
# ----------------------------------------------------------------------

class LinearBeamOperator:
    """Clamped-cantilever tangent at rest, reusable across load cases.

    ``k_band`` is K_t(0) from ``corotational_internal``, clamped node
    included, in band storage; ``solve`` is ``solve_clamped_banded`` on it.
    """

    def __init__(self, mesh: BeamMesh):
        self.mesh = mesh
        _, self.k_band, _ = corotational_internal(mesh, np.zeros(3 * mesh.n_nodes))
        self.k_band.setflags(write=False)

    def solve(self, f_ext: np.ndarray) -> DeflectionField:
        """Small-displacement solution under the load vector ``f_ext``."""
        return DeflectionField(self.mesh, solve_clamped_banded(self.k_band, f_ext))


def solve_linear(
    mesh: BeamMesh, q=0.0, tip_force: float = 0.0, tip_moment: float = 0.0
) -> DeflectionField:
    """Small-displacement solution under the loads of ``consistent_load_vector``."""
    return LinearBeamOperator(mesh).solve(consistent_load_vector(mesh, q, tip_force, tip_moment))


# ----------------------------------------------------------------------
# corotational solve
# ----------------------------------------------------------------------

def _wrap_angle(a: np.ndarray) -> np.ndarray:
    """Map angles into (-pi, pi], touching only values that need it.

    The modulo form alone would add pi-scale roundoff to every angle, which
    would put a floor under the Newton residual; small angles pass through
    exactly.
    """
    outside = np.abs(a) > np.pi
    if not outside.any():
        return a
    return np.where(outside, (a + np.pi) % (2.0 * np.pi) - np.pi, a)


@lru_cache(maxsize=None)
def _element_scatter(n_elements: int):
    """Flat (value, band) indices of the element blocks: block entry (p, q) of
    element e is value _BLOCK[p, q] of e and lands at band (5 + p - q, 3 e + q).
    A band entry gets at most two values, so any summation order gives the same bits."""
    e = np.arange(n_elements)[:, None, None]
    p, q = np.indices((6, 6))
    src = _BLOCK * n_elements + e
    dst = (_HALF_BAND + p - q) * (3 * n_elements + 3) + 3 * e + q
    return src.ravel(), dst.ravel()


def corotational_internal(mesh: BeamMesh, dofs: np.ndarray):
    """Internal force vector and consistent tangent for the (u, v, theta) state.

    Returns (f_int, k_band, max_local_rotation), the tangent in band storage
    and the clamped boundary not applied.  Force and tangent are written out
    from the B-matrix rows (Crisfield 1991, ch. 7) r = (-c, -s, 0, c, s, 0) of
    the elongation and b_a, b_b = (-a, b, 1|0, a, -b, 0|1) of the end
    rotations, a = s/ln and b = c/ln.
    """
    u, v, theta = dofs[0::3], dofs[1::3], dofs[2::3]
    l0 = mesh.node_positions[1:] - mesh.node_positions[:-1]
    du, dy = u[1:] - u[:-1], v[1:] - v[:-1]
    dx = l0 + du
    ln = np.hypot(dx, dy)
    if not (ln > 0.0).all() or not np.isfinite(ln).all():
        raise ConvergenceError("degenerate element geometry during iteration")
    c, s = dx / ln, dy / ln
    th_a, th_b = th = _wrap_angle(np.array([theta[:-1], theta[1:]]) - np.arctan2(dy, dx))
    max_local = float(np.abs(th).max())

    # ln - l0 evaluated from the DOF differences so the roundoff scales
    # with the deformation instead of with l0^2
    elong = (2.0 * l0 * du + du * du + dy * dy) / (ln + l0)
    axial_n = mesh.axial_rigidity * elong / l0
    ei_l = mesh.bending_rigidity / l0
    m_a = ei_l * (4.0 * th_a + 2.0 * th_b)
    m_b = ei_l * (2.0 * th_a + 4.0 * th_b)
    a, b = s / ln, c / ln

    # f = N r + m_a b_a + m_b b_b and K = EA/l r r' + EI/l (4 b_a b_a' + 2 b_a b_b' + 2 b_b b_a'
    # + 4 b_b b_b') + N/ln z z' + (m_a + m_b)/ln^2 (r z' + z r'), z = (s, -c, 0, -s, c, 0), each
    # entry summed in this order: the outer-product assembly, bit for bit
    fx = c * axial_n + a * m_a + a * m_b
    fy = b * m_a - s * axial_n + b * m_b
    f_int = np.zeros((mesh.n_nodes, 3))
    f_int[:-1, 0] -= fx
    f_int[:-1, 1] += fy
    f_int[:-1, 2] += m_a
    f_int[1:, 0] += fx
    f_int[1:, 1] -= fy
    f_int[1:, 2] += m_b

    cc, ss, cs = c * c, s * s, c * s
    ea_l = mesh.axial_rigidity / l0
    n_l, q = axial_n / ln, (m_a + m_b) / ln**2
    base = np.array([
        ea_l * cc + ei_l * (12.0 * (a * a)) + n_l * ss - q * (2.0 * cs),
        ea_l * cs - ei_l * (12.0 * (a * b)) - n_l * cs + q * (cc - ss),
        ea_l * ss + ei_l * (12.0 * (b * b)) + n_l * cc + q * (2.0 * cs),
        ei_l * (6.0 * a), ei_l * (6.0 * b), 4.0 * ei_l, 2.0 * ei_l,
    ])
    vals = np.concatenate([base, -base[:5]]).ravel()
    src, dst = _element_scatter(mesh.n_elements)
    k_band = np.bincount(dst, vals[src], _BAND_ROWS * 3 * mesh.n_nodes)
    return f_int.ravel(), k_band.reshape(_BAND_ROWS, -1), max_local


def solve_clamped_banded(k_band: np.ndarray, rhs_full: np.ndarray) -> np.ndarray:
    """Banded LU solve of the clamped-reduced system; returns all DOFs.

    ``k_band`` is the tangent in band storage, clamped node included.  Its
    columns from 3 on hold K[3:, 3:] in band storage; the couplings to the
    clamped node left in them sit in the corner LAPACK never references.
    ``rhs_full`` is one right-hand side or one column per right-hand side.
    LAPACK ``gbsv``, called without scipy.linalg's wrappers, needs _HALF_BAND
    more rows above the band for its pivoting fill-in; the call is checked as
    scipy.linalg checks it: ValueError on a non-finite argument or an illegal
    value, LinAlgError on a singular matrix.
    """
    k, rhs = k_band[:, 3:], rhs_full[3:]
    if not (np.isfinite(k).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    ab = np.zeros((_BAND_ROWS + _HALF_BAND, k.shape[1]), order="F")
    ab[_HALF_BAND:] = k
    *_, x, info = dgbsv(_HALF_BAND, _HALF_BAND, ab, rhs, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix (gbsv info {info})")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gbsv")
    out = np.zeros_like(rhs_full)
    out[3:] = x
    return out


def newton_solve(
    mesh: BeamMesh,
    f_ext: np.ndarray | Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    start: np.ndarray | None = None,
    tip: float | None = None,
    linear: LinearBeamOperator | None = None,
):
    """Full Newton iteration on the residual lam f_ext - f_int.

    Returns (dofs, residual_history, converged, lam), in the (u, v, theta)
    layout including the clamped node.  ``f_ext`` is a load vector, or a
    function of the state returning the load vector and its load stiffness,
    which enters the Jacobian as K_t - lam K_load, both in band storage; the
    structure is corotational, or linear (f_int = K_t(0) d) when the ``linear``
    operator is given.  lam is 1 unless ``tip`` is given; then the tip deflection
    is prescribed and each step bordered (Keller): one banded solve of K [a b] =
    [res f_ext], dlam = (tip gap - a_tip) / b_tip.  Steps are capped at 0.2 gap
    transverse under a state-dependent load, else at 0.5 rad and 0.3 L.
    The solve fails after NEWTON_ITERATIONS steps, on a non-finite residual
    or step, a singular or non-finite tangent or a local rotation beyond the
    corotational frame's range, but not on a growing residual: the
    corotational one can alternate by orders of magnitude while it converges.
    """
    n = 3 * mesh.n_nodes
    d = np.zeros(n) if start is None else np.array(start, dtype=float)
    lam = 1.0 if tip is None else 0.0
    load_at = f_ext if callable(f_ext) else None
    # node columns (u, v, theta) of each step cap
    if load_at is None:
        caps = ((np.s_[2:], 0.5), (np.s_[:2], 0.3 * mesh.specimen.length_l))
    else:
        caps = ((np.s_[1:2], 0.2 * mesh.specimen.gap_g),)
    history: list[float] = []

    for it in range(NEWTON_ITERATIONS + 1):
        if load_at is not None:
            f_ext, k_load = load_at(d)
        if linear is None:
            try:
                f_int, k_t, max_local = corotational_internal(mesh, d)
            except ConvergenceError:
                return d, history, False, lam
        else:
            # K d from the band, which is BLAS gbmv storage
            k_t, max_local = linear.k_band, 0.0
            f_int = dgbmv(n, n, _HALF_BAND, _HALF_BAND, 1.0, k_t, d)
        # no residual gets below the matvec roundoff bound |fl(K d) - K d| <= gamma_n |K| |d|
        # of the tangent (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 3.5)
        bound = dgbmv(n, n, _HALF_BAND, _HALF_BAND, 1.0, np.abs(k_t), np.abs(d))
        noise = 4.0 * _EPS * dnrm2(bound)
        f_lam = lam * f_ext
        res = f_lam - f_int
        res[:3] = 0.0
        rn = dnrm2(res)
        history.append(rn)
        if not np.isfinite(rn):  # an overflowing residual would pass an overflowing floor
            return d, history, False, lam
        tip_gap = None if tip is None else tip - d[-2]
        floor = 1e-10 * dnrm2(f_lam[3:]) + noise
        if rn <= floor and (tip_gap is None or abs(tip_gap) <= 1e-12 * abs(tip)):
            return d, history, True, lam
        jac = k_t if load_at is None else k_t - lam * k_load
        if it == NEWTON_ITERATIONS or max_local > _MAX_LOCAL_ROTATION or not np.isfinite(jac).all():
            return d, history, False, lam
        try:
            if tip_gap is None:
                step, dlam = solve_clamped_banded(jac, res), 0.0
            else:
                a, b = solve_clamped_banded(jac, np.column_stack([res, f_ext])).T
                dlam = (tip_gap - a[-2]) / b[-2]
                step = a + dlam * b
        except np.linalg.LinAlgError:
            return d, history, False, lam
        if not np.isfinite(step).all():
            return d, history, False, lam
        scale, nodal = 1.0, np.abs(step).reshape(-1, 3)
        for cols, cap in caps:
            largest = float(nodal[:, cols].max())
            if largest > cap:
                scale = min(scale, cap / largest)
        d = d + scale * step
        lam += scale * dlam


def solve_nonlinear(
    mesh: BeamMesh, q=0.0, tip_force: float = 0.0, tip_moment: float = 0.0
) -> DeflectionField:
    """Large-rotation equilibrium under the loads of ``consistent_load_vector``.

    The full load is attempted in one Newton solve first; on divergence the
    load is applied in 2, 4, ... increments (warm-started) up to
    LOAD_INCREMENTS.  Raises ConvergenceError when even the finest
    incrementation fails.
    """
    f_ext = consistent_load_vector(mesh, q, tip_force, tip_moment)
    n_inc = 1
    while n_inc <= LOAD_INCREMENTS:
        d = np.zeros(3 * mesh.n_nodes)
        for i in range(1, n_inc + 1):
            d, _, ok, _ = newton_solve(mesh, f_ext * (i / n_inc), start=d)
            if not ok:
                break
        if ok:
            return DeflectionField(mesh, d)
        n_inc *= 2
    raise ConvergenceError(
        f"corotational solve did not converge with up to {LOAD_INCREMENTS} load increments"
    )
