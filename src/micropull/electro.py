"""Electrostatic load models for the actuated cantilever.

Two routes from applied voltage to a structural line load, each returning
the load as an array of values:

* ``plate_load``: local parallel-plate pressure on an array of deformed gaps
  with a multiplicative first-order fringing correction,
* ``solve_field2d`` + ``maxwell_load``: a 2D Laplace solve of the potential
  on a boundary-fitted structured mesh of the deformed gap region, with the
  line load at given abscissae extracted from the normal-field trace on the
  beam face via the electrostatic surface pressure eps0 E_n^2 / 2.

The field-mesh geometry is rebuilt on every call (transfinite interpolation
between the deformed beam face and the fixed counter-electrode face), so
repeated coupled iterations cannot accumulate mesh distortion.  What depends
only on the mesh size (nx, ny, n_beam) is cached once per size: the triangle
topology, the Dirichlet split, a low-fill order of the unknowns and the
reduced matrix's pattern, with the sums that give its data and right-hand side.
The reduced matrix is symmetric positive definite but, on a bent grid, not
an M-matrix (some off-diagonal entries are positive), so the discrete maximum
principle is not guaranteed; it is a property the tests check on bent beams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .beam import DeflectionField
from .catalog import Specimen
from .constants import VACUUM_PERMITTIVITY
from .errors import GapClosureError

PARALLEL_PLATE = "parallel_plate"
FIELD_2D = "field2d"
_LOAD_KINDS = (PARALLEL_PLATE, FIELD_2D)

# The normal-field trace on the beam face averages the potential drop over
# this fraction of the local gap.  Tying the depth to the gap rather than to
# the mesh keeps the extracted trace, and with it the integrated force,
# mesh-convergent despite the field concentration at the free tip, where the
# unsmoothed trace has no finite pointwise limit.
FACE_PROBE_FRACTION = 1.0 / 8.0

# The field domain runs this many gaps past the tip, so the fringing field
# around the free end is resolved; its bottom edge there is a Neumann boundary.
TIP_EXTENSION_GAPS = 2.0


@dataclass(frozen=True)
class LoadModelConfig:
    """Electrostatic load model selection and field-mesh resolution."""

    kind: str = FIELD_2D
    fringing_coefficient: float = 0.65
    cells_across_gap: int = 24
    cells_along_beam: int = 160

    def __post_init__(self) -> None:
        if self.kind not in _LOAD_KINDS:
            raise ValueError(f"kind must be one of {_LOAD_KINDS} (got {self.kind!r})")
        if not 0.0 <= self.fringing_coefficient < np.inf:
            raise ValueError("fringing_coefficient must be finite and non-negative")
        if self.cells_across_gap < 8:
            raise ValueError("cells_across_gap must be at least 8")
        if self.cells_along_beam < 40:
            raise ValueError("cells_along_beam must be at least 40")


@dataclass(frozen=True)
class FieldSolution:
    """Potential on the deformed gap region and its beam-face trace.

    ``grid_x`` holds the column abscissae (beam spans the first columns,
    the remainder extends beyond the tip), ``grid_y`` the node ordinates
    per column, ``potential`` the nodal potential.  ``face_x``/``face_field``
    give the normal-field magnitude E_n on the beam face; charges are per
    unit out-of-plane depth (C/m) with the sign of the electrode polarity.
    """

    voltage: float
    grid_x: np.ndarray  # (nx + 1,)
    grid_y: np.ndarray  # (nx + 1, ny + 1)
    potential: np.ndarray  # (nx + 1, ny + 1)
    face_x: np.ndarray  # (n_beam + 1,)
    face_field: np.ndarray  # (n_beam + 1,)  E_n, V/m
    beam_charge_per_depth: float
    counter_charge_per_depth: float


def _check_open(gap) -> None:
    """The one gap-closure rule: every local gap must be finite and positive."""
    if not np.all(np.isfinite(gap) & (gap > 0.0)):
        raise GapClosureError("beam face reaches the counter-electrode (or is not finite)")


def plate_load(spec: Specimen, gap, voltage: float, fringing_coefficient: float):
    """Parallel-plate line load on an array of local gaps g - v.

    q = eps0 w V^2 / (2 (g - v)^2) * (1 + f (g - v) / w), attracting the
    beam toward the counter-electrode.  Raises GapClosureError where a gap
    is closed or not finite, and OverflowError where the load is not finite;
    a caller includes the tip's gap to have it checked.
    """
    _check_open(gap)
    w = spec.width_w
    with np.errstate(all="ignore"):  # a non-finite load is raised below, not warned about
        q = 0.5 * VACUUM_PERMITTIVITY * w * voltage**2 / gap**2 * (
            1.0 + fringing_coefficient * gap / w
        )
    if not np.isfinite(q).all():
        raise OverflowError("plate load is not finite")
    return q


def plate_load_slope(spec: Specimen, gap, voltage: float, fringing_coefficient: float):
    """d q / d v of ``plate_load`` on the same open gaps g - v:
    eps0 w V^2 / (g - v)^3 * (1 + f (g - v) / (2 w)).  Raises OverflowError
    where the slope is not finite."""
    w = spec.width_w
    with np.errstate(all="ignore"):  # a non-finite slope is raised below, not warned about
        slope = VACUUM_PERMITTIVITY * w * voltage**2 / gap**3 * (
            1.0 + 0.5 * fringing_coefficient * gap / w
        )
    if not np.isfinite(slope).all():
        raise OverflowError("plate load slope is not finite")
    return slope


# a symmetric 3 x 3 element matrix has 6 distinct entries (i <= j);
# element entry 3 i + j is distinct entry _DISTINCT_OF[3 i + j]
_DISTINCT_I, _DISTINCT_J = np.triu_indices(3)
_DISTINCT_OF = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])


@dataclass(frozen=True)
class _FieldPattern:
    """Index maps of the field system on an (nx x ny)-cell grid whose first
    n_beam + 1 bottom nodes form the beam face.

    Node id = column * (ny + 1) + row; each cell is split along its
    up-right diagonal into two right-ish triangles, triangle t with the
    vertices ``tri[:, t]``.  Distinct entry d of the flattened (n_tri, 6)
    element entries is entry (_DISTINCT_I[d % 6], _DISTINCT_J[d % 6]) of
    triangle d // 6.  The unknowns are the free nodes in nested-dissection order.
    A 0/1 CSR sum adds a row's distinct entries in triangle order: a matvec sums
    a row in stored order, its sorted columns.  The maps numpy reads stay intp:
    it would cast int32 ones back on every solve.
    """

    tri: np.ndarray  # (3, n_tri) node ids
    free: np.ndarray  # node id of each unknown
    kff_sum: sp.csr_matrix  # row s sums the distinct entries of K_ff's CSC data slot s
    kff_indices: np.ndarray  # K_ff CSC row indices, int32 as scipy keeps them
    kff_indptr: np.ndarray  # K_ff CSC column pointers, int32
    rhs_sum: sp.csr_matrix  # row r sums those coupling unknown r to a beam-face node
    beam_entries: np.ndarray  # distinct entries in a beam-face row
    beam_cols: np.ndarray  # their column node id
    top_entries: np.ndarray  # distinct entries in a counter-electrode row
    top_cols: np.ndarray  # their column node id


@lru_cache(maxsize=8)
def _field_pattern(nx: int, ny: int, n_beam: int) -> _FieldPattern:
    # scratch arrays are deleted once used: at criterion 9 each is 1-2 MB
    n00 = (np.arange(nx)[:, None] * (ny + 1) + np.arange(ny)).ravel()
    n10 = n00 + (ny + 1)  # the cell's lower-right corner; n00 + 1 is its upper-left
    tri = np.stack([np.r_[n00, n00], np.r_[n10, n10 + 1], np.r_[n10 + 1, n00 + 1]])
    del n00, n10

    on_beam = np.zeros((nx + 1, ny + 1), dtype=bool)
    on_beam[: n_beam + 1, 0] = True
    on_top = np.zeros_like(on_beam)
    on_top[:, ny] = True
    on_beam, on_top = on_beam.ravel(), on_top.ravel()

    # nested dissection (George, 1973) of the grid below the counter
    # electrode: one full column or row across the longer side splits a
    # block, both halves are numbered before it, down to leaves of at most
    # 8 nodes.  SuperLU keeps this order, whose fill is about 1.1 times a
    # minimum-degree order's, so no ordering pass runs per solve.
    rank = np.empty((nx + 1, ny), dtype=np.int64)
    blocks = itertools.count()

    def dissect(block):  # a view of rank; a leaf or separator takes the next number
        if block.size > 8:
            if block.shape[0] < block.shape[1]:
                block = block.T
            mid = block.shape[0] // 2
            dissect(block[:mid])
            dissect(block[mid + 1 :])
            block = block[mid]
        block[...] = next(blocks)

    dissect(rank)
    free = np.argsort(rank, axis=None, kind="stable")
    free += free // ny  # index c ny + r of rank -> node id c (ny + 1) + r
    free = free[~on_beam[free]]
    n_free = free.size
    del rank
    unknown = np.full(on_beam.size, -1, dtype=np.int64)
    unknown[free] = np.arange(n_free)

    # every term's list keeps the order of the 9 element entries:
    # entry 9 t + 3 i + j couples vertex i (its row) and vertex j of triangle t
    vert = tri.T
    free_v, beam_v, top_v = unknown[vert] >= 0, on_beam[vert], on_top[vert]

    def entries(mask):  # (distinct entry, row node, column node) of each entry in mask
        t, ij = np.divmod(np.flatnonzero(mask), 9)
        return 6 * t + _DISTINCT_OF[ij], vert[t, ij // 3], vert[t, ij % 3]

    def summing(rows, distinct, n_rows):  # row rows[k] sums distinct entry distinct[k]
        return sp.csr_matrix((np.ones(rows.size), (rows, distinct)), (n_rows, 6 * tri.shape[1]))

    # K_ff's slots: the int64 keys column * n_free + row, sorted, are in CSC order
    kff_entries, rows, cols = entries(free_v[:, :, None] & free_v[:, None, :])
    keys = unknown[cols] * n_free + unknown[rows]
    del rows, cols
    csc_keys, kff_slot = np.unique(keys, return_inverse=True)
    rhs_entries, rhs_nodes, _ = entries(free_v[:, :, None] & beam_v[:, None, :])
    beam_entries, _, beam_cols = entries(np.repeat(beam_v, 3, axis=1))
    top_entries, _, top_cols = entries(np.repeat(top_v, 3, axis=1))
    pattern = _FieldPattern(
        tri=tri,
        free=free,
        kff_sum=summing(kff_slot, kff_entries, csc_keys.size),
        kff_indices=(csc_keys % n_free).astype(np.int32),
        kff_indptr=np.searchsorted(csc_keys, n_free * np.arange(n_free + 1)).astype(np.int32),
        rhs_sum=summing(unknown[rhs_nodes], rhs_entries, n_free),
        beam_entries=beam_entries,
        beam_cols=beam_cols,
        top_entries=top_entries,
        top_cols=top_cols,
    )
    for arr in vars(pattern).values():
        for a in (arr.data, arr.indices, arr.indptr) if sp.issparse(arr) else (arr,):
            a.setflags(write=False)
    return pattern


def solve_field2d(
    spec: Specimen,
    deflection: DeflectionField | None,
    voltage: float,
    config: LoadModelConfig | None = None,
) -> FieldSolution:
    """Laplace solve of the potential between the deformed beam face and
    the counter-electrode face.

    Boundary conditions: potential = voltage on the beam face (y = v(x),
    x in [0, l]), 0 on the counter-electrode face (y = g, full domain
    length), homogeneous Neumann on the lateral boundaries and on the
    bottom continuation beyond the tip; ``None`` stands for the undeformed
    beam.  The normal-field trace and the
    electrode charges are extracted from consistent nodal fluxes, which
    balance exactly between the electrodes in the discrete system.  Raises
    GapClosureError when the gap at a field-mesh column (the tip is one)
    is closed or not finite, and ValueError when the deflection is so far
    from the gap that the mesh has triangles of no area.
    """
    cfg = config or LoadModelConfig()

    l = spec.length_l
    g = spec.gap_g
    n_beam = cfg.cells_along_beam
    dx = l / n_beam
    n_ext = int(np.ceil(TIP_EXTENSION_GAPS * g / dx))
    nx = n_beam + n_ext
    ny = cfg.cells_across_gap

    x = np.empty(nx + 1)
    x[: n_beam + 1] = np.linspace(0.0, l, n_beam + 1)
    x[n_beam + 1 :] = l + dx * np.arange(1, n_ext + 1)

    y_low = np.empty(nx + 1)
    y_low[: n_beam + 1] = 0.0 if deflection is None else deflection.evaluate(x[: n_beam + 1])
    y_low[n_beam + 1 :] = y_low[n_beam]  # straight continuation past the tip
    _check_open(g - y_low)

    # transfinite grid between the two faces
    frac = np.linspace(0.0, 1.0, ny + 1)
    y = y_low[:, None] + (g - y_low)[:, None] * frac[None, :]

    pat = _field_pattern(nx, ny, n_beam)
    px = np.repeat(x, ny + 1)[pat.tri]
    py = y.ravel()[pat.tri]
    b = py[[1, 2, 0]] - py[[2, 0, 1]]
    c = px[[2, 0, 1]] - px[[1, 2, 0]]
    area2 = px[0] * b[0] + px[1] * b[1] + px[2] * b[2]
    if not np.all(area2 > 0.0):
        # an open gap of ~1e8 m or more rounds the grid's triangles to no area
        raise ValueError("field mesh has degenerate triangles: deflection out of range")
    # the distinct entries, triangle-major, so each K_ff slot sums its
    # entries in triangle order
    b, c = b.T, c.T
    k_entries = (
        (b[:, _DISTINCT_I] * b[:, _DISTINCT_J] + c[:, _DISTINCT_I] * c[:, _DISTINCT_J])
        / (2.0 * area2)[:, None]
    ).ravel()

    # each K_ff slot sums one entry per triangle, in triangle order, as its
    # mirror slot does, so K_ff is exactly symmetric
    n_free = pat.free.size
    k_data = pat.kff_sum @ k_entries
    k_ff = sp.csc_matrix((k_data, pat.kff_indices, pat.kff_indptr), shape=(n_free, n_free))
    # only the beam face carries a non-zero Dirichlet value
    rhs = -voltage * (pat.rhs_sum @ k_entries)
    beam_weights, top_weights = k_entries[pat.beam_entries], k_entries[pat.top_entries]
    del px, py, b, c, area2, k_entries  # SuperLU's factor is the peak: free them first

    phi_grid = np.zeros((nx + 1, ny + 1))
    phi_grid[: n_beam + 1, 0] = voltage
    phi = phi_grid.ravel()  # a view, in node-id order
    # the unknowns are already in a low-fill order, which SuperLU keeps
    phi[pat.free] = spla.spsolve(k_ff, rhs, permc_spec="NATURAL")

    # consistent nodal fluxes: (K phi) at a Dirichlet node integrates
    # d(phi)/dn over that node's share of the electrode boundary; summed
    # they balance between the electrodes exactly
    beam_charge = VACUUM_PERMITTIVITY * float(beam_weights @ phi[pat.beam_cols])
    counter_charge = VACUUM_PERMITTIVITY * float(top_weights @ phi[pat.top_cols])

    # normal-field trace: potential drop over a fixed fraction of the local
    # gap, interpolated along each column (exact for a gap-wise linear field)
    eta = FACE_PROBE_FRACTION
    pos = eta * ny
    j0 = min(int(pos), ny - 1)
    wgt = pos - j0
    phi_probe = (1.0 - wgt) * phi_grid[: n_beam + 1, j0] + wgt * phi_grid[: n_beam + 1, j0 + 1]
    local_gap = g - y_low[: n_beam + 1]
    face_field = (voltage - phi_probe) / (eta * local_gap)
    face_x = x[: n_beam + 1].copy()
    for arr in (x, y, phi_grid, face_x, face_field):
        arr.setflags(write=False)

    return FieldSolution(
        voltage=voltage,
        grid_x=x,
        grid_y=y,
        potential=phi_grid,
        face_x=face_x,
        face_field=face_field,
        beam_charge_per_depth=beam_charge,
        counter_charge_per_depth=counter_charge,
    )


def maxwell_load(field: FieldSolution, spec: Specimen, x) -> np.ndarray:
    """Line load from the electrostatic surface pressure on the beam face,
    at the abscissae ``x``.

    q(x) = w eps0 E_n(x)^2 / 2 for x on the beam, interpolated linearly
    between the face nodes, zero beyond the tip; non-negative regardless of
    the voltage sign.
    """
    face_q = 0.5 * VACUUM_PERMITTIVITY * spec.width_w * field.face_field**2
    return np.interp(x, field.face_x, face_q, right=0.0)


def integrated_face_force(field: FieldSolution, spec: Specimen) -> float:
    """Total attractive force per beam (N): trapezoid of the face pressure."""
    return float(np.trapezoid(maxwell_load(field, spec, field.face_x), field.face_x))
