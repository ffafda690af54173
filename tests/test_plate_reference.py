"""Plate-load pull-in against a reference computed without the FEM.

With v the deflection in gaps, x the position in lengths and c = f g / w, the
linear cantilever under the parallel-plate load solves

    v'''' = beta (1 + c (1 - v)) / (1 - v)^2,
    v(0) = v'(0) = 0,  v''(1) = v'''(1) = 0,

with beta = eps0 w V^2 L^4 / (2 EI g^3).  Prescribing the tip v(1) = delta and
shooting on (v''(0), v'''(0), beta) gives beta(delta); its maximum over delta,
beta*, is the pull-in, V^2 = 2 beta* EI g^3 / (eps0 w L^4).  The integration
and the root find are good to about 1e-12, so the tests below measure the
discretization error of the beam FEM and the load quadrature.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import fsolve, minimize_scalar

from micropull import LoadModelConfig, SolverConfig, find_pull_in, select_specimen
from micropull.constants import VACUUM_PERMITTIVITY


def _shoot(delta: float, c: float, guess: np.ndarray) -> np.ndarray:
    """(v''(0), v'''(0), beta) of the equilibrium with the tip at ``delta``."""

    def rhs(_, y, beta):
        gap = 1.0 - y[0]
        return [y[1], y[2], y[3], beta * (1.0 + c * gap) / gap**2]

    def residual(p):
        end = solve_ivp(rhs, (0.0, 1.0), [0.0, 0.0, p[0], p[1]], method="DOP853",
                        rtol=1e-13, atol=1e-15, args=(p[2],)).y[:, -1]
        return [end[2], end[3], end[0] - delta]

    p, _, ier, msg = fsolve(residual, guess, xtol=1e-13, full_output=True)
    assert ier == 1, msg
    return p


@lru_cache
def beta_star(c: float) -> float:
    """Maximum of beta over the tip deflection, each shot started from the last."""
    # from beta = 1.6 with c = 17.3, fsolve did not converge
    b0 = 1.6 / (1.0 + 0.6 * c)
    last = np.array([0.5 * b0 * (1.0 + c), -b0 * (1.0 + c), b0])

    def minus_beta(delta):
        nonlocal last
        last = _shoot(delta, c, last)
        return -last[2]

    found = minimize_scalar(minus_beta, bounds=(0.3, 0.7), method="bounded",
                            options={"xatol": 1e-6})
    return -found.fun


def reference_pull_in(spec, fringing: float) -> float:
    """Pull-in voltage of the linear beam under the plate load, by shooting."""
    beta = beta_star(fringing * spec.gap_g / spec.width_w)
    ei = spec.material.young_modulus * spec.width_w * spec.thickness_t**3 / 12.0
    return math.sqrt(
        2.0 * beta * ei * spec.gap_g**3 / (VACUUM_PERMITTIVITY * spec.width_w * spec.length_l**4)
    )


def _fem_pull_in(spec, fringing: float, coupling: str, n_elements: int = 40) -> float:
    """Linear plate-load pull-in of the FEM, bracketed to 1e-8 of the reference."""
    cfg = SolverConfig(
        structural_mode="linear",
        load_model=LoadModelConfig(kind="parallel_plate", fringing_coefficient=fringing),
        coupling_mode=coupling,
        pull_in_bracket_tolerance=1e-8 * reference_pull_in(spec, fringing),
        n_elements=n_elements,
    )
    return find_pull_in(spec, cfg).pull_in_voltage


_CASES = [(sid, f) for sid in ("ST1-1", "ST1-8") for f in (0.0, 0.65)]


def test_beta_star_without_fringing():
    # 2 beta* / 12 = 0.28014: Osterberg's fitted 0.28
    assert beta_star(0.0) == pytest.approx(1.68084090, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("sid, fringing, volts", [
    ("ST1-8", 0.0, 3969.317475), ("ST1-1", 0.65, 179.192685), ("ST1-8", 0.65, 1163.642208),
])
def test_reference_voltages(catalog, sid, fringing, volts):
    # c = 0, 0.22 and 17.3; the volts are an earlier shooting's, to 1e-6 V
    spec = select_specimen(catalog, sid, "measured")
    assert reference_pull_in(spec, fringing) == pytest.approx(volts, rel=0.0, abs=1e-6)


@pytest.mark.parametrize("coupling", ["staggered", "monolithic"])
@pytest.mark.parametrize("sid, fringing", _CASES)
def test_linear_pull_in_matches_reference(catalog, sid, fringing, coupling):
    # +3.2e-9 to +3.4e-9 at the default 40 elements
    spec = select_specimen(catalog, sid, "measured")
    ref = reference_pull_in(spec, fringing)
    assert _fem_pull_in(spec, fringing, coupling) == pytest.approx(ref, rel=5e-8, abs=0.0)


@pytest.mark.parametrize("coupling", ["staggered", "monolithic"])
def test_linear_pull_in_converges_as_h4(st1_1_measured, coupling):
    # +5.2e-8 at 20 elements, +3.2e-9 at 40: a ratio of 16 = 2^4
    ref = reference_pull_in(st1_1_measured, 0.0)
    coarse, fine = (
        _fem_pull_in(st1_1_measured, 0.0, coupling, n) / ref - 1.0 for n in (20, 40)
    )
    assert 12.0 <= coarse / fine <= 20.0
