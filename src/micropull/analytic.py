"""Closed-form pull-in estimates.

Two classical models:

* the empirical cantilever pull-in fit of Osterberg and Senturia, whose
  voltage scales as sqrt(E t^3 g^3 / (eps l^4)) with a first-order
  fringing-field denominator correction in g/w, and
* the one-degree-of-freedom parallel-plate actuator, which pulls in at
  one third of the gap.

Reference values shipped with the test suite assume the catalog's
nominal modulus of 166 GPa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import Specimen
from .constants import VACUUM_PERMITTIVITY

OSTERBERG = "osterberg"
LUMPED = "lumped"
_METHODS = (OSTERBERG, LUMPED)


@dataclass(frozen=True)
class PullInEstimate:
    """Pull-in voltage (V) and the deflection (m) at which it occurs."""

    voltage: float
    displacement: float
    method: str

    def __post_init__(self) -> None:
        if not self.voltage > 0.0:
            raise ValueError(f"pull-in voltage must be positive (got {self.voltage})")
        if not self.displacement > 0.0:
            raise ValueError(f"pull-in displacement must be positive (got {self.displacement})")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS} (got {self.method!r})")


@dataclass(frozen=True)
class LumpedActuator:
    """Spring-suspended rigid plate over a fixed electrode."""

    stiffness_k: float  # N/m
    plate_area_a: float  # m^2
    gap_g: float  # m

    def __post_init__(self) -> None:
        for name in ("stiffness_k", "plate_area_a", "gap_g"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive (got {getattr(self, name)})")


def osterberg_pull_in(spec: Specimen) -> PullInEstimate:
    """Cantilever pull-in voltage and displacement from the closed-form fit.

    V_PI = sqrt(0.28 g^3 t^3 E / (eps l^4 (1 + 0.42 g/w)))
    v_PI = (3/4) eps l^4 / (E g^2 t^3) * V_PI^2
    """
    g = spec.gap_g
    t = spec.thickness_t
    l = spec.length_l
    w = spec.width_w
    e = spec.material.young_modulus
    fringing = 1.0 + 0.42 * g / w
    voltage = math.sqrt(0.28 * g**3 * t**3 * e / (VACUUM_PERMITTIVITY * l**4 * fringing))
    displacement = 0.75 * VACUUM_PERMITTIVITY * l**4 / (e * g**2 * t**3) * voltage**2
    return PullInEstimate(voltage=voltage, displacement=displacement, method=OSTERBERG)


def osterberg_displacement_identity(spec: Specimen) -> float:
    """Algebraically reduced pull-in displacement, 0.21 g / (1 + 0.42 g/w).

    Substituting the closed-form voltage into the displacement expression
    cancels E, t and l; only the gap and the fringing correction remain.
    Must agree with osterberg_pull_in(spec).displacement to rounding.
    """
    g = spec.gap_g
    return 0.21 * g / (1.0 + 0.42 * g / spec.width_w)


def lumped_pull_in(act: LumpedActuator) -> PullInEstimate:
    """Pull-in of the 1-DOF parallel-plate actuator.

    The equilibrium voltage V(x) = sqrt(2 k x (g - x)^2 / (eps A)) is
    maximal at x = g/3, giving V_PI = sqrt(8 k g^3 / (27 eps A)).
    """
    voltage = math.sqrt(
        8.0 * act.stiffness_k * act.gap_g**3 / (27.0 * VACUUM_PERMITTIVITY * act.plate_area_a)
    )
    return PullInEstimate(voltage=voltage, displacement=act.gap_g / 3.0, method=LUMPED)
