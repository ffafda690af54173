"""Closed-form pull-in estimate.

The empirical cantilever pull-in fit of Osterberg and Senturia, whose
voltage scales as sqrt(E t^3 g^3 / (eps l^4)) with a first-order
fringing-field denominator correction in g/w.

Reference values shipped with the test suite assume the catalog's
nominal modulus of 166 GPa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import Specimen
from .constants import VACUUM_PERMITTIVITY

@dataclass(frozen=True)
class PullInEstimate:
    """Pull-in voltage (V) and the deflection (m) at which it occurs."""

    voltage: float
    displacement: float

    def __post_init__(self) -> None:
        if not self.voltage > 0.0:
            raise ValueError(f"pull-in voltage must be positive (got {self.voltage})")
        if not self.displacement > 0.0:
            raise ValueError(f"pull-in displacement must be positive (got {self.displacement})")


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
    return PullInEstimate(voltage=voltage, displacement=displacement)


def osterberg_displacement_identity(spec: Specimen) -> float:
    """Algebraically reduced pull-in displacement, 0.21 g / (1 + 0.42 g/w).

    Substituting the closed-form voltage into the displacement expression
    cancels E, t and l; only the gap and the fringing correction remain.
    Must agree with osterberg_pull_in(spec).displacement to rounding.
    """
    g = spec.gap_g
    return 0.21 * g / (1.0 + 0.42 * g / spec.width_w)
