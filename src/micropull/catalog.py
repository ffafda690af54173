"""Microcantilever specimen catalog: geometry, material, aspect ratios.

The built-in catalog holds the ST1 family of in-plane bending
polysilicon microcantilevers, each in a nominal (as-designed) and a
measured (profilometer) variant.  Orientation convention: the beam bends
in the wafer plane, so ``thickness_t`` is the bending-direction dimension
and ``width_w`` is the out-of-plane electrode depth.  The bending second
moment of area is therefore I = w * t**3 / 12.

All stored values are SI.  The specimen record (``specimen_record``) is
the one micrometre/GPa form: the built-in table, the specimen file and the
CLI catalog all convert through it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .errors import SpecimenFormatError

NOMINAL = "nominal"
MEASURED = "measured"
_DIMENSION_SOURCES = (NOMINAL, MEASURED)
MIN_YOUNG_MODULUS = 1.0  # Pa: far below any solid, far above where the solves break down

# Behaviour-classification thresholds on the aspect ratios.  Chosen as the
# simple round values that separate the catalog into its three behaviour
# groups for both the nominal and the measured dimension sets.
PLATE_RATIO_THRESHOLD = 0.10          # r1 = w/l at or above: beam theory suspect
LARGE_DISPLACEMENT_THRESHOLD = 0.15   # r2 = g/l at or above: expect large deflection
HIGH_COMPLIANCE_THRESHOLD = 0.005     # r3 = t/l at or below: very compliant beam


@dataclass(frozen=True)
class Material:
    """Isotropic elastic material."""

    young_modulus: float  # Pa
    poisson_ratio: float

    def __post_init__(self) -> None:
        if not MIN_YOUNG_MODULUS <= self.young_modulus < math.inf:
            raise ValueError(
                f"young_modulus must be finite and at least {MIN_YOUNG_MODULUS:g} Pa "
                f"(got {self.young_modulus})"
            )
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ValueError(f"poisson_ratio must be in [0, 0.5) (got {self.poisson_ratio})")


@dataclass(frozen=True)
class Specimen:
    """One cantilever/counter-electrode pair.

    Lengths are metres: ``length_l`` along the beam, ``width_w`` out of
    plane, ``thickness_t`` in the bending direction, ``gap_g`` the
    undeformed electrode separation.
    """

    id: str
    length_l: float
    width_w: float
    thickness_t: float
    gap_g: float
    material: Material
    dimension_source: str

    def __post_init__(self) -> None:
        for name in ("length_l", "width_w", "thickness_t", "gap_g"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite (got {value})")
        if not self.thickness_t < self.length_l:
            raise ValueError(
                f"thickness_t must be smaller than length_l for a cantilever "
                f"(t={self.thickness_t}, l={self.length_l})"
            )
        if not self.gap_g < self.length_l:
            raise ValueError(
                f"gap_g must be smaller than length_l for a cantilever "
                f"(g={self.gap_g}, l={self.length_l})"
            )
        if self.dimension_source not in _DIMENSION_SOURCES:
            raise ValueError(
                f"dimension_source must be one of {_DIMENSION_SOURCES} "
                f"(got {self.dimension_source!r})"
            )

    @property
    def bending_inertia(self) -> float:
        """Second moment of area for in-plane bending, I = w t^3 / 12 (m^4)."""
        return self.width_w * self.thickness_t**3 / 12.0

    @property
    def section_area(self) -> float:
        """Cross-section area w * t (m^2)."""
        return self.width_w * self.thickness_t

    def with_young_modulus(self, young_modulus: float) -> "Specimen":
        """Copy of this specimen with a different Young's modulus."""
        return replace(self, material=replace(self.material, young_modulus=young_modulus))


@dataclass(frozen=True)
class AspectRatios:
    """Dimensionless geometry quotients r1 = w/l, r2 = g/l, r3 = t/l, r4 = t/w."""

    r1: float
    r2: float
    r3: float
    r4: float


@dataclass(frozen=True)
class BehaviourFlags:
    """Modelling-regime warnings derived from the aspect ratios."""

    plate_model_warning: bool
    large_displacement_warning: bool
    high_compliance: bool


# (id, l, w, t, g) in micrometres, as designed.
_NOMINAL_UM = (
    ("ST1-1", 100.0, 15.0, 2.0, 5.0),
    ("ST1-2", 100.0, 15.0, 2.0, 10.0),
    ("ST1-3", 100.0, 15.0, 2.0, 20.0),
    ("ST1-4", 200.0, 15.0, 2.0, 10.0),
    ("ST1-5", 200.0, 15.0, 2.0, 20.0),
    ("ST1-6", 800.0, 15.0, 2.0, 40.0),
    ("ST1-7", 800.0, 15.0, 2.0, 200.0),
    ("ST1-8", 800.0, 15.0, 2.0, 400.0),
)

# (id, l, tol_l, t, tol_t, g, tol_g) in micrometres, profilometer values.  A
# specimen takes the central values; the tolerance columns are the only record
# of the measured ranges.
# Width was process-imposed at 15 um and carries no tolerance of its own.
_MEASURED_UM = (
    ("ST1-1", 101.0, 0.1, 1.8, 0.02, 5.0, 0.3),
    ("ST1-2", 101.0, 0.1, 1.8, 0.02, 10.0, 0.3),
    ("ST1-3", 101.0, 0.1, 1.8, 0.02, 20.1, 0.3),
    ("ST1-4", 205.0, 0.2, 1.9, 0.02, 10.0, 0.3),
    ("ST1-5", 205.0, 0.2, 1.9, 0.02, 20.0, 0.3),
    ("ST1-6", 805.0, 0.5, 2.7, 0.04, 39.6, 0.3),
    ("ST1-7", 805.0, 0.5, 2.7, 0.04, 200.0, 0.5),
    ("ST1-8", 805.0, 0.5, 2.7, 0.04, 400.0, 0.5),
)

_UM = 1e-6
# file field -> Specimen attribute of the four lengths, micrometres in the file
_LENGTHS = {
    "length_um": "length_l",
    "width_um": "width_w",
    "thickness_um": "thickness_t",
    "gap_um": "gap_g",
}
_RECORD_FIELDS = ("id", *_LENGTHS, "young_modulus_gpa", "poisson_ratio", "dimension_source")
_TEXT_FIELDS = ("id", "dimension_source")  # the other six are numbers


def specimen_record(spec: Specimen) -> dict:
    """The specimen as a file record: micrometres, GPa, fields in file order."""
    return {
        "id": spec.id,
        **{name: getattr(spec, attr) / _UM for name, attr in _LENGTHS.items()},
        "young_modulus_gpa": spec.material.young_modulus / 1e9,
        "poisson_ratio": spec.material.poisson_ratio,
        "dimension_source": spec.dimension_source,
    }


def _from_record(rec: Mapping) -> Specimen:
    """The Specimen of a file record; raises TypeError or ValueError on bad values.

    Text fields must be strings and the others numbers that fit a float; a
    boolean is no number here, although ``float(True)`` is 1.0.
    """
    for name in _RECORD_FIELDS:
        value = rec[name]
        if name in _TEXT_FIELDS:
            kind, ok = "string", isinstance(value, str)
        else:
            kind, ok = "number", isinstance(value, (int, float)) and not isinstance(value, bool)
        if not ok:
            raise TypeError(f"field '{name}' must be a {kind} (got {value!r})")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ValueError(f"field '{name}' is an integer too large for a float")
    material = Material(float(rec["young_modulus_gpa"]) * 1e9, float(rec["poisson_ratio"]))
    return Specimen(
        id=rec["id"],
        **{attr: float(rec[name]) * _UM for name, attr in _LENGTHS.items()},
        material=material,
        dimension_source=rec["dimension_source"],
    )


def builtin_catalog() -> list[Specimen]:
    """The 16 built-in specimens: 8 nominal layouts plus their measured variants."""

    def record(row, source: str) -> dict:
        # row: id and the four lengths; all are epitaxial polysilicon
        return dict(zip(_RECORD_FIELDS, (*row, 166.0, 0.23, source)))

    measured = [(sid, l, 15.0, t, g) for sid, l, _, t, _, g, _ in _MEASURED_UM]
    return [_from_record(record(row, NOMINAL)) for row in _NOMINAL_UM] + [
        _from_record(record(row, MEASURED)) for row in measured
    ]


def aspect_ratios(spec: Specimen) -> AspectRatios:
    """The four geometry quotients of a specimen."""
    return AspectRatios(
        r1=spec.width_w / spec.length_l,
        r2=spec.gap_g / spec.length_l,
        r3=spec.thickness_t / spec.length_l,
        r4=spec.thickness_t / spec.width_w,
    )


def classify(ratios: AspectRatios) -> BehaviourFlags:
    """Map aspect ratios to modelling-regime warnings.

    Pure function: identical ratios always produce identical flags.
    """
    return BehaviourFlags(
        plate_model_warning=ratios.r1 >= PLATE_RATIO_THRESHOLD,
        large_displacement_warning=ratios.r2 >= LARGE_DISPLACEMENT_THRESHOLD,
        high_compliance=ratios.r3 <= HIGH_COMPLIANCE_THRESHOLD,
    )


def select_specimen(
    specimens: Iterable[Specimen], specimen_id: str, dimension_source: str
) -> Specimen:
    """The unique specimen with the given id and dimension source.

    Raises KeyError when no (or no unique) match exists.
    """
    matches = [
        s for s in specimens if s.id == specimen_id and s.dimension_source == dimension_source
    ]
    if not matches:
        raise KeyError(f"no specimen {specimen_id!r} with {dimension_source} dimensions")
    if len(matches) > 1:
        raise KeyError(f"specimen selector {specimen_id!r}/{dimension_source} is ambiguous")
    return matches[0]


def load_specimens(path: str) -> list[Specimen]:
    """Parse a specimen file (JSON, micrometre/GPa units) into Specimen values.

    Raises SpecimenFormatError with the offending entry and field named.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, or too many digits
        raise SpecimenFormatError(f"{path}: not valid JSON: {exc}") from exc

    if not isinstance(doc, dict) or "specimens" not in doc:
        raise SpecimenFormatError(f"{path}: top-level object must contain a 'specimens' array")
    entries = doc["specimens"]
    if not isinstance(entries, list):
        raise SpecimenFormatError(f"{path}: 'specimens' must be an array")

    specimens: list[Specimen] = []
    for i, entry in enumerate(entries):
        where = f"{path}: specimens[{i}]"
        if not isinstance(entry, dict):
            raise SpecimenFormatError(f"{where}: entry must be an object")
        for name in _RECORD_FIELDS:
            if name not in entry:
                alias = f" ({_LENGTHS[name]})" if name in _LENGTHS else ""
                raise SpecimenFormatError(f"{where}: missing field '{name}'{alias}")
        extra = set(entry) - set(_RECORD_FIELDS)
        if extra:
            raise SpecimenFormatError(f"{where}: unknown field(s) {sorted(extra)}")
        try:
            specimens.append(_from_record(entry))
        except (TypeError, ValueError) as exc:
            raise SpecimenFormatError(f"{where}: {exc}") from exc
    return specimens


def save_specimens(path: str, specimens: Iterable[Specimen]) -> None:
    """Write specimens in the file format accepted by load_specimens."""
    doc = {"specimens": [specimen_record(s) for s in specimens]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
