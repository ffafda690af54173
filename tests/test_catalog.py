"""Specimen catalog: built-in data, aspect ratios, classification, file I/O."""

import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from micropull import (
    AspectRatios,
    Material,
    Specimen,
    SpecimenFormatError,
    aspect_ratios,
    classify,
    load_specimens,
    save_specimens,
    select_specimen,
)

UM = 1e-6
GOLDEN = Path(__file__).resolve().parent / "golden"

# Printed reference ratio tables for the built-in catalog (3-decimal rounding).
REFERENCE_RATIOS_NOMINAL = {
    "ST1-1": (0.150, 0.050, 0.020, 0.133),
    "ST1-2": (0.150, 0.100, 0.020, 0.133),
    "ST1-3": (0.150, 0.200, 0.020, 0.133),
    "ST1-4": (0.075, 0.050, 0.010, 0.133),
    "ST1-5": (0.075, 0.100, 0.010, 0.133),
    "ST1-6": (0.019, 0.050, 0.003, 0.133),
    "ST1-7": (0.019, 0.250, 0.003, 0.133),
    "ST1-8": (0.019, 0.500, 0.003, 0.133),
}
REFERENCE_RATIOS_MEASURED = {
    "ST1-1": (0.149, 0.050, 0.018, 0.120),
    "ST1-2": (0.149, 0.099, 0.018, 0.120),
    "ST1-3": (0.149, 0.199, 0.018, 0.120),
    "ST1-4": (0.073, 0.049, 0.009, 0.127),
    "ST1-5": (0.073, 0.098, 0.009, 0.127),
    "ST1-6": (0.019, 0.049, 0.003, 0.180),
    "ST1-7": (0.019, 0.248, 0.003, 0.180),
    "ST1-8": (0.019, 0.497, 0.003, 0.180),
}

# a valid file record and the six fields that must be JSON numbers
GOOD_RECORD = {
    "id": "x", "length_um": 100.0, "width_um": 15.0, "thickness_um": 2.0, "gap_um": 5.0,
    "young_modulus_gpa": 166.0, "poisson_ratio": 0.23, "dimension_source": "nominal",
}
NUMERIC_FIELDS = (
    "length_um", "width_um", "thickness_um", "gap_um", "young_modulus_gpa", "poisson_ratio",
)


class TestBuiltinCatalog:
    def test_size_and_split(self, catalog):
        assert len(catalog) == 16
        assert sum(s.dimension_source == "nominal" for s in catalog) == 8
        assert sum(s.dimension_source == "measured" for s in catalog) == 8

    def test_st1_1_nominal_dimensions(self, catalog):
        s = select_specimen(catalog, "ST1-1", "nominal")
        assert s.length_l == pytest.approx(100 * UM)
        assert s.width_w == pytest.approx(15 * UM)
        assert s.thickness_t == pytest.approx(2 * UM)
        assert s.gap_g == pytest.approx(5 * UM)

    def test_st1_6_thickness_differs_between_sources(self, catalog):
        nominal = select_specimen(catalog, "ST1-6", "nominal")
        measured = select_specimen(catalog, "ST1-6", "measured")
        assert measured.thickness_t == pytest.approx(2.7 * UM)
        assert nominal.thickness_t == pytest.approx(2.0 * UM)

    def test_material(self, catalog):
        for s in catalog:
            assert s.material.young_modulus == pytest.approx(166e9)
            assert s.material.poisson_ratio == pytest.approx(0.23)

    def test_st1_1_measured_dimensions(self, catalog):
        # the central profilometer values; the width is the process value
        s = select_specimen(catalog, "ST1-1", "measured")
        assert s.length_l == pytest.approx(101 * UM)
        assert s.width_w == pytest.approx(15 * UM)
        assert s.thickness_t == pytest.approx(1.8 * UM)
        assert s.gap_g == pytest.approx(5 * UM)


class TestAspectRatios:
    @pytest.mark.parametrize("source,table", [
        ("nominal", REFERENCE_RATIOS_NOMINAL),
        ("measured", REFERENCE_RATIOS_MEASURED),
    ])
    def test_reference_table_reproduced(self, catalog, source, table):
        for sid, expected in table.items():
            r = aspect_ratios(select_specimen(catalog, sid, source))
            for got, ref, name in zip((r.r1, r.r2, r.r3, r.r4), expected, "r1 r2 r3 r4".split()):
                assert abs(got - ref) <= 1e-3, f"{sid} {source} {name}: {got} vs {ref}"

    def test_st1_8_measured_r2(self, catalog):
        r = aspect_ratios(select_specimen(catalog, "ST1-8", "measured"))
        assert abs(r.r2 - 0.497) <= 1e-3

    def test_quotients_are_plain_ratios(self):
        # near-degenerate: w = l is allowed, t and g must stay below l
        s = Specimen(
            id="unit", length_l=2.0, width_w=2.0, thickness_t=1.0, gap_g=1.0,
            material=Material(1e9, 0.2), dimension_source="nominal",
        )
        r = aspect_ratios(s)
        assert (r.r1, r.r2, r.r3, r.r4) == (1.0, 0.5, 0.5, 0.5)

    def test_closure_identity_on_catalog(self, catalog):
        for s in catalog:
            r = aspect_ratios(s)
            assert abs(r.r4 * r.r1 - r.r3) <= 1e-12 * r.r3

    @given(
        l=st.floats(1e-5, 1e-2), w=st.floats(1e-6, 1e-3),
        t_frac=st.floats(1e-4, 0.5), g_frac=st.floats(1e-4, 0.9),
    )
    def test_closure_identity_random(self, l, w, t_frac, g_frac):
        s = Specimen(
            id="x", length_l=l, width_w=w, thickness_t=t_frac * l, gap_g=g_frac * l,
            material=Material(1e11, 0.25), dimension_source="measured",
        )
        r = aspect_ratios(s)
        assert abs(r.r4 * r.r1 - r.r3) <= 1e-12 * r.r3


class TestClassification:
    def test_measured_groups_exact(self, catalog):
        plate, large, compliant = set(), set(), set()
        for s in catalog:
            if s.dimension_source != "measured":
                continue
            flags = classify(aspect_ratios(s))
            if flags.plate_model_warning:
                plate.add(s.id)
            if flags.large_displacement_warning:
                large.add(s.id)
            if flags.high_compliance:
                compliant.add(s.id)
        assert plate == {"ST1-1", "ST1-2", "ST1-3"}
        assert large == {"ST1-3", "ST1-7", "ST1-8"}
        assert compliant == {"ST1-6", "ST1-7", "ST1-8"}

    def test_nominal_groups_match_measured_groups(self, catalog):
        for group, attr in [
            ({"ST1-1", "ST1-2", "ST1-3"}, "plate_model_warning"),
            ({"ST1-3", "ST1-7", "ST1-8"}, "large_displacement_warning"),
            ({"ST1-6", "ST1-7", "ST1-8"}, "high_compliance"),
        ]:
            flagged = {
                s.id for s in catalog
                if s.dimension_source == "nominal"
                and getattr(classify(aspect_ratios(s)), attr)
            }
            assert flagged == group

    def test_st1_3_measured_flags_large_displacement(self, catalog):
        flags = classify(aspect_ratios(select_specimen(catalog, "ST1-3", "measured")))
        assert flags.large_displacement_warning

    def test_st1_6_measured_flags_high_compliance(self, catalog):
        flags = classify(aspect_ratios(select_specimen(catalog, "ST1-6", "measured")))
        assert flags.high_compliance

    def test_tiny_ratios_only_high_compliance(self):
        flags = classify(AspectRatios(r1=1e-6, r2=1e-6, r3=1e-6, r4=1e-6))
        assert not flags.plate_model_warning
        assert not flags.large_displacement_warning
        assert flags.high_compliance

    def test_pure_function_of_ratios(self):
        r = AspectRatios(r1=0.12, r2=0.3, r3=0.004, r4=0.1)
        assert classify(r) == classify(AspectRatios(r1=0.12, r2=0.3, r3=0.004, r4=0.1))


class TestInvariants:
    def test_material_rejects_bad_values(self):
        for modulus in (0.0, 0.5, 5e-324, math.inf, math.nan):  # the floor is 1 Pa
            with pytest.raises(ValueError, match="young_modulus"):
                Material(young_modulus=modulus, poisson_ratio=0.2)
        with pytest.raises(ValueError, match="poisson_ratio"):
            Material(young_modulus=1e9, poisson_ratio=0.5)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["length_l", "width_w", "thickness_t", "gap_g"])
    def test_specimen_rejects_non_finite_dimension(self, name, value):
        dims = {"length_l": 1e-4, "width_w": 1e-5, "thickness_t": 1e-6, "gap_g": 1e-5}
        dims[name] = value
        with pytest.raises(ValueError, match=name):
            Specimen(
                id="bad", material=Material(1e9, 0.2), dimension_source="nominal", **dims,
            )

    def test_specimen_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError, match="thickness_t"):
            Specimen(
                id="bad", length_l=1e-4, width_w=1e-5, thickness_t=0.0, gap_g=1e-5,
                material=Material(1e9, 0.2), dimension_source="nominal",
            )

    def test_specimen_rejects_gap_not_below_length(self):
        with pytest.raises(ValueError, match="gap_g"):
            Specimen(
                id="bad", length_l=1e-4, width_w=1e-5, thickness_t=1e-6, gap_g=1e-4,
                material=Material(1e9, 0.2), dimension_source="nominal",
            )

    def test_specimen_rejects_thickness_not_below_length(self):
        with pytest.raises(ValueError, match="thickness_t must be smaller"):
            Specimen(
                id="bad", length_l=1e-4, width_w=1e-5, thickness_t=1e-4, gap_g=1e-5,
                material=Material(1e9, 0.2), dimension_source="nominal",
            )

    def test_ambiguous_selector_refused(self, catalog):
        twice = [*catalog, select_specimen(catalog, "ST1-1", "nominal")]
        with pytest.raises(KeyError, match="ambiguous"):
            select_specimen(twice, "ST1-1", "nominal")

    def test_specimen_rejects_unknown_source(self):
        with pytest.raises(ValueError, match="dimension_source"):
            Specimen(
                id="bad", length_l=1e-4, width_w=1e-5, thickness_t=1e-6, gap_g=1e-5,
                material=Material(1e9, 0.2), dimension_source="drawn",
            )


class TestFileIO:
    def test_round_trip_keeps_every_field(self, catalog, tmp_path):
        path = tmp_path / "specimens.json"
        save_specimens(str(path), catalog)
        loaded = load_specimens(str(path))
        assert loaded == catalog
        names = [f.name for f in dataclasses.fields(Specimen)]
        assert names == [
            "id", "length_l", "width_w", "thickness_t", "gap_g", "material", "dimension_source",
        ]
        for before, after in zip(catalog, loaded, strict=True):
            assert [getattr(after, f) for f in names] == [getattr(before, f) for f in names]

    @pytest.mark.parametrize("name,value,kind", [
        *[(name, flag, "number") for name in NUMERIC_FIELDS for flag in (True, False)],
        ("thickness_um", "2.0", "number"),
        ("gap_um", None, "number"),
        ("id", 7, "string"),
        ("id", None, "string"),
        ("dimension_source", 1, "string"),
    ])
    def test_wrong_json_type_names_entry_and_field(self, tmp_path, name, value, kind):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"specimens": [GOOD_RECORD, {**GOOD_RECORD, name: value}]}))
        with pytest.raises(SpecimenFormatError) as err:
            load_specimens(str(path))
        message = str(err.value)
        assert "specimens[1]" in message
        assert f"field '{name}' must be a {kind}" in message

    @pytest.mark.parametrize("name", NUMERIC_FIELDS)
    def test_oversized_integer_names_entry_and_field(self, tmp_path, name):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"specimens": [GOOD_RECORD, {**GOOD_RECORD, name: 10**400}]}))
        with pytest.raises(SpecimenFormatError) as err:
            load_specimens(str(path))
        message = str(err.value)
        assert "specimens[1]" in message
        assert f"field '{name}' is an integer too large for a float" in message

    @pytest.mark.parametrize("value", [0.000999, 1.000001e6])
    @pytest.mark.parametrize("name", ["length_um", "width_um", "thickness_um", "gap_um"])
    def test_length_outside_range_names_entry_and_field(self, tmp_path, name, value):
        # 1 nm .. 1 m; a 1 m length keeps t and g below it
        record = {**GOOD_RECORD, "length_um": 1e6, name: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"specimens": [GOOD_RECORD, record]}))
        with pytest.raises(SpecimenFormatError) as err:
            load_specimens(str(path))
        message = str(err.value)
        assert "specimens[1]" in message
        assert f"field '{name}' must lie in [0.001, 1e+06] um (got {value!r})" in message

    def test_saved_catalog_bytes_match_golden(self, catalog, tmp_path):
        # the file format is a contract: field names, order, units and floats
        path = tmp_path / "specimens.json"
        save_specimens(str(path), catalog)
        assert path.read_bytes() == (GOLDEN / "specimens-builtin.json").read_bytes()

    def test_single_specimen_matches_builtin(self, catalog, tmp_path):
        path = tmp_path / "one.json"
        doc = {
            "specimens": [{
                "id": "ST1-1", "length_um": 100.0, "width_um": 15.0,
                "thickness_um": 2.0, "gap_um": 5.0,
                "young_modulus_gpa": 166.0, "poisson_ratio": 0.23,
                "dimension_source": "nominal",
            }]
        }
        path.write_text(json.dumps(doc))
        (loaded,) = load_specimens(str(path))
        assert loaded == select_specimen(catalog, "ST1-1", "nominal")

    def test_zero_thickness_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "specimens": [{
                "id": "x", "length_um": 100.0, "width_um": 15.0,
                "thickness_um": 0.0, "gap_um": 5.0,
                "young_modulus_gpa": 166.0, "poisson_ratio": 0.23,
                "dimension_source": "nominal",
            }]
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecimenFormatError, match="thickness"):
            load_specimens(str(path))

    def test_missing_gap_names_field(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "specimens": [{
                "id": "x", "length_um": 100.0, "width_um": 15.0,
                "thickness_um": 2.0,
                "young_modulus_gpa": 166.0, "poisson_ratio": 0.23,
                "dimension_source": "nominal",
            }]
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecimenFormatError, match="gap"):
            load_specimens(str(path))

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(SpecimenFormatError, match="JSON"):
            load_specimens(str(path))

    def test_unknown_field_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "specimens": [{
                "id": "x", "length_um": 100.0, "width_um": 15.0,
                "thickness_um": 2.0, "gap_um": 5.0,
                "young_modulus_gpa": 166.0, "poisson_ratio": 0.23,
                "dimension_source": "nominal", "colour": "blue",
            }]
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecimenFormatError, match="colour"):
            load_specimens(str(path))
