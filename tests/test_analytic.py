"""The closed-form pull-in fit against reference values and its own identities."""

import pytest
from hypothesis import given, strategies as st

from micropull import (
    Material,
    Specimen,
    osterberg_displacement_identity,
    osterberg_pull_in,
)


class TestOsterberg:
    def test_st1_1_measured(self, st1_1_measured):
        est = osterberg_pull_in(st1_1_measured)
        assert est.voltage == pytest.approx(179.61, rel=1e-3)
        assert est.displacement == pytest.approx(0.92105e-6, rel=1e-3)

    def test_st1_4_measured(self, st1_4_measured):
        est = osterberg_pull_in(st1_4_measured)
        assert est.voltage == pytest.approx(126.21, rel=1e-3)
        assert est.displacement == pytest.approx(1.64062e-6, rel=1e-3)

    def test_modulus_scaling(self, st1_1_measured):
        base = osterberg_pull_in(st1_1_measured)
        scaled = osterberg_pull_in(st1_1_measured.with_young_modulus(4 * 166e9))
        assert scaled.voltage == pytest.approx(2.0 * base.voltage, rel=1e-14)
        # E enters the displacement only through V^2/E, so a power-of-two
        # rescaling cancels exactly in floating arithmetic
        assert scaled.displacement == base.displacement

    def test_displacement_identity_on_measured_catalog(self, catalog):
        for s in catalog:
            if s.dimension_source != "measured":
                continue
            direct = osterberg_pull_in(s).displacement
            reduced = osterberg_displacement_identity(s)
            assert abs(direct - reduced) / s.gap_g < 1e-12, s.id

    def test_identity_small_gap_limit(self, st1_1_measured):
        import dataclasses
        tiny = dataclasses.replace(st1_1_measured, gap_g=1e-12)
        assert osterberg_displacement_identity(tiny) <= 0.21e-12

    def test_identity_wide_beam_limit(self, st1_1_measured):
        import dataclasses
        wide = dataclasses.replace(st1_1_measured, width_w=1.0, length_l=10.0)
        expected = 0.21 * wide.gap_g
        assert osterberg_displacement_identity(wide) == pytest.approx(expected, rel=1e-5)

    def test_displacement_below_fringeless_bound(self, catalog):
        for s in catalog:
            assert osterberg_pull_in(s).displacement / s.gap_g < 0.21

    def test_monotonicity_on_catalog(self, catalog):
        import dataclasses
        for s in catalog:
            v0 = osterberg_pull_in(s).voltage
            assert osterberg_pull_in(dataclasses.replace(s, gap_g=1.01 * s.gap_g)).voltage > v0
            assert osterberg_pull_in(dataclasses.replace(s, thickness_t=1.01 * s.thickness_t)).voltage > v0
            assert osterberg_pull_in(dataclasses.replace(s, length_l=1.01 * s.length_l)).voltage < v0

    @given(
        l=st.floats(2e-5, 2e-3), w_frac=st.floats(0.01, 1.0),
        t_frac=st.floats(1e-3, 0.2), g_frac=st.floats(1e-3, 0.9),
        e=st.floats(1e9, 1e12), factor=st.floats(1e-3, 1e3),
    )
    def test_displacement_invariant_under_modulus_rescale(
        self, l, w_frac, t_frac, g_frac, e, factor
    ):
        s = Specimen(
            id="r", length_l=l, width_w=w_frac * l, thickness_t=t_frac * l,
            gap_g=g_frac * l, material=Material(e, 0.25), dimension_source="measured",
        )
        d0 = osterberg_pull_in(s).displacement
        d1 = osterberg_pull_in(s.with_young_modulus(factor * e)).displacement
        assert abs(d1 - d0) <= 1e-12 * s.gap_g
        assert abs(d0 - osterberg_displacement_identity(s)) <= 1e-12 * s.gap_g
