import math

import pytest

from metaring import (
    BiasState,
    MicroloopSpec,
    RingSpec,
    SegmentParams,
    derive_line_constants,
)
from conftest import GEOMETRIC_L, IMPEDANCE, KINETIC_L, rel_err


class TestDeriveLineConstants:
    def test_design_point(self, line_capacitance):
        # C backed out of the quoted impedance must reproduce it exactly and
        # land within 2% of the quoted 6.3e6 m/s phase velocity
        lc = derive_line_constants(KINETIC_L, GEOMETRIC_L, line_capacitance, 25e-6)
        assert rel_err(lc.characteristic_impedance, IMPEDANCE) < 1e-12
        assert rel_err(lc.phase_velocity, 6.3e6) < 0.02

    def test_identity_units(self):
        lc = derive_line_constants(0.5, 0.5, 1.0, 1.0)
        assert lc.characteristic_impedance == pytest.approx(1.0, rel=1e-15)
        assert lc.phase_velocity == pytest.approx(1.0, rel=1e-15)

    def test_capacitance_scaling(self):
        base = derive_line_constants(1e-6, 1e-6, 1e-10, 1e-5)
        doubled = derive_line_constants(1e-6, 1e-6, 2e-10, 1e-5)
        assert rel_err(doubled.characteristic_impedance,
                       base.characteristic_impedance / math.sqrt(2)) < 1e-12
        assert rel_err(doubled.phase_velocity, base.phase_velocity / math.sqrt(2)) < 1e-12

    def test_per_cell_constants(self, line_capacitance):
        lc = derive_line_constants(KINETIC_L, GEOMETRIC_L, line_capacitance, 25e-6)
        assert rel_err(lc.cell_inductance, (KINETIC_L + GEOMETRIC_L) * 25e-6) < 1e-15
        assert rel_err(lc.cell_capacitance, line_capacitance * 25e-6 / 2) < 1e-15

    @pytest.mark.parametrize("bad", [(-1e-6, 1e-6, 1e-10, 1e-5),
                                     (1e-6, 0.0, 1e-10, 1e-5),
                                     (1e-6, 1e-6, -1e-10, 1e-5),
                                     (1e-6, 1e-6, 1e-10, 0.0)])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            derive_line_constants(*bad)

    def test_round_trip(self, line_capacitance):
        lc = derive_line_constants(KINETIC_L, GEOMETRIC_L, line_capacitance, 25e-6)
        total_l = lc.characteristic_impedance / lc.phase_velocity
        cap = 1.0 / (lc.characteristic_impedance * lc.phase_velocity)
        assert rel_err(total_l, KINETIC_L + GEOMETRIC_L) < 1e-12
        assert rel_err(cap, line_capacitance) < 1e-12


class TestTotalLength:
    def test_design_length_80mm(self, design_ring):
        assert design_ring.total_length == pytest.approx(0.080, rel=1e-12)

    def test_two_segment_cell_96mm(self, line_capacitance):
        ring = RingSpec(
            cell_count=3200,
            segment1=SegmentParams(57e-6, line_capacitance, 25e-6),
            segment2=SegmentParams(3e-6, 880e-12, 5e-6),
            geometric_inductance_per_length=GEOMETRIC_L,
            kinetic_inductance_per_length=KINETIC_L,
        )
        assert ring.total_length == pytest.approx(0.096, rel=1e-12)

    def test_minimum_cell_count(self, line_capacitance):
        seg = SegmentParams(57e-6, line_capacitance, 25e-6)
        ring = RingSpec(3, seg, None, GEOMETRIC_L, KINETIC_L)
        assert ring.total_length == pytest.approx(3 * 25e-6, rel=1e-12)
        with pytest.raises(ValueError):
            RingSpec(1, seg, None, GEOMETRIC_L, KINETIC_L)


class TestSegmentParams:
    def test_properties(self):
        seg = SegmentParams(57e-6, 289e-12, 25e-6)
        assert rel_err(seg.impedance, math.sqrt(57e-6 / 289e-12)) < 1e-15
        assert rel_err(seg.phase_velocity, 1 / math.sqrt(57e-6 * 289e-12)) < 1e-15
        assert rel_err(seg.wave_number(1e9), 2 * math.pi * 1e9 / seg.phase_velocity) < 1e-15

    @pytest.mark.parametrize("kwargs", [
        dict(inductance_per_length=0.0, capacitance_per_length=1e-10, length=1e-5),
        dict(inductance_per_length=1e-6, capacitance_per_length=-1e-10, length=1e-5),
        dict(inductance_per_length=1e-6, capacitance_per_length=1e-10, length=0.0),
        dict(inductance_per_length=float("inf"), capacitance_per_length=1e-10, length=1e-5),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SegmentParams(**kwargs)

    def test_frozen(self):
        seg = SegmentParams(1e-6, 1e-10, 1e-5)
        with pytest.raises(AttributeError):
            seg.length = 2e-5
        assert seg.length == 1e-5


class TestMicroloopSpec:
    def test_consistent_construction(self, microloop):
        assert microloop.inductance_narrow == pytest.approx(
            microloop.inductance_wide / microloop.width_ratio, rel=1e-15
        )
        assert microloop.i_star_narrow == pytest.approx(
            microloop.width_ratio * microloop.i_star_wide, rel=1e-15
        )

    @pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5])
    def test_rejects_width_ratio(self, gamma):
        with pytest.raises(ValueError, match="width_ratio"):
            MicroloopSpec(
                width_ratio=gamma, gap=1e-6, loop_dc_inductance=1e-6,
                inductance_wide=1e-9, inductance_narrow=1e-9 / max(gamma, 0.1),
                i_star_wide=1e-3, i_star_narrow=max(gamma, 0.1) * 1e-3,
            )

    def test_rejects_inconsistent_narrow_inductance(self):
        with pytest.raises(ValueError, match="inductance_narrow"):
            MicroloopSpec(
                width_ratio=0.5, gap=1e-6, loop_dc_inductance=1e-6,
                inductance_wide=1e-9, inductance_narrow=1.9e-9,
                i_star_wide=1e-3, i_star_narrow=0.5e-3,
            )

    def test_rejects_inconsistent_i_star(self):
        with pytest.raises(ValueError, match="i_star_narrow"):
            MicroloopSpec(
                width_ratio=0.5, gap=1e-6, loop_dc_inductance=1e-6,
                inductance_wide=1e-9, inductance_narrow=2e-9,
                i_star_wide=1e-3, i_star_narrow=0.6e-3,
            )


class TestBiasState:
    def test_from_field_consistency(self, microloop):
        bias = BiasState.from_field(microloop, 1.4e-4)
        expected = 1.4e-4 * microloop.gap / microloop.loop_dc_inductance
        assert bias.dc_current == pytest.approx(expected, rel=1e-15)
        assert bias.external_field == 1.4e-4

    def test_sign_follows_field(self, microloop):
        assert BiasState.from_field(microloop, -1e-4).dc_current < 0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BiasState(external_field=float("nan"), dc_current=0.0)


class TestPhaseVelocityRescale:
    def test_scales_capacitance(self, design_ring):
        scaled = design_ring.with_phase_velocity_scale(76.0 / 79.0)
        ratio = (scaled.segment1.capacitance_per_length
                 / design_ring.segment1.capacitance_per_length)
        assert rel_err(ratio, (79.0 / 76.0) ** 2) < 1e-12
        lc0 = design_ring.line_constants()
        lc1 = scaled.line_constants()
        assert rel_err(lc1.phase_velocity, lc0.phase_velocity * 76.0 / 79.0) < 1e-12
