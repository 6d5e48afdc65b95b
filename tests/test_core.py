import math

import numpy as np
import pytest

from metaring import (
    BiasState,
    LumpedCell,
    MicroloopSpec,
    RingSpec,
    SegmentParams,
)
from conftest import CELL_LENGTH, GEOMETRIC_L, IMPEDANCE, KINETIC_L, rel_err


def lumped_cell_frequency(kinetic, geometric, capacitance, length):
    """f_0 of the lumped model, 1/(2 pi sqrt(L_0 C_0)) with L_0 = (L_k + L_m) l_0
    and C_0 = C l_0/2, computed with these operations in this order."""
    cell_inductance = (kinetic + geometric) * length
    cell_capacitance = capacitance * length / 2.0
    return 1.0 / (2.0 * math.pi * math.sqrt(cell_inductance * cell_capacitance))


class TestDeriveLineConstants:
    """The one number the lumped ring derives from its line: the cell
    frequency f_0 of ``RingSpec.cell_frequency``."""

    def test_design_point(self, design_ring, line_capacitance):
        # C backed out of the quoted impedance must reproduce it exactly; the
        # long-wave phase velocity sqrt(2) pi f_0 l_0 lands within 2% of the
        # quoted 6.3e6 m/s
        assert rel_err(math.sqrt((KINETIC_L + GEOMETRIC_L) / line_capacitance), IMPEDANCE) < 1e-12
        velocity = math.sqrt(2.0) * math.pi * design_ring.cell_frequency * CELL_LENGTH
        assert rel_err(velocity, 6.3e6) < 0.02

    def test_identity_units(self):
        # a unit line (L = 1 H/m, C = 1 F/m) and a 1 m cell: L_0 = 1 H, C_0 = 0.5 F
        ring = RingSpec(3, LumpedCell(1.0, 1.0), 0.5, 0.5)
        assert ring.cell_frequency == pytest.approx(math.sqrt(2) / (2 * math.pi), rel=1e-15)

    def test_capacitance_scaling(self):
        base = RingSpec(3, LumpedCell(1e-10, 1e-5), 1e-6, 1e-6)
        doubled = RingSpec(3, LumpedCell(2e-10, 1e-5), 1e-6, 1e-6)
        assert rel_err(doubled.cell_frequency, base.cell_frequency / math.sqrt(2)) < 1e-12

    def test_per_cell_constants(self, design_ring, line_capacitance):
        assert design_ring.cell_frequency == lumped_cell_frequency(
            KINETIC_L, GEOMETRIC_L, line_capacitance, CELL_LENGTH)

    def test_bits_on_rings_across_many_decades(self):
        rng = np.random.default_rng(38)
        kinetic = 10.0 ** rng.uniform(-100, 100, 500)
        geometric = kinetic * 10.0 ** rng.uniform(-6, 3, 500)
        capacitance = 10.0 ** rng.uniform(-100, 100, 500)
        length = 10.0 ** rng.uniform(-50, 50, 500)
        for l_k, l_m, c, l_0 in zip(kinetic.tolist(), geometric.tolist(),
                                     capacitance.tolist(), length.tolist()):
            ring = RingSpec(3, LumpedCell(c, l_0), l_m, l_k)
            assert ring.cell_frequency == lumped_cell_frequency(l_k, l_m, c, l_0)

    @pytest.mark.parametrize("bad", [(-1e-6, 1e-6, 1e-10, 1e-5),
                                     (1e-6, 0.0, 1e-10, 1e-5),
                                     (1e-6, 1e-6, -1e-10, 1e-5),
                                     (1e-6, 1e-6, 1e-10, 0.0)])
    def test_rejects_non_positive(self, bad):
        kinetic, geometric, capacitance, length = bad
        with pytest.raises(ValueError, match="must be a finite positive number"):
            RingSpec(3, LumpedCell(capacitance, length), geometric, kinetic)

    def test_round_trip(self, design_ring, line_capacitance):
        omega_sq = (2.0 * math.pi * design_ring.cell_frequency) ** 2
        total_l = 2.0 / (omega_sq * line_capacitance * CELL_LENGTH**2)
        cap = 2.0 / (omega_sq * (KINETIC_L + GEOMETRIC_L) * CELL_LENGTH**2)
        assert rel_err(total_l, KINETIC_L + GEOMETRIC_L) < 1e-12
        assert rel_err(cap, line_capacitance) < 1e-12


class TestTotalLength:
    def test_minimum_cell_count(self, line_capacitance):
        cell = LumpedCell(line_capacitance, 25e-6)
        assert RingSpec(3, cell, GEOMETRIC_L, KINETIC_L).cell_count == 3
        with pytest.raises(ValueError):
            RingSpec(1, cell, GEOMETRIC_L, KINETIC_L)


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
        assert rel_err(scaled.cell_frequency,
                       design_ring.cell_frequency * 76.0 / 79.0) < 1e-12
