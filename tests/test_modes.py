import functools
import math
import operator
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaring import (
    LumpedCell,
    RingSpec,
    analytic_mode_frequency,
    eigenmode_frequencies,
    free_spectral_range,
    natural_cell_frequency,
)
from conftest import GEOMETRIC_L, KINETIC_L, rel_err

# independently derived from the design constants (hand-checked 1/(2*pi*sqrt(L0*C0)))
DESIGN_CELL_FREQUENCY = 56928298069.672
DESIGN_FUNDAMENTAL = 79039288.614


def small_ring(n_cells: int) -> RingSpec:
    return RingSpec(n_cells, LumpedCell(437e-12, 25e-6), GEOMETRIC_L, KINETIC_L)


def run_modes(ring: RingSpec, band: tuple):
    """The modes runner of ``metaring`` on ``ring`` and ``band``: modes.csv's
    columns, each as long as the summary's mode count, and the summary."""
    from metaring.cli import _run_modes

    config = SimpleNamespace(ring=ring, sweeps={"band": {"start_hz": band[0], "stop_hz": band[1]}})
    (_, (header, columns)), (_, summary) = _run_modes(config)
    assert header == ("m", "f_hz", "fsr_to_next_hz")
    assert all(len(column) == summary["mode_count"] for column in columns)
    return columns, summary


class TestNaturalCellFrequency:
    def test_unit_values(self):
        assert natural_cell_frequency(1.0, 1.0) == pytest.approx(1 / (2 * math.pi), rel=1e-15)

    def test_design_cell(self, design_ring):
        lc = design_ring.line_constants()
        f0 = natural_cell_frequency(lc.cell_inductance, lc.cell_capacitance)
        assert rel_err(f0, DESIGN_CELL_FREQUENCY) < 1e-9

    def test_quadrupling_inductance_halves(self):
        assert natural_cell_frequency(4e-9, 1e-15) == pytest.approx(
            natural_cell_frequency(1e-9, 1e-15) / 2, rel=1e-14
        )

    @pytest.mark.parametrize("l0,c0", [(0.0, 1e-15), (1e-9, -1e-15)])
    def test_rejects_non_positive(self, l0, c0):
        with pytest.raises(ValueError):
            natural_cell_frequency(l0, c0)


class TestAnalyticModeFrequency:
    def test_zero_mode(self, design_ring):
        assert analytic_mode_frequency(design_ring, 0) == 0.0

    def test_fundamental_is_design_fsr(self, design_ring):
        f1 = analytic_mode_frequency(design_ring, 1)
        assert abs(f1 - 79e6) < 1e6          # quoted design value
        assert rel_err(f1, DESIGN_FUNDAMENTAL) < 1e-9

    def test_counter_propagating_degeneracy_exact(self, design_ring):
        n = design_ring.cell_count
        for m in (1, 17, 555, n // 2 - 1):
            assert analytic_mode_frequency(design_ring, m) == analytic_mode_frequency(
                design_ring, n - m
            )

    @pytest.mark.parametrize("m", [-1, 3200, 5000])
    def test_rejects_out_of_range(self, design_ring, m):
        with pytest.raises(ValueError):
            analytic_mode_frequency(design_ring, m)

    def test_small_m_approaches_linear_ladder(self, design_ring):
        lc = design_ring.line_constants()
        linear = lc.phase_velocity / (design_ring.cell_count * design_ring.segment1.length)
        f1 = analytic_mode_frequency(design_ring, 1)
        assert rel_err(f1, linear) < 1e-6


class TestFreeSpectralRange:
    def test_design_band_mean(self, design_ring):
        table = free_spectral_range(design_ring, (4e9, 10e9))
        assert abs(table.fsr_mean - 79e6) < 1e6
        assert len(table.m) == len(table.f) == 76

    def test_entries_sorted_and_consistent(self, design_ring):
        table = free_spectral_range(design_ring, (4e9, 10e9))
        assert np.all(np.diff(table.m) == 1) and np.all(np.diff(table.f) > 0)
        fsr = np.diff(table.f).tolist()
        assert table.fsr_mean == functools.reduce(operator.add, fsr) / len(fsr)  # left to right

    def test_linear_regime_fsr_uniformity(self, design_ring):
        table = free_spectral_range(design_ring, (4e9, 10e9))
        fsr = np.diff(table.f)
        assert fsr.var() / fsr.mean() ** 2 < 1e-4

    def test_small_m_fsr_equals_linear_ladder(self, design_ring):
        lc = design_ring.line_constants()
        ladder = lc.phase_velocity / (design_ring.cell_count * design_ring.segment1.length)
        f_low = analytic_mode_frequency(design_ring, 2)
        f_high = analytic_mode_frequency(design_ring, 50)
        table = free_spectral_range(design_ring, (f_low * 0.99, f_high * 1.01))
        assert rel_err(table.fsr_mean, ladder) < 0.005

    def test_rescaled_phase_velocity_scales_modes(self, design_ring):
        scale = 76.0 / 79.0
        scaled = design_ring.with_phase_velocity_scale(scale)
        for m in (50, 80, 120):
            assert rel_err(
                analytic_mode_frequency(scaled, m),
                scale * analytic_mode_frequency(design_ring, m),
            ) < 1e-12

    def test_equals_a_mask_over_the_whole_first_branch(self, line_capacitance):
        # bands that end at a mode or at the top of the branch, where an index
        # window found by inverting the closed form dropped modes
        from metaring.config import _MAX_CELL_COUNT

        rng = np.random.default_rng(34)
        counts = [3, 7, 32000, _MAX_CELL_COUNT,
                  *(2 * rng.integers(2, 50_000, 6) + 1).tolist(),
                  *(2 * rng.integers(2, 50_000, 3)).tolist()]
        for n_cells in counts:
            ring = RingSpec(n_cells, LumpedCell(line_capacitance, 25e-6), GEOMETRIC_L, KINETIC_L)
            lc = ring.line_constants()
            f0 = natural_cell_frequency(lc.cell_inductance, lc.cell_capacitance)
            m = np.arange(1, n_cells // 2 + 1)
            f = f0 * np.sqrt(1.0 - np.cos(2.0 * math.pi * m / n_cells))
            a, b = np.sort(rng.integers(0, len(m), 2))
            top = analytic_mode_frequency(ring, n_cells // 2)
            for band in ((f[a], f[b]), (f[a], f[-1]), (f[-1], f[-1]), (f[b], f0 * math.sqrt(2.0)),
                         (analytic_mode_frequency(ring, int(m[a])), top), (top, top),
                         (15807860.156909235, 80508770824.965)):
                table = free_spectral_range(ring, band)
                inside = (band[0] <= f) & (f <= band[1])
                assert np.array_equal(table.m, m[inside]), (n_cells, band)
                assert np.array_equal(table.f, f[inside]), (n_cells, band)

    def test_empty_band(self, design_ring):
        for band in ((1e3, 2e3), (5e9, 4e9)):
            table = free_spectral_range(design_ring, band)
            assert (table.m.dtype, table.f.dtype) == (np.int64, np.float64)
            assert len(table.m) == len(table.f) == 0 and math.isnan(table.fsr_mean)

    def test_band_above_branch_top_is_empty(self, design_ring):
        lc = design_ring.line_constants()
        f0 = natural_cell_frequency(lc.cell_inductance, lc.cell_capacitance)
        top = f0 * math.sqrt(2)
        assert len(free_spectral_range(design_ring, (top * 1.01, top * 1.5)).m) == 0

    @pytest.mark.parametrize("cell_count", [3200, 32000])  # shipped and scaled rings
    def test_matches_scalar_closed_form(self, default_config_path, cell_count):
        from metaring.config import load_config

        ring = load_config(default_config_path).ring._replace(cell_count=cell_count)
        for band in ((4e9, 10e9), (0.0, 1e12)):
            expected = []
            for m in range(1, cell_count // 2 + 1):
                f_m = analytic_mode_frequency(ring, m)
                if band[0] <= f_m <= band[1]:
                    expected.append((m, f_m))
            table = free_spectral_range(ring, band)
            assert list(zip(table.m.tolist(), table.f.tolist())) == expected

    def test_widest_band_at_the_cell_count_cap_fits_the_sweep_cap(self, design_ring):
        # every first-branch index has m <= N/2, so the largest ring a config
        # may give holds at most _MAX_SWEEP_POINTS modes in any band
        from metaring.config import _MAX_CELL_COUNT, _MAX_SWEEP_POINTS

        ring = design_ring._replace(cell_count=_MAX_CELL_COUNT)
        table = free_spectral_range(ring, (0.0, 1e300))
        assert len(table.m) == _MAX_CELL_COUNT // 2 <= _MAX_SWEEP_POINTS
        assert table.m[-1] == _MAX_CELL_COUNT // 2

    def test_run_modes_at_the_cell_count_cap_stays_small(self, design_ring):
        # the widest table a config may ask for, built as columns: at one
        # Python (m, f) pair per mode its traced peak was 177 MB
        import tracemalloc

        from metaring.config import _MAX_CELL_COUNT

        tracemalloc.start()
        try:
            (m, f, fsr), summary = run_modes(design_ring._replace(cell_count=_MAX_CELL_COUNT),
                                             (0.0, 1e300))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024 * 1024
        assert (type(m), m.dtype, type(f), f.dtype) == (np.ndarray, np.int64, np.ndarray,
                                                          np.float64)
        assert summary["mode_count"] == len(m) == _MAX_CELL_COUNT // 2

    def test_csv_columns_shape(self, design_ring):
        # the last mode's spacing is NaN (an empty cell)
        (m, f, fsr), _ = run_modes(design_ring, (4e9, 4.5e9))
        assert len(m) > 1 and math.isnan(fsr[-1])
        assert np.array_equal(fsr[:-1], np.diff(f))
        columns, _ = run_modes(design_ring, (5e9, 4e9))
        assert [len(column) for column in columns] == [0, 0, 0]


class TestEigenmodeOracle:
    @pytest.mark.parametrize("n_cells", [3, 4, 7, 64])
    def test_second_difference_matches_five_eye_formula(self, n_cells):
        from metaring.modes import _cyclic_second_difference

        five_eye = (
            2.0 * np.eye(n_cells)
            - np.eye(n_cells, k=1) - np.eye(n_cells, k=-1)
            - np.eye(n_cells, k=n_cells - 1) - np.eye(n_cells, k=-(n_cells - 1))
        )
        assert _cyclic_second_difference(n_cells).tobytes() == five_eye.tobytes()

    def test_island_potential_invariance(self):
        ring = small_ring(256)
        base = eigenmode_frequencies(ring, island_potential=0.0)
        shifted = eigenmode_frequencies(ring, island_potential=1.0)
        assert np.max(np.abs(base - shifted)) <= 1e-12 * np.max(base)

    def test_matches_analytic_for_all_m(self):
        ring = small_ring(256)
        eig = eigenmode_frequencies(ring)
        analytic = np.sort([analytic_mode_frequency(ring, m) for m in range(256)])
        scale = analytic[-1]
        assert np.all(np.abs(eig - analytic) <= 1e-9 * np.maximum(analytic, scale * 1e-3))

    def test_four_cell_closed_form(self):
        ring = small_ring(4)
        lc = ring.line_constants()
        f0 = natural_cell_frequency(lc.cell_inductance, lc.cell_capacitance)
        expected = np.sort([0.0, f0, f0, f0 * math.sqrt(2)])
        eig = eigenmode_frequencies(ring)
        assert np.allclose(eig, expected, rtol=1e-9, atol=1e-9 * f0)

    def test_degenerate_pairs(self):
        ring = small_ring(64)
        eig = eigenmode_frequencies(ring)
        # modes 1..31 appear twice: entries (2k-1, 2k) for k = 1..31
        for k in range(1, 32):
            a, b = eig[2 * k - 1], eig[2 * k]
            assert abs(a - b) <= 1e-12 * b

    def test_dense_solve_limit(self, line_capacitance):
        ring = RingSpec(20001, LumpedCell(line_capacitance, 25e-6), GEOMETRIC_L, KINETIC_L)
        with pytest.raises(ValueError, match="dense solve"):
            eigenmode_frequencies(ring)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        n_cells=st.integers(min_value=4, max_value=40),
        kinetic=st.floats(min_value=1e-6, max_value=1e-4),
        cap=st.floats(min_value=1e-11, max_value=1e-9),
    )
    def test_property_oracle_equals_analytic(self, n_cells, kinetic, cap):
        ring = RingSpec(n_cells, LumpedCell(cap, 25e-6), kinetic / 100, kinetic)
        eig = eigenmode_frequencies(ring)
        analytic = np.sort([analytic_mode_frequency(ring, m) for m in range(n_cells)])
        scale = analytic[-1]
        assert np.all(np.abs(eig - analytic) <= 1e-9 * np.maximum(analytic, scale * 1e-3))
