import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaring import (
    LumpedCell,
    RingSpec,
    SegmentParams,
    UnitCell,
    analytic_mode_frequency,
    cell_trace,
    conversion_mismatch,
    fsr_curve,
    idc_enhancement_sweep,
    mode_index_near,
    segment_abcd,
    solve_mode_frequency,
)
from metaring.dispersion import _CellRows, cell_matrix
from metaring.errors import BandEdgeError, PrecisionError
from conftest import rel_err

N_CELLS = 3200

# frozen from an independent dense-scan + brentq solve of the same dispersion relation
MISMATCH_N5 = 16271.1       # Hz at the mode nearest 5 GHz
MISMATCH_N30 = 585998.7     # Hz
ENHANCED_RATIO3 = {1e9: 567403.7, 2e9: 2405819.3, 3e9: 5313040.7}  # Hz

segment_strategy = st.builds(
    SegmentParams,
    inductance_per_length=st.floats(min_value=1e-7, max_value=1e-4),
    capacitance_per_length=st.floats(min_value=1e-11, max_value=5e-9),
    length=st.floats(min_value=1e-6, max_value=1e-4),
)


def halving_count(cell: UnitCell) -> int:
    return math.ceil(math.log2(0.5 / cell.cell_delay / 1e-3))


def reference_solve(cell: UnitCell, n_cells: int, modes) -> list:
    """One cell's modes bisected on [0, 1/(2 cell_delay)] through cell_trace
    alone, to a bracket narrower than this oracle's own width, 1e-3 Hz."""
    target = np.cos(2.0 * math.pi * np.asarray(modes) / n_cells)
    f_lo = np.zeros(target.shape)
    f_hi = np.full(target.shape, 0.5 / cell.cell_delay)
    for _ in range(halving_count(cell)):
        mid = 0.5 * (f_lo + f_hi)
        above = cell_trace(cell, mid) > target
        f_lo = np.where(above, mid, f_lo)
        f_hi = np.where(above, f_hi, mid)
    return (0.5 * (f_lo + f_hi)).tolist()


def root_tolerance(cell: UnitCell, f) -> np.ndarray:
    """The width of the reference bisection, 1e-3 Hz, and 4 ulp of a root
    f, plus the rounding floor of the half trace at f over its slope there.
    The floor is 8 * 2**-52 times the size of the trace's two terms,
    |cos t_1 cos t_2| + chi |sin t_1 sin t_2|, which is at most
    8 * 2**-52 * (1 + chi) and far below it for a huge chi."""
    s1, s2 = cell.segment1, cell.segment2
    chi = 0.5 * (s1.impedance / s2.impedance + s2.impedance / s1.impedance)
    w1, w2 = (2.0 * math.pi * s.length / s.phase_velocity for s in (s1, s2))
    t1, t2 = w1 * np.asarray(f), w2 * np.asarray(f)
    chi_s1, chi_s2 = chi * np.sin(t1), chi * np.sin(t2)  # finite for a huge chi
    slope = (w1 * (np.sin(t1) * np.cos(t2) + np.cos(t1) * chi_s2)
             + w2 * (np.cos(t1) * np.sin(t2) + chi_s1 * np.cos(t2)))
    terms = np.abs(np.cos(t1) * np.cos(t2)) + np.abs(chi_s1 * np.sin(t2))
    with np.errstate(divide="ignore"):  # a double root: any f is as good
        return 1e-3 + 4.0 * np.spacing(np.asarray(f)) + 8.0 * 2.0**-52 * terms / np.abs(slope)


def scaled(cell: UnitCell, ratio: float) -> UnitCell:
    """The checked cell whose bridge capacitance is scaled by ``ratio``."""
    return cell._replace(segment2=cell.segment2._replace(
        capacitance_per_length=cell.segment2.capacitance_per_length * ratio))


def assert_near_reference(cell: UnitCell, n_cells: int, modes, roots) -> None:
    reference = np.array(reference_solve(cell, n_cells, modes))
    miss = np.abs(np.asarray(roots) - reference) / root_tolerance(cell, reference)
    assert np.all(miss <= 1.0), (np.asarray(modes).tolist(), miss.tolist())


class TestSegmentAbcd:
    def test_zero_frequency_identity(self, bloch_cell):
        m = segment_abcd(bloch_cell.segment1, 0.0)
        assert m.a == 1.0 and m.d == 1.0
        assert m.b == 0.0 and m.c == 0.0

    def test_rail_impedance_near_quoted_value(self, bloch_cell):
        assert abs(bloch_cell.segment1.impedance - 443.0) / 443.0 < 0.005

    def test_rejects_negative_frequency(self, bloch_cell):
        with pytest.raises(ValueError):
            segment_abcd(bloch_cell.segment1, -1.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seg=segment_strategy, f=st.floats(min_value=0.0, max_value=2e10))
    def test_lossless_determinant(self, seg, f):
        assert abs(segment_abcd(seg, f).determinant() - 1.0) <= 1e-10


class TestCellTrace:
    def test_zero_frequency(self, bloch_cell):
        assert cell_trace(bloch_cell, 0.0) == 1.0

    def test_uniform_cell_reduces_to_plain_cosine(self, uniform_cell):
        for f in (1e9, 5e9, 20e9):
            k = uniform_cell.segment1.wave_number(f)
            expected = math.cos(k * (uniform_cell.segment1.length + uniform_cell.segment2.length))
            assert abs(cell_trace(uniform_cell, f) - expected) < 1e-12

    def test_design_cell_propagating_at_5ghz(self, bloch_cell):
        value = cell_trace(bloch_cell, 5e9)
        assert -1.0 < value < 1.0
        assert value == pytest.approx(0.9917489694689724, rel=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seg1=segment_strategy,
        seg2=segment_strategy,
        f=st.floats(min_value=0.0, max_value=3e10),
    )
    def test_closed_form_equals_half_matrix_trace(self, seg1, seg2, f):
        cell = UnitCell(seg1, seg2)
        closed = cell_trace(cell, f)
        matrix = cell_matrix(cell, f)
        assert abs(closed - matrix.trace().real / 2.0) <= 1e-10
        assert abs(matrix.trace().imag) <= 1e-10
        assert abs(matrix.determinant() - 1.0) <= 1e-10


class TestSolveModeFrequency:
    def test_uniform_cell_matches_linear_ladder(self, uniform_cell):
        v = uniform_cell.segment1.phase_velocity
        length = N_CELLS * (uniform_cell.segment1.length + uniform_cell.segment2.length)
        for m in (1, 7, 50):
            f = solve_mode_frequency(uniform_cell, N_CELLS, m)
            assert rel_err(f, v * m / length) < 1e-6

    def test_uniform_limit_matches_lumped_mode_solver(self, uniform_cell):
        # lumped chain and distributed line agree when the per-cell phase is tiny
        n_cells = 100000
        ring = RingSpec(
            cell_count=n_cells,
            segment1=LumpedCell(437e-12, 30e-6),
            geometric_inductance_per_length=28.5e-6,
            kinetic_inductance_per_length=28.5e-6,
        )
        for m in (1, 5, 20):
            bloch = solve_mode_frequency(uniform_cell, n_cells, m)
            lumped = analytic_mode_frequency(ring, m)
            assert rel_err(bloch, lumped) < 1e-6

    def test_monotone_in_mode_index(self, bloch_cell):
        freqs = [solve_mode_frequency(bloch_cell, N_CELLS, m) for m in range(1, 31)]
        assert all(b > a for a, b in zip(freqs, freqs[1:]))

    def test_rejects_trivial_mode(self, bloch_cell):
        with pytest.raises(ValueError):
            solve_mode_frequency(bloch_cell, N_CELLS, 0)
        with pytest.raises(ValueError):
            solve_mode_frequency(bloch_cell, N_CELLS, N_CELLS)
        with pytest.raises(ValueError, match="n_cells must be >= 3"):
            solve_mode_frequency(bloch_cell, 2, 1)

    def test_band_edge_error_in_stop_band(self, bloch_cell):
        # locate a stop-band frequency, then ask for the nearest mode there
        grid = np.linspace(1e9, 3e11, 4000)
        gap = next(float(f) for f in grid if abs(cell_trace(bloch_cell, float(f))) > 1.0)
        with pytest.raises(BandEdgeError):
            mode_index_near(bloch_cell, N_CELLS, gap)

    def test_band_edge_error_for_non_finite_trace(self, bloch_cell):
        # the bridge phase 2 pi f l / v overflows, so the half trace is NaN;
        # with warnings as errors, an overflow warning would fail this test
        heavy = bloch_cell._replace(segment2=bloch_cell.segment2._replace(
            inductance_per_length=1e100))
        with pytest.raises(BandEdgeError, match="1e[+]300 Hz gives a half trace cos"):
            mode_index_near(heavy, N_CELLS, np.array([1e300, 1.0]))

    def test_mode_index_inverts_solution(self, bloch_cell):
        modes = [20, 65, 110]
        for m in modes:
            f = solve_mode_frequency(bloch_cell, N_CELLS, m)
            assert mode_index_near(bloch_cell, N_CELLS, f) == m
        freqs = solve_mode_frequency(bloch_cell, N_CELLS, np.array(modes))
        assert mode_index_near(bloch_cell, N_CELLS, freqs).tolist() == modes

    @pytest.mark.parametrize("ratio", [1.0, 2.0, 3.0, 4.0])  # 1.0 is the design cell
    def test_array_solve_equals_scalar_solves(self, bloch_cell, ratio):
        cell = scaled(bloch_cell, ratio)
        # every 97th index, the band edge target m = N/2 and indices above it
        m = np.append(np.arange(1, N_CELLS, 97), N_CELLS // 2)
        batched = solve_mode_frequency(cell, N_CELLS, m)
        assert batched.shape == m.shape
        for m_k, f_k in zip(m, batched):
            scalar = solve_mode_frequency(cell, N_CELLS, int(m_k))
            assert isinstance(scalar, float) and scalar == f_k

    def test_rows_with_different_bracket_tops_match_lone_cells(self, bloch_cell):
        # bracket tops more than 2x apart share one loop, each root stopping
        # on its own test
        ratios = [1.0, 1000.0, 3.0]
        cells = [scaled(bloch_cell, ratio) for ratio in ratios]
        tops = [0.5 / cell.cell_delay for cell in cells]
        assert max(tops) > 2.0 * min(tops)
        rows = _CellRows(bloch_cell, ratios)
        # three modes inside the band of each row, then two at or next to its edge
        modes = np.array([[1, 7, 400, 1599, 1600], [1200, 1, 9, 1600, 1599], [50, 3, 1, 1600, 2]])
        roots = rows.solve(N_CELLS, modes)
        index = rows.mode_index(N_CELLS, roots[:, :3])
        for cell, m, f, m_near in zip(cells, modes, roots, index):
            alone = solve_mode_frequency(cell, N_CELLS, m)
            assert f.tobytes() == alone.tobytes()
            assert_near_reference(cell, N_CELLS, m, f)
            assert m_near.tolist() == mode_index_near(cell, N_CELLS, f[:3]).tolist()
        assert index.tolist() == modes[:, :3].tolist()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seg1=segment_strategy, seg2=segment_strategy,
           n_cells=st.sampled_from([3, 4, 7, N_CELLS, 31999]))
    def test_property_roots_near_bisection(self, seg1, seg2, n_cells):
        cell = UnitCell(seg1, seg2)
        top = n_cells // 2
        modes = sorted({m for m in (1, 2, top - 1, top) if 1 <= m <= top})
        roots = solve_mode_frequency(cell, n_cells, np.array(modes))
        assert_near_reference(cell, n_cells, modes, roots)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seg1=segment_strategy, seg2=segment_strategy,
           n_cells=st.sampled_from([3, 4, 7, N_CELLS, 31999]))
    def test_property_roots_round_trip_through_their_index(self, seg1, seg2, n_cells):
        # a root at the band edge may round past -1 by up to the floor at
        # which the solver accepts it; its index must still be the top mode
        cell = UnitCell(seg1, seg2)
        top = n_cells // 2
        for m in sorted({m for m in (1, 2, top - 1, top) if 1 <= m <= top}):
            assert mode_index_near(cell, n_cells, solve_mode_frequency(cell, n_cells, m)) == m

    @pytest.mark.parametrize("n_cells", [N_CELLS, 31999])
    @pytest.mark.parametrize("rail, bridge", [
        (SegmentParams(57e-6, 1e-300, 31.25e-6), SegmentParams(3e-6, 880e-12, 5e-6)),
        (SegmentParams(2.2250738585072014e-308, 289e-12, 25e-6),
         SegmentParams(3e-6, 880e-12, 5e-6)),
        # rounding lifts the half trace over -1 near the bracket top
        (SegmentParams(2.0390740295710925e-4, 8.834855638160121e-207, 9.655023229199001e-05),
         SegmentParams(1.2682532345920214e-06, 2.8894449678155917e-09, 6.371179165266869e-07)),
    ])
    def test_huge_mismatch_roots_near_bisection(self, rail, bridge, n_cells):
        # chi above 1e100 with a rail phase below 1e-100: the bridge term of
        # the half trace is finite, and the trace, after diving far below
        # -1, climbs back to touch it at the bracket top, a point that is
        # no first-band root
        cell = UnitCell(rail, bridge)
        modes = [1, 2, 64, 750, n_cells // 2 - 1, n_cells // 2]
        roots = solve_mode_frequency(cell, n_cells, np.array(modes))
        assert_near_reference(cell, n_cells, modes, roots)
        assert roots[-1] < 0.5 * (0.5 / cell.cell_delay)

    @pytest.mark.parametrize("n_cells", [N_CELLS, 4])
    def test_uniform_band_top_is_a_double_root(self, uniform_cell, n_cells):
        # the half trace cos(2 pi tau f) touches -1 at f_top with zero slope
        f_top = 0.5 / uniform_cell.cell_delay
        f = solve_mode_frequency(uniform_cell, n_cells, n_cells // 2)
        assert f == pytest.approx(f_top, rel=1e-7)
        assert abs(cell_trace(uniform_cell, f) + 1.0) <= 8.0 * 2.0**-52

    def test_step_cap_raises_naming_the_mode(self, bloch_cell, monkeypatch):
        monkeypatch.setattr(_CellRows, "step_cap", 1)
        with pytest.raises(PrecisionError, match=r"modes m = \[400\] of N = 3200 did not "
                                                 r"converge in 1 Newton steps"):
            solve_mode_frequency(bloch_cell, N_CELLS, 400)

    @pytest.mark.parametrize("ratio", [1.0, 2.0, 3.0, 4.0])  # 1.0 is the design cell
    def test_trace_brackets_a_single_crossing(self, bloch_cell, ratio):
        # the root bracket [0, 1/(2 cell_delay)] holds one crossing per
        # target: falling through the first band, at or below -1 above it
        cell = scaled(bloch_cell, ratio)
        edge = solve_mode_frequency(cell, N_CELLS, N_CELLS // 2)
        band = cell_trace(cell, np.linspace(0.0, edge, 20001))
        assert np.all(np.diff(band) < 0.0)
        above = cell_trace(cell, np.linspace(edge, 0.5 / cell.cell_delay, 20001)[1:])
        assert np.all(above <= -1.0)

    def test_consistent_with_fsr_curve_near_5ghz(self, bloch_cell):
        m = mode_index_near(bloch_cell, N_CELLS, 5e9)
        f_m = solve_mode_frequency(bloch_cell, N_CELLS, m)
        curve = fsr_curve(bloch_cell, N_CELLS, (f_m - 1e6, f_m + 1e8))
        nearest = np.argmin(np.abs(curve.f - f_m))
        assert abs(curve.f[nearest] - f_m) < 1e-2
        f_next = solve_mode_frequency(bloch_cell, N_CELLS, m + 1)
        assert abs(curve.fsr[nearest] - (f_next - f_m)) < 1e-2


class TestFsrCurve:
    def test_design_cell_fsr_decreases(self, bloch_cell):
        curve = fsr_curve(bloch_cell, N_CELLS, (4e9, 9e9))
        assert len(curve.f) == len(curve.fsr) > 50
        assert np.all(np.diff(curve.fsr) < 0)

    def test_uniform_cell_fsr_constant(self, uniform_cell):
        fsr = fsr_curve(uniform_cell, N_CELLS, (4e9, 6e9)).fsr
        assert (fsr.max() - fsr.min()) / fsr.min() < 1e-6

    def test_halving_cell_count_doubles_fsr(self, bloch_cell):
        full = fsr_curve(bloch_cell, N_CELLS, (5e9, 5.5e9))
        half = fsr_curve(bloch_cell, N_CELLS // 2, (5e9, 5.5e9))
        assert rel_err(half.fsr.mean(), 2 * full.fsr.mean()) < 0.01

    def test_points_inside_band(self, bloch_cell):
        curve = fsr_curve(bloch_cell, N_CELLS, (4e9, 9e9))
        assert np.all((4e9 <= curve.f) & (curve.f <= 9e9))

    def test_cell_rows_built_once(self, bloch_cell, monkeypatch):
        builds = []
        init = _CellRows.__init__

        def counting_init(self, cell, ratios=(1.0,)):
            builds.append(len(ratios))
            init(self, cell, ratios)

        monkeypatch.setattr(_CellRows, "__init__", counting_init)
        assert len(fsr_curve(bloch_cell, N_CELLS, (4e9, 9e9)).f)
        assert builds == [1]

    def test_empty_band(self, bloch_cell):
        curve = fsr_curve(bloch_cell, N_CELLS, (5e9, 4e9))
        assert curve.f.shape == curve.fsr.shape == (0,)

    def test_one_point_band_at_a_mode_keeps_it(self, bloch_cell):
        # both edges are inclusive, as in modes.free_spectral_range
        m = mode_index_near(bloch_cell, N_CELLS, 5e9)
        f_m, f_next = solve_mode_frequency(bloch_cell, N_CELLS, np.array([m, m + 1])).tolist()
        curve = fsr_curve(bloch_cell, N_CELLS, (f_m, f_m))
        assert curve.f.tolist() == [f_m] and curve.fsr.tolist() == [f_next - f_m]

    def test_window_at_the_cell_count_cap_fits_the_sweep_cap(self, bloch_cell):
        # the top of the first band, at phase pi, has index N/2, so for the
        # largest ring a config may give fsr_curve's index window
        # max(1, m_lo - 1) .. min(m_hi + 1, N/2) holds fewer than
        # _MAX_SWEEP_POINTS indices
        from metaring.config import _MAX_CELL_COUNT, _MAX_SWEEP_POINTS

        n = _MAX_CELL_COUNT
        top = solve_mode_frequency(bloch_cell, n, n // 2)
        m_lo, m_hi = (mode_index_near(bloch_cell, n, f) for f in (0.0, top))
        assert (m_lo, m_hi) == (1, n // 2)
        assert min(m_hi + 1, n // 2) + 1 - max(1, m_lo - 1) < _MAX_SWEEP_POINTS

    @pytest.mark.parametrize("n_cells", [N_CELLS, 7, 3])
    def test_band_top_ends_at_the_top_mode(self, bloch_cell, n_cells):
        # past N/2 the indices mirror the branch: the top mode m = N/2 has no
        # next mode, and for N = 3 the mirror m = 3 = 0 (mod N) has no root
        edge = 100770889126.93825  # the band edge of the design cell
        assert mode_index_near(bloch_cell, n_cells, edge) == n_cells // 2
        curve = fsr_curve(bloch_cell, n_cells, (4e9, edge))
        assert curve.f[-1] == solve_mode_frequency(bloch_cell, n_cells, n_cells // 2)
        assert np.all(np.diff(curve.f) > 0)
        assert np.isnan(curve.fsr[-1]) and np.all(curve.fsr[:-1] > 0)


class TestConversionMismatch:
    def test_design_cell_near_5ghz(self, bloch_cell):
        m = mode_index_near(bloch_cell, N_CELLS, 5e9)
        report5 = conversion_mismatch(bloch_cell, N_CELLS, m, 5)
        report30 = conversion_mismatch(bloch_cell, N_CELLS, m, 30)
        assert abs(report5.delta_f - MISMATCH_N5) < 1.0
        assert abs(report30.delta_f - MISMATCH_N30) < 1.0
        # quoted design values with the documented bridge-impedance tolerance
        assert abs(report5.delta_f - 16e3) <= 0.3 * 16e3
        assert abs(report30.delta_f - 586e3) <= 0.3 * 586e3
        assert abs(report5.signal_f - 5e9) < 0.05e9

    def test_uniform_cell_mismatch_vanishes(self, uniform_cell):
        m = mode_index_near(uniform_cell, N_CELLS, 5e9)
        report = conversion_mismatch(uniform_cell, N_CELLS, m, 5)
        assert abs(report.delta_f) < 0.05  # root-finder tolerance only

    def test_positive_for_concave_dispersion(self, bloch_cell):
        m = mode_index_near(bloch_cell, N_CELLS, 6e9)
        for n in (2, 10, 20):
            assert conversion_mismatch(bloch_cell, N_CELLS, m, n).delta_f > 0

    def test_rejects_bad_pair(self, bloch_cell):
        with pytest.raises(ValueError):
            conversion_mismatch(bloch_cell, N_CELLS, 10, 10)
        with pytest.raises(ValueError):
            conversion_mismatch(bloch_cell, N_CELLS, 10, 0)


class TestIdcEnhancement:
    def test_identity_ratio_reproduces_mismatch(self, bloch_cell):
        sweep = idc_enhancement_sweep(bloch_cell, N_CELLS, 5e9, [1e9], [1.0])
        assert all(column.shape == (1,) for column in sweep)
        m = mode_index_near(bloch_cell, N_CELLS, 5e9)
        direct = conversion_mismatch(bloch_cell, N_CELLS, m, int(sweep.n[0]))
        assert abs(sweep.delta_f[0] - direct.delta_f) < 1e-3

    def test_ratio_three_design_targets(self, bloch_cell):
        sweep = idc_enhancement_sweep(
            bloch_cell, N_CELLS, 5e9, [1e9, 2e9, 3e9], [3.0]
        )
        by_offset = dict(zip(sweep.offset.tolist(), sweep.delta_f.tolist()))
        quoted = {1e9: 562e3, 2e9: 2.383e6, 3e9: 5.263e6}
        for offset, value in quoted.items():
            assert abs(by_offset[offset] - value) <= 0.3 * value
            assert abs(by_offset[offset] - ENHANCED_RATIO3[offset]) < 2.0

    def test_monotone_in_ratio(self, bloch_cell):
        ratios = [1.0, 1.5, 2.0, 2.5, 3.0]
        sweep = idc_enhancement_sweep(
            bloch_cell, N_CELLS, 5e9, [1e9, 2e9, 3e9], ratios
        )
        for offset in (1e9, 2e9, 3e9):
            series = sweep.delta_f[sweep.offset == offset]
            assert len(series) == len(ratios)
            assert np.all(np.diff(series) > 0)

    def test_batched_rows_match_per_pair_solves(self, bloch_cell):
        ratios, offsets = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0], [1e9, 2e9, 3e9]
        # rows on brackets of different tops share the loop
        tops = {0.5 / scaled(bloch_cell, ratio).cell_delay for ratio in ratios}
        assert len(tops) == len(ratios)
        sweep = idc_enhancement_sweep(bloch_cell, N_CELLS, 5e9, offsets, ratios)
        assert all(len(column) == len(ratios) * len(offsets) for column in sweep)
        for ratio, n, signal_f, delta_f in zip(sweep.ratio.tolist(), sweep.n.tolist(),
                                               sweep.signal_f.tolist(), sweep.delta_f.tolist()):
            cell = scaled(bloch_cell, ratio)
            m = mode_index_near(cell, N_CELLS, 5e9)
            direct = conversion_mismatch(cell, N_CELLS, m, n)
            assert (delta_f, signal_f) == (direct.delta_f, direct.signal_f)
            roots = solve_mode_frequency(cell, N_CELLS, np.array([m - n, m, m + n]))
            f_low, f_sig, f_high = roots.tolist()
            assert (delta_f, signal_f) == (2.0 * f_sig - (f_high + f_low), f_sig)
            assert_near_reference(cell, N_CELLS, [m - n, m, m + n], roots)

    def test_signal_modes_bisected_once(self, bloch_cell, monkeypatch):
        # the shipped grid: the signal mode of each of 5 ratios, then m - n
        # and m + n of each of 15 (ratio, offset) pairs
        solved = []
        solve = _CellRows.solve

        def counting_solve(self, n_cells, modes):
            solved.append(modes.size)
            return solve(self, n_cells, modes)

        monkeypatch.setattr(_CellRows, "solve", counting_solve)
        idc_enhancement_sweep(bloch_cell, N_CELLS, 5e9, [1e9, 2e9, 3e9],
                              [1.0, 1.5, 2.0, 2.5, 3.0])
        assert solved == [5, 30]

    def test_rejects_non_positive_offset(self, bloch_cell):
        with pytest.raises(ValueError, match="offsets must be positive"):
            idc_enhancement_sweep(bloch_cell, N_CELLS, 5e9, [1e9, 0.0], [1.0])

    def test_rejects_signal_below_lowest_usable_mode(self, bloch_cell):
        with pytest.raises(ValueError, match=(
                "^must lie above the lowest usable mode: at ratio 1.0 and offset "
                "1000000000.0 Hz the signal mode m = 1 has idler step n = ")):
            idc_enhancement_sweep(bloch_cell, N_CELLS, 1e6, [1e9], [1.0])

    @pytest.mark.parametrize("ratios, message", [
        ([2.0, 0.99, math.nan], "capacitance enhancement ratio must be >= 1, got 0.99"),
        # the first failing ratio wins, even before a sub-unity one
        ([1.0, math.nan], "capacitance_per_length must be a finite positive number, got nan"),
        ([math.nan, 0.5], "capacitance_per_length must be a finite positive number, got nan"),
        ([1.0, math.inf], "capacitance_per_length must be a finite positive number, got inf"),
    ], ids=["sub_unity_after_valid", "nan_after_valid", "nan_before_sub_unity", "inf"])
    def test_rejects_bad_ratio(self, bloch_cell, ratios, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            idc_enhancement_sweep(bloch_cell, N_CELLS, 5e9, [1e9], ratios)

    def test_rejects_sub_unity_ratio(self, bloch_cell):
        with pytest.raises(ValueError, match="^capacitance enhancement ratio must be >= 1, "
                                             "got 0.5$"):
            idc_enhancement_sweep(bloch_cell, N_CELLS, 5e9, [1e9], [0.5])

    def test_ratios_build_no_records(self, bloch_cell, monkeypatch):
        # the ratios scale the bridge in one array pass, not one checked
        # SegmentParams per ratio
        checks = []
        check = SegmentParams._check

        def counting_check(self):
            checks.append(self)
            check(self)

        monkeypatch.setattr(SegmentParams, "_check", counting_check)
        ratios = np.linspace(1.0, 4.0, 1000).tolist()
        sweep = idc_enhancement_sweep(bloch_cell, N_CELLS, 5e9, [1e9], ratios)
        assert sweep.ratio.tolist() == ratios and checks == []

    def test_row_ordering_ratio_major(self, bloch_cell):
        sweep = idc_enhancement_sweep(bloch_cell, N_CELLS, 5e9, [1e9, 2e9], [1.0, 2.0])
        assert list(zip(sweep.ratio.tolist(), sweep.offset.tolist())) == [
            (1.0, 1e9), (1.0, 2e9), (2.0, 1e9), (2.0, 2e9)
        ]


def refusal(cell: UnitCell, ratio: float):
    """The message with which the ratio rows refuse ``ratio``, or None."""
    if ratio < 1.0:
        return f"capacitance enhancement ratio must be >= 1, got {ratio!r}"
    try:
        scaled(cell, ratio)
    except ValueError as exc:
        return str(exc)
    return None


DESIGN_RAIL = SegmentParams(57e-6, 289e-12, 25e-6)


class TestRatioRows:
    @pytest.mark.parametrize("rail, bridge", [
        (DESIGN_RAIL, SegmentParams(3e-6, 880e-12, 5e-6)),
        # the extreme cells of test_huge_mismatch_roots_near_bisection
        (SegmentParams(57e-6, 1e-300, 31.25e-6), SegmentParams(3e-6, 880e-12, 5e-6)),
        (SegmentParams(2.2250738585072014e-308, 289e-12, 25e-6),
         SegmentParams(3e-6, 880e-12, 5e-6)),
        (SegmentParams(2.0390740295710925e-4, 8.834855638160121e-207, 9.655023229199001e-05),
         SegmentParams(1.2682532345920214e-06, 2.8894449678155917e-09, 6.371179165266869e-07)),
        # bridges that a large ratio scales past each check of its records
        (DESIGN_RAIL, SegmentParams(3e-6, 1e10, 5e-6)),
        (DESIGN_RAIL, SegmentParams(1e-300, 1e10, 5e-6)),
        (DESIGN_RAIL, SegmentParams(3e-6, 1e-10, 1e300)),
        (SegmentParams(1.0, 1.0, 1e-300), SegmentParams(1.0, 1e-10, 1e-310)),
    ], ids=["design", "rail_capacitance_1e-300", "rail_inductance_min_normal",
            "trace_over_minus_one", "bridge_capacitance_1e10", "bridge_lc_1e-290",
            "bridge_length_1e300", "bridge_wave_number_overflows"])
    def test_rows_agree_with_scaled_records(self, rail, bridge):
        # a ratio's row is refused exactly when its scaled record is, with
        # the same message, and otherwise has the bits of its record's
        # properties
        cell = UnitCell(rail, bridge)
        rng = np.random.default_rng(37)
        ratios = np.concatenate([
            rng.uniform(1.0, 6.0, 40), 10.0 ** rng.uniform(0.0, 300.0, 150),
            rng.uniform(0.0, 1.0, 5), [1.0, math.nan, math.inf, 1e308]]).tolist()
        messages = [refusal(cell, ratio) for ratio in ratios]
        for ratio, message in zip(ratios, messages):
            if message is not None:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    _CellRows(cell, [ratio])
                continue
            rows, record = _CellRows(cell, [ratio]), scaled(cell, ratio)
            s1, s2 = record
            v = np.array([s1.phase_velocity, s2.phase_velocity]).reshape(2, 1, 1)
            with np.errstate(over="ignore"):
                omega = 2.0 * math.pi * np.array([s1.length, s2.length]).reshape(2, 1, 1) / v
            assert rows.v.tobytes() == v.tobytes()
            assert rows.omega.tobytes() == omega.tobytes()
            assert rows.mismatch.tobytes() == np.float64(
                0.5 * (s1.impedance / s2.impedance + s2.impedance / s1.impedance)).tobytes()
            assert rows.f_top.tobytes() == np.float64(0.5 / record.cell_delay).tobytes()
        # in one column, the first refused ratio in list order is reported
        first = next((message for message in messages if message is not None), None)
        if first is None:
            assert _CellRows(cell, ratios).f_top.shape == (len(ratios), 1)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(first)}$"):
                _CellRows(cell, ratios)
