import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaring import (
    BiasState,
    MicroloopSpec,
    fractional_frequency_shift,
    kinetic_inductance,
    loop_energy,
    nonlinearity_report,
    taylor_coefficients,
    twm_fwm_coefficients,
)
from metaring.config import load_config
from metaring.errors import PrecisionError
from metaring.tuning import rf_current_ratio
from conftest import ROOT, perfbench_module, rel_err

# independently derived (symbolic series expansion of the loop energy) at
# gamma = 0.5, I_dc = 0.1 mA, I2* = 1 mA, L2 = 2.85 nH
SERIES_C3 = 1.2888964490596262e-08   # J/A^3
SERIES_C4 = 4.361248649054874e-03    # J/A^4


# bounds on the written c3 and c4 against the closed forms: c3 is measured
# against |T| + 0.2 F i2*, as perfbench measures it, since T vanishes at zero
# field; c4 against F.  Worst seen 2.1e-14 (width ratios just below 1) and
# 3.3e-15.
C3_REL, C4_REL = 4e-14, 1e-14


def field_bound(loop):
    """The field at which the dc current reaches the narrow wire's i* [T]."""
    return loop.i_star_narrow * loop.loop_dc_inductance / loop.gap


def closed_form_gaps(loop, twm, fwm, c3, c4):
    """The largest gaps of c3 from T, relative to |T| + 0.2 F i2*, and of c4
    from F, relative to F, over every point."""
    c3_scale = np.abs(twm) + 0.2 * fwm * loop.i_star_narrow
    return np.max(np.abs(c3 - twm) / c3_scale), np.max(np.abs(c4 - fwm) / fwm)


def report_gaps(loop, report):
    return closed_form_gaps(loop, report["twm"], report["fwm"], report["c3"], report["c4"])


def taylor_oracle(loop, bias):
    """c3 and c4 from the quartic fit of ``loop_energy``.

    The fit nodes span the middle of the rf currents i that keep both wires
    below their i*, |I_dc - i| < I2* and |I_dc + r*i| < I1*, so they lie
    inside that interval; the fit about its middle is re-expanded about zero.
    """
    i_dc, ratio = bias.dc_current, rf_current_ratio(loop, bias)
    narrow, wide = loop.i_star_narrow, loop.i_star_wide
    low = np.maximum(i_dc - narrow, (-wide - i_dc) / ratio)
    high = np.minimum(i_dc + narrow, (wide - i_dc) / ratio)
    mid, half = 0.5 * (low + high), 0.5 * (high - low)
    a3, a4 = taylor_coefficients(lambda y: loop_energy(y + mid, loop, bias), half)
    # a4*(i - mid)**4 contributes -4*mid*a4 to the cubic coefficient about zero
    return a3 - 4.0 * mid * a4, a4


class TestDcCurrent:
    """The loop supercurrent I_dc = B_ext*d/L_dc of ``BiasState.from_field``."""

    def test_zero_field(self, microloop):
        assert BiasState.from_field(microloop, 0.0).dc_current == 0.0

    def test_linear_in_field(self, microloop):
        assert BiasState.from_field(microloop, 2e-4).dc_current == pytest.approx(
            2 * BiasState.from_field(microloop, 1e-4).dc_current, rel=1e-15
        )

    def test_sign_follows_field(self, microloop):
        assert BiasState.from_field(microloop, -1e-4).dc_current < 0

    @pytest.mark.parametrize("gap,l_dc", [(0.0, 1e-6), (1e-6, -1e-6)])
    def test_rejects_non_positive_geometry(self, gap, l_dc):
        # the geometry is the loop spec's, so the spec rejects it
        with pytest.raises(ValueError, match="gap" if gap <= 0 else "loop_dc_inductance"):
            MicroloopSpec(width_ratio=0.5, gap=gap, loop_dc_inductance=l_dc,
                          inductance_wide=1e-9, inductance_narrow=2e-9,
                          i_star_wide=1e-3, i_star_narrow=5e-4)


class TestKineticInductance:
    def test_zero_current(self):
        assert kinetic_inductance(1.4e-9, 0.0, 1e-3) == 1.4e-9

    def test_at_characteristic_current(self):
        assert kinetic_inductance(1.4e-9, 1e-3, 1e-3) == pytest.approx(2.8e-9, rel=1e-15)

    def test_six_percent_rise(self):
        # a 24.5% current fraction raises the inductance 6%, i.e. ~3% frequency drop
        value = kinetic_inductance(1.0, 0.245e-3, 1e-3)
        assert value == pytest.approx(1.060025, rel=1e-12)

    def test_rejects_non_positive_i_star(self):
        with pytest.raises(ValueError):
            kinetic_inductance(1e-9, 0.0, 0.0)


class TestFractionalFrequencyShift:
    def test_zero_field(self, microloop):
        bias = BiasState.from_field(microloop, 0.0)
        assert fractional_frequency_shift(microloop, bias) == 0.0

    def test_always_non_positive(self, microloop):
        for b in np.linspace(-2e-4, 2e-4, 9):
            bias = BiasState.from_field(microloop, float(b))
            assert fractional_frequency_shift(microloop, bias) <= 0.0

    def test_quadratic_in_field(self, microloop):
        b1 = BiasState.from_field(microloop, 5e-5)
        b2 = BiasState.from_field(microloop, 1e-4)
        s1 = fractional_frequency_shift(microloop, b1)
        s2 = fractional_frequency_shift(microloop, b2)
        assert rel_err(s2, 4 * s1) < 1e-12

    def test_linear_in_width_ratio(self, microloop, symmetric_loop):
        # same narrow-wire current fraction in both loops
        bias = BiasState(external_field=0.0, dc_current=1e-4)
        half = fractional_frequency_shift(microloop, bias)
        full = fractional_frequency_shift(symmetric_loop, bias)
        assert rel_err(half, 0.5 * full) < 1e-12

    def test_calibrated_maximum_shift(self, microloop):
        bias = BiasState.from_field(microloop, 2e-4)
        shift = fractional_frequency_shift(microloop, bias)
        assert abs(shift - (-0.0083)) < 1e-6
        # tuning span: a full mode spacing at the design band top,
        # half a spacing an octave below
        assert abs(shift) * 9.40e9 >= 76e6
        assert 0.49 <= abs(shift) * 4.85e9 / 76e6 <= 0.53

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(field=st.floats(min_value=1e-7, max_value=1e-4))
    def test_property_quadratic_scaling(self, microloop, field):
        s1 = fractional_frequency_shift(microloop, BiasState.from_field(microloop, field))
        s2 = fractional_frequency_shift(microloop, BiasState.from_field(microloop, 2 * field))
        assert abs(s2 - 4 * s1) <= 1e-12 * abs(s2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(field=st.floats(min_value=-2e-4, max_value=2e-4))
    def test_property_even_in_field(self, microloop, field):
        plus = fractional_frequency_shift(microloop, BiasState.from_field(microloop, field))
        minus = fractional_frequency_shift(microloop, BiasState.from_field(microloop, -field))
        assert plus == minus


class TestLoopEnergy:
    def test_rf_free_energy(self, microloop):
        bias = BiasState.from_field(microloop, 1e-4)
        i_dc = bias.dc_current
        l_wide = kinetic_inductance(microloop.inductance_wide, i_dc, microloop.i_star_wide)
        l_narrow = kinetic_inductance(
            microloop.inductance_narrow, i_dc, microloop.i_star_narrow
        )
        expected = 0.5 * (l_wide + l_narrow) * i_dc**2
        assert rel_err(loop_energy(0.0, microloop, bias), expected) < 1e-12

    def test_symmetric_loop_is_even(self, symmetric_loop):
        bias = BiasState(external_field=0.0, dc_current=2e-4)
        for x in (1e-5, 3e-5, 7e-5):
            assert loop_energy(x, symmetric_loop, bias) == loop_energy(-x, symmetric_loop, bias)

    def test_asymmetric_biased_loop_is_not_even(self, microloop):
        bias = BiasState(external_field=0.0, dc_current=2e-4)
        assert loop_energy(5e-5, microloop, bias) != loop_energy(-5e-5, microloop, bias)

    def test_unbiased_loop_is_even(self, microloop):
        bias = BiasState(external_field=0.0, dc_current=0.0)
        for x in (1e-5, 5e-5):
            assert loop_energy(x, microloop, bias) == loop_energy(-x, microloop, bias)

    def test_regime_violation_raises(self, microloop):
        # narrow-wire current I_dc - I_rf2 pushed past its characteristic current
        bias = BiasState(external_field=0.0, dc_current=0.9e-3)
        with pytest.raises(ValueError, match="superconducting"):
            loop_energy(-0.2e-3, microloop, bias)

    def test_smooth_third_difference_is_step_independent(self, microloop):
        # quartic energy: the cubic-coefficient stencil has no truncation error
        bias = BiasState(external_field=0.0, dc_current=1e-4)

        def third(h):
            e = lambda x: loop_energy(x, microloop, bias)
            return (-e(-2 * h) + 2 * e(-h) - 2 * e(h) + e(2 * h)) / (2 * h**3)

        assert rel_err(third(4e-5), third(2e-5)) < 1e-6


class TestTaylorCoefficients:
    def test_polynomial_self_test(self):
        poly = lambda x: 2.0 + 0.5 * x - 3.0 * x**2 + 1.7 * x**3 + 0.9 * x**4
        c3, c4 = taylor_coefficients(poly, scale=1.0)
        assert rel_err(c3, 1.7) < 1e-8
        assert rel_err(c4, 0.9) < 1e-8

    def test_pure_cubic(self):
        c3, c4 = taylor_coefficients(lambda x: x**3, scale=1.0)
        assert rel_err(c3, 1.0) < 1e-10
        assert abs(c4) < 1e-8

    def test_symmetric_energy_gives_zero_cubic(self, symmetric_loop):
        bias = BiasState(external_field=0.0, dc_current=2e-4)
        c3, c4 = taylor_coefficients(
            lambda x: loop_energy(x, symmetric_loop, bias), scale=1e-4
        )
        assert abs(c3) <= 1e-9 * abs(c4) * symmetric_loop.i_star_narrow

    @pytest.mark.parametrize("scale", [1.0, np.array([0.5, 1.0, 2.0])])
    def test_energy_at_zero_offset_evaluated_once(self, scale):
        at_zero = []

        def quartic(x):
            assert np.shape(x) == np.shape(scale)  # one batch over every point
            at_zero.append(np.all(x == 0.0))
            return 2.0 + 1.7 * x * x * x + 0.9 * x * x * x * x

        c3, c4 = taylor_coefficients(quartic, scale=scale)
        assert sum(at_zero) == 1
        assert len(at_zero) == 5 + 1  # the fit nodes and the check node
        assert np.all(np.abs(c3 - 1.7) < 1e-8) and np.all(np.abs(c4 - 0.9) < 1e-8)

    def test_non_smooth_function_raises(self):
        wobble = lambda x: x**3 + 1e-3 * math.sin(1e7 * x)
        with pytest.raises(PrecisionError):
            taylor_coefficients(wobble, scale=1.0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            taylor_coefficients(lambda x: x**3, scale=0.0)


class TestMixingCoefficients:
    def test_symmetric_loop_has_no_three_wave_mixing(self, symmetric_loop):
        bias = BiasState(external_field=0.0, dc_current=2e-4)
        assert twm_fwm_coefficients(symmetric_loop, bias).twm == 0.0

    def test_unbiased_loop_has_no_three_wave_mixing(self, microloop):
        bias = BiasState(external_field=0.0, dc_current=0.0)
        assert twm_fwm_coefficients(microloop, bias).twm == 0.0

    def test_twm_odd_fwm_even_in_bias(self, microloop):
        plus = twm_fwm_coefficients(microloop, BiasState(0.0, 1.3e-4))
        minus = twm_fwm_coefficients(microloop, BiasState(0.0, -1.3e-4))
        assert plus.twm == pytest.approx(-minus.twm, rel=1e-14)
        assert plus.fwm == pytest.approx(minus.fwm, rel=1e-14)

    def test_fwm_always_positive(self, microloop, symmetric_loop):
        for loop in (microloop, symmetric_loop):
            for i_dc in (0.0, 1e-4, -2e-4):
                assert twm_fwm_coefficients(loop, BiasState(0.0, i_dc)).fwm > 0

    def test_closed_forms_match_series_expansion(self, microloop):
        bias = BiasState(external_field=0.0, dc_current=1e-4)
        coeffs = twm_fwm_coefficients(microloop, bias)
        assert rel_err(coeffs.twm, SERIES_C3) < 1e-12
        assert rel_err(coeffs.fwm, SERIES_C4) < 1e-12

    @pytest.mark.parametrize("i_dc", [2e-3, 1e160, np.array([0.0, -1e-3])])
    def test_refuses_currents_past_the_superconducting_regime(self, default_config_path, i_dc):
        # the shipped loop's narrow wire, i* = 1 mA, bounds loop_energy; past
        # it the closed forms mean nothing (twm 1.7e-4 and fwm 0.11 at 2 mA,
        # NaN at 1e160)
        loop = load_config(default_config_path).microloop
        assert min(loop.i_star_narrow, loop.i_star_wide) == 1e-3
        with pytest.raises(ValueError, match="superconducting regime of a nanowire"):
            twm_fwm_coefficients(loop, BiasState(0.0, i_dc))

    def test_finite_just_below_the_superconducting_bound(self, default_config_path):
        loop = load_config(default_config_path).microloop
        below = np.nextafter(min(loop.i_star_narrow, loop.i_star_wide), 0.0)
        coeffs = twm_fwm_coefficients(loop, BiasState(0.0, np.array([-below, below])))
        assert np.isfinite(coeffs.twm).all() and np.isfinite(coeffs.fwm).all()


class TestNonlinearityReport:
    def test_oracle_confirms_closed_forms(self, microloop):
        bias = BiasState(external_field=0.0, dc_current=1e-4)
        report = nonlinearity_report(microloop, bias)
        # the expansion agrees with the closed forms directly: the
        # coefficients are the energy expansion coefficients themselves
        c3_gap, c4_gap = report_gaps(microloop, report)
        assert c3_gap <= C3_REL and c4_gap <= C4_REL
        assert rel_err(report["c3"], SERIES_C3) < 1e-12
        assert rel_err(report["c4"], SERIES_C4) < 1e-12

    def test_report_across_field_range(self, microloop):
        for b_ext in np.linspace(0.0, 2e-4, 11):
            bias = BiasState.from_field(microloop, float(b_ext))
            c3_gap, c4_gap = report_gaps(microloop, nonlinearity_report(microloop, bias))
            assert c3_gap <= C3_REL and c4_gap <= C4_REL

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(width_ratio=st.floats(min_value=1e-70, max_value=1.0),
           fraction=st.floats(min_value=-1.0, max_value=1.0))
    def test_property_matches_closed_forms_over_whole_range(self, microloop, width_ratio,
                                                            fraction):
        # the calibrated wide wire beside a narrow wire of any width; below a
        # width ratio of about 1e-78, F leaves the float range (the CLI refuses
        # such a loop).  validate accepts every dc current below both i*, up
        # to the float just below the lower one
        loop = microloop._replace(width_ratio=width_ratio,
                                  inductance_narrow=microloop.inductance_wide / width_ratio,
                                  i_star_narrow=width_ratio * microloop.i_star_wide)
        top = np.nextafter(min(loop.i_star_narrow, loop.i_star_wide), 0.0)
        report = nonlinearity_report(loop, BiasState(0.0, fraction * top))
        c3_gap, c4_gap = report_gaps(loop, report)
        assert c3_gap <= C3_REL and c4_gap <= C4_REL


class TestTaylorOracle:
    """The quartic fit of the loop energy against the closed forms, with the
    bounds perfbench's output check applies to the written c3 and c4."""

    @pytest.mark.parametrize("scaled", [False, True], ids=["shipped", "scaled_seed_1"])
    def test_fit_matches_closed_forms_on_the_field_axes(self, tmp_path, default_config_path,
                                                        scaled):
        checks, inputs = perfbench_module("checks"), perfbench_module("inputs")
        path = default_config_path
        if scaled:
            path = tmp_path / "scaled.json"
            path.write_text(json.dumps(inputs.scaled_config(
                default_config_path, ROOT / "configs" / "trace_s11.csv", seed=1)))
        config = load_config(path)
        loop, sweep = config.microloop, config.sweeps["field"]
        bias = BiasState.from_field(loop, np.linspace(0.0, sweep["stop_T"], sweep["points"]))
        assert bias.dc_current.size == (6001 if scaled else 41)
        c3, c4 = taylor_oracle(loop, bias)
        coeffs = twm_fwm_coefficients(loop, bias)
        twm, fwm, rel = coeffs.twm, coeffs.fwm, checks.TAYLOR_REL
        assert np.all(np.abs(c3 - twm) <= rel * np.abs(twm) + rel * 0.2 * fwm * loop.i_star_narrow)
        assert np.all(np.abs(c4 - fwm) <= rel * np.abs(fwm))


class TestBatchedExpansion:
    @pytest.mark.parametrize("points, whole_range", [
        (41, False), (6001, False), (4001, True),
    ], ids=["41", "6001", "4001_whole_range"])
    def test_batch_matches_per_point_calls(self, default_config_path, points, whole_range):
        # the shipped field axis, the same span at the scaled sweep's density,
        # and every field inside validate's bound on either side of zero
        config = load_config(default_config_path)
        loop = config.microloop
        if whole_range:
            bound = field_bound(loop)
            fields = np.linspace(-bound, bound, points + 2)[1:-1]
        else:
            fields = np.linspace(0.0, config.sweeps["field"]["stop_T"], points)
        batch = nonlinearity_report(loop, BiasState.from_field(loop, fields))
        for j, b_ext in enumerate(fields.tolist()):
            single = nonlinearity_report(loop, BiasState.from_field(loop, b_ext))
            for key in ("c3", "c4"):
                assert isinstance(single[key], float)
                assert batch[key][j] == single[key], (key, j)

    def test_closed_forms_bit_identical_alone_and_batched(self, default_config_path):
        # a float's x**3 calls libm pow, an array's goes through numpy's own
        # power loop; written as products, both give the same bits
        loop = load_config(default_config_path).microloop
        fields = np.linspace(0.0, 2e-4, 6001)
        batch = twm_fwm_coefficients(loop, BiasState.from_field(loop, fields))
        for j, b_ext in enumerate(fields.tolist()):
            single = twm_fwm_coefficients(loop, BiasState.from_field(loop, b_ext))
            assert single.twm == batch.twm[j], j
            assert single.fwm == batch.fwm[j], j

    def test_one_unconverged_point_fails_the_batch(self):
        wobble = np.array([0.0, 0.0, 1e-3, 0.0])
        c3, c4 = taylor_coefficients(lambda x: x**3, scale=np.ones(4))
        assert np.all(np.abs(c3 - 1.0) < 1e-10) and np.all(np.abs(c4) < 1e-8)
        with pytest.raises(PrecisionError, match="at 1 of 4 points"):
            taylor_coefficients(lambda x: x**3 + wobble * np.sin(1e7 * x), scale=np.ones(4))

    def test_one_point_past_i_star_raises(self, microloop):
        i_star = microloop.i_star_narrow
        bias = BiasState(external_field=np.zeros(3),
                         dc_current=np.array([0.0, 0.5, 1.01]) * i_star)
        with pytest.raises(ValueError, match="superconducting"):
            loop_energy(np.zeros(3), microloop, bias)
        with pytest.raises(ValueError):
            nonlinearity_report(microloop, bias)
