import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaring import (
    ConverterParams,
    TlsModel,
    bifurcation_drive_power,
    bifurcation_point,
    calibrated_efficiency,
    conversion_bandwidth,
    conversion_spectrum,
    interference_fringe,
    kerr_steady_state,
    matched_bandwidth,
    pair_sweep,
    scattering,
    single_photon_efficiency,
    tls_quality_factor,
)
from metaring.conversion import dbm_from_watts, fringe_visibility, watts_from_dbm
from conftest import rel_err

BALANCED_C = 3.0 - 2.0 * math.sqrt(2.0)
KAPPA_130K = 130e3 / math.sqrt(2.0)

TLS = TlsModel(q_tls0=9891.0, n_c=23.35, alpha=1.0, q_other=1e6)


def params_at(c: float, eta_s=0.99, eta_i=0.98, kappa=KAPPA_130K) -> ConverterParams:
    return ConverterParams(kappa_s=kappa, kappa_i=kappa, eta_s=eta_s, eta_i=eta_i, p0_norm=c)


class TestCooperativity:
    def test_zero_pump_photons(self):
        # p0_norm = 0 is an undriven converter: nothing converts, so no width
        t2, r2 = conversion_spectrum(np.linspace(-1e6, 1e6, 5), params_at(0.0))
        assert np.all(t2 == 0.0) and np.all(r2 == 1.0)
        assert conversion_bandwidth(params_at(0.0)) is None

    def test_requires_a_drive_description(self):
        # p0_norm is the cooperativity's one source, and it has no default
        with pytest.raises(TypeError, match="p0_norm"):
            ConverterParams(1e5, 1e5, 1.0, 1.0)


class TestScattering:
    def test_zero_cooperativity_mirror(self):
        result = scattering(0.0, 1.0, 1.0)
        assert result.t2 == 0.0 and result.r2 == 1.0

    def test_balanced_point_is_half(self):
        result = scattering(BALANCED_C, 1.0, 1.0)
        assert abs(result.t2 - 0.5) < 1e-12
        assert abs(result.r2 - 0.5) < 1e-12

    def test_peak_transmission_with_measured_couplings(self):
        result = scattering(1.0, 0.99, 0.98)
        assert abs(result.t2 - 0.9702) < 1e-12
        # consistent with the measured 98.5% peak within its joint error bars
        assert abs(result.t2 - 0.985) <= 0.02

    def test_maximum_at_unit_cooperativity(self):
        grid = np.linspace(0.2, 3.0, 1401)
        t2 = np.array([scattering(float(c), 1.0, 1.0).t2 for c in grid])
        assert grid[int(np.argmax(t2))] == pytest.approx(1.0, abs=2.5e-3)
        derivative = np.diff(t2)
        sign_changes = np.where(np.sign(derivative[:-1]) > np.sign(derivative[1:]))[0]
        assert len(sign_changes) == 1
        assert grid[sign_changes[0] + 1] == pytest.approx(1.0, abs=2.5e-3)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(log_c=st.floats(min_value=-6.0, max_value=6.0))
    def test_self_duality(self, log_c):
        c = 10.0**log_c
        assert abs(scattering(c, 1.0, 1.0).t2 - scattering(1.0 / c, 1.0, 1.0).t2) < 1e-12

    def test_unitarity_at_full_coupling(self):
        for c in (0.0, 0.3, 1.0, 2.5):
            result = scattering(c, 1.0, 1.0)
            assert result.t2 + result.r2 == pytest.approx(1.0, abs=1e-15)

    def test_rejects_negative_cooperativity(self):
        with pytest.raises(ValueError):
            scattering(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            scattering(np.array([0.5, -0.1]), 1.0, 1.0)

    @pytest.mark.parametrize("c, eta_s, eta_i, message", [
        (1.0, 2.0, 1.0, "eta_s must lie in [0, 1]"),  # once clamped to t2 = 1.0
        (1.0, 2.0, 0.4, "eta_s must lie in [0, 1]"),  # once t2 = 0.8
        (1.0, 0.9, -0.1, "eta_i must lie in [0, 1]"),
        (1.0, 0.9, math.nan, "eta_i must lie in [0, 1]"),
        (1.0, np.array([0.5, 1.5]), 0.9, "eta_s must lie in [0, 1]"),
        (-1.0, 1.0, 1.0, "cooperativity must be non-negative"),
        (-math.inf, 1.0, 1.0, "cooperativity must be non-negative"),
        (math.nan, 1.0, 1.0, "cooperativity must be finite"),
        (math.inf, 1.0, 1.0, "cooperativity must be finite"),
        (np.array([0.5, 1.0, math.nan]), 1.0, 1.0, "cooperativity must be finite"),
        (np.array([0.5, math.inf]), 0.99, 0.98, "cooperativity must be finite"),
    ], ids=["eta_s_2_at_peak", "eta_s_2_eta_i_0.4", "eta_i_negative", "eta_i_nan",
            "eta_s_array_entry", "c_negative", "c_minus_inf", "c_nan", "c_inf",
            "c_array_nan_entry", "c_array_inf_entry"])
    def test_refuses_arguments_outside_the_law(self, c, eta_s, eta_i, message):
        with pytest.raises(ValueError) as info:
            scattering(c, eta_s, eta_i)
        assert str(info.value) == message

    def test_array_matches_scalar_calls(self):
        grid = np.linspace(0.0, 5.0, 501)
        batched = scattering(grid, 0.99, 0.98)
        for c, t2, r2 in zip(grid, batched.t2, batched.r2):
            single = scattering(float(c), 0.99, 0.98)
            assert (single.t2, single.r2) == (t2, r2)

    def test_scalar_and_array_bits_agree_on_seeded_cooperativities(self):
        # a float's (1 + C) ** 2 calls libm's pow, which misses the array's
        # x*x by one ulp at some C, the first one here among them
        rng = np.random.default_rng(4006)
        grid = np.concatenate([[4.975482526176621], rng.uniform(0.0, 10.0, 2000),
                               10.0 ** rng.uniform(-6.0, 6.0, 2005)])
        batched = scattering(grid, 0.99, 0.98)
        single = [scattering(c, 0.99, 0.98) for c in grid.tolist()]
        assert [result.t2 for result in single] == batched.t2.tolist()
        assert [result.r2 for result in single] == batched.r2.tolist()


class TestConversionSpectrum:
    def test_zero_detuning_matches_scattering(self):
        for c in (0.1, BALANCED_C, 1.0, 2.0):
            params = params_at(c)
            t2, r2 = conversion_spectrum(0.0, params)
            flat = scattering(c, params.eta_s, params.eta_i)
            assert abs(t2 - flat.t2) < 1e-12
            assert abs(r2 - flat.r2) < 1e-12

    def test_even_in_detuning(self):
        params = params_at(1.0)
        delta = np.linspace(1e3, 5e5, 40)
        t2p, _ = conversion_spectrum(delta, params)
        t2m, _ = conversion_spectrum(-delta, params)
        assert np.allclose(t2p, t2m, rtol=1e-14)

    def test_numeric_fwhm_matches_closed_form(self):
        for c in (0.5, 1.0, 1.8):
            params = params_at(c, eta_s=1.0, eta_i=1.0)
            numeric = conversion_bandwidth(params)
            closed = matched_bandwidth(KAPPA_130K, c)
            assert rel_err(numeric, closed) < 1e-3

    def test_bandwidth_calibration_130khz(self):
        params = params_at(1.0)
        assert rel_err(conversion_bandwidth(params), 130e3) < 1e-3
        assert rel_err(matched_bandwidth(KAPPA_130K, 1.0), math.sqrt(2) * KAPPA_130K) < 1e-12

    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0, 1.8, 100.0])
    def test_matched_bandwidth_scales_with_kappa_exactly(self, c):
        # kappa^2 would underflow at 2^-600 kappa and overflow at 2^600 kappa
        width = matched_bandwidth(KAPPA_130K, c)
        for scale in (2.0**600, 2.0**-600):
            assert matched_bandwidth(KAPPA_130K * scale, c) == width * scale

    def test_array_shape(self):
        params = params_at(1.0)
        delta = np.linspace(-1e6, 1e6, 11)
        t2, r2 = conversion_spectrum(delta, params)
        assert t2.shape == delta.shape and r2.shape == delta.shape

    def test_mismatched_linewidths_consistent_at_line_center(self):
        params = ConverterParams(kappa_s=8e4, kappa_i=1.6e5,
                                 eta_s=0.97, eta_i=0.91, p0_norm=0.8)
        t2, r2 = conversion_spectrum(0.0, params)
        flat = scattering(0.8, 0.97, 0.91)
        assert abs(t2 - flat.t2) < 1e-12
        assert abs(r2 - flat.r2) < 1e-12
        width = conversion_bandwidth(params)
        assert 8e4 < width < 4e5  # finite, between the mode scales


def oracle_bandwidth(params: ConverterParams) -> float:
    """FWHM from ``conversion_spectrum`` alone, to the last bits.

    t2 is unimodal in d >= 0 (its inverse is a quadratic in d^2).  The peak
    is bracketed by doubling, located by golden-section search and the outer
    half-maximum crossing bisected until its bracket holds adjacent floats.
    """
    def t2(detuning: float) -> float:
        return conversion_spectrum(detuning, params)[0]

    top = params.kappa_s + params.kappa_i
    while t2(top) >= t2(top / 2.0):  # the peak lies below top once t2 falls there
        top *= 2.0
    lo, hi = 0.0, top
    inner = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        left, right = hi - inner * (hi - lo), lo + inner * (hi - lo)
        if t2(left) >= t2(right):
            hi = right
        else:
            lo = left
    peak_at = max((lo, hi), key=t2)
    half = t2(peak_at) / 2.0
    lo, hi = peak_at, top
    while t2(hi) >= half:
        hi *= 2.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if t2(mid) >= half:
            lo = mid
        else:
            hi = mid
    return lo + hi  # 2 * crossing


def asymmetric_at(c: float) -> ConverterParams:
    return ConverterParams(kappa_s=8e4, kappa_i=1.6e5, eta_s=0.97, eta_i=0.91, p0_norm=c)


class TestBandwidthOracle:
    @pytest.mark.parametrize("params", [
        params_at(0.5),
        params_at(1e-9),
        # the shipped converter section of configs/default.json
        ConverterParams(kappa_s=91923.88155425117, kappa_i=91923.88155425117,
                        eta_s=0.99, eta_i=0.98, p0_norm=1.0),
        params_at(1.01),
        params_at(1.2),
        params_at(2.5),
        params_at(4.0),
        params_at(100.0),
        asymmetric_at(0.8),
        asymmetric_at(1.8),
        asymmetric_at(2.5),
        asymmetric_at(100.0),
        # a linewidth ratio of 1e4, where the textbook root is off by 2e-10
        ConverterParams(kappa_s=1e9, kappa_i=1e5, eta_s=0.97, eta_i=0.91, p0_norm=1.0),
    ], ids=["unsplit", "near_zero_c", "shipped", "split_1.01", "split_1.2", "split_2.5",
            "split_4", "split_100", "asymmetric", "asymmetric_split_1.8",
            "asymmetric_split_2.5", "asymmetric_split_100", "ratio_1e4"])
    def test_closed_form_matches_numeric_fwhm(self, params):
        assert rel_err(conversion_bandwidth(params), oracle_bandwidth(params)) < 1e-12


class TestCalibratedEfficiency:
    def test_unit_inputs(self):
        assert calibrated_efficiency(1.0, 1.0, 1.0, 1.0) == 1.0

    def test_forward_model_round_trip(self):
        rng = np.random.default_rng(11)
        t2 = 0.91
        for _ in range(20):
            gs_in, gs_out, gi_in, gi_out = rng.uniform(0.05, 20.0, size=4)
            t_mag = math.sqrt(t2)
            s_is = math.sqrt(gs_in * gi_out) * t_mag
            s_si = math.sqrt(gi_in * gs_out) * t_mag
            s_ss = math.sqrt(gs_in * gs_out)
            s_ii = math.sqrt(gi_in * gi_out)
            assert abs(calibrated_efficiency(s_is, s_si, s_ss, s_ii) - t2) < 1e-12

    def test_single_path_gain_invariance(self):
        base = calibrated_efficiency(0.9, 0.8, 1.1, 1.3)
        scaled = calibrated_efficiency(0.9 * 5.0, 0.8, 1.1 * 5.0, 1.3)
        assert abs(base - scaled) < 1e-15

    def test_rejects_non_positive_background(self):
        with pytest.raises(ValueError):
            calibrated_efficiency(1.0, 1.0, 0.0, 1.0)


class TestInterferenceFringe:
    def test_balanced_constructive_plus_3db(self):
        amp = math.sqrt(0.5)
        peak = interference_fringe(0.0, amp, amp)
        assert abs(peak - 2.0) < 1e-12
        assert abs(10 * math.log10(peak) - 3.01) < 0.01

    def test_small_imbalance_deep_null(self):
        d = 0.01
        s = math.sqrt(2.0 - d * d)
        r, t = (s + d) / 2.0, (s - d) / 2.0
        assert abs(r * r + t * t - 1.0) < 1e-12
        null = interference_fringe(math.pi, r, t)
        assert abs(null - 1e-4) < 1e-12
        assert abs(10 * math.log10(null) - (-40.0)) < 1e-3
        assert abs(fringe_visibility(r, t) - 0.9999) < 1e-6

    def test_no_conversion_flat_fringe(self):
        phases = np.linspace(0, 2 * math.pi, 32)
        power = interference_fringe(phases, 0.8, 0.0)
        assert np.allclose(power, 0.64, atol=1e-15)
        assert fringe_visibility(0.8, 0.0) == fringe_visibility(0.0, 0.0) == 0.0

    def test_period_exactly_two_pi(self):
        amp = math.sqrt(0.5)
        for phi in np.linspace(0, 2 * math.pi, 17):
            a = interference_fringe(float(phi), amp, amp)
            b = interference_fringe(float(phi) + 2 * math.pi, amp, amp)
            assert abs(a - b) < 1e-12

    def test_visibility_invariant_under_global_phase(self):
        phases = np.linspace(0, 2 * math.pi, 4097)
        for offset in (0.0, 0.7, 2.1):
            power = interference_fringe(phases + offset, 0.6, 0.5)
            vis = (power.max() - power.min()) / (power.max() + power.min())
            assert abs(vis - fringe_visibility(0.6, 0.5)) < 1e-6

    def test_rejects_overunity_amplitudes(self):
        with pytest.raises(ValueError):
            interference_fringe(0.0, 0.9, 0.9)


def eigvals_branches(detuning, fluxes, kerr_rate, kappa, kappa_ex):
    """Oracle: positive real Kerr branches as eigenvalues of stacked companion matrices."""
    two_pi = 2 * math.pi
    delta, k, kap = two_pi * detuning, two_pi * kerr_rate, two_pi * kappa
    drive = two_pi * kappa_ex * np.asarray(fluxes, dtype=float)
    companion = np.zeros((drive.size, 3, 3))
    companion[:, 0, 0] = 2.0 * delta * k / k**2
    companion[:, 0, 1] = -((kap / 2.0) ** 2 + delta**2) / k**2
    companion[:, 0, 2] = drive / k**2
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    real = np.abs(roots.imag) <= 1e-8 * np.maximum(1.0, np.abs(roots))
    return np.sort(np.where(real & (roots.real > 0.0), roots.real, np.nan), axis=1)


def kerr_relative_residual(branches, detuning, fluxes, kerr_rate, kappa, kappa_ex):
    """|n [(k/2)^2 + (d - K n)^2] - k_ex flux| over the sum of its terms' sizes."""
    two_pi = 2 * math.pi
    delta, k, kap = two_pi * detuning, two_pi * kerr_rate, two_pi * kappa
    drive = (two_pi * kappa_ex * np.asarray(fluxes, dtype=float))[:, None]
    n = branches
    value = n * ((kap / 2) ** 2 + (delta - k * n) ** 2) - drive
    size = n * (kap / 2) ** 2 + n * delta**2 + 2 * delta * k * n**2 + k**2 * n**3 + drive
    return np.abs(value) / size


def kerr_branches(state):
    """The branches of a one-drive ``KerrSteadyState``, its NaN padding dropped."""
    assert state.photon_numbers.shape == (1, 3) and state.bifurcated.shape == (1,)
    row = state.photon_numbers[0]
    return row[~np.isnan(row)]


class TestKerrSteadyState:
    KAPPA = 4.85e9 / 3.9e4
    KAPPA_EX = 0.94 * KAPPA

    def test_closed_form_matches_eigvals_oracle(self):
        point = bifurcation_point(0.1, self.KAPPA, self.KAPPA_EX)
        detuning = 2 * point.detuning
        fluxes = np.linspace(0.0, 4.0, 8001) * point.drive_flux
        args = (detuning, fluxes, 0.1, self.KAPPA, self.KAPPA_EX)
        got = kerr_steady_state(*args).photon_numbers
        oracle = eigvals_branches(*args)
        # the same branch count on every row, hence the same empty cells
        np.testing.assert_array_equal(np.isnan(got), np.isnan(oracle))
        assert np.any(~np.isnan(got[:, 2]))  # the axis crosses the bistable window
        kept = ~np.isnan(oracle)
        assert np.all(np.abs(got[kept] - oracle[kept]) <= 1e-12 * oracle[kept])
        res_got = kerr_relative_residual(got, *args)[kept]
        res_oracle = kerr_relative_residual(oracle, *args)[kept]
        assert res_got.max() <= res_oracle.max()
        assert np.median(res_got) <= np.median(res_oracle)

    def test_critical_point_triple_root(self):
        point = bifurcation_point(0.1, self.KAPPA, self.KAPPA_EX)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = kerr_steady_state(point.detuning, point.drive_flux, 0.1,
                                      self.KAPPA, self.KAPPA_EX)
            batched = kerr_steady_state(point.detuning, np.array([point.drive_flux]), 0.1,
                                        self.KAPPA, self.KAPPA_EX)
        branches = kerr_branches(state)
        assert len(branches) >= 1 and not state.bifurcated[0]
        assert np.all(np.isfinite(branches))
        # the triple root is -a/3 of the monic cubic, not a cbrt(eps)-wide spread
        for n in branches:
            assert rel_err(n, point.photon_number) < 1e-12
        np.testing.assert_array_equal(batched.photon_numbers, state.photon_numbers)
        np.testing.assert_array_equal(batched.bifurcated, state.bifurcated)

    def test_linear_resonator_single_root(self):
        state = kerr_steady_state(0.0, 1e9, kerr_rate=0.0, kappa=self.KAPPA,
                                  kappa_ex=self.KAPPA_EX)
        assert len(kerr_branches(state)) == 1 and not state.bifurcated[0]
        two_pi = 2 * math.pi
        expected = two_pi * self.KAPPA_EX * 1e9 / (two_pi * self.KAPPA / 2) ** 2
        assert rel_err(kerr_branches(state)[0], expected) < 1e-12

    def test_roots_satisfy_cubic(self):
        point = bifurcation_point(0.1, self.KAPPA, self.KAPPA_EX)
        state = kerr_steady_state(2 * point.detuning, 3.0 * point.drive_flux,
                                  0.1, self.KAPPA, self.KAPPA_EX)
        assert state.bifurcated[0] and len(kerr_branches(state)) == 3
        two_pi = 2 * math.pi
        k, kap, kex = two_pi * 0.1, two_pi * self.KAPPA, two_pi * self.KAPPA_EX
        delta = two_pi * 2 * point.detuning
        drive = kex * 3.0 * point.drive_flux
        for n in kerr_branches(state):
            residual = n * ((kap / 2) ** 2 + (delta - k * n) ** 2) - drive
            assert abs(residual) < 1e-9 * drive

    def test_root_count_one_or_three(self):
        point = bifurcation_point(0.1, self.KAPPA, self.KAPPA_EX)
        for detuning in (0.5 * point.detuning, 2 * point.detuning):
            for flux_scale in (0.5, 1.0, 3.0, 6.0, 20.0):
                state = kerr_steady_state(detuning, flux_scale * point.drive_flux,
                                          0.1, self.KAPPA, self.KAPPA_EX)
                assert len(kerr_branches(state)) in (1, 2, 3)
                assert state.bifurcated[0] == (len(kerr_branches(state)) == 3)

    def test_below_critical_detuning_never_bifurcates(self):
        point = bifurcation_point(0.1, self.KAPPA, self.KAPPA_EX)
        for flux_scale in (0.2, 1.0, 5.0, 25.0):
            state = kerr_steady_state(0.9 * point.detuning,
                                      flux_scale * point.drive_flux,
                                      0.1, self.KAPPA, self.KAPPA_EX)
            assert not state.bifurcated[0]

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            kerr_steady_state(0.0, 1.0, kerr_rate=0.1, kappa=0.0, kappa_ex=1.0)

    # the linear response k_ex flux/(k/2)^2 at detuning 0, flux 1e10, k 1e5, k_ex 9e4
    LINEAR = 2 * math.pi * 9e4 * 1e10 / (math.pi * 1e5) ** 2

    @pytest.mark.parametrize("kerr_rate", [1e-148, 1e-150, 1e-170, 1e-320])
    def test_a_tiny_kerr_rate_gives_the_linear_response(self, kerr_rate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = kerr_steady_state(0.0, 1e10, kerr_rate, 1e5, 9e4)
        assert len(kerr_branches(state)) == 1 and not state.bifurcated[0]
        assert rel_err(kerr_branches(state)[0], self.LINEAR) < 1e-12

    def test_kerr_rate_scan_from_zero(self):
        # K = 0 and one K per decade: one branch, falling as K grows, on the
        # cubic, and the linear response while n_lin/n - 1 = (K n/(k/2))^2 is
        # below 1e-13
        rates = np.array([0.0] + [10.0**e for e in range(-320, 0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = [kerr_steady_state(0.0, 1e10, rate, 1e5, 9e4) for rate in rates]
        rows = np.concatenate([state.photon_numbers for state in states])
        assert np.all(np.isnan(rows[:, 1:])) and not any(s.bifurcated[0] for s in states)
        assert np.all(np.diff(rows[:, 0]) <= 0.0) and rows[-1, 0] < 0.99 * self.LINEAR
        residual = kerr_relative_residual(rows[:, :1], 0.0, np.full(rates.size, 1e10),
                                          rates[:, None], 1e5, 9e4)
        assert residual.max() <= 1e-15
        linear = (rates * self.LINEAR / 5e4) ** 2 < 1e-13
        assert np.all(linear[rates <= 1e-22])
        assert np.all(np.abs(rows[linear, 0] - self.LINEAR) <= 1e-12 * self.LINEAR)

    @pytest.mark.parametrize("kerr_rate, flux", [(0.1, 1e300), (1e5, 1e290)])
    def test_rejects_a_drive_whose_constant_term_is_not_finite(self, kerr_rate, flux):
        # s = K n_lin/sqrt(B) is finite, the constant -s^2 is not
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="kerr_rate times the drive flux must keep the Kerr cubic's"):
            kerr_steady_state(0.0, flux, kerr_rate, 1e5, 9e4)

    def test_batched_matches_per_point_roots(self):
        point = bifurcation_point(0.1, self.KAPPA, self.KAPPA_EX)
        detuning = 2 * point.detuning
        fluxes = np.linspace(0.0, 6.0, 6001) * point.drive_flux
        state = kerr_steady_state(detuning, fluxes, 0.1, self.KAPPA, self.KAPPA_EX)
        assert state.photon_numbers.shape == (len(fluxes), 3)

        # reference: one np.roots call per drive, with the same real/positive filter
        two_pi = 2 * math.pi
        k, kap, kex = two_pi * 0.1, two_pi * self.KAPPA, two_pi * self.KAPPA_EX
        delta = two_pi * detuning
        counts = []
        for flux, row, flag in zip(fluxes, state.photon_numbers, state.bifurcated):
            roots = np.roots([k**2, -2 * delta * k, (kap / 2) ** 2 + delta**2, -kex * flux])
            real = [r.real for r in roots if abs(r.imag) <= 1e-8 * max(1.0, abs(r))]
            expected = sorted(n for n in real if n > 0.0)
            got = row[~np.isnan(row)]
            assert len(got) == len(expected)
            assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))
            assert flag == (len(expected) == 3)
            counts.append(len(expected))
        # zero drive has no branch (the only steady state is n = 0); the grid
        # then enters and leaves the bistable window
        runs = [c for j, c in enumerate(counts) if j == 0 or c != counts[j - 1]]
        assert runs == [0, 1, 3, 1]


class TestBifurcationPoint:
    KAPPA = 4.85e9 / 3.9e4
    KAPPA_EX = 0.94 * KAPPA

    def test_closed_forms(self):
        point = bifurcation_point(0.1, self.KAPPA, self.KAPPA_EX)
        assert rel_err(point.detuning, math.sqrt(3) * self.KAPPA / 2) < 1e-15
        assert rel_err(point.photon_number, self.KAPPA / (math.sqrt(3) * 0.1)) < 1e-15
        expected_flux = (2 * math.pi * self.KAPPA**3
                         / (3 * math.sqrt(3) * 0.1 * self.KAPPA_EX))
        assert rel_err(point.drive_flux, expected_flux) < 1e-15

    def test_drive_power_near_observed_threshold(self):
        power = bifurcation_drive_power(4.85e9, 0.1, self.KAPPA, self.KAPPA_EX)
        # order-of-magnitude agreement with the observed -95 dBm threshold
        assert power / watts_from_dbm(-95.0) < 3.0
        assert watts_from_dbm(-95.0) / power < 3.0

    def test_dbm_round_trip(self):
        assert rel_err(watts_from_dbm(dbm_from_watts(2.5e-13)), 2.5e-13) < 1e-12


class TestTlsModel:
    def test_low_power_limit(self):
        expected = 1.0 / (1.0 / TLS.q_other + 1.0 / TLS.q_tls0)
        assert rel_err(tls_quality_factor(0.0, TLS), expected) < 1e-12

    def test_saturated_limit(self):
        assert rel_err(tls_quality_factor(1e14, TLS), TLS.q_other) < 1e-3

    def test_calibrated_points(self):
        assert rel_err(tls_quality_factor(1.0, TLS), 1e4) < 1e-3
        assert rel_err(tls_quality_factor(1e5, TLS), 3.93e5) < 1e-3

    def test_monotone_in_photon_number(self):
        grid = np.logspace(-3, 9, 200)
        q = tls_quality_factor(grid, TLS)
        assert np.all(np.diff(q) > 0)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            TlsModel(q_tls0=0.0, n_c=1.0, alpha=1.0, q_other=1e6)
        with pytest.raises(ValueError):
            tls_quality_factor(-1.0, TLS)


class TestSinglePhotonEfficiency:
    Q_EX = 9410.9

    def test_matched_quality_factors_bound(self):
        q_in = tls_quality_factor(5.0, TLS)
        assert abs(single_photon_efficiency(TLS, q_in, 5.0) - 0.25) < 1e-12

    def test_unsaturated_efficiency(self):
        value = single_photon_efficiency(TLS, self.Q_EX, 0.0)
        assert abs(value - 0.26) <= 0.05
        assert rel_err(value, 0.2600768) < 1e-4

    def test_saturated_efficiency(self):
        value = single_photon_efficiency(TLS, self.Q_EX, 3e4)
        assert abs(value - 0.93) <= 0.03
        assert rel_err(value, 0.9318083) < 1e-4

    def test_undercoupled_limit(self):
        assert single_photon_efficiency(TLS, 1e15, 1e5) < 1e-18

    def test_rejects_non_positive_q_ex(self):
        with pytest.raises(ValueError):
            single_photon_efficiency(TLS, 0.0, 1.0)


class TestPairSweep:
    IDLER_ETAS = [0.97, 0.96, 0.95, 0.94, 0.92, 0.90, 0.86, 0.83]

    def test_ideal_pairs_at_unit_cooperativity(self):
        results = pair_sweep([(1.0, 1.0)] * 4, 1.0)
        assert results.efficiency.shape == (4,)
        assert np.all(np.abs(results.efficiency - 1.0) < 1e-12)

    def test_zero_cooperativity(self):
        results = pair_sweep([(0.9, 0.95), (1.0, 1.0)], 0.0)
        assert np.array_equal(results.efficiency, [0.0, 0.0])

    def test_measured_style_pair_set(self):
        pairs = [(0.99, eta) for eta in self.IDLER_ETAS]
        results = pair_sweep(pairs, 1.0)
        assert results.index.tolist() == list(range(len(pairs)))
        assert 0.89 <= float(np.mean(results.efficiency)) <= 0.93
        assert results.efficiency.min() > 0.8
        assert results.bound.tolist() == [eta_s * eta_i for eta_s, eta_i in pairs]
        assert np.all(results.efficiency <= results.bound + 1e-15)

    def test_bound_reached_exactly_at_unity(self):
        results = pair_sweep([(0.9, 0.7)], 1.0)
        assert rel_err(results.efficiency[0], results.bound[0]) < 1e-15

    def test_each_pair_has_the_bits_of_its_own_scattering(self):
        pairs = [(0.99, eta) for eta in self.IDLER_ETAS]
        for c in (0.0, 0.3, 1.0, 4.975482526176621):
            results = pair_sweep(pairs, c)
            assert results.efficiency.tolist() == [scattering(c, *pair).t2 for pair in pairs]
