"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, none are deferred.
"""

import json
import math

import numpy as np
import pytest

from metaring import (
    BiasState,
    LumpedCell,
    RingSpec,
    SegmentParams,
    Trace,
    UnitCell,
    analytic_mode_frequency,
    bifurcation_drive_power,
    bifurcation_point,
    calibrated_efficiency,
    cell_trace,
    conversion_bandwidth,
    conversion_mismatch,
    conversion_spectrum,
    eigenmode_frequencies,
    fit_linear_modes,
    fit_reflection_resonance,
    fractional_frequency_shift,
    free_spectral_range,
    idc_enhancement_sweep,
    interference_fringe,
    matched_bandwidth,
    mode_index_near,
    reflection_s11,
    scattering,
    single_photon_efficiency,
    solve_mode_frequency,
    taylor_coefficients,
    tls_quality_factor,
    twm_fwm_coefficients,
)
from metaring.cli import run
from metaring.config import load_config
from metaring.conversion import TlsModel, dbm_from_watts, fringe_visibility, watts_from_dbm
from metaring.dispersion import cell_matrix
from metaring.tuning import loop_energy
from conftest import rel_err


def report(number: int, message: str) -> None:
    print(f"PASS  criterion {number:2d}: {message}")


def test_criterion_01_fsr_prediction(design_ring):
    table = free_spectral_range(design_ring, (4e9, 10e9))
    assert abs(table.fsr_mean - 79e6) <= 1e6

    rescaled = design_ring.with_phase_velocity_scale(76.0 / 79.0)
    measured = free_spectral_range(rescaled, (4e9, 10e9))
    fit = fit_linear_modes(measured.m, measured.f)
    slope = fit.parameters["fsr"]
    assert rel_err(slope, 76e6) <= 0.005
    report(1, f"design FSR {table.fsr_mean/1e6:.2f} MHz (79 +/- 1); "
              f"rescaled slope {slope/1e6:.3f} MHz vs 76 ({rel_err(slope, 76e6):.2%})")


def test_criterion_02_eigen_oracle_equivalence():
    cell = LumpedCell(437e-12, 25e-6)
    worst = 0.0
    for n_cells in (4, 64, 256):
        ring = RingSpec(n_cells, cell, 0.25e-6, 57e-6)
        eig = eigenmode_frequencies(ring, island_potential=0.0)
        shifted = eigenmode_frequencies(ring, island_potential=1.0)
        assert np.max(np.abs(eig - shifted)) <= 1e-12 * np.max(eig)

        analytic = np.sort([analytic_mode_frequency(ring, m) for m in range(n_cells)])
        scale = analytic[-1]
        denom = np.maximum(analytic, 1e-3 * scale)
        worst = max(worst, float(np.max(np.abs(eig - analytic) / denom)))
        assert np.all(np.abs(eig - analytic) <= 1e-9 * denom)

        for m in range(1, (n_cells - 1) // 2 + 1):
            assert analytic_mode_frequency(ring, m) == analytic_mode_frequency(
                ring, n_cells - m
            )
            low, high = eig[2 * m - 1], eig[2 * m]
            assert abs(high - low) <= 1e-12 * high
    report(2, f"oracle == closed form for N in (4, 64, 256); worst rel {worst:.1e}")


def test_criterion_03_dispersion_closed_form(uniform_cell):
    rng = np.random.default_rng(2024)
    worst_trace = worst_det = 0.0
    for _ in range(10_000):
        cell = UnitCell(
            SegmentParams(*rng.uniform((1e-7, 1e-11, 1e-6), (1e-4, 5e-9, 1e-4))),
            SegmentParams(*rng.uniform((1e-7, 1e-11, 1e-6), (1e-4, 5e-9, 1e-4))),
        )
        f = float(rng.uniform(0.0, 3e10))
        matrix = cell_matrix(cell, f)
        worst_trace = max(worst_trace, abs(cell_trace(cell, f) - matrix.trace().real / 2))
        worst_det = max(worst_det, abs(matrix.determinant() - 1.0))
    assert worst_trace <= 1e-10
    assert worst_det <= 1e-10

    n_cells = 100_000
    ring = RingSpec(
        cell_count=n_cells,
        segment1=LumpedCell(437e-12, 30e-6),
        geometric_inductance_per_length=28.5e-6,
        kinetic_inductance_per_length=28.5e-6,
    )
    worst_uniform = 0.0
    for m in (1, 3, 10, 20):
        bloch = solve_mode_frequency(uniform_cell, n_cells, m)
        lumped = analytic_mode_frequency(ring, m)
        worst_uniform = max(worst_uniform, rel_err(bloch, lumped))
    assert worst_uniform <= 1e-6
    report(3, f"trace identity {worst_trace:.1e}, det {worst_det:.1e} over 1e4 samples; "
              f"uniform-limit mismatch {worst_uniform:.1e}")


def test_criterion_04_mismatch_targets(bloch_cell):
    n_cells = 3200
    m = mode_index_near(bloch_cell, n_cells, 5e9)
    d5 = conversion_mismatch(bloch_cell, n_cells, m, 5).delta_f
    d30 = conversion_mismatch(bloch_cell, n_cells, m, 30).delta_f
    assert abs(d5 - 16e3) <= 0.3 * 16e3
    assert abs(d30 - 586e3) <= 0.3 * 586e3

    ratios = [1.0, 1.5, 2.0, 2.5, 3.0]
    points = idc_enhancement_sweep(bloch_cell, n_cells, 5e9, [1e9, 2e9, 3e9], ratios)
    targets = {1e9: 562e3, 2e9: 2.383e6, 3e9: 5.263e6}
    for offset, target in targets.items():
        series = points.delta_f[points.offset == offset].tolist()
        assert abs(series[-1] - target) <= 0.3 * target
        assert all(b > a for a, b in zip(series, series[1:]))  # strictly monotone
    at3 = dict(zip(points.offset[points.ratio == 3.0].tolist(),
                   points.delta_f[points.ratio == 3.0].tolist()))
    report(4, f"mismatch {d5/1e3:.1f}/{d30/1e3:.1f} kHz (targets 16/586 +/-30%); "
              f"ratio-3 {at3[1e9]/1e3:.0f} kHz/{at3[2e9]/1e6:.3f} MHz/{at3[3e9]/1e6:.3f} MHz")


def test_criterion_05_tuning_law(microloop, symmetric_loop):
    b1 = BiasState.from_field(microloop, 7e-5)
    b2 = BiasState.from_field(microloop, 14e-5)
    s1 = fractional_frequency_shift(microloop, b1)
    s2 = fractional_frequency_shift(microloop, b2)
    assert rel_err(s2, 4.0 * s1) <= 1e-12

    bias = BiasState(external_field=0.0, dc_current=1e-4)
    assert rel_err(
        fractional_frequency_shift(microloop, bias),
        0.5 * fractional_frequency_shift(symmetric_loop, bias),
    ) <= 1e-12

    peak = BiasState.from_field(microloop, 2e-4)
    shift = fractional_frequency_shift(microloop, peak)
    assert abs(shift + 0.0083) < 1e-6
    top_band = abs(shift) * 9.40e9
    octave_down = abs(shift) * 4.85e9
    assert top_band >= 76e6
    assert 0.49 <= octave_down / 76e6 <= 0.53
    report(5, f"quadratic+linear law; max shift {shift:.4%}: {top_band/1e6:.1f} MHz at "
              f"9.40 GHz, {octave_down/76e6:.1%} of the 76 MHz spacing at 4.85 GHz")


def test_criterion_06_nonlinear_coefficients(microloop, symmetric_loop):
    poly = lambda x: 1.0 - 2.0 * x + 0.25 * x**2 + 1.7 * x**3 + 0.9 * x**4
    c3, c4 = taylor_coefficients(poly, scale=1.0)
    assert rel_err(c3, 1.7) <= 1e-8
    assert rel_err(c4, 0.9) <= 1e-8

    biased = BiasState(external_field=0.0, dc_current=2e-4)
    unbiased = BiasState(external_field=0.0, dc_current=0.0)
    for loop, bias in ((symmetric_loop, biased), (microloop, unbiased)):
        coeffs = twm_fwm_coefficients(loop, bias)
        scale = abs(coeffs.fwm) * loop.i_star_narrow
        assert abs(coeffs.twm) <= 1e-12 * scale
        c3_num, c4_num = taylor_coefficients(
            lambda x: loop_energy(x, loop, bias), scale=0.2 * loop.i_star_narrow
        )
        assert abs(c3_num) <= 1e-12 * scale

    probe = BiasState(external_field=0.0, dc_current=0.1 * microloop.i_star_narrow)
    coeffs = twm_fwm_coefficients(microloop, probe)
    c3_num, c4_num = taylor_coefficients(
        lambda x: loop_energy(x, microloop, probe),
        scale=0.2 * (microloop.i_star_narrow - probe.dc_current),
    )
    rel_c3 = abs(c3_num - coeffs.twm) / abs(coeffs.twm)
    rel_c4 = abs(c4_num - coeffs.fwm) / abs(coeffs.fwm)
    report(6, "cubic/quartic zero checks pass; closed form vs numeric expansion at "
              f"(gamma=0.5, I_dc=0.1 I2*): dT={rel_c3:.2e}, dF={rel_c4:.2e} "
              "(expansion coefficients equal the closed forms directly, with no "
              "extra narrow-wire inductance factor)")


def test_criterion_07_scattering():
    balanced = 3.0 - 2.0 * math.sqrt(2.0)
    assert abs(scattering(balanced, 1.0, 1.0).t2 - 0.5) <= 1e-12

    grid = np.linspace(0.5, 2.0, 3001)
    t2 = np.array([scattering(float(c), 1.0, 1.0).t2 for c in grid])
    assert grid[int(np.argmax(t2))] == pytest.approx(1.0, abs=1e-3)

    for log_c in np.linspace(-4, 4, 33):
        c = 10.0**log_c
        assert abs(scattering(c, 1.0, 1.0).t2 - scattering(1.0 / c, 1.0, 1.0).t2) <= 1e-12

    peak = scattering(1.0, 0.99, 0.98).t2
    assert abs(peak - 0.9702) <= 1e-12
    assert abs(peak - 0.985) <= 0.02
    report(7, f"balanced point 0.5 exact; peak at C=1; self-dual; "
              f"t2(1, 0.99, 0.98) = {peak:.4f} vs measured 0.985 +/- 0.008")


def test_criterion_08_spectrum_consistency(default_config_path):
    config = load_config(default_config_path)
    params = config.converter
    t2_0, r2_0 = conversion_spectrum(0.0, params)
    flat = scattering(1.0, params.eta_s, params.eta_i)
    assert abs(t2_0 - flat.t2) <= 1e-12
    assert abs(r2_0 - flat.r2) <= 1e-12

    numeric = conversion_bandwidth(params)
    closed = matched_bandwidth(params.kappa_s, 1.0)
    assert rel_err(numeric, closed) <= 1e-3
    assert rel_err(numeric, 130e3) <= 1e-3
    report(8, f"spectrum(0) == flat scattering; bandwidth {numeric/1e3:.2f} kHz "
              f"(closed form {closed/1e3:.2f} kHz, calibration target 130 kHz)")


def test_criterion_09_interference():
    amp = math.sqrt(0.5)
    peak = interference_fringe(0.0, amp, amp)
    assert abs(10 * math.log10(peak) - 3.01) <= 0.01

    d = 0.01
    s = math.sqrt(2.0 - d * d)
    r, t = (s + d) / 2.0, (s - d) / 2.0
    null = interference_fringe(math.pi, r, t)
    assert abs(10 * math.log10(null) - (-40.0)) <= 1e-3
    assert abs(fringe_visibility(r, t) - 0.9999) <= 1e-6

    for phi in np.linspace(0, 2 * math.pi, 9):
        assert abs(
            interference_fringe(float(phi) + 2 * math.pi, r, t)
            - interference_fringe(float(phi), r, t)
        ) <= 1e-12
    report(9, f"50:50 peak +{10*math.log10(peak):.2f} dB; 1% imbalance null "
              f"{10*math.log10(null):.1f} dB, visibility {fringe_visibility(r, t):.4%}; "
              "period 2*pi")


def test_criterion_10_calibration_identity():
    rng = np.random.default_rng(99)
    t2 = 0.87
    worst = 0.0
    for _ in range(200):
        gs_in, gs_out, gi_in, gi_out = rng.uniform(0.01, 100.0, size=4)
        s_is = math.sqrt(gs_in * gi_out * t2)
        s_si = math.sqrt(gi_in * gs_out * t2)
        s_ss = math.sqrt(gs_in * gs_out)
        s_ii = math.sqrt(gi_in * gi_out)
        worst = max(worst, abs(calibrated_efficiency(s_is, s_si, s_ss, s_ii) - t2))
    assert worst <= 1e-12
    report(10, f"on-chip efficiency recovered through random path gains, worst {worst:.1e}")


def test_criterion_11_kerr_bifurcation():
    kappa = 4.85e9 / 3.9e4          # total linewidth of the 4.85 GHz mode [Hz]
    kappa_ex = 0.94 * kappa
    kerr = 0.1                      # Hz, the angular 2*pi*0.1 rad/s
    point = bifurcation_point(kerr, kappa, kappa_ex)

    two_pi = 2.0 * math.pi
    k_ang, kap_ang, kex_ang = two_pi * kerr, two_pi * kappa, two_pi * kappa_ex

    def drive_flux(n, delta_ang):
        return n * ((kap_ang / 2.0) ** 2 + (delta_ang - k_ang * n) ** 2) / kex_ang

    def flux_slope(n, delta_ang):
        h = 1e-7 * n
        return (drive_flux(n + h, delta_ang) - drive_flux(n - h, delta_ang)) / (2 * h)

    def min_flux_slope(delta_ang):
        # smallest d(flux)/dn over n, via ternary search on a numeric derivative
        lo, hi = 1.0, 1e9
        for _ in range(200):
            third = (hi - lo) / 3.0
            if flux_slope(lo + third, delta_ang) < flux_slope(hi - third, delta_ang):
                hi = hi - third
            else:
                lo = lo + third
        return flux_slope(0.5 * (lo + hi), delta_ang), 0.5 * (lo + hi)

    lo, hi = two_pi * 0.5 * kappa, two_pi * 2.0 * kappa
    assert min_flux_slope(lo)[0] > 0 and min_flux_slope(hi)[0] < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if min_flux_slope(mid)[0] > 0:
            lo = mid
        else:
            hi = mid
    delta_scanned = 0.5 * (lo + hi) / two_pi
    assert rel_err(delta_scanned, point.detuning) <= 1e-6

    # just above onset the slope has two clean zero crossings; their midpoint
    # tracks the critical photon number to first order in the detuning excess
    delta_probe = 0.5 * (lo + hi) * (1.0 + 1e-7)
    _, n_arg = min_flux_slope(delta_probe)

    def slope_root(n_inside, direction):
        outside = n_inside
        while flux_slope(outside, delta_probe) < 0:
            outside *= direction
        a, b = sorted((n_inside, outside))
        for _ in range(200):
            mid = 0.5 * (a + b)
            if (flux_slope(mid, delta_probe) < 0) == (flux_slope(a, delta_probe) < 0):
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    n_scanned = 0.5 * (slope_root(n_arg, 0.5) + slope_root(n_arg, 2.0))
    assert rel_err(n_scanned, point.photon_number) <= 1e-6

    power = bifurcation_drive_power(4.85e9, kerr, kappa, kappa_ex)
    target = watts_from_dbm(-95.0)
    assert power / target <= 3.0 and target / power <= 3.0
    report(11, f"scanned onset ({delta_scanned/1e3:.3f} kHz, n={n_scanned:.0f}) matches "
               f"discriminant point to 1e-6; threshold {dbm_from_watts(power):.1f} dBm "
               "vs observed -95 dBm (factor "
               f"{max(power/target, target/power):.2f} <= 3)")


def test_criterion_12_tls_single_photon():
    tls = TlsModel(q_tls0=9891.0, n_c=23.35, alpha=1.0, q_other=1e6)
    assert rel_err(tls_quality_factor(1.0, tls), 1e4) <= 2e-3
    assert rel_err(tls_quality_factor(1e5, tls), 3.93e5) <= 2e-3

    q_matched = tls_quality_factor(7.0, tls)
    assert abs(single_photon_efficiency(tls, q_matched, 7.0) - 0.25) <= 1e-12

    q_ex = 9410.9
    dark = single_photon_efficiency(tls, q_ex, 0.0)
    saturated = single_photon_efficiency(tls, q_ex, 3e4)
    assert abs(dark - 0.26) <= 0.05
    assert abs(saturated - 0.93) <= 0.03
    report(12, f"Q_in(1)~1e4, Q_in(1e5)~3.93e5; matched-Q bound 0.25 exact; "
               f"single-photon efficiency {dark:.3f} -> {saturated:.3f} with saturation")


def test_criterion_13_fit_round_trips():
    f0, q_in, q_ex = 4.85e9, 3.93e5, 2.51e4
    freq = np.linspace(f0 - 0.75e6, f0 + 0.75e6, 6001)
    f_ref = float(np.median(freq))
    clean = reflection_s11(freq, f0, q_in, q_ex, amplitude=0.8, phase_offset=0.3,
                           delay=1e-9, reference_frequency=f_ref)

    exact = fit_reflection_resonance(Trace(frequency=freq, response=clean))
    for key, true in (("f0", f0), ("q_in", q_in), ("q_ex", q_ex)):
        assert rel_err(exact.parameters[key], true) <= 1e-8

    noise = 0.01 * 0.8
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        z = clean + noise * (rng.standard_normal(freq.size)
                             + 1j * rng.standard_normal(freq.size))
        result = fit_reflection_resonance(Trace(frequency=freq, response=z))
        hits += all(
            rel_err(result.parameters[key], true) <= 0.01
            for key, true in (("f0", f0), ("q_in", q_in), ("q_ex", q_ex))
        )
    assert hits >= 95
    report(13, f"noiseless recovery <= 1e-8; 1% noise: {hits}/100 seeds within 1%")


def test_criterion_14_determinism(default_config_path, tmp_path):
    first = run("sweep", default_config_path, tmp_path / "a")
    second = run("sweep", default_config_path, tmp_path / "b")
    assert first.config_hash == second.config_hash
    mismatched = [
        name for name in first.output_paths
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    assert mismatched == []
    a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    a.pop("timestamp"); b.pop("timestamp")
    assert a == b
    report(14, f"{len(first.output_paths)} data files byte-identical across repeated runs")
