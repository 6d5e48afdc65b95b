"""A NaN argument is refused with the message its finite bad value gets.

Each refusal is written so that NaN fails its test (``not x > 0`` rather
than ``x <= 0``), so no NaN slips past a check into a NaN result.  Where
every finite value is good (a detuning), an infinite one is the bad value;
an infinite bad value elsewhere checks that infinity is refused too.
"""

import json
import math
import sys

import numpy as np
import pytest

from conftest import CONFIG_DIR
from metaring import conversion, dispersion, fitting, tuning
from metaring.cli import validate_config
from metaring.core import BiasState, MicroloopSpec, SegmentParams
from metaring.errors import PrecisionError

SEGMENT = SegmentParams(57e-6, 289e-12, 25e-6)
CELL = dispersion.UnitCell(segment1=SEGMENT, segment2=SegmentParams(3e-6, 880e-12, 5e-6))
LOOP = MicroloopSpec(width_ratio=0.5, gap=1e-6, loop_dc_inductance=1.1e-6,
                     inductance_wide=1.425e-9, inductance_narrow=2.85e-9,
                     i_star_wide=2e-3, i_star_narrow=1e-3)
TLS = conversion.TlsModel(9891.0, 23.35, 1.0, 1e6)
RATES = (0.1, 1e5, 9e4)  # kerr_rate, kappa, kappa_ex [Hz]


def converter(**fields):
    return conversion.ConverterParams(**{**dict(kappa_s=1e5, kappa_i=1e5, eta_s=0.9, eta_i=0.9,
                                                p0_norm=1.0), **fields})


def replaced(values, index, x):
    return (*values[:index], x, *values[index + 1:])


def line_fit(bounds=((-math.inf, -math.inf), (math.inf, math.inf)), names=("a", "b"),
             scales=(1.0, 1.0)):
    """least_squares of a line from the start (1, 0), every option free but the one given."""
    x = np.arange(10.0)
    return fitting.least_squares(lambda p, xx: p[0] * xx + p[1], (x, 3.5 * x + 1.25), [1.0, 0.0],
                                 bounds, names, scales,
                                 jac=lambda p, xx, _: np.column_stack([xx, np.ones_like(xx)]))


# id -> (call of one value, a value the call refuses, finite where one is)
CASES = {
    "converter_kappa_s": (lambda x: converter(kappa_s=x), 0.0),
    "converter_kappa_i": (lambda x: converter(kappa_i=x), 0.0),
    "converter_p0_norm": (lambda x: converter(p0_norm=x), -1.0),
    **{f"tls_{name}": (lambda x, j=j: conversion.TlsModel(*replaced(TLS, j, x)), 0.0)
       for j, name in enumerate(conversion.TlsModel._fields)},
    "kerr_flux": (lambda x: conversion.kerr_steady_state(0.0, x, *RATES), -1.0),
    "kerr_flux_infinite": (lambda x: conversion.kerr_steady_state(0.0, x, *RATES), math.inf),
    "kerr_flux_entry": (lambda x: conversion.kerr_steady_state(0.0, np.array([1e10, x]), *RATES),
                        -1.0),
    "kerr_detuning": (lambda x: conversion.kerr_steady_state(x, 1e10, *RATES), math.inf),
    "kerr_detuning_negative": (lambda x: conversion.kerr_steady_state(x, 1e10, *RATES),
                               -math.inf),
    **{f"kerr_{name}": (lambda x, j=j: conversion.kerr_steady_state(
        0.0, 1e10, *replaced(RATES, j, x)), bad)
       for j, (name, bad) in enumerate([("kerr_rate", -1.0), ("kappa", 0.0),
                                         ("kappa_ex", -1.0)])},
    **{f"kerr_{name}_infinite": (lambda x, j=j: conversion.kerr_steady_state(
        0.0, 1e10, *replaced(RATES, j, x)), math.inf)
       for j, name in enumerate(["kerr_rate", "kappa", "kappa_ex"])},
    **{f"bifurcation_{name}": (lambda x, j=j: conversion.bifurcation_point(
        *replaced(RATES, j, x)), 0.0) for j, name in enumerate(["kerr_rate", "kappa",
                                                                  "kappa_ex"])},
    **{f"bifurcation_{name}_infinite": (lambda x, j=j: conversion.bifurcation_point(
        *replaced(RATES, j, x)), math.inf) for j, name in enumerate(["kerr_rate", "kappa",
                                                                       "kappa_ex"])},
    "bifurcation_power": (lambda x: conversion.bifurcation_drive_power(4.85e9, x, 1e5, 9e4), 0.0),
    "bifurcation_frequency": (lambda x: conversion.bifurcation_drive_power(x, *RATES), 0.0),
    "bandwidth_kappa": (lambda x: conversion.matched_bandwidth(x, 1.0), 0.0),
    "bandwidth_c": (lambda x: conversion.matched_bandwidth(1e5, x), -1.0),
    "bandwidth_kappa_infinite": (lambda x: conversion.matched_bandwidth(x, 1.0), math.inf),
    "bandwidth_c_infinite": (lambda x: conversion.matched_bandwidth(1e5, x), math.inf),
    "dbm": (conversion.dbm_from_watts, 0.0),
    "watts": (conversion.watts_from_dbm, 4000.0),
    "calibrated_is": (lambda x: conversion.calibrated_efficiency(x, 1.0, 1.0, 1.0), -1.0),
    "calibrated_si": (lambda x: conversion.calibrated_efficiency(1.0, x, 1.0, 1.0), -1.0),
    "calibrated_ss": (lambda x: conversion.calibrated_efficiency(1.0, 1.0, x, 1.0), 0.0),
    "calibrated_ii": (lambda x: conversion.calibrated_efficiency(1.0, 1.0, 1.0, x), 0.0),
    "fringe_phase": (lambda x: conversion.interference_fringe(x, 0.5, 0.5), math.inf),
    "fringe_phase_entry": (lambda x: conversion.interference_fringe(np.array([0.0, x]), 0.5, 0.5),
                           -math.inf),
    "fringe_r": (lambda x: conversion.interference_fringe(0.0, x, 0.5), -0.1),
    "fringe_t": (lambda x: conversion.interference_fringe(0.0, 0.5, x), -0.1),
    "visibility_r": (lambda x: conversion.fringe_visibility(x, 0.5), -0.5),
    "visibility_t": (lambda x: conversion.fringe_visibility(0.5, x), -0.5),
    "tls_photons": (lambda x: conversion.tls_quality_factor(x, TLS), -1.0),
    "tls_photon_entry": (lambda x: conversion.tls_quality_factor(np.array([1.0, x]), TLS), -1.0),
    "single_photon_q_ex": (lambda x: conversion.single_photon_efficiency(TLS, x, 1.0), 0.0),
    "single_photon_n_sat": (lambda x: conversion.single_photon_efficiency(TLS, 1e5, x), -1.0),
    "kinetic_inductance": (lambda x: tuning.kinetic_inductance(1e-9, 0.0, x), 0.0),
    "taylor_scale": (lambda x: tuning.taylor_coefficients(lambda e: e**4, scale=x), 0.0),
    "taylor_scale_infinite": (lambda x: tuning.taylor_coefficients(lambda e: e**4, scale=x),
                              math.inf),
    "fit_scale": (lambda x: line_fit(scales=(x, 1.0)), 0.0),
    "fit_scale_infinite": (lambda x: line_fit(scales=(1.0, x)), math.inf),
    "fit_lower_bound": (lambda x: line_fit(bounds=((x, -math.inf), (math.inf, math.inf))), 2.0),
    "fit_upper_bound": (lambda x: line_fit(bounds=((-math.inf, -math.inf), (math.inf, x))), -1.0),
    "loop_energy": (lambda x: tuning.loop_energy(x, LOOP, BiasState(0.0, 1e-4)), 1.0),
    "segment_abcd": (lambda x: dispersion.segment_abcd(SEGMENT, x), -1.0),
    "cell_trace": (lambda x: dispersion.cell_trace(CELL, x), -1.0),
    "enhancement_offset": (lambda x: dispersion.idc_enhancement_sweep(
        CELL, 3200, 5e9, [x], [1.0]), 0.0),
    "enhancement_signal": (lambda x: dispersion.idc_enhancement_sweep(
        CELL, 3200, x, [1e9], [1.0]), -1.0),
    "mode_index": (lambda x: dispersion.mode_index_near(CELL, 3200, x), -1.0),
    "mode_index_entry": (lambda x: dispersion.mode_index_near(CELL, 3200, np.array([5e9, x])),
                         -1.0),
    "fsr_curve_lo": (lambda x: dispersion.fsr_curve(CELL, 3200, (x, 9e9)), -1.0),
    "fsr_curve_hi": (lambda x: dispersion.fsr_curve(CELL, 3200, (4e9, x)), -1.0),
}


@pytest.mark.parametrize("call, bad", CASES.values(), ids=CASES)
def test_nan_gets_the_refusal_of_a_bad_value(call, bad):
    with pytest.raises(ValueError) as refused:
        call(bad)
    with pytest.raises(ValueError) as got:
        call(math.nan)
    assert str(got.value) == str(refused.value)


@pytest.mark.parametrize("modes", [lambda m: m, lambda m: np.array([5.0, m])],
                         ids=["scalar", "entry"])
def test_nan_mode_gets_the_refusal_of_a_bad_one(modes):
    # the message ends with the smallest mode, so the two agree up to it; a NaN
    # mode once ran the Newton loop to its step cap
    with pytest.raises(ValueError) as refused:
        dispersion.solve_mode_frequency(CELL, 3200, modes(0.0))
    with pytest.raises(ValueError) as got:
        dispersion.solve_mode_frequency(CELL, 3200, modes(math.nan))
    assert str(refused.value).endswith(", got 0.0")
    assert str(got.value).rsplit(", got ", 1)[0] == str(refused.value).rsplit(", got ", 1)[0]


def test_kerr_rates_have_their_own_refusal():
    # an infinite kappa_ex once got the message about the cubic's coefficients
    with pytest.raises(ValueError, match="^rates must be finite"):
        conversion.kerr_steady_state(0.0, 1e10, 0.1, 1e5, math.inf)


def test_fit_refuses_a_repeated_parameter_name():
    # unchecked, the result kept one parameter under the name and dropped the other
    with pytest.raises(ValueError, match="^param_names: every name must be distinct"):
        line_fit(names=("a", "a"))


@pytest.mark.parametrize("scale", [1e200, np.array([1.0, 1e200])])
def test_taylor_fit_of_overflowing_energies_is_a_precision_error(scale):
    # the energies overflow, so the check node's miss reads NaN
    with np.errstate(all="ignore"), pytest.raises(PrecisionError):
        tuning.taylor_coefficients(lambda e: e**4, scale=scale)


@pytest.mark.parametrize("wire, i_star_wide", [("i_star_wide", 1e-160),
                                              ("i_star_narrow", 2e-154)])
def test_i_star_whose_square_is_subnormal_is_refused(tmp_path, wire, i_star_wide):
    # T, F, c3 and c4 divide by i*^2, which would lose digits below the
    # smallest normal float; the narrow wire carries half the wide one's i*
    loop = dict(LOOP._asdict(), i_star_wide=i_star_wide, i_star_narrow=0.5 * i_star_wide)
    with pytest.raises(ValueError, match=f"^{wire}: must square to a normal float"):
        MicroloopSpec(**loop)
    raw = json.loads((CONFIG_DIR / "default.json").read_text())
    raw["device"]["microloop"].update(loop)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert validate_config(path) == [
        f"device.microloop.{wire}: must square to a normal float "
        f"(at least {sys.float_info.min!r}), got {loop[wire]!r}"]


def test_i_star_at_the_root_of_the_smallest_normal_is_accepted():
    root = math.sqrt(sys.float_info.min)
    MicroloopSpec(**dict(LOOP._asdict(), width_ratio=1.0, inductance_narrow=1.425e-9,
                         i_star_wide=root, i_star_narrow=root))
    below = math.nextafter(root, 0.0)
    with pytest.raises(ValueError, match="^i_star_wide: must square"):
        MicroloopSpec(**dict(LOOP._asdict(), width_ratio=1.0, inductance_narrow=1.425e-9,
                             i_star_wide=below, i_star_narrow=below))
