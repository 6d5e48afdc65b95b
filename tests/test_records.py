"""The record types: immutable named tuples, and every construction check
intact, on construction and on ``_replace``."""

import inspect
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from metaring import cli, config, conversion, core, dispersion, fitting, modes, tuning
from metaring.cli import validate_config
from metaring.config import load_config

MODULES = (core, modes, dispersion, tuning, conversion, fitting, config, cli)

RECORDS = (
    core.SegmentParams, core.LumpedCell, core.RingSpec, core.MicroloopSpec, core.BiasState,
    modes.ModeTable, dispersion.TwoPortMatrix, dispersion.UnitCell,
    dispersion.FsrCurve, dispersion.MismatchReport, dispersion.EnhancementPoint,
    tuning.NonlinearCoefficients,
    conversion.ConverterParams, conversion.ScatteringResult, conversion.KerrSteadyState,
    conversion.BifurcationPoint, conversion.TlsModel, conversion.PairEfficiency,
    fitting.Trace, fitting.FitResult, config.KerrScenario, config.FringeScenario,
    config.Config, config._Section, cli.RunManifest,
)
# what else the modules define: the fields of Trace, whose own __new__ turns
# them into arrays, and two private helpers
HELPERS = {fitting._TraceFields, dispersion._CellRows, config._JsonObject}


def test_every_class_is_a_record_an_error_or_a_helper():
    defined = {value for module in MODULES for value in vars(module).values()
               if inspect.isclass(value) and value.__module__ == module.__name__
               and not issubclass(value, Exception)}
    assert defined == set(RECORDS) | HELPERS


@pytest.fixture(scope="module")
def samples(default_config_path):
    cfg = load_config(default_config_path)
    loop, cell, n_cells = cfg.microloop, cfg.cell, cfg.ring.cell_count
    bias = core.BiasState.from_field(loop, 1e-4)
    trace = fitting.Trace.from_csv(cfg.fit_trace)
    m = dispersion.mode_index_near(cell, n_cells, 5e9)
    return {
        core.SegmentParams: cell.segment1,
        core.LumpedCell: cfg.ring.segment1,
        core.RingSpec: cfg.ring,
        core.MicroloopSpec: loop,
        core.BiasState: bias,
        modes.ModeTable: modes.free_spectral_range(cfg.ring, (4e9, 5e9)),
        dispersion.TwoPortMatrix: dispersion.segment_abcd(cell.segment1, 5e9),
        dispersion.UnitCell: cell,
        dispersion.FsrCurve: dispersion.fsr_curve(cell, n_cells, (4e9, 5e9)),
        dispersion.MismatchReport: dispersion.conversion_mismatch(cell, n_cells, m, 2),
        dispersion.EnhancementPoint: dispersion.idc_enhancement_sweep(
            cell, n_cells, 5e9, [2e8], [1.0]),
        tuning.NonlinearCoefficients: tuning.twm_fwm_coefficients(loop, bias),
        conversion.ConverterParams: cfg.converter,
        conversion.ScatteringResult: conversion.scattering(1.0, 0.9, 0.9),
        conversion.KerrSteadyState: conversion.kerr_steady_state(0.0, 1e10, 0.1, 1e5, 9e4),
        conversion.BifurcationPoint: conversion.bifurcation_point(0.1, 1e5, 9e4),
        conversion.TlsModel: conversion.TlsModel(9891.0, 23.35, 1.0, 1e6),
        conversion.PairEfficiency: conversion.pair_sweep([(0.99, 0.97)], 1.0),
        fitting.Trace: trace,
        fitting.FitResult: fitting.fit_reflection_resonance(trace),
        config.KerrScenario: cfg.kerr,
        config.FringeScenario: cfg.fringe,
        config.Config: cfg,
        config._Section: config._SCHEMA,
        cli.RunManifest: cli.RunManifest("modes", cfg.config_hash, None, [], ""),
    }


# valid fields of each validated named tuple: the records built from input;
# a result is a plain record
_SEGMENT = dict(inductance_per_length=57e-6, capacitance_per_length=437e-12, length=25e-6)
GOOD = {
    core.SegmentParams: _SEGMENT,
    core.LumpedCell: dict(capacitance_per_length=437e-12, length=25e-6),
    core.RingSpec: dict(cell_count=3200, segment1=core.LumpedCell(437e-12, 30e-6),
                        geometric_inductance_per_length=0.25e-6,
                        kinetic_inductance_per_length=57e-6),
    dispersion.UnitCell: dict(segment1=core.SegmentParams(**_SEGMENT),
                              segment2=core.SegmentParams(3e-6, 880e-12, 5e-6)),
    core.MicroloopSpec: dict(width_ratio=0.5, gap=1e-6, loop_dc_inductance=1e-6,
                             inductance_wide=1e-9, inductance_narrow=2e-9,
                             i_star_wide=1e-3, i_star_narrow=0.5e-3),
    core.BiasState: dict(external_field=0.0, dc_current=1e-4),
    conversion.ConverterParams: dict(kappa_s=1e5, kappa_i=1e5, eta_s=0.9, eta_i=0.9, p0_norm=1.0),
    conversion.TlsModel: dict(q_tls0=9891.0, n_c=23.35, alpha=1.0, q_other=1e6),
    fitting.Trace: dict(frequency=np.arange(6.0), response=np.ones(6, dtype=complex)),
    config.KerrScenario: dict(rate_hz=0.1, quality_factor=39e3, coupling_efficiency=0.94,
                              frequency_hz=4.85e9),
    config.FringeScenario: dict(cooperativity=0.2, eta_s=1.0, eta_i=1.0),
}

_SPECTRUM_BOUND = ("linewidths and cooperativity must keep the conversion spectrum finite at "
                   "zero detuning, where its denominator is (kappa_s kappa_i (1 + C)/4)^2")

# record -> [(bad fields, the message that construction and _replace raise)]
BAD = {
    core.SegmentParams: [
        (dict(inductance_per_length=0.0),
         "inductance_per_length must be a finite positive number, got 0.0"),
        (dict(capacitance_per_length=-1e-10),
         "capacitance_per_length must be a finite positive number, got -1e-10"),
        (dict(length=math.inf), "length must be a finite positive number, got inf"),
        (dict(inductance_per_length=1e-200, capacitance_per_length=1e-200),
         "inductance_per_length and capacitance_per_length must keep L C and L/C positive "
         "and finite, got L C = 0.0 and L/C = 1.0"),
        (dict(inductance_per_length=1e-300, capacitance_per_length=1e100),
         "inductance_per_length and capacitance_per_length must keep L C and L/C positive "
         "and finite, got L C = 1e-200 and L/C = 0.0"),
    ],
    dispersion.UnitCell: [
        (dict(segment1=core.SegmentParams(57e-6, 1e160, 1e300)),
         "segment lengths and line constants must keep the cell delay and 1/(2 cell delay) "
         "positive and finite, got cell delay = inf"),
        # 1/(2 cell delay) is about 3e307 Hz, and 2 pi times it overflows
        (dict(segment1=core.SegmentParams(57e-6, 437e-12, 1e-301),
              segment2=core.SegmentParams(3e-6, 880e-12, 1e-302)),
         "each segment's wave number 2 pi f/v at the bracket top f = 1/(2 cell delay) "
         "must be positive and finite, got [inf, inf]"),
    ],
    core.RingSpec: [
        (dict(cell_count=2), "cell_count must be an integer >= 3, got 2"),
        (dict(cell_count=3200.0), "cell_count must be an integer >= 3, got 3200.0"),
        (dict(cell_count=2**63), "cell_count: must be below 2**63, got 9223372036854775808"),
        (dict(geometric_inductance_per_length=-1.0),
         "geometric_inductance_per_length must be a finite positive number, got -1.0"),
        (dict(kinetic_inductance_per_length=math.nan),
         "kinetic_inductance_per_length must be a finite positive number, got nan"),
        (dict(segment1=core.LumpedCell(1e-10, 1e-300)),
         "segment1.length: too short for the lumped cell model: "
         "the cell's L_0 C_0 underflows to 0"),
        (dict(segment1=core.LumpedCell(437e-12, 1e300)),
         "segment1.length: too long for the lumped cell model: "
         "the cell's L_0 C_0 overflows to inf"),
    ],
    core.MicroloopSpec: [
        (dict(width_ratio=1.5), "width_ratio must satisfy 0 < gamma <= 1, got 1.5"),
        (dict(gap=-1.0), "gap must be a finite positive number, got -1.0"),
        (dict(inductance_narrow=1.9e-9), "inductance_narrow must equal "
         "inductance_wide/width_ratio (expected 2e-09, got 1.9e-09)"),
        (dict(i_star_narrow=0.6e-3), "i_star_narrow must equal width_ratio*i_star_wide "
         "(expected 0.0005, got 0.0006)"),
    ],
    core.BiasState: [(dict(dc_current=np.array([0.0, np.inf])), "bias fields must be finite")],
    conversion.ConverterParams: [
        (dict(kappa_i=0.0), "linewidths must be positive"),
        (dict(eta_i=1.5), "eta_i must lie in [0, 1], got 1.5"),
        (dict(p0_norm=-1.0), "p0_norm must be non-negative"),
        (dict(p0_norm=math.inf), "p0_norm must be finite"),
        # kappa_s kappa_i overflows, then underflows, in the spectrum at zero detuning
        (dict(kappa_s=1e308, kappa_i=1e308, eta_s=1.0, eta_i=1.0), _SPECTRUM_BOUND),
        (dict(kappa_s=1e-200, kappa_i=1e-200, eta_s=1.0, eta_i=1.0), _SPECTRUM_BOUND),
        (dict(p0_norm=1e160), "p0_norm: must keep (1 + C)^2 of the conversion law "
         "4C/(1 + C)^2 finite, got C = 1e+160"),
    ],
    conversion.TlsModel: [(dict(alpha=0.0), "all TLS model parameters must be positive")],
    fitting.Trace: [
        (dict(response=np.ones(5)), "frequency and response must be 1-D and equally long"),
        (dict(frequency=np.arange(4.0), response=np.ones(4)),
         "a trace needs at least 5 points"),
        (dict(response=np.array([1.0, 1.0, np.nan, 1.0, 1.0, 1.0])),
         "trace frequencies and responses must be finite"),
        (dict(frequency=np.array([0.0, 1.0, 3.0, 2.0, 4.0, 5.0])),
         "frequencies must be strictly increasing"),
    ],
    config.KerrScenario: [
        (dict(quality_factor=-1.0), "kerr rate, quality factor and frequency must be positive"),
        (dict(coupling_efficiency=1.5), "coupling_efficiency must lie in (0, 1]"),
        (dict(coupling_efficiency=1e-300), "coupling_efficiency: must keep the critical "
         "drive power 2 pi h f kappa^3/(3 sqrt(3) rate_hz kappa_ex) positive and finite"),
        # kappa = 0.1 Hz and kappa_ex underflows to 0: the drive power is refused, not NaN
        (dict(rate_hz=0.01, quality_factor=1e4, frequency_hz=1e3, coupling_efficiency=5e-324),
         "coupling_efficiency: must keep the critical drive power 2 pi h f kappa^3/"
         "(3 sqrt(3) rate_hz kappa_ex) positive and finite"),
    ],
    core.LumpedCell: [
        (dict(capacitance_per_length=-1e-10),
         "capacitance_per_length must be a finite positive number, got -1e-10"),
        (dict(length=math.inf), "length must be a finite positive number, got inf"),
    ],
    config.FringeScenario: [
        (dict(cooperativity=-1.0), "cooperativity must be non-negative"),
        (dict(eta_i=1.5), "fringe eta values must lie in [0, 1]"),
        (dict(cooperativity=1e160), "cooperativity: must keep (1 + C)^2 of the conversion "
         "law 4C/(1 + C)^2 finite, got C = 1e+160"),
    ],
}


def test_only_input_records_run_checks():
    inputs = {core.SegmentParams, core.LumpedCell, core.RingSpec, core.MicroloopSpec,
              core.BiasState, dispersion.UnitCell, conversion.ConverterParams,
              conversion.TlsModel, fitting.Trace, config.KerrScenario, config.FringeScenario}
    assert {record for record in RECORDS if hasattr(record, "_check")} == inputs == set(GOOD)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_record_contract(samples, record):
    sample = samples[record]
    assert type(sample) is record
    assert issubclass(record, tuple)
    # a string annotation costs a compile per field when the class is made
    assert not any(isinstance(t, str) for t in record.__annotations__.values())
    assert sample._replace() == sample
    for name in (*record._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(sample, name, 1.0)
    if record in GOOD:
        good = record(**GOOD[record])
        assert good._replace() == good
    for bad, message in BAD.get(record, ()):
        for build in (lambda: record(**{**GOOD[record], **bad}), lambda: good._replace(**bad)):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message


def test_cli_import_leaves_out_dataclasses():
    code = "import sys, metaring.cli; print(sorted({'dataclasses', 'copy'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout == "[]\n"


def test_trace_stores_float_arrays():
    trace = fitting.Trace(frequency=[1, 2, 3, 4, 5], response=[1j, 1, 1, 1, 1])
    assert trace.frequency.dtype == float and trace.response.dtype == complex
    assert type(trace._replace(frequency=[2, 3, 4, 5, 6]).frequency) is np.ndarray


@pytest.mark.parametrize("keys, value, violation", [
    (("converter", "kerr", "quality_factor"), -1.0,
     "converter.kerr: kerr rate, quality factor and frequency must be positive"),
    (("converter", "kerr", "coupling_efficiency"), 1.5,
     "converter.kerr: coupling_efficiency must lie in (0, 1]"),
    (("converter", "fringe", "eta_i"), 1.5,
     "converter.fringe: fringe eta values must lie in [0, 1]"),
    (("converter", "fringe", "cooperativity"), -1.0,
     "converter.fringe: cooperativity must be non-negative"),
    (("converter", "eta_s"), 1.5, "converter: eta_s must lie in [0, 1], got 1.5"),
    (("converter", "kappa_i"), 0.0, "converter: linewidths must be positive"),
    (("device", "microloop", "gap"), -1.0,
     "device.microloop: gap must be a finite positive number, got -1.0"),
])
def test_config_error_names_the_section(tmp_path, default_config_path, keys, value, violation):
    raw = json.loads(default_config_path.read_text())
    node = raw
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    shutil.copy(default_config_path.parent / "trace_s11.csv", tmp_path / "trace_s11.csv")
    assert validate_config(path) == [violation]


def test_records_copy_and_export_as_named_tuples(default_config_path):
    cfg = load_config(default_config_path)
    doubled = cfg.converter._replace(p0_norm=2.0)
    assert doubled.p0_norm == 2.0 and doubled._replace(p0_norm=1.0) == cfg.converter
    assert cfg.kerr._asdict() == {"rate_hz": 0.1, "quality_factor": 39000.0,
                                  "coupling_efficiency": 0.94, "frequency_hz": 4.85e9}
    assert cfg.kerr.kappa == 4.85e9 / 39000.0
