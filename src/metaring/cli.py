"""Command dispatch and deterministic file output.

    metaring <command> --config <path> --out <dir>

Commands: modes, dispersion, tune, convert, fringe, saturate, fit, sweep.
``fit`` reads the complex trace ``fit.trace_csv`` (columns f_hz, re, im).
Every command writes RFC-4180 CSV (LF line endings; each cell a number,
``true``/``false`` or empty) and/or JSON data files plus a
``manifest.json``.  Data files are byte-identical for identical (command,
config); the wall clock appears only in the manifest.

Exit codes: 0 success, 2 configuration invalid, 3 solver error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import conversion, dispersion, fitting, modes, tuning
from .config import Config, load_config, validate_config
from .errors import (
    BandEdgeError,
    ConditioningError,
    ConfigError,
    NoResonanceError,
    PrecisionError,
)

COMMANDS = ("modes", "dispersion", "tune", "convert", "fringe", "saturate", "fit", "sweep")
# rows formatted and written at a time: the cell strings of a whole scaled
# sweep column set would otherwise all be alive at once
_CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_hash: str
    trace_sha256: Optional[str]  # the fit.trace_csv bytes; None without a trace
    output_paths: List[str]
    timestamp: str


def _format_column(values: np.ndarray) -> List[str]:
    """The cells of one float, int or bool column, chosen once by dtype.

    A float is written as its shortest round-trip ``repr`` and NaN (a
    missing value) as an empty cell; a bool as ``true``/``false``.
    """
    kind = values.dtype.kind
    if kind == "f":
        cells = list(map(repr, (values + 0.0).tolist()))  # adding 0.0 writes -0.0 as 0.0
        for i in np.flatnonzero(np.isnan(values)).tolist():
            cells[i] = ""
        return cells
    if kind == "b":
        return ["true" if v else "false" for v in values.tolist()]
    if kind in "iu":
        return list(map(str, values.tolist()))
    raise TypeError(f"CSV columns hold floats, ints or bools, not {values.dtype}")


def _write_csv(path: Path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length ``columns`` (arrays or lists) under ``header``.

    A column holds floats, ints or bools, so its cells are numbers,
    ``true``/``false`` or empty: RFC-4180 quoting never applies and rows
    are joined as plain text.  Every table has at least two columns, so no
    row is a lone empty field (written ``""``).
    """
    arrays = [np.asarray(column) for column in columns]
    rows = len(arrays[0]) if arrays else 0
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, rows, _CSV_BLOCK_ROWS):
            block = [_format_column(a[start:start + _CSV_BLOCK_ROWS]) for a in arrays]
            handle.write("\n".join(map(",".join, zip(*block))) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _run_modes(config: Config, out: Path) -> List[str]:
    band = (config.sweeps["band"]["start_hz"], config.sweeps["band"]["stop_hz"])
    table = modes.free_spectral_range(config.ring, band)
    _write_csv(out / "modes.csv", ("m", "f_hz", "fsr_to_next_hz"), table.csv_columns())
    _write_json(out / "modes_summary.json", {
        "band_hz": list(band),
        "mode_count": len(table),
        "fsr_mean_hz": None if math.isnan(table.fsr_mean) else table.fsr_mean,
    })
    return ["modes.csv", "modes_summary.json"]


def _run_dispersion(config: Config, out: Path) -> List[str]:
    n_cells = config.ring.cell_count
    band = (config.sweeps["band"]["start_hz"], config.sweeps["band"]["stop_hz"])
    curve = dispersion.fsr_curve(config.cell, n_cells, band)
    _write_csv(out / "fsr_curve.csv", ("f_hz", "fsr_hz"),
               ([f for f, _ in curve], [fsr for _, fsr in curve]))
    ratio = config.sweeps["ratio"]
    points = dispersion.idc_enhancement_sweep(
        config.cell, n_cells,
        signal_f=ratio["signal_hz"],
        offsets=ratio["offsets_hz"],
        ratios=ratio["values"],
    ) if ratio["values"] and ratio["offsets_hz"] else []
    _write_csv(
        out / "mismatch.csv",
        ("ratio", "offset_hz", "delta_f_hz"),
        ([p.ratio for p in points], [p.offset for p in points], [p.delta_f for p in points]),
    )
    return ["fsr_curve.csv", "mismatch.csv"]


def _run_tune(config: Config, out: Path) -> List[str]:
    sweep = config.sweeps["field"]
    fields = np.linspace(0.0, sweep["stop_T"], sweep["points"])
    bias = tuning.BiasState.from_field(config.microloop, fields)
    shift = tuning.fractional_frequency_shift(config.microloop, bias)
    report = tuning.nonlinearity_report(config.microloop, bias)
    _write_csv(
        out / "tuning.csv",
        ("b_ext_tesla", "i_dc_amp", "df_over_f", "T", "F", "c3", "c4"),
        (fields, bias.dc_current, shift,
         report["twm"], report["fwm"], report["c3"], report["c4"]),
    )
    return ["tuning.csv"]


def _run_convert(config: Config, out: Path) -> List[str]:
    params = config.converter
    pump = config.sweeps["pump"]
    powers = np.linspace(0.0, pump["stop"], pump["points"])
    split = conversion.scattering(powers, params.eta_s, params.eta_i)
    _write_csv(out / "pump.csv", ("p0_norm", "t2", "r2"), (powers, split.t2, split.r2))

    det = config.sweeps["detuning"]
    deltas = np.linspace(-det["span_hz"] / 2.0, det["span_hz"] / 2.0, det["points"])
    t2, r2 = conversion.conversion_spectrum(deltas, params)
    _write_csv(out / "spectrum.csv", ("delta_hz", "t2", "r2"), (deltas, t2, r2))

    c = conversion.cooperativity(params)
    pairs = conversion.pair_sweep(config.pairs, c)
    _write_csv(out / "pairs.csv", ("pair_index", "eta_product", "t2"),
               ([p.index for p in pairs], [p.bound for p in pairs],
                [p.efficiency for p in pairs]))
    bandwidth = conversion.conversion_bandwidth(params) if c > 0 else None
    _write_json(out / "convert_summary.json", {
        "cooperativity": c,
        "bandwidth_hz": bandwidth,
    })
    return ["pump.csv", "spectrum.csv", "pairs.csv", "convert_summary.json"]


def _run_fringe(config: Config, out: Path) -> List[str]:
    scenario = config.fringe
    split = conversion.scattering(scenario.cooperativity, scenario.eta_s, scenario.eta_i)
    r_mag, t_mag = math.sqrt(split.r2), math.sqrt(split.t2)
    points = config.sweeps["phase"]["points"]
    phases = np.linspace(0.0, 2.0 * math.pi, points)
    power = conversion.interference_fringe(phases, r_mag, t_mag)
    _write_csv(out / "fringe.csv", ("phi_rad", "p_ratio"), (phases, power))
    _write_json(out / "fringe_summary.json", {
        "r_mag": r_mag,
        "t_mag": t_mag,
        "visibility": conversion.fringe_visibility(r_mag, t_mag),
    })
    return ["fringe.csv", "fringe_summary.json"]


def _run_saturate(config: Config, out: Path) -> List[str]:
    scenario = config.kerr
    kappa, kappa_ex = scenario.kappa, scenario.kappa_ex
    critical = conversion.bifurcation_point(scenario.rate_hz, kappa, kappa_ex)
    power_w = conversion.bifurcation_drive_power(
        scenario.frequency_hz, scenario.rate_hz, kappa, kappa_ex
    )
    # sweep drive through the bistable window at twice the critical detuning
    detuning = 2.0 * critical.detuning
    pump = config.sweeps["pump"]
    drive_ratios = np.linspace(0.0, pump["stop"], pump["points"])
    state = conversion.kerr_steady_state(
        detuning, drive_ratios * critical.drive_flux, scenario.rate_hz, kappa, kappa_ex,
    )
    _write_csv(
        out / "saturation.csv",
        ("drive_over_critical", "drive_w", "n_low", "n_mid", "n_high", "bifurcated"),
        (drive_ratios, drive_ratios * power_w, *state.photon_numbers.T, state.bifurcated),
    )
    _write_json(out / "kerr_summary.json", {
        "kappa_hz": kappa,
        "kappa_ex_hz": kappa_ex,
        "critical_detuning_hz": critical.detuning,
        "critical_photon_number": critical.photon_number,
        "critical_drive_flux_per_s": critical.drive_flux,
        "critical_drive_power_w": power_w,
        "critical_drive_power_dbm": conversion.dbm_from_watts(power_w),
    })
    return ["saturation.csv", "kerr_summary.json"]


def _run_fit(config: Config, out: Path) -> List[str]:
    if config.fit_trace is None:
        raise ConfigError(["fit.trace_csv: required for the fit command"])
    trace = fitting.Trace.from_csv(config.fit_trace)
    result = fitting.fit_reflection_resonance(trace)
    payload = result.to_dict()
    payload["coupling_fraction"] = fitting.coupling_fraction(result)
    _write_json(out / "fit_result.json", payload)
    return ["fit_result.json"]


_RUNNERS = {
    "modes": _run_modes,
    "dispersion": _run_dispersion,
    "tune": _run_tune,
    "convert": _run_convert,
    "fringe": _run_fringe,
    "saturate": _run_saturate,
    "fit": _run_fit,
}


def run(command: str, config_path, out_dir) -> RunManifest:
    """Execute one command, write its outputs plus a manifest."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}; expected one of {COMMANDS}")
    config = load_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = COMMANDS[:-1] if command == "sweep" else (command,)
    outputs: List[str] = []
    for name in names:
        if command == "sweep" and name == "fit" and config.fit_trace is None:
            continue
        outputs.extend(_RUNNERS[name](config, out))
    trace_sha256 = None
    if config.fit_trace is not None:
        trace_sha256 = hashlib.sha256(config.fit_trace.read_bytes()).hexdigest()
    manifest = RunManifest(
        command=command,
        config_hash=config.config_hash,
        trace_sha256=trace_sha256,
        output_paths=sorted(outputs),
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    _write_json(out / "manifest.json", asdict(manifest))
    return manifest


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="metaring",
        description="Meta-ring frequency-converter simulation and fitting toolkit",
    )
    parser.add_argument("command", choices=COMMANDS + ("validate",))
    parser.add_argument("--config", required=True, help="JSON configuration path")
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            violations = validate_config(args.config)
            for violation in violations:
                print(violation, file=sys.stderr)
            return 2 if violations else 0
        manifest = run(args.command, args.config, args.out)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2
    except (BandEdgeError, ConditioningError, NoResonanceError, PrecisionError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    for path in manifest.output_paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
