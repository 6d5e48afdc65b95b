"""Command dispatch and deterministic file output.

    metaring <command> --config <path> --out <dir>

Commands: fit, modes, dispersion, tune, convert, fringe, saturate, sweep.
``fit`` reads the complex trace ``fit.trace_csv`` (columns f_hz, re, im);
``sweep`` runs the others in that order.  The runners write into a staging
directory inside the output directory, and their files are moved into place
only once every runner has succeeded, so a failed run adds no data file.
Every command writes RFC-4180 CSV (LF line endings; each cell a number,
``true``/``false`` or empty) and/or JSON data files plus a
``manifest.json``.  Data files are byte-identical for identical (command,
config); the wall clock appears only in the manifest.

Exit codes: 0 success, 2 configuration invalid, 3 solver error, 4 I/O error.
"""

import argparse
import atexit
import gc
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from . import conversion, dispersion, fitting, modes, tuning
from .config import Config, load_config, validate_config
from .errors import BandEdgeError, ConditioningError, ConfigError, PrecisionError

COMMANDS = ("fit", "modes", "dispersion", "tune", "convert", "fringe", "saturate", "sweep")
# rows formatted and written at a time: the cells of a whole scaled sweep
# column set would otherwise all be alive at once
_CSV_BLOCK_ROWS = 1024
# Tables of at least this many rows format their floats with the vectorized
# kernel (metaring._shortest), shorter ones with one repr per cell.  The
# kernel overtakes repr at about 150-250 rows, but its module takes about
# 4 ms to import from source, so the shipped sweep (at most 401 rows a table)
# stays on repr.
_KERNEL_MIN_ROWS = 512


class RunManifest(NamedTuple):
    command: str
    config_hash: str
    trace_sha256: Optional[str]  # the fit.trace_csv bytes; None without a trace
    output_paths: List[str]
    timestamp: str


def _repr_chars(values: np.ndarray) -> np.ndarray:
    """Each float's ``repr`` as a NUL-padded row of 25 bytes, the last one NUL."""
    # adding 0.0 writes -0.0 as 0.0
    cells = np.array(list(map(repr, (values + 0.0).ravel().tolist())), dtype="S25")
    return cells.view(np.uint8).reshape(values.shape + (25,))


def _csv_lines(block: Sequence[np.ndarray], float_chars) -> bytes:
    """The CSV lines of equal-length float, int and bool columns.

    Every cell becomes a NUL-padded row of characters whose last byte is
    free for the separator: floats by ``float_chars`` (NaN, a missing value,
    is an empty cell), ints as their digits and bools as ``true``/``false``.
    The rows of all columns are joined side by side and the NULs dropped.
    """
    floats = [column for column in block if column.dtype.kind == "f"]
    if floats:
        values = np.column_stack(floats)
        chars = float_chars(values)
        chars[np.isnan(values)] = 0
        float_cells = iter(chars.transpose(1, 0, 2))
    cells = []
    for column in block:
        if column.dtype.kind == "f":
            cells.append(next(float_cells))
        elif column.dtype.kind == "b":
            cells.append(np.where(column, b"true", b"false").astype("S6")
                         .view(np.uint8).reshape(-1, 6))
        else:
            cells.append(column.astype("S21").view(np.uint8).reshape(-1, 21))
    # an all-float block is already laid out row by row in chars
    matrix = (chars.reshape(len(values), -1) if len(floats) == len(block)
              else np.concatenate(cells, axis=1))
    ends = np.cumsum([cell.shape[1] for cell in cells]) - 1
    matrix[:, ends[:-1]] = ord(",")
    matrix[:, ends[-1]] = ord("\n")
    return matrix.tobytes().translate(None, b"\0")


def _write_csv(path: Path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length ``columns`` (arrays or lists) under ``header``.

    A column holds floats, ints or bools, so its cells are numbers,
    ``true``/``false`` or empty: RFC-4180 quoting never applies and rows
    are joined as plain text.  Every table has at least two columns, so no
    row is a lone empty field (written ``""``).  A float is written as its
    shortest round-trip ``repr``.
    """
    arrays = [np.asarray(column) for column in columns]
    for array in arrays:
        if array.dtype.kind not in "fbiu":
            raise TypeError(f"CSV columns hold floats, ints or bools, not {array.dtype}")
    rows = len(arrays[0]) if arrays else 0
    float_chars = _repr_chars
    if rows >= _KERNEL_MIN_ROWS:
        from ._shortest import repr_chars as float_chars
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        for start in range(0, rows, _CSV_BLOCK_ROWS):
            handle.write(_csv_lines([a[start:start + _CSV_BLOCK_ROWS] for a in arrays],
                                    float_chars))


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
    band = (config.sweeps["band"]["start_hz"], config.sweeps["band"]["stop_hz"])
    curve = dispersion.fsr_curve(config.cell, config.ring.cell_count, band)
    _write_csv(out / "fsr_curve.csv", ("f_hz", "fsr_hz"),
               ([f for f, _ in curve], [fsr for _, fsr in curve]))
    points = config.enhancement  # the ratio sweep that load_config ran and checked
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
    # both axes and their values, evaluated once by load_config
    _write_csv(out / "pump.csv", ("p0_norm", "t2", "r2"),
               (config.pump_axis, *config.conversion_law))
    _write_csv(out / "spectrum.csv", ("delta_hz", "t2", "r2"),
               (config.detuning_axis, *config.spectrum))
    c = conversion.cooperativity(config.converter)
    pairs = conversion.pair_sweep(config.pairs, c)
    _write_csv(out / "pairs.csv", ("pair_index", "eta_product", "t2"),
               ([p.index for p in pairs], [p.bound for p in pairs],
                [p.efficiency for p in pairs]))
    _write_json(out / "convert_summary.json", {
        "cooperativity": c,
        "bandwidth_hz": conversion.conversion_bandwidth(config.converter),
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
    critical, power_w, drive_w, state = config.saturation  # evaluated by load_config
    _write_csv(
        out / "saturation.csv",
        ("drive_over_critical", "drive_w", "n_low", "n_mid", "n_high", "bifurcated"),
        (config.pump_axis, drive_w, *state.photon_numbers.T, state.bifurcated),
    )
    _write_json(out / "kerr_summary.json", {
        "kappa_hz": config.kerr.kappa,
        "kappa_ex_hz": config.kerr.kappa_ex,
        "critical_detuning_hz": critical.detuning,
        "critical_photon_number": critical.photon_number,
        "critical_drive_flux_per_s": critical.drive_flux,
        "critical_drive_power_w": power_w,
        "critical_drive_power_dbm": conversion.dbm_from_watts(power_w),
    })
    return ["saturation.csv", "kerr_summary.json"]


def _run_fit(config: Config, out: Path) -> List[str]:
    result = fitting.fit_reflection_resonance(fitting.Trace.from_csv(config.fit_trace))
    payload = result.to_dict()
    payload["coupling_fraction"] = fitting.coupling_fraction(result)
    _write_json(out / "fit_result.json", payload)
    return ["fit_result.json"]


_RUNNERS = {
    "fit": _run_fit,
    "modes": _run_modes,
    "dispersion": _run_dispersion,
    "tune": _run_tune,
    "convert": _run_convert,
    "fringe": _run_fringe,
    "saturate": _run_saturate,
}


def run(command: str, config_path, out_dir) -> RunManifest:
    """Execute one command, write its outputs plus a manifest."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}; expected one of {COMMANDS}")
    config = load_config(config_path)
    names = COMMANDS[:-1] if command == "sweep" else (command,)
    trace_sha256 = None
    if config.fit_trace is not None:
        # hashed before any write, so an unreadable trace leaves no partial run
        trace_sha256 = hashlib.sha256(config.fit_trace.read_bytes()).hexdigest()
    elif command == "fit":
        raise ConfigError(["fit.trace_csv: required for the fit command"])
    elif command == "sweep":
        names = names[1:]  # a sweep without a trace skips its first runner, the fit
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a run that stops part way leaves no manifest describing older files
    (out / "manifest.json").unlink(missing_ok=True)
    # os.replace within one file system is atomic, so out never holds a
    # file of a run that did not finish
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        outputs: List[str] = []
        for name in names:
            outputs.extend(_RUNNERS[name](config, staging))
        for path in outputs:
            os.replace(staging / path, out / path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    manifest = RunManifest(
        command=command,
        config_hash=config.config_hash,
        trace_sha256=trace_sha256,
        output_paths=sorted(outputs),
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    _write_json(out / "manifest.json", manifest._asdict())
    return manifest


def main(argv: Optional[Sequence[str]] = None) -> int:
    # At exit, freeze what is still alive, so the interpreter's shutdown
    # collections skip the ~22k objects the imports leave (about 9 ms of
    # walking).  The few cycles left unfreed (the argument parser's, the
    # JSON encoders') hold no finalizer and end with the process.  The hook
    # runs only after main() has returned; registering it afresh keeps one
    # per process.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
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
    except (BandEdgeError, ConditioningError, PrecisionError, ValueError) as exc:
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
