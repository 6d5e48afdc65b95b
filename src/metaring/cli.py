"""Command dispatch and deterministic file output.

    metaring <command> --config <path> --out <dir>

Commands: fit, modes, dispersion, tune, convert, fringe, saturate, sweep.
``fit`` reads the complex trace ``fit.trace_csv`` (columns f_hz, re, im);
``sweep`` runs the others.  A runner builds its tables from the config and
checks the bounds of its own work; it writes nothing.  Every command first
plans (runs every runner but the fit), so ``validate`` and every command
refuse a config alike.  Then the fit runs, the tables are written into a
staging directory inside the output directory, and the files are moved into
place only once all are written, so a failed run adds no data file.

A run of at least ``_FORK_CELLS`` float cells, on a system with
``os.fork``, with no other Python thread running and with at least two CPUs
in its affinity mask (where ``os.sched_getaffinity`` exists), forks once
before any write: a child writes about half of the CSV tables (dealt
largest first to the group with fewer cells), this process the others and
the JSON files, then it reaps the child and renames.  Every other run
writes in one process: below the break-even, or on one CPU, the fork costs
more than it saves.  A failure on either side kills and reaps the child
before the staging directory is removed, and a child's ``OSError`` is
raised here with its message.  Every command writes CSV (through
``metaring._csv``, one workspace a run) and/or JSON data files plus a
``manifest.json``.  Data files are byte-identical for identical (command,
config), however they were written; the wall clock appears only in the
manifest.

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
import threading
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from . import _csv, conversion, dispersion, fitting, modes, tuning
from .config import Config, _evaluate, load_config
from .errors import BandEdgeError, ConditioningError, ConfigError, PrecisionError

COMMANDS = ("fit", "modes", "dispersion", "tune", "convert", "fringe", "saturate", "sweep")


class RunManifest(NamedTuple):
    command: str
    config_hash: str
    trace_sha256: Optional[str]  # the fit.trace_csv bytes; None without a trace
    output_paths: List[str]
    timestamp: str


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# A run of at least this many float cells writes its CSV tables in two
# processes.  The fork and the copy-on-write page faults after it (about
# 3.5 us a page) cost 4-5 ms a run, so a small run loses.  Whole seed-1
# scaled sweeps with their four axes cut, serial and forked runs alternated
# in one process (2 shared x86 CPUs, Python 3.11, numpy 2.4), ran forked
# slower at 32 375 cells (faster in 3 of 40), even at 61 575 (32 of 60) and
# faster from 105 375 (59 of 60) up to the full 149 195 (0.77x the time).
_FORK_CELLS = 65536


def _float_cells(file) -> int:
    """The float cells of a (name, content) output: 0 for a JSON file."""
    name, content = file
    if not name.endswith(".csv"):
        return 0
    return sum(array.size for array in map(np.asarray, content[1]) if array.dtype.kind == "f")


def _split(files: list) -> tuple:
    """(a child's files, this process's files): the CSV tables go, largest
    first, to the group with fewer float cells so far; the JSON files stay."""
    groups, cells = ([], []), [0, 0]
    for file in sorted(files, key=_float_cells, reverse=True):
        if not file[0].endswith(".csv"):
            groups[1].append(file)
            continue
        lighter = cells[0] > cells[1]
        groups[lighter].append(file)
        cells[lighter] += _float_cells(file)
    return groups


def _write(files: list, staging: Path, work: _csv.Workspace) -> None:
    """Write each (name, content) of ``files`` into ``staging``."""
    for name, content in files:
        if name.endswith(".csv"):
            _csv.write_csv(staging / name, *content, work)
        else:
            _write_json(staging / name, content)


def _write_all(files: list, staging: Path, work: _csv.Workspace) -> None:
    """Write each (name, content) of ``files`` into ``staging``, large runs
    in two processes.

    A forked child writes its share of the CSV tables and reports a failure
    by its exit code and on a pipe: 4 and the message for an ``OSError``, 1
    and the traceback for anything else.  It always leaves by ``os._exit``,
    so it runs none of its parent's cleanup.  A failure here kills and reaps
    the child before it propagates.  Where no process can be forked, the
    files are written in this one.
    """
    # a forked run is slower on one CPU; without an affinity mask the rest decides
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 2
    if not (hasattr(os, "fork") and threading.active_count() == 1 and cpus >= 2
            and sum(map(_float_cells, files)) >= _FORK_CELLS):
        return _write(files, staging, work)
    there, here = _split(files)
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return _write(files, staging, work)
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with open(write, "w", encoding="utf-8", errors="replace") as report:
                try:
                    _write(there, staging, work)
                    code = 0
                except OSError as exc:
                    code = 4
                    report.write(str(exc))
                except BaseException:  # reported, as the child never re-raises
                    import traceback  # only a failed child needs it
                    report.write(traceback.format_exc())
        finally:
            os._exit(code)
    os.close(write)
    try:
        with open(read, encoding="utf-8") as report:
            _write(here, staging, work)
            message = report.read()  # to end of file, which the child's exit reaches
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except BaseException:
        import signal  # only a run that fails while its child writes needs it
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if code == 4:
        raise OSError(message)
    if code:
        raise RuntimeError(f"the CSV writer process exited with {code}:\n{message}")


def _pump(config: Config) -> tuple:
    """The pump axis of the convert and saturate runners, and the violation bounding it."""
    pump = config.sweeps["pump"]
    return (np.linspace(0.0, pump["stop"], pump["points"]),
            "sweep.pump.stop: must keep the conversion law and the Kerr steady state finite "
            f"at the top of the pump axis, got {pump['stop']!r}")


def _tune_columns(loop, fields: np.ndarray) -> Optional[tuple]:
    """The computed columns of tuning.csv, or None where one leaves the float range."""
    bias = tuning.BiasState.from_field(loop, fields)
    # looked up on its module, so perfbench's tracer sees it
    report = _evaluate(tuning.nonlinearity_report, loop, bias)
    if report is None or not all(np.isfinite(value).all() for value in report.values()):
        return None
    return (fields, bias.dc_current, tuning.fractional_frequency_shift(loop, bias),
            report["twm"], report["fwm"], report["c3"], report["c4"])


def _run_tune(config: Config) -> list:
    loop, sweep = config.microloop, config.sweeps["field"]
    stop = sweep["stop_T"]
    # the lower wire's i*, as twm_fwm_coefficients checks; narrow on a tie
    wire = "i_star_wide" if loop.i_star_wide < loop.i_star_narrow else "i_star_narrow"
    i_star = getattr(loop, wire)
    # as BiasState.from_field, which would refuse an infinite current as a bias field
    if abs(stop * loop.gap / loop.loop_dc_inductance) >= i_star:
        raise ConfigError([
            f"sweep.field.stop_T: must drive a bias current below device.microloop.{wire}, "
            f"so |stop_T| < {i_star * loop.loop_dc_inductance / loop.gap!r} T, got {stop!r}"])
    columns = _tune_columns(loop, np.linspace(0.0, stop, sweep["points"]))
    if columns is None:
        bound = "must keep the mixing coefficients T, F, c3 and c4 in the float range"
        if _tune_columns(loop, np.zeros(1)) is None:  # at zero field they are the loop's alone
            raise ConfigError([f"device.microloop: {bound} at zero field"])
        raise ConfigError([f"sweep.field.stop_T: {bound} on the field axis, got {stop!r}"])
    return [("tuning.csv", (("b_ext_tesla", "i_dc_amp", "df_over_f", "T", "F", "c3", "c4"),
                            columns))]


def _run_modes(config: Config) -> list:
    band = (config.sweeps["band"]["start_hz"], config.sweeps["band"]["stop_hz"])
    table = modes.free_spectral_range(config.ring, band)
    fsr_mean = table.fsr_mean
    # the last mode has no next one: its spacing is NaN, an empty cell
    fsr = np.diff(table.f, append=math.nan)
    return [
        ("modes.csv", (("m", "f_hz", "fsr_to_next_hz"), (table.m, table.f, fsr))),
        ("modes_summary.json", {"band_hz": list(band), "mode_count": len(table.m),
                                "fsr_mean_hz": None if math.isnan(fsr_mean) else fsr_mean}),
    ]


def _run_dispersion(config: Config) -> list:
    band, ratio = config.sweeps["band"], config.sweeps["ratio"]
    cell, cells = config.cell, config.ring.cell_count
    violations = []
    if not band["stop_hz"] > band["start_hz"]:
        violations.append(f"sweep.band.stop_hz: must be above sweep.band.start_hz "
                          f"({band['start_hz']!r}), got {band['stop_hz']!r}")
    for key in ("start_hz", "stop_hz"):  # the index step of dispersion.fsr_curve
        try:
            dispersion.mode_index_near(cell, cells, band[key])
        except BandEdgeError as exc:
            violations.append(f"sweep.band.{key}: {exc}")
    mismatch = ((), (), ())
    if ratio["offsets_hz"] and ratio["values"]:
        try:  # looked up on its module, so perfbench's tracer sees it
            sweep = dispersion.idc_enhancement_sweep(
                cell, cells, ratio["signal_hz"], ratio["offsets_hz"], ratio["values"])
            mismatch = (sweep.ratio, sweep.offset, sweep.delta_f)
        except (ValueError, BandEdgeError) as exc:
            violations.append(f"sweep.ratio.signal_hz: {exc}")
    if violations:
        raise ConfigError(violations)
    curve = dispersion.fsr_curve(cell, cells, (band["start_hz"], band["stop_hz"]))
    return [
        ("fsr_curve.csv", (("f_hz", "fsr_hz"), curve)),
        ("mismatch.csv", (("ratio", "offset_hz", "delta_f_hz"), mismatch)),
    ]


def _run_saturate(config: Config) -> list:
    kerr, (ratios, bound) = config.kerr, _pump(config)
    critical = conversion.bifurcation_point(kerr.rate_hz, kerr.kappa, kerr.kappa_ex)
    power_w = conversion.bifurcation_drive_power(kerr.frequency_hz, kerr.rate_hz, kerr.kappa,
                                                 kerr.kappa_ex)
    # at twice the critical detuning, so the drive crosses the bistable window;
    # kerr_steady_state is looked up on its module, so perfbench's tracer sees it
    solved = _evaluate(lambda: (ratios * power_w, conversion.kerr_steady_state(
        2.0 * critical.detuning, ratios * critical.drive_flux, kerr.rate_hz, kerr.kappa,
        kerr.kappa_ex)))
    if solved is None:
        raise ConfigError([bound])
    drive_w, state = solved
    return [
        ("saturation.csv", (
            ("drive_over_critical", "drive_w", "n_low", "n_mid", "n_high", "bifurcated"),
            (ratios, drive_w, *state.photon_numbers.T, state.bifurcated))),
        ("kerr_summary.json", {
            "kappa_hz": kerr.kappa, "kappa_ex_hz": kerr.kappa_ex,
            "critical_detuning_hz": critical.detuning,
            "critical_photon_number": critical.photon_number,
            "critical_drive_flux_per_s": critical.drive_flux, "critical_drive_power_w": power_w,
            "critical_drive_power_dbm": conversion.dbm_from_watts(power_w)}),
    ]


def _run_convert(config: Config) -> list:
    converter, detuning = config.converter, config.sweeps["detuning"]
    (pump, bound), span = _pump(config), detuning["span_hz"]
    deltas = np.linspace(-span / 2.0, span / 2.0, detuning["points"])
    # looked up on their module, so perfbench's tracer sees them
    law = _evaluate(conversion.scattering, pump, converter.eta_s, converter.eta_i)
    spectrum = _evaluate(conversion.conversion_spectrum, deltas, converter)
    violations = [bound] if law is None else []
    if spectrum is None:
        violations.append("sweep.detuning.span_hz: must keep the conversion spectrum finite "
                          f"at the edges of the detuning axis, got {span!r}")
    if violations:
        raise ConfigError(violations)
    c = conversion.cooperativity(converter)
    pairs = conversion.pair_sweep(config.pairs, c)
    return [
        ("pump.csv", (("p0_norm", "t2", "r2"), (pump, *law))),
        ("spectrum.csv", (("delta_hz", "t2", "r2"), (deltas, *spectrum))),
        ("pairs.csv", (("pair_index", "eta_product", "t2"),
                       (pairs.index, pairs.bound, pairs.efficiency))),
        ("convert_summary.json", {
            "cooperativity": c, "bandwidth_hz": conversion.conversion_bandwidth(converter)}),
    ]


def _run_fringe(config: Config) -> list:
    scenario = config.fringe
    split = conversion.scattering(scenario.cooperativity, scenario.eta_s, scenario.eta_i)
    r_mag, t_mag = math.sqrt(split.r2), math.sqrt(split.t2)
    phases = np.linspace(0.0, 2.0 * math.pi, config.sweeps["phase"]["points"])
    power = conversion.interference_fringe(phases, r_mag, t_mag)
    return [
        ("fringe.csv", (("phi_rad", "p_ratio"), (phases, power))),
        ("fringe_summary.json", {"r_mag": r_mag, "t_mag": t_mag,
                                 "visibility": conversion.fringe_visibility(r_mag, t_mag)}),
    ]


def _run_fit(config: Config) -> list:
    result = fitting.fit_reflection_resonance(fitting.Trace.from_csv(config.fit_trace))
    payload = result.to_dict()
    payload["coupling_fraction"] = fitting.coupling_fraction(result)
    return [("fit_result.json", payload)]


# Each runner maps a Config to its outputs: (file name, (header, columns)) for
# a CSV file, (file name, payload) for a JSON file.  plan runs them in this
# order, which is the order their violations are reported in.
_RUNNERS = {
    "tune": _run_tune,
    "modes": _run_modes,
    "dispersion": _run_dispersion,
    "saturate": _run_saturate,
    "convert": _run_convert,
    "fringe": _run_fringe,
    "fit": _run_fit,
}


def plan(config: Config) -> Dict[str, list]:
    """Every runner's outputs but the fit's, by runner name.

    Raises :class:`ConfigError` with every runner's violations, each line
    once (convert and saturate bound the same pump stop).
    """
    outputs: Dict[str, list] = {}
    violations: List[str] = []
    for name, runner in _RUNNERS.items():
        if name == "fit":  # the trace is data, not config
            continue
        try:
            outputs[name] = runner(config)
        except ConfigError as exc:
            violations += [line for line in exc.violations if line not in violations]
    if violations:
        raise ConfigError(violations)
    return outputs


def validate_config(path) -> List[str]:
    """Violations as ``"json.path: message"`` strings, the plan's included; empty when valid."""
    try:
        plan(load_config(path))
    except ConfigError as exc:
        return exc.violations
    return []


def run(command: str, config_path, out_dir) -> RunManifest:
    """Execute one command: plan, fit, then write its outputs plus a manifest."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}; expected one of {COMMANDS}")
    config = load_config(config_path)
    out = Path(out_dir)
    if out.is_dir():  # a run that stops part way leaves no manifest describing older files
        (out / "manifest.json").unlink(missing_ok=True)
    outputs = plan(config)
    trace_sha256 = None
    if config.fit_trace is not None:
        # hashed before any write, so an unreadable trace leaves no partial run
        trace_sha256 = hashlib.sha256(config.fit_trace.read_bytes()).hexdigest()
        if command in ("fit", "sweep"):
            outputs["fit"] = _RUNNERS["fit"](config)
    elif command == "fit":
        raise ConfigError(["fit.trace_csv: required for the fit command"])
    files = [file for name, each in outputs.items() if command in (name, "sweep") for file in each]
    out.mkdir(parents=True, exist_ok=True)
    # os.replace within one file system is atomic, so out never holds a
    # file of a run that did not finish
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    try:
        # one workspace formats every table of the run, and dies with it
        _write_all(files, staging, _csv.Workspace())
        for name, _ in files:
            os.replace(staging / name, out / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    manifest = RunManifest(
        command=command,
        config_hash=config.config_hash,
        trace_sha256=trace_sha256,
        output_paths=sorted(name for name, _ in files),
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
