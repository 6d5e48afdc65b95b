import csv
import io
import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from collections import Counter
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metaring
from conftest import CONFIG_DIR, perfbench_module
from metaring import _csv, cli, conversion, dispersion, tuning
from metaring._csv import _CSV_BLOCK_CELLS
from metaring.cli import main, run, validate_config
from metaring.config import _MAX_SWEEP_POINTS, _SCHEMA, _Section, load_config
from metaring.errors import ConfigError, PrecisionError
from test_csv import block_edges, write_csv_per_cell
from test_sweep_bytes import configs as byte_gate_configs
from test_tuning import C3_REL, C4_REL, closed_form_gaps


def load_default(default_config_path) -> dict:
    return json.loads(default_config_path.read_text())


def write_config(tmp_path: Path, raw: dict, default_config_path) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    trace_src = default_config_path.parent / "trace_s11.csv"
    if trace_src.exists():
        shutil.copy(trace_src, tmp_path / "trace_s11.csv")
    return path


def read_csv(path: Path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestFieldAlias:
    def test_millitesla_loads_as_tesla(self, default_config_path):
        assert load_default(default_config_path)["sweep"]["field"] == {
            "stop_mT": 0.2, "points": 41}
        stop = load_config(default_config_path).sweeps["field"]["stop_T"]
        assert stop == 0.2 * 1e-3

    def test_stop_bound_is_i_star_narrow(self, tmp_path, default_config_path):
        loop = load_config(default_config_path).microloop
        bound = loop.i_star_narrow * loop.loop_dc_inductance / loop.gap
        raw = load_default(default_config_path)
        violations = []
        for stop in (bound * (1 - 1e-9), bound * (1 + 1e-9)):
            raw["sweep"]["field"] = {"stop_T": stop, "points": 41}
            violations.append(validate_config(write_config(tmp_path, raw, default_config_path)))
        assert violations[0] == []
        assert len(violations[1]) == 1
        assert violations[1][0].startswith("sweep.field.stop_T: must drive a bias current")

    def test_stop_bound_is_the_lower_wire_at_width_ratio_one(self, tmp_path,
                                                             default_config_path):
        # i_star_narrow may sit up to 1e-12 above i_star_wide at width_ratio 1; a
        # stop driving a current between the two is a violation that names the
        # wide wire, not a solver error of twm_fwm_coefficients
        raw = load_default(default_config_path)
        loop = raw["device"]["microloop"]
        loop.update(width_ratio=1.0, inductance_narrow=loop["inductance_wide"],
                    i_star_narrow=loop["i_star_wide"] * (1 + 5e-13))
        stop = loop["i_star_wide"] * (1 + 2e-13) * loop["loop_dc_inductance"] / loop["gap"]
        raw["sweep"]["field"] = {"stop_T": stop, "points": 41}
        path = write_config(tmp_path, raw, default_config_path)
        violations = validate_config(path)
        assert violations == [
            "sweep.field.stop_T: must drive a bias current below device.microloop.i_star_wide, "
            f"so |stop_T| < {loop['i_star_wide'] * loop['loop_dc_inductance'] / loop['gap']!r} T, "
            f"got {stop!r}"]
        assert main(["tune", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_both_spellings_hash_alike(self, tmp_path, default_config_path):
        raw = load_default(default_config_path)
        raw["sweep"]["field"] = {"stop_T": 0.2 * 1e-3, "points": 41}
        tesla = load_config(write_config(tmp_path, raw, default_config_path))
        assert tesla.config_hash == load_config(default_config_path).config_hash


def tune_config(tmp_path, default_config_path, width_ratio, i_star_wide, stop_fraction,
                inductance_wide=None) -> Path:
    """The shipped config with its narrow wire set by ``width_ratio`` and the
    field stop driving ``stop_fraction`` of the lower i*."""
    raw = load_default(default_config_path)
    loop = raw["device"]["microloop"]
    loop["inductance_wide"] = inductance_wide or loop["inductance_wide"]
    loop.update(width_ratio=width_ratio, i_star_wide=i_star_wide,
                i_star_narrow=width_ratio * i_star_wide,
                inductance_narrow=loop["inductance_wide"] / width_ratio)
    i_star = min(loop["i_star_narrow"], i_star_wide)
    stop = stop_fraction * i_star * loop["loop_dc_inductance"] / loop["gap"]
    raw["sweep"]["field"] = {"stop_T": stop, "points": 41}
    return write_config(tmp_path, raw, default_config_path)


class TestTuneRange:
    @pytest.mark.parametrize("width_ratio, stop_fraction", [
        (0.9, 0.999), (0.99, 0.99), (1.0, 0.99), (1.0, 0.95),
    ], ids=["ratio_0.9_stop_0.999", "ratio_0.99_stop_0.99", "ratio_1_stop_0.99",
            "ratio_1_stop_0.95"])
    def test_stops_near_both_i_star_run(self, tmp_path, default_config_path, capsys,
                                        width_ratio, stop_fraction):
        # the quartic fit that once wrote c3 and c4 refused the first three
        # ("scale must be positive and finite") and wrote c4 = 0.0 for the last
        path = tune_config(tmp_path, default_config_path, width_ratio, 2e-3, stop_fraction)
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["tune", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        rows = np.array(read_csv(tmp_path / "out" / "tuning.csv")[1:], dtype=float)
        assert len(rows) == 41
        twm, fwm, c3, c4 = rows[:, 3:].T
        c3_gap, c4_gap = closed_form_gaps(load_config(path).microloop, twm, fwm, c3, c4)
        assert c3_gap <= C3_REL and c4_gap <= C4_REL

    @pytest.mark.parametrize("i_star_wide, inductance_wide, stop_fraction, expected", [
        (1e-160, None, 0.5, "device.microloop.i_star_wide: must square to a normal float"),
        (1e-170, None, 0.5, "device.microloop.i_star_wide: must square to a normal float"),
        (1.84e-158, None, 0.99, "device.microloop.i_star_wide: must square to a normal float"),
        (1e-150, 1e8, 0.5, "device.microloop: must keep the mixing coefficients T, F, c3 and "
                           "c4 in the float range at zero field"),
        (1.84e-153, 14.25, 0.99, "sweep.field.stop_T: must keep the mixing coefficients T, F, "
                                 "c3 and c4 in the float range on the field axis, got "),
    ], ids=["i_star_1e-160", "i_star_1e-170", "i_star_1.84e-158_top",
            "inductance_1e8_zero_field", "inductance_14.25_top"])
    def test_mixing_coefficients_outside_the_float_range_are_refused(
            self, tmp_path, default_config_path, capsys, i_star_wide, inductance_wide,
            stop_fraction, expected):
        # at 1e-160 F overflowed to inf and the fit wrote c3 = c4 = 0.0 beside
        # it; at 1e-170 i2*^2 underflows to zero and F divided by it; at
        # 1.84e-158 F is finite at zero field and overflows near the stop.
        # These i* square to subnormals, so they are refused at their leaf.
        # With normal squares a large inductance takes F out of range: tune
        # refuses 1e-150 at 1e8 H at zero field, and 1.84e-153 at 1e10 times
        # the shipped 1.425 nH gives the 1.84e-158 case's F near the stop
        path = str(tune_config(tmp_path, default_config_path, 0.5, i_star_wide, stop_fraction,
                               inductance_wide))
        assert main(["validate", "--config", path]) == 2
        violations = capsys.readouterr().err.splitlines()
        assert len(violations) == 1 and violations[0].startswith(expected), violations
        for command in cli.COMMANDS:
            out = tmp_path / command
            assert main([command, "--config", path, "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"config error: {violations[0]}\n"
            assert not out.exists()


class TestValidate:
    def test_shipped_config_is_valid(self, default_config_path):
        assert validate_config(default_config_path) == []

    def test_width_ratio_violation_names_path(self, tmp_path, default_config_path):
        raw = load_default(default_config_path)
        raw["device"]["microloop"]["width_ratio"] = 1.5
        raw["device"]["microloop"]["inductance_narrow"] = (
            raw["device"]["microloop"]["inductance_wide"] / 1.5
        )
        raw["device"]["microloop"]["i_star_narrow"] = (
            raw["device"]["microloop"]["i_star_wide"] * 1.5
        )
        path = write_config(tmp_path, raw, default_config_path)
        violations = validate_config(path)
        assert len(violations) == 1
        assert "device.microloop" in violations[0]
        assert "width_ratio" in violations[0]

    def test_negative_capacitance_names_segment(self, tmp_path, default_config_path):
        raw = load_default(default_config_path)
        raw["device"]["cell"]["segment1"]["capacitance_per_length"] = -2.89e-10
        path = write_config(tmp_path, raw, default_config_path)
        violations = validate_config(path)
        assert any("device.cell.segment1" in v and "capacitance" in v for v in violations)

    def test_missing_section_reported(self, tmp_path, default_config_path):
        raw = load_default(default_config_path)
        del raw["converter"]["kerr"]
        path = write_config(tmp_path, raw, default_config_path)
        assert any("kerr" in v for v in validate_config(path))

    @pytest.mark.parametrize("keys, value, expected", [
        (("sweeps",), {}, "sweeps: unknown key"),
        (("converter", "g_0"), 5, "converter.g_0: unknown key"),
        (("converter", "fringe", "etas"), 0.5, "converter.fringe.etas: unknown key"),
        (("converter", "n_eff"), True, "converter.n_eff: unknown key"),
        (("converter", "p0_norm"), True, "converter.p0_norm: must be a finite number, got True"),
        (("converter", "p0_norm"), None, "converter.p0_norm: must be a finite number, got None"),
        (("converter", "n_eff"), None, "converter.n_eff: unknown key"),
        (("sweep", "ratio", "values"), [1.0, True], "sweep.ratio.values: must be a list"),
        (("converter", "pairs"), [[0.99, 0.97], True], "converter.pairs: must be a list"),
        (("converter", "n_eff"), float("nan"), "converter.n_eff: unknown key"),
        (("device", "ring", "segment2"), 5, "device.ring.segment2: unknown key"),
        (("sweep", "phase", "points"), True, "sweep.phase.points: must be an integer"),
        (("device", "ring", "cell_count"), 10 ** 400, "device.ring.cell_count: must be an integer"),
        (("fit", "trace_csv"), 5, "fit.trace_csv: must be a non-empty string"),
        (("fit",), "trace_s11.csv", "fit: must be a JSON object"),
        (("sweep", "ratio", "offsets_hz"), [1e9, 0.0],
         "sweep.ratio.offsets_hz: every entry must be > 0, got 0.0"),
        (("sweep", "ratio", "values"), [1.0, 0.5],
         "sweep.ratio.values: every entry must be >= 1, got 0.5"),
        (("sweep", "field", "stop_T"), 5.0, "sweep.field.stop_T: given twice"),
        (("sweep", "pump", "stop_mT"), 0.5, "sweep.pump.stop_mT: unknown key"),
        (("sweep", "field", "stop_mT"), True, "sweep.field.stop_T: must be a finite number"),
        (("sweep", "field", "stop_mT"), 5.0, "sweep.field.stop_T: must drive a bias current"),
        (("sweep", "field", "stop_mT"), -5.0, "sweep.field.stop_T: must drive a bias current"),
        (("sweep", "pump", "stop"), -1.0, "sweep.pump.stop: must be >= 0, got -1.0"),
        (("sweep", "band", "start_hz"), -1.0, "sweep.band.start_hz: must be >= 0, got -1.0"),
        (("sweep", "band", "stop_hz"), 2e9,
         "sweep.band.stop_hz: must be above sweep.band.start_hz (4000000000.0), got 2000000000.0"),
        (("sweep", "ratio", "signal_hz"), 1e6,
         "sweep.ratio.signal_hz: must lie above the lowest usable mode: at ratio 1.0 and offset "
         "1000000000.0 Hz the signal mode m = 1 has idler step n = 13, and the sweep needs "
         "n >= 1 and m - n >= 1"),
        (("sweep", "ratio", "signal_hz"), -1e9,
         "sweep.ratio.signal_hz: frequency must be non-negative"),
        (("converter", "n_eff"), 3, "converter.n_eff: unknown key"),
        (("converter", "g0"), 45961.94077712559, "converter.g0: unknown key"),
        (("device", "ring", "geometric_inductance_per_length"), 1e300,
         "device.ring: kinetic_inductance_per_length + geometric_inductance_per_length and "
         "capacitance_per_length must keep L C and L/C positive and finite, got L C = "),
        (("device", "ring", "kinetic_inductance_per_length"), 1e300,
         "device.ring: kinetic_inductance_per_length + geometric_inductance_per_length and "
         "capacitance_per_length must keep L C and L/C positive and finite, got L C = "),
    ], ids=["top_unknown", "section_unknown", "nested_unknown", "n_eff_true", "p0_norm_true",
            "p0_norm_null", "n_eff_null", "values_true", "pairs_true", "n_eff_nan",
            "segment2_int", "points_true", "cell_count_huge", "trace_csv_int", "fit_string",
            "offset_zero", "ratio_below_one",
            "stop_given_twice", "alias_elsewhere", "stop_mT_true", "stop_past_i_star",
            "stop_past_minus_i_star", "pump_stop_negative", "band_start_negative",
            "band_stop_below_start", "signal_1e6", "signal_negative", "n_eff_with_p0_norm",
            "g0_with_p0_norm", "geometric_inductance_huge", "kinetic_inductance_huge"])
    def test_single_violation_names_path(self, tmp_path, default_config_path,
                                         keys, value, expected):
        raw = load_default(default_config_path)
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        violations = validate_config(write_config(tmp_path, raw, default_config_path))
        assert len(violations) == 1, violations
        assert violations[0].startswith(expected)

    @pytest.mark.parametrize("old, new, violation", [
        ('"kappa_s"', '"gain_dB": 4000, "kappa_s"', "converter.gain_dB: unknown key"),
        ('"points": 41', '"points": 41, "points": 7', "sweep.field.points: given twice"),
    ], ids=["decibel_suffix", "duplicate_key"])
    def test_text_edit_gives_one_line_exit_2(self, tmp_path, default_config_path, capsys,
                                             old, new, violation):
        text = default_config_path.read_text()
        assert text.count(old) == 1
        path = tmp_path / "config.json"
        path.write_text(text.replace(old, new))
        shutil.copy(default_config_path.parent / "trace_s11.csv", tmp_path / "trace_s11.csv")
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"{violation}\n"

    def test_defaults_fill_optional_leaves(self, tmp_path, default_config_path):
        raw = load_default(default_config_path)
        for key in ("p0_norm", "pairs"):
            del raw["converter"][key]
        del raw["converter"]["fringe"]["eta_s"]
        del raw["sweep"]["ratio"]["values"]
        config = load_config(write_config(tmp_path, raw, default_config_path))
        assert config.converter.p0_norm == 1.0
        assert config.pairs == () and config.sweeps["ratio"]["values"] == ()
        assert config.fringe.eta_s == 1.0
        assert config.ring.segment1 == metaring.LumpedCell(4.3687616373126585e-10, 2.5e-05)

    def test_missing_leaf_reported(self, tmp_path, default_config_path):
        raw = load_default(default_config_path)
        del raw["converter"]["kappa_s"]
        path = write_config(tmp_path, raw, default_config_path)
        assert validate_config(path) == ["converter.kappa_s: required value is missing"]

    def test_negative_points_reported(self, tmp_path, default_config_path):
        raw = load_default(default_config_path)
        raw["sweep"]["pump"]["points"] = -1
        path = write_config(tmp_path, raw, default_config_path)
        assert validate_config(path) == ["sweep.pump.points: must be >= 0"]

    def test_non_finite_trace_is_a_band_edge(self, tmp_path, default_config_path):
        raw = load_default(default_config_path)
        raw["device"]["cell"]["segment2"]["inductance_per_length"] = 1e100
        raw["sweep"]["band"]["stop_hz"] = 1e300
        path = write_config(tmp_path, raw, default_config_path)
        assert validate_config(path) == [
            "sweep.band.start_hz: 4000000000.0 Hz lies outside the propagating band",
            "sweep.band.stop_hz: 1e+300 Hz gives a half trace cos(k l_0) that is not a number",
            "sweep.ratio.signal_hz: 5000000000.0 Hz lies outside the propagating band",
        ]

    def test_ring_lc_overflow_reported(self, tmp_path, default_config_path):
        # an L_0 C_0 of inf would give a cell frequency of 0 Hz and no modes
        raw = load_default(default_config_path)
        raw["device"]["ring"]["segment1"]["length"] = 1e300
        path = write_config(tmp_path, raw, default_config_path)
        assert validate_config(path) == [
            "device.ring.segment1.length: too long for the lumped cell model: "
            "the cell's L_0 C_0 overflows to inf"]

    @pytest.mark.parametrize("bridge, values, violations", [
        ({"capacitance_per_length": 1e10}, [1.0, 1e300], [
            "sweep.band.start_hz: 4000000000.0 Hz lies outside the propagating band",
            "sweep.band.stop_hz: 10000000000.0 Hz lies outside the propagating band",
            "sweep.ratio.signal_hz: capacitance_per_length must be a finite positive number, "
            "got inf"]),
        ({"capacitance_per_length": 1e10, "inductance_per_length": 1e-300}, [1.0, 1e20], [
            "sweep.band.start_hz: 4000000000.0 Hz lies outside the propagating band",
            "sweep.band.stop_hz: 10000000000.0 Hz lies outside the propagating band",
            "sweep.ratio.signal_hz: inductance_per_length and capacitance_per_length must keep "
            "L C and L/C positive and finite, got L C = 1e-270 and L/C = 0.0"]),
        ({"length": 1e300, "capacitance_per_length": 1e-10}, [1.0, 1e200], [
            "sweep.ratio.signal_hz: segment lengths and line constants must keep the cell "
            "delay and 1/(2 cell delay) positive and finite, got cell delay = inf"]),
    ], ids=["bridge_capacitance_overflows", "bridge_lc_underflows", "cell_delay_overflows"])
    def test_scaled_bridge_refusals(self, tmp_path, default_config_path, capsys,
                                    bridge, values, violations):
        # a ratio that scales a valid bridge out of range: the scaled
        # record's own check, reported under the sweep's signal
        raw = load_default(default_config_path)
        raw["device"]["cell"]["segment2"].update(bridge)
        raw["sweep"]["ratio"]["values"] = values
        assert main(["validate", "--config", str(write_config(tmp_path, raw,
                                                              default_config_path))]) == 2
        assert capsys.readouterr().err.splitlines() == violations

    def test_ratio_grid_bound(self, tmp_path, default_config_path, capsys):
        # checked with the section, before the plan runs the ratio sweep
        raw = load_default(default_config_path)
        raw["sweep"]["ratio"]["values"] = [1.0 + i / 1000 for i in range(1001)]
        raw["sweep"]["ratio"]["offsets_hz"] = [1e9] * 1000
        path = str(write_config(tmp_path, raw, default_config_path))
        violation = ("sweep.ratio.values: must give at most 1000000 (ratio, offset) pairs "
                     "with offsets_hz, got 1001000\n")
        assert main(["validate", "--config", path]) == 2
        assert capsys.readouterr().err == violation
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {violation}"
        assert not (tmp_path / "out").exists()

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        violations = validate_config(path)
        assert violations and "invalid JSON" in violations[0]

    @pytest.mark.parametrize("text, reason", [
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b"[" * 100_000, "maximum recursion depth exceeded"),
        (b'{"sweep": ' + b"1" * (sys.get_int_max_str_digits() + 1) + b"}",
         f"Exceeds the limit ({sys.get_int_max_str_digits()} digits)"),
    ], ids=["not_utf8", "nested_100000_deep", "integer_past_digit_limit"])
    def test_unparseable_file_exit_2(self, tmp_path, capsys, text, reason):
        path = tmp_path / "config.json"
        path.write_bytes(text)
        for command, prefix in (("validate", ""), ("sweep", "config error: ")):
            code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
            lines = capsys.readouterr().err.splitlines()
            assert (code, len(lines)) == (2, 1), lines
            assert lines[0].startswith(f"{prefix}$: cannot be parsed ({reason}"), lines
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["[]", "1", '"config"', "null"])
    def test_top_level_must_be_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert validate_config(path) == ["$: top level must be a JSON object"]
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "$: top level must be a JSON object\n"

    def test_unreadable_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            validate_config(tmp_path / "missing.json")


def numeric_leaves(node, keys=()):
    """The key path of every number in a JSON document, list entries included."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from numeric_leaves(value, keys + (key,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield keys


DEFAULT_CONFIG = CONFIG_DIR / "default.json"
LEAVES = sorted(numeric_leaves(json.loads(DEFAULT_CONFIG.read_text())), key=str)


def leaf_value(keys):
    """Values drawn for one leaf: the sizes small, the field stop inside its bound."""
    if keys[-1] in ("cell_count", "points"):
        return st.integers(0, 3) | st.integers(0, 400)
    if keys[-1] == "stop_mT":
        return st.floats(-1.0976, 1.0976, exclude_min=True, exclude_max=True)
    return st.sampled_from([0, -1, 0.5, 2, 3]) | st.builds(
        lambda sign, decades: sign * 10.0 ** decades,
        st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0))


JOINT_EDITS = st.lists(st.sampled_from(LEAVES), min_size=1, max_size=3, unique=True).flatmap(
    lambda leaves: st.tuples(*(st.tuples(st.just(keys), leaf_value(keys)) for keys in leaves)))


def run_main(argv):
    """``main``'s exit code and stderr lines, with every warning raised."""
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue().splitlines()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(edits=JOINT_EDITS)
@example(edits=((("sweep", "pump", "stop"), 1e300), (("sweep", "pump", "points"), 1)))
@example(edits=((("sweep", "pump", "stop"), 1e300), (("sweep", "pump", "points"), 2)))
@example(edits=((("sweep", "detuning", "span_hz"), 1e160), (("sweep", "detuning", "points"), 0)))
@example(edits=((("sweep", "detuning", "span_hz"), -1e300),
                (("sweep", "detuning", "points"), 1)))
@example(edits=((("device", "microloop", "gap"), 1e300),
                (("device", "microloop", "loop_dc_inductance"), 1e-300)))
def test_joint_inputs_validate_and_sweep_agree(edits):
    # 1-3 numeric leaves of the shipped config moved together: validate names
    # each violation under a schema path, and a config it accepts sweeps cleanly
    raw = json.loads(DEFAULT_CONFIG.read_text())
    for keys, value in edits:
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    # a violation is reported under a schema section or leaf, or under $
    roots = {"$"} | {".".join(leaf.split(".")[:depth]) for leaf in schema_leaf_paths(_SCHEMA)
                     for depth in range(1, leaf.count(".") + 2)}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(write_config(Path(tmp), raw, DEFAULT_CONFIG))
        out = Path(tmp) / "out"
        code, violations = run_main(["validate", "--config", path])
        sweep_code, err = run_main(["sweep", "--config", path, "--out", str(out)])
        assert code in (0, 2), violations
        assert all(line.split(": ", 1)[0] in roots for line in violations), violations
        if code == 2:
            assert violations
            assert (sweep_code, err) == (2, [f"config error: {line}" for line in violations])
            return
        assert (violations, sweep_code, err) == ([], 0, [])

        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        for json_path in out.glob("*.json"):
            json.loads(json_path.read_text(), parse_constant=reject)


def plan_outcome(path):
    """The plan's tables by file name, each pickled, or the violations that refuse it."""
    try:
        outputs = cli.plan(load_config(path))
    except ConfigError as exc:
        return exc.violations
    return {name: pickle.dumps(content) for each in outputs.values() for name, content in each}


def test_every_config_leaf_is_read(tmp_path):
    # Each numeric leaf of the shipped config is moved on its own: an integer
    # by 1, a float up by 1 %, or down by 1 % where 1 bounds it from above
    # (eta_*).  The move must change a table of the plan, or be refused under
    # the leaf's path or a section holding it; no leaf is exempt.
    raw = json.loads(DEFAULT_CONFIG.read_text())
    shipped = plan_outcome(write_config(tmp_path, raw, DEFAULT_CONFIG))
    assert isinstance(shipped, dict)
    unread = []
    for keys in LEAVES:
        moved = json.loads(DEFAULT_CONFIG.read_text())
        node = moved
        for key in keys[:-1]:
            node = node[key]
        value = node[keys[-1]]
        if isinstance(value, int):
            node[keys[-1]] = value + 1
        else:
            node[keys[-1]] = value * (0.99 if str(keys[-1]).startswith("eta_") else 1.01)
        leaf = ".".join(map(str, keys))
        outcome = plan_outcome(write_config(tmp_path, moved, DEFAULT_CONFIG))
        if isinstance(outcome, list):
            if not any(f"{leaf}.".startswith(line.split(": ", 1)[0] + ".") for line in outcome):
                unread.append(f"{leaf}: refused elsewhere: {outcome}")
        elif outcome == shipped:
            unread.append(f"{leaf}: changes no table")
    assert unread == []


def schema_leaf_paths(section, prefix=""):
    for key, field in section.fields.items():
        if isinstance(field, _Section):
            yield from schema_leaf_paths(field, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_readme_config_reference_lists_schema_leaves():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    reference = readme.split("### Config reference", 1)[1].split("\n## ", 1)[0]
    documented = [line.split("`")[1] for line in reference.splitlines()
                  if line.startswith("| `")]
    leaves = list(schema_leaf_paths(_SCHEMA))
    assert sorted(set(leaves) - set(documented)) == []  # a json path without a row
    assert sorted(set(documented) - set(leaves)) == []  # a row naming no json path
    assert documented == leaves  # one row each, in schema order


class TestSweepBytes:
    @pytest.mark.parametrize("points", [None, _CSV_BLOCK_CELLS + 3],
                             ids=["shipped", "across_block_edges"])
    def test_sweep_csvs_match_per_cell_writer(self, tmp_path, default_config_path,
                                              monkeypatch, points):
        config = default_config_path
        if points is not None:
            raw = load_default(default_config_path)
            for axis in ("field", "pump", "detuning", "phase"):
                raw["sweep"][axis]["points"] = points
            config = write_config(tmp_path, raw, default_config_path)
            # the five tables on the sweep axes each cross at least two block edges
            tables = {name: content[1] for outputs in cli.plan(load_config(config)).values()
                      for name, content in outputs if name.endswith(".csv")}
            long = {name: columns for name, columns in tables.items() if len(columns[0]) == points}
            assert sorted(long) == ["fringe.csv", "pump.csv", "saturation.csv", "spectrum.csv",
                                    "tuning.csv"]
            assert all(block_edges(columns) >= 2 for columns in long.values())
        manifest = run("sweep", config, tmp_path / "columns")
        monkeypatch.setattr(
            "metaring._csv.write_csv",
            lambda path, header, columns, _: write_csv_per_cell(path, header, zip(*columns)),
        )
        run("sweep", config, tmp_path / "cells")
        names = [name for name in manifest.output_paths if name.endswith(".csv")]
        assert len(names) == 9
        for name in names:
            columns = (tmp_path / "columns" / name).read_bytes()
            assert columns == (tmp_path / "cells" / name).read_bytes(), name


class TestRun:
    def test_modes_outputs_design_fsr(self, default_config_path, tmp_path):
        manifest = run("modes", default_config_path, tmp_path / "out")
        assert manifest.command == "modes"
        summary = json.loads((tmp_path / "out" / "modes_summary.json").read_text())
        assert abs(summary["fsr_mean_hz"] - 79e6) < 1e6
        rows = read_csv(tmp_path / "out" / "modes.csv")
        assert rows[0] == ["m", "f_hz", "fsr_to_next_hz"]
        assert len(rows) == summary["mode_count"] + 1
        assert rows[-1][2] == ""

    @pytest.mark.parametrize("cell_count", [3200, 7, 3])
    def test_band_top_fsr_curve_ends_with_an_empty_cell(self, tmp_path, default_config_path,
                                                        cell_count):
        # up to the cell's band edge: the last row is the top mode m = N/2,
        # which has no next mode, as in modes.csv
        raw = load_default(default_config_path)
        raw["device"]["ring"]["cell_count"] = cell_count
        raw["sweep"]["band"]["stop_hz"] = 100770889126.93825
        raw["sweep"]["ratio"]["values"] = []
        path = write_config(tmp_path, raw, default_config_path)
        assert validate_config(path) == []
        run("dispersion", path, tmp_path / "out")
        rows = read_csv(tmp_path / "out" / "fsr_curve.csv")[1:]
        assert np.all(np.diff([float(row[0]) for row in rows]) > 0)
        assert rows[-1][1] == "" and all(float(row[1]) > 0 for row in rows[:-1])

    def test_band_stop_at_a_top_root_past_minus_one(self, tmp_path, default_config_path):
        # with the bridge capacitance x1.5 the top root's half trace rounds
        # to -1 - 2.2e-16, within the floor at which the solver accepted it
        raw = load_default(default_config_path)
        raw["device"]["cell"]["segment2"]["capacitance_per_length"] *= 1.5
        path = write_config(tmp_path, raw, default_config_path)
        cell, cells = load_config(path).cell, raw["device"]["ring"]["cell_count"]
        top = dispersion.solve_mode_frequency(cell, cells, cells // 2)
        assert dispersion.cell_trace(cell, top) < -1.0
        raw["sweep"]["band"]["stop_hz"] = top
        path = write_config(tmp_path, raw, default_config_path)
        assert validate_config(path) == []
        run("dispersion", path, tmp_path / "out")
        rows = read_csv(tmp_path / "out" / "fsr_curve.csv")
        assert rows[-1] == [repr(top), ""]

    def test_convert_peaks_at_unit_pump(self, default_config_path, tmp_path):
        run("convert", default_config_path, tmp_path / "out")
        rows = read_csv(tmp_path / "out" / "pump.csv")[1:]
        pump = np.array([float(r[0]) for r in rows])
        t2 = np.array([float(r[1]) for r in rows])
        assert pump[int(np.argmax(t2))] == pytest.approx(1.0, abs=0.06)

    @pytest.mark.parametrize("field", ["eta_s", "eta_i", "p0_norm"])
    def test_no_conversion_has_null_bandwidth(self, tmp_path, default_config_path, field):
        raw = load_default(default_config_path)
        raw["converter"][field] = 0.0
        path = write_config(tmp_path, raw, default_config_path)
        assert main(["convert", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "convert_summary.json").read_text())
        assert summary["bandwidth_hz"] is None

    def test_empty_sweep_writes_header_only(self, tmp_path, default_config_path):
        raw = load_default(default_config_path)
        raw["sweep"]["pump"]["points"] = 0
        path = write_config(tmp_path, raw, default_config_path)
        run("convert", path, tmp_path / "out")
        rows = read_csv(tmp_path / "out" / "pump.csv")
        assert rows == [["p0_norm", "t2", "r2"]]

    def test_empty_tables_write_header_only(self, tmp_path, default_config_path):
        # a band below the first mode, no idler offsets and no pairs
        raw = load_default(default_config_path)
        raw["sweep"]["band"] = {"start_hz": 1e3, "stop_hz": 2e3}
        raw["sweep"]["ratio"]["offsets_hz"] = []
        raw["converter"]["pairs"] = []
        run("sweep", write_config(tmp_path, raw, default_config_path), tmp_path / "out")
        for name, header in (("modes.csv", "m,f_hz,fsr_to_next_hz"),
                             ("fsr_curve.csv", "f_hz,fsr_hz"),
                             ("mismatch.csv", "ratio,offset_hz,delta_f_hz"),
                             ("pairs.csv", "pair_index,eta_product,t2")):
            assert (tmp_path / "out" / name).read_text() == header + "\n", name
        summary = json.loads((tmp_path / "out" / "modes_summary.json").read_text())
        assert (summary["mode_count"], summary["fsr_mean_hz"]) == (0, None)

    def test_fit_command_recovers_trace(self, default_config_path, tmp_path):
        run("fit", default_config_path, tmp_path / "out")
        payload = json.loads((tmp_path / "out" / "fit_result.json").read_text())
        assert abs(payload["parameters"]["f0"] - 4.85e9) / 4.85e9 < 1e-4
        assert abs(payload["parameters"]["q_in"] - 3.93e5) / 3.93e5 < 0.05
        assert 0.9 < payload["coupling_fraction"] < 0.99
        assert payload["converged"] is True
        assert payload["termination"] in {"gtol", "ftol", "xtol", "zero_residual"}

    def test_saturate_reports_threshold(self, default_config_path, tmp_path):
        run("saturate", default_config_path, tmp_path / "out")
        summary = json.loads((tmp_path / "out" / "kerr_summary.json").read_text())
        assert -100.0 < summary["critical_drive_power_dbm"] < -85.0
        rows = read_csv(tmp_path / "out" / "saturation.csv")[1:]
        flags = [r[5] for r in rows]
        assert "true" in flags and "false" in flags

    def test_csv_headers_match_documented_columns(self, default_config_path, tmp_path):
        run("sweep", default_config_path, tmp_path / "out")
        expected = {
            "modes.csv": ["m", "f_hz", "fsr_to_next_hz"],
            "fsr_curve.csv": ["f_hz", "fsr_hz"],
            "mismatch.csv": ["ratio", "offset_hz", "delta_f_hz"],
            "tuning.csv": ["b_ext_tesla", "i_dc_amp", "df_over_f", "T", "F", "c3", "c4"],
            "pump.csv": ["p0_norm", "t2", "r2"],
            "spectrum.csv": ["delta_hz", "t2", "r2"],
            "pairs.csv": ["pair_index", "eta_product", "t2"],
            "fringe.csv": ["phi_rad", "p_ratio"],
            "saturation.csv": ["drive_over_critical", "drive_w",
                               "n_low", "n_mid", "n_high", "bifurcated"],
        }
        for name, header in expected.items():
            rows = read_csv(tmp_path / "out" / name)
            assert rows[0] == header, name

    def test_sweep_runs_everything(self, default_config_path, tmp_path):
        manifest = run("sweep", default_config_path, tmp_path / "out")
        expected = {
            "modes.csv", "modes_summary.json", "fsr_curve.csv", "mismatch.csv",
            "tuning.csv", "pump.csv", "spectrum.csv", "pairs.csv",
            "convert_summary.json", "fringe.csv", "fringe_summary.json",
            "saturation.csv", "kerr_summary.json", "fit_result.json",
        }
        assert set(manifest.output_paths) == expected
        for name in expected:
            assert (tmp_path / "out" / name).exists()
        manifest_payload = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest_payload["config_hash"] == manifest.config_hash

    def test_sweep_runs_the_ratio_sweep_once(self, default_config_path, tmp_path,
                                             monkeypatch):
        # the plan runs the dispersion runner once, and the writer loop writes its rows
        sweeps, builds = [], []
        sweep, build = dispersion.idc_enhancement_sweep, dispersion._CellRows.__init__

        def counting_sweep(*args, **kwargs):
            sweeps.append(args)
            return sweep(*args, **kwargs)

        def counting_build(self, cell, ratios=(1.0,)):
            builds.append(len(ratios))
            build(self, cell, ratios)

        monkeypatch.setattr(dispersion, "idc_enhancement_sweep", counting_sweep)
        monkeypatch.setattr(dispersion._CellRows, "__init__", counting_build)
        run("sweep", default_config_path, tmp_path / "out")
        assert len(sweeps) == 1 and builds.count(5) == 1  # 5 ratios in the shipped grid

    def test_sweep_evaluates_each_axis_once(self, default_config_path, tmp_path, monkeypatch):
        # the plan evaluates each axis once, in the runner that writes it
        calls = Counter()
        for name, axis_arg in (("kerr_steady_state", 1), ("scattering", 0),
                               ("conversion_spectrum", 0)):
            def counting(*args, _form=getattr(conversion, name), _name=name, _axis=axis_arg):
                calls[_name, np.size(args[_axis])] += 1
                return _form(*args)

            monkeypatch.setattr(conversion, name, counting)
        run("sweep", default_config_path, tmp_path / "out")
        sweep = load_default(default_config_path)["sweep"]
        pump, detuning = sweep["pump"]["points"], sweep["detuning"]["points"]
        assert sum(n for (name, _), n in calls.items() if name == "kerr_steady_state") == 1
        assert calls["kerr_steady_state", pump] == 1
        assert calls["scattering", pump] == 1
        assert calls["conversion_spectrum", detuning] == 1

    def test_sweep_process_never_imports_numpy_ma(self, default_config_path, tmp_path):
        # np.median imports numpy.ma on its first call, a cost every fresh
        # process of a sweep with a fit would pay
        code = (
            "import sys; from metaring.cli import main;"
            f"code = main(['sweep', '--config', {str(default_config_path)!r},"
            f" '--out', {str(tmp_path / 'out')!r}]);"
            "print(code, 'numpy.ma' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(metaring.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        assert proc.stdout.splitlines()[-1] == "0 False"
        assert (tmp_path / "out" / "fit_result.json").exists()

    def test_no_negative_zero_cells(self, default_config_path, tmp_path):
        manifest = run("sweep", default_config_path, tmp_path / "out")
        for name in manifest.output_paths:
            if name.endswith(".csv"):
                cells = [c for row in read_csv(tmp_path / "out" / name) for c in row]
                assert "-0.0" not in cells, name

    def test_unknown_command_rejected(self, default_config_path, tmp_path):
        with pytest.raises(ValueError):
            run("frobnicate", default_config_path, tmp_path / "out")

    def test_invalid_config_raises_config_error(self, tmp_path, default_config_path):
        raw = load_default(default_config_path)
        raw["converter"]["eta_s"] = 1.7
        path = write_config(tmp_path, raw, default_config_path)
        with pytest.raises(ConfigError):
            run("convert", path, tmp_path / "out")


class TestDeterminism:
    def test_identical_runs_byte_identical_data(self, default_config_path, tmp_path):
        first = run("sweep", default_config_path, tmp_path / "a")
        second = run("sweep", default_config_path, tmp_path / "b")
        assert first.config_hash == second.config_hash
        for name in first.output_paths:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifests_differ_only_in_timestamp(self, default_config_path, tmp_path):
        run("modes", default_config_path, tmp_path / "a")
        run("modes", default_config_path, tmp_path / "b")
        a = json.loads((tmp_path / "a" / "manifest.json").read_text())
        b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        a.pop("timestamp"); b.pop("timestamp")
        assert a == b

    def test_manifest_hashes_trace_bytes(self, default_config_path, tmp_path):
        raw = load_default(default_config_path)
        manifests = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            config = write_config(tmp_path / name, raw, default_config_path)
            if name == "b":
                trace = tmp_path / name / "trace_s11.csv"
                lines = trace.read_text().splitlines(keepends=True)
                f_hz, re_, im = lines[1].rstrip("\n").split(",")
                lines[1] = f"{f_hz},{float(re_) + 1e-3!r},{im}\n"
                trace.write_text("".join(lines))
            run("fit", config, tmp_path / name / "out")
            manifests.append(json.loads((tmp_path / name / "out" / "manifest.json").read_text()))
        a, b = manifests
        assert a["config_hash"] == b["config_hash"]
        assert len(a["trace_sha256"]) == 64
        assert a["trace_sha256"] != b["trace_sha256"]

    def test_manifest_trace_hash_null_without_trace(self, default_config_path, tmp_path):
        raw = load_default(default_config_path)
        del raw["fit"]
        run("modes", write_config(tmp_path, raw, default_config_path), tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["trace_sha256"] is None


def dispersion_cells(config: Path) -> list:
    """The dispersion runner's columns: fsr_curve's f_hz and fsr_hz, then
    mismatch's ratio, offset_hz and delta_f_hz."""
    (_, (_, curve)), (_, (_, mismatch)) = cli._run_dispersion(load_config(config))
    return [np.asarray(column) for column in (*curve, *mismatch)]


EXPONENTS = (-200, -60, -20, 10, 20, 41, 44, 60, 200)


class TestScaleCovariance:
    @pytest.mark.parametrize("leaf, factor, f_factor, refusal", [
        *(("capacitance_per_length", 4.0**k, 2.0**-k, None) for k in EXPONENTS),
        # 1/(2 cell delay) at about 1.5e306 Hz, then where 2 pi f/v overflows there
        ("length", 2.0**-980, 2.0**980, None),
        ("length", 2.0**-986, 2.0**986,
         "device.cell: each segment's wave number 2 pi f/v at the bracket top "
         "f = 1/(2 cell delay) must be positive and finite, got [inf, inf]"),
    ], ids=[*(f"capacitance_4^{k}" for k in EXPONENTS), "length_2^-980", "length_2^-986"])
    def test_dispersion_scales_bit_for_bit(self, tmp_path, default_config_path, leaf, factor,
                                           f_factor, refusal):
        # a leaf of both cell segments times its factor, and the band edges, the
        # ratio signal and the offsets times a power of two: the shipped problem
        # with every frequency times f_factor, which + - * / and sqrt carry
        # exactly, so each frequency cell is the shipped cell times f_factor and
        # the ratios stay, or validate refuses the config
        raw = load_default(default_config_path)
        shipped = dispersion_cells(write_config(tmp_path, raw, default_config_path))
        for segment in raw["device"]["cell"].values():
            segment[leaf] *= factor
        band, ratio = raw["sweep"]["band"], raw["sweep"]["ratio"]
        band["start_hz"], band["stop_hz"] = band["start_hz"] * f_factor, band["stop_hz"] * f_factor
        ratio["signal_hz"] *= f_factor
        ratio["offsets_hz"] = [offset * f_factor for offset in ratio["offsets_hz"]]
        path = write_config(tmp_path, raw, default_config_path)
        assert validate_config(path) == ([refusal] if refusal else [])
        if refusal is None:
            factors = [f_factor, f_factor, 1.0, f_factor, f_factor]
            for name, got, cells, scale in zip(("f_hz", "fsr_hz", "ratio", "offset_hz",
                                                "delta_f_hz"), dispersion_cells(path), shipped,
                                               factors):
                assert got.tobytes() == (cells * scale).tobytes(), name


@pytest.mark.parametrize("cap", [5, 6])
def test_byte_gate_configs_take_six_newton_steps(tmp_path, monkeypatch, cap):
    # every Bloch root of both configs of the byte gate stops within 6 Newton
    # steps, and some root of each needs all 6
    monkeypatch.setattr(dispersion._CellRows, "step_cap", cap)
    for name, raw in byte_gate_configs().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        if cap == 6:
            cli.plan(load_config(path))
        else:
            with pytest.raises(PrecisionError, match="did not converge in 5 Newton steps"):
                cli.plan(load_config(path))


class TestExitFreeze:
    def test_registered_once_and_nothing_frozen_in_process(
            self, monkeypatch, default_config_path, tmp_path, capsys):
        import atexit
        import gc

        hooks = []

        def register(func):
            hooks.append(func)
            return func

        def unregister(func):
            hooks[:] = [hook for hook in hooks if hook != func]

        monkeypatch.setattr(atexit, "register", register)
        monkeypatch.setattr(atexit, "unregister", unregister)
        frozen = gc.get_freeze_count()
        for name in ("a", "b"):
            assert main(["modes", "--config", str(default_config_path),
                         "--out", str(tmp_path / name)]) == 0
            assert gc.get_freeze_count() == frozen  # the freeze waits for the exit
        assert hooks == [gc.freeze]

    def test_sweep_process_freezes_at_exit_and_prints_every_output(
            self, default_config_path, tmp_path):
        # the probe is registered first, so it runs after the freeze main() registers
        code = ("import atexit, gc, sys;"
                "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0));"
                "from metaring.cli import main; sys.exit(main())")
        env = dict(os.environ, PYTHONPATH=str(Path(metaring.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-c", code, "sweep", "--config", str(default_config_path),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert len(manifest["output_paths"]) == 14
        assert proc.stdout.splitlines() == manifest["output_paths"] + ["frozen at exit: True"]


class TestMainExitCodes:
    def test_success(self, default_config_path, tmp_path, capsys):
        code = main(["modes", "--config", str(default_config_path),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert "modes.csv" in capsys.readouterr().out

    def test_schema_violation_exit_2(self, tmp_path, default_config_path, capsys):
        raw = load_default(default_config_path)
        raw["device"]["microloop"]["width_ratio"] = -1.0
        path = write_config(tmp_path, raw, default_config_path)
        code = main(["tune", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "device.microloop" in capsys.readouterr().err

    def test_solver_error_exit_3(self, tmp_path, default_config_path, capsys):
        raw = load_default(default_config_path)
        path = write_config(tmp_path, raw, default_config_path)
        # featureless trace: the reflection fit finds no resonance
        flat = tmp_path / "trace_s11.csv"
        lines = ["f_hz,re,im"]
        lines += [f"{4.85e9 + 1e3 * k!r},0.8,0.0" for k in range(64)]
        flat.write_text("\n".join(lines) + "\n")
        code = main(["fit", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "solver error" in capsys.readouterr().err

    def test_bad_trace_cell_exit_3(self, tmp_path, default_config_path, capsys):
        path = write_config(tmp_path, load_default(default_config_path), default_config_path)
        trace = tmp_path / "trace_s11.csv"
        lines = trace.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace(",", ",x", 1)
        trace.write_text("".join(lines))
        code = main(["fit", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "solver error" in capsys.readouterr().err

    def test_unconverged_root_exit_3_writes_nothing(self, tmp_path, default_config_path,
                                                    capsys, monkeypatch):
        monkeypatch.setattr(dispersion._CellRows, "step_cap", 1)
        code = main(["sweep", "--config", str(default_config_path),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        # the signal modes of the five ratios, the first solve of the plan
        assert capsys.readouterr().err == (
            "solver error: Bloch root solve: modes m = [65, 71, 77, 82, 87] of N = 3200 "
            "did not converge in 1 Newton steps\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_power_trace_exit_3(self, tmp_path, default_config_path, capsys, command):
        path = write_config(tmp_path, load_default(default_config_path), default_config_path)
        rows = "".join(f"{4.85e9 + 1e3 * k!r},{-3.0 + 0.1 * k!r}\n" for k in range(64))
        (tmp_path / "trace_s11.csv").write_text("f_hz,power_db\n" + rows)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "expected columns f_hz,re,im" in capsys.readouterr().err
        assert not any((tmp_path / "out").glob("*"))  # the trace is read before any write

    @pytest.mark.parametrize("seed", [0, 1])
    def test_featureless_trace_sweep_writes_nothing(self, tmp_path, default_config_path,
                                                    capsys, seed):
        path = write_config(tmp_path, load_default(default_config_path), default_config_path)
        rng = np.random.default_rng(seed)
        f_hz = 4849e6 + 2500.0 * np.arange(801)
        s11 = 0.8 + 0.008 * (rng.standard_normal(801) + 1j * rng.standard_normal(801))
        rows = "".join(f"{f!r},{z.real!r},{z.imag!r}\n"
                       for f, z in zip(f_hz.tolist(), s11.tolist()))
        (tmp_path / "trace_s11.csv").write_text("f_hz,re,im\n" + rows)
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "solver error" in capsys.readouterr().err
        assert not any((tmp_path / "out").glob("*"))  # the fit runs before any write

    @pytest.mark.parametrize("command", ["modes", "fit", "sweep"])
    def test_missing_trace_exit_4_writes_nothing(self, tmp_path, default_config_path,
                                                 capsys, command):
        raw = load_default(default_config_path)
        raw["fit"]["trace_csv"] = "absent.csv"
        path = write_config(tmp_path, raw, default_config_path)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err
        assert not any((tmp_path / "out").glob("*"))

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, default_config_path,
                                             monkeypatch, capsys):
        out = tmp_path / "out"
        run("sweep", default_config_path, out)
        assert (out / "manifest.json").exists()

        def fail(config):
            raise ValueError("saturate failed")

        monkeypatch.setitem(cli._RUNNERS, "saturate", fail)
        code = main(["sweep", "--config", str(default_config_path), "--out", str(out)])
        assert code == 3
        assert "saturate failed" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_failed_tune_writes_nothing(self, tmp_path, default_config_path,
                                        monkeypatch, capsys):
        # tune is the first runner the plan runs: its solver error comes
        # before anything is written
        def fail(loop, bias):
            raise ValueError("tune failed")

        monkeypatch.setattr(tuning, "nonlinearity_report", fail)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(default_config_path), "--out", str(out)])
        assert code == 3
        assert "solver error: tune failed" in capsys.readouterr().err
        assert not any(out.glob("*"))

    def test_late_io_error_writes_nothing(self, tmp_path, default_config_path,
                                          monkeypatch, capsys):
        # the writer loop fails part way, after other tables are written
        real_write_csv, written = _csv.write_csv, []

        def fail_on_saturation(path, header, columns, work):
            if path.name == "saturation.csv":
                raise OSError("disk full")
            real_write_csv(path, header, columns, work)
            written.append(path.name)

        monkeypatch.setattr(_csv, "write_csv", fail_on_saturation)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(default_config_path), "--out", str(out)])
        assert code == 4
        assert "disk full" in capsys.readouterr().err
        assert written and not any(out.glob("*"))

    def test_io_error_exit_4(self, tmp_path, capsys):
        code = main(["modes", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    def test_validate_command(self, default_config_path, tmp_path):
        assert main(["validate", "--config", str(default_config_path)]) == 0

    @pytest.mark.parametrize("edits, leaf", [
        ({("sweep", "band", "stop_hz"): 2e9}, "sweep.band.stop_hz"),
        ({("device", "ring", "segment1", "length"): 1e-300}, "device.ring.segment1.length"),
        ({("converter", "kerr", "rate_hz"): 1e-300}, "converter.kerr.rate_hz"),
        ({("converter", "kerr", "rate_hz"): 1e300}, "converter.kerr.rate_hz"),
        ({("converter", "kerr", "rate_hz"): 1e-30}, "converter.kerr.rate_hz"),
        ({("converter", "kerr", "frequency_hz"): 1e300}, "converter.kerr.frequency_hz"),
        ({("converter", "p0_norm"): None}, "converter.p0_norm"),
        ({("sweep", "ratio", "signal_hz"): 1e6}, "sweep.ratio.signal_hz"),
        ({("sweep", "ratio", "signal_hz"): -1e9}, "sweep.ratio.signal_hz"),
        ({("converter", "g0"): 1e300}, "converter.g0"),
        ({("converter", "kerr", "coupling_efficiency"): 1e-300},
         "converter.kerr.coupling_efficiency"),
        ({("sweep", "band", "stop_hz"): 1e300}, "sweep.band.stop_hz"),
        ({("converter", "p0_norm"): 1e160}, "converter.p0_norm"),
        ({("converter", "fringe", "cooperativity"): 1e160}, "converter.fringe.cooperativity"),
        ({("converter", "g0"): 1e150, ("converter", "n_eff"): 3,
          ("converter", "p0_norm"): None}, "converter.g0"),
        ({("sweep", "pump", "stop"): 1e160}, "sweep.pump.stop"),
        ({("sweep", "pump", "stop"): 1e300}, "sweep.pump.stop"),
        ({("converter", "kappa_s"): 1e-300}, "converter"),
        ({("converter", "kappa_i"): 1e160}, "converter"),
        ({("sweep", "detuning", "span_hz"): 1e160}, "sweep.detuning.span_hz"),
        ({("device", "ring", "cell_count"): 10**20,
          ("sweep", "band", "stop_hz"): 4.0000000000001e9}, "device.ring.cell_count"),
        ({("device", "cell", "segment2", "inductance_per_length"): 1e-200,
          ("device", "cell", "segment2", "capacitance_per_length"): 1e-200},
         "device.cell.segment2"),
        ({("device", "cell", "segment2", "inductance_per_length"): 1e200,
          ("device", "cell", "segment2", "capacitance_per_length"): 1e200},
         "device.cell.segment2"),
        ({("device", "cell", "segment1", "inductance_per_length"): 1e-300,
          ("device", "cell", "segment1", "capacitance_per_length"): 1e-100},
         "device.cell.segment1"),
        ({("device", "cell", "segment2", "inductance_per_length"): 1e-300,
          ("device", "cell", "segment2", "capacitance_per_length"): 1e100},
         "device.cell.segment2"),
        ({("device", "cell", "segment2", "inductance_per_length"): 1e100,
          ("sweep", "band", "stop_hz"): 1e300}, "sweep.band.start_hz"),
        ({("device", "cell", "segment1", "length"): 1e300,
          ("device", "cell", "segment1", "capacitance_per_length"): 1e160}, "device.cell"),
        ({("sweep", "band", "stop_hz"): -1}, "sweep.band.stop_hz"),
        ({("sweep", "field", "stop_mT"): 1.09}, "sweep.field.stop_T"),
        ({("sweep", "field", "stop_mT"): -1.0}, "sweep.field.stop_T"),
        ({("sweep", "field", "stop_mT"): 1.0975}, "sweep.field.stop_T"),
        ({("sweep", "field", "stop_mT"): -1.0975}, "sweep.field.stop_T"),
        ({("sweep", "pump", "stop"): 1e300, ("sweep", "pump", "points"): 0}, "sweep.pump.stop"),
        ({("sweep", "pump", "stop"): 1e300, ("sweep", "pump", "points"): 1}, "sweep.pump.stop"),
        ({("sweep", "pump", "stop"): 1e300, ("sweep", "pump", "points"): 2}, "sweep.pump.stop"),
        ({("sweep", "detuning", "span_hz"): 1e160, ("sweep", "detuning", "points"): 0},
         "sweep.detuning.span_hz"),
        ({("sweep", "detuning", "span_hz"): 1e160, ("sweep", "detuning", "points"): 1},
         "sweep.detuning.span_hz"),
    ], ids=["band_stop_below_start", "ring_segment_1e-300", "kerr_rate_1e-300",
            "kerr_rate_1e300", "kerr_rate_1e-30", "kerr_frequency_1e300", "no_drive",
            "signal_1e6", "signal_negative", "g0_1e300", "kerr_coupling_1e-300",
            "band_stop_1e300", "p0_1e160", "fringe_cooperativity_1e160", "g0_1e150",
            "pump_stop_1e160", "pump_stop_1e300", "kappa_s_1e-300", "kappa_i_1e160",
            "detuning_span_1e160", "cell_count_1e20_narrow_band", "cell_lc_1e-200",
            "cell_lc_1e200", "rail_lc_1e-400", "cell_l_over_c_1e-400",
            "bridge_l_1e100_band_stop_1e300", "cell_delay_inf", "band_stop_negative",
            "field_stop_1.09mT", "field_stop_-1mT", "field_stop_1.0975mT",
            "field_stop_-1.0975mT", "pump_stop_1e300_0_points", "pump_stop_1e300_1_point",
            "pump_stop_1e300_2_points", "detuning_span_1e160_0_points",
            "detuning_span_1e160_1_point"])
    def test_validated_config_runs(self, tmp_path, default_config_path, capsys, edits, leaf):
        raw = load_default(default_config_path)
        for keys, value in edits.items():
            node = raw
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value
        path = str(write_config(tmp_path, raw, default_config_path))
        out = tmp_path / "out"
        code = main(["validate", "--config", path])
        violations = capsys.readouterr().err
        sweep_code = main(["sweep", "--config", path, "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in violations + err
        if code == 2:
            # the sweep refuses the config with validate's own violations
            assert violations.startswith(f"{leaf}: "), violations
            assert (sweep_code, err) == (2, "".join(
                f"config error: {line}\n" for line in violations.splitlines()))
        else:
            assert (code, violations, sweep_code) == (0, "", 0), err

        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        for json_path in out.glob("*.json"):
            json.loads(json_path.read_text(), parse_constant=reject)

    @pytest.mark.parametrize("edits, expected", [
        ({("sweep", "field", "stop_mT"): 5.0, ("sweep", "pump", "stop"): 1e300}, [
            "sweep.field.stop_T: must drive a bias current below device.microloop.i_star_narrow, "
            "so |stop_T| < 0.0010976425998969034 T, got 0.005",
            "sweep.pump.stop: must keep the conversion law and the Kerr steady state finite at "
            "the top of the pump axis, got 1e+300"]),
        ({("sweep", "band", "stop_hz"): 1.2e11, ("sweep", "ratio", "signal_hz"): 1e6}, [
            "sweep.band.stop_hz: 120000000000.0 Hz lies outside the propagating band",
            "sweep.ratio.signal_hz: must lie above the lowest usable mode: at ratio 1.0 and "
            "offset 1000000000.0 Hz the signal mode m = 1 has idler step n = 13, and the sweep "
            "needs n >= 1 and m - n >= 1"]),
        ({("sweep", "pump", "stop"): 1e300, ("sweep", "detuning", "span_hz"): 1e160}, [
            "sweep.pump.stop: must keep the conversion law and the Kerr steady state finite at "
            "the top of the pump axis, got 1e+300",
            "sweep.detuning.span_hz: must keep the conversion spectrum finite at the edges of "
            "the detuning axis, got 1e+160"]),
    ], ids=["field_stop_and_pump_stop", "band_stop_in_stop_band_and_signal",
            "pump_stop_and_detuning_span"])
    def test_faults_in_several_checks_keep_their_order(self, tmp_path, default_config_path,
                                                       capsys, edits, expected):
        # every check reports, in plan order, and the pump stop that both the
        # convert and the saturate runner bound is reported once
        raw = load_default(default_config_path)
        for keys, value in edits.items():
            node = raw
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value
        path = str(write_config(tmp_path, raw, default_config_path))
        assert main(["validate", "--config", path]) == 2
        assert capsys.readouterr().err.splitlines() == expected
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {v}" for v in expected]

    @pytest.mark.parametrize("command", ["sweep", "fit"])
    @pytest.mark.parametrize("trace", ["missing", "flat"])
    def test_plan_violation_precedes_trace_errors(self, tmp_path, default_config_path, capsys,
                                                  trace, command):
        # a refused plan exits 2 before the trace is hashed (a missing file,
        # exit 4) or fitted (no resonance, exit 3), and makes no --out
        raw = load_default(default_config_path)
        raw["fit"]["trace_csv"] = "trace.csv"
        if trace == "flat":
            rows = "".join(f"{4.85e9 + 1e3 * k!r},0.8,0.0\n" for k in range(101))
            (tmp_path / "trace.csv").write_text("f_hz,re,im\n" + rows)
        path = str(write_config(tmp_path, raw, default_config_path))
        assert main([command, "--config", path, "--out", str(tmp_path / "valid")]) == (
            4 if trace == "missing" else 3)
        capsys.readouterr()
        raw["sweep"]["pump"]["stop"] = 1e300
        path, out = str(write_config(tmp_path, raw, default_config_path)), tmp_path / "out"
        assert main(["validate", "--config", path]) == 2
        violations = capsys.readouterr().err.splitlines()
        assert violations and violations[0].startswith("sweep.pump.stop: ")
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {line}" for line in violations]
        assert not out.exists()

    def test_refused_plan_exit_2_with_out_a_file(self, tmp_path, default_config_path, capsys):
        # the plan's violations come before any I/O error on --out
        raw = load_default(default_config_path)
        raw["sweep"]["pump"]["stop"] = 1e300
        path = str(write_config(tmp_path, raw, default_config_path))
        (tmp_path / "out").write_text("")
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: sweep.pump.stop: ")

    @pytest.mark.parametrize("cell_count", [1999999, 10**10, 10**12])
    def test_huge_ring_refused_before_allocation(self, tmp_path, default_config_path,
                                                 cell_count):
        # 1 GiB of address space: the modes runner alone would ask for
        # 1.77 GiB at 10**10 cells and 177 GiB at 10**12; one cell past the
        # cap is refused alike
        raw = load_default(default_config_path)
        raw["device"]["ring"]["cell_count"] = cell_count
        path = write_config(tmp_path, raw, default_config_path)
        code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30));"
                "from metaring.cli import main; sys.exit(main())")
        env = dict(os.environ, PYTHONPATH=str(Path(metaring.__file__).parent.parent),
                   OPENBLAS_NUM_THREADS="1")
        expected = f"device.ring.cell_count: must be <= 1999998, got {cell_count}\n"
        for command, prefix in (("validate", ""), ("sweep", "config error: ")):
            proc = subprocess.run(
                [sys.executable, "-c", code, command, "--config", str(path),
                 "--out", str(tmp_path / "out")],
                env=env, capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stderr) == (2, prefix + expected)
        assert not (tmp_path / "out").exists()

    def test_largest_ring_validates(self, tmp_path, default_config_path):
        raw = load_default(default_config_path)
        raw["device"]["ring"]["cell_count"] = 1999998
        assert validate_config(write_config(tmp_path, raw, default_config_path)) == []

    @pytest.mark.parametrize("fit, violation", [
        ({"trace_csv": 5}, "fit.trace_csv: must be a non-empty string, got 5"),
        ("trace_s11.csv", "fit: must be a JSON object"),
    ])
    def test_malformed_fit_exit_2(self, tmp_path, default_config_path, capsys, fit, violation):
        raw = load_default(default_config_path)
        raw["fit"] = fit
        path = write_config(tmp_path, raw, default_config_path)
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"{violation}\n"
        assert main(["fit", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {violation}\n"

    def test_fit_without_a_trace_exit_2_writes_nothing(self, tmp_path, default_config_path,
                                                        capsys):
        raw = load_default(default_config_path)
        del raw["fit"]
        path = write_config(tmp_path, raw, default_config_path)
        assert main(["fit", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: fit.trace_csv: required for the fit command\n"
        assert not (tmp_path / "out").exists()

    def test_oversized_sweep_exit_2(self, tmp_path, default_config_path, capsys):
        raw = load_default(default_config_path)
        raw["sweep"]["phase"]["points"] = _MAX_SWEEP_POINTS + 1
        path = write_config(tmp_path, raw, default_config_path)
        code = main(["fringe", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "sweep.phase.points: must be <=" in capsys.readouterr().err


def scaled_config(tmp_path: Path) -> Path:
    """perfbench's seed-1 scaled config, the benchmark's sweep_scaled."""
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(perfbench_module("inputs").scaled_config(
        CONFIG_DIR / "default.json", CONFIG_DIR / "trace_s11.csv", seed=1)))
    return path


def float_cells(config: Path) -> int:
    return sum(cli._float_cells(file) for each in cli.plan(load_config(config)).values()
               for file in each)


def no_child_left() -> bool:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class TestTwoProcessWriter:
    """A run of at least ``_FORK_CELLS`` float cells writes part of its CSV
    tables in a forked child; its outputs and failures are those of a run in
    one process."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        """Two CPUs in the affinity mask, so a host held to one CPU forks here too."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def forks(self, monkeypatch) -> list:
        """The pids of the children ``os.fork`` makes from now on."""
        real_fork, pids = os.fork, []

        def fork():
            pid = real_fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return pids

    def test_forked_run_matches_one_process(self, tmp_path, monkeypatch):
        config = scaled_config(tmp_path)
        assert float_cells(config) >= cli._FORK_CELLS
        pids = self.forks(monkeypatch)
        forked = run("sweep", config, tmp_path / "forked")
        assert len(pids) == 1 and no_child_left()
        monkeypatch.delattr(os, "fork")
        alone = run("sweep", config, tmp_path / "alone")
        assert forked.output_paths == alone.output_paths
        for name in alone.output_paths:
            assert (tmp_path / "forked" / name).read_bytes() == \
                (tmp_path / "alone" / name).read_bytes(), name
        assert sorted(path.name for path in (tmp_path / "forked").iterdir()) == \
            sorted(alone.output_paths + ["manifest.json"])

    def test_child_io_error_exit_4_writes_nothing(self, tmp_path, default_config_path,
                                                  monkeypatch, capsys):
        parent, real_write_csv = os.getpid(), _csv.write_csv

        def fail_in_child(path, header, columns, work):
            if os.getpid() != parent:
                raise OSError(f"child disk full at {path.name}")
            real_write_csv(path, header, columns, work)

        monkeypatch.setattr(_csv, "write_csv", fail_in_child)
        monkeypatch.setattr(cli, "_FORK_CELLS", 0)
        pids = self.forks(monkeypatch)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(default_config_path), "--out", str(out)])
        assert code == 4 and len(pids) == 1
        assert "i/o error: child disk full at " in capsys.readouterr().err
        assert not any(out.glob("*"))
        assert no_child_left()

    def test_child_failure_raises_its_traceback(self, tmp_path, default_config_path,
                                                monkeypatch):
        parent, real_write_csv = os.getpid(), _csv.write_csv

        def fail_in_child(path, header, columns, work):
            if os.getpid() != parent:
                raise TypeError("a bad column")
            real_write_csv(path, header, columns, work)

        monkeypatch.setattr(_csv, "write_csv", fail_in_child)
        monkeypatch.setattr(cli, "_FORK_CELLS", 0)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="(?s)exited with 1:.*TypeError: a bad column"):
            run("sweep", default_config_path, out)
        assert not any(out.glob("*"))
        assert no_child_left()

    def test_parent_failure_kills_the_writing_child(self, tmp_path, default_config_path,
                                                    monkeypatch, capsys):
        parent = os.getpid()

        def child_hangs(path, header, columns, work):
            if os.getpid() != parent:
                time.sleep(60)  # killed long before
            raise OSError("parent disk full")

        monkeypatch.setattr(_csv, "write_csv", child_hangs)
        monkeypatch.setattr(cli, "_FORK_CELLS", 0)
        pids = self.forks(monkeypatch)
        out = tmp_path / "out"
        start = time.monotonic()
        code = main(["sweep", "--config", str(default_config_path), "--out", str(out)])
        assert time.monotonic() - start < 30
        assert code == 4 and "i/o error: parent disk full" in capsys.readouterr().err
        assert len(pids) == 1 and no_child_left()
        assert not any(out.glob("*"))  # the staging directory is gone

    def test_failed_fork_writes_in_one_process(self, tmp_path, default_config_path,
                                               monkeypatch):
        def fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(cli, "_FORK_CELLS", 0)
        monkeypatch.setattr(os, "fork", fork)
        written = run("sweep", default_config_path, tmp_path / "out")
        monkeypatch.delattr(os, "fork")
        alone = run("sweep", default_config_path, tmp_path / "alone")
        for name in alone.output_paths:
            assert (tmp_path / "out" / name).read_bytes() == \
                (tmp_path / "alone" / name).read_bytes(), name
        assert written.output_paths == alone.output_paths

    def test_live_thread_keeps_one_process(self, tmp_path, default_config_path, monkeypatch):
        monkeypatch.setattr(cli, "_FORK_CELLS", 0)
        pids = self.forks(monkeypatch)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            run("sweep", default_config_path, tmp_path / "threaded")
        finally:
            done.set()
            thread.join()
        assert pids == []
        run("sweep", default_config_path, tmp_path / "alone")
        assert len(pids) == 1

    def test_one_cpu_writes_in_one_process(self, tmp_path, default_config_path, monkeypatch):
        monkeypatch.setattr(cli, "_FORK_CELLS", 0)
        pids = self.forks(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        alone = run("sweep", default_config_path, tmp_path / "alone")
        assert pids == []
        # where no affinity mask can be read, the rest of the rule decides
        monkeypatch.delattr(os, "sched_getaffinity")
        forked = run("sweep", default_config_path, tmp_path / "forked")
        assert len(pids) == 1 and no_child_left()
        assert alone.output_paths == forked.output_paths
        for name in forked.output_paths:
            assert (tmp_path / "alone" / name).read_bytes() == \
                (tmp_path / "forked" / name).read_bytes(), name

    def test_shipped_config_writes_in_one_process(self, tmp_path, default_config_path,
                                                  monkeypatch):
        # the desk run: a fork would cost it more than it saves
        assert float_cells(default_config_path) < cli._FORK_CELLS
        pids = self.forks(monkeypatch)
        run("sweep", default_config_path, tmp_path / "out")
        assert pids == []


class TestConfigObjects:
    def test_loaded_objects_match_file(self, default_config_path):
        config = load_config(default_config_path)
        assert config.ring.cell_count == 3200
        assert config.microloop.width_ratio == 0.5
        assert config.converter.eta_s == 0.99
        assert config.kerr.quality_factor == 3.9e4
        assert len(config.pairs) == 8
        assert config.fit_trace is not None and config.fit_trace.exists()

    def test_config_holds_its_inputs_only(self):
        assert cli.Config._fields == (
            "ring", "microloop", "cell", "converter", "kerr", "fringe", "pairs", "sweeps",
            "fit_trace", "config_hash")

    def test_validate_plans_every_runner_but_the_fit(self, default_config_path, tmp_path,
                                                     monkeypatch):
        calls = Counter()
        for name, runner in list(cli._RUNNERS.items()):
            monkeypatch.setitem(cli._RUNNERS, name, lambda config, _name=name, _runner=runner:
                                calls.update([_name]) or _runner(config))
        out = tmp_path / "out"
        assert main(["validate", "--config", str(default_config_path), "--out", str(out)]) == 0
        assert calls == Counter(name for name in cli._RUNNERS if name != "fit")
        assert not out.exists()

    def test_hash_ignores_whitespace(self, default_config_path, tmp_path):
        raw = load_default(default_config_path)
        compact = tmp_path / "compact.json"
        compact.write_text(json.dumps(raw, separators=(",", ":")))
        assert load_config(compact).config_hash == load_config(default_config_path).config_hash
