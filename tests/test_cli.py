import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metaring
from metaring.cli import _CSV_BLOCK_ROWS, _write_csv, main, run
from metaring.config import (
    _MAX_SWEEP_POINTS,
    _SCHEMA,
    _Section,
    load_config,
    normalize_units,
    validate_config,
)
from metaring.errors import ConfigError


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


class TestUnitNormalization:
    def test_millitesla_suffix(self):
        assert normalize_units({"stop_mT": 0.2}) == {"stop_T": pytest.approx(2e-4)}

    # no schema key takes watts or a decibel ratio: these stay unknown keys
    def test_dbm_suffix(self):
        raw = {"power_dBm": -30.0}
        assert normalize_units(raw) == raw

    def test_db_suffix(self):
        raw = {"gain_dB": 4000}
        assert normalize_units(raw) == raw

    def test_nested_and_lists(self):
        out = normalize_units({"a": {"b_mT": [1.0, 2.0]}, "c_hz": 5.0})
        assert out["a"]["b_T"] == [pytest.approx(1e-3), pytest.approx(2e-3)]
        assert out["c_hz"] == 5.0

    def test_canonical_keys_pass_through(self):
        raw = {"stop_T": 2e-4, "power_W": 1e-6, "points": 3}
        assert normalize_units(raw) == raw


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
        (("converter", "n_eff"), True, "converter.n_eff: must be a finite number or null"),
        (("converter", "p0_norm"), True, "converter.p0_norm: must be a finite number or null"),
        (("sweep", "ratio", "values"), [1.0, True], "sweep.ratio.values: must be a list"),
        (("converter", "pairs"), [[0.99, 0.97], True], "converter.pairs: must be a list"),
        (("converter", "n_eff"), float("nan"), "converter.n_eff: must be a finite number"),
        (("device", "ring", "segment2"), 5, "device.ring.segment2: must be a JSON object"),
        (("sweep", "phase", "points"), True, "sweep.phase.points: must be an integer"),
        (("device", "ring", "cell_count"), 10 ** 400, "device.ring.cell_count: must be an integer"),
        (("fit", "trace_csv"), 5, "fit.trace_csv: must be a non-empty string"),
        (("fit",), "trace_s11.csv", "fit: must be a JSON object"),
        (("sweep", "ratio", "offsets_hz"), [1e9, 0.0],
         "sweep.ratio.offsets_hz: every entry must be > 0, got 0.0"),
        (("sweep", "ratio", "values"), [1.0, 0.5],
         "sweep.ratio.values: every entry must be >= 1, got 0.5"),
        (("sweep", "field", "stop_T"), 5.0, "sweep.field.stop_T: given twice"),
    ], ids=["top_unknown", "section_unknown", "nested_unknown", "n_eff_true", "p0_norm_true",
            "values_true", "pairs_true", "n_eff_nan", "segment2_int", "points_true",
            "cell_count_huge", "trace_csv_int", "fit_string", "offset_zero", "ratio_below_one",
            "stop_given_twice"])
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
        for key in ("g0", "n_eff", "p0_norm", "pairs"):
            del raw["converter"][key]
        del raw["converter"]["fringe"]["eta_s"]
        del raw["sweep"]["ratio"]["values"]
        raw["device"]["ring"]["segment2"] = None
        config = load_config(write_config(tmp_path, raw, default_config_path))
        assert (config.converter.g0, config.converter.n_eff, config.converter.p0_norm) == (
            0.0, None, 1.0)
        assert config.pairs == () and config.sweeps["ratio"]["values"] == ()
        assert config.fringe.eta_s == 1.0 and config.ring.segment2 is None

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

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        violations = validate_config(path)
        assert violations and "invalid JSON" in violations[0]

    def test_unreadable_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            validate_config(tmp_path / "missing.json")


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
    assert documented == list(schema_leaf_paths(_SCHEMA))


def _fmt(value) -> str:
    """One CSV cell; None and NaN (a missing value) are written empty."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    number = float(value)
    if math.isnan(number):
        return ""
    return repr(number + 0.0)  # adding 0.0 writes -0.0 as 0.0


def write_csv_per_cell(path: Path, header, rows) -> None:
    """The per-cell writer that the column writer replaced: the byte oracle."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _long_table():
    rows = 2 * _CSV_BLOCK_ROWS + 3
    floats = np.linspace(-1e20, 1e20, rows)
    floats[::7] = -0.0
    floats[::11] = np.nan
    return floats, np.arange(rows) - rows // 2, np.arange(rows) % 3 == 0


class TestColumnWriter:
    @pytest.mark.parametrize("columns", [
        (np.array([np.nan, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1e-20]),
         np.array([0, -1, 2, 2**62, -2**63, 7, 8, 9, 10]),
         np.array([True, False, True, True, False, False, True, False, True]),
         [float("nan"), 1.0, -0.0, 3.0, float("nan"), float("nan"), 2.5, -5e-324, 1e308]),
        ([0.5, -0.0, float("nan")], [1, 2, 3], [np.bool_(True), np.bool_(False), True]),
        (np.array([]), [], np.array([], dtype=bool)),
        _long_table(),
    ], ids=["cell_kinds", "lists", "empty", "longer_than_a_block"])
    def test_same_bytes_as_per_cell_writer(self, tmp_path, columns):
        header = [f"c{j}" for j in range(len(columns))]
        _write_csv(tmp_path / "columns.csv", header, columns)
        write_csv_per_cell(tmp_path / "cells.csv", header, zip(*columns))
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    def test_other_column_kinds_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="floats, ints or bools"):
            _write_csv(tmp_path / "columns.csv", ("a", "b"), ([1.0, 2.0], [None, 2.5]))


class TestSweepBytes:
    @pytest.mark.parametrize("points", [None, 2500], ids=["shipped", "across_block_edges"])
    def test_sweep_csvs_match_per_cell_writer(self, tmp_path, default_config_path,
                                              monkeypatch, points):
        config = default_config_path
        if points is not None:
            assert points > 2 * _CSV_BLOCK_ROWS
            raw = load_default(default_config_path)
            for axis in ("pump", "detuning", "phase"):
                raw["sweep"][axis]["points"] = points
            config = write_config(tmp_path, raw, default_config_path)
        manifest = run("sweep", config, tmp_path / "columns")
        monkeypatch.setattr(
            "metaring.cli._write_csv",
            lambda path, header, columns: write_csv_per_cell(path, header, zip(*columns)),
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

    def test_convert_peaks_at_unit_pump(self, default_config_path, tmp_path):
        run("convert", default_config_path, tmp_path / "out")
        rows = read_csv(tmp_path / "out" / "pump.csv")[1:]
        pump = np.array([float(r[0]) for r in rows])
        t2 = np.array([float(r[1]) for r in rows])
        assert pump[int(np.argmax(t2))] == pytest.approx(1.0, abs=0.06)

    def test_empty_sweep_writes_header_only(self, tmp_path, default_config_path):
        raw = load_default(default_config_path)
        raw["sweep"]["pump"]["points"] = 0
        path = write_config(tmp_path, raw, default_config_path)
        run("convert", path, tmp_path / "out")
        rows = read_csv(tmp_path / "out" / "pump.csv")
        assert rows == [["p0_norm", "t2", "r2"]]

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

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_power_trace_exit_3(self, tmp_path, default_config_path, capsys, command):
        path = write_config(tmp_path, load_default(default_config_path), default_config_path)
        rows = "".join(f"{4.85e9 + 1e3 * k!r},{-3.0 + 0.1 * k!r}\n" for k in range(64))
        (tmp_path / "trace_s11.csv").write_text("f_hz,power_db\n" + rows)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "expected columns f_hz,re,im" in capsys.readouterr().err

    def test_io_error_exit_4(self, tmp_path, capsys):
        code = main(["modes", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    def test_validate_command(self, default_config_path, tmp_path):
        assert main(["validate", "--config", str(default_config_path)]) == 0

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

    def test_oversized_sweep_exit_2(self, tmp_path, default_config_path, capsys):
        raw = load_default(default_config_path)
        raw["sweep"]["phase"]["points"] = _MAX_SWEEP_POINTS + 1
        path = write_config(tmp_path, raw, default_config_path)
        code = main(["fringe", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "sweep.phase.points: must be <=" in capsys.readouterr().err


class TestConfigObjects:
    def test_loaded_objects_match_file(self, default_config_path):
        config = load_config(default_config_path)
        assert config.ring.cell_count == 3200
        assert config.microloop.width_ratio == 0.5
        assert config.converter.eta_s == 0.99
        assert config.kerr.quality_factor == 3.9e4
        assert len(config.pairs) == 8
        assert config.fit_trace is not None and config.fit_trace.exists()

    def test_hash_ignores_whitespace(self, default_config_path, tmp_path):
        raw = load_default(default_config_path)
        compact = tmp_path / "compact.json"
        compact.write_text(json.dumps(raw, separators=(",", ":")))
        assert load_config(compact).config_hash == load_config(default_config_path).config_hash
