import csv
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import metaring
from metaring import (
    FitResult,
    Trace,
    fit_linear_modes,
    fit_reflection_resonance,
    least_squares,
    reflection_s11,
)
from metaring.errors import ConditioningError, NoResonanceError
from metaring.fitting import (
    _middle_frequency,
    _phasor,
    _reflection_guess,
    coupling_fraction,
    reflection_jacobian,
)
from conftest import CONFIG_DIR, rel_err

F0 = 4.85e9
Q_IN = 3.93e5
Q_EX = 2.51e4


CONVERGED = {"gtol", "ftol", "xtol", "zero_residual"}


def criterion_13_trace(seed, q_in=Q_IN, q_ex=Q_EX, delay=1e-9):
    """Trace on the grid of acceptance criterion 13 with its 1 % noise."""
    freq = np.linspace(F0 - 0.75e6, F0 + 0.75e6, 6001)
    clean = reflection_s11(freq, F0, q_in, q_ex, amplitude=0.8, phase_offset=0.3,
                           delay=delay, reference_frequency=float(np.median(freq)))
    rng = np.random.default_rng(seed)
    noise = 0.01 * 0.8 * (rng.standard_normal(freq.size) + 1j * rng.standard_normal(freq.size))
    return Trace(frequency=freq, response=clean + noise)


def dict_reader_parse(path):
    """The per-row csv.DictReader parse that np.loadtxt replaced: the bit oracle."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    freq = np.array([float(r["f_hz"]) for r in rows])
    return freq, np.array([float(r["re"]) + 1j * float(r["im"]) for r in rows])


def make_trace(noise=0.0, seed=0, points=801, span=2e6, amplitude=0.8,
               phase_offset=0.3, delay=1e-9):
    freq = np.linspace(F0 - span / 2, F0 + span / 2, points)
    z = reflection_s11(freq, F0, Q_IN, Q_EX, amplitude, phase_offset, delay,
                       reference_frequency=float(np.median(freq)))
    if noise:
        rng = np.random.default_rng(seed)
        z = z + noise * (rng.standard_normal(points) + 1j * rng.standard_normal(points))
    return Trace(frequency=freq, response=z)


def start_at(monkeypatch, params):
    """Make the reflection fit start at ``params`` instead of its closed-form guess."""
    monkeypatch.setattr(metaring.fitting, "_reflection_guess", lambda trace: (
        np.asarray(params, dtype=float), _middle_frequency(trace.frequency)))


class TestTrace:
    def test_requires_increasing_frequencies(self):
        with pytest.raises(ValueError):
            Trace(frequency=np.array([1.0, 3.0, 2.0, 4.0, 5.0]),
                  response=np.zeros(5))

    def test_requires_minimum_points(self):
        with pytest.raises(ValueError):
            Trace(frequency=np.arange(4.0), response=np.zeros(4))

    def test_requires_matched_lengths(self):
        with pytest.raises(ValueError):
            Trace(frequency=np.arange(6.0), response=np.zeros(5))

    def test_csv_round_trip(self, tmp_path):
        trace = make_trace(noise=0.01, seed=3)
        path = tmp_path / "trace.csv"
        with open(path, "w") as fh:
            fh.write("f_hz,re,im\n")
            for f, z in zip(trace.frequency, trace.response):
                fh.write(f"{float(f)!r},{float(z.real)!r},{float(z.imag)!r}\n")
        loaded = Trace.from_csv(path)
        assert np.array_equal(loaded.frequency, trace.frequency)
        assert np.array_equal(loaded.response, trace.response)

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("f_hz,re,im\n")
        with pytest.raises(ValueError, match="empty trace file"):
            Trace.from_csv(path)

    def test_columns_selected_by_name(self, tmp_path):
        trace = make_trace(noise=0.01, seed=4)
        path = tmp_path / "trace.csv"
        lines = ["im,re,f_hz"] + [f"{float(z.imag)!r},{float(z.real)!r},{float(f)!r}"
                                  for f, z in zip(trace.frequency, trace.response)]
        path.write_text("\n".join(lines) + "\n")
        loaded = Trace.from_csv(path)
        assert np.array_equal(loaded.frequency, trace.frequency)
        assert np.array_equal(loaded.response, trace.response)

    @pytest.mark.parametrize("body", ["1e9,0.5,x\n", "1e9,0.5,\n", "1e9,0.5\n"],
                             ids=["text_cell", "empty_cell", "short_row"])
    def test_bad_cell_is_value_error(self, tmp_path, body):
        path = tmp_path / "trace.csv"
        rows = "".join(f"{1e9 + k!r},0.5,0.25\n" for k in range(1, 6))
        path.write_text("f_hz,re,im\n" + rows + body)
        with pytest.raises(ValueError):
            Trace.from_csv(path)

    def test_rows_wider_than_the_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("f_hz,re,im\n" + "".join(f"{1e9 + k!r},0.5,0.25,1.0\n" for k in range(6)))
        with pytest.raises(ValueError, match="the header names 3 columns, the rows hold 4"):
            Trace.from_csv(path)

    @pytest.mark.parametrize("body", ["\n", "\r\n\n"], ids=["newline", "blank_lines"])
    def test_blank_body_is_empty(self, tmp_path, body):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"f_hz,re,im\n" + body.encode())
        with pytest.raises(ValueError, match="empty trace file"):
            Trace.from_csv(path)

    def test_form_feed_is_not_a_line_end(self, tmp_path):
        # the body is split at the file's own line ends, so this is one bad row
        path = tmp_path / "trace.csv"
        rows = "".join(f"{1e9 + k!r},0.5,0.25\n" for k in range(1, 6))
        path.write_text("f_hz,re,im\n" + rows + "1000000006.0,0.5,0.25\x0c1000000007.0,0.5,0.25\n")
        with pytest.raises(ValueError, match="at row 6"):
            Trace.from_csv(path)

    def test_unknown_columns_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        for header in ("f_hz,s11", "f_hz,power_db", "f_hz,re,im,re", "f_hz,re,im,power_db"):
            cells = ",0.5" * header.count(",")
            path.write_text(f"{header}\n" + "".join(f"{1e9 + k!r}{cells}\n" for k in range(6)))
            with pytest.raises(ValueError, match="expected columns f_hz,re,im"):
                Trace.from_csv(path)

    @pytest.mark.parametrize("row", ["1000000006.0,nan,0.25\n", "inf,0.5,0.25\n"],
                             ids=["nan_cell", "inf_cell"])
    def test_non_finite_cell_rejected(self, tmp_path, row):
        path = tmp_path / "trace.csv"
        rows = "".join(f"{1e9 + k!r},0.5,0.25\n" for k in range(1, 6))
        path.write_text("f_hz,re,im\n" + rows + row)
        with pytest.raises(ValueError, match="must be finite"):
            Trace.from_csv(path)

    @pytest.mark.parametrize("layout", [None, "f_hz,re,im"], ids=["shipped", "re_im"])
    def test_bits_match_dict_reader(self, tmp_path, default_config_path, layout):
        path = default_config_path.parent / "trace_s11.csv"
        if layout is not None:
            rng = np.random.default_rng(11)
            cells = rng.uniform(-80.0, 10.0, (400, 2))
            cells[::9] = -0.0
            cells[1::13, 1] = 5e-324
            freq = 1e9 + 25.0 * np.arange(400)
            path = tmp_path / "trace.csv"
            lines = [layout]
            for f, (a, b) in zip(freq.tolist(), cells.tolist()):
                lines.append(f"{f!r},{a!r},{b!r}")
            path.write_text("\n".join(lines) + "\n")
        loaded = Trace.from_csv(path)
        freq, resp = dict_reader_parse(path)
        assert loaded.frequency.tobytes() == freq.tobytes()
        assert loaded.response.tobytes() == resp.tobytes()


def line(p, x):
    return p[0] * x + p[1]


def line_jac(p, x, _value):
    return np.column_stack([x, np.ones_like(x)])


def ray(p, x):
    return p[0] * x


def ray_jac(p, x, _value):
    return x[:, None]


def valley(p, _):
    return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])


def valley_jac(p, _x, _value):
    return np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])


def lorentzian(p, x):
    return p[0] / (1.0 + ((x - p[1]) / p[2]) ** 2)


def lorentzian_jac(p, x, _value):
    u = (x - p[1]) / p[2]
    d = 1.0 / (1.0 + u * u)
    return np.column_stack([d, 2.0 * p[0] * u * d * d / p[2], 2.0 * p[0] * u * u * d * d / p[2]])


def gaussian(p, x):
    return p[0] * np.exp(-0.5 * ((x - p[1]) / p[2]) ** 2)


def gaussian_jac(p, x, _value):
    u = (x - p[1]) / p[2]
    e = np.exp(-0.5 * u * u)
    return np.column_stack([e, p[0] * e * u / p[2], p[0] * e * u * u / p[2]])


def tanh_model(p, x):
    return np.tanh(p[0] * x)


def tanh_jac(p, x, _value):
    return (x * (1.0 - np.tanh(p[0] * x) ** 2))[:, None]


def complex_line(p, x):
    return (p[0] + 1j * p[1]) * x


def complex_line_jac(p, x, _value):
    return np.column_stack([x, 1j * x])


def complex_exp(p, x):
    return np.exp((p[0] + 1j * p[1]) * x)


def complex_exp_jac(p, x, value):
    d = x * value
    return np.column_stack([d, 1j * d])


def engine_fit(model, data, initial, jac, **options):
    """least_squares with each option it is not given free: no bounds, the names
    p0, p1, ... and the scales max(|initial|, 1)."""
    n_par = len(initial)
    options = {"bounds": ([-np.inf] * n_par, [np.inf] * n_par),
               "param_names": [f"p{j}" for j in range(n_par)],
               "scales": np.maximum(np.abs(np.asarray(initial, dtype=float)), 1.0), **options}
    return least_squares(model, data, initial, jac=jac, **options)


# each engine test's model and Jacobian, with a point to check the Jacobian at
JACOBIAN_CASES = {
    "line": (line, line_jac, [1.3, -0.7], np.arange(10.0)),
    "ray": (ray, ray_jac, [1.3], np.arange(1.0, 11.0)),
    "valley": (valley, valley_jac, [-1.2, 1.0], np.zeros(2)),
    "lorentzian": (lorentzian, lorentzian_jac, [2.0, 0.5, 1.2], np.linspace(-5, 5, 201)),
    "gaussian": (gaussian, gaussian_jac, [0.5, 0.3, 2.0], np.linspace(-3, 3, 101)),
    "tanh": (tanh_model, tanh_jac, [3.0], np.linspace(-2, 2, 51)),
    "complex_line": (complex_line, complex_line_jac, [1.5, 0.5], np.linspace(0, 1, 21)),
    "complex_exp": (complex_exp, complex_exp_jac, [-1.5, 4.0], np.linspace(0, 1, 21)),
}


class TestLeastSquaresEngine:
    def test_linear_model_exact_in_two_iterations(self):
        x = np.arange(10.0)
        y = 3.5 * x + 1.25
        result = engine_fit(line, (x, y), [1.0, 0.0], param_names=("a", "b"), jac=line_jac)
        assert result.converged
        assert len(result.residual_history) - 1 <= 2
        assert rel_err(result.parameters["a"], 3.5) < 1e-9
        assert rel_err(result.parameters["b"], 1.25) < 1e-9

    def test_bent_valley_converges_to_known_minimum(self):
        result = engine_fit(valley, (np.zeros(2), np.zeros(2)), [-1.2, 1.0], jac=valley_jac)
        assert result.converged
        assert abs(result.parameters["p0"] - 1.0) < 1e-8
        assert abs(result.parameters["p1"] - 1.0) < 1e-8

    def test_monte_carlo_recovery_within_three_standard_errors(self):
        x = np.linspace(-5, 5, 201)
        true = {"amp": 2.0, "x0": 0.5, "w": 1.2}
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = lorentzian([2.0, 0.5, 1.2], x) + 0.02 * rng.standard_normal(x.size)
            result = engine_fit(lorentzian, (x, y), [1.0, 0.0, 2.0],
                                param_names=("amp", "x0", "w"), jac=lorentzian_jac)
            hits += all(
                abs(result.parameters[k] - v) <= 3 * result.standard_errors[k]
                for k, v in true.items()
            )
        assert hits >= 95

    def test_residual_history_non_increasing(self):
        rng = np.random.default_rng(5)
        x = np.linspace(-3, 3, 101)
        y = np.exp(-0.5 * (x - 0.3) ** 2) + 0.05 * rng.standard_normal(x.size)
        result = engine_fit(gaussian, (x, y), [0.5, 0.0, 2.0], jac=gaussian_jac)
        history = np.array(result.residual_history)
        assert np.all(np.diff(history) <= 0)

    def test_dead_parameter_raises_conditioning_error(self):
        x = np.arange(10.0)
        y = 2.0 * x
        with pytest.raises(ConditioningError):
            engine_fit(lambda p, xx: p[0] * xx + 0.0 * p[1], (x, y), [1.0, 1.0],
                       jac=lambda p, xx, _value: np.column_stack([xx, 0.0 * xx]))

    def test_parameters_seen_only_as_a_sum_raise_conditioning_error(self):
        # each column is alive, but the two are one: the step's solve is singular
        x = np.arange(10.0)
        with pytest.raises(ConditioningError, match="least-squares step"):
            engine_fit(lambda p, xx: (p[0] + p[1]) * xx, (x, 2.0 * x), [1.0, 0.5],
                       jac=lambda p, xx, _value: np.column_stack([xx, xx]))

    def test_step_that_is_not_finite_raises_conditioning_error(self, monkeypatch):
        # no finite residual and Jacobian are known to make a non-finite
        # step; a solve that returns one stands in
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
        x = np.arange(10.0)
        with pytest.raises(ConditioningError, match="least-squares step"):
            engine_fit(ray, (x, 2.0 * x), [1.0], jac=ray_jac)

    @pytest.mark.parametrize("bad, model", [
        (np.nan, ray), (np.inf, ray), (-np.inf, ray),
        (0.0, lambda p, xx: p[0] * np.where(xx == 3.0, np.nan, xx)),
    ], ids=["nan_data", "inf_data", "minus_inf_data", "nan_model"])
    def test_start_that_is_not_finite_is_refused(self, bad, model):
        # a NaN residual would pass every stop test and make a NaN step
        x = np.arange(10.0)
        y = 2.0 * x
        y[3] += bad
        with pytest.raises(ValueError, match="data or model at initial: every residual"):
            engine_fit(model, (x, y), [1.0], jac=ray_jac)

    def test_xtol_measures_the_step_against_the_scales(self):
        # a parameter said to be of size 1e20 has moved by less than 1e-10
        # of that after a first step of about 0.7, so xtol stops it there
        x = np.linspace(-2, 2, 51)
        result = engine_fit(tanh_model, (x, np.tanh(3 * x)), [1.0], jac=tanh_jac,
                            scales=[1e20])
        assert (result.termination, result.iterations, result.converged) == ("xtol", 1, True)
        assert 1.0 < result.parameters["p0"] < 2.0
        assert engine_fit(tanh_model, (x, np.tanh(3 * x)), [1.0],
                          jac=tanh_jac).termination == "gtol"

    def test_non_convergence_flag(self, monkeypatch):
        monkeypatch.setattr("metaring.fitting._MAX_ITER", 1)
        rng = np.random.default_rng(9)
        x = np.linspace(-2, 2, 51)
        y = np.tanh(3 * x) + 0.05 * rng.standard_normal(x.size)
        result = engine_fit(tanh_model, (x, y), [50.0], jac=tanh_jac)
        assert not result.converged
        assert result.termination == "max_iter"
        assert result.iterations == 1

    def test_start_at_optimum_converges(self):
        rng = np.random.default_rng(0)
        x = np.arange(10.0)
        y = 2.0 * x + 1.0 + rng.standard_normal(x.size)
        slope, offset = np.polyfit(x, y, 1)
        result = engine_fit(line, (x, y), [slope, offset], jac=line_jac)
        assert result.termination == "ftol"
        assert result.converged

    def test_singular_prediction_is_an_ordinary_rejected_step(self, monkeypatch):
        # no real fit reaches a singular undamped matrix in the ftol
        # prediction, so its solve is made to fail: each such step must count
        # as rejected and raise the damping, here until the cap
        solve = np.linalg.solve
        damped_diagonals = []

        def failing_prediction(a, b):
            if sys._getframe(1).f_code.co_name == "predicted_drop":
                raise np.linalg.LinAlgError("Singular matrix")
            damped_diagonals.append(a.diagonal().copy())
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", failing_prediction)
        rng = np.random.default_rng(0)
        x = np.arange(10.0)
        y = 2.0 * x + 1.0 + rng.standard_normal(x.size)
        result = engine_fit(line, (x, y), list(np.polyfit(x, y, 1)), jac=line_jac)
        assert result.termination == "damping_cap"
        assert result.iterations == 0
        lam = np.array([d[0] for d in damped_diagonals]) - damped_diagonals[0][0]
        assert lam[0] == 0.0 and abs(lam[1] - 1e-4) < 1e-12
        assert np.allclose(lam[2:] / lam[1:-1], 4.0, rtol=1e-6)

    def test_wrong_sign_jacobian_hits_damping_cap(self):
        x = np.arange(1.0, 11.0)
        y = 3.0 * x
        result = engine_fit(ray, (x, y), [1.0], jac=lambda p, xx, _value: -xx[:, None])
        assert result.termination == "damping_cap"
        assert not result.converged
        assert result.iterations == 0
        assert result.parameters["p0"] == 1.0

    def test_jacobian_is_required(self):
        x = np.arange(10.0)
        with pytest.raises(TypeError, match="jac"):
            least_squares(ray, (x, 3.5 * x), [1.0], ([-np.inf], [np.inf]), ["p0"], [1.0])

    def test_bounds_respected(self):
        x = np.arange(10.0)
        y = 3.5 * x
        result = engine_fit(ray, (x, y), [1.0], bounds=([0.0], [2.0]), jac=ray_jac)
        assert result.parameters["p0"] <= 2.0 + 1e-15
        with pytest.raises(ValueError):
            engine_fit(ray, (x, y), [3.0], bounds=([0.0], [2.0]), jac=ray_jac)

    @pytest.mark.parametrize("options, initial, argument", [
        ({"bounds": ([0.0], [2.0])}, [1.0, 0.0], "bounds"),
        ({"param_names": ("a",)}, [1.0, 0.0], "param_names"),
        ({"scales": [1.0]}, [1.0, 0.0], "scales"),
        ({}, [math.nan, 0.0], "initial"),
    ], ids=["one_bound", "one_name", "one_scale", "nan_start"])
    def test_options_need_one_finite_entry_per_parameter(self, options, initial, argument):
        # unchecked, one bound clamped both parameters, one name dropped p1,
        # one scale broadcast in the step-size stop test and a NaN start
        # read as a singular fit
        x = np.arange(10.0)
        with pytest.raises(ValueError, match=f"^{argument}: "):
            engine_fit(line, (x, 3.5 * x + 1.25), initial, jac=line_jac, **options)

    def test_stop_held_by_bound_is_not_converged(self):
        # the optimum p0 = 2 lies outside the box: the fit stops on p0 = 1
        # with p1 at the constrained optimum 4.8
        x = np.arange(10.0)
        result = engine_fit(line, (x, 2.0 * x + 0.3), [0.5, 0.0],
                            bounds=([-np.inf, -np.inf], [1.0, np.inf]), jac=line_jac)
        assert result.termination == "bound"
        assert not result.converged
        assert result.parameters["p0"] == 1.0
        assert abs(result.parameters["p1"] - 4.8) <= 1e-9

    def test_ftol_stop_on_a_bound_is_reported_as_bound(self):
        # p0 starts on its bound and p1 next to its constrained optimum 4.8:
        # one accepted step drops the cost by less than ftol, while the
        # descent still points out of the box at p0
        x = np.arange(10.0)
        result = engine_fit(line, (x, 2.0 * x + 0.3), [1.0, 4.8000000001],
                            bounds=([-np.inf, -np.inf], [1.0, np.inf]), jac=line_jac)
        assert (result.termination, result.iterations, result.converged) == ("bound", 1, False)
        assert result.parameters["p0"] == 1.0

    def test_step_clipped_away_stops_at_once(self):
        x = np.arange(10.0)
        evals = []

        def model(p, xx):
            evals.append(float(p[0]))
            return p[0] * xx

        result = engine_fit(model, (x, 2.0 * x + 0.3), [0.5], bounds=([-np.inf], [1.0]),
                            jac=ray_jac)
        assert result.termination == "bound"
        assert not result.converged
        assert result.parameters["p0"] == 1.0
        assert result.iterations == 1
        # the start and the accepted step: no rejected trial is evaluated
        assert evals == [0.5, 1.0]

    def test_old_jacobian_dies_before_the_next_model_call(self):
        # least_squares keeps J^T J and J^T r, never J itself, so the next
        # Jacobian is not built while the old one is still alive
        x = np.linspace(0.0, 3.0, 40)
        y = 2.0 * np.exp(-1.3 * x) + 0.01 * np.sin(7.0 * x)
        jacobians, alive_at_model_call = [], []

        def model(params, x):
            alive_at_model_call.append(sum(ref() is not None for ref in jacobians))
            return params[0] * np.exp(-params[1] * x)

        def jac(params, x, _value):
            e = np.exp(-params[1] * x)
            jmat = np.column_stack([e, -params[0] * x * e])
            jacobians.append(weakref.ref(jmat))
            return jmat

        result = engine_fit(model, (x, y), [1.0, 1.0], jac=jac)
        assert result.converged
        assert len(jacobians) == 1 + result.iterations >= 2
        assert alive_at_model_call == [0] * len(alive_at_model_call)

    def test_jacobian_gets_the_model_value_at_its_parameters(self):
        # the very array the model returned, at the parameters the Jacobian is taken at
        x = np.linspace(-3, 3, 101)
        evaluated, handed = [], []

        def model(p, xx):
            evaluated.append((p.copy(), gaussian(p, xx)))
            return evaluated[-1][1]

        def jac(p, xx, value):
            at, last = evaluated[-1]
            handed.append(value is last and np.array_equal(p, at))
            return gaussian_jac(p, xx, value)

        result = engine_fit(model, (x, gaussian([1.0, 0.3, 1.2], x)), [0.5, 0.0, 2.0], jac=jac)
        assert result.converged
        assert len(handed) == 1 + result.iterations and all(handed)

    def test_complex_residuals_supported(self):
        x = np.linspace(0, 1, 21)
        y = (1.5 + 0.5j) * x
        result = engine_fit(complex_line, (x, y), [1.0, 0.0], jac=complex_line_jac)
        assert rel_err(result.parameters["p0"], 1.5) < 1e-9
        assert rel_err(result.parameters["p1"], 0.5) < 1e-9

    def test_complex_exponential_converges(self):
        x = np.linspace(0, 1, 21)
        result = engine_fit(complex_exp, (x, complex_exp([-1.5, 4.0], x)), [-1.0, 3.5],
                            jac=complex_exp_jac)
        assert result.converged
        assert rel_err(result.parameters["p0"], -1.5) < 1e-9
        assert rel_err(result.parameters["p1"], 4.0) < 1e-9

    @pytest.mark.parametrize("name", sorted(JACOBIAN_CASES))
    def test_jacobian_matches_differences(self, name):
        model, jac, params, x = JACOBIAN_CASES[name]
        analytic = np.asarray(jac(np.array(params), x, model(np.array(params), x)))
        for j in range(len(params)):
            h = 1e-6 * max(abs(params[j]), 1.0)
            up = np.array(params, dtype=float); up[j] += h
            down = np.array(params, dtype=float); down[j] -= h
            numeric = (model(up, x) - model(down, x)) / (2.0 * h)
            scale = max(np.max(np.abs(numeric)), 1.0)
            assert np.max(np.abs(analytic[:, j] - numeric)) <= 1e-8 * scale, j


class TestReflectionFit:
    def test_noiseless_recovery_is_exact(self):
        result = fit_reflection_resonance(make_trace())
        assert result.converged
        assert rel_err(result.parameters["f0"], F0) < 1e-8
        assert rel_err(result.parameters["q_in"], Q_IN) < 1e-8
        assert rel_err(result.parameters["q_ex"], Q_EX) < 1e-8
        assert rel_err(result.parameters["amplitude"], 0.8) < 1e-8
        assert abs(result.parameters["phase_offset"] - 0.3) < 1e-8
        assert abs(result.parameters["delay"] - 1e-9) < 1e-17

    def test_one_percent_noise_one_percent_recovery(self):
        result = fit_reflection_resonance(make_trace(noise=0.008, seed=2, points=4001))
        assert rel_err(result.parameters["f0"], F0) < 0.01
        assert rel_err(result.parameters["q_in"], Q_IN) < 0.01
        assert rel_err(result.parameters["q_ex"], Q_EX) < 0.01

    def test_background_scale_invariance(self):
        trace = make_trace(noise=0.004, seed=6)
        scale = 0.37 * np.exp(1.1j)
        scaled = Trace(frequency=trace.frequency, response=trace.response * scale)
        base = fit_reflection_resonance(trace)
        other = fit_reflection_resonance(scaled)
        for key in ("f0", "q_in", "q_ex"):
            assert rel_err(base.parameters[key], other.parameters[key]) < 1e-6
        assert rel_err(other.parameters["amplitude"],
                       0.37 * base.parameters["amplitude"]) < 1e-6
        # the amplitude's bound and step scale follow its guess, so traces far
        # below an amplitude of 1e-12 fit too; a power of two scales every
        # operand exactly, so the resonance keeps its bits; the circle fit
        # scales the points before their moments, so the moments stay in the
        # float range, and normal, at 1e62, 1e140 and 1e-82 to 1e-130 too
        shipped = Trace.from_csv(CONFIG_DIR / "trace_s11.csv")
        base = fit_reflection_resonance(shipped)
        for factor, tol in ((2.0 ** -40, 0.0), (2.0 ** 200, 0.0),
                            (1e-13, 1e-12), (1e-60, 1e-12), (1e60, 1e-12),
                            (1e62, 1e-12), (1e140, 1e-12), (1e-82, 1e-12),
                            (1e-110, 1e-12), (1e-130, 1e-12)):
            other = fit_reflection_resonance(Trace(shipped.frequency, shipped.response * factor))
            assert other.converged, factor
            for key in ("f0", "q_in", "q_ex"):
                assert rel_err(other.parameters[key], base.parameters[key]) <= tol, (factor, key)

    def test_overcoupled_phase_winds_full_turn(self):
        # eta = 0.99: shallow amplitude dip but a full 2*pi phase winding
        q_in = 0.99 / 0.01 * Q_EX
        freq = np.linspace(F0 - 2e6, F0 + 2e6, 2001)
        z = reflection_s11(freq, F0, q_in, Q_EX, 1.0, 0.0, 0.0, F0)
        winding = np.sum(np.diff(np.unwrap(np.angle(z)))) / (2 * math.pi)
        assert abs(abs(winding) - 1.0) < 0.05
        result = fit_reflection_resonance(Trace(frequency=freq, response=z))
        assert coupling_fraction(result) == pytest.approx(0.99, abs=1e-6)

    def test_coupling_fraction_of_design_mode(self):
        result = fit_reflection_resonance(make_trace())
        assert coupling_fraction(result) == pytest.approx(Q_IN / (Q_IN + Q_EX), abs=1e-9)

    def test_explicit_initial_guess(self, monkeypatch):
        trace = make_trace()
        start_at(monkeypatch, [F0 + 5e4, Q_IN * 1.5, Q_EX * 0.7, 1.0, 0.0, 0.0])
        result = fit_reflection_resonance(trace)
        assert rel_err(result.parameters["f0"], F0) < 1e-8
        assert rel_err(result.parameters["q_in"], Q_IN) < 1e-6
        assert rel_err(result.parameters["q_ex"], Q_EX) < 1e-6

    def test_no_resonance_raises(self):
        freq = np.linspace(F0 - 1e6, F0 + 1e6, 101)
        rng = np.random.default_rng(1)
        flat = 0.8 * np.exp(1j * 0.2) * np.ones(101)
        flat = flat + 1e-4 * (rng.standard_normal(101) + 1j * rng.standard_normal(101))
        with pytest.raises(NoResonanceError):
            fit_reflection_resonance(Trace(frequency=freq, response=flat))

    def test_non_finite_start_raises(self, monkeypatch):
        # no finite trace is known to reach this guard; a second circle fit
        # that returns a NaN resonance offset stands in for one
        fit, calls = metaring.fitting._circle_phase_fit, []

        def second_offset_nan(z, offset):
            center, radius, f0_offset, slope = fit(z, offset)
            calls.append(f0_offset)
            return center, radius, math.nan if len(calls) == 2 else f0_offset, slope

        monkeypatch.setattr(metaring.fitting, "_circle_phase_fit", second_offset_nan)
        with pytest.raises(NoResonanceError, match="no finite resonance parameters"):
            fit_reflection_resonance(make_trace())

    def test_real_trace_rejected(self):
        freq = np.linspace(F0 - 1e6, F0 + 1e6, 101)
        with pytest.raises(ValueError):
            fit_reflection_resonance(Trace(frequency=freq, response=np.ones(101)))

    def test_result_serializes(self):
        result = fit_reflection_resonance(make_trace())
        payload = result.to_dict()
        assert set(payload) == {"parameters", "standard_errors", "residual_norm", "converged",
                                "iterations", "termination"}
        assert payload["termination"] in CONVERGED
        assert isinstance(result, FitResult)

    def test_refit_from_result_converges(self, monkeypatch):
        trace = criterion_13_trace(1)
        first = fit_reflection_resonance(trace)
        start_at(monkeypatch, list(first.parameters.values()))
        again = fit_reflection_resonance(trace)
        assert again.converged
        assert again.residual_norm <= first.residual_norm

    def test_noisy_design_traces_converge(self):
        for seed in range(20):
            result = fit_reflection_resonance(criterion_13_trace(seed))
            assert result.converged, seed
            assert result.termination in CONVERGED, seed
            assert result.iterations <= 6, seed

    def test_overcoupled_fit_stays_off_the_bounds(self):
        # from a start far off, these fits can stop on the Q_in = 1e12 bound
        # and report xtol, at a larger residual than the optimum's
        for seed in range(10):
            result = fit_reflection_resonance(criterion_13_trace(seed, q_in=2e6, q_ex=1e4))
            assert result.converged, seed
            for key in ("q_in", "q_ex"):
                assert 1.0 < result.parameters[key] < 1e12, (seed, key)
            assert rel_err(result.parameters["q_in"], 2e6) <= 0.15, seed

    @pytest.mark.parametrize("q_in, q_ex, delay", [
        (Q_IN, Q_EX, 20e-9),         # cable delays far above the shipped 1 ns
        (Q_IN, Q_EX, 100e-9),
        (Q_IN, 4 * Q_IN, 1e-9),      # under-coupled
        (1e5, 1e5, 1e-9),            # critically coupled
    ])
    def test_guess_leads_to_convergence(self, q_in, q_ex, delay):
        for seed in range(10):
            result = fit_reflection_resonance(criterion_13_trace(seed, q_in, q_ex, delay))
            assert result.converged, seed
            for key, true in (("f0", F0), ("q_in", q_in), ("q_ex", q_ex)):
                assert rel_err(result.parameters[key], true) <= 0.05, (seed, key)

    def test_guess_starts_next_to_the_optimum(self):
        steps = []
        for seed in range(100):
            trace = criterion_13_trace(seed)
            guess, _ = _reflection_guess(trace)
            assert rel_err(guess[1], Q_IN) <= 0.10, seed
            steps.append(fit_reflection_resonance(trace).iterations)
        assert np.median(steps) <= 4

    @pytest.mark.parametrize("points, noise", [(101, 1e-3), (801, 1e-3), (6001, 1e-3),
                                               (6001, 1e-2)])
    def test_flat_trace_has_no_resonance(self, points, noise):
        # noise is relative to the background amplitude 0.8
        freq = np.linspace(F0 - 1e6, F0 + 1e6, points)
        background = 0.8 * np.exp(1j * (0.2 + 2 * np.pi * (freq - F0) * 1e-9))
        for seed in range(10):
            rng = np.random.default_rng(seed)
            flat = background + noise * 0.8 * (rng.standard_normal(points)
                                               + 1j * rng.standard_normal(points))
            with pytest.raises(NoResonanceError):
                _reflection_guess(Trace(frequency=freq, response=flat))

    def test_guess_is_finite_or_raises(self):
        freq = np.linspace(F0 - 1e6, F0 + 1e6, 401)
        rng = np.random.default_rng(4)
        traces = [
            np.zeros(401, dtype=complex),
            np.ones(401, dtype=complex),
            0.8 * np.exp(2j * np.pi * np.linspace(0.0, 3.0, 401)),  # pure winding, no dip
            rng.standard_normal(401) + 1j * rng.standard_normal(401),
            reflection_s11(freq, F0 + 0.99e6, Q_IN, Q_EX, 0.8, 0.3, 1e-9, F0 + 0.99e6),  # edge dip
            reflection_s11(freq, F0, 1e9, 1e3, 0.8, 0.3, 1e-9, F0),  # wider than the span
        ]
        for j, z in enumerate(traces):
            try:
                guess, f_ref = _reflection_guess(Trace(frequency=freq, response=z))
            except NoResonanceError:
                continue
            assert np.all(np.isfinite(guess)) and math.isfinite(f_ref), j

    @pytest.mark.parametrize("seed", range(5))
    def test_narrow_mode_on_a_wide_span(self, seed):
        # a 9.7 kHz linewidth, about 12 points wide, on a 40 MHz span: the
        # start must read the whole trace, not a subsample
        freq = np.linspace(F0 - 20e6, F0 + 20e6, 50001)
        clean = reflection_s11(freq, F0, 1e6, 1e6, 0.8, 0.3, 1e-9,
                               reference_frequency=float(np.median(freq)))
        rng = np.random.default_rng(seed)
        noise = 0.01 * 0.8 * (rng.standard_normal(freq.size) + 1j * rng.standard_normal(freq.size))
        result = fit_reflection_resonance(Trace(frequency=freq, response=clean + noise))
        assert result.converged
        assert rel_err(result.parameters["q_in"], 1e6) < 0.05

    @pytest.mark.parametrize("points", [5, 6, 801, 6001, 6002])
    def test_middle_frequency_has_the_bits_of_np_median(self, points):
        rng = np.random.default_rng(points)
        grids = [np.linspace(F0 - 0.75e6, F0 + 0.75e6, points),
                 4849e6 + 2500.0 * np.arange(points)]
        grids += [np.sort(rng.uniform(4e9, 6e9, points)) for _ in range(50)]
        for freq in grids:
            assert _middle_frequency(freq) == float(np.median(freq))

    def test_model_evals_count_the_engine_trials(self, monkeypatch):
        # perfbench's fitting.model_evals wraps the module attribute
        # reflection_s11; every model evaluation of a fit must go through it
        from metaring import fitting

        trace = criterion_13_trace(3)
        calls = {"s11": 0, "engine": 0}
        s11 = fitting.reflection_s11
        engine = fitting.least_squares

        def counted_s11(*args, **kwargs):
            calls["s11"] += 1
            return s11(*args, **kwargs)

        def counting_engine(model, *args, **kwargs):
            def counted_model(params, x):
                calls["engine"] += 1
                return model(params, x)
            return engine(counted_model, *args, **kwargs)

        monkeypatch.setattr(fitting, "reflection_s11", counted_s11)
        fitting._reflection_guess(trace)
        assert calls["s11"] == 0  # the circle-fit start evaluates no model
        monkeypatch.setattr(fitting, "least_squares", counting_engine)
        result = fitting.fit_reflection_resonance(trace)
        assert result.converged
        # one evaluation at the start, then one per trial step
        assert calls["engine"] >= 1 + result.iterations
        assert calls["s11"] == calls["engine"]

    def test_fit_peak_memory_is_under_two_jacobians(self):
        trace = criterion_13_trace(3)
        result = fit_reflection_resonance(trace)  # first-call allocations happen here
        params = [result.parameters[name] for name in
                  ("f0", "q_in", "q_ex", "amplitude", "phase_offset", "delay")]
        f_ref = _middle_frequency(trace.frequency)
        s11 = reflection_s11(trace.frequency, *params, f_ref)
        jac_bytes = reflection_jacobian(trace.frequency, params, f_ref, s11).nbytes
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fit_reflection_resonance(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 2 * jac_bytes

    def test_fit_is_independent_of_blas_threads(self):
        code = (
            "from test_fitting import criterion_13_trace;"
            "from metaring import fit_reflection_resonance;"
            "r = fit_reflection_resonance(criterion_13_trace(2));"
            "print(sorted((k, repr(v)) for k, v in r.parameters.items()), r.iterations)"
        )
        paths = [str(Path(__file__).parent), str(Path(metaring.__file__).parent.parent)]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(paths))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


def oracle_standard_errors(trace, result):
    """sqrt(diag(sigma^2 D pinv(D J^T J D) D)), D = diag(J^T J)^(-1/2), sigma^2 = RSS/(2n - 6)."""
    freq = trace.frequency
    f_ref = _middle_frequency(freq)
    params = [result.parameters[name] for name in
              ("f0", "q_in", "q_ex", "amplitude", "phase_offset", "delay")]
    jac = reflection_jacobian(freq, params, f_ref,
                              reflection_s11(freq, *params, reference_frequency=f_ref))
    stacked = np.stack([jac.real, jac.imag], axis=1).reshape(2 * freq.size, 6)
    normal = stacked.T @ stacked
    d = 1.0 / np.sqrt(normal.diagonal())
    sigma2 = result.residual_norm ** 2 / (2 * freq.size - 6)
    scaled = normal * d[:, None] * d[None, :]
    covariance = sigma2 * (np.linalg.pinv(scaled) * d[:, None] * d[None, :])
    return dict(zip(result.parameters, np.sqrt(covariance.diagonal())))


class TestStandardErrors:
    @pytest.mark.parametrize("seed", range(4))
    def test_match_the_pseudo_inverse_oracle(self, seed):
        trace = criterion_13_trace(seed)
        result = fit_reflection_resonance(trace)
        for name, expected in oracle_standard_errors(trace, result).items():
            assert rel_err(result.standard_errors[name], expected) <= 1e-12, name

    def test_z_scores_are_calibrated(self):
        # 300 fits of criterion 13's resonance on the shipped 801-point grid, 150
        # at each noise level (fractions of the background), each with its own
        # seed.  For calibrated errors z = (fit - truth)/sigma is near N(0, 1).
        # Measured here: means -0.10 to +0.04, spreads 0.95-1.04 and 95.7-97.3 %
        # of fits with |z| < 2; over five more seed sets, means -0.13 to +0.10,
        # spreads 0.92-1.06 and 93-97 %.  The bands allow about 3.5 standard
        # errors of a 300-fit sample (0.058, 0.041 and 1.2 %): a sigma off by
        # 15 % leaves them.
        freq = SHIPPED_GRID
        truth = {"f0": F0, "q_in": Q_IN, "q_ex": Q_EX, "amplitude": 0.8,
                 "phase_offset": 0.3, "delay": 1e-9}
        clean = reflection_s11(freq, *truth.values(), float(np.median(freq)))
        z = {name: [] for name in truth}
        for noise, seeds in ((0.002, range(0, 150)), (0.01, range(1000, 1150))):
            for seed in seeds:
                rng = np.random.default_rng(seed)
                noisy = clean + noise * 0.8 * (rng.standard_normal(freq.size)
                                               + 1j * rng.standard_normal(freq.size))
                result = fit_reflection_resonance(Trace(frequency=freq, response=noisy))
                assert result.converged, seed
                for name, value in truth.items():
                    z[name].append((result.parameters[name] - value)
                                   / result.standard_errors[name])
        for name, values in z.items():
            values = np.array(values)
            assert abs(values.mean()) <= 0.2, name
            assert 0.85 <= values.std() <= 1.15, name
            assert np.mean(np.abs(values) < 2.0) >= 0.91, name

    def test_fit_runs_no_singular_value_decomposition(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the fit called an SVD")

        monkeypatch.setattr(np.linalg, "pinv", refused)
        monkeypatch.setattr(np.linalg, "svd", refused)
        trace = criterion_13_trace(1)
        first = fit_reflection_resonance(trace)
        # a refit from the result rejects its first step and predicts the drop:
        # an ftol stop with no accepted step comes from that prediction alone
        start_at(monkeypatch, list(first.parameters.values()))
        again = fit_reflection_resonance(trace)
        assert first.converged and (again.termination, again.iterations) == ("ftol", 0)
        assert all(math.isfinite(e) for e in again.standard_errors.values())

    def test_singular_covariance_gives_nan_errors(self, monkeypatch):
        trace = criterion_13_trace(2)
        expected = fit_reflection_resonance(trace)

        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "inv", singular)
        result = fit_reflection_resonance(trace)
        assert all(math.isnan(e) for e in result.standard_errors.values())
        assert result._replace(standard_errors=expected.standard_errors) == expected


def _differenced_reflection_jacobian(freq, params, f_ref, steps):
    columns = []
    for j, h in enumerate(steps):
        up = np.array(params, dtype=float); up[j] += h
        down = np.array(params, dtype=float); down[j] -= h
        columns.append((reflection_s11(freq, *up, reference_frequency=f_ref)
                        - reflection_s11(freq, *down, reference_frequency=f_ref)) / (2.0 * h))
    return np.column_stack(columns)


class TestReflectionJacobian:
    @pytest.mark.parametrize("f0, q_in, q_ex", [
        (F0, Q_IN, Q_EX),            # design point
        (F0, Q_EX, Q_EX),            # critical coupling: S11 vanishes at f0
        (F0 + 3e5, Q_IN, Q_EX),      # resonance detuned from the span centre
        (F0, 47200.0, 47200.00000000001),  # next to critical coupling: S11 ~ 1e-16 at f0
    ])
    def test_matches_central_differences(self, f0, q_in, q_ex):
        freq = np.linspace(F0 - 1e6, F0 + 1e6, 801)
        assert F0 in freq
        f_ref = float(np.median(freq))
        params = (f0, q_in, q_ex, 0.8, 0.3, 1e-9)
        # the f0 step must be far below the ~200 kHz linewidth
        steps = (1.0, 1e-6 * q_in, 1e-6 * q_ex, 1e-6, 1e-6, 1e-14)
        numeric = _differenced_reflection_jacobian(freq, params, f_ref, steps)
        analytic = reflection_jacobian(freq, params, f_ref,
                                       reflection_s11(freq, *params, f_ref))
        assert analytic.shape == (freq.size, 6)
        for j in range(6):
            scale = np.max(np.abs(numeric[:, j]))
            assert np.max(np.abs(analytic[:, j] - numeric[:, j])) <= 1e-6 * scale, j

    @pytest.mark.parametrize("q_in", [
        Q_IN,                        # design point
        Q_EX,                        # critical coupling: the exponential is used
        Q_EX * (1.0 + 1e-12),        # next to it: S11 nearly vanishes at f0
    ])
    def test_shared_s11_gives_same_columns(self, q_in):
        # as those with the background from the complex exponential
        freq = np.linspace(F0 - 1e6, F0 + 1e6, 801)
        assert F0 in freq
        f_ref = float(np.median(freq))
        params = np.array([F0, q_in, Q_EX, 0.8, 0.3, 1e-9])
        s11 = reflection_s11(freq, *params, reference_frequency=f_ref)
        shared = reflection_jacobian(freq, params, f_ref, s11)
        alone = reference_reflection_jacobian(freq, params, f_ref)
        assert np.all(np.isfinite(shared))
        for j in range(6):
            scale = np.max(np.abs(alone[:, j]))
            assert np.max(np.abs(shared[:, j] - alone[:, j])) <= 1e-12 * scale, j

    @pytest.mark.parametrize("k", range(10))
    def test_shared_s11_at_and_next_to_critical_coupling(self, k):
        # q_in k ulps above q_ex, f0 on the grid: 1/Q_ex - 1/Q_in is 0 for k = 0 and
        # a few ulps of 1/Q_ex + 1/Q_in otherwise, so S11 at f0 is 0 or ~1e-16 and
        # a numerator off from S11's own by half an ulp of b misses by up to 25 %.
        # The worst miss seen was 7.1e-16 of a column's maximum here, and 8.8e-16
        # over Q_ex of 1e4-3.3e5 and delays of -3 to 1 ns; the bound allows 4e-15.
        q_ex = 47200.0
        q_in = q_ex + k * math.ulp(q_ex)
        freq = SHIPPED_GRID
        f_ref = float(np.median(freq))
        params = (freq[400], q_in, q_ex, 0.8, 0.3, 1e-9)
        s11 = reflection_s11(freq, *params, reference_frequency=f_ref)
        shared = reflection_jacobian(freq, params, f_ref, s11)
        alone = reference_reflection_jacobian(freq, params, f_ref)
        for j in range(6):
            scale = np.max(np.abs(alone[:, j]))
            assert np.max(np.abs(shared[:, j] - alone[:, j])) <= 4e-15 * scale, j


DESIGN_GRID = np.linspace(F0 - 0.75e6, F0 + 0.75e6, 6001)
SHIPPED_GRID = 4849e6 + 2500.0 * np.arange(801)


def exp_reflection_s11(freq, f0, q_in, q_ex, amplitude, phase_offset, delay, f_ref):
    """reflection_s11 written with the complex np.exp: the bit oracle of its phasor."""
    x = (freq - f0) / f0
    a = 1.0 / q_ex - 1.0 / q_in
    b = 1.0 / q_ex + 1.0 / q_in
    background = amplitude * np.exp(1j * (phase_offset + 2.0 * math.pi * (freq - f_ref) * delay))
    return background * ((a - 2j * x) / (b + 2j * x))


def same_bits(got, want):
    return got.shape == want.shape and bool(np.all(got.view(np.uint64) == want.view(np.uint64)))


class TestBackgroundPhasor:
    def test_phasor_has_the_bits_of_complex_exp(self):
        tiny = np.finfo(float).smallest_subnormal
        rng = np.random.default_rng(11)
        phase = np.concatenate([
            [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, math.pi, -math.pi, 1e6, -1e6],
            rng.uniform(-10.0, 10.0, 2000),
            rng.uniform(-1e6, 1e6, 2000),
        ])
        assert same_bits(_phasor(phase.copy()), np.exp(1j * phase))

    @pytest.mark.parametrize("freq", [DESIGN_GRID, SHIPPED_GRID], ids=["design", "shipped"])
    @pytest.mark.parametrize("params", [
        (F0, Q_IN, Q_EX, 0.8, 0.3, 1e-9),            # criterion 13's resonance
        (F0 + 1234.5, 2e6, 1e4, 1.3, -2.0, -3e-9),   # over-coupled, detuned
        (F0, Q_EX, Q_EX, 0.8, -0.0, -1e-9),          # phase -0.0 at f_ref, S11 = 0 at f0
    ])
    def test_reflection_s11_has_the_bits_of_complex_exp(self, freq, params):
        f_ref = float(np.median(freq))
        got = reflection_s11(freq, *params, reference_frequency=f_ref)
        assert same_bits(got, exp_reflection_s11(freq, *params, f_ref))

    @pytest.mark.parametrize("delay", [0.0, -0.0, 1e-9, -3e-9, 0.7])
    def test_unwind_phase_is_the_imaginary_part_of_the_product(self, delay):
        # the guess unwinds the cable delay with _phasor((-2 pi delay) * offset)
        for freq in (DESIGN_GRID, SHIPPED_GRID):
            offset = freq - float(np.median(freq))
            got = _phasor((-2.0 * math.pi * delay) * offset)
            assert same_bits(got, np.exp(-2j * math.pi * delay * offset))


def reference_reflection_jacobian(freq, params, f_ref, s11=None):
    """reflection_jacobian as first written, with a fresh array per step: the bit oracle.

    Without ``s11``, or where 1/Q_ex = 1/Q_in exactly, the background comes
    from the complex exponential.
    """
    f0, q_in, q_ex, amplitude, phase_offset, delay = params
    a = 1.0 / q_ex - 1.0 / q_in
    b = 1.0 / q_ex + 1.0 / q_in
    offset = freq - f_ref
    out = np.empty((6, freq.size), dtype=complex)
    d = out[0]
    d.real = b
    np.multiply(freq - f0, 2.0 / f0, out=d.imag)
    unit = out[3]
    numerator = np.conjugate(d)  # a - 2ix
    numerator.real = a
    if s11 is None or a == 0.0:
        phase = offset * (2.0 * math.pi * delay)
        phase += phase_offset
        e = np.exp(1j * phase)
        h = e / d
        np.multiply(h, numerator, out=unit)
    else:
        np.multiply(s11, 1.0 / amplitude, out=unit)
        h = unit / numerator
    v = np.divide(h, d, out=d)
    np.multiply(unit, 1j * amplitude, out=out[4])
    offset *= 2.0 * math.pi
    np.multiply(out[4], offset, out=out[5])
    np.multiply(v, (a + b) * amplitude / (q_in * q_in), out=out[1])
    np.multiply(v, (a + b) * amplitude / (q_ex * q_ex), out=out[2])
    h *= 2.0 * amplitude / (q_ex * q_ex)
    out[2] -= h
    v *= freq
    v *= 2j * (a + b) * amplitude / (f0 * f0)
    return out.T


class TestJacobianBits:
    @pytest.mark.parametrize("freq", [DESIGN_GRID, SHIPPED_GRID], ids=["design", "shipped"])
    @pytest.mark.parametrize("params", [
        (F0, Q_IN, Q_EX, 0.8, 0.3, 1e-9),                  # criterion 13's resonance
        (F0 + 1234.5, 2e6, 1e4, 1.3, -2.0, -3e-9),         # over-coupled, detuned
        (F0, Q_EX, Q_EX, 0.8, -0.0, -1e-9),                # critical coupling: a = 0
        (F0, Q_EX * (1.0 + 1e-12), Q_EX, 0.8, 0.3, 0.0),   # next to it, no delay
    ], ids=["design", "overcoupled", "critical", "near_critical"])
    @pytest.mark.parametrize("path", ["phasor", "shared_s11"])
    def test_has_the_bits_of_the_reference(self, freq, params, path):
        f_ref = float(np.median(freq))
        if path == "phasor":
            # the background comes from the exponential only where 1/Q_ex = 1/Q_in
            # exactly: the case's resonance moves onto a grid point at q_in = q_ex
            f0 = freq[np.abs(freq - params[0]).argmin()]
            params = (f0, params[2], params[2], *params[3:])
        s11 = reflection_s11(freq, *params, reference_frequency=f_ref)
        got = reflection_jacobian(freq, params, f_ref, s11)
        want = reference_reflection_jacobian(freq, params, f_ref, s11)
        if path == "phasor":
            phasor = reference_reflection_jacobian(freq, params, f_ref)
            assert same_bits(np.ascontiguousarray(want), np.ascontiguousarray(phasor))
        assert np.all(np.isfinite(got))
        assert same_bits(np.ascontiguousarray(got), np.ascontiguousarray(want))


class TestLinearModes:
    def test_exact_progression(self):
        m = np.arange(50, 130)
        result = fit_linear_modes(m, 76e6 * m + 12.5e6)
        assert rel_err(result.parameters["fsr"], 76e6) < 1e-12
        assert rel_err(result.parameters["offset"], 12.5e6) < 1e-9

    def test_criterion_1_range_is_exact(self):
        m = np.arange(52, 132)
        result = fit_linear_modes(m, 76e6 * m + 1.234567e8)
        assert result.parameters == {"fsr": 76e6, "offset": 1.234567e8}
        assert (result.termination, result.iterations) == ("exact", 0)
        assert result.converged and result.residual_norm == 0.0

    def test_noisy_progression_matches_lstsq(self):
        rng = np.random.default_rng(36)
        m = np.arange(40, 120)
        f = 79e6 * m + 2e8 + 1e5 * rng.standard_normal(m.size)
        result = fit_linear_modes(m, f)
        design = np.column_stack([m, np.ones(m.size)])
        solution, rss = np.linalg.lstsq(design, f, rcond=None)[:2]
        covariance = rss[0] / (m.size - 2) * np.linalg.inv(design.T @ design)
        for j, key in enumerate(("fsr", "offset")):
            assert rel_err(result.parameters[key], solution[j]) < 1e-12
            assert rel_err(result.standard_errors[key], math.sqrt(covariance[j, j])) < 1e-9
        assert rel_err(result.residual_norm, math.sqrt(rss[0])) < 1e-9

    def test_two_points_exact_interpolation(self):
        result = fit_linear_modes([3, 7], [1e9, 2e9])
        assert rel_err(result.parameters["fsr"], 0.25e9) < 1e-12
        assert all(math.isnan(e) for e in result.standard_errors.values())

    def test_dispersion_solver_cross_check(self, bloch_cell):
        from metaring import mode_index_near, solve_mode_frequency

        m_lo = mode_index_near(bloch_cell, 3200, 4e9)
        m_hi = mode_index_near(bloch_cell, 3200, 9e9)
        m = np.arange(m_lo, m_hi + 1)
        result = fit_linear_modes(m, solve_mode_frequency(bloch_cell, 3200, m))
        m_mid = mode_index_near(bloch_cell, 3200, 6.5e9)
        f_mid = solve_mode_frequency(bloch_cell, 3200, m_mid)
        center_fsr = solve_mode_frequency(bloch_cell, 3200, m_mid + 1) - f_mid
        assert rel_err(result.parameters["fsr"], center_fsr) < 0.03

    def test_requires_two_distinct_modes(self):
        with pytest.raises(ValueError):
            fit_linear_modes([5, 5], [1e9, 1.1e9])
        with pytest.raises(ValueError):
            fit_linear_modes([5], [1e9])
        with pytest.raises(ValueError, match="finite"):
            fit_linear_modes([5, 6, 7], [1e9, math.nan, 1.2e9])
