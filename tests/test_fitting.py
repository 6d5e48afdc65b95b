import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metaring
from metaring import (
    FitResult,
    Trace,
    fit_linear_modes,
    fit_quadratic_field_shift,
    fit_reflection_resonance,
    least_squares,
    reflection_s11,
)
from metaring.errors import ConditioningError, NoResonanceError
from metaring.fitting import (
    _middle_frequency,
    _reflection_guess,
    coupling_fraction,
    reflection_jacobian,
)
from conftest import rel_err

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


class TestLeastSquaresEngine:
    def test_linear_model_exact_in_two_iterations(self):
        x = np.arange(10.0)
        y = 3.5 * x + 1.25
        result = least_squares(lambda p, xx: p[0] * xx + p[1], (x, y), [1.0, 0.0],
                               param_names=("a", "b"))
        assert result.converged
        assert len(result.residual_history) - 1 <= 2
        assert rel_err(result.parameters["a"], 3.5) < 1e-9
        assert rel_err(result.parameters["b"], 1.25) < 1e-9

    def test_bent_valley_converges_to_known_minimum(self):
        def valley(p, _):
            return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])

        result = least_squares(valley, (np.zeros(2), np.zeros(2)), [-1.2, 1.0])
        assert result.converged
        assert abs(result.parameters["p0"] - 1.0) < 1e-8
        assert abs(result.parameters["p1"] - 1.0) < 1e-8

    def test_monte_carlo_recovery_within_three_standard_errors(self):
        x = np.linspace(-5, 5, 201)

        def lorentzian(p, xx):
            return p[0] / (1.0 + ((xx - p[1]) / p[2]) ** 2)

        true = {"amp": 2.0, "x0": 0.5, "w": 1.2}
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = lorentzian([2.0, 0.5, 1.2], x) + 0.02 * rng.standard_normal(x.size)
            result = least_squares(lorentzian, (x, y), [1.0, 0.0, 2.0],
                                   param_names=("amp", "x0", "w"))
            hits += all(
                abs(result.parameters[k] - v) <= 3 * result.standard_errors[k]
                for k, v in true.items()
            )
        assert hits >= 95

    def test_residual_history_non_increasing(self):
        rng = np.random.default_rng(5)
        x = np.linspace(-3, 3, 101)
        y = np.exp(-0.5 * (x - 0.3) ** 2) + 0.05 * rng.standard_normal(x.size)

        def gaussian(p, xx):
            return p[0] * np.exp(-0.5 * ((xx - p[1]) / p[2]) ** 2)

        result = least_squares(gaussian, (x, y), [0.5, 0.0, 2.0])
        history = np.array(result.residual_history)
        assert np.all(np.diff(history) <= 0)

    def test_dead_parameter_raises_conditioning_error(self):
        x = np.arange(10.0)
        y = 2.0 * x
        with pytest.raises(ConditioningError):
            least_squares(lambda p, xx: p[0] * xx + 0.0 * p[1], (x, y), [1.0, 1.0])

    def test_non_convergence_flag(self, monkeypatch):
        monkeypatch.setattr("metaring.fitting._MAX_ITER", 1)
        rng = np.random.default_rng(9)
        x = np.linspace(-2, 2, 51)
        y = np.tanh(3 * x) + 0.05 * rng.standard_normal(x.size)
        result = least_squares(lambda p, xx: np.tanh(p[0] * xx), (x, y), [50.0])
        assert not result.converged
        assert result.termination == "max_iter"
        assert result.iterations == 1

    def test_start_at_optimum_converges(self):
        rng = np.random.default_rng(0)
        x = np.arange(10.0)
        y = 2.0 * x + 1.0 + rng.standard_normal(x.size)
        slope, offset = np.polyfit(x, y, 1)
        result = least_squares(lambda p, xx: p[0] * xx + p[1], (x, y), [slope, offset])
        assert result.termination == "ftol"
        assert result.converged

    def test_wrong_sign_jacobian_hits_damping_cap(self):
        x = np.arange(1.0, 11.0)
        y = 3.0 * x
        result = least_squares(lambda p, xx: p[0] * xx, (x, y), [1.0],
                               jac=lambda p, xx: -xx[:, None])
        assert result.termination == "damping_cap"
        assert not result.converged
        assert result.iterations == 0
        assert result.parameters["p0"] == 1.0

    def test_bounds_respected(self):
        x = np.arange(10.0)
        y = 3.5 * x
        result = least_squares(lambda p, xx: p[0] * xx, (x, y), [1.0],
                               bounds=([0.0], [2.0]))
        assert result.parameters["p0"] <= 2.0 + 1e-15
        with pytest.raises(ValueError):
            least_squares(lambda p, xx: p[0] * xx, (x, y), [3.0], bounds=([0.0], [2.0]))

    def test_stop_held_by_bound_is_not_converged(self):
        # the optimum p0 = 2 lies outside the box: the fit stops on p0 = 1
        # with p1 at the constrained optimum 4.8
        x = np.arange(10.0)
        result = least_squares(lambda p, xx: p[0] * xx + p[1], (x, 2.0 * x + 0.3), [0.5, 0.0],
                               bounds=([-np.inf, -np.inf], [1.0, np.inf]))
        assert result.termination == "bound"
        assert not result.converged
        assert result.parameters["p0"] == 1.0
        assert abs(result.parameters["p1"] - 4.8) <= 1e-9

    def test_step_clipped_away_stops_at_once(self):
        x = np.arange(10.0)
        evals = []

        def model(p, xx):
            evals.append(float(p[0]))
            return p[0] * xx

        result = least_squares(model, (x, 2.0 * x + 0.3), [0.5], bounds=([-np.inf], [1.0]))
        assert result.termination == "bound"
        assert not result.converged
        assert result.parameters["p0"] == 1.0
        assert result.iterations == 1
        # the start and the accepted step, each with its two differenced
        # Jacobian evaluations: no rejected trial is evaluated
        assert len(evals) == 6

    def test_complex_residuals_supported(self):
        x = np.linspace(0, 1, 21)
        y = (1.5 + 0.5j) * x

        def model(p, xx):
            return (p[0] + 1j * p[1]) * xx

        result = least_squares(model, (x, y), [1.0, 0.0])
        assert rel_err(result.parameters["p0"], 1.5) < 1e-9
        assert rel_err(result.parameters["p1"], 0.5) < 1e-9

    def test_complex_analytic_jacobian_matches_differenced(self):
        x = np.linspace(0, 1, 21)
        y = np.exp((-1.5 + 4.0j) * x)

        def model(p, xx):
            return np.exp((p[0] + 1j * p[1]) * xx)

        def jac(p, xx):
            d = xx * model(p, xx)
            return np.column_stack([d, 1j * d])

        analytic = least_squares(model, (x, y), [-1.0, 3.5], jac=jac)
        differenced = least_squares(model, (x, y), [-1.0, 3.5])
        assert analytic.converged and differenced.converged
        for key in ("p0", "p1"):
            assert rel_err(analytic.parameters[key], differenced.parameters[key]) < 1e-9
        assert rel_err(analytic.parameters["p1"], 4.0) < 1e-9


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

    def test_overcoupled_phase_winds_full_turn(self):
        # eta = 0.99: shallow amplitude dip but a full 2*pi phase winding
        q_in = 0.99 / 0.01 * Q_EX
        freq = np.linspace(F0 - 2e6, F0 + 2e6, 2001)
        z = reflection_s11(freq, F0, q_in, Q_EX)
        winding = np.sum(np.diff(np.unwrap(np.angle(z)))) / (2 * math.pi)
        assert abs(abs(winding) - 1.0) < 0.05
        result = fit_reflection_resonance(Trace(frequency=freq, response=z))
        assert coupling_fraction(result) == pytest.approx(0.99, abs=1e-6)

    def test_coupling_fraction_of_design_mode(self):
        result = fit_reflection_resonance(make_trace())
        assert coupling_fraction(result) == pytest.approx(Q_IN / (Q_IN + Q_EX), abs=1e-9)

    def test_explicit_initial_guess(self):
        trace = make_trace()
        guess = [F0 + 5e4, Q_IN * 1.5, Q_EX * 0.7, 1.0, 0.0, 0.0]
        result = fit_reflection_resonance(trace, initial_guess=guess)
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

    def test_refit_from_result_converges(self):
        trace = criterion_13_trace(1)
        first = fit_reflection_resonance(trace)
        again = fit_reflection_resonance(trace, initial_guess=list(first.parameters.values()))
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
            reflection_s11(freq, F0 + 0.99e6, Q_IN, Q_EX, 0.8, 0.3, 1e-9),  # dip at the edge
            reflection_s11(freq, F0, 1e9, 1e3, 0.8, 0.3, 1e-9),  # wider than the span
        ]
        for j, z in enumerate(traces):
            try:
                guess, f_ref = _reflection_guess(Trace(frequency=freq, response=z))
            except NoResonanceError:
                continue
            assert np.all(np.isfinite(guess)) and math.isfinite(f_ref), j

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
    ])
    def test_matches_central_differences(self, f0, q_in, q_ex):
        freq = np.linspace(F0 - 1e6, F0 + 1e6, 801)
        f_ref = float(np.median(freq))
        params = (f0, q_in, q_ex, 0.8, 0.3, 1e-9)
        # the f0 step must be far below the ~200 kHz linewidth
        steps = (1.0, 1e-6 * q_in, 1e-6 * q_ex, 1e-6, 1e-6, 1e-14)
        numeric = _differenced_reflection_jacobian(freq, params, f_ref, steps)
        analytic = reflection_jacobian(freq, params, f_ref)
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
        freq = np.linspace(F0 - 1e6, F0 + 1e6, 801)
        assert F0 in freq
        f_ref = float(np.median(freq))
        params = np.array([F0, q_in, Q_EX, 0.8, 0.3, 1e-9])
        s11 = reflection_s11(freq, *params, reference_frequency=f_ref)
        shared = reflection_jacobian(freq, params, f_ref, s11)
        alone = reflection_jacobian(freq, params, f_ref)
        assert np.all(np.isfinite(shared))
        for j in range(6):
            scale = np.max(np.abs(alone[:, j]))
            assert np.max(np.abs(shared[:, j] - alone[:, j])) <= 1e-12 * scale, j


class TestQuadraticFieldShift:
    def test_exact_recovery(self, microloop):
        from metaring import BiasState, fractional_frequency_shift

        fields = np.linspace(0, 2e-4, 21)
        shifts = [
            fractional_frequency_shift(microloop, BiasState.from_field(microloop, float(b)))
            for b in fields
        ]
        result = fit_quadratic_field_shift(fields, shifts)
        gamma = microloop.width_ratio
        expected = (gamma / 2.0) * (microloop.gap
                                    / (microloop.loop_dc_inductance
                                       * microloop.i_star_narrow)) ** 2
        assert rel_err(result.parameters["quad_coeff"], expected) < 1e-10
        assert result.residual_norm < 1e-12

    def test_calibrated_maximum_shift(self):
        quad = 0.0083 / (2e-4) ** 2
        fields = np.linspace(0, 2e-4, 11)
        result = fit_quadratic_field_shift(fields, -quad * fields**2)
        assert rel_err(result.parameters["quad_coeff"] * (2e-4) ** 2, 0.0083) < 1e-10

    def test_odd_contamination_flags_misfit(self):
        fields = np.linspace(0, 2e-4, 21)
        clean = -207500.0 * fields**2
        contaminated = clean + 1e-3 * fields / fields.max()
        good = fit_quadratic_field_shift(fields, clean)
        bad = fit_quadratic_field_shift(fields, contaminated)
        assert good.residual_norm < 1e-12
        assert bad.residual_norm > 1e-4

    def test_degenerate_design_raises(self):
        with pytest.raises(ConditioningError):
            fit_quadratic_field_shift(np.zeros(5), np.zeros(5))

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            fit_quadratic_field_shift([1e-4, 2e-4], [-1e-5, -4e-5])


class TestLinearModes:
    def test_exact_progression(self):
        m = np.arange(50, 130)
        result = fit_linear_modes(m, 76e6 * m + 12.5e6)
        assert rel_err(result.parameters["fsr"], 76e6) < 1e-12
        assert rel_err(result.parameters["offset"], 12.5e6) < 1e-9

    def test_two_points_exact_interpolation(self):
        result = fit_linear_modes([3, 7], [1e9, 2e9])
        assert rel_err(result.parameters["fsr"], 0.25e9) < 1e-12

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
