"""Damped nonlinear least squares and the toolkit's standard fits.

The engine is a Levenberg-Marquardt iteration: the damping term
lambda*diag(J^T J) grows on rejected steps and shrinks on accepted ones, so
the accepted-step residual norm never increases.  The Jacobian comes from a
caller-supplied ``jac`` or, by default, from central differences.  After
each step the iteration stops, with a named reason, on the first of these
MINPACK-style tests (More 1978):

* ``zero_residual``: the residuals vanish;
* ``gtol``: the largest gradient component falls below ``gradient_rtol``
  times its initial value;
* ``ftol``: the step lowered the cost by at most ``_FTOL`` of the cost or,
  for a rejected step, raised it by at most that while the undamped
  Gauss-Newton step predicts a drop of at most that;
* ``xtol``: the scaled step is at most ``_XTOL`` of the scaled parameters.

These four mean converged.  The iteration also ends, unconverged, after
``max_iter`` accepted steps (``max_iter``) or when the damping passes its
cap without any step lowering the cost (``damping_cap``), which bounds the
rejected steps in a row.

Fits built on the engine:

* one-port reflection resonance (f0, Q_in, Q_ex, background amplitude,
  phase offset, cable delay) on complex traces, with the closed-form
  Jacobian of :func:`reflection_s11`;
* quadratic magnetic-field frequency shift;
* ordinary least squares of mode frequency versus mode number.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import ConditioningError, NoResonanceError

_STEP_REL = 6.0e-6  # ~cbrt(eps): central-difference step fraction
_FTOL = 1e-10  # relative cost reduction of an accepted step
_XTOL = 1e-10  # scaled step relative to the scaled parameters
_CONVERGED = frozenset({"zero_residual", "gtol", "ftol", "xtol"})


@dataclass(frozen=True)
class Trace:
    """Frequency sweep with a complex (S11) or real (power) response."""

    frequency: np.ndarray
    response: np.ndarray

    def __post_init__(self) -> None:
        freq = np.asarray(self.frequency, dtype=float)
        resp = np.asarray(self.response)
        object.__setattr__(self, "frequency", freq)
        object.__setattr__(self, "response", resp)
        if freq.ndim != 1 or resp.ndim != 1 or len(freq) != len(resp):
            raise ValueError("frequency and response must be 1-D and equally long")
        if len(freq) < 5:
            raise ValueError("a trace needs at least 5 points")
        if not np.all(np.diff(freq) > 0):
            raise ValueError("frequencies must be strictly increasing")

    @classmethod
    def from_csv(cls, path) -> "Trace":
        """Read columns (f_hz, re, im) or (f_hz, power_db)."""
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
        if not rows:
            raise ValueError(f"{path}: empty trace file")
        names = set(rows[0])
        freq = np.array([float(r["f_hz"]) for r in rows])
        if {"re", "im"} <= names:
            resp = np.array([float(r["re"]) + 1j * float(r["im"]) for r in rows])
        elif "power_db" in names:
            resp = np.array([10.0 ** (float(r["power_db"]) / 10.0) for r in rows])
        else:
            raise ValueError(f"{path}: expected columns f_hz,re,im or f_hz,power_db")
        return cls(frequency=freq, response=resp)


@dataclass(frozen=True)
class FitResult:
    """Estimated parameters with linearized standard errors.

    ``iterations`` counts accepted steps, each followed by one Jacobian
    evaluation (MINPACK's ``iter``); ``termination`` names the stop rule
    that ended the iteration (see the module docstring).
    """

    parameters: Dict[str, float]
    standard_errors: Dict[str, float]
    residual_norm: float
    iterations: int
    termination: str
    residual_history: Tuple[float, ...] = field(default=(), repr=False)

    @property
    def converged(self) -> bool:
        return self.termination in _CONVERGED

    def to_dict(self) -> dict:
        return {
            "parameters": dict(self.parameters),
            "standard_errors": dict(self.standard_errors),
            "residual_norm": self.residual_norm,
            "converged": self.converged,
            "iterations": self.iterations,
            "termination": self.termination,
        }


def _as_xy(data) -> Tuple[np.ndarray, np.ndarray]:
    if isinstance(data, Trace):
        return data.frequency, data.response
    x, y = data
    return np.asarray(x), np.asarray(y)


def _stack(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if np.iscomplexobj(values):
        return np.concatenate([values.real, values.imag])
    return np.asarray(values, dtype=float)


def _sum_squares(values: np.ndarray) -> float:
    # numpy's pairwise sum, not a BLAS dot: threaded BLAS splits a long dot
    # into per-thread partial sums, and the accept and stop tests compare
    # costs, so a fit would depend on the BLAS thread count
    return float(np.sum(np.square(values)))


def least_squares(
    model: Callable,
    data,
    initial: Sequence[float],
    bounds: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
    param_names: Optional[Sequence[str]] = None,
    scales: Optional[Sequence[float]] = None,
    max_iter: int = 200,
    gradient_rtol: float = 1e-10,
    jac: Optional[Callable] = None,
) -> FitResult:
    """Minimize ||y - model(params, x)||^2 with adaptive damping.

    ``data`` is a :class:`Trace` or an ``(x, y)`` pair; complex responses
    are fitted on stacked real/imaginary parts.  ``bounds`` is an optional
    (lower, upper) pair of per-parameter limits; trial steps are projected
    onto the box.  ``jac(params, x)``, when given, returns the model's
    (n, n_par) derivative; a complex one is stacked like the residuals, a
    real one must already have one row per stacked residual.  Without it
    the Jacobian is central-differenced.  ``max_iter`` bounds the accepted
    steps.  Raises :class:`ConditioningError` when the damped normal
    equations are singular (a parameter the model never responds to).
    """
    x, y = _as_xy(data)
    p = np.array(initial, dtype=float)
    n_par = len(p)
    lower = np.full(n_par, -np.inf) if bounds is None else np.asarray(bounds[0], float)
    upper = np.full(n_par, np.inf) if bounds is None else np.asarray(bounds[1], float)
    if np.any(p < lower) or np.any(p > upper):
        raise ValueError("initial parameters must lie within bounds")
    names = list(param_names) if param_names else [f"p{j}" for j in range(n_par)]
    step_scale = np.maximum(np.abs(p), 1.0) if scales is None else np.asarray(scales, float)

    def residual(params: np.ndarray) -> np.ndarray:
        return _stack(y - model(params, x))

    def jacobian(params: np.ndarray) -> np.ndarray:
        """Derivative of the stacked model (minus that of the residuals)."""
        if jac is not None:
            return _stack(jac(params, x))
        cols = []
        for j in range(n_par):
            h = _STEP_REL * max(abs(params[j]), step_scale[j])
            up = params.copy(); up[j] += h
            down = params.copy(); down[j] -= h
            cols.append((residual(down) - residual(up)) / (2.0 * h))
        return np.column_stack(cols)

    res = residual(p)
    cost = _sum_squares(res)
    history = [math.sqrt(cost)]
    jmat = jacobian(p)
    normal = jmat.T @ jmat
    descent = jmat.T @ res  # minus half the cost gradient
    grad_norm0 = float(np.max(np.abs(descent)))
    grad_tol = gradient_rtol * grad_norm0
    termination = "zero_residual" if cost == 0.0 else "gtol" if grad_norm0 == 0.0 else ""
    lam = 0.0  # pure Gauss-Newton until a step is rejected

    def column_scale(normal: np.ndarray) -> np.ndarray:
        diag = np.diag(normal)
        if not np.all(np.isfinite(diag)) or np.any(diag <= 0.0):
            raise ConditioningError(
                "singular normal equations: a parameter leaves the residuals unchanged"
            )
        return 1.0 / np.sqrt(diag)

    iterations = 0
    while not termination:
        if iterations >= max_iter:
            termination = "max_iter"
            break
        # Marquardt scaling: unit-diagonal coordinates keep the solve stable
        # when parameter magnitudes span many decades
        scale = column_scale(normal)
        scaled = normal * scale[:, None] * scale[None, :]
        scaled_descent = descent * scale
        try:
            step = scale * np.linalg.solve(scaled + lam * np.eye(n_par), scaled_descent)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError("singular normal equations in least-squares step") from exc
        if not np.all(np.isfinite(step)):
            raise ConditioningError("singular normal equations in least-squares step")
        trial = np.clip(p + step, lower, upper)
        res_trial = residual(trial)
        cost_trial = _sum_squares(res_trial)
        if cost_trial < cost:
            iterations += 1
            cost_drop = cost - cost_trial
            moved = float(np.linalg.norm((trial - p) / step_scale))
            p, res, cost = trial, res_trial, cost_trial
            history.append(math.sqrt(cost))
            lam = 0.0 if lam < 1e-12 else lam * 0.25
            jmat = jacobian(p)
            normal = jmat.T @ jmat
            descent = jmat.T @ res
            if cost == 0.0:
                termination = "zero_residual"
            elif float(np.max(np.abs(descent))) <= grad_tol:
                termination = "gtol"
            elif cost_drop <= _FTOL * cost:
                termination = "ftol"
            elif moved <= _XTOL * (float(np.linalg.norm(p / step_scale)) + _XTOL):
                termination = "xtol"
        elif (cost_trial - cost <= _FTOL * cost
              and scaled_descent @ np.linalg.pinv(scaled) @ scaled_descent <= _FTOL * cost):
            # even the undamped Gauss-Newton step predicts a negligible drop:
            # the fit sits at its optimum to rounding (a refit from a result)
            termination = "ftol"
        else:
            lam = 1e-4 if lam == 0.0 else lam * 4.0
            if lam > 1e14:
                termination = "damping_cap"  # no direction improves the fit at any damping

    m_res = len(res)
    errors = np.full(n_par, float("nan"))
    if m_res > n_par:
        sigma2 = cost / (m_res - n_par)
        diag = np.diag(normal)
        if np.all(np.isfinite(diag)) and np.all(diag > 0.0):
            scale = 1.0 / np.sqrt(diag)
            scaled = normal * scale[:, None] * scale[None, :]
            covariance = sigma2 * (np.linalg.pinv(scaled) * scale[:, None] * scale[None, :])
            errors = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    return FitResult(
        parameters=dict(zip(names, (float(v) for v in p))),
        standard_errors=dict(zip(names, (float(e) for e in errors))),
        residual_norm=math.sqrt(cost),
        iterations=iterations,
        termination=termination,
        residual_history=tuple(history),
    )


def reflection_s11(
    frequency,
    f0: float,
    q_in: float,
    q_ex: float,
    amplitude: float = 1.0,
    phase_offset: float = 0.0,
    delay: float = 0.0,
    reference_frequency: Optional[float] = None,
):
    """One-port reflection with background amplitude, phase and cable delay.

    S11(f) = A exp(i(theta + 2 pi (f - f_ref) tau))
             * ((1/Q_ex - 1/Q_in) - 2 i x) / ((1/Q_ex + 1/Q_in) + 2 i x),

    x = (f - f0)/f0.  The delay phase is referenced to ``reference_frequency``
    (default f0) so delay and phase offset stay numerically independent on a
    narrow span.
    """
    freq = np.asarray(frequency, dtype=float)
    f_ref = f0 if reference_frequency is None else reference_frequency
    x, a, b, background = _reflection_terms(freq, f0, q_in, q_ex, amplitude,
                                            phase_offset, delay, f_ref)
    return background * ((a - 2j * x) / (b + 2j * x))


def _reflection_terms(freq, f0, q_in, q_ex, amplitude, phase_offset, delay, f_ref):
    """(x, a, b, background) of :func:`reflection_s11`."""
    x = (freq - f0) / f0
    a = 1.0 / q_ex - 1.0 / q_in
    b = 1.0 / q_ex + 1.0 / q_in
    background = amplitude * np.exp(1j * (phase_offset + 2.0 * math.pi * (freq - f_ref) * delay))
    return x, a, b, background


def reflection_jacobian(frequency, params, reference_frequency: float) -> np.ndarray:
    """Closed-form derivative of :func:`reflection_s11` for the engine.

    ``params`` is (f0, Q_in, Q_ex, amplitude, phase_offset, delay) with the
    delay phase referenced to the fixed ``reference_frequency``.  Returns the
    (2n, 6) real array whose first n rows are the real parts and last n
    the imaginary parts of dS11/dparams, stacked like the residuals.
    """
    freq = np.asarray(frequency, dtype=float)
    f0, q_in, q_ex, amplitude, phase_offset, delay = params
    x, a, b, background = _reflection_terms(freq, f0, q_in, q_ex, amplitude,
                                            phase_offset, delay, reference_frequency)
    d = b + 2j * x
    # the background is computed, not S11 divided by the ideal reflection,
    # which vanishes at the dip of a critically coupled mode
    over_d2 = background / (d * d)
    s11 = background * ((a - 2j * x) / d)
    columns = (
        2j * (a + b) * over_d2 * (freq / f0**2),
        (a + b) * over_d2 / q_in**2,
        -(b - a + 4j * x) * over_d2 / q_ex**2,
        s11 / amplitude,
        1j * s11,
        2j * math.pi * (freq - reference_frequency) * s11,
    )
    n = len(freq)
    out = np.empty((len(columns), 2 * n))
    for row, column in zip(out, columns):
        row[:n] = column.real
        row[n:] = column.imag
    return out.T


_REFLECTION_PARAMS = ("f0", "q_in", "q_ex", "amplitude", "phase_offset", "delay")


def _reflection_guess(trace: Trace) -> Tuple[np.ndarray, float]:
    freq, z = trace.frequency, trace.response
    n_edge = max(2, len(freq) // 20)
    z_far = 0.5 * (np.mean(z[:n_edge]) + np.mean(z[-n_edge:]))
    baseline = float(np.abs(z_far))
    if baseline == 0.0:
        raise NoResonanceError("trace has zero background amplitude")
    distance = np.abs(z - z_far)
    peak = int(np.argmax(distance))
    d_max = float(distance[peak])
    if d_max < 0.05 * baseline:
        raise NoResonanceError("no resonance dip found in trace")
    f0 = float(freq[peak])
    # resonance circle diameter 2*eta*A fixes the coupling fraction directly
    eta = min(d_max / (2.0 * baseline), 0.999)
    # width of the |z - z_far|^2 peak gives the total quality factor
    half = 0.5 * d_max**2
    d2 = distance**2
    left = peak
    while left > 0 and d2[left] > half:
        left -= 1
    right = peak
    while right < len(freq) - 1 and d2[right] > half:
        right += 1
    fwhm = max(float(freq[right] - freq[left]), float(freq[1] - freq[0]))
    q_tot = f0 / fwhm
    q_ex = q_tot / eta
    q_in = q_tot / max(1.0 - eta, 1e-6)

    # edge phase slope approximates the cable delay
    phase = np.unwrap(np.angle(z))
    slope_lo = (phase[n_edge - 1] - phase[0]) / (freq[n_edge - 1] - freq[0])
    slope_hi = (phase[-1] - phase[-n_edge]) / (freq[-1] - freq[-n_edge])
    delay = 0.5 * (slope_lo + slope_hi) / (2.0 * math.pi)

    f_ref = float(np.median(freq))
    bare = reflection_s11(freq, f0, q_in, q_ex, 1.0, 0.0, delay, reference_frequency=f_ref)
    overlap = np.sum(z * np.conj(bare)) / np.sum(np.abs(bare) ** 2)
    amplitude = float(np.abs(overlap))
    phase_offset = float(np.angle(overlap))
    guess = np.array([f0, q_in, q_ex, amplitude, phase_offset, delay])
    return guess, f_ref


def fit_reflection_resonance(
    trace: Trace,
    initial_guess: Optional[Sequence[float]] = None,
) -> FitResult:
    """Fit (f0, Q_in, Q_ex, amplitude, phase_offset, delay) to a complex trace.

    The automatic guess reads the resonance-circle diameter for the coupling
    fraction and the dip width for the total linewidth; raises
    :class:`NoResonanceError` when no dip stands out.  The background scale
    is a nuisance parameter, so the extracted f0/Q_in/Q_ex are invariant
    under multiplying the trace by any non-zero complex constant.
    """
    if not np.iscomplexobj(trace.response):
        raise ValueError("reflection fitting needs a complex trace")
    freq = trace.frequency
    if initial_guess is not None:
        guess = np.asarray(initial_guess, dtype=float)
        f_ref = float(np.median(freq))
    else:
        guess, f_ref = _reflection_guess(trace)

    def model(params, f):
        f0, q_in, q_ex, amplitude, phase_offset, delay = params
        return reflection_s11(
            f, f0, q_in, q_ex, amplitude, phase_offset, delay, reference_frequency=f_ref
        )

    def jac(params, f):
        return reflection_jacobian(f, params, f_ref)

    span = float(freq[-1] - freq[0])
    scales = np.array([span, guess[1], guess[2], max(guess[3], 1e-3), 1.0, 1.0 / span])
    lower = [freq[0], 1.0, 1.0, 1e-12, -math.tau, -1.0]
    upper = [freq[-1], 1e12, 1e12, np.inf, math.tau, 1.0]
    return least_squares(
        model,
        trace,
        guess,
        bounds=(lower, upper),
        param_names=_REFLECTION_PARAMS,
        scales=scales,
        jac=jac,
    )


def coupling_fraction(result: FitResult) -> float:
    """eta = Q_in/(Q_in + Q_ex) from a reflection fit."""
    q_in = result.parameters["q_in"]
    q_ex = result.parameters["q_ex"]
    return q_in / (q_in + q_ex)


def fit_quadratic_field_shift(
    fields: Sequence[float],
    fractional_shifts: Sequence[float],
) -> FitResult:
    """Fit df/f = -quad_coeff * B^2 to a field sweep."""
    b = np.asarray(fields, dtype=float)
    y = np.asarray(fractional_shifts, dtype=float)
    if len(b) < 3 or len(b) != len(y):
        raise ValueError("need at least 3 matched (field, shift) points")

    def model(params, x):
        return -params[0] * x**2

    b_scale = float(np.max(np.abs(b)))
    if b_scale == 0.0:
        raise ConditioningError("all fields are zero; quadratic coefficient is unidentifiable")
    initial = [max(abs(float(np.max(np.abs(y)))) / b_scale**2, 1e-12)]
    return least_squares(
        model, (b, y), initial, param_names=("quad_coeff",), scales=[initial[0]]
    )


def fit_linear_modes(
    mode_numbers: Sequence[int],
    frequencies: Sequence[float],
) -> FitResult:
    """Ordinary least squares of f_m = fsr*m + offset."""
    m = np.asarray(mode_numbers, dtype=float)
    y = np.asarray(frequencies, dtype=float)
    if len(m) < 2 or len(m) != len(y):
        raise ValueError("need at least 2 matched (m, frequency) points")
    if len(np.unique(m)) < 2:
        raise ValueError("need at least 2 distinct mode numbers")

    def model(params, x):
        return params[0] * x + params[1]

    span = float(np.ptp(y)) or 1.0
    initial = [span / max(float(np.ptp(m)), 1.0), float(np.min(y))]
    return least_squares(
        model, (m, y), initial,
        param_names=("fsr", "offset"),
        scales=[abs(initial[0]) or 1.0, max(abs(initial[1]), 1.0)],
    )
