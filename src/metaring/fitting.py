"""Damped nonlinear least squares and the toolkit's standard fits.

The engine is a Levenberg-Marquardt iteration: the damping term
lambda*diag(J^T J) grows on rejected steps and shrinks on accepted ones, so
the accepted-step residual norm never increases.  The Jacobian comes from a
caller-supplied ``jac`` or, by default, from central differences.  After
each step the iteration stops, with a named reason, on the first of these
MINPACK-style tests (More 1978):

* ``zero_residual``: the residuals vanish;
* ``gtol``: the largest gradient component falls below ``_GTOL`` times its
  initial value;
* ``ftol``: the step lowered the cost by at most ``_FTOL`` of the cost or,
  for a rejected step, raised it by at most that while the undamped
  Gauss-Newton step predicts a drop of at most that;
* ``xtol``: the scaled step is at most ``_XTOL`` of the scaled parameters.

These four mean converged.  The iteration also ends, unconverged, after
``_MAX_ITER`` accepted steps (``max_iter``) or when the damping passes its
cap without any step lowering the cost (``damping_cap``), which bounds the
rejected steps in a row.  An ``ftol``, ``xtol`` or ``damping_cap`` stop, or
a trial step that the box clips away entirely, at which some parameter
sits on its bound while the descent direction points out of the box there
is reported as ``bound``, also unconverged: the box, not the fit, stopped
the iteration.

Fits built on the engine:

* one-port reflection resonance (f0, Q_in, Q_ex, background amplitude,
  phase offset, cable delay) on complex traces.  The start is closed form:
  an algebraic circle fit (Chernov & Lesort 2005, J. Math. Imaging Vis. 23,
  239) gives the background and the coupling fraction, a weighted linear
  fit of the phase around the circle (Probst et al. 2015, Rev. Sci.
  Instrum. 86, 024706) gives f0 and Q_tot, and the edge phase slope less
  the resonator's own phase tail gives the cable delay.  The steps use the
  closed-form Jacobian of :func:`reflection_s11`, which reads the
  background from the model value the engine has just computed;
* quadratic magnetic-field frequency shift;
* ordinary least squares of mode frequency versus mode number.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import ConditioningError, NoResonanceError

_STEP_REL = 6.0e-6  # ~cbrt(eps): central-difference step fraction
_FTOL = 1e-10  # relative cost reduction of an accepted step
_XTOL = 1e-10  # scaled step relative to the scaled parameters
_GTOL = 1e-10  # largest gradient component relative to its initial value
_MAX_ITER = 200  # accepted steps
_CONVERGED = frozenset({"zero_residual", "gtol", "ftol", "xtol"})


@dataclass(frozen=True)
class Trace:
    """Frequency sweep and its response, every value finite.

    The reflection fit needs a complex (S11) response.
    """

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
        if not (np.all(np.isfinite(freq)) and np.all(np.isfinite(resp))):
            raise ValueError("trace frequencies and responses must be finite")
        if not np.all(np.diff(freq) > 0):
            raise ValueError("frequencies must be strictly increasing")

    @classmethod
    def from_csv(cls, path) -> "Trace":
        """Read the columns f_hz, re and im, each named once by the header, in any order."""
        with open(path, newline="") as handle:
            names = handle.readline().rstrip("\r\n").split(",")
            if sorted(names) != ["f_hz", "im", "re"]:
                raise ValueError(f"{path}: expected columns f_hz,re,im, each named once, "
                                 f"got {','.join(names)!r}")
            with warnings.catch_warnings():
                # a header-only file is reported below, not as a numpy warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(handle, delimiter=",", ndmin=2, comments=None)
        if table.size == 0:
            raise ValueError(f"{path}: empty trace file")
        if table.shape[1] != len(names):
            raise ValueError(f"{path}: the header names {len(names)} columns, "
                             f"the rows hold {table.shape[1]}")
        columns = dict(zip(names, np.ascontiguousarray(table.T)))
        return cls(frequency=columns["f_hz"], response=columns["re"] + 1j * columns["im"])


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


def _stack(values: np.ndarray) -> np.ndarray:
    """Real view of complex values, each real part followed by its imaginary part.

    A complex (n, k) array becomes (2n, k); no copy is made when it is the
    transpose of a C-contiguous (k, n) array, as a Jacobian filled one
    parameter row at a time is.
    """
    values = np.asarray(values)
    if not np.iscomplexobj(values):
        return np.asarray(values, dtype=float)
    if values.ndim == 1:
        return np.ascontiguousarray(values, dtype=complex).view(float)
    return np.ascontiguousarray(values.T, dtype=complex).view(float).T


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
    jac: Optional[Callable] = None,
) -> FitResult:
    """Minimize ||y - model(params, x)||^2 with adaptive damping.

    ``data`` is an ``(x, y)`` pair of arrays; a complex ``y`` is fitted on
    its real and imaginary parts, each point's real part followed by its
    imaginary part.  ``bounds`` is an optional (lower, upper) pair of
    per-parameter limits; a step leaves out every parameter held on its
    bound (the descent points out of the box there), so the others reach
    the constrained optimum, trial steps are projected onto the box, and a
    stop held there by a bound is ``bound``, not converged.
    ``jac(params, x)``, when given, returns the model's (n, n_par)
    derivative; a complex one is split like the residuals, a real one must
    already have one row per real residual.  Without it the Jacobian is
    central-differenced.  At most ``_MAX_ITER`` steps are accepted.
    Raises :class:`ConditioningError` when the damped normal equations are
    singular (a parameter the model never responds to).
    """
    x, y = data
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
    grad_tol = _GTOL * grad_norm0
    termination = "zero_residual" if cost == 0.0 else "gtol" if grad_norm0 == 0.0 else ""
    lam = 0.0  # pure Gauss-Newton until a step is rejected

    def column_scale(normal: np.ndarray) -> np.ndarray:
        diag = np.diag(normal)
        if not np.all(np.isfinite(diag)) or np.any(diag <= 0.0):
            raise ConditioningError(
                "singular normal equations: a parameter leaves the residuals unchanged"
            )
        return 1.0 / np.sqrt(diag)

    def held() -> np.ndarray:
        """Parameters that sit on their bound while the descent points out of the box there."""
        return ((p >= upper) & (descent > 0.0)) | ((p <= lower) & (descent < 0.0))

    iterations = 0
    while not termination:
        if iterations >= _MAX_ITER:
            termination = "max_iter"
            break
        # Marquardt scaling: unit-diagonal coordinates keep the solve stable
        # when parameter magnitudes span many decades
        scale = column_scale(normal)
        # the step moves only the free parameters, so they reach the optimum
        # constrained by the held ones; with none held this is the full step
        free = np.flatnonzero(~held())
        scale_free = scale[free]
        scaled = normal[np.ix_(free, free)] * scale_free[:, None] * scale_free[None, :]
        scaled_descent = descent[free] * scale_free
        step = np.zeros(n_par)
        try:
            step[free] = scale_free * np.linalg.solve(scaled + lam * np.eye(free.size),
                                                      scaled_descent)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError("singular normal equations in least-squares step") from exc
        if not np.all(np.isfinite(step)):
            raise ConditioningError("singular normal equations in least-squares step")
        trial = np.clip(p + step, lower, upper)
        if np.array_equal(trial, p) and held().any():
            termination = "bound"  # the box clips the whole step away
            break
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

    if termination in ("ftol", "xtol", "damping_cap") and held().any():
        termination = "bound"
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
    x = (freq - f0) / f0
    a = 1.0 / q_ex - 1.0 / q_in
    b = 1.0 / q_ex + 1.0 / q_in
    background = amplitude * np.exp(1j * (phase_offset + 2.0 * math.pi * (freq - f_ref) * delay))
    return background * ((a - 2j * x) / (b + 2j * x))


def reflection_jacobian(frequency, params, reference_frequency: float,
                        s11: Optional[np.ndarray] = None) -> np.ndarray:
    """Closed-form derivative of :func:`reflection_s11` for the engine.

    ``params`` is (f0, Q_in, Q_ex, amplitude, phase_offset, delay) with the
    delay phase referenced to the fixed ``reference_frequency``.  ``s11``,
    when given, must be :func:`reflection_s11` at these parameters; the
    background is then read from it instead of from a complex exponential.
    Returns the complex (n, 6) array dS11/dparams, the transpose of one
    C-contiguous (6, n) array, which the engine splits without a copy.
    """
    freq = np.asarray(frequency, dtype=float)
    f0, q_in, q_ex, amplitude, phase_offset, delay = params
    a = 1.0 / q_ex - 1.0 / q_in
    b = 1.0 / q_ex + 1.0 / q_in
    offset = freq - reference_frequency
    out = np.empty((6, freq.size), dtype=complex)
    # S11 = A e (a - 2ix)/d with d = b + 2ix, e the unit background and
    # a - 2ix = (a + b) - d; row 0 holds d until the f0 column replaces it
    d = out[0]
    d.real = b
    np.multiply(freq - f0, 2.0 / f0, out=d.imag)
    unit = out[3]  # dS11/dA = S11/A
    if s11 is None or a == 0.0:
        # at critical coupling (a = 0) S11 vanishes at x = 0, so the
        # background cannot be read back from it there
        phase = offset * (2.0 * math.pi * delay)
        phase += phase_offset
        e = np.exp(1j * phase)
        h = e / d
        np.multiply(h, a + b, out=unit)
        unit -= e
    else:
        np.multiply(s11, 1.0 / amplitude, out=unit)
        h = unit / ((a + b) - d)
    v = np.divide(h, d, out=d)  # e / d^2
    np.multiply(unit, 1j * amplitude, out=out[4])
    offset *= 2.0 * math.pi
    np.multiply(out[4], offset, out=out[5])
    np.multiply(v, (a + b) * amplitude / (q_in * q_in), out=out[1])
    # dS11/dQ_ex = -A e (b - a + 4ix)/(d^2 Q_ex^2) = A e ((a + b) - 2d)/(d^2 Q_ex^2)
    np.multiply(v, (a + b) * amplitude / (q_ex * q_ex), out=out[2])
    h *= 2.0 * amplitude / (q_ex * q_ex)
    out[2] -= h
    v *= freq
    v *= 2j * (a + b) * amplitude / (f0 * f0)
    return out.T


_REFLECTION_PARAMS = ("f0", "q_in", "q_ex", "amplitude", "phase_offset", "delay")


def _circle_fit(z: np.ndarray) -> Tuple[complex, float]:
    """Centre and radius of the algebraic (Kasa) circle through complex points.

    Minimizes sum (|z - c|^2 - r^2)^2.  About the centroid the 3x3 moment
    equations decouple into a 2x2 solve for the centre and r^2 = |c|^2 +
    mean |z|^2 (Chernov & Lesort 2005, J. Math. Imaging Vis. 23, 239).
    """
    mean = complex(np.mean(z))
    w = z - mean
    u, v = w.real, w.imag
    s = u * u
    s += v * v
    suu, svv, suv = float(np.dot(u, u)), float(np.dot(v, v)), float(np.dot(u, v))
    sus, svs = float(np.dot(u, s)), float(np.dot(v, s))
    det = suu * svv - suv * suv
    if not det > 0.0:
        raise NoResonanceError("trace points are collinear: no resonance circle")
    cu = 0.5 * (svv * sus - suv * svs) / det
    cv = 0.5 * (suu * svs - suv * sus) / det
    return mean + complex(cu, cv), math.sqrt(cu * cu + cv * cv + float(np.mean(s)))


def _circle_phase_fit(z: np.ndarray, offset: np.ndarray) -> Tuple[complex, float, float, float]:
    """(centre, radius, f0 - f_ref, 2 Q_tot/f0) of a trace without cable delay.

    About the circle's centre c the trace is r exp(i psi) along the resonant
    direction -c/|c|, the off-resonant point sitting at psi = pi, with
    tan(psi/2) = -2 Q_tot (f - f0)/f0 (Probst et al. 2015, Rev. Sci.
    Instrum. 86, 024706).  The weighted linear fit of u = -tan(psi/2)
    against ``offset`` = f - f_ref is written on s = exp(i psi) as
    s - 1 + i u (1 + s) = 0, so the points near the off-resonant point,
    where tan diverges, stay bounded.  The first pass weights each point by
    |1 + s|^4, which vanishes at the off-resonant point; the second by
    1/(1 + u^2)^2 from the first pass's line, so the many far-off points,
    whose noise wraps around psi = pi, cannot bias the slope.
    """
    center, radius = _circle_fit(z)
    amplitude = abs(center) + radius
    # a circle centred on zero has no off-resonant direction
    if not (2.0 * radius >= 0.05 * amplitude and abs(center) > 0.0):
        raise NoResonanceError("no resonance circle in trace")
    s = (center - z) * (center.conjugate() / (abs(center) * radius))
    p2 = 1.0 + s.real
    p2 *= p2
    p2 += s.imag * s.imag  # |1 + s|^2
    y = -2.0 * s.imag
    span = float(offset[-1] - offset[0])

    def line(weight: np.ndarray) -> Tuple[float, float]:
        wp = weight * p2
        m0, m1 = float(np.sum(wp)), float(np.dot(wp, offset))
        m2 = float(np.dot(wp * offset, offset))
        wy = weight * y
        r0, r1 = float(np.sum(wy)), float(np.dot(wy, offset))
        det = m0 * m2 - m1 * m1
        slope = (m0 * r1 - m1 * r0) / det if det > 0.0 else 0.0
        # the phase must wind the right way round through at least one
        # linewidth (u from -1 to 1) before the slope is divided by
        if not slope * span >= 2.0:
            raise NoResonanceError("trace phase does not wind through a resonance")
        return slope, (m2 * r0 - m1 * r1) / det

    slope, intercept = line(p2 * p2)
    u = slope * offset
    u += intercept
    u *= u
    u += 1.0
    slope, intercept = line(1.0 / (u * u))
    f0_offset = -intercept / slope
    return center, radius, f0_offset, slope


def _edge_delay(z_edge: np.ndarray, f_edge: np.ndarray) -> float:
    """Cable delay from the phase slope of z over the (2, n_edge) edge windows.

    Each window's phase is taken about its own mean, so no unwrapping is
    needed while the phase turns by less than pi across one window.
    """
    phase = np.angle(z_edge * np.mean(z_edge, axis=1, keepdims=True).conjugate())
    f_edge = f_edge - np.mean(f_edge, axis=1, keepdims=True)
    return float(np.sum(phase * f_edge) / np.sum(f_edge * f_edge)) / (2.0 * math.pi)


def _middle_frequency(freq: np.ndarray) -> float:
    """The median of a strictly increasing grid, with the bits of ``np.median``.

    Read from the middle, because ``np.median`` imports ``numpy.ma`` on its
    first call, which costs a fresh process more than a whole fit.
    """
    half = len(freq) // 2
    if len(freq) % 2:
        return float(freq[half])
    return float((freq[half - 1] + freq[half]) / 2.0)


def _reflection_guess(trace: Trace) -> Tuple[np.ndarray, float]:
    """Closed-form start (f0, Q_in, Q_ex, amplitude, phase_offset, delay).

    The raw edge phase slope still holds the resonator's own phase tail, so
    the delay it gives is only good enough to unwind the trace for a first
    circle and phase fit.  The delay is then the edge phase slope of the
    trace less that of the fitted resonator, and the circle and phase fits
    are repeated on the trace with this delay removed.
    """
    freq, z = trace.frequency, trace.response
    f_ref = _middle_frequency(freq)
    offset = freq - f_ref
    n_edge = max(2, len(freq) // 20)
    edges = np.stack([np.arange(n_edge), np.arange(len(freq) - n_edge, len(freq))])
    f_edge = offset[edges]
    delay = _edge_delay(z[edges], f_edge)
    center, radius, f0_offset, slope = _circle_phase_fit(
        z * np.exp(-2j * math.pi * delay * offset), offset)
    eta = radius / (abs(center) + radius)
    resonator = 2.0 * eta / (1.0 + 1j * slope * (f_edge - f0_offset)) - 1.0
    delay = _edge_delay(z[edges] * resonator.conjugate(), f_edge)
    center, radius, f0_offset, slope = _circle_phase_fit(
        z * np.exp(-2j * math.pi * delay * offset), offset)

    amplitude = abs(center) + radius
    eta = min(radius / amplitude, 0.999)
    f0 = min(max(f_ref + f0_offset, freq[0]), freq[-1])
    q_tot = 0.5 * slope * f0
    guess = np.array([
        f0,
        min(max(q_tot / (1.0 - eta), 1.0), 1e12),
        min(max(q_tot / eta, 1.0), 1e12),
        amplitude,
        math.atan2(-center.imag, -center.real),
        min(max(delay, -1.0), 1.0),
    ])
    if not np.all(np.isfinite(guess)):
        raise NoResonanceError("no finite resonance parameters fit the trace")
    return guess, f_ref


def fit_reflection_resonance(
    trace: Trace,
    initial_guess: Optional[Sequence[float]] = None,
) -> FitResult:
    """Fit (f0, Q_in, Q_ex, amplitude, phase_offset, delay) to a complex trace.

    The automatic start is closed form: an algebraic circle fit (Chernov &
    Lesort 2005) gives the background and the coupling fraction from the
    circle's radius and its off-resonant point, a weighted linear fit of
    tan(psi/2) = -2 Q_tot (f - f0)/f0 around the circle (Probst et al.
    2015) gives f0 and Q_tot, and the edge phase slope less the resonator's
    own phase tail gives the cable delay.  Raises :class:`NoResonanceError`
    when the trace holds no resonance circle.  The background scale is a
    nuisance parameter, so the extracted f0/Q_in/Q_ex are invariant under
    multiplying the trace by any non-zero complex constant.
    """
    if not np.iscomplexobj(trace.response):
        raise ValueError("reflection fitting needs a complex trace")
    freq = trace.frequency
    if initial_guess is not None:
        guess = np.asarray(initial_guess, dtype=float)
        f_ref = _middle_frequency(freq)
    else:
        guess, f_ref = _reflection_guess(trace)
    last = {"params": None, "s11": None}

    def model(params, f):
        f0, q_in, q_ex, amplitude, phase_offset, delay = params
        s11 = reflection_s11(
            f, f0, q_in, q_ex, amplitude, phase_offset, delay, reference_frequency=f_ref
        )
        last["params"], last["s11"] = params.copy(), s11
        return s11

    def jac(params, f):
        # the engine takes each Jacobian where it has just evaluated the model
        same = np.array_equal(params, last["params"])
        return reflection_jacobian(f, params, f_ref, last["s11"] if same else None)

    span = float(freq[-1] - freq[0])
    scales = np.array([span, guess[1], guess[2], max(guess[3], 1e-3), 1.0, 1.0 / span])
    lower = [freq[0], 1.0, 1.0, 1e-12, -math.tau, -1.0]
    upper = [freq[-1], 1e12, 1e12, np.inf, math.tau, 1.0]
    return least_squares(
        model,
        (freq, trace.response),
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
