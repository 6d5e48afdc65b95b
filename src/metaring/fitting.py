"""Damped nonlinear least squares and the toolkit's standard fits.

The engine is a Levenberg-Marquardt iteration: the damping term
lambda*diag(J^T J) grows on rejected steps and shrinks on accepted ones, so
the accepted-step residual norm never increases.  The Jacobian always comes
from the caller's ``jac``, handed the model value just computed at the same
parameters.  After each step the iteration stops, with a named reason, on
the first of these MINPACK-style tests (More 1978):

* ``zero_residual``: the residuals vanish;
* ``gtol``: the largest gradient component falls below ``_GTOL`` times its
  initial value;
* ``ftol``: the step lowered the cost by at most ``_FTOL`` of the cost or,
  for a rejected step, raised it by at most that while the undamped
  Gauss-Newton step predicts a drop of at most that;
* ``xtol``: the scaled step is at most ``_XTOL`` of the scaled parameters.

These four mean converged, as does ``exact``, the stop of a closed-form
fit.  The iteration also ends, unconverged, after ``_MAX_ITER`` accepted
steps (``max_iter``) or when the damping passes its cap without any step
lowering the cost (``damping_cap``), which bounds the rejected steps in a
row.  An ``ftol``, ``xtol`` or ``damping_cap`` stop, or a trial step that
the box clips away entirely, at which some parameter sits on its bound
while the descent direction points out of the box there is reported as
``bound``, also unconverged: the box, not the fit, stopped the iteration.
The standard errors invert the Marquardt-scaled normal matrix by LU, the
engine's only factorization, and are NaN when that matrix is singular.

The one-port reflection fit (f0, Q_in, Q_ex, background amplitude, phase
offset, cable delay) of complex traces runs on the engine.  Its start is
closed form: an algebraic circle fit (Chernov & Lesort 2005, J. Math.
Imaging Vis. 23, 239) gives the background and the coupling fraction, a
weighted linear fit of the phase around the circle (Probst et al. 2015,
Rev. Sci. Instrum. 86, 024706) gives f0 and Q_tot, and the edge phase slope
less the resonator's own phase tail gives the cable delay.  The steps use
the closed-form Jacobian of :func:`reflection_s11`, which reads the
background from that model value unless 1/Q_ex = 1/Q_in exactly.  The
least squares of mode frequency versus mode number is closed form.
"""

import io
import math
from typing import Callable, Dict, NamedTuple, Sequence, Tuple

import numpy as np

from .core import checked
from .errors import ConditioningError, NoResonanceError

_FTOL = 1e-10  # relative cost reduction of an accepted step
_XTOL = 1e-10  # scaled step relative to the scaled parameters
_GTOL = 1e-10  # largest gradient component relative to its initial value
_MAX_ITER = 200  # accepted steps
_CONVERGED = frozenset({"zero_residual", "gtol", "ftol", "xtol", "exact"})


class _TraceFields(NamedTuple):
    """The fields of :class:`Trace`, whose own ``__new__`` makes them arrays."""

    frequency: np.ndarray
    response: np.ndarray


@checked
class Trace(_TraceFields):
    """Frequency sweep and its response, every value finite.

    The reflection fit needs a complex (S11) response.
    """

    __slots__ = ()

    def __new__(cls, frequency, response):
        return super().__new__(cls, np.asarray(frequency, dtype=float), np.asarray(response))

    def _check(self) -> None:
        freq, resp = self.frequency, self.response
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
        """Read the columns f_hz, re and im, each named once by the header, in any order.

        A body of line ends alone is refused as empty before numpy parses it.
        """
        with open(path, newline="") as handle:
            names = handle.readline().rstrip("\r\n").split(",")
            if sorted(names) != ["f_hz", "im", "re"]:
                raise ValueError(f"{path}: expected columns f_hz,re,im, each named once, "
                                 f"got {','.join(names)!r}")
            body = handle.read()
        if not body.strip("\r\n"):
            raise ValueError(f"{path}: empty trace file")
        # newline="" splits the lines where the file's own iterator does
        table = np.loadtxt(io.StringIO(body, newline=""), delimiter=",", ndmin=2, comments=None)
        if table.shape[1] != len(names):
            raise ValueError(f"{path}: the header names {len(names)} columns, "
                             f"the rows hold {table.shape[1]}")
        columns = dict(zip(names, np.ascontiguousarray(table.T)))
        return cls(frequency=columns["f_hz"], response=columns["re"] + 1j * columns["im"])


class FitResult(NamedTuple):
    """Estimated parameters with linearized standard errors.

    ``iterations`` counts accepted steps, each followed by one Jacobian
    evaluation (MINPACK's ``iter``), 0 for a closed-form fit;
    ``termination`` names the stop rule that ended the iteration, or
    ``exact`` for a closed-form fit (see the module docstring).
    """

    parameters: Dict[str, float]
    standard_errors: Dict[str, float]
    residual_norm: float
    iterations: int
    termination: str
    residual_history: Tuple[float, ...] = ()

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
    if values.dtype.kind != "c":
        return np.asarray(values, dtype=float)
    if values.ndim == 1:
        return np.ascontiguousarray(values, dtype=complex).view(float)
    return np.ascontiguousarray(values.T, dtype=complex).view(float).T


def _sum_squares(values: np.ndarray) -> float:
    # numpy's pairwise sum, not a BLAS dot: threaded BLAS splits a long dot
    # into per-thread partial sums, and the accept and stop tests compare
    # costs, so a fit would depend on the BLAS thread count
    return float(np.square(values).sum())


def _norm(v: np.ndarray) -> float:
    # the body of np.linalg.norm for a real vector, without its Python-level checks
    return math.sqrt(v.dot(v))


def least_squares(
    model: Callable,
    data,
    initial: Sequence[float],
    bounds: Tuple[Sequence[float], Sequence[float]],
    param_names: Sequence[str],
    scales: Sequence[float],
    *,
    jac: Callable,
) -> FitResult:
    """Minimize ||y - model(params, x)||^2 with adaptive damping.

    ``data`` is an ``(x, y)`` pair of arrays; a complex ``y`` is fitted on
    its real and imaginary parts, each point's real part followed by its
    imaginary part.  ``bounds`` is a (lower, upper) pair of per-parameter
    limits, +-inf for none; a step leaves out every parameter held on its
    bound (the descent points out of the box there), so the others reach
    the constrained optimum, trial steps are projected onto the box, and a
    stop held there by a bound is ``bound``, not converged.  ``param_names``
    key the result; ``scales`` are the parameter sizes of the ``xtol`` test.
    The required ``jac(params, x, value)``, with ``value`` the model at
    ``params``, returns the model's (n, n_par) derivative; a complex one is
    split like the residuals, a real one must already have one row per real
    residual.  At most ``_MAX_ITER`` steps are accepted.  The standard errors
    take the inverse of the scaled normal matrix D J^T J D, D =
    diag(J^T J)^(-1/2), by LU; NaN when it is singular.  Raises
    :class:`ConditioningError` when the damped normal equations are singular
    (a parameter the model never responds to), and ``ValueError`` when
    ``initial``, or a residual of the data and the model at ``initial``, is
    not finite, ``initial`` is out of bounds or a bound NaN, or an option
    lacks one entry per parameter, a name is repeated or a scale is not
    positive and finite.
    """
    x, y = data
    p = np.array(initial, dtype=float)
    n_par = len(p)
    if not np.isfinite(p).all():
        raise ValueError(f"initial: every parameter must be finite, got {p.tolist()}")
    lower, upper = np.asarray(bounds[0], float), np.asarray(bounds[1], float)
    names = list(param_names)
    step_scale = np.asarray(scales, float)
    for option, shape in (("bounds", lower.shape), ("bounds", upper.shape),
                          ("param_names", (len(names),)), ("scales", step_scale.shape)):
        if shape != (n_par,):
            raise ValueError(f"{option}: must give one entry per parameter ({n_par}), "
                             f"got shape {shape}")
    if len(set(names)) < n_par:
        raise ValueError(f"param_names: every name must be distinct, got {names}")
    if not ((step_scale > 0.0) & (step_scale < math.inf)).all():
        raise ValueError("scales: every entry must be positive and finite")
    if not ((lower <= p) & (p <= upper)).all():
        raise ValueError("initial parameters must lie within bounds")

    def evaluate(params: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        value = model(params, x)
        return value, _stack(y - value)

    def gram(params: np.ndarray, value: np.ndarray,
             res: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(J^T J, J^T res) at ``params``, where the model value is ``value``.

        The Jacobian dies on return, so the next one is never built while
        an old one is still alive.
        """
        jmat = _stack(jac(params, x, value))  # the stacked model's derivative
        return jmat.T @ jmat, jmat.T @ res

    value, res = evaluate(p)
    if not np.isfinite(res).all():
        raise ValueError("data or model at initial: every residual y - model(initial, x) "
                         "must be finite")
    cost = _sum_squares(res)
    history = [math.sqrt(cost)]
    normal, descent = gram(p, value, res)  # descent: minus half the cost gradient
    grad_norm0 = float(abs(descent).max())
    grad_tol = _GTOL * grad_norm0
    termination = "zero_residual" if cost == 0.0 else "gtol" if grad_norm0 == 0.0 else ""
    lam = 0.0  # pure Gauss-Newton until a step is rejected

    def column_scale(normal: np.ndarray) -> np.ndarray:
        diag = normal.diagonal()
        if not np.isfinite(diag).all() or (diag <= 0.0).any():
            raise ConditioningError(
                "singular normal equations: a parameter leaves the residuals unchanged"
            )
        return 1.0 / np.sqrt(diag)

    def held() -> np.ndarray:
        """Parameters that sit on their bound while the descent points out of the box there."""
        return ((p >= upper) & (descent > 0.0)) | ((p <= lower) & (descent < 0.0))

    def predicted_drop() -> float:
        """Cost drop of the undamped Gauss-Newton step, inf when its matrix is singular."""
        try:
            return float(scaled_descent @ np.linalg.solve(scaled, scaled_descent))
        except np.linalg.LinAlgError:
            return math.inf

    iterations = 0
    while not termination:
        if iterations >= _MAX_ITER:
            termination = "max_iter"
            break
        # Marquardt scaling: unit-diagonal coordinates keep the solve stable
        # when parameter magnitudes span many decades
        scale = column_scale(normal)
        # the step moves only the free parameters, so they reach the optimum
        # constrained by the held ones; with none held, slices take the full step
        hold = held()
        free = (~hold).nonzero()[0] if hold.any() else slice(None)
        scale_free = scale[free]
        scaled = normal[free][:, free] * scale_free[:, None] * scale_free[None, :]
        scaled_descent = descent[free] * scale_free
        damped = scaled.copy()  # predicted_drop reads scaled
        damped.ravel()[::len(damped) + 1] += lam
        step = np.zeros(n_par)
        try:
            step[free] = scale_free * np.linalg.solve(damped, scaled_descent)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError("singular normal equations in least-squares step") from exc
        if not np.isfinite(step).all():
            raise ConditioningError("singular normal equations in least-squares step")
        trial = np.minimum(np.maximum(p + step, lower), upper)
        if (trial == p).all() and hold.any():
            termination = "bound"  # the box clips the whole step away
            break
        value, res_trial = evaluate(trial)
        cost_trial = _sum_squares(res_trial)
        if cost_trial < cost:
            iterations += 1
            cost_drop = cost - cost_trial
            moved = _norm((trial - p) / step_scale)
            p, res, cost = trial, res_trial, cost_trial
            history.append(math.sqrt(cost))
            lam = 0.0 if lam < 1e-12 else lam * 0.25
            normal, descent = gram(p, value, res)
            if cost == 0.0:
                termination = "zero_residual"
            elif float(abs(descent).max()) <= grad_tol:
                termination = "gtol"
            elif cost_drop <= _FTOL * cost:
                termination = "ftol"
            elif moved <= _XTOL * (_norm(p / step_scale) + _XTOL):
                termination = "xtol"
        elif cost_trial - cost <= _FTOL * cost and predicted_drop() <= _FTOL * cost:
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
        try:  # a singular matrix keeps every error NaN
            scale = column_scale(normal)
            inverse = np.linalg.inv(normal * scale[:, None] * scale[None, :])
            errors = np.sqrt(np.maximum(sigma2 * (inverse.diagonal() * scale * scale), 0.0))
        except (ConditioningError, np.linalg.LinAlgError):
            pass
    return FitResult(
        parameters=dict(zip(names, (float(v) for v in p))),
        standard_errors=dict(zip(names, (float(e) for e in errors))),
        residual_norm=math.sqrt(cost),
        iterations=iterations,
        termination=termination,
        residual_history=tuple(history),
    )


def _phasor(phase: np.ndarray) -> np.ndarray:
    """exp(i phase) of a real phase array, with the bits of ``np.exp(1j*phase)``.

    The complex exponential of 0 + iy is (cos y, sin y), and the imaginary
    part of the product 1j*phase is 0.0 + phase, which turns -0.0 into 0.0.
    Writing cos and sin into one complex array gives those bits in about a
    quarter less time than the complex ``np.exp``: 62 against 86 us on 6001
    points (numpy 2.4, x86-64 with AVX-512).  The 0.0 is added to ``phase``
    in place, so the caller passes a phase array it owns and reads it no more.
    """
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    phase += 0.0
    np.sin(phase, out=out.imag)
    return out


def reflection_s11(
    frequency,
    f0: float,
    q_in: float,
    q_ex: float,
    amplitude: float,
    phase_offset: float,
    delay: float,
    reference_frequency: float,
):
    """One-port reflection with background amplitude, phase and cable delay.

    S11(f) = A exp(i(theta + 2 pi (f - f_ref) tau))
             * ((1/Q_ex - 1/Q_in) - 2 i x) / ((1/Q_ex + 1/Q_in) + 2 i x),

    x = (f - f0)/f0.  The delay phase is referenced to ``reference_frequency``
    (the fit's is mid-trace) so delay and phase offset stay numerically
    independent on a narrow span.
    """
    freq = np.asarray(frequency, dtype=float)
    # the operations, operands and order of
    # A * phasor(theta + 2 pi (f - f_ref) tau) * ((a - 2ix) / (b + 2ix)),
    # each written into a buffer it owns
    x = freq - f0
    x /= f0
    a = 1.0 / q_ex - 1.0 / q_in
    b = 1.0 / q_ex + 1.0 / q_in
    phase = freq - reference_frequency
    np.multiply(2.0 * math.pi, phase, out=phase)
    phase *= delay
    np.add(phase_offset, phase, out=phase)
    background = _phasor(phase)
    np.multiply(amplitude, background, out=background)
    ix2 = np.multiply(2j, x)  # 2ix, shared by the numerator and the denominator
    ratio = np.subtract(a, ix2)
    np.divide(ratio, np.add(b, ix2, out=ix2), out=ratio)
    return np.multiply(background, ratio, out=ratio)


def reflection_jacobian(frequency, params, reference_frequency: float,
                        s11: np.ndarray) -> np.ndarray:
    """Closed-form derivative of :func:`reflection_s11` for the engine.

    ``params`` is (f0, Q_in, Q_ex, amplitude, phase_offset, delay) with the
    delay phase referenced to the fixed ``reference_frequency``, and ``s11``
    is :func:`reflection_s11` at these parameters.  The background is
    ``s11`` over S11's numerator (1/Q_ex - 1/Q_in) - 2ix, or a complex
    exponential where 1/Q_ex = 1/Q_in exactly.  Returns the complex (n, 6)
    array dS11/dparams, the transpose of one C-contiguous (6, n) array,
    which the engine splits without a copy.
    """
    freq = np.asarray(frequency, dtype=float)
    f0, q_in, q_ex, amplitude, phase_offset, delay = params
    a = 1.0 / q_ex - 1.0 / q_in
    b = 1.0 / q_ex + 1.0 / q_in
    offset = freq - reference_frequency
    out = np.empty((6, freq.size), dtype=complex)
    # S11 = A e (a - 2ix)/d with d = b + 2ix and e the unit background; rows
    # 0, 1 and 2 hold d, h = e/d and a - 2ix until their own columns replace them
    d = out[0]
    d.real = b
    x2 = d.imag
    np.subtract(freq, f0, out=x2)
    x2 *= 2.0 / f0
    numerator = np.conjugate(d, out=out[2])  # S11's own numerator a - 2ix
    numerator.real = a
    unit = out[3]  # dS11/dA = S11/A
    if a != 0.0:
        np.multiply(s11, 1.0 / amplitude, out=unit)
        h = np.divide(unit, numerator, out=out[1])
    else:
        phase = offset * (2.0 * math.pi * delay)
        phase += phase_offset
        e = _phasor(phase)
        h = np.divide(e, d, out=out[1])
        np.multiply(h, numerator, out=unit)
    v = np.divide(h, d, out=d)  # e / d^2
    np.multiply(unit, 1j * amplitude, out=out[4])
    offset *= 2.0 * math.pi
    np.multiply(out[4], offset, out=out[5])
    # dS11/dQ_ex = -A e (b - a + 4ix)/(d^2 Q_ex^2) = A e ((a + b) - 2d)/(d^2 Q_ex^2),
    # summed as (-2A/Q_ex^2) h + ((a + b) A/Q_ex^2) v: -y + x has the bits of x - y
    np.multiply(h, -2.0 * amplitude / (q_ex * q_ex), out=out[2])
    out[2] += np.multiply(v, (a + b) * amplitude / (q_ex * q_ex), out=out[1])
    np.multiply(v, (a + b) * amplitude / (q_in * q_in), out=out[1])
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
    mean = complex(z.sum() / len(z))
    w = z - mean
    u, v = w.real, w.imag
    s = u * u
    s += v * v
    s2 = float(s.sum() / len(s))
    # the points, scaled by 2**-e near the RMS radius, which is exact: the
    # moments' products, up to fifth powers, stay in the float range
    e = math.frexp(s2)[1] // 2
    np.ldexp(u, -e, out=u)
    np.ldexp(v, -e, out=v)
    np.ldexp(s, -2 * e, out=s)
    suu, svv, suv = float(np.dot(u, u)), float(np.dot(v, v)), float(np.dot(u, v))
    sus, svs = float(np.dot(u, s)), float(np.dot(v, s))
    det = suu * svv - suv * suv
    if not det > 0.0:
        raise NoResonanceError("trace points are collinear: no resonance circle")
    cu = 0.5 * (svv * sus - suv * svs) / det
    cv = 0.5 * (suu * svs - suv * sus) / det
    radius = math.sqrt(cu * cu + cv * cv + math.ldexp(s2, -2 * e))
    return mean + complex(math.ldexp(cu, e), math.ldexp(cv, e)), math.ldexp(radius, e)


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
    s = center - z
    s *= center.conjugate() / (abs(center) * radius)
    p2 = 1.0 + s.real
    p2 *= p2
    y = np.multiply(s.imag, s.imag)  # scratch until it is set to -2 imag(s)
    p2 += y  # |1 + s|^2
    np.multiply(-2.0, s.imag, out=y)
    span = float(offset[-1] - offset[0])

    def line(weight: np.ndarray) -> Tuple[float, float]:
        wp = weight * p2
        m0, m1 = float(wp.sum()), float(np.dot(wp, offset))
        m2 = float(np.dot(wp * offset, offset))
        wy = weight * y
        r0, r1 = float(wy.sum()), float(np.dot(wy, offset))
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
    n_edge = z_edge.shape[1]
    w = z_edge * (z_edge.sum(axis=1, keepdims=True) / n_edge).conjugate()
    phase = np.arctan2(w.imag, w.real)
    f_edge = f_edge - f_edge.sum(axis=1, keepdims=True) / n_edge
    return float((phase * f_edge).sum() / (f_edge * f_edge).sum()) / (2.0 * math.pi)


def _middle_frequency(freq: np.ndarray) -> float:
    """The median of a strictly increasing grid, with the bits of ``np.median``.

    Read from the middle, because ``np.median`` imports ``numpy.ma`` on its
    first call, which costs a fresh process more than a whole fit.
    """
    half = len(freq) // 2
    if len(freq) % 2:
        return float(freq[half])
    return float((freq[half - 1] + freq[half]) / 2.0)


def _unwind(z: np.ndarray, delay: float, offset: np.ndarray) -> np.ndarray:
    """z exp(-2 pi i delay offset), written into the phasor's own array."""
    unwound = _phasor((-2.0 * math.pi * delay) * offset)
    return np.multiply(z, unwound, out=unwound)


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
    edges = np.array([np.arange(n_edge), np.arange(len(freq) - n_edge, len(freq))])
    f_edge = offset[edges]
    delay = _edge_delay(z[edges], f_edge)
    center, radius, f0_offset, slope = _circle_phase_fit(_unwind(z, delay, offset), offset)
    eta = radius / (abs(center) + radius)
    resonator = 2.0 * eta / (1.0 + 1j * slope * (f_edge - f0_offset)) - 1.0
    delay = _edge_delay(z[edges] * resonator.conjugate(), f_edge)
    center, radius, f0_offset, slope = _circle_phase_fit(_unwind(z, delay, offset), offset)

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
    if not np.isfinite(guess).all():
        raise NoResonanceError("no finite resonance parameters fit the trace")
    return guess, f_ref


def fit_reflection_resonance(trace: Trace) -> FitResult:
    """Fit (f0, Q_in, Q_ex, amplitude, phase_offset, delay) to a complex trace.

    The automatic start is closed form: an algebraic circle fit (Chernov &
    Lesort 2005) gives the background and the coupling fraction from the
    circle's radius and its off-resonant point, a weighted linear fit of
    tan(psi/2) = -2 Q_tot (f - f0)/f0 around the circle (Probst et al.
    2015) gives f0 and Q_tot, and the edge phase slope less the resonator's
    own phase tail gives the cable delay.  Raises :class:`NoResonanceError`
    when the trace holds no resonance circle.  The background scale is a
    nuisance parameter, so the extracted f0/Q_in/Q_ex are invariant under
    multiplying the trace by any non-zero complex constant while the fit's
    products stay in the float range: the shipped 801-point trace fits
    within 1e-12 of its own fit from about 1e-148 to 1e146 times its own
    scale.
    """
    if not np.iscomplexobj(trace.response):
        raise ValueError("reflection fitting needs a complex trace")
    freq = trace.frequency
    guess, f_ref = _reflection_guess(trace)

    def model(params, f):
        return reflection_s11(f, *params, f_ref)

    def jac(params, f, s11):
        return reflection_jacobian(f, params, f_ref, s11)

    span = float(freq[-1] - freq[0])
    scales = np.array([span, guess[1], guess[2], guess[3], 1.0, 1.0 / span])
    lower = [freq[0], 1.0, 1.0, 1e-12 * guess[3], -math.tau, -1.0]
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


def fit_linear_modes(
    mode_numbers: Sequence[int],
    frequencies: Sequence[float],
) -> FitResult:
    """Ordinary least squares of f_m = fsr*m + offset, in closed form on
    centred m; sigma^2 = RSS/(n - 2) gives the standard errors (NaN for two
    points).  The result has 0 iterations and termination ``exact``."""
    m = np.asarray(mode_numbers, dtype=float)
    y = np.asarray(frequencies, dtype=float)
    if len(m) < 2 or len(m) != len(y):
        raise ValueError("need at least 2 matched (m, frequency) points")
    if not (np.isfinite(m).all() and np.isfinite(y).all()):
        raise ValueError("mode numbers and frequencies must be finite")
    if len(np.unique(m)) < 2:
        raise ValueError("need at least 2 distinct mode numbers")
    n, m_mean, y_mean = len(m), m.mean(), y.mean()
    dm = m - m_mean
    sxx = _sum_squares(dm)
    fsr = float((dm * (y - y_mean)).sum() / sxx)
    offset = float(y_mean - fsr * m_mean)
    rss = _sum_squares(y - (fsr * m + offset))
    sigma2 = rss / (n - 2) if n > 2 else math.nan
    errors = (math.sqrt(sigma2 / sxx), math.sqrt(sigma2 * (1.0 / n + m_mean * m_mean / sxx)))
    return FitResult(parameters={"fsr": fsr, "offset": offset},
                     standard_errors=dict(zip(("fsr", "offset"), errors)),
                     residual_norm=math.sqrt(rss), iterations=0, termination="exact")
