"""Input-output model of the two-mode parametric converter.

A pump at the signal/idler difference frequency couples the two modes with
cooperativity C, the pump power normalized to the highest-efficiency power
(``p0_norm``).  On-chip conversion follows the beam-splitter law

    |t|^2 = eta_s eta_i 4C/(1+C)^2,      |r|^2 = 1 - |t|^2,

with eta the external fraction of each mode's linewidth.  Linewidths
(``kappa_s``, ``kappa_i``) and all other rates are ordinary frequencies in
Hz; angular rates are formed internally where absolute photon fluxes enter
(Kerr steady state).  The Kerr cubic is solved for w = n_lin/n, the linear
response over the photon number, so a weak or zero Kerr rate is a root
near w = 1 and needs no form of its own.
"""

import math
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .core import _evaluate, checked

PLANCK_H = 6.62607015e-34  # J/Hz

ArrayLike = Union[float, np.ndarray]


def watts_from_dbm(dbm: float) -> float:
    if not dbm <= 3082.5:  # 10^(dbm/10) leaves the float range at about 3082.55
        raise ValueError("dbm must be at most 3082.5")
    return 1e-3 * 10.0 ** (dbm / 10.0)


def dbm_from_watts(watts: float) -> float:
    if not watts > 0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(watts / 1e-3)


@checked
class ConverterParams(NamedTuple):
    """Mode-pair rates of the converter.

    ``kappa_s``/``kappa_i`` are total linewidths [Hz]; ``eta_s``/``eta_i``
    external fractions; ``p0_norm`` the pump power normalized to the
    highest-efficiency power, which is the cooperativity C.  A record whose
    conversion law or spectrum at zero detuning leaves the float range is
    refused, so every function of it gives numbers.
    """

    kappa_s: float
    kappa_i: float
    eta_s: float
    eta_i: float
    p0_norm: float

    def _check(self) -> None:
        if not (self.kappa_s > 0 and self.kappa_i > 0):
            raise ValueError("linewidths must be positive")
        for name, eta in (("eta_s", self.eta_s), ("eta_i", self.eta_i)):
            if not (0.0 <= eta <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {eta!r}")
        if not self.p0_norm >= 0:
            raise ValueError("p0_norm must be non-negative")
        if self.p0_norm == math.inf:  # the spectrum would be NaN
            raise ValueError("p0_norm must be finite")
        if _evaluate(scattering, self.p0_norm, self.eta_s, self.eta_i) is None:
            raise ValueError(_law_bound("p0_norm", self.p0_norm))  # as the pairs table does
        if _evaluate(conversion_spectrum, 0.0, self) is None:
            raise ValueError("linewidths and cooperativity must keep the conversion spectrum "
                             "finite at zero detuning, where its denominator is "
                             "(kappa_s kappa_i (1 + C)/4)^2")


def _law_bound(field: str, c: float) -> str:
    return (f"{field}: must keep (1 + C)^2 of the conversion law 4C/(1 + C)^2 finite, "
            f"got C = {c!r}")


class ScatteringResult(NamedTuple):
    """On-chip conversion |t|^2 and reflection |r|^2 = 1 - |t|^2.

    ``t2`` and ``r2`` are floats, or arrays for an array of cooperativities.
    """

    t2: ArrayLike
    r2: ArrayLike


def scattering(c: ArrayLike, eta_s: ArrayLike, eta_i: ArrayLike) -> ScatteringResult:
    """Beam-splitter conversion at zero detuning.

    t2 peaks at C = 1 where it equals eta_s*eta_i; C = 0 is a perfect
    mirror.  The law is self-dual: t2(C) = t2(1/C).  Scalar arguments give
    float fields, an array among them array fields.  A negative, NaN or
    infinite ``c``, or an ``eta_s`` or ``eta_i`` outside [0, 1] or NaN, in
    any entry, raises ``ValueError``.
    """
    coop = np.asarray(c, dtype=float)
    if np.any(coop < 0):
        raise ValueError("cooperativity must be non-negative")
    if not np.all(np.isfinite(coop)):
        raise ValueError("cooperativity must be finite")
    for name, eta in (("eta_s", eta_s), ("eta_i", eta_i)):
        if not np.all((0.0 <= eta) & (eta <= 1.0)):
            raise ValueError(f"{name} must lie in [0, 1]")
    # (1+C)^2 as a product, so one C gets the same bits alone or in an array
    # (a float's ** 2 calls libm's pow).  4C/(1+C)^2 <= 1 identically;
    # minimum() guards the one-ulp rounding excess
    t2 = np.minimum(eta_s * eta_i * 4.0 * coop / ((1.0 + coop) * (1.0 + coop)), 1.0)
    if np.ndim(t2) == 0:
        t2 = float(t2)
    return ScatteringResult(t2=t2, r2=1.0 - t2)


def conversion_spectrum(
    detuning: ArrayLike,
    params: ConverterParams,
) -> Tuple[ArrayLike, ArrayLike]:
    """(t2, r2) versus probe detuning [Hz] for matched-detuning drive.

    Standard two-mode response with parametric coupling g^2 = C k_s k_i/4:

        t2(d) = eta_s eta_i k_s k_i g^2 / |(k_s/2 - i d)(k_i/2 - i d) + g^2|^2

    which reduces to ``scattering`` at d = 0; r2 = 1 - t2 as at line center.
    """
    c = params.p0_norm
    delta = np.asarray(detuning, dtype=float)
    ks, ki = params.kappa_s, params.kappa_i
    g2 = c * ks * ki / 4.0
    denom = np.abs((ks / 2.0 - 1j * delta) * (ki / 2.0 - 1j * delta) + g2) ** 2
    t2 = params.eta_s * params.eta_i * ks * ki * g2 / denom
    r2 = 1.0 - t2
    if np.ndim(detuning) == 0:
        return float(t2), float(r2)
    return t2, r2


def matched_bandwidth(kappa: float, c: float) -> float:
    """Closed-form FWHM of t2 for kappa_s = kappa_i = kappa [Hz].

    With x = d^2, A = k^2 (1+C)/4 and B = k^2 the inverse response is
    (A - x)^2 + B x.  Below C = 1 the peak sits at d = 0 and the half-maximum
    crossing is x = (2A - B + sqrt((2A-B)^2 + 4A^2))/2; above C = 1 the
    response splits (minimum of the quartic at x = A - B/2 > 0) and the outer
    half-peak crossing becomes x = (2A - B + sqrt(B(4A - B)))/2.  Both
    branches meet at C = 1 where the width is sqrt(2)*kappa.  They are
    evaluated in units of B, so kappa is never squared and the width
    2 kappa sqrt(x/B) scales with kappa exactly.
    """
    if not (0.0 < kappa < math.inf and 0.0 <= c < math.inf):
        raise ValueError("kappa must be positive and c non-negative, both finite")
    a = (1.0 + c) / 4.0  # A/B
    if 2.0 * a > 1.0:  # split peaks
        x = (2.0 * a - 1.0 + math.sqrt(4.0 * a - 1.0)) / 2.0
    else:
        x = (2.0 * a - 1.0 + math.hypot(2.0 * a - 1.0, 2.0 * a)) / 2.0
    return 2.0 * kappa * math.sqrt(x)


def conversion_bandwidth(params: ConverterParams) -> Optional[float]:
    """FWHM of the conversion spectrum [Hz], in closed form for any linewidths.

    With x = d^2, A = k_s k_i (1+C)/4 and B = (k_s + k_i)^2/4 the inverse
    response is (A - x)^2 + B x.  While 2A <= B the peak sits at d = 0 and
    the half maximum at x = 2A^2/(hypot(2A - B, 2A) - (2A - B)), the positive
    root of x^2 - (2A - B) x - A^2 without the cancellation of the textbook
    form (which costs six digits at a linewidth ratio of 1e4).  Past 2A = B
    the response splits and the outer half-peak crossing is
    x = (2A - B + sqrt(B(4A - B)))/2.  Both are evaluated in units of B, and
    the width 2 sqrt(x) is formed without squaring A, so no term leaves the
    float range before the width does.  None when nothing converts (C, eta_s
    or eta_i is 0): a spectrum that is zero everywhere has no width.
    """
    c = params.p0_norm
    if c == 0.0 or params.eta_s == 0.0 or params.eta_i == 0.0:
        return None
    total = params.kappa_s + params.kappa_i  # 2 sqrt(B)
    a = params.kappa_s / total * (params.kappa_i / total) * (1.0 + c)  # A/B
    if 2.0 * a > 1.0:  # split peaks
        root = math.sqrt((2.0 * a - 1.0 + math.sqrt(4.0 * a - 1.0)) / 2.0)
    else:
        root = a * math.sqrt(2.0 / (math.hypot(2.0 * a - 1.0, 2.0 * a) - (2.0 * a - 1.0)))
    return total * root  # 2 sqrt(x B)


def calibrated_efficiency(
    s_is_peak: float,
    s_si_peak: float,
    s_ss_background: float,
    s_ii_background: float,
) -> float:
    """On-chip |t|^2 from bidirectional peak/background magnitudes.

    Inputs are linear spectrum magnitudes (not dB, not power).  Off-chip
    gain and loss cancel: rescaling any single path multiplies one peak and
    one background identically.
    """
    if not (s_is_peak >= 0 and s_si_peak >= 0):
        raise ValueError("peak magnitudes must be non-negative")
    if not (s_ss_background > 0 and s_ii_background > 0):
        raise ValueError("background magnitudes must be positive")
    return (s_is_peak * s_si_peak) / (s_ss_background * s_ii_background)


def _check_amplitudes(r_mag: float, t_mag: float) -> None:
    if not (r_mag >= 0 and t_mag >= 0 and r_mag * r_mag + t_mag * t_mag <= 1.0 + 1e-12):
        raise ValueError("require r, t >= 0 with r^2 + t^2 <= 1")


def interference_fringe(pump_phase: ArrayLike, r_mag: float, t_mag: float) -> ArrayLike:
    """Reflected idler power |r + t e^{i phi}|^2, unit input.

    Maximum (r+t)^2 at phi = 0, minimum (r-t)^2 half a period later;
    visibility 2 r t/(r^2 + t^2); period exactly 2*pi.  A global phase
    offset is a shift of ``pump_phase``; a NaN or infinite phase is refused.
    """
    _check_amplitudes(r_mag, t_mag)
    phi = np.asarray(pump_phase, dtype=float)
    if not np.all(np.isfinite(phi)):
        raise ValueError("pump_phase must be finite")
    power = r_mag**2 + t_mag**2 + 2.0 * r_mag * t_mag * np.cos(phi)
    if np.ndim(pump_phase) == 0:
        return float(power)
    return power


def fringe_visibility(r_mag: float, t_mag: float) -> float:
    """2 r t/(r^2 + t^2); zero when either amplitude vanishes."""
    _check_amplitudes(r_mag, t_mag)
    denom = r_mag**2 + t_mag**2
    if denom == 0:
        return 0.0
    return 2.0 * r_mag * t_mag / denom


class KerrSteadyState(NamedTuple):
    """Real positive intracavity photon-number branches, sorted ascending.

    For n drives (n = 1 for one scalar drive) ``photon_numbers`` is an
    (n, 3) array padded with NaN and ``bifurcated`` a bool array of length n.
    """

    photon_numbers: np.ndarray
    bifurcated: np.ndarray


def _newton_polish(w: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """One Newton step on w^3 - w^2 + b w + c, kept only where it lowers |residual|."""
    value = ((w - 1.0) * w + b) * w + c
    with np.errstate(divide="ignore", invalid="ignore"):
        # at a double root the derivative vanishes; such a step is never kept
        step = w - value / ((3.0 * w - 2.0) * w + b)
        better = np.abs(((step - 1.0) * step + b) * step + c) < np.abs(value)
    return np.where(better, step, w)


def _cubic_real_roots(beta: float, gamma: float, s: np.ndarray) -> np.ndarray:
    """Real roots of w^3 - w^2 + 2 beta s w - s^2 for each s >= 0, where
    beta^2 + gamma^2 = 1 and gamma > 0, as (3, n) columns; the two slots of
    a complex pair hold NaN.
    """
    b = 2.0 * beta * s
    c = -(s * s)
    q = 1.0 / 9.0 - b / 3.0
    r = b / 6.0 + c / 2.0 - 1.0 / 27.0
    # (r^2 - q^3)/s^2, which neither cancels at small s nor overflows at large
    # s; where it is negative q > 0, but for rounding at the triple root
    h = (s / 4.0 - beta * (1.0 + 8.0 * gamma * gamma) / 27.0) * s + gamma * gamma / 27.0
    three = (h < 0.0) & (q > 0.0)
    roots = np.full((3, s.size), np.nan)
    # Cardano: -sign(r) (|r| + sqrt(r^2 - q^3))^(1/3), summed without cancellation
    big = np.cbrt(-(r + np.copysign(s * np.sqrt(np.maximum(h, 0.0)), r)))
    roots[0] = big + np.divide(q, big, out=np.zeros_like(big), where=big != 0.0) + 1.0 / 3.0
    root_q = np.sqrt(q[three])
    theta = np.arccos(np.clip(r[three] / (q[three] * root_q), -1.0, 1.0))
    turns = np.array([[0.0], [2.0 * math.pi], [-2.0 * math.pi]])
    roots[:, three] = -2.0 * root_q * np.cos((theta + turns) / 3.0) + 1.0 / 3.0
    roots = _newton_polish(roots, b, c)
    # where q and r vanish to within their own rounding the root is triple,
    # 1/3, which both forms above reach only to about cbrt(machine epsilon)
    tiny = 4.0 * np.finfo(float).eps
    snap = ((np.abs(q) <= tiny * (1.0 / 9.0 + np.abs(b) / 3.0))
            & (np.abs(r) <= tiny * (1.0 / 27.0 + np.abs(b) / 6.0 - c / 2.0)))
    roots[:, snap] = [[1.0 / 3.0], [np.nan], [np.nan]]
    return roots


def kerr_steady_state(
    detuning: float,
    drive_photon_flux: ArrayLike,
    kerr_rate: float,
    kappa: float,
    kappa_ex: float,
) -> KerrSteadyState:
    """Steady states of a driven Kerr mode.

    Solves n*[(k/2)^2 + (d - K n)^2] = k_ex*flux in angular units, with the
    soft-spring convention: the resonance pulls down under load, so positive
    ``detuning`` means driving below the unloaded resonance and is where the
    response becomes multivalued.  All rates are finite, in Hz; the flux is
    a finite absolute rate in photons/s, one value or a 1-D array of n, and
    the branches come back as (n, 3) rows (n = 1 for one value; see
    ``KerrSteadyState``).  ``bifurcated`` flags three distinct positive
    branches.

    The cubic is solved for w = n_lin/n, the linear response n_lin =
    k_ex*flux/B over the photon number, with B = (k/2)^2 + d^2:
    w^3 - w^2 + 2 (d/sqrt(B)) s w - s^2 = 0 with s = K n_lin/sqrt(B).  No
    coefficient divides by K: K = 0 is s = 0, whose one real root is w = 1.
    All cubics are solved at once in closed form (Numerical Recipes, 3rd
    ed., section 5.6): the trigonometric form where the discriminant gives
    three real roots, Cardano's formula with ``np.cbrt`` where it gives one,
    then one Newton step, kept only where it lowers the residual.  The tests
    hold the companion-matrix eigenvalues (the matrix ``np.roots`` builds)
    as the oracle for the branch count and the residual.
    """
    if not (0 < kappa < math.inf and 0 <= kappa_ex < math.inf and 0 <= kerr_rate < math.inf):
        raise ValueError("rates must be finite, kappa positive, kappa_ex and kerr_rate >= 0")
    if not math.isfinite(detuning):
        raise ValueError("detuning must be finite")
    flux = np.atleast_1d(np.asarray(drive_photon_flux, dtype=float))
    if not np.all((flux >= 0) & (flux < math.inf)):
        raise ValueError("drive flux must be non-negative and finite")
    two_pi = 2.0 * math.pi
    delta, half_kap = two_pi * detuning, math.pi * kappa
    root_b = math.hypot(half_kap, delta)
    n_lin = two_pi * kappa_ex * flux / root_b / root_b
    s = two_pi * kerr_rate * n_lin / root_b
    if not np.all(np.isfinite(s * s)):
        raise ValueError("kerr_rate times the drive flux must keep the Kerr cubic's "
                         "coefficients finite")
    w = _cubic_real_roots(delta / root_b, half_kap / root_b, s)
    # ascending photon numbers, the padding (inf until sorted) last
    n = np.divide(n_lin, w, out=np.full_like(w, math.inf), where=(w > 0.0) & (n_lin > 0.0))
    for i, j in ((0, 1), (1, 2), (0, 1)):
        n[i], n[j] = np.minimum(n[i], n[j]), np.maximum(n[i], n[j])
    branches = np.where(n < math.inf, n, np.nan).T
    bifurcated = (branches[:, 0] < branches[:, 1]) & (branches[:, 1] < branches[:, 2])
    return KerrSteadyState(photon_numbers=branches, bifurcated=bifurcated)


class BifurcationPoint(NamedTuple):
    """Critical point where the Kerr response first becomes multivalued."""

    detuning: float      # Hz
    photon_number: float
    drive_flux: float    # photons/s


def bifurcation_point(
    kerr_rate: float,
    kappa: float,
    kappa_ex: float,
) -> BifurcationPoint:
    """Critical detuning, photon number and drive flux.

    From the degenerate-root condition of the steady-state cubic:
    d_c = sqrt(3) k/2, n_c = k/(sqrt(3) K),
    flux_c = (2 pi) k^3/(3 sqrt(3) K k_ex)  with k, K, k_ex in Hz.
    """
    if not all(0 < rate < math.inf for rate in (kerr_rate, kappa, kappa_ex)):
        raise ValueError("rates must be positive and finite")
    return BifurcationPoint(
        detuning=math.sqrt(3.0) * kappa / 2.0,
        photon_number=kappa / (math.sqrt(3.0) * kerr_rate),
        drive_flux=2.0 * math.pi * kappa**3 / (3.0 * math.sqrt(3.0) * kerr_rate * kappa_ex),
    )


def bifurcation_drive_power(
    frequency_hz: float,
    kerr_rate: float,
    kappa: float,
    kappa_ex: float,
) -> float:
    """Input power at the bifurcation threshold [W]."""
    if not frequency_hz > 0:
        raise ValueError("frequency_hz must be positive")
    point = bifurcation_point(kerr_rate, kappa, kappa_ex)
    return point.drive_flux * PLANCK_H * frequency_hz


@checked
class TlsModel(NamedTuple):
    """Power-dependent internal quality factor from saturable defect loss.

    1/Q_in(n) = 1/q_other + (1/q_tls0)/sqrt(1 + (n/n_c)^alpha)

    Q_in rises monotonically from (1/q_other + 1/q_tls0)^-1 at low photon
    number toward q_other once the defects saturate.
    """

    q_tls0: float
    n_c: float
    alpha: float
    q_other: float

    def _check(self) -> None:
        if not all(v > 0 for v in (self.q_tls0, self.n_c, self.alpha, self.q_other)):
            raise ValueError("all TLS model parameters must be positive")


def tls_quality_factor(n_photon: ArrayLike, model: TlsModel) -> ArrayLike:
    """Internal quality factor at probe photon number ``n_photon``."""
    n = np.asarray(n_photon, dtype=float)
    if not np.all(n >= 0):
        raise ValueError("photon number must be non-negative")
    loss = 1.0 / model.q_other + (1.0 / model.q_tls0) / np.sqrt(
        1.0 + (n / model.n_c) ** model.alpha
    )
    q = 1.0 / loss
    if np.ndim(n_photon) == 0:
        return float(q)
    return q


def single_photon_efficiency(tls: TlsModel, q_ex: float, n_sat: float) -> float:
    """Peak conversion efficiency with both modes TLS-limited.

    A detuned saturation tone holding ``n_sat`` photons in each mode sets
    Q_in(n_sat); the per-mode coupling eta = Q_in/(Q_in + Q_ex) bounds the
    C = 1 efficiency at eta_s*eta_i (identical modes assumed).
    """
    if not q_ex > 0:
        raise ValueError("q_ex must be positive")
    q_in = tls_quality_factor(n_sat, tls)
    eta = q_in / (q_in + q_ex)
    return eta * eta


class PairEfficiency(NamedTuple):
    """Conversion efficiency and coupling bound of signal/idler pairs, one column each."""

    index: np.ndarray
    efficiency: np.ndarray
    bound: np.ndarray


def pair_sweep(mode_pairs: Sequence[Tuple[float, float]], c: float) -> PairEfficiency:
    """Efficiency per (eta_s, eta_i) pair at cooperativity ``c``, with each
    pair's position in ``mode_pairs`` and its bound eta_s*eta_i, which the
    efficiency reaches exactly at c = 1.
    """
    eta_s, eta_i = np.array(mode_pairs, dtype=float).reshape(-1, 2).T
    return PairEfficiency(index=np.arange(len(eta_s)), efficiency=scattering(c, eta_s, eta_i).t2,
                          bound=eta_s * eta_i)
