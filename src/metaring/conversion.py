"""Input-output model of the two-mode parametric converter.

A pump at the signal/idler difference frequency couples the two modes with
cooperativity C = 4 g0^2 n_eff/(kappa_s kappa_i), equal to the pump power
normalized to the highest-efficiency power.  On-chip conversion follows the
beam-splitter law

    |t|^2 = eta_s eta_i 4C/(1+C)^2,      |r|^2 = 1 - |t|^2,

with eta the external fraction of each mode's linewidth.  Linewidths
(``kappa_s``, ``kappa_i``) and all other rates are ordinary frequencies in
Hz; angular rates are formed internally where absolute photon fluxes enter
(Kerr steady state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

PLANCK_H = 6.62607015e-34  # J/Hz

ArrayLike = Union[float, np.ndarray]


def watts_from_dbm(dbm: float) -> float:
    return 1e-3 * 10.0 ** (dbm / 10.0)


def dbm_from_watts(watts: float) -> float:
    if watts <= 0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(watts / 1e-3)


@dataclass(frozen=True)
class ConverterParams:
    """Mode-pair rates of the converter.

    ``kappa_s``/``kappa_i`` are total linewidths [Hz]; ``eta_s``/``eta_i``
    external fractions; ``g0`` the single-photon coupling [Hz] (configured,
    never derived here); ``n_eff`` the effective pump photon number;
    ``p0_norm`` the pump power normalized to the highest-efficiency power.
    When ``p0_norm`` is given it *is* the cooperativity.
    """

    kappa_s: float
    kappa_i: float
    eta_s: float
    eta_i: float
    g0: float = 0.0
    n_eff: Optional[float] = None
    p0_norm: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kappa_s <= 0 or self.kappa_i <= 0:
            raise ValueError("linewidths must be positive")
        for name, eta in (("eta_s", self.eta_s), ("eta_i", self.eta_i)):
            if not (0.0 <= eta <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {eta!r}")
        if self.g0 < 0:
            raise ValueError("g0 must be non-negative")
        if self.n_eff is not None and self.n_eff < 0:
            raise ValueError("n_eff must be non-negative")
        if self.p0_norm is not None and self.p0_norm < 0:
            raise ValueError("p0_norm must be non-negative")


def cooperativity(params: ConverterParams) -> float:
    """C = 4 g0^2 n_eff/(kappa_s kappa_i), or p0_norm when driven that way."""
    if params.p0_norm is not None:
        return params.p0_norm
    if params.n_eff is None:
        raise ValueError("either p0_norm or n_eff must be set")
    return 4.0 * params.g0**2 * params.n_eff / (params.kappa_s * params.kappa_i)


@dataclass(frozen=True)
class ScatteringResult:
    """On-chip conversion |t|^2 and reflection |r|^2 = 1 - |t|^2.

    ``t2`` and ``r2`` are floats, or arrays for an array of cooperativities.
    """

    t2: ArrayLike
    r2: ArrayLike

    def __post_init__(self) -> None:
        if not np.all((self.t2 >= 0.0) & (self.t2 <= 1.0)):
            raise ValueError(f"t2 must lie in [0, 1], got {self.t2!r}")


def scattering(c: ArrayLike, eta_s: float, eta_i: float) -> ScatteringResult:
    """Beam-splitter conversion at zero detuning.

    t2 peaks at C = 1 where it equals eta_s*eta_i; C = 0 is a perfect
    mirror.  The law is self-dual: t2(C) = t2(1/C).  A scalar ``c`` gives
    float fields, an array ``c`` array fields.
    """
    coop = np.asarray(c, dtype=float)
    if np.any(coop < 0):
        raise ValueError("cooperativity must be non-negative")
    # 4C/(1+C)^2 <= 1 identically; minimum() guards the one-ulp rounding excess
    t2 = np.minimum(eta_s * eta_i * 4.0 * coop / (1.0 + coop) ** 2, 1.0)
    if np.ndim(c) == 0:
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
    c = cooperativity(params)
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
    branches meet at C = 1 where the width is sqrt(2)*kappa.
    """
    if kappa <= 0 or c < 0:
        raise ValueError("kappa must be positive and c non-negative")
    a = kappa**2 * (1.0 + c) / 4.0
    b = kappa**2
    if a > b / 2.0:  # split peaks
        x = (2.0 * a - b + math.sqrt(b * (4.0 * a - b))) / 2.0
    else:
        x = (2.0 * a - b + math.hypot(2.0 * a - b, 2.0 * a)) / 2.0
    return 2.0 * math.sqrt(x)


def conversion_bandwidth(params: ConverterParams) -> float:
    """Numeric FWHM of the conversion spectrum [Hz].

    Grid-locates the peak (which sits off zero past the splitting threshold)
    and bisects the outermost half-maximum crossing.
    """
    c = cooperativity(params)
    scale = (params.kappa_s + params.kappa_i) * (1.0 + math.sqrt(max(c, 1.0)))
    grid = np.linspace(0.0, 10.0 * scale, 4001)
    t2, _ = conversion_spectrum(grid, params)
    peak = float(np.max(t2))
    half = peak / 2.0
    lo = float(grid[int(np.argmax(t2))])
    hi = 10.0 * scale
    if conversion_spectrum(hi, params)[0] >= half:
        raise ValueError("half-maximum crossing not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if conversion_spectrum(mid, params)[0] >= half:
            lo = mid
        else:
            hi = mid
    return lo + hi  # 2 * crossing


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
    if s_ss_background <= 0 or s_ii_background <= 0:
        raise ValueError("background magnitudes must be positive")
    return (s_is_peak * s_si_peak) / (s_ss_background * s_ii_background)


def interference_fringe(
    pump_phase: ArrayLike,
    r_mag: float,
    t_mag: float,
    phase_offset: float = 0.0,
) -> ArrayLike:
    """Reflected idler power |r + t e^{i(phi + offset)}|^2, unit input.

    Maximum (r+t)^2 at phi = -offset, minimum (r-t)^2 half a period later;
    visibility 2 r t/(r^2 + t^2); period exactly 2*pi.
    """
    if r_mag < 0 or t_mag < 0 or r_mag**2 + t_mag**2 > 1.0 + 1e-12:
        raise ValueError("require r, t >= 0 with r^2 + t^2 <= 1")
    phi = np.asarray(pump_phase, dtype=float)
    power = r_mag**2 + t_mag**2 + 2.0 * r_mag * t_mag * np.cos(phi + phase_offset)
    if np.ndim(pump_phase) == 0:
        return float(power)
    return power


def fringe_visibility(r_mag: float, t_mag: float) -> float:
    """2 r t/(r^2 + t^2); zero when either amplitude vanishes."""
    denom = r_mag**2 + t_mag**2
    if denom == 0:
        return 0.0
    return 2.0 * r_mag * t_mag / denom


@dataclass(frozen=True)
class NoiseModel:
    """Added thermal quanta, affine in normalized pump power.

    Slopes alone cannot reproduce the measured occupancies at unit pump
    power, so intercepts absorb the difference; all four coefficients must
    be non-negative, which keeps predictions non-negative for any pump.
    """

    slope_s: float
    slope_i: float
    intercept_s: float
    intercept_i: float

    def __post_init__(self) -> None:
        if min(self.slope_s, self.slope_i, self.intercept_s, self.intercept_i) < 0:
            raise ValueError("noise slopes and intercepts must be non-negative")


def added_noise(p0_norm: ArrayLike, model: NoiseModel) -> Tuple[ArrayLike, ArrayLike]:
    """Added quanta (signal, idler) at normalized pump power ``p0_norm``."""
    p = np.asarray(p0_norm, dtype=float)
    if np.any(p < 0):
        raise ValueError("p0_norm must be non-negative")
    n_s = model.intercept_s + model.slope_s * p
    n_i = model.intercept_i + model.slope_i * p
    if np.ndim(p0_norm) == 0:
        return float(n_s), float(n_i)
    return n_s, n_i


@dataclass(frozen=True)
class KerrSteadyState:
    """Real positive intracavity photon-number branches, sorted ascending.

    For one drive ``photon_numbers`` is a tuple and ``bifurcated`` a bool;
    for an array of n drives they are an (n, 3) array padded with NaN and a
    bool array of length n.
    """

    photon_numbers: Union[Tuple[float, ...], np.ndarray]
    bifurcated: Union[bool, np.ndarray]


def _newton_polish(x: np.ndarray, a: float, b: float, c: np.ndarray) -> np.ndarray:
    """One Newton step on x^3 + a x^2 + b x + c, kept only where it lowers |residual|."""
    value = ((x + a) * x + b) * x + c
    with np.errstate(divide="ignore", invalid="ignore"):
        # at a double root the derivative vanishes; such a step is never kept
        step = x - value / ((3.0 * x + 2.0 * a) * x + b)
        better = np.abs(((step + a) * step + b) * step + c) < np.abs(value)
    return np.where(better, step, x)


def _cubic_real_roots(a: float, b: float, c: np.ndarray) -> np.ndarray:
    """Real roots of x^3 + a x^2 + b x + c for every entry of ``c``.

    Returns an (n, 3) array; the two slots of a complex pair hold NaN.
    """
    q = (a * a - 3.0 * b) / 9.0
    r = (2.0 * a**3 - 9.0 * a * b + 27.0 * c) / 54.0
    q3 = q**3
    three = r * r < q3  # then q > 0
    roots = np.full((c.size, 3), np.nan)
    if np.any(three):
        theta = np.arccos(np.clip(r[three] / math.sqrt(q3), -1.0, 1.0))
        turns = np.array([0.0, 2.0 * math.pi, -2.0 * math.pi])
        trig = -2.0 * math.sqrt(q) * np.cos((theta[:, None] + turns) / 3.0) - a / 3.0
        roots[three] = _newton_polish(trig, a, b, c[three, None])
    one = ~three
    r1 = r[one]
    # -sign(r) (|r| + sqrt(r^2 - q^3))^(1/3), summed without cancellation
    big = np.cbrt(-(r1 + np.copysign(np.sqrt(r1 * r1 - q3), r1)))
    small = np.divide(q, big, out=np.zeros_like(big), where=big != 0.0)
    roots[one, 0] = _newton_polish(big + small - a / 3.0, a, b, c[one])
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
    response becomes multivalued.  All rate arguments are in Hz; the flux is
    an absolute rate in photons/s, one value or an array.  ``bifurcated``
    flags three distinct positive branches.

    Every cubic is solved at once in closed form (Numerical Recipes, 3rd
    ed., section 5.6): the trigonometric form where the discriminant gives
    three real roots, Cardano's formula with ``np.cbrt`` where it gives one.
    Each root is then polished by a Newton step on the undepressed cubic,
    kept only where it lowers the residual.  The tests hold the
    companion-matrix eigenvalues (the matrix ``np.roots`` builds) as the
    oracle for the branch count and the residual.
    """
    if kappa <= 0 or kappa_ex < 0 or kerr_rate < 0:
        raise ValueError("kappa must be positive; kappa_ex and kerr_rate non-negative")
    flux = np.asarray(drive_photon_flux, dtype=float)
    if np.any(flux < 0):
        raise ValueError("drive flux must be non-negative")
    two_pi = 2.0 * math.pi
    delta = two_pi * detuning
    k_ang = two_pi * kerr_rate
    kap = two_pi * kappa
    kap_ex = two_pi * kappa_ex
    drive = kap_ex * np.atleast_1d(flux)

    if k_ang == 0.0:
        branches = np.full((drive.size, 3), np.nan)
        branches[:, 0] = drive / ((kap / 2.0) ** 2 + delta**2)
    else:
        # monic form of k_ang^2 n^3 - 2 delta k_ang n^2 + ((kap/2)^2 + delta^2) n - drive
        roots = _cubic_real_roots(
            -2.0 * delta * k_ang / k_ang**2,
            ((kap / 2.0) ** 2 + delta**2) / k_ang**2,
            -(drive / k_ang**2),
        )
        branches = np.sort(np.where(roots > 0.0, roots, np.nan), axis=1)
    bifurcated = (branches[:, 0] < branches[:, 1]) & (branches[:, 1] < branches[:, 2])

    if flux.ndim == 0:
        row = branches[0]
        return KerrSteadyState(
            photon_numbers=tuple(float(n) for n in row[~np.isnan(row)]),
            bifurcated=bool(bifurcated[0]),
        )
    return KerrSteadyState(photon_numbers=branches, bifurcated=bifurcated)


@dataclass(frozen=True)
class BifurcationPoint:
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
    if kerr_rate <= 0 or kappa <= 0 or kappa_ex <= 0:
        raise ValueError("rates must be positive")
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
    point = bifurcation_point(kerr_rate, kappa, kappa_ex)
    return point.drive_flux * PLANCK_H * frequency_hz


@dataclass(frozen=True)
class TlsModel:
    """Power-dependent internal quality factor from saturable defect loss.

    1/Q_in(n) = 1/q_other + (1/q_tls0)/sqrt(1 + (n/n_c)^alpha)

    Q_in rises monotonically from (1/q_other + 1/q_tls0)^-1 at low photon
    number toward q_other once the defects saturate.
    """

    q_tls0: float
    n_c: float
    alpha: float
    q_other: float

    def __post_init__(self) -> None:
        if min(self.q_tls0, self.n_c, self.alpha, self.q_other) <= 0:
            raise ValueError("all TLS model parameters must be positive")


def tls_quality_factor(n_photon: ArrayLike, model: TlsModel) -> ArrayLike:
    """Internal quality factor at probe photon number ``n_photon``."""
    n = np.asarray(n_photon, dtype=float)
    if np.any(n < 0):
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
    if q_ex <= 0:
        raise ValueError("q_ex must be positive")
    q_in = tls_quality_factor(n_sat, tls)
    eta = q_in / (q_in + q_ex)
    return eta * eta


@dataclass(frozen=True)
class PairEfficiency:
    """Conversion efficiency and coupling bound for one signal/idler pair."""

    index: int
    eta_s: float
    eta_i: float
    efficiency: float
    bound: float


def pair_sweep(mode_pairs: Sequence[Tuple[float, float]], c: float) -> List[PairEfficiency]:
    """Efficiency per (eta_s, eta_i) pair at cooperativity ``c``.

    The bound eta_s*eta_i is reached exactly at c = 1.
    """
    results = []
    for index, (eta_s, eta_i) in enumerate(mode_pairs):
        result = scattering(c, eta_s, eta_i)
        results.append(
            PairEfficiency(
                index=index, eta_s=eta_s, eta_i=eta_i,
                efficiency=result.t2, bound=eta_s * eta_i,
            )
        )
    return results
