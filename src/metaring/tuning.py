"""Magnetic-field tuning and nonlinear coefficients of the asymmetric microloop.

An out-of-plane field B_ext drives a loop supercurrent I_dc = B_ext*d/L_dc
(``BiasState.from_field``).  Each nanowire's kinetic inductance grows
quadratically with its current, L(I) = L0*(1 + (I/I*)**2), which pulls
every mode frequency down by

    df/f = -(gamma/2) * (I_dc/I2*)**2.

Expanding the inductive energy of the two-wire loop in the rf current of the
narrow wire produces cubic (three-wave-mixing) and quartic (four-wave-mixing)
terms.  The rf currents in the two wires are tied by the current division
linearized at the dc operating point, I_rf2*L_k2(I_dc) = I_rf1*L_k1(I_dc).
``taylor_coefficients`` extracts the same coefficients numerically from the
energy callable and is the in-package check on the closed forms.

Every function of a bias takes one bias point or a whole field axis: the dc
current may be a float or an array, and the results follow its shape.  The
energy, the closed forms and the Taylor stencil write powers as products: numpy
squares an array as x*x, while a float's x**2 calls libm's pow, which
differs from x*x in the last bit for some x.  With products a point gets the
same bits, and so the same stop halving, alone or in an array.
"""

from typing import Callable, Dict, NamedTuple, Tuple, Union

import numpy as np

from .core import BiasState, MicroloopSpec, checked
from .errors import PrecisionError

ArrayLike = Union[float, np.ndarray]

# Richardson extrapolants of the Taylor stencil must agree to this, within
# this many step halvings
_TAYLOR_RTOL = 1e-6
_TAYLOR_HALVINGS = 8


@checked
class NonlinearCoefficients(NamedTuple):
    """Cubic and quartic energy coefficients of the loop.

    ``twm`` multiplies I_rf2**3 [J/A^3 = H/A]; ``fwm`` multiplies I_rf2**4
    [J/A^4 = H/A^2].  The self-Kerr rate is not derived from them: it is
    configured (``converter.kerr.rate_hz``).
    """

    twm: ArrayLike
    fwm: ArrayLike

    def _check(self) -> None:
        if np.any(np.asarray(self.fwm) <= 0):
            raise ValueError("four-wave-mixing coefficient must be positive")


def kinetic_inductance(zero_current_inductance: float, current: ArrayLike,
                       i_star: float) -> ArrayLike:
    """Current-dependent kinetic inductance L0*(1 + (I/I*)**2) [H]."""
    if i_star <= 0:
        raise ValueError("i_star must be positive")
    ratio = current / i_star
    return zero_current_inductance * (1.0 + ratio * ratio)


def fractional_frequency_shift(loop: MicroloopSpec, bias: BiasState) -> ArrayLike:
    """Relative mode shift -(gamma/2)*(I_dc/I2*)**2; zero or negative."""
    ratio = bias.dc_current / loop.i_star_narrow
    return -(loop.width_ratio / 2.0) * ratio * ratio


def rf_current_ratio(loop: MicroloopSpec, bias: BiasState) -> ArrayLike:
    """I_rf1/I_rf2 from current division linearized at the dc point."""
    l_wide_dc = kinetic_inductance(loop.inductance_wide, bias.dc_current, loop.i_star_wide)
    l_narrow_dc = kinetic_inductance(loop.inductance_narrow, bias.dc_current, loop.i_star_narrow)
    return l_narrow_dc / l_wide_dc


def loop_energy(i_rf2: ArrayLike, loop: MicroloopSpec, bias: BiasState) -> ArrayLike:
    """Inductive energy of the loop at narrow-wire rf current ``i_rf2`` [J].

    E = L1*(1+(I1/I1*)**2)*I1**2/2 + L2*(1+(I2/I2*)**2)*I2**2/2 with
    I1 = I_dc + I_rf1 and I2 = I_dc - I_rf2.  ``i_rf2`` broadcasts against
    the bias.  Raises ``ValueError`` when either wire of any point is pushed
    past its characteristic current.
    """
    i_wide = bias.dc_current + i_rf2 * rf_current_ratio(loop, bias)
    i_narrow = bias.dc_current - i_rf2
    if np.any(np.abs(i_wide) >= loop.i_star_wide) or np.any(
            np.abs(i_narrow) >= loop.i_star_narrow):
        raise ValueError("current exceeds the superconducting regime of a nanowire")
    e_wide = (
        0.5 * kinetic_inductance(loop.inductance_wide, i_wide, loop.i_star_wide)
        * (i_wide * i_wide)
    )
    e_narrow = (
        0.5 * kinetic_inductance(loop.inductance_narrow, i_narrow, loop.i_star_narrow)
        * (i_narrow * i_narrow)
    )
    return e_wide + e_narrow


def twm_fwm_coefficients(loop: MicroloopSpec, bias: BiasState) -> NonlinearCoefficients:
    """Closed-form three- and four-wave-mixing coefficients.

    Both are normalized to the narrow wire: with i* = I2* and the dc current
    I_dc,

        T = 2 I_dc L2/i*^2 * [((I_dc^2+i*^2)/(g^2 I_dc^2+i*^2))^3 - 1]
        F = L2/(2 i*^2) * [1 + ((I_dc^2+i*^2)/(g^2 I_dc^2+i*^2))^4 / g]

    T vanishes for a symmetric loop (gamma = 1) and at zero bias; F is
    strictly positive.  ``taylor_coefficients`` applied to ``loop_energy``
    reproduces both directly as the cubic/quartic energy coefficients.
    """
    i_star = loop.i_star_narrow
    l_narrow = loop.inductance_narrow
    gamma = loop.width_ratio
    i_dc = bias.dc_current
    i_dc2 = i_dc * i_dc
    i_star2 = i_star * i_star
    ratio = (i_dc2 + i_star2) / (gamma * gamma * i_dc2 + i_star2)
    ratio2 = ratio * ratio
    twm = 2.0 * i_dc * l_narrow / i_star2 * (ratio2 * ratio - 1.0)
    fwm = l_narrow / (2.0 * i_star2) * (1.0 + ratio2 * ratio2 / gamma)
    return NonlinearCoefficients(twm=twm, fwm=fwm)


def taylor_coefficients(
    energy: Callable[[ArrayLike], ArrayLike],
    scale: ArrayLike = 1.0,
) -> Tuple[ArrayLike, ArrayLike]:
    """Cubic and quartic Taylor coefficients of ``energy`` about zero.

    Uses five-point central-difference stencils for the third and fourth
    derivatives, halving the step from 0.1*``scale`` with Richardson
    extrapolation until successive extrapolants agree to ``_TAYLOR_RTOL``,
    within ``_TAYLOR_HALVINGS`` halvings.

    ``scale`` is one step scale, which gives two floats, or an array of them,
    one per point, which gives two arrays of that shape.  ``energy`` then
    takes an array of offsets, one per point, and returns the energies of
    every point at once.  Each point keeps its first extrapolant that meets
    the tolerance, exactly as if it were expanded alone.  Raises
    ``PrecisionError`` when the extrapolation of any point never stabilizes.
    """
    scales = np.asarray(scale, dtype=float)
    if np.any(scales <= 0):
        raise ValueError("scale must be positive")

    f_0 = energy(0.0 * scales)  # the same at every step

    def stencil(h):
        f_m2, f_m1 = energy(-2.0 * h), energy(-h)
        f_p1, f_p2 = energy(h), energy(2.0 * h)
        h3 = h * h * h
        d3 = (-f_m2 + 2.0 * f_m1 - 2.0 * f_p1 + f_p2) / (2.0 * h3)
        d4 = (f_m2 - 4.0 * f_m1 + 6.0 * f_0 - 4.0 * f_p1 + f_p2) / (h3 * h)
        return d3 / 6.0, d4 / 24.0

    h = 0.1 * scales
    prev3, prev4 = stencil(h)
    extrap_prev = None
    c3 = c4 = np.full(scales.shape, np.nan)
    done = np.zeros(scales.shape, dtype=bool)
    for _ in range(_TAYLOR_HALVINGS):
        h = 0.5 * h
        cur3, cur4 = stencil(h)
        # central differences carry O(h^2) truncation; 4:1 Richardson weights
        extrap = ((4.0 * cur3 - prev3) / 3.0, (4.0 * cur4 - prev4) / 3.0)
        if extrap_prev is not None:
            floor3 = np.abs(extrap[1]) * scales + 1e-300
            floor4 = np.abs(extrap[1]) + 1e-300
            ok3 = np.abs(extrap[0] - extrap_prev[0]) <= _TAYLOR_RTOL * np.maximum(
                np.abs(extrap[0]), floor3)
            ok4 = np.abs(extrap[1] - extrap_prev[1]) <= _TAYLOR_RTOL * np.maximum(
                np.abs(extrap[1]), floor4)
            first = ok3 & ok4 & ~done
            c3, c4 = np.where(first, extrap[0], c3), np.where(first, extrap[1], c4)
            done |= first
            if done.all():
                if scales.ndim == 0:
                    return float(c3), float(c4)
                return c3, c4
        extrap_prev = extrap
        prev3, prev4 = cur3, cur4
    raise PrecisionError(
        f"Taylor-coefficient extrapolation did not converge to {_TAYLOR_RTOL} "
        f"within {_TAYLOR_HALVINGS} step halvings at {int(done.size - done.sum())} "
        f"of {done.size} points"
    )


def nonlinearity_report(loop: MicroloopSpec, bias: BiasState) -> Dict[str, ArrayLike]:
    """Closed forms next to the numeric expansion, with their mismatch.

    ``c3``/``c4`` are the numeric cubic/quartic energy coefficients;
    ``twm``/``fwm`` the closed forms.  The numeric expansion confirms the
    closed forms are themselves the energy coefficients (no extra inductance
    factor), so the reported relative discrepancies sit at numerical noise.
    """
    coeffs = twm_fwm_coefficients(loop, bias)
    # generous step: the quartic term sits far below the dc energy offset,
    # so small steps drown in cancellation noise (amplified as 1/h^4)
    step_scale = 0.2 * np.minimum(
        loop.i_star_narrow - np.abs(bias.dc_current),
        loop.i_star_narrow,
    )
    c3, c4 = taylor_coefficients(
        lambda i: loop_energy(i, loop, bias), scale=step_scale
    )
    denom3 = np.maximum(np.maximum(np.abs(coeffs.twm), np.abs(c4) * loop.i_star_narrow), 1e-300)
    return {
        "twm": coeffs.twm,
        "fwm": coeffs.fwm,
        "c3": c3,
        "c4": c4,
        "c3_vs_twm_rel": np.abs(c3 - coeffs.twm) / denom3,
        "c4_vs_fwm_rel": np.abs(c4 - coeffs.fwm) / np.maximum(np.abs(coeffs.fwm), 1e-300),
    }
