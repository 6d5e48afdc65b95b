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
The energy is therefore an exact quartic in that rf current, and
``taylor_coefficients`` reads its coefficients from one quartic fit.  It is
the in-package check on the closed forms.

Every function of a bias takes one bias point or a whole field axis: the dc
current may be a float or an array, and the results follow its shape.  The
energy, the closed forms and the quartic fit write powers as products: numpy
squares an array as x*x, while a float's x**2 calls libm's pow, which
differs from x*x in the last bit for some x.  With products a point gets the
same bits alone or in an array.
"""

from typing import Callable, Dict, NamedTuple, Tuple, Union

import numpy as np

from .core import BiasState, MicroloopSpec, checked
from .errors import PrecisionError

ArrayLike = Union[float, np.ndarray]

# Chebyshev nodes of degree 5 on [-1, 1]; each ± pair negates exactly, so an
# even energy fits with a cubic coefficient at rounding level
_NODES = (0.0, np.cos(0.3 * np.pi), -np.cos(0.3 * np.pi), np.cos(0.1 * np.pi),
          -np.cos(0.1 * np.pi))
# the check node, and how far its energy may miss the fitted quartic, relative
# to the spread of the node energies
_CHECK_NODE = 0.37
_QUARTIC_RTOL = 1e-9
# the fit nodes keep both wires below this fraction of their i*
_NODE_SPAN = 0.95


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
    """Cubic and quartic Taylor coefficients of a quartic ``energy`` about zero.

    Fits the quartic through the five Chebyshev nodes 0, ±cos(3 pi/10)*scale
    and ±cos(pi/10)*scale with Newton divided differences: c4 = f[x0..x4] and
    c3 = f[x0..x3] - c4*(x0+x1+x2+x3).  A quartic has no truncation error to
    remove, so the nodes span the whole ``scale``, where the quartic term
    stands farthest above the rounding of the energy.

    ``scale`` is one node scale, which gives two floats, or an array of them,
    one per point, which gives two arrays of that shape.  ``energy`` then
    takes an array of offsets, one per point, and returns the energies of
    every point at once; it is called six times.  Raises ``PrecisionError``
    when, at any point, the energy at the check node 0.37*``scale`` misses
    the fitted quartic by more than ``_QUARTIC_RTOL`` of the spread of the
    node energies.
    """
    scales = np.asarray(scale, dtype=float)
    if np.any(scales <= 0):
        raise ValueError("scale must be positive")

    x = [node * scales for node in _NODES]
    energies = [energy(x_k) for x_k in x]
    column, newton = energies, [energies[0]]  # newton[k] = f[x0..xk]
    for k in range(1, len(x)):
        column = [(column[j + 1] - column[j]) / (x[j + k] - x[j])
                  for j in range(len(column) - 1)]
        newton.append(column[0])
    c4 = newton[4]
    c3 = newton[3] - c4 * (x[0] + x[1] + x[2] + x[3])

    check = _CHECK_NODE * scales
    fitted = newton[4]
    for k in (3, 2, 1, 0):
        fitted = newton[k] + (check - x[k]) * fitted
    missed = np.abs(energy(check) - fitted) > _QUARTIC_RTOL * np.ptp(energies, axis=0)
    if np.any(missed):
        raise PrecisionError(
            f"energy is not a quartic on the fit nodes: the check node misses the "
            f"fit by more than {_QUARTIC_RTOL} of the node energies' spread at "
            f"{np.count_nonzero(missed)} of {np.size(missed)} points"
        )
    if scales.ndim == 0:
        return float(c3), float(c4)
    return c3, c4


def nonlinearity_report(loop: MicroloopSpec, bias: BiasState) -> Dict[str, ArrayLike]:
    """Closed forms next to the numeric expansion.

    ``c3``/``c4`` are the numeric cubic/quartic energy coefficients;
    ``twm``/``fwm`` the closed forms.  The numeric expansion confirms the
    closed forms are themselves the energy coefficients (no extra inductance
    factor): the two agree to numerical noise.  Raises ``ValueError`` when
    the dc current of any point reaches the characteristic current of either
    wire.
    """
    coeffs = twm_fwm_coefficients(loop, bias)
    i_dc = bias.dc_current
    if np.any(np.abs(i_dc) >= min(loop.i_star_narrow, loop.i_star_wide)):
        raise ValueError("current exceeds the superconducting regime of a nanowire")
    # fit on the i_rf2 that keep both wire currents, I_dc - i_rf2 and
    # I_dc + ratio*i_rf2, below _NODE_SPAN of their i*; near i* that interval
    # leaves zero, and the fit is re-expanded about zero below
    ratio = rf_current_ratio(loop, bias)
    narrow, wide = _NODE_SPAN * loop.i_star_narrow, _NODE_SPAN * loop.i_star_wide
    low = np.maximum(i_dc - narrow, (-wide - i_dc) / ratio)
    high = np.minimum(i_dc + narrow, (wide - i_dc) / ratio)
    mid, half = 0.5 * (low + high), 0.5 * (high - low)
    a3, a4 = taylor_coefficients(lambda y: loop_energy(y + mid, loop, bias), scale=half)
    # a4*(i - mid)**4 contributes -4*mid*a4 to the cubic coefficient about zero
    c3, c4 = a3 - 4.0 * mid * a4, a4
    return {
        "twm": coeffs.twm,
        "fwm": coeffs.fwm,
        "c3": c3,
        "c4": c4,
    }
