"""Physical parameter records for the meta-ring device.

All quantities are SI: inductances in H or H/m, capacitances in F or F/m,
lengths in m, currents in A, magnetic fields in T.  Frequencies are ordinary
frequencies in Hz throughout the public API; angular rates are formed
internally where a formula requires them.

A ``SegmentParams`` derives its line's impedance, phase velocity and delay;
the lumped ``RingSpec`` derives one number, its cell frequency
f_0 = 1/(2 pi sqrt(L_0 C_0)), which the mode solvers of ``modes`` read.

Every record is immutable after construction and safe to share across
parallel evaluations.  Every record of the package is a
``typing.NamedTuple``, and a table is a record of equal-length numpy
columns: fields are read by attribute, copied with ``_replace`` and exported
with ``_asdict``.  :func:`checked` gives a record built from input (a spec,
a bias, a trace, a scenario) its construction checks.  A result is a plain
record: the function that returns it checks its own arguments instead.
A named tuple class is created several times faster than a dataclass, which
generates and compiles its methods when its module is imported.  The modules
that define named tuples leave out ``from __future__ import annotations``,
because a named tuple compiles every string annotation when its class is
created.
"""

import math
import sys
from typing import Callable, NamedTuple, Union

import numpy as np

_REL_TOL = 1e-12


def _positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def _check_line(inductance: str, l: float, c: float) -> None:
    """Raise ``ValueError`` unless the line of L and C per length has a finite,
    positive phase velocity 1/sqrt(L C) and impedance sqrt(L/C)."""
    if not (0.0 < l * c < math.inf and 0.0 < l / c < math.inf):
        raise ValueError(f"{inductance} and capacitance_per_length must keep L C and L/C "
                         f"positive and finite, got L C = {l * c!r} and L/C = {l / c!r}")


def checked(cls):
    """Class decorator: every instance of the named tuple ``cls`` passes ``cls._check``.

    A ``NamedTuple`` body may not define ``__new__``, so this wraps the one
    the class has.  Construction, ``_make`` and ``_replace`` (which builds
    through ``_make``) all run ``_check``, which raises ``ValueError`` on a
    bad field.
    """
    build = cls.__new__

    def __new__(cls, *args, **kwargs):
        record = build(cls, *args, **kwargs)
        record._check()
        return record

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


def _evaluate(form: Callable, *args):
    """``form(*args)``, or None where the closed form overflows, divides a float
    by zero or gives an invalid value."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return form(*args)
    except ArithmeticError:  # FloatingPointError, or ZeroDivisionError of a float
        return None


@checked
class SegmentParams(NamedTuple):
    """Distributed constants of one transmission-line segment.

    Parameters
    ----------
    inductance_per_length : float
        Series inductance [H/m].
    capacitance_per_length : float
        Shunt capacitance to ground [F/m].
    length : float
        Physical segment length [m].
    """

    inductance_per_length: float
    capacitance_per_length: float
    length: float

    def _check(self) -> None:
        _positive("inductance_per_length", self.inductance_per_length)
        _positive("capacitance_per_length", self.capacitance_per_length)
        _positive("length", self.length)
        _check_line("inductance_per_length", self.inductance_per_length,
                    self.capacitance_per_length)

    @property
    def impedance(self) -> float:
        """Characteristic impedance sqrt(L/C) [ohm]."""
        return math.sqrt(self.inductance_per_length / self.capacitance_per_length)

    @property
    def phase_velocity(self) -> float:
        """Wave speed 1/sqrt(L C) [m/s]."""
        return 1.0 / math.sqrt(self.inductance_per_length * self.capacitance_per_length)

    @property
    def delay(self) -> float:
        """One-way transit time length/v_ph [s]."""
        return self.length / self.phase_velocity

    def wave_number(self, frequency: float) -> float:
        """Propagation constant k = 2*pi*f*sqrt(L C) [rad/m]."""
        return 2.0 * math.pi * frequency / self.phase_velocity


@checked
class LumpedCell(NamedTuple):
    """A ring cell as the lumped model reads it: the line's capacitance per
    length [F/m] and the cell length [m] (a two-segment cell gives both
    lengths' sum)."""

    capacitance_per_length: float
    length: float

    def _check(self) -> None:
        _positive("capacitance_per_length", self.capacitance_per_length)
        _positive("length", self.length)


@checked
class RingSpec(NamedTuple):
    """The meta-ring as the lumped LC chain model reads it.

    The ring is a closed chain of ``cell_count`` identical cells of length
    ``segment1.length`` on one line: series inductance
    ``kinetic_inductance_per_length`` + ``geometric_inductance_per_length``
    and shunt capacitance ``segment1.capacitance_per_length`` per length.
    """

    cell_count: int
    segment1: LumpedCell
    geometric_inductance_per_length: float
    kinetic_inductance_per_length: float

    def _check(self) -> None:
        if not isinstance(self.cell_count, int) or self.cell_count < 3:
            raise ValueError(f"cell_count must be an integer >= 3, got {self.cell_count!r}")
        if self.cell_count >= 2**63:  # mode indices are numpy int64s
            raise ValueError(f"cell_count: must be below 2**63, got {self.cell_count!r}")
        _positive("kinetic_inductance_per_length", self.kinetic_inductance_per_length)
        _positive("geometric_inductance_per_length", self.geometric_inductance_per_length)
        _check_line("kinetic_inductance_per_length + geometric_inductance_per_length",
                    self.kinetic_inductance_per_length + self.geometric_inductance_per_length,
                    self.segment1.capacitance_per_length)
        cell_lc = self._cell_lc  # cell_frequency divides by sqrt(L_0 C_0)
        if not cell_lc > 0.0:
            raise ValueError("segment1.length: too short for the lumped cell model: "
                             "the cell's L_0 C_0 underflows to 0")
        if cell_lc == math.inf:
            raise ValueError("segment1.length: too long for the lumped cell model: "
                             "the cell's L_0 C_0 overflows to inf")

    @property
    def _cell_lc(self) -> float:
        """L_0 C_0 of one cell: L_0 = (L_k + L_m) l_0 and C_0 = C l_0/2."""
        cell = self.segment1
        total_l = self.kinetic_inductance_per_length + self.geometric_inductance_per_length
        return (total_l * cell.length) * (cell.capacitance_per_length * cell.length / 2.0)

    @property
    def cell_frequency(self) -> float:
        """Natural frequency of one cell, f_0 = 1/(2 pi sqrt(L_0 C_0)) [Hz]."""
        return 1.0 / (2.0 * math.pi * math.sqrt(self._cell_lc))

    def with_phase_velocity_scale(self, scale: float) -> "RingSpec":
        """Return a copy whose phase velocity is multiplied by ``scale``.

        Implemented by dividing the line capacitance by ``scale**2``, which
        rescales all mode frequencies by ``scale`` while leaving the
        inductances untouched.
        """
        _positive("scale", scale)
        return self._replace(segment1=self.segment1._replace(
            capacitance_per_length=self.segment1.capacitance_per_length / scale**2))


@checked
class MicroloopSpec(NamedTuple):
    """Asymmetric nanowire pair forming one flux-biased microloop.

    Wire 1 is the wide nanowire, wire 2 the narrow one; the width ratio
    gamma = w2/w1 ties their kinetic inductances and characteristic currents:
    L2 = L1/gamma and I2* = gamma * I1*.
    """

    width_ratio: float
    gap: float
    loop_dc_inductance: float
    inductance_wide: float
    inductance_narrow: float
    i_star_wide: float
    i_star_narrow: float

    def _check(self) -> None:
        if not (0.0 < self.width_ratio <= 1.0):
            raise ValueError(f"width_ratio must satisfy 0 < gamma <= 1, got {self.width_ratio!r}")
        _positive("gap", self.gap)
        _positive("loop_dc_inductance", self.loop_dc_inductance)
        _positive("inductance_wide", self.inductance_wide)
        _positive("inductance_narrow", self.inductance_narrow)
        _positive("i_star_wide", self.i_star_wide)
        _positive("i_star_narrow", self.i_star_narrow)
        for name in ("i_star_wide", "i_star_narrow"):  # T, F, c3 and c4 divide by i*^2
            i_star = getattr(self, name)
            if not i_star * i_star >= sys.float_info.min:
                raise ValueError(f"{name}: must square to a normal float (at least "
                                 f"{sys.float_info.min!r}), got {i_star!r}")
        expected_l2 = self.inductance_wide / self.width_ratio
        if abs(self.inductance_narrow - expected_l2) > _REL_TOL * expected_l2:
            raise ValueError(
                "inductance_narrow must equal inductance_wide/width_ratio "
                f"(expected {expected_l2!r}, got {self.inductance_narrow!r})"
            )
        expected_i2 = self.width_ratio * self.i_star_wide
        if abs(self.i_star_narrow - expected_i2) > _REL_TOL * expected_i2:
            raise ValueError(
                "i_star_narrow must equal width_ratio*i_star_wide "
                f"(expected {expected_i2!r}, got {self.i_star_narrow!r})"
            )


@checked
class BiasState(NamedTuple):
    """Magnetic bias: external field and the loop supercurrent it drives.

    One bias point holds floats; a field axis holds two arrays of one shape.
    """

    external_field: Union[float, np.ndarray]
    dc_current: Union[float, np.ndarray]

    def _check(self) -> None:
        if not (np.all(np.isfinite(self.external_field))
                and np.all(np.isfinite(self.dc_current))):
            raise ValueError("bias fields must be finite")

    @classmethod
    def from_field(cls, loop: MicroloopSpec,
                   external_field: Union[float, np.ndarray]) -> "BiasState":
        """Construct the bias consistent with I_dc = B_ext*d/L_dc."""
        current = external_field * loop.gap / loop.loop_dc_inductance
        return cls(external_field=external_field, dc_current=current)
