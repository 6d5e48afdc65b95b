"""Physical parameter records for the meta-ring device.

All quantities are SI: inductances in H or H/m, capacitances in F or F/m,
lengths in m, currents in A, magnetic fields in T.  Frequencies are ordinary
frequencies in Hz throughout the public API; angular rates are formed
internally where a formula requires them.

Every record is a frozen dataclass: instances are immutable after
construction and safe to share across parallel evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

_REL_TOL = 1e-12


def _positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


@dataclass(frozen=True)
class SegmentParams:
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

    def __post_init__(self) -> None:
        _positive("inductance_per_length", self.inductance_per_length)
        _positive("capacitance_per_length", self.capacitance_per_length)
        _positive("length", self.length)

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


@dataclass(frozen=True)
class RingSpec:
    """Geometry and electrical description of the meta-ring.

    The ring is a closed chain of ``cell_count`` identical cells.  Each cell
    consists of a nanowire-rail segment (``segment1``) and, optionally, a
    bridge segment (``segment2``); a ``None`` bridge describes the
    single-segment lumped cell model.

    ``kinetic_inductance_per_length`` and ``geometric_inductance_per_length``
    are the homogenized line constants used by the lumped mode solver; the
    matching capacitance per length is read from ``segment1``.
    """

    cell_count: int
    segment1: SegmentParams
    segment2: Optional[SegmentParams]
    geometric_inductance_per_length: float
    kinetic_inductance_per_length: float

    def __post_init__(self) -> None:
        if not isinstance(self.cell_count, int) or self.cell_count < 3:
            raise ValueError(f"cell_count must be an integer >= 3, got {self.cell_count!r}")
        _positive("geometric_inductance_per_length", self.geometric_inductance_per_length)
        _positive("kinetic_inductance_per_length", self.kinetic_inductance_per_length)
        if self.total_length <= 0:
            raise ValueError("total ring length must be positive")

    @property
    def cell_length(self) -> float:
        """Length of one cell [m]."""
        bridge = self.segment2.length if self.segment2 is not None else 0.0
        return self.segment1.length + bridge

    @property
    def total_length(self) -> float:
        """Ring circumference cell_count * cell_length [m]."""
        return self.cell_count * self.cell_length

    @property
    def line_capacitance_per_length(self) -> float:
        """Homogenized shunt capacitance [F/m] (taken from segment1)."""
        return self.segment1.capacitance_per_length

    def line_constants(self) -> "LineConstants":
        """Derived per-cell line constants for the lumped chain model."""
        return derive_line_constants(
            self.kinetic_inductance_per_length,
            self.geometric_inductance_per_length,
            self.line_capacitance_per_length,
            self.cell_length,
        )

    def with_phase_velocity_scale(self, scale: float) -> "RingSpec":
        """Return a copy whose phase velocity is multiplied by ``scale``.

        Implemented by dividing every segment capacitance by ``scale**2``,
        which rescales all mode frequencies by ``scale`` while leaving the
        inductances untouched.
        """
        _positive("scale", scale)

        def rescale(seg: Optional[SegmentParams]) -> Optional[SegmentParams]:
            if seg is None:
                return None
            return replace(seg, capacitance_per_length=seg.capacitance_per_length / scale**2)

        return replace(self, segment1=rescale(self.segment1), segment2=rescale(self.segment2))


@dataclass(frozen=True)
class MicroloopSpec:
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

    def __post_init__(self) -> None:
        if not (0.0 < self.width_ratio <= 1.0):
            raise ValueError(f"width_ratio must satisfy 0 < gamma <= 1, got {self.width_ratio!r}")
        _positive("gap", self.gap)
        _positive("loop_dc_inductance", self.loop_dc_inductance)
        _positive("inductance_wide", self.inductance_wide)
        _positive("inductance_narrow", self.inductance_narrow)
        _positive("i_star_wide", self.i_star_wide)
        _positive("i_star_narrow", self.i_star_narrow)
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

    @classmethod
    def from_wide_wire(
        cls,
        width_ratio: float,
        gap: float,
        loop_dc_inductance: float,
        inductance_wide: float,
        i_star_wide: float,
    ) -> "MicroloopSpec":
        """Build a consistent spec from the wide-wire values alone."""
        return cls(
            width_ratio=width_ratio,
            gap=gap,
            loop_dc_inductance=loop_dc_inductance,
            inductance_wide=inductance_wide,
            inductance_narrow=inductance_wide / width_ratio,
            i_star_wide=i_star_wide,
            i_star_narrow=width_ratio * i_star_wide,
        )


@dataclass(frozen=True)
class BiasState:
    """Magnetic bias: external field and the loop supercurrent it drives.

    One bias point holds floats; a field axis holds two arrays of one shape.
    """

    external_field: Union[float, np.ndarray]
    dc_current: Union[float, np.ndarray]

    def __post_init__(self) -> None:
        if not (np.all(np.isfinite(self.external_field))
                and np.all(np.isfinite(self.dc_current))):
            raise ValueError("bias fields must be finite")

    @classmethod
    def from_field(cls, loop: MicroloopSpec,
                   external_field: Union[float, np.ndarray]) -> "BiasState":
        """Construct the bias consistent with I_dc = B_ext*d/L_dc."""
        current = external_field * loop.gap / loop.loop_dc_inductance
        return cls(external_field=external_field, dc_current=current)


@dataclass(frozen=True)
class LineConstants:
    """Secondary constants of the homogenized line.

    characteristic_impedance = sqrt((L_k+L_m)/C)        [ohm]
    phase_velocity           = 1/sqrt((L_k+L_m)*C)      [m/s]
    cell_inductance  L_0     = (L_k+L_m)*l_0            [H]
    cell_capacitance C_0     = C*l_0/2                  [F]
    """

    characteristic_impedance: float
    phase_velocity: float
    cell_inductance: float
    cell_capacitance: float


def derive_line_constants(
    kinetic_inductance_per_length: float,
    geometric_inductance_per_length: float,
    capacitance_per_length: float,
    cell_length: float,
) -> LineConstants:
    """Derive impedance, phase velocity and per-cell L_0, C_0.

    All inputs must be strictly positive; raises ``ValueError`` otherwise.
    """
    _positive("kinetic_inductance_per_length", kinetic_inductance_per_length)
    _positive("geometric_inductance_per_length", geometric_inductance_per_length)
    _positive("capacitance_per_length", capacitance_per_length)
    _positive("cell_length", cell_length)
    total_l = kinetic_inductance_per_length + geometric_inductance_per_length
    return LineConstants(
        characteristic_impedance=math.sqrt(total_l / capacitance_per_length),
        phase_velocity=1.0 / math.sqrt(total_l * capacitance_per_length),
        cell_inductance=total_l * cell_length,
        cell_capacitance=capacitance_per_length * cell_length / 2.0,
    )
