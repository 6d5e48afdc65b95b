"""Exact Bloch dispersion of the two-segment unit cell.

Each segment is a lossless line section with transfer matrix

    M_j = [[cos(k_j l_j), i Z_j sin(k_j l_j)],
           [i sin(k_j l_j)/Z_j, cos(k_j l_j)]]

and the periodic chain supports Bloch waves at frequencies where

    cos(k l_0) = Tr(M_2 M_1)/2
               = cos(k_1 l_1) cos(k_2 l_2)
                 - (Z_1/Z_2 + Z_2/Z_1)/2 * sin(k_1 l_1) sin(k_2 l_2).

Closing the chain into an N-cell ring quantizes cos(k l_0) = cos(2*pi*m/N);
mode frequencies are the roots of that condition in the first propagating
band.  All requested modes are bisected at once on one shared bracket,
[0, 1/(2 tau)] with tau the cell delay.  Write t_j = k_j l_j and chi for
the mismatch factor (Z_1/Z_2 + Z_2/Z_1)/2 >= 1.  At the top of the bracket
t_1 + t_2 = pi, so the half-trace is -cos^2 t_1 - chi sin^2 t_1 <= -1 and
the first band closes inside the bracket.  On the bracket the half-trace is
at most cos(t_1 + t_2) < 1, and by Foster's reactance theorem it is
strictly monotone wherever it lies in (-1, 1).  So it falls from 1 to -1
across the first band and stays at or below -1 from the band edge to the
top: a second band, once open, would have to rise to +1 before closing.
Every target in [-1, 1) therefore has exactly one crossing on the bracket,
the smallest root, and bisection finds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple, Union

import numpy as np

from .core import SegmentParams
from .errors import BandEdgeError

_BISECTION_WIDTH = 1e-3  # Hz; comfortably below the 1 Hz contract

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class TwoPortMatrix:
    """ABCD matrix of a two-port; ``b`` carries ohm, ``c`` carries 1/ohm."""

    a: complex
    b: complex
    c: complex
    d: complex

    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c

    def trace(self) -> complex:
        return self.a + self.d

    def cascade(self, other: "TwoPortMatrix") -> "TwoPortMatrix":
        """Matrix product self @ other (``other`` is traversed first)."""
        return TwoPortMatrix(
            a=self.a * other.a + self.b * other.c,
            b=self.a * other.b + self.b * other.d,
            c=self.c * other.a + self.d * other.c,
            d=self.c * other.b + self.d * other.d,
        )


@dataclass(frozen=True)
class UnitCell:
    """One period of the loaded line: nanowire rail plus bridge."""

    segment1: SegmentParams
    segment2: SegmentParams

    @property
    def cell_length(self) -> float:
        return self.segment1.length + self.segment2.length

    @property
    def cell_delay(self) -> float:
        return self.segment1.delay + self.segment2.delay

    def with_capacitance_ratio(self, ratio: float) -> "UnitCell":
        """Scale the bridge capacitance by ``ratio`` (>= 1), inductance fixed."""
        if ratio < 1.0:
            raise ValueError(f"capacitance enhancement ratio must be >= 1, got {ratio!r}")
        seg2 = replace(
            self.segment2,
            capacitance_per_length=self.segment2.capacitance_per_length * ratio,
        )
        return UnitCell(segment1=self.segment1, segment2=seg2)


@dataclass(frozen=True)
class MismatchReport:
    """Frequency mismatch 2 f_m - (f_{m+n} + f_{m-n}) for a conversion pair."""

    m: int
    n: int
    delta_f: float
    signal_f: float

    def __post_init__(self) -> None:
        if self.n < 1 or self.m - self.n < 1:
            raise ValueError("require n >= 1 and m - n >= 1")
        if not math.isfinite(self.delta_f):
            raise ValueError("delta_f must be finite")


def segment_abcd(segment: SegmentParams, frequency: float) -> TwoPortMatrix:
    """ABCD matrix of one lossless segment at ``frequency`` [Hz]."""
    if frequency < 0:
        raise ValueError("frequency must be non-negative")
    theta = segment.wave_number(frequency) * segment.length
    z = segment.impedance
    return TwoPortMatrix(
        a=complex(math.cos(theta)),
        b=1j * z * math.sin(theta),
        c=1j * math.sin(theta) / z,
        d=complex(math.cos(theta)),
    )


def cell_trace(cell: UnitCell, frequency: ArrayLike) -> ArrayLike:
    """cos(k l_0) of the unit cell: half the trace of M_2 M_1."""
    f = np.asarray(frequency, dtype=float)
    if np.any(f < 0):
        raise ValueError("frequency must be non-negative")
    s1, s2 = cell.segment1, cell.segment2
    t1 = s1.wave_number(f) * s1.length
    t2 = s2.wave_number(f) * s2.length
    z1, z2 = s1.impedance, s2.impedance
    mismatch = 0.5 * (z1 / z2 + z2 / z1)
    value = np.cos(t1) * np.cos(t2) - mismatch * np.sin(t1) * np.sin(t2)
    if np.ndim(frequency) == 0:
        return float(value)
    return value


def cell_matrix(cell: UnitCell, frequency: float) -> TwoPortMatrix:
    """Full cell matrix M_2 M_1."""
    return segment_abcd(cell.segment2, frequency).cascade(segment_abcd(cell.segment1, frequency))


def solve_mode_frequency(
    cell: UnitCell,
    n_cells: int,
    m: Union[int, np.ndarray],
) -> ArrayLike:
    """Smallest positive root of cell_trace(f) = cos(2*pi*m/N) [Hz].

    ``m`` is one mode index (returns a float) or an integer array of them
    (returns an array of the same shape).  Every target is bisected on the
    shared bracket [0, 1/(2 cell_delay)] (see the module docstring) with a
    fixed number of halvings that leaves it narrower than 1e-3 Hz, so a
    mode gets the same bits whether solved alone or in an array.  Raises
    ``ValueError`` for m < 1 and for the trivial m = 0 (mod N) target.
    """
    if n_cells < 3:
        raise ValueError("n_cells must be >= 3")
    modes = np.asarray(m)
    if np.any(modes < 1):
        raise ValueError(f"mode index must be >= 1, got {m}")
    if np.any(modes % n_cells == 0):
        raise ValueError("m = 0 (mod N) only has the trivial root f = 0")
    target = np.cos(2.0 * math.pi * modes / n_cells)

    f_top = 0.5 / cell.cell_delay
    f_lo = np.zeros(target.shape)
    f_hi = np.full(target.shape, f_top)
    for _ in range(math.ceil(math.log2(f_top / _BISECTION_WIDTH))):
        mid = 0.5 * (f_lo + f_hi)
        above = cell_trace(cell, mid) > target
        f_lo = np.where(above, mid, f_lo)
        f_hi = np.where(above, f_hi, mid)
    roots = 0.5 * (f_lo + f_hi)
    if modes.ndim == 0:
        return float(roots)
    return roots


def mode_index_near(cell: UnitCell, n_cells: int, frequency: float) -> int:
    """Index of the first-band mode closest to ``frequency``.

    Inverts the dispersion relation directly: m = N*acos(cos k l_0)/(2 pi).
    Raises ``BandEdgeError`` when the frequency lies in a stop band.
    """
    value = cell_trace(cell, frequency)
    if abs(value) > 1.0:
        raise BandEdgeError(f"{frequency} Hz lies outside the propagating band")
    phase = math.acos(value)
    return max(1, round(n_cells * phase / (2.0 * math.pi)))


def fsr_curve(
    cell: UnitCell,
    n_cells: int,
    band: Tuple[float, float],
) -> List[Tuple[float, float]]:
    """(f_m, f_{m+1} - f_m) for every mode in ``band`` [Hz]."""
    lo, hi = band
    if hi <= lo:
        return []
    m_lo = mode_index_near(cell, n_cells, lo)
    m_hi = mode_index_near(cell, n_cells, hi)
    modes = np.arange(max(1, m_lo - 1), m_hi + 2)
    freqs = solve_mode_frequency(cell, n_cells, modes).tolist()
    return [(f, f_next - f) for f, f_next in zip(freqs, freqs[1:]) if lo <= f <= hi]


def conversion_mismatch(cell: UnitCell, n_cells: int, m: int, n: int) -> MismatchReport:
    """Mismatch 2 f_m - (f_{m+n} + f_{m-n}) when pumping m <-> m+n."""
    if n < 1 or m - n < 1:
        raise ValueError("require n >= 1 and m - n >= 1")
    modes = np.array([m - n, m, m + n])
    f_low, f_sig, f_high = solve_mode_frequency(cell, n_cells, modes).tolist()
    return MismatchReport(m=m, n=n, delta_f=2.0 * f_sig - (f_high + f_low), signal_f=f_sig)


@dataclass(frozen=True)
class EnhancementPoint:
    """One row of the capacitance-enhancement sweep."""

    ratio: float
    offset: float
    n: int
    signal_f: float
    delta_f: float


def idc_enhancement_sweep(
    cell: UnitCell,
    n_cells: int,
    signal_f: float,
    offsets: Sequence[float],
    ratios: Sequence[float],
) -> List[EnhancementPoint]:
    """Mismatch vs bridge-capacitance enhancement.

    For each ratio the bridge capacitance is scaled (inductance unchanged),
    the signal mode is re-anchored to the mode nearest ``signal_f``, and for
    each idler offset the partner index n is chosen so f_{m+n} is nearest
    f_m + offset.  Rows are ordered ratio-major, then by offset.
    """
    points: List[EnhancementPoint] = []
    for ratio in ratios:
        scaled = cell.with_capacitance_ratio(ratio)
        m_sig = mode_index_near(scaled, n_cells, signal_f)
        f_sig = solve_mode_frequency(scaled, n_cells, m_sig)
        steps = []
        for offset in offsets:
            if offset <= 0:
                raise ValueError("idler offsets must be positive")
            steps.append(mode_index_near(scaled, n_cells, f_sig + offset) - m_sig)
        n = np.array(steps, dtype=int)
        if np.any(n < 1) or np.any(m_sig - n < 1):
            raise ValueError("require n >= 1 and m - n >= 1")
        # every offset's [m - n, m, m + n] in one bisection, as conversion_mismatch
        # solves one of them
        triples = np.stack([m_sig - n, np.full_like(n, m_sig), m_sig + n], axis=-1)
        f_low, f_mid, f_high = solve_mode_frequency(scaled, n_cells, triples).T
        delta_f = 2.0 * f_mid - (f_high + f_low)
        points.extend(
            EnhancementPoint(ratio=ratio, offset=offset, n=int(step),
                             signal_f=float(f), delta_f=float(delta))
            for offset, step, f, delta in zip(offsets, n, f_mid, delta_f)
        )
    return points
