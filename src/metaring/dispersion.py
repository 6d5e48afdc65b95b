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
the smallest root, and bisection finds it.  Several cells (the rows of a
capacitance-enhancement sweep) share one halving loop, each row on its own
bracket.  The two segments' constants are stacked on a leading axis, so one
cos and one sin call serve t_1 and t_2 of every row at once.
"""

import math
from typing import NamedTuple, Sequence, Tuple, Union

import numpy as np

from .core import SegmentParams, checked
from .errors import BandEdgeError

_BISECTION_WIDTH = 1e-3  # Hz; comfortably below the 1 Hz contract

ArrayLike = Union[float, np.ndarray]


class TwoPortMatrix(NamedTuple):
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


@checked
class UnitCell(NamedTuple):
    """One period of the loaded line: nanowire rail plus bridge."""

    segment1: SegmentParams
    segment2: SegmentParams

    def _check(self) -> None:
        # the bisection bracket [0, 1/(2 cell_delay)], counted in _BISECTION_WIDTH steps
        delay = self.cell_delay
        if not (0.0 < delay < math.inf and 0.5 / delay / _BISECTION_WIDTH < math.inf):
            raise ValueError("segment lengths and line constants must keep the cell delay and "
                             f"1/(2 cell delay) positive and finite, got cell delay = {delay!r}")

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
        return self._replace(segment2=self.segment2._replace(
            capacitance_per_length=self.segment2.capacitance_per_length * ratio))


@checked
class MismatchReport(NamedTuple):
    """Frequency mismatch 2 f_m - (f_{m+n} + f_{m-n}) for a conversion pair."""

    m: int
    n: int
    delta_f: float
    signal_f: float

    def _check(self) -> None:
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


class _CellRows:
    """Constants of the half trace of one or more cells, one row per cell.

    Every constant is a (rows, 1) column, so it broadcasts against (rows, k)
    frequencies or targets and each row is evaluated with the arithmetic of
    :func:`cell_trace` on its own cell, giving the same bits.
    """

    def __init__(self, cells: Sequence[UnitCell]) -> None:
        def column(values, dtype=float) -> np.ndarray:
            return np.array(values, dtype=dtype).reshape(-1, 1)

        rails = [cell.segment1 for cell in cells]
        bridges = [cell.segment2 for cell in cells]
        f_top = [0.5 / cell.cell_delay for cell in cells]
        # rail (0) and bridge (1) stacked on a leading axis: phase velocity [m/s], length
        self.v = np.array([[s.phase_velocity for s in rails],
                           [s.phase_velocity for s in bridges]]).reshape(2, -1, 1)
        self.l = np.array([[s.length for s in rails],
                           [s.length for s in bridges]]).reshape(2, -1, 1)
        self.mismatch = column([0.5 * (s1.impedance / s2.impedance + s2.impedance / s1.impedance)
                                for s1, s2 in zip(rails, bridges)])
        self.f_top = column(f_top)  # bisection bracket top 1/(2 cell_delay) [Hz]
        # halvings that narrow each bracket below _BISECTION_WIDTH
        self.halvings = column(
            [math.ceil(math.log2(f / _BISECTION_WIDTH)) for f in f_top], int)

    def trace(self, f: np.ndarray) -> np.ndarray:
        """cos(k l_0) of each row's cell at that row's frequencies."""
        t = 2.0 * math.pi * f / self.v * self.l
        c, s = np.cos(t), np.sin(t)
        return c[0] * c[1] - self.mismatch * s[0] * s[1]

    def solve(self, n_cells: int, modes: np.ndarray) -> np.ndarray:
        """Roots of the half trace at cos(2*pi*m/N) for (rows, k) mode indices.

        One halving loop serves every row; a row stops at its own halving
        count, so each mode gets the bits of a solve of its cell alone.
        """
        if n_cells < 3:
            raise ValueError("n_cells must be >= 3")
        if np.any(modes < 1):
            raise ValueError(f"mode index must be >= 1, got {modes.min()}")
        if np.any(modes % n_cells == 0):
            raise ValueError("m = 0 (mod N) only has the trivial root f = 0")
        target = np.cos(2.0 * math.pi * modes / n_cells)
        f_lo = np.zeros(target.shape)
        f_hi = np.broadcast_to(self.f_top, target.shape)
        for i in range(self.halvings.max(initial=0)):
            mid = 0.5 * (f_lo + f_hi)
            above = self.trace(mid) > target
            live = i < self.halvings
            f_lo = np.where(above & live, mid, f_lo)
            f_hi = np.where(above | ~live, f_hi, mid)
        return 0.5 * (f_lo + f_hi)

    def mode_index(self, n_cells: int, frequency: np.ndarray) -> np.ndarray:
        """Nearest first-band mode index of each row's cell at (rows, k) frequencies."""
        if np.any(frequency < 0):
            raise ValueError("frequency must be non-negative")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed phase
            value = self.trace(frequency)
        unknown = np.isnan(value)
        if np.any(unknown):
            raise BandEdgeError(f"{float(frequency[unknown][0])} Hz gives a half trace "
                                "cos(k l_0) that is not a number")
        outside = np.abs(value) > 1.0
        if np.any(outside):
            raise BandEdgeError(
                f"{float(frequency[outside][0])} Hz lies outside the propagating band")
        phase = np.arccos(value)
        # past N/2 the indices mirror the branch
        return np.clip(np.rint(n_cells * phase / (2.0 * math.pi)).astype(int), 1, n_cells // 2)


def cell_trace(cell: UnitCell, frequency: ArrayLike) -> ArrayLike:
    """cos(k l_0) of the unit cell: half the trace of M_2 M_1."""
    f = np.asarray(frequency, dtype=float)
    if np.any(f < 0):
        raise ValueError("frequency must be non-negative")
    value = _CellRows([cell]).trace(f.reshape(1, -1)).reshape(f.shape)
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
    modes = np.asarray(m)
    roots = _CellRows([cell]).solve(n_cells, modes.reshape(1, -1)).reshape(modes.shape)
    if modes.ndim == 0:
        return float(roots)
    return roots


def mode_index_near(cell: UnitCell, n_cells: int,
                    frequency: ArrayLike) -> Union[int, np.ndarray]:
    """Index of the first-band mode closest to ``frequency`` [Hz].

    Inverts the dispersion relation directly: m = N*acos(cos k l_0)/(2 pi).
    One frequency gives an int, an array of them an int array of its shape.
    Raises ``BandEdgeError`` when a frequency lies in a stop band.
    """
    f = np.asarray(frequency, dtype=float)
    index = _CellRows([cell]).mode_index(n_cells, f.reshape(1, -1)).reshape(f.shape)
    if f.ndim == 0:
        return int(index)
    return index


class FsrCurve(NamedTuple):
    """f_m and f_{m+1} - f_m [Hz] columns of the modes in a band."""

    f: np.ndarray
    fsr: np.ndarray


def fsr_curve(cell: UnitCell, n_cells: int, band: Tuple[float, float]) -> FsrCurve:
    """(f_m, f_{m+1} - f_m) for every first-band mode in ``band`` [Hz].

    The top mode m = N/2 has no next one: its spacing is NaN.
    """
    lo, hi = band
    if hi <= lo:
        return FsrCurve(np.empty(0), np.empty(0))
    rows = _CellRows([cell])
    m_lo, m_hi = rows.mode_index(n_cells, np.array([[lo, hi]]))[0].tolist()
    modes = np.arange(max(1, m_lo - 1), min(m_hi + 1, n_cells // 2) + 1)
    f = rows.solve(n_cells, modes.reshape(1, -1))[0]
    fsr = np.diff(f, append=math.nan)
    inside = (lo <= f) & (f <= hi)
    return FsrCurve(f[inside], fsr[inside])


def conversion_mismatch(cell: UnitCell, n_cells: int, m: int, n: int) -> MismatchReport:
    """Mismatch 2 f_m - (f_{m+n} + f_{m-n}) when pumping m <-> m+n."""
    if n < 1 or m - n < 1:
        raise ValueError("require n >= 1 and m - n >= 1")
    modes = np.array([m - n, m, m + n])
    f_low, f_sig, f_high = solve_mode_frequency(cell, n_cells, modes).tolist()
    return MismatchReport(m=m, n=n, delta_f=2.0 * f_sig - (f_high + f_low), signal_f=f_sig)


class EnhancementPoint(NamedTuple):
    """The capacitance-enhancement sweep: one column per field, one row per
    (ratio, offset) pair, ratio-major."""

    ratio: np.ndarray
    offset: np.ndarray
    n: np.ndarray
    signal_f: np.ndarray
    delta_f: np.ndarray


def idc_enhancement_sweep(
    cell: UnitCell,
    n_cells: int,
    signal_f: float,
    offsets: Sequence[float],
    ratios: Sequence[float],
) -> EnhancementPoint:
    """Mismatch vs bridge-capacitance enhancement.  Rows are ordered ratio-major,
    then by offset.

    For each ratio the bridge capacitance is scaled (inductance unchanged)
    and m is the mode nearest ``signal_f``; for each idler offset n is
    chosen so f_{m+n} is nearest f_m + offset.  One row per ratio serves two
    bisections: the signal roots f_m, then every pair's f_{m-n} and f_{m+n},
    each row stopping at its own halving count, so the roots have the bits
    of :func:`conversion_mismatch`'s.  Raises ``ValueError`` for a
    non-positive offset, a negative frequency or a step without n >= 1 and
    m - n >= 1, and ``BandEdgeError`` for a frequency in a stop band.
    """
    offsets_hz = np.asarray(offsets, dtype=float)
    if np.any(offsets_hz <= 0):
        raise ValueError("idler offsets must be positive")
    rows = _CellRows([cell.with_capacitance_ratio(ratio) for ratio in ratios])
    m_sig = rows.mode_index(n_cells, np.full((len(ratios), 1), float(signal_f)))
    f_sig = rows.solve(n_cells, m_sig)
    n = rows.mode_index(n_cells, f_sig + offsets_hz) - m_sig
    bad = (n < 1) | (m_sig - n < 1)
    if bad.any():
        i, j = divmod(int(bad.argmax()), len(offsets))
        raise ValueError(
            f"must lie above the lowest usable mode: at ratio {ratios[i]!r} and offset "
            f"{offsets[j]!r} Hz the signal mode m = {int(m_sig[i, 0])} has idler step "
            f"n = {int(n[i, j])}, and the sweep needs n >= 1 and m - n >= 1")
    pairs = np.concatenate([m_sig - n, m_sig + n], axis=1)
    f_low, f_high = np.split(rows.solve(n_cells, pairs), 2, axis=1)
    delta_f = 2.0 * f_sig - (f_high + f_low)
    per_ratio = len(offsets)
    return EnhancementPoint(
        ratio=np.repeat(np.asarray(ratios, dtype=float), per_ratio),
        offset=np.tile(offsets_hz, len(ratios)), n=n.ravel(),
        signal_f=np.repeat(f_sig[:, 0], per_ratio), delta_f=delta_f.ravel())
