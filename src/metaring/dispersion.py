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
band.  Every root lies on one bracket, [0, 1/(2 tau)] with tau the cell
delay.  Write t_j = k_j l_j and chi for the mismatch factor
(Z_1/Z_2 + Z_2/Z_1)/2 >= 1.  At the top of the bracket t_1 + t_2 = pi, so
the half-trace is -cos^2 t_1 - chi sin^2 t_1 <= -1 and the first band
closes inside the bracket.  On the bracket the half-trace is at most
cos(t_1 + t_2) < 1, and by Foster's reactance theorem it is strictly
monotone wherever it lies in (-1, 1).  So it falls from 1 to -1 across the
first band and stays at or below -1 from the band edge to the top: a second
band, once open, would have to rise to +1 before closing.  Every target in
[-1, 1) therefore has exactly one crossing on the bracket, the smallest
root.  Below it the half-trace lies above the target and falls; every other
point of the bracket lies above the root.  That keeps a safeguarded Newton
iteration (Numerical Recipes' rtsafe) on the root: each step narrows the
root's own bracket, uses the closed-form derivative of the half trace, and
falls back to the bracket's midpoint when it would leave the bracket or
where the trace does not fall.  All requested modes, and the rows of a
capacitance-enhancement sweep (one bridge capacitance each), share one
loop, each root stopping on its own test.  The two segments' constants are
stacked on a leading axis, so one cos and one sin call serve t_1 and t_2 of
every row at once.
"""

import math
from typing import NamedTuple, Sequence, Tuple, Union

import numpy as np

from .core import SegmentParams, checked
from .errors import BandEdgeError, PrecisionError

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
        # the root bracket [0, 1/(2 cell_delay)], and the wave numbers 2 pi f/v
        # at its top, the largest the half trace forms on its way to a phase
        delay = self.cell_delay
        if not (0.0 < delay < math.inf and 0.5 / delay < math.inf):
            raise ValueError("segment lengths and line constants must keep the cell delay and "
                             f"1/(2 cell delay) positive and finite, got cell delay = {delay!r}")
        k_top = [segment.wave_number(0.5 / delay) for segment in self]
        if not all(0.0 < k < math.inf for k in k_top):
            raise ValueError("each segment's wave number 2 pi f/v at the bracket top "
                             f"f = 1/(2 cell delay) must be positive and finite, got {k_top!r}")

    @property
    def cell_delay(self) -> float:
        return self.segment1.delay + self.segment2.delay


class MismatchReport(NamedTuple):
    """Frequency mismatch 2 f_m - (f_{m+n} + f_{m-n}) for a conversion pair."""

    delta_f: float
    signal_f: float


def segment_abcd(segment: SegmentParams, frequency: float) -> TwoPortMatrix:
    """ABCD matrix of one lossless segment at ``frequency`` [Hz]."""
    if not frequency >= 0:
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
    """Half-trace constants of a cell, its bridge capacitance scaled by each ratio.

    Every constant is a (rows, 1) column, or two of them stacked for the
    rail and the bridge, so it broadcasts against (rows, k) frequencies or
    targets.  A row takes the operations of its scaled cell's properties in
    their order, so it gets the bits of :func:`cell_trace` on that cell.
    """

    step_cap = 64  # Newton steps allowed a root: a count, as its stop width is relative

    def __init__(self, cell: UnitCell, ratios: Sequence[float] = (1.0,)) -> None:
        rail, bridge = cell
        r = np.asarray(ratios, dtype=float).reshape(-1, 1)
        with np.errstate(all="ignore"):  # refused rows are never read; overflow means a NaN trace
            c = bridge.capacitance_per_length * r
            lc, l_over_c = bridge.inductance_per_length * c, bridge.inductance_per_length / c
            v, z = 1.0 / np.sqrt(lc), np.sqrt(l_over_c)
            delay = rail.delay + bridge.length / v
            self.f_top = 0.5 / delay  # bracket top 1/(2 cell_delay) [Hz]
            # rail (0) and bridge (1) stacked on a leading axis: phase velocity [m/s], length
            self.v = np.stack([np.full(v.shape, rail.phase_velocity), v])
            self.l = np.array([rail.length, bridge.length]).reshape(2, 1, 1)
            self.mismatch = 0.5 * (rail.impedance / z + z / rail.impedance)
            self.omega = 2.0 * math.pi * self.l / self.v  # t_j = omega_j f
            # the checks of the scaled records: each of these in (0, inf)
            checked = np.stack([c, lc, l_over_c, delay, *(2.0 * math.pi * self.f_top / self.v)])
            kept = (1.0 <= r) & np.all((0.0 < checked) & (checked < math.inf), axis=0)
        if not kept.all():  # the first refused ratio, with its records' own message
            ratio = ratios[int(kept.argmin())]
            if ratio < 1.0:
                raise ValueError(f"capacitance enhancement ratio must be >= 1, got {ratio!r}")
            cell._replace(segment2=bridge._replace(
                capacitance_per_length=bridge.capacitance_per_length * ratio))

    def _phases(self, f: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        t = 2.0 * math.pi * f / self.v * self.l
        return np.cos(t), np.sin(t)

    def _half_trace(self, c: np.ndarray, s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """cos(k l_0) at the phases' cosines ``c`` and sines ``s``, and its
        rounding floor 2**-50 (|cos t_1 cos t_2| + chi |sin t_1 sin t_2|)."""
        cc, chi_ss = c[0] * c[1], self.mismatch * s[0] * s[1]
        return cc - chi_ss, (np.abs(cc) + np.abs(chi_ss)) * 2.0**-50

    def trace(self, f: np.ndarray) -> np.ndarray:
        """cos(k l_0) of each row's cell at that row's frequencies."""
        return self._half_trace(*self._phases(f))[0]

    def solve(self, n_cells: int, modes: np.ndarray) -> np.ndarray:
        """Roots of the half trace at cos(2*pi*m/N) for (rows, k) mode indices.

        Newton steps kept inside each root's bracket [0, 1/(2 cell_delay)],
        from the uniform-line root acos(cos(2*pi*m/N))/(omega_1 + omega_2).
        A root stops on its own test: |half trace - target| at the rounding
        floor, or a step or bracket below 2**-46 of the root.  Every
        operation is elementwise, so each mode gets the bits of a solve of
        its cell alone.  Raises ``PrecisionError`` naming the modes that
        have not stopped after ``step_cap`` steps.
        """
        if n_cells < 3:
            raise ValueError("n_cells must be >= 3")
        if not np.all(modes >= 1):
            raise ValueError(f"mode index must be >= 1, got {modes.min()}")
        if np.any(modes % n_cells == 0):
            raise ValueError("m = 0 (mod N) only has the trivial root f = 0")
        target = np.cos(2.0 * math.pi * modes / n_cells)
        f_lo = np.zeros(target.shape)
        f_hi = np.broadcast_to(self.f_top, target.shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            f = np.minimum(np.arccos(target) / (self.omega[0] + self.omega[1]), f_hi)
            for _ in range(self.step_cap):
                c, s = self._phases(f)
                value, floor = self._half_trace(c, s)
                g = value - target
                # -dg/df = sum_j omega_j (sin t_j cos t_i + chi cos t_j sin t_i), i != j;
                # chi multiplies a sine of the other segment, as in the half
                # trace, so a huge chi with a tiny phase stays finite; a flat
                # trace (zero slope) gives no Newton step and bisects
                slope = self.omega * (s * c[::-1] + c * (self.mismatch * s)[::-1])
                slope = slope[0] + slope[1]
                step = g / slope
                # below the root the half trace falls (Foster), so a point
                # where it does not lies above the root, whatever the sign
                # of g: past the band edge the trace may climb back to -1,
                # and rounding may lift it over -1 near the bracket top
                falling = slope > 0.0
                above = (g > 0.0) & falling
                f_lo = np.where(above, f, f_lo)
                f_hi = np.where(above, f_hi, f)
                # where it falls, |g| at the rounding floor of the trace or a
                # step below 2**-46 of the root stops it; anywhere, a bracket
                # that narrow.  The width is relative, so scaling every
                # frequency by a power of two scales the roots' bits alike
                tol = f * 2.0**-46
                done = (falling & ((np.abs(g) <= floor) | (np.abs(step) <= tol))
                        | (f_hi - f_lo <= tol))
                f_new = f + step
                inside = falling & (f_lo < f_new) & (f_new < f_hi)
                if done.all():  # one last Newton step, where it stays in the bracket
                    return np.where(inside, f_new, f)
                f = np.where(done, f, np.where(inside, f_new, 0.5 * (f_lo + f_hi)))
        raise PrecisionError(
            f"Bloch root solve: modes m = {modes[~done].tolist()} of N = {n_cells} did not "
            f"converge in {self.step_cap} Newton steps")

    def mode_index(self, n_cells: int, frequency: np.ndarray) -> np.ndarray:
        """Nearest first-band mode index of each row's cell at (rows, k) frequencies."""
        if not np.all(frequency >= 0):
            raise ValueError("frequency must be non-negative")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed phase
            value, floor = self._half_trace(*self._phases(frequency))
        unknown = np.isnan(value)
        if np.any(unknown):
            raise BandEdgeError(f"{float(frequency[unknown][0])} Hz gives a half trace "
                                "cos(k l_0) that is not a number")
        # the band test of solve, whose root at a band edge may round past
        # +-1 by up to the floor; an infinite trace has an infinite floor
        outside = (np.abs(value) - 1.0 > floor) | np.isinf(value)
        if np.any(outside):
            raise BandEdgeError(
                f"{float(frequency[outside][0])} Hz lies outside the propagating band")
        phase = np.arccos(np.clip(value, -1.0, 1.0))
        # past N/2 the indices mirror the branch
        return np.clip(np.rint(n_cells * phase / (2.0 * math.pi)).astype(int), 1, n_cells // 2)


def cell_trace(cell: UnitCell, frequency: ArrayLike) -> ArrayLike:
    """cos(k l_0) of the unit cell: half the trace of M_2 M_1."""
    f = np.asarray(frequency, dtype=float)
    if not np.all(f >= 0):
        raise ValueError("frequency must be non-negative")
    value = _CellRows(cell).trace(f.reshape(1, -1)).reshape(f.shape)
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
    (returns an array of the same shape).  Every root is found by Newton
    steps kept inside the bracket [0, 1/(2 cell_delay)] (see the module
    docstring) and stops on its own test, a step or bracket below 2**-46 of
    the root or a residual at rounding level, so a mode gets the
    same bits whether solved alone or in an array.  Raises ``ValueError``
    for an m below 1 or NaN and for the trivial m = 0 (mod N) target, and
    ``PrecisionError`` for a root that does not stop within the step cap.
    """
    modes = np.asarray(m)
    roots = _CellRows(cell).solve(n_cells, modes.reshape(1, -1)).reshape(modes.shape)
    if modes.ndim == 0:
        return float(roots)
    return roots


def mode_index_near(cell: UnitCell, n_cells: int,
                    frequency: ArrayLike) -> Union[int, np.ndarray]:
    """Index of the first-band mode closest to ``frequency`` [Hz].

    Inverts the dispersion relation directly: m = N*acos(cos k l_0)/(2 pi).
    One frequency gives an int, an array of them an int array of its shape.
    Raises ``ValueError`` for a negative or NaN frequency and
    ``BandEdgeError`` for one in a stop band, where the half trace passes
    +-1 by more than the rounding floor at which :func:`solve_mode_frequency`
    accepts a root, so every root it returns has an index.
    """
    f = np.asarray(frequency, dtype=float)
    index = _CellRows(cell).mode_index(n_cells, f.reshape(1, -1)).reshape(f.shape)
    if f.ndim == 0:
        return int(index)
    return index


class FsrCurve(NamedTuple):
    """f_m and f_{m+1} - f_m [Hz] columns of the modes in a band."""

    f: np.ndarray
    fsr: np.ndarray


def fsr_curve(cell: UnitCell, n_cells: int, band: Tuple[float, float]) -> FsrCurve:
    """(f_m, f_{m+1} - f_m) for every first-band mode in ``band`` [Hz].

    Both edges are inclusive, so ``hi < lo`` gives an empty curve, and each
    is refused as :func:`mode_index_near` refuses it, a negative or NaN one
    too.  The top mode m = N/2 has no next one: its spacing is NaN.
    """
    lo, hi = band
    rows = _CellRows(cell)
    m_lo, m_hi = rows.mode_index(n_cells, np.array([[lo, hi]]))[0].tolist()
    modes = np.arange(max(1, m_lo - 1), min(m_hi + 1, n_cells // 2) + 1)
    f = rows.solve(n_cells, modes.reshape(1, -1))[0]
    fsr = np.diff(f, append=math.nan)
    inside = (lo <= f) & (f <= hi)
    return FsrCurve(f[inside], fsr[inside])


def conversion_mismatch(cell: UnitCell, n_cells: int, m: int, n: int) -> MismatchReport:
    """Mismatch 2 f_m - (f_{m+n} + f_{m-n}) when pumping m <-> m+n, and the
    signal frequency f_m [Hz]."""
    if n < 1 or m - n < 1:
        raise ValueError("require n >= 1 and m - n >= 1")
    modes = np.array([m - n, m, m + n])
    f_low, f_sig, f_high = solve_mode_frequency(cell, n_cells, modes).tolist()
    return MismatchReport(delta_f=2.0 * f_sig - (f_high + f_low), signal_f=f_sig)


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
    chosen so f_{m+n} is nearest f_m + offset.  One row per ratio, built in
    one array pass, serves two root solves: the signal roots f_m, then every
    pair's f_{m-n} and f_{m+n}, each root stopping on its own test, so the
    roots have the bits of :func:`conversion_mismatch`'s.  Raises ``ValueError``
    for the first ratio below 1 or out of its scaled records' checks, a
    non-positive offset, a negative frequency or a step without n >= 1 and
    m - n >= 1, ``BandEdgeError`` for a frequency in a stop band and
    ``PrecisionError`` for a root that does not stop within the step cap.
    """
    offsets_hz = np.asarray(offsets, dtype=float)
    if not np.all(offsets_hz > 0):
        raise ValueError("idler offsets must be positive")
    rows = _CellRows(cell, ratios)
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
