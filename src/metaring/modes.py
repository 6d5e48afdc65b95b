"""Resonant modes of the ring from the lumped LC chain model.

The ring is modeled as N identical LC cells closed on themselves.  Voltage
amplitudes obey a cyclic second-difference relation whose traveling-wave
solutions quantize the wave number to k_m = 2*pi*m/(N*l_0), giving

    f_m = f_0 * sqrt(1 - cos(2*pi*m/N)),   f_0 = 1/(2*pi*sqrt(L_0*C_0)),

where L_0 = (L_k + L_m)*l_0 and C_0 = C*l_0/2 are one cell's inductance and
capacitance; every solver here reads f_0 as ``RingSpec.cell_frequency``.
For m << N this reduces to the uniform-line ladder f_m = v_ph*m/l.  The modes
come in degenerate counter-propagating pairs (m, N-m), so the first branch
1 <= m <= N/2 holds every distinct frequency but the static m = 0;
``free_spectral_range`` evaluates the closed form over that whole branch and
keeps the modes in a band.

``eigenmode_frequencies`` solves the same problem as a dense N x N
eigenproblem and serves as the exact finite-N cross-check for the closed
form.  The floating inner island only shifts the static voltage offset (a
constant vector is annihilated by the second difference), so its potential
does not enter the spectrum.
"""

import math
from typing import NamedTuple

import numpy as np

from .core import RingSpec

_DENSE_SOLVE_LIMIT = 10_000


def analytic_mode_frequency(ring: RingSpec, m: int) -> float:
    """Closed-form frequency of mode ``m`` [Hz].

    Valid for 0 <= m < N.  The index is folded to min(m, N-m) before
    evaluation so the (m, N-m) degeneracy is exact by construction.
    """
    n_cells = ring.cell_count
    if not isinstance(m, (int, np.integer)) or not (0 <= m < n_cells):
        raise ValueError(f"mode index must satisfy 0 <= m < {n_cells}, got {m!r}")
    m_eff = min(int(m), n_cells - int(m))
    return ring.cell_frequency * math.sqrt(1.0 - math.cos(2.0 * math.pi * m_eff / n_cells))


class ModeTable(NamedTuple):
    """Modes in a band, sorted by index: ``m`` (int) and ``f`` [Hz] columns.

    ``fsr_mean`` is the mean of f_{m_{j+1}} - f_{m_j}, summed left to right;
    it is NaN when fewer than two modes fall in the band.
    """

    m: np.ndarray
    f: np.ndarray

    @property
    def fsr_mean(self) -> float:
        fsr = np.diff(self.f)
        # cumsum adds in order, as Python's sum does; np.sum adds pairwise
        return float(np.cumsum(fsr)[-1]) / len(fsr) if len(fsr) else math.nan


def free_spectral_range(ring: RingSpec, band: tuple) -> ModeTable:
    """All modes of the first branch (0 < m <= N/2) inside ``band`` [Hz].

    Both band edges are inclusive.  A band with ``hi < lo`` or one
    containing no mode yields an empty table.
    """
    lo, hi = band
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("band edges must be finite")
    n_cells = ring.cell_count
    # m <= N/2, so no index needs folding
    indices = np.arange(1, n_cells // 2 + 1)
    freqs = ring.cell_frequency * np.sqrt(1.0 - np.cos(2.0 * math.pi * indices / n_cells))
    inside = (lo <= freqs) & (freqs <= hi)
    return ModeTable(indices[inside], freqs[inside])


def _cyclic_second_difference(n_cells: int) -> np.ndarray:
    """The N x N operator 2 on the diagonal, -1 on the cyclic neighbours (N >= 3)."""
    matrix = 2.0 * np.eye(n_cells)
    rows = np.arange(n_cells)
    matrix[rows, (rows + 1) % n_cells] -= 1.0
    matrix[rows, (rows - 1) % n_cells] -= 1.0
    return matrix


def eigenmode_frequencies(ring: RingSpec, island_potential: float) -> np.ndarray:
    """Spectrum from the dense cyclic second-difference eigenproblem [Hz].

    Returns all N frequencies sorted ascending with degeneracies preserved.
    ``island_potential`` is accepted to document independence: a constant
    voltage offset of half the island potential absorbs it exactly, so the
    operator (and the spectrum) never depends on it.
    """
    if not math.isfinite(island_potential):
        raise ValueError("island_potential must be finite")
    n_cells = ring.cell_count
    if n_cells > _DENSE_SOLVE_LIMIT:
        raise ValueError(f"dense solve limited to N <= {_DENSE_SOLVE_LIMIT}, got {n_cells}")

    eigenvalues = np.linalg.eigvalsh(_cyclic_second_difference(n_cells))
    # the smallest true eigenvalue is (2*pi/N)^2 >= 4e-7 for N <= 1e4, far
    # above solver noise; anything below that floor is the exact-zero mode
    eigenvalues[eigenvalues < 1e-10] = 0.0
    # 2*(f/f0)**2 = eigenvalue of the second difference
    frequencies = ring.cell_frequency * np.sqrt(eigenvalues / 2.0)
    return np.sort(frequencies)
