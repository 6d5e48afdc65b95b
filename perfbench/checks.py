"""Output checks computed apart from the package.

Each check reads one data file of a ``metaring sweep`` output directory,
recomputes what the file should hold from the raw JSON config with this
module's own numpy code, and returns a list of problems (empty when the file
is right).  Nothing here imports ``metaring``.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
PLANCK_H = 6.62607015e-34
REL = 1e-12             # closed forms recomputed with the same arithmetic
ROOT_BRACKET_HZ = 1.0   # contract on every Bloch root
MISMATCH_TOL_HZ = 0.05  # four roots bisected below 1e-3 Hz each
TAYLOR_REL = 1e-5       # ten times the 1e-6 agreement that stops the Richardson loop
KERR_REL = 1e-10        # cubic residual against the size of its terms
FIT_REL = 0.01          # f0, Q_in, Q_ex recovered within 1 %

DATA_FILES = (
    "modes.csv", "fsr_curve.csv", "mismatch.csv", "tuning.csv", "pump.csv",
    "spectrum.csv", "pairs.csv", "fringe.csv", "saturation.csv",
    "modes_summary.json", "convert_summary.json", "fringe_summary.json",
    "kerr_summary.json", "fit_result.json",
)


_CELLS = {"": math.nan, "true": 1.0, "false": 0.0}


def read_csv(path: Path) -> np.ndarray:
    """Rows as floats: NaN for an empty cell, 1/0 for true/false."""
    with open(path, newline="") as handle:
        header, *body = list(csv.reader(handle))
    values = [[_CELLS[v] if v in _CELLS else float(v) for v in row] for row in body]
    return np.array(values, dtype=float).reshape(len(body), len(header))


def _mismatches(name: str, column: str, got, want, rel: float, floor: float = 0.0):
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return [f"{name}: {column} has {got.size} rows, expected {want.size}"]
    bad = np.flatnonzero(~(np.abs(got - want) <= rel * np.abs(want) + floor))
    if bad.size:
        j = int(bad[0])
        return [f"{name}: {column} row {j} is {got[j]!r}, expected {want[j]!r} "
                f"({bad.size} rows off)"]
    return []


def _stop_tesla(field: dict) -> float:
    return field["stop_T"] if "stop_T" in field else field["stop_mT"] * 1e-3


# ---------------------------------------------------------------- modes.csv

def check_modes(out: Path, cfg: dict) -> list:
    ring = cfg["device"]["ring"]
    band = cfg["sweep"]["band"]
    seg1, seg2 = ring["segment1"], ring.get("segment2")
    cell_len = seg1["length"] + (seg2["length"] if seg2 else 0.0)
    l_total = ring["kinetic_inductance_per_length"] + ring["geometric_inductance_per_length"]
    l0 = l_total * cell_len
    c0 = seg1["capacitance_per_length"] * cell_len / 2.0
    f_cell = 1.0 / (TWO_PI * math.sqrt(l0 * c0))
    n = ring["cell_count"]
    m_all = np.arange(1, n // 2 + 1)
    f_all = f_cell * np.sqrt(1.0 - np.cos(TWO_PI * m_all / n))
    inside = (f_all >= band["start_hz"]) & (f_all <= band["stop_hz"])
    data = read_csv(out / "modes.csv")
    name = "modes.csv"
    problems = _mismatches(name, "m", data[:, 0], m_all[inside], 0.0)
    if problems:
        return problems
    problems += _mismatches(name, "f_hz", data[:, 1], f_all[inside], REL)
    problems += _mismatches(name, "fsr_to_next_hz", data[:-1, 2], np.diff(data[:, 1]), 1e-9)
    if len(data) and not math.isnan(data[-1, 2]):
        problems.append(f"{name}: last fsr_to_next_hz should be empty")
    return problems


# ---------------------------------------------------- Bloch dispersion files

def half_trace(cell: dict, freq, ratio: float = 1.0) -> np.ndarray:
    """cos(k l0) of the two-segment cell, bridge capacitance scaled by ratio."""
    freq = np.asarray(freq, dtype=float)
    s1, s2 = cell["segment1"], cell["segment2"]
    c2 = s2["capacitance_per_length"] * ratio
    phase1 = TWO_PI * freq * s1["length"] * math.sqrt(s1["inductance_per_length"]
                                                      * s1["capacitance_per_length"])
    phase2 = TWO_PI * freq * s2["length"] * math.sqrt(s2["inductance_per_length"] * c2)
    z1 = math.sqrt(s1["inductance_per_length"] / s1["capacitance_per_length"])
    z2 = math.sqrt(s2["inductance_per_length"] / c2)
    chi = 0.5 * (z1 / z2 + z2 / z1)
    return np.cos(phase1) * np.cos(phase2) - chi * np.sin(phase1) * np.sin(phase2)


def _nearest_mode(cell: dict, n: int, freq, ratio: float = 1.0) -> np.ndarray:
    value = np.clip(half_trace(cell, freq, ratio), -1.0, 1.0)
    return np.maximum(1, np.rint(n * np.arccos(value) / TWO_PI)).astype(np.int64)


def bloch_roots(cell: dict, n: int, modes, ratio: float = 1.0) -> np.ndarray:
    """First-band roots of half_trace(f) = cos(2 pi m/N), bisected to rounding."""
    s1, s2 = cell["segment1"], cell["segment2"]
    delay = (s1["length"] * math.sqrt(s1["inductance_per_length"] * s1["capacitance_per_length"])
             + s2["length"] * math.sqrt(s2["inductance_per_length"]
                                        * s2["capacitance_per_length"] * ratio))
    grid = np.linspace(0.0, 1.0 / delay, 200001)
    g = half_trace(cell, grid, ratio)
    edge = int(np.argmax(g <= -1.0)) if np.any(g <= -1.0) else len(grid) - 1
    targets = np.cos(TWO_PI * np.asarray(modes, dtype=float) / n)
    # the half-trace falls monotonically across the first passband
    idx = np.searchsorted(-g[: edge + 1], -targets)
    lo, hi = grid[idx - 1], grid[idx]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = half_trace(cell, mid, ratio) > targets
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def _bracketed(cell: dict, n: int, freq, modes) -> np.ndarray:
    targets = np.cos(TWO_PI * np.asarray(modes, dtype=float) / n)
    below = half_trace(cell, np.asarray(freq) - ROOT_BRACKET_HZ) - targets
    above = half_trace(cell, np.asarray(freq) + ROOT_BRACKET_HZ) - targets
    return (below > 0.0) & (above < 0.0)


def check_fsr_curve(out: Path, cfg: dict) -> list:
    cell = cfg["device"]["cell"]
    n = cfg["device"]["ring"]["cell_count"]
    lo, hi = cfg["sweep"]["band"]["start_hz"], cfg["sweep"]["band"]["stop_hz"]
    name = "fsr_curve.csv"
    data = read_csv(out / name)
    if not len(data):
        return [f"{name}: no rows"]
    freq, fsr = data[:, 0], data[:, 1]
    modes = _nearest_mode(cell, n, freq)
    problems = []
    if np.any(np.diff(modes) != 1):
        problems.append(f"{name}: mode indices are not consecutive")
    for label, f, m in (("f_hz", freq, modes), ("f_hz + fsr_hz", freq + fsr, modes + 1)):
        bad = np.flatnonzero(~_bracketed(cell, n, f, m))
        if bad.size:
            problems.append(f"{name}: {label} row {int(bad[0])} ({f[bad[0]]!r}) is not within "
                            f"{ROOT_BRACKET_HZ} Hz of the root of mode {int(m[bad[0]])}")
    g_lo, g_hi = half_trace(cell, [lo, hi])
    first, last = int(modes[0]), int(modes[-1])
    cos_m = lambda m: math.cos(TWO_PI * m / n)  # noqa: E731
    if not (cos_m(first) <= g_lo < cos_m(first - 1)):
        problems.append(f"{name}: first row is not the first mode above {lo} Hz")
    if not (cos_m(last + 1) < g_hi <= cos_m(last)):
        problems.append(f"{name}: last row is not the last mode below {hi} Hz")
    return problems


def check_mismatch(out: Path, cfg: dict) -> list:
    cell = cfg["device"]["cell"]
    n = cfg["device"]["ring"]["cell_count"]
    ratio_cfg = cfg["sweep"]["ratio"]
    name = "mismatch.csv"
    data = read_csv(out / name)
    expected = [(r, o) for r in ratio_cfg["values"] for o in ratio_cfg["offsets_hz"]]
    if [tuple(row[:2]) for row in data] != [(float(r), float(o)) for r, o in expected]:
        return [f"{name}: (ratio, offset_hz) rows do not follow the config"]
    want = []
    for ratio in ratio_cfg["values"]:
        m_sig = int(_nearest_mode(cell, n, ratio_cfg["signal_hz"], ratio))
        f_sig = float(bloch_roots(cell, n, [m_sig], ratio)[0])
        for offset in ratio_cfg["offsets_hz"]:
            step = int(_nearest_mode(cell, n, f_sig + offset, ratio)) - m_sig
            f_low, f_mid, f_high = bloch_roots(cell, n, [m_sig - step, m_sig, m_sig + step], ratio)
            want.append(2.0 * f_mid - (f_high + f_low))
    return _mismatches(name, "delta_f_hz", data[:, 2], want, 0.0, MISMATCH_TOL_HZ)


# --------------------------------------------------------------- tuning.csv

def check_tuning(out: Path, cfg: dict) -> list:
    loop = cfg["device"]["microloop"]
    field = cfg["sweep"]["field"]
    name = "tuning.csv"
    data = read_csv(out / name)
    b = np.linspace(0.0, _stop_tesla(field), field["points"])
    problems = _mismatches(name, "b_ext_tesla", data[:, 0], b, REL)
    if problems:
        return problems
    i_star, l2, gamma = loop["i_star_narrow"], loop["inductance_narrow"], loop["width_ratio"]
    i_dc = b * loop["gap"] / loop["loop_dc_inductance"]
    ratio = (i_dc**2 + i_star**2) / (gamma**2 * i_dc**2 + i_star**2)
    prefactor = 2.0 * i_dc * l2 / i_star**2
    twm = prefactor * (ratio**3 - 1.0)
    fwm = l2 / (2.0 * i_star**2) * (1.0 + ratio**4 / gamma)
    problems += _mismatches(name, "i_dc_amp", data[:, 1], i_dc, REL)
    problems += _mismatches(name, "df_over_f", data[:, 2], -(gamma / 2.0) * (i_dc / i_star) ** 2, REL)
    # ratio**3 - 1 cancels near zero bias: allow for the rounding of ratio**3
    problems += _mismatches(name, "T", data[:, 3], twm, REL, 1e-14 * np.abs(prefactor))
    problems += _mismatches(name, "F", data[:, 4], fwm, REL)
    # the cubic coefficient vanishes at zero bias; like the solver's own stop
    # rule, measure it against the quartic term over a 0.2 i* step
    problems += _mismatches(name, "c3", data[:, 5], twm, TAYLOR_REL,
                            TAYLOR_REL * 0.2 * fwm * i_star)
    problems += _mismatches(name, "c4", data[:, 6], fwm, TAYLOR_REL)
    return problems


# ----------------------------------------------- pump.csv and spectrum.csv

def _cooperativity(conv: dict) -> float:
    if conv.get("p0_norm", 1.0) is not None:
        return conv.get("p0_norm", 1.0)
    return 4.0 * conv.get("g0", 0.0) ** 2 * conv["n_eff"] / (conv["kappa_s"] * conv["kappa_i"])


def _unitary(name: str, t2, r2) -> list:
    # r2 = 1 - t2 in floating point: their sum is one within two ulp
    bad = np.flatnonzero(np.abs(t2 + r2 - 1.0) > 2.3e-16)
    return [f"{name}: t2 + r2 != 1 at row {int(bad[0])}"] if bad.size else []


def check_pump(out: Path, cfg: dict) -> list:
    conv, pump = cfg["converter"], cfg["sweep"]["pump"]
    name = "pump.csv"
    data = read_csv(out / name)
    c = np.linspace(0.0, pump["stop"], pump["points"])
    problems = _mismatches(name, "p0_norm", data[:, 0], c, REL)
    if problems:
        return problems
    t2 = np.minimum(conv["eta_s"] * conv["eta_i"] * 4.0 * c / (1.0 + c) ** 2, 1.0)
    problems += _mismatches(name, "t2", data[:, 1], t2, REL)
    problems += _mismatches(name, "r2", data[:, 2], 1.0 - t2, REL)
    return problems + _unitary(name, data[:, 1], data[:, 2])


def check_spectrum(out: Path, cfg: dict) -> list:
    conv, det = cfg["converter"], cfg["sweep"]["detuning"]
    name = "spectrum.csv"
    data = read_csv(out / name)
    delta = np.linspace(-det["span_hz"] / 2.0, det["span_hz"] / 2.0, det["points"])
    problems = _mismatches(name, "delta_hz", data[:, 0], delta, REL, 1e-300)
    if problems:
        return problems
    ks, ki = conv["kappa_s"], conv["kappa_i"]
    g2 = _cooperativity(conv) * ks * ki / 4.0
    response = (ks / 2.0 - 1j * delta) * (ki / 2.0 - 1j * delta) + g2
    t2 = conv["eta_s"] * conv["eta_i"] * ks * ki * g2 / np.abs(response) ** 2
    problems += _mismatches(name, "t2", data[:, 1], t2, REL)
    problems += _mismatches(name, "r2", data[:, 2], 1.0 - t2, REL)
    return problems + _unitary(name, data[:, 1], data[:, 2])


# --------------------------------------------------------------- fringe.csv

def check_fringe(out: Path, cfg: dict) -> list:
    fr = cfg["converter"]["fringe"]
    points = cfg["sweep"]["phase"]["points"]
    name = "fringe.csv"
    data = read_csv(out / name)
    c = fr["cooperativity"]
    t2 = min(fr.get("eta_s", 1.0) * fr.get("eta_i", 1.0) * 4.0 * c / (1.0 + c) ** 2, 1.0)
    r, t = math.sqrt(1.0 - t2), math.sqrt(t2)
    phi = np.linspace(0.0, TWO_PI, points)
    problems = _mismatches(name, "phi_rad", data[:, 0], phi, REL, 1e-300)
    if problems or not points:
        return problems
    power = data[:, 1]
    top, bottom = (r + t) ** 2, (r - t) ** 2
    # the grid holds phi = 0 exactly and comes within half a step of pi
    slack = 2.0 * r * t * (1.0 - math.cos(math.pi / max(points - 1, 1))) + 1e-12
    if abs(power.max() - top) > REL * top:
        problems.append(f"{name}: maximum {power.max()!r} is not (r+t)^2 = {top!r}")
    if not (bottom - 1e-12 <= power.min() <= bottom + slack):
        problems.append(f"{name}: minimum {power.min()!r} is not (r-t)^2 = {bottom!r}")
    if np.any(power > top * (1 + REL)) or np.any(power < bottom - 1e-12):
        problems.append(f"{name}: p_ratio leaves [(r-t)^2, (r+t)^2]")
    problems += _mismatches(name, "p_ratio", power, r * r + t * t + 2 * r * t * np.cos(phi),
                            1e-12, 1e-15)
    return problems


# ----------------------------------------------------------- saturation.csv

def check_saturation(out: Path, cfg: dict) -> list:
    kerr = cfg["converter"]["kerr"]
    pump = cfg["sweep"]["pump"]
    name = "saturation.csv"
    data = read_csv(out / name)
    ratios = np.linspace(0.0, pump["stop"], pump["points"])
    problems = _mismatches(name, "drive_over_critical", data[:, 0], ratios, REL)
    if problems:
        return problems
    kappa = kerr["frequency_hz"] / kerr["quality_factor"]
    kappa_ex = kerr["coupling_efficiency"] * kappa
    rate = kerr["rate_hz"]
    flux_c = TWO_PI * kappa**3 / (3.0 * math.sqrt(3.0) * rate * kappa_ex)
    problems += _mismatches(name, "drive_w", data[:, 1],
                            ratios * flux_c * PLANCK_H * kerr["frequency_hz"], REL)
    # n [(k/2)^2 + (D - K n)^2] = k_ex flux in angular units, driven at twice
    # the critical detuning sqrt(3) k/2
    k_ang, kap, kap_ex = TWO_PI * rate, TWO_PI * kappa, TWO_PI * kappa_ex
    delta = TWO_PI * math.sqrt(3.0) * kappa
    drive = kap_ex * ratios * flux_c
    branches = data[:, 2:5]
    for j in range(3):
        n = branches[:, j]
        have = ~np.isnan(n)
        residual = n * ((kap / 2) ** 2 + (delta - k_ang * n) ** 2) - drive
        size = n * ((kap / 2) ** 2 + delta**2 + (k_ang * n) ** 2) + drive
        bad = np.flatnonzero(have & ~(np.abs(residual) <= KERR_REL * size))
        if bad.size:
            problems.append(f"{name}: branch {j} at row {int(bad[0])} misses the Kerr cubic")
        if np.any(have & (n <= 0.0)):
            problems.append(f"{name}: branch {j} holds a non-positive photon number")
    count = (~np.isnan(branches)).sum(axis=1)
    # discriminant of a n^3 + b n^2 + c n + d: three real (all positive) roots
    # when it is positive, one when negative
    a, b, c, d = k_ang**2, -2.0 * delta * k_ang, (kap / 2) ** 2 + delta**2, -drive
    terms = np.array([18 * a * b * c * d, -4 * b**3 * d, np.full_like(d, b * b * c * c),
                      np.full_like(d, -4 * a * c**3), -27 * a * a * d * d])
    disc = terms.sum(axis=0)
    clear = np.abs(disc) > 1e-6 * np.abs(terms).max(axis=0)
    want = np.where(drive == 0.0, 0, np.where(disc > 0, 3, 1))
    bad = np.flatnonzero(clear & (count != want))
    if bad.size:
        j = int(bad[0])
        problems.append(f"{name}: row {j} has {int(count[j])} branches, expected {int(want[j])}")
    if np.any((data[:, 5] == 1.0) != (count == 3)):
        problems.append(f"{name}: bifurcated does not flag the three-branch rows")
    return problems


SWEEP_CHECKS = {
    "modes.csv": check_modes,
    "fsr_curve.csv": check_fsr_curve,
    "mismatch.csv": check_mismatch,
    "tuning.csv": check_tuning,
    "pump.csv": check_pump,
    "spectrum.csv": check_spectrum,
    "fringe.csv": check_fringe,
    "saturation.csv": check_saturation,
}


def check_sweep(out: Path, cfg: dict) -> list:
    """Every data-file check on one sweep output directory."""
    problems = []
    for name in DATA_FILES:
        if not (out / name).is_file():
            problems.append(f"{name}: missing")
    if problems:
        return problems
    for check in SWEEP_CHECKS.values():
        problems += check(out, cfg)
    return problems


def digests(out: Path) -> dict:
    """sha256 of every data file; the manifest carries a timestamp, so it is left out."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in DATA_FILES if (out / name).is_file()}


def compare_digests(first: dict, other: dict, label: str) -> list:
    changed = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
    return [f"{label}: {', '.join(changed)} differ from the first operation"] if changed else []


def check_fit(label: str, parameters: dict, truth: dict) -> list:
    """f0, Q_in and Q_ex recovered within FIT_REL of the generating values."""
    off = {k: parameters[k] / v - 1.0 for k, v in truth.items()}
    bad = {k: e for k, e in off.items() if not abs(e) <= FIT_REL}
    return [f"fit {label}: relative errors {bad} exceed {FIT_REL}"] if bad else []
