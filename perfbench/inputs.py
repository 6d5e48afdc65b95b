"""Seeded inputs of the benchmark workloads.

Nothing here calls the package: the scaled config is the shipped
``configs/default.json`` plus the overrides below, and the fit traces come
from this module's own numpy S11 formula.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

# Overrides of configs/default.json for the scaled sweep.  The sizes keep the
# dispersion, saturate and tune runners each near a third of a sweep or less.
SCALED_CELL_COUNT = 32000           # ten times the shipped 3200
SCALED_FIELD_POINTS = 6001
SCALED_PUMP_POINTS = 8001
SCALED_DETUNING_POINTS = 8001
SCALED_PHASE_POINTS = 8001
SCALED_RATIO_VALUES = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
# Seeded ranges of the sweep stops; none of them changes the amount of work.
FIELD_STOP_MT = (0.15, 0.20)
PUMP_STOP = (3.0, 4.0)
DETUNING_SPAN_HZ = (0.8e6, 1.2e6)

TINY_POINTS = 41
TINY_RATIO_VALUES = [1.0, 2.0]

# Fit batch: the resonance of the acceptance suite's criterion 13, which is
# also the resonance of the shipped trace configs/trace_s11.csv.
F0, Q_IN, Q_EX = 4.85e9, 3.93e5, 2.51e4
AMPLITUDE, PHASE_OFFSET, DELAY = 0.8, 0.3, 1e-9
DESIGN_POINTS, DESIGN_HALF_SPAN_HZ, DESIGN_NOISE = 6001, 0.75e6, 0.01
# The shipped trace's grid (801 points, 2.5 kHz apart from 4849 MHz).  Its
# noise is 0.2 % rather than the shipped 1 %: at 801 points and 1 % noise the
# Q_in estimate itself spreads by about 1 %, so the 1 % recovery check would
# test the noise, not the fit.
SHIPPED_POINTS, SHIPPED_START_HZ, SHIPPED_STEP_HZ, SHIPPED_NOISE = 801, 4849e6, 2500.0, 0.002
# Noise seeds are fixed so that the set of traces the fit fails to converge on
# is the same in every run; --seed only shuffles the order of the batch.
DESIGN_SEEDS = range(0, 48)
SHIPPED_SEEDS = range(1000, 1064)
TINY_DESIGN_SEEDS = range(0, 2)
TINY_SHIPPED_SEEDS = range(1000, 1002)


def scaled_config(default_path: Path, trace_path: Path, seed: int, tiny: bool = False) -> dict:
    """configs/default.json with the scaled-sweep overrides applied."""
    raw = json.loads(Path(default_path).read_text())
    cfg = copy.deepcopy(raw)
    rng = np.random.default_rng(seed)
    sweep = cfg["sweep"]
    cfg["device"]["ring"]["cell_count"] = 3200 if tiny else SCALED_CELL_COUNT
    points = TINY_POINTS if tiny else None
    sweep["field"] = {"stop_mT": float(rng.uniform(*FIELD_STOP_MT)),
                      "points": points or SCALED_FIELD_POINTS}
    sweep["pump"] = {"stop": float(rng.uniform(*PUMP_STOP)),
                     "points": points or SCALED_PUMP_POINTS}
    sweep["detuning"] = {"span_hz": float(rng.uniform(*DETUNING_SPAN_HZ)),
                         "points": points or SCALED_DETUNING_POINTS}
    sweep["phase"] = {"points": points or SCALED_PHASE_POINTS}
    sweep["ratio"]["values"] = list(TINY_RATIO_VALUES if tiny else SCALED_RATIO_VALUES)
    cfg["fit"] = {"trace_csv": str(Path(trace_path).resolve())}
    return cfg


def s11(freq: np.ndarray, f0: float, q_in: float, q_ex: float,
        amplitude: float, phase_offset: float, delay: float, f_ref: float) -> np.ndarray:
    """One-port reflection of a resonator behind a cable, referenced to f_ref."""
    detune = (freq - f0) / f0
    loss_ex, loss_in = 1.0 / q_ex, 1.0 / q_in
    resonator = ((loss_ex - loss_in) - 2j * detune) / ((loss_ex + loss_in) + 2j * detune)
    cable = amplitude * np.exp(1j * (phase_offset + 2.0 * math.pi * (freq - f_ref) * delay))
    return cable * resonator


def _noisy(freq: np.ndarray, noise: float, noise_seed: int) -> np.ndarray:
    clean = s11(freq, F0, Q_IN, Q_EX, AMPLITUDE, PHASE_OFFSET, DELAY, float(np.median(freq)))
    rng = np.random.default_rng(noise_seed)
    sigma = noise * AMPLITUDE
    return clean + sigma * (rng.standard_normal(freq.size) + 1j * rng.standard_normal(freq.size))


def fit_batch(seed: int, tiny: bool = False) -> list:
    """[(label, freq, response)] in an order shuffled by ``seed``."""
    design_freq = np.linspace(F0 - DESIGN_HALF_SPAN_HZ, F0 + DESIGN_HALF_SPAN_HZ, DESIGN_POINTS)
    shipped_freq = SHIPPED_START_HZ + SHIPPED_STEP_HZ * np.arange(SHIPPED_POINTS)
    design_seeds = TINY_DESIGN_SEEDS if tiny else DESIGN_SEEDS
    shipped_seeds = TINY_SHIPPED_SEEDS if tiny else SHIPPED_SEEDS
    batch = [(f"design-{s}", design_freq, _noisy(design_freq, DESIGN_NOISE, s))
             for s in design_seeds]
    batch += [(f"shipped-{s}", shipped_freq, _noisy(shipped_freq, SHIPPED_NOISE, s))
              for s in shipped_seeds]
    order = np.random.default_rng(seed).permutation(len(batch))
    return [batch[i] for i in order]
