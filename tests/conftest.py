from pathlib import Path

import pytest

from metaring import (
    LumpedCell,
    MicroloopSpec,
    RingSpec,
    SegmentParams,
    UnitCell,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# design-point constants used across the suite
KINETIC_L = 57e-6        # H/m
GEOMETRIC_L = 0.25e-6    # H/m
IMPEDANCE = 362.0        # ohm
CELL_LENGTH = 25e-6      # m
CELL_COUNT = 3200

CALIBRATED_LOOP_L_DC = 1.0976425998969034e-06  # H/m, -0.83% shift at 0.2 mT


@pytest.fixture(scope="session")
def line_capacitance() -> float:
    return (KINETIC_L + GEOMETRIC_L) / IMPEDANCE**2


@pytest.fixture(scope="session")
def design_ring(line_capacitance) -> RingSpec:
    """Lumped single-segment ring at the designed operating point."""
    return RingSpec(
        cell_count=CELL_COUNT,
        segment1=LumpedCell(line_capacitance, CELL_LENGTH),
        geometric_inductance_per_length=GEOMETRIC_L,
        kinetic_inductance_per_length=KINETIC_L,
    )


@pytest.fixture(scope="session")
def bloch_cell() -> UnitCell:
    """Two-segment unit cell of the fabricated design."""
    return UnitCell(
        segment1=SegmentParams(57e-6, 289e-12, 25e-6),
        segment2=SegmentParams(3e-6, 880e-12, 5e-6),
    )


@pytest.fixture(scope="session")
def uniform_cell() -> UnitCell:
    """Degenerate cell: both segments identical (dispersionless line)."""
    seg = SegmentParams(57e-6, 437e-12, 15e-6)
    return UnitCell(segment1=seg, segment2=SegmentParams(57e-6, 437e-12, 15e-6))


@pytest.fixture(scope="session")
def microloop() -> MicroloopSpec:
    """Asymmetric loop calibrated to a -0.83% shift at 0.2 mT."""
    return MicroloopSpec(
        width_ratio=0.5,
        gap=1e-6,
        loop_dc_inductance=CALIBRATED_LOOP_L_DC,
        inductance_wide=1.425e-9,
        inductance_narrow=2.85e-9,
        i_star_wide=2e-3,
        i_star_narrow=1e-3,
    )


@pytest.fixture(scope="session")
def symmetric_loop() -> MicroloopSpec:
    return MicroloopSpec(
        width_ratio=1.0,
        gap=1e-6,
        loop_dc_inductance=CALIBRATED_LOOP_L_DC,
        inductance_wide=1.425e-9,
        inductance_narrow=1.425e-9,
        i_star_wide=1e-3,
        i_star_narrow=1e-3,
    )


@pytest.fixture(scope="session")
def default_config_path() -> Path:
    return CONFIG_DIR / "default.json"


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def approx_rel(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * abs(reference)
