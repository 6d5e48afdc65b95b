"""The shortest-digits float kernel of ``metaring._csv`` against ``repr`` as the oracle."""

import sys

import numpy as np
import pytest

from metaring._csv import Workspace, repr_chars

CHUNK = 1 << 14


def kernel_cells(values: np.ndarray, work: Workspace = None) -> list:
    """The cells of the (columns, rows) block ``values`` as repr_chars lays
    them out, each row split at its commas and its NULs removed, in values'
    C order."""
    columns, rows = values.shape
    lines = repr_chars(values, Workspace(values.size) if work is None else work)
    assert lines.shape[0] == rows and lines.shape[1] % columns == 0
    # every cell ends with its comma, and holds no other
    assert (lines.reshape(rows, columns, -1)[..., -1] == ord(",")).all()
    split = [bytes(line).translate(None, b"\0").split(b",") for line in lines]
    assert all(len(row) == columns + 1 and row[-1] == b"" for row in split)
    return [cell for column in list(zip(*split))[:columns] for cell in column]


def repr_cells(values: np.ndarray) -> list:
    """``repr(x + 0.0)`` of each cell in values' C order, empty for NaN."""
    with np.errstate(invalid="ignore"):  # a signalling NaN is a random bit pattern too
        plain = (values + 0.0).ravel().tolist()
    return [b"" if v != v else repr(v).encode() for v in plain]


def assert_same_as_repr(values: np.ndarray) -> None:
    """A 1-D array, in (1, n) blocks of at most CHUNK cells."""
    for start in range(0, len(values), CHUNK):
        chunk = values[None, start:start + CHUNK]
        got, expected = kernel_cells(chunk), repr_cells(chunk)
        if got != expected:
            wrong = [(v, g, e) for v, g, e in zip(chunk[0].tolist(), got, expected) if g != e]
            pytest.fail(f"kernel differs from repr: {wrong[:5]}")


def test_random_bit_patterns():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2 ** 64, size=1_000_000, dtype=np.uint64, endpoint=False)
    assert_same_as_repr(bits.view(np.float64))


def test_every_power_of_two():
    assert_same_as_repr(np.ldexp(1.0, np.arange(-1074, 1024)))


def test_every_power_of_ten():
    assert_same_as_repr(np.array([float(f"1e{k}") for k in range(-323, 309)]))


def test_edges():
    ulp_around = [x for v in (1e-5, 1e16) for x in (np.nextafter(v, 0.0), v, np.nextafter(v, 2 * v))]
    integers = [np.arange(c - 64, c + 65, dtype=np.int64).astype(np.float64)
                for c in (2 ** 53, 10 ** 16)]
    # rounding-interval endpoints that fall on an integer of the scaled value
    endpoints = [2144181128783148.8, 7.052940996798502e+16]
    values = np.concatenate([[5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
                              sys.float_info.min], ulp_around, *integers, endpoints])
    assert_same_as_repr(np.concatenate([values, -values]))


def test_zeros_infinities_and_nan():
    values = np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]])
    assert kernel_cells(values) == [b"0.0", b"0.0", b"inf", b"-inf", b"", b""]


def test_special_cells_scattered_among_normal_ones():
    # zeros, infinities, NaN, subnormals and |x| beyond the kernel's range
    # in one block, each among normal values, where the kernel hands over
    rng = np.random.default_rng(23)
    values = rng.standard_normal(1024) * 10.0 ** rng.integers(-30, 30, 1024)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
               sys.float_info.min / 3, -2.5e-310, 1e291, -3e295, sys.float_info.max, 1e-291]
    values[rng.choice(len(values), len(special), replace=False)] = special
    assert_same_as_repr(values)


def test_lines_leave_before_and_after_spans():
    # the caller's spans keep their bytes; the cells lie between them
    values = np.array([[0.5, np.nan, -3e20], [1e-7, 2.0, np.inf]])
    work = Workspace(16)
    work.chars[:] = 7
    lines = repr_chars(values, work, before=8, after=24)
    assert lines.shape[0] == 3 and (lines[:, :8] == 7).all() and (lines[:, -24:] == 7).all()
    cells = lines[:, 8:-24].reshape(3, 2, -1).transpose(1, 0, 2)
    assert [bytes(cell).translate(None, b"\0") for cell in cells.reshape(6, -1)] == [
        b"0.5,", b",", b"-3e+20,", b"1e-07,", b"2.0,", b"inf,"]


def test_one_workspace_for_blocks_of_every_width():
    # a block needing 16 whole digits and exponents, then narrower ones,
    # through one workspace: no byte of an earlier block may show
    rng = np.random.default_rng(31)
    work = Workspace(4096)
    blocks = [rng.standard_normal((7, 500)) * 10.0 ** rng.integers(-20, 16, (7, 500)),
              rng.random((3, 1000)), np.linspace(-3.0, 3.0, 4001)[None], rng.random((1, 7)) * 1e5]
    for values in blocks:
        assert kernel_cells(values, work) == repr_cells(values)


def test_special_cells_of_a_two_dimensional_block():
    # every cell that leaves the kernel's path kept in its column and row
    values = np.arange(60.0).reshape(3, 20) / 7
    values.flat[[0, 7, 13, 21, 34, 42, 55, 59]] = [np.nan, -0.0, np.inf, -np.inf, 5e-324, 1e300,
                                                   2144181128783148.8, 0.0]
    assert kernel_cells(values, Workspace(64)) == repr_cells(values)
