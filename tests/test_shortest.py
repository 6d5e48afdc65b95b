"""The vectorized float formatter against ``repr`` as the oracle."""

import sys

import numpy as np
import pytest

from metaring._shortest import Workspace, repr_chars

CHUNK = 1 << 14


def kernel_lines(values: np.ndarray) -> bytes:
    chars = repr_chars(values, Workspace(values.size))
    chars[..., -1] = ord("\n")  # the last byte of every cell is free
    return chars.tobytes().translate(None, b"\0")


def repr_lines(values: np.ndarray) -> bytes:
    with np.errstate(invalid="ignore"):  # a signalling NaN is a random bit pattern too
        plain = (values + 0.0).tolist()
    return ("\n".join(map(repr, plain)) + "\n").encode()


def assert_same_as_repr(values: np.ndarray) -> None:
    for start in range(0, len(values), CHUNK):
        chunk = values[start:start + CHUNK]
        if kernel_lines(chunk) != repr_lines(chunk):
            wrong = [(v, kernel_lines(np.array([v])), repr_lines(np.array([v])))
                     for v in chunk.tolist() if kernel_lines(np.array([v])) != repr_lines(np.array([v]))]
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
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    assert kernel_lines(values) == b"0.0\n0.0\ninf\n-inf\nnan\nnan\n"


def test_special_cells_scattered_among_normal_ones():
    # zeros, infinities, NaN, subnormals and |x| beyond the kernel's range
    # in one block, each among normal values, where the kernel hands over
    rng = np.random.default_rng(23)
    values = rng.standard_normal(1024) * 10.0 ** rng.integers(-30, 30, 1024)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
               sys.float_info.min / 3, -2.5e-310, 1e291, -3e295, sys.float_info.max, 1e-291]
    values[rng.choice(len(values), len(special), replace=False)] = special
    assert_same_as_repr(values)


def test_shape_is_kept():
    values = np.arange(6.0).reshape(2, 3) / 7
    chars = repr_chars(values, Workspace(values.size))
    assert chars.shape == (2, 3, chars.shape[-1])
    assert chars[1, 2].tobytes().replace(b"\0", b"") == repr(5 / 7).encode()


def cells_of(chars: np.ndarray) -> list:
    """Each cell of repr_chars' result in values' C order, its NULs removed."""
    return [bytes(cell).replace(b"\0", b"") for cell in chars.reshape(-1, chars.shape[-1])]


def test_one_workspace_for_blocks_of_every_width():
    # a block needing 16 whole digits and exponents, then narrower ones,
    # through one workspace: no byte of an earlier block may show
    rng = np.random.default_rng(31)
    work = Workspace(4096)
    blocks = [rng.standard_normal((7, 500)) * 10.0 ** rng.integers(-20, 16, (7, 500)),
              rng.random((3, 1000)), np.linspace(-3.0, 3.0, 4001)[None], rng.random(7) * 1e5]
    for values in blocks:
        chars = repr_chars(values, work)
        assert chars.shape == values.shape + (chars.shape[-1],)
        assert cells_of(chars) == [repr(v).encode() for v in values.ravel().tolist()]


def test_special_cells_of_a_three_dimensional_block():
    # the first axis is laid out last in memory; every cell kept in place
    values = np.arange(60.0).reshape(3, 4, 5) / 7
    values.flat[[0, 7, 13, 21, 34, 42, 55, 59]] = [np.nan, -0.0, np.inf, -np.inf, 5e-324, 1e300,
                                                   2144181128783148.8, 0.0]
    chars = repr_chars(values, Workspace(64))
    assert cells_of(chars) == [repr(v + 0.0).encode() for v in values.ravel().tolist()]
