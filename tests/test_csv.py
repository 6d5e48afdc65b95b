"""The CSV writer of ``metaring._csv``: its shortest-digits float kernel
against ``repr``, and the column writer against a per-cell writer, as the
byte oracles."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metaring.cli
from metaring import _csv
from metaring._csv import _CSV_BLOCK_CELLS, WIDTH, Workspace, _block_rows, repr_chars, write_csv
from test_perfbench_hooks import ROOT, perfbench_module

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


def test_neighbours_of_every_decade():
    # log10 misses its decade and the digits carry into the next one only
    # within an ulp or so of a power of ten, where the kernel defers to repr
    decades = np.array([float(f"1e{k}") for k in range(-290, 291)])
    decades = np.concatenate([decades, -decades])
    values = np.stack([np.nextafter(decades, 0.0), decades, np.nextafter(decades, 2 * decades)])
    assert kernel_cells(values) == repr_cells(values)


def test_no_cell_of_the_sweeps_left_to_repr(tmp_path, monkeypatch, default_config_path):
    # the shipped and the seed-1 scaled sweep (the benchmark's) hand repr no
    # cell the pass could scale, so repr costs their tables nothing
    inputs = perfbench_module("inputs")
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(inputs.scaled_config(
        ROOT / "configs" / "default.json", ROOT / "configs" / "trace_s11.csv", seed=1)))
    blocks, format_block = [], _csv.repr_chars

    def recording(values, *args):
        blocks.append(values.ravel().copy())
        return format_block(values, *args)

    monkeypatch.setattr(_csv, "repr_chars", recording)
    monkeypatch.delattr(os, "fork")  # a forked writer's blocks would not be recorded here
    for name, config in (("default", default_config_path), ("scaled", scaled)):
        metaring.cli.run("sweep", config, tmp_path / name)
    ax = np.abs(np.concatenate(blocks))
    ax = ax[(ax >= _csv._LOW) & (ax <= _csv._HIGH)]
    assert len(ax) > 100_000
    unsure = 0
    for start in range(0, len(ax), CHUNK):
        chunk = ax[start:start + CHUNK]
        count = len(chunk)
        *_, marked = _csv._decimal(chunk, np.empty((_csv._ROWS, count)),
                                   np.empty((8, count), np.bool_), np.empty(count, np.int32))
        unsure += np.count_nonzero(marked)
    assert unsure == 0


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


# loads the _csv module at argv[1], formats the float64 bytes on stdin as one
# (4, n) block and prints the sha256 of its cells, then the SIMD targets
# numpy dispatches to
DISPATCH_CHILD = """
import hashlib, importlib.util, sys
import numpy as np
spec = importlib.util.spec_from_file_location("kernel", sys.argv[1])
kernel = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel)
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
values = np.frombuffer(sys.stdin.buffer.read(), np.float64).reshape(4, -1)
lines = kernel.repr_chars(values, kernel.Workspace(values.size))
print(hashlib.sha256(lines.tobytes().translate(None, b"\\0")).hexdigest())
print(" ".join(target for target in __cpu_dispatch__ if __cpu_features__[target]))
"""


def test_same_cells_at_every_dispatch_level():
    # The kernel's bytes may not depend on the SIMD targets numpy dispatches
    # to.  One child per level of numpy's dispatch targets above its
    # baseline that this machine has runs with that level and those above
    # it disabled, and each must format the block as this process does.
    # The inputs are made here and sent to every child: random bit patterns,
    # and decimal literals of 1 to 17 digits parsed by float(), as numpy's
    # own powers of ten move with the level.
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    dispatch = [target for target in __cpu_dispatch__ if __cpu_features__[target]]
    rng = np.random.default_rng(43)
    bits = rng.integers(0, 2 ** 64, 40_000, dtype=np.uint64, endpoint=False).view(np.float64)
    mantissas = rng.integers(1, 10 ** rng.integers(1, 18, 40_000))
    literals = [float(f"{'-' * (m % 2)}{m}e{e}") for m, e in
                zip(mantissas.tolist(), rng.integers(-320, 300, 40_000).tolist())]
    values = np.concatenate([bits, literals])
    levels = [tuple(dispatch[i:]) for i in range(len(dispatch))]
    children = [subprocess.Popen([sys.executable, "-c", DISPATCH_CHILD, _csv.__file__],
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                 env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(level)))
                for level in levels]
    outputs = [child.communicate(values.tobytes(), timeout=120)[0].decode().split("\n")
               for child in children]
    assert all(child.returncode == 0 for child in children)
    for level, (_, enabled, _) in zip(levels, outputs):
        assert not set(level) & set(enabled.split())
    lines = repr_chars(values.reshape(4, -1), Workspace(values.size))
    expected = hashlib.sha256(lines.tobytes().translate(None, b"\0")).hexdigest()
    assert [digest for digest, *_ in outputs] == [expected] * len(levels)


def _fmt(value) -> str:
    """One CSV cell; None and NaN (a missing value) are written empty."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    number = float(value)
    if math.isnan(number):
        return ""
    return repr(number + 0.0)  # adding 0.0 writes -0.0 as 0.0


def write_csv_per_cell(path: Path, header, rows) -> None:
    """The per-cell writer that the column writer replaced: the byte oracle."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def block_edges(columns) -> int:
    """How many block edges the column writer crosses in a table of these columns."""
    arrays = [np.asarray(column) for column in columns]
    return (len(arrays[0]) - 1) // _block_rows(arrays)


def _long_table():
    # a block of a table with a float column holds at most _CSV_BLOCK_CELLS rows
    rows = 2 * _CSV_BLOCK_CELLS + 3
    floats = np.linspace(-1e20, 1e20, rows)
    floats[::7] = -0.0
    floats[::11] = np.nan
    return floats, np.arange(rows) - rows // 2, np.arange(rows) % 3 == 0


class TestColumnWriter:
    # the cells that leave the kernel's path: NaN, -0.0, the infinities, a
    # subnormal, |x| beyond 1e290 and a rounding-interval edge that the kernel
    # hands to repr
    SPECIAL = [np.nan, -0.0, np.inf, -np.inf, 5e-324, 1e300, 2144181128783148.8]

    @pytest.mark.parametrize("columns", [
        (np.array([0, -1, 2, 2**62, -2**63, 7, 8, 9, 10]),
         np.array([np.nan, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1e-20]),
         [float("nan"), 1.0, -0.0, 3.0, float("nan"), float("nan"), 2.5, -5e-324, 1e308],
         np.array([True, False, True, True, False, False, True, False, True])),
        ([0.5, -0.0, float("nan")], [1, 2, 3], [np.bool_(True), np.bool_(False), True]),
        (np.array([]), [], np.array([], dtype=bool)),
        # every special cell in one row, then down a column of seven rows
        (np.array([-7]), *([value] for value in SPECIAL), np.array([True])),
        (np.arange(7) - 3, np.array(SPECIAL), -np.array(SPECIAL[::-1]), np.arange(7) % 3 == 0),
        _long_table(),
    ], ids=["cell_kinds", "lists", "empty", "special_in_one_row", "special_in_seven_rows",
            "longer_than_a_block"])
    def test_same_bytes_as_per_cell_writer(self, tmp_path, columns):
        header = [f"c{j}" for j in range(len(columns))]
        if len(columns[0]) > _CSV_BLOCK_CELLS:
            assert block_edges(columns) >= 2
        write_csv(tmp_path / "columns.csv", header, columns, Workspace())
        write_csv_per_cell(tmp_path / "cells.csv", header, zip(*columns))
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    @staticmethod
    def assert_after_wide_table_in_one_workspace(tmp_path, narrow):
        # The wide table fills the workspace with 48-byte float cells (16 whole
        # digits, exponents); the narrower table after it, through the same
        # workspace, must show none of their bytes, least of all in the cells
        # at its block edges.
        rng = np.random.default_rng(5)
        wide_rows = 3 * _CSV_BLOCK_CELLS // 7 + 11
        wide = [rng.standard_normal(wide_rows) * 10.0 ** rng.integers(-20, 16, wide_rows)
                for _ in range(7)]
        assert block_edges(wide) >= 2 and block_edges(narrow) >= 2
        work = Workspace()
        for name, columns in (("wide", wide), ("narrow", narrow)):
            header = [f"c{j}" for j in range(len(columns))]
            write_csv(tmp_path / f"{name}.csv", header, columns, work)
            write_csv_per_cell(tmp_path / f"{name}-cells.csv", header, zip(*columns))
            assert ((tmp_path / f"{name}.csv").read_bytes()
                    == (tmp_path / f"{name}-cells.csv").read_bytes()), name

    def test_narrow_table_after_wide_one_in_one_workspace(self, tmp_path):
        rng = np.random.default_rng(5)
        step = _block_rows([np.empty(0, int), np.empty(0), np.empty(0), np.empty(0, bool)])
        rows = 2 * step + 5
        narrow = (np.arange(rows) * 7 - rows, rng.random(rows), rng.random(rows) * 3.0,
                  np.arange(rows) % 5 == 0)
        special = self.SPECIAL
        for shift, row in enumerate([step - 1, step, step + 1, 2 * step - 1, 2 * step, rows - 1]):
            narrow[1][row] = special[shift % len(special)]
            narrow[2][row] = special[(shift + 3) % len(special)]
        self.assert_after_wide_table_in_one_workspace(tmp_path, narrow)

    def test_modes_shape_after_wide_one_in_one_workspace(self, tmp_path):
        # an int column before the floats, as in modes.csv and pairs.csv
        rng = np.random.default_rng(7)
        step = _block_rows([np.empty(0, int), np.empty(0), np.empty(0)])
        rows = 2 * step + 9
        f_hz = np.cumsum(rng.random(rows)) * 1e8
        table = (np.arange(rows) + 2 ** 40, f_hz, np.append(np.diff(f_hz), np.nan))
        for shift, row in enumerate([0, step - 1, step, 2 * step - 1, 2 * step, rows - 2]):
            table[1][row] = self.SPECIAL[shift % len(self.SPECIAL)]
        self.assert_after_wide_table_in_one_workspace(tmp_path, table)

    def test_saturation_shape_after_wide_one_in_one_workspace(self, tmp_path):
        # floats, over a third of them NaN (the Kerr branches outside the
        # bistable window), before a bool, as in saturation.csv
        rng = np.random.default_rng(11)
        step = _block_rows([np.empty(0)] * 5 + [np.empty(0, bool)])
        rows = 2 * step + 7
        ratios = np.linspace(0.0, 3.0, rows)
        bistable = (ratios > 0.8) & (ratios < 1.2)
        low = rng.random(rows) * 1e6
        mid = np.where(bistable, low * 2.0, np.nan)
        high = np.where(bistable | (ratios >= 1.2), low * 3.0, np.nan)
        low[ratios >= 1.2] = np.nan
        table = (ratios, ratios * 1.7e-13, low, mid, high, bistable)
        for shift, row in enumerate([step - 1, step, step + 1, 2 * step - 1, 2 * step, rows - 1]):
            table[shift % 5][row] = self.SPECIAL[shift % len(self.SPECIAL)]
        assert np.isnan(np.stack(table[:5])).mean() >= 1 / 3
        self.assert_after_wide_table_in_one_workspace(tmp_path, table)

    def test_working_set_does_not_grow_with_the_table(self, tmp_path):
        # numpy reports its buffers to tracemalloc: the writer holds its
        # workspace and one block's joined lines (two bytes objects of at
        # most _CSV_BLOCK_CELLS * WIDTH bytes), whatever the table's length,
        # so nothing per row or kept per block may show in the peak
        import tracemalloc

        tracemalloc.start()
        Workspace()
        workspace = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        peaks = []
        for rows in (8001, 80001):
            rng = np.random.default_rng(rows)
            columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-9, 9, rows)
                       for _ in range(7)]
            tracemalloc.start()
            write_csv(tmp_path / "table.csv", [f"c{j}" for j in range(7)], columns, Workspace())
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 64 * 1024
        assert peaks[1] <= workspace + 2 * _CSV_BLOCK_CELLS * WIDTH + 64 * 1024

    @staticmethod
    def assert_same_bytes(tmp_path, columns):
        header = [f"c{j}" for j in range(len(columns))]
        write_csv(tmp_path / "columns.csv", header, columns, Workspace())
        write_csv_per_cell(tmp_path / "cells.csv", header, zip(*columns))
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    @staticmethod
    def at_block_edges(columns, cells) -> list:
        """``columns`` with the rows of ``cells`` (one value a column) written
        around every block edge, the middle one first in its block."""
        step = _block_rows(columns)
        assert block_edges(columns) >= 2
        for edge in range(step, len(columns[0]), step):
            for i, row in enumerate(cells, edge - len(cells) // 2):
                for column, value in zip(columns, row):
                    if column.dtype.kind == "f":
                        column[i] = value
        return columns

    @pytest.mark.parametrize("digits", range(1, 17))
    def test_negative_whole_parts_at_block_edges(self, tmp_path, digits):
        # The block's widest whole part has ``digits`` digits and a "-": at
        # 3, 7, 11 and 15 digits they fill its first whole word, and the
        # "-" takes a word of its own.
        rng = np.random.default_rng(digits)
        rows = 2 * _block_rows([np.empty(0)] * 3) + 10
        columns = [-np.floor(rng.random(rows) * 10 ** (digits - 1)) - rng.random(rows)
                   for _ in range(3)]
        cells = [(-float(10 ** d - 2), float(10 ** d - 2), -float(10 ** (d - 1)) - 0.25)
                 for d in range(1, digits + 1)]
        self.assert_same_bytes(tmp_path, self.at_block_edges(columns, cells))

    @pytest.mark.parametrize("cells", [
        # whole numbers next to fractional cells
        [(2.0, 2.5, -2.0), (-2.5, 100.0, 0.125), (1e15, 123456789.0, -0.5),
         (9007199254740992.0, 0.1, 7.0)],
        # below 1 with 0 to 3 zeros after the point, 17 digits among them
        [(0.5, 0.05, 0.005), (0.0005, -0.5, -0.05), (-0.005, -0.0005, 0.0004938079620407419),
         (0.0019144787025961577, -0.09999999999999999, 0.00012345678901234567)],
        # one-digit d.ddde+XX next to wider ones and positional cells
        [(1e-05, -5e+16, 0.001), (2e-300, 12.5, -1.25e+20), (3e+16, -7e-05, 1.5e-05),
         (-0.5, 9e+299, 1e+16)],
        # repr's longest cells, out of the kernel's range, among positional ones
        [(-2.2250738585072014e-308, 0.5, 2.0), (1.7976931348623157e+308, -1e-323, 3.25),
         (-1.2345678901234567e-300, 1e-291, 0.0)],
    ], ids=["whole_next_to_fraction", "below_one_zeros", "one_digit_exponent", "far_out_of_range"])
    def test_cells_at_block_edges(self, tmp_path, cells):
        # the filler is positional and at least 1, so the cells alone set
        # whether a block has the zeros and the exponent's words
        rng = np.random.default_rng(3)
        rows = 2 * _block_rows([np.empty(0)] * 3) + 10
        columns = [1.0 + rng.random(rows) * 10.0 ** k for k in (0, 1, 2)]
        self.assert_same_bytes(tmp_path, self.at_block_edges(columns, cells))

    def test_all_nan_spans_of_a_block(self, tmp_path):
        # float columns all NaN in a block, at the start, in the middle and
        # at the end of the float columns, and all of them in the last block
        rng = np.random.default_rng(9)
        kinds = [np.empty(0, int)] + [np.empty(0)] * 4 + [np.empty(0, bool)]
        step = _block_rows(kinds)
        rows = 4 * step + 2
        floats = [rng.standard_normal(rows) * 1e3 for _ in range(4)]
        for block, nan in enumerate([[0], [1, 2], [3], [0, 3], [0, 1, 2, 3]]):
            for j in nan:
                floats[j][block * step:(block + 1) * step] = np.nan
        floats[2][2 * step + 5] = np.nan  # a NaN cell in a column the kernel formats
        floats[0][[2 * step, 3 * step - 1]] = np.nan  # NaN at both ends of a block, not all through
        columns = [np.arange(rows) - 7, *floats, np.arange(rows) % 3 == 0]
        self.assert_same_bytes(tmp_path, columns)

    @pytest.mark.parametrize("columns", [([1.5, float("nan"), 2.0],), ()], ids=["one", "none"])
    def test_fewer_than_two_columns_rejected(self, tmp_path, columns):
        # a one-column table would write its NaN row as an empty line, which
        # CSV readers drop, where RFC 4180 writes ""
        with pytest.raises(TypeError, match="at least two columns"):
            write_csv(tmp_path / "columns.csv", [f"c{j}" for j in range(len(columns))], columns,
                      Workspace())

    def test_other_column_kinds_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="floats, ints or bools"):
            write_csv(tmp_path / "columns.csv", ("a", "b"), ([1.0, 2.0], [None, 2.5]),
                      Workspace())

    @pytest.mark.parametrize("columns", [
        ([1.0, 2.0], [1, 2], [3.0, 4.0]),
        ([True, False], [1.0, 2.0], [1, 2], [3.0, 4.0]),
        ([1, 2], [True, False]),
    ], ids=["int_between", "bool_first_int_between", "no_float"])
    def test_float_columns_must_be_adjacent(self, tmp_path, columns):
        with pytest.raises(TypeError, match="float columns must be adjacent"):
            write_csv(tmp_path / "columns.csv", [f"c{j}" for j in range(len(columns))],
                      columns, Workspace())
