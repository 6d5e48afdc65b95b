"""CSV tables of float, int and bool columns, formatted a block at a time.

``write_csv(path, header, columns, work)`` writes RFC-4180 CSV with LF line
endings: each cell a number, ``true``/``false`` or empty, so no cell is ever
quoted.  A float cell is ``repr(x + 0.0)`` (so -0.0 reads 0.0), the
shortest decimal string that reads back as the same double (the nearest
such string when there are several), or empty for NaN.  Rows go out in
blocks of at most ``_CSV_BLOCK_CELLS`` float cells' worth of bytes, all
formatted through ``work``, one ``Workspace`` that a caller makes once and
keeps for every table it writes.

``repr_chars(values, work)`` formats a (columns, rows) float64 block in one
numpy pass, each cell at most ``WIDTH`` bytes of its row's line with its
comma last.  The digits follow the idea of Grisu (Loitsch 2010) and Ryu
(Adams 2018): scale |x| by a power of ten to Y in [1e16, 1e17), find the
largest power of ten 10**d with a multiple inside the rounding interval of
Y, and take the multiple nearest Y.

Y is a double-double (about 104 bits), so its fraction is known to about
1e-14.  A cell leaves the pass in one of two ways: NaN is emptied in place,
and every other cell the pass cannot decide exactly is written as
``repr(x + 0.0)`` itself, so the kernel never decides an exact case.  Those
are zero, the infinities and |x| outside [1e-290, 1e290]; a rounding tie or
an interval endpoint within ``TOL`` of a decimal grid point; and, within an
ulp or so of a power of ten, a cell whose log10 missed its decade or whose
digits carry into the next one.
"""

from typing import Sequence

import numpy as np

TOL = 1e-9
_LOW, _HIGH = 1e-290, 1e290
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves
_POW10 = 10 ** np.arange(18, dtype=np.int64)
# 10**s for s in [-274, 307] (e10 in [-291, 290]) as head + tail + lo:
# head + tail is the double nearest 10**s, split for Dekker's product; an
# entry is built when its exponent first appears, as a sweep uses a few
# dozen and the whole table takes about 2 ms to build
_S0 = 274
_POWERS = np.full((3, _S0 + 308), np.nan)
# bytes of a cell, as 32-bit words: 3 NULs and the sign (or "0", or "-0",
# for |x| < 1); up to 16 whole digits, right-aligned; "." and up to 3
# zeros; 16 fraction digits, left-aligned; then the 17th fraction digit,
# "e", sign and 2 or 3 exponent digits, at least two NULs, then the comma.
# A call leaves out the whole words and exponent bytes no cell uses.
WIDTH = 48
_SIGN = np.frombuffer(b"\0\0\0\0\0\0\0-\0\0\0000\0\0-0", np.uint32)
_POINT = np.frombuffer(b".\0\0\0.0\0\0.00\0.000\0\0\0\0", np.uint32)  # ".", ".0", ".00", ".000", none
# "0000" to "9999" as words, then the same with leading zeros as NULs (for a
# group with no digit before it), then with trailing zeros as NULs (for a
# group with no digit after it)
_QUADS = (np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
          % 10 + 48).astype(np.uint8)
_LEADING = np.maximum.accumulate(_QUADS > 48, axis=1)
_TRAILING = np.maximum.accumulate((_QUADS > 48)[:, ::-1], axis=1)[:, ::-1]
_WORDS = np.concatenate([_QUADS, _QUADS * _LEADING, _QUADS * _TRAILING]).view(np.uint32).ravel()
del _LEADING, _TRAILING
_PLACES = (10 ** 12, 10 ** 8, 10 ** 4, 1)
_FRACTION_PLACES = 10 * np.array(_PLACES)[:, None]
# a NUL (the 17th fraction digit's slot), then "e-324" to "e+308", and the
# comma; a cell without an exponent ends with _COMMA's last 4 or all 8 bytes
_E0 = 324
_EXPONENT = np.array([(b"\0e%+03d" % e).ljust(7, b"\0") + b"," for e in range(-_E0, 309)],
                     "S8").view(np.uint64)
_COMMA = np.frombuffer(b"\0\0\0\0\0\0\0,", np.uint64)


def _power(s: int):
    """10**s as (head, tail, lo); Python's int true division rounds correctly.

    The split runs on a copy scaled by 2**-64, because 2**27 * 1e306
    overflows.
    """
    a, b = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
    hi = a / b
    num, den = hi.as_integer_ratio()
    lo = (a * den - num * b) / (b * den)
    scaled = hi * 2.0 ** -64
    t = _SPLIT * scaled
    head = (t - (t - scaled)) * 2.0 ** 64
    return head, hi - head, lo


_ROWS = 14  # 8-byte intermediates a cell
# A block of a table holds as many rows as fit in this many float cells'
# worth of row bytes (WIDTH a float; 24 an int; 8 a bool, each cell
# word-aligned with its comma last), so a table of k float columns takes
# _CSV_BLOCK_CELLS // k rows a block and its ints and bools ride along.
# The kernel pays about 150 numpy calls a block whatever its size: on the
# scaled sweep's tables, formatting and joining took 18 % less time at 8192
# cells than at 4096, and 7 % less than at 6144.
_CSV_BLOCK_CELLS = 8192
_CELL_BYTES = {"f": WIDTH, "i": 24, "u": 24, "b": 8}


class Workspace:
    """The formatter's arrays for blocks of up to ``cells`` values, made once.

    ``repr_chars`` writes every intermediate into them through ``out=``, so
    a block allocates only for the cells that leave the pass (NaN, emptied
    in place, and the cells written as ``repr(x + 0.0)``), and a caller
    that keeps one workspace for many blocks keeps one set of pages.  ``x``
    is where a caller may stage a block's values, and ``chars``, where the
    lines are laid out, holds ``cells * WIDTH`` bytes, the caller's
    ``before`` and ``after`` spans included.  The default size holds one
    block of ``write_csv``, so a run makes one workspace (about 1.5 MB) and
    writes every table through it.

    The arrays are views of one allocation of 184 bytes a cell, freed as one
    chunk.  glibc's malloc raises its mmap and trim thresholds past a chunk
    that large once it is freed, so a process that makes a workspace again
    gets the same pages back without faulting them in.  It pays in time as
    well: on the scaled sweep, the same blocks formatted with freshly
    allocated intermediates ran about 7 % slower (BENCH_27.json).
    """

    def __init__(self, cells: int = _CSV_BLOCK_CELLS):
        memory = np.empty((_ROWS + 9, cells))
        self.x = memory[0]
        # the intermediates, read as float64 or int64, and 8 flags a cell; a
        # block of n cells takes rows of n from their start, so that
        # neighbouring rows are one contiguous array
        self.slots = memory[1:_ROWS + 1].ravel()
        self.flags = memory[_ROWS + 1].view(np.bool_)
        self.e2 = memory[_ROWS + 2].view(np.int32)[:cells]
        self.word = memory[_ROWS + 2].view(np.uint32)[cells:]
        self.chars = memory[_ROWS + 3:].view(np.uint8).ravel()


def _scaled(ax: np.ndarray, e10: np.ndarray, s: np.ndarray):
    """Y = ax * 10**(16 - e10) as int64 N plus fraction r, and 10**(16 - e10).

    The 12 rows of ``s`` (one contiguous float64 array, each row as long as
    ``ax``) hold every intermediate; N, r and 10**(16 - e10) come back as
    its rows 2, 8 and 4.
    """
    si = s.view(np.int64)
    index, powers = si[0], s[1:4]  # 10**(16 - e10) as head, tail, lo
    np.subtract(_S0 + 16, e10, out=index)
    _POWERS.take(index, axis=1, out=powers, mode="clip")
    if np.isnan(powers[0].min(initial=np.inf)):
        for i in set(index[np.isnan(powers[0])].tolist()):
            _POWERS[:, i] = _power(i - _S0)
        _POWERS.take(index, axis=1, out=powers, mode="clip")
    head, tail, lo = powers
    hi, ah, al, p, rest = s[4], s[5], s[6], s[7], s[8]
    np.add(head, tail, out=hi)
    # Dekker: ax * hi = p + err exactly
    np.multiply(_SPLIT, ax, out=ah)
    np.subtract(ah, ax, out=al)
    np.subtract(ah, al, out=ah)
    np.subtract(ax, ah, out=al)
    np.multiply(ax, hi, out=p)
    # rest = (((ah*head - p) + ah*tail + al*head) + al*tail) + ax*lo, in that
    # order; rows 8 to 11 take ah*head, ah*tail, al*head and al*tail at once
    np.multiply(s[5:7, None], s[None, 1:3], out=s[8:12].reshape(2, 2, -1))
    rest -= p
    for term in s[9:12]:
        rest += term
    np.multiply(ax, lo, out=s[9])
    rest += s[9]
    whole, n, part = s[1], si[2], si[3]
    np.floor(rest, out=whole)
    # p >= 1e16 > 2**53 is an integer whenever e10 is right
    np.copyto(n, p, casting="unsafe")
    np.copyto(part, whole, casting="unsafe")
    n += part
    rest -= whole
    return n, rest, hi


def _blend(x: np.ndarray, y: np.ndarray, mask: np.ndarray) -> None:
    """x = y where ``mask`` has every bit set, x where it is 0; y is clobbered."""
    np.bitwise_xor(y, x, out=y)
    np.bitwise_and(y, mask, out=y)
    np.bitwise_xor(x, y, out=x)


def _decimal(ax: np.ndarray, s: np.ndarray, flags: np.ndarray, e2: np.ndarray):
    """Shortest digits of each ax in [1e-290, 1e290]: (V, e10, unsure).

    V in [1e16, 1e17) holds the digits, left-aligned with trailing zeros, and
    ax is about V * 10**(e10 - 16).  ``unsure`` marks the cells left to repr,
    log10's misses and the carries into the next decade among them; their
    V and e10 are not to be read.
    Rows 1 to 13 of ``s`` (row 0 is left to the caller), ``flags`` 1 to 3
    and the int32 ``e2`` hold the intermediates, and the results are views
    of them.
    """
    si = s.view(np.int64)
    e10 = si[1]
    np.log10(ax, out=s[2])
    np.floor(s[2], out=s[2])
    np.copyto(e10, s[2], casting="unsafe")
    n, r, hi = _scaled(ax, e10, s[2:])  # rows 4, 10 and 6
    # log10 missed the decade where Y is outside [1e16, 1e17)
    unsure, high = flags[3], flags[1]
    np.less(n, _POW10[16], out=unsure)
    np.greater_equal(n, _POW10[17], out=high)
    unsure |= high

    # the rounding interval (Y - h_low, Y + h_high): half an ulp each way,
    # and half of that below a power of two; n_high is the largest integer
    # inside and n_low the largest below
    mantissa, h_high = s[2], s[3]
    np.frexp(ax, out=(mantissa, e2))
    e2 -= 54
    np.ldexp(hi, e2, out=h_high)
    ends, floors = s[7:9], s[11:13]
    top, bottom = ends
    np.add(r, h_high, out=top)
    np.multiply(h_high, 0.5, out=bottom)
    np.not_equal(mantissa, 0.5, out=flags[1])
    np.copyto(bottom, h_high, where=flags[1])
    np.subtract(r, bottom, out=bottom)
    np.floor(ends, out=floors)
    distance = s[2:4]
    np.subtract(ends, floors, out=distance)
    distance -= 0.5
    np.abs(distance, out=distance)
    np.greater(distance, 0.5 - TOL, out=flags[1:3])
    unsure |= flags[1]
    unsure |= flags[2]
    n_ends = si[7:9]
    np.copyto(n_ends, floors, casting="unsafe")
    n_ends += n
    n_high, n_low = n_ends

    # Y's digits end at the largest d with a multiple of 10**d in (n_low, n_high].
    # d = 0: round(Y), always inside, for half an ulp is over 0.55.  d = 1:
    # the multiple of 10 nearest Y, moved inside if it is not.  d >= 2: the
    # interval is under 23 wide, so its one multiple of 100 is the only
    # multiple of 10**d too.
    tens, digit, value, quotients = si[2], si[3], si[13], si[11:13]
    # one: all bits set where (n_low, n_high] holds a multiple of 10, so the
    # choices below are bit blends x ^ ((x ^ y) & one) on the int64 views,
    # about three times as fast as copies under a half-random where= mask
    one, up = si[5], flags[2]
    np.floor_divide(n, 10, out=tens)
    np.floor_divide(n_ends, 10, out=quotients)
    np.subtract(quotients[1], quotients[0], out=one)
    np.right_shift(one, 63, out=one)
    np.multiply(tens, 10, out=digit)
    np.subtract(n, digit, out=digit)
    # excess = (n - 10*tens) + r - 5.0 where one, else r - 0.5; > 0: round up; 0: a tie
    excess, other = s[9], s[6]
    np.copyto(other, digit)
    other += r
    other -= 5.0
    np.subtract(r, 0.5, out=excess)
    _blend(si[9], si[6], one)  # excess and other
    np.abs(excess, out=other)
    np.less(other, TOL, out=up)
    unsure |= up
    np.greater(excess, 0, out=up)
    np.add(n, up, out=value)
    np.add(tens, up, out=tens)
    tens *= 10
    _blend(value, tens, one)
    np.greater(value, n_high, out=up)
    np.subtract(value, 10, out=value, where=up)
    np.less_equal(value, n_low, out=up)
    np.add(value, 10, out=value, where=up)
    deep = flags[2]
    np.floor_divide(n_ends, 100, out=quotients)
    np.greater(quotients[0], quotients[1], out=deep)
    np.multiply(quotients[0], 100, out=value, where=deep)
    # 10**17 carried into the next decade: left to repr
    np.equal(value, _POW10[17], out=flags[1])
    unsure |= flags[1]
    return value, e10, unsure


def _put(words: np.ndarray, column: int, table: np.ndarray, index: np.ndarray, word: np.ndarray):
    """words[..., column] = table[index], by way of the contiguous ``word``."""
    table.take(index.reshape(word.shape), out=word, mode="clip")
    words[..., column] = word


def repr_chars(values: np.ndarray, work: Workspace, before: int = 0, after: int = 0) -> np.ndarray:
    """The lines of the (columns, rows) block ``values``: shape (rows, before
    + columns * width + after), a view of ``work.chars`` valid until its next
    use.  Cell (j, i) is bytes ``before + j * width`` to ``before + (j + 1)
    * width`` of line i, its last byte a comma; ``before`` and ``after``
    bytes of each line are left to the caller as they were.

    ``width`` is at most ``WIDTH``: the cells leave out the whole-digit
    words that no cell of ``values`` uses, and the exponent's bytes when no
    cell has one.  ``work`` holds at least ``values.size`` cells, and the
    lines in ``work.chars``.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    shape, count = np.shape(values), len(x)
    s = work.slots[:_ROWS * count].reshape(_ROWS, count)
    flags = work.flags[:8 * count].reshape(8, count)
    si = s.view(np.int64)
    ax, outside, temp = s[0], flags[0], flags[4]
    np.abs(x, out=ax)
    np.greater_equal(ax, _LOW, out=outside)
    np.less_equal(ax, _HIGH, out=temp)
    outside &= temp
    np.logical_not(outside, out=outside)  # zero, inf, NaN and |x| out of range
    np.copyto(ax, 1.0, where=outside)
    value, e10, unsure = _decimal(ax, s, flags, work.e2[:count])

    # d.ddde+XX outside [1e-4, 1e16); the whole part is value's first e10 + 1
    # digits, none below 1 (the sign word holds the "0") and one in d.ddde+XX
    positional, below_one = flags[1], flags[2]
    np.greater_equal(e10, -4, out=positional)
    np.less(e10, 16, out=temp)
    positional &= temp
    np.less(e10, 0, out=below_one)
    below_one &= positional
    lead, a, cut, whole, fraction, b = si[0], si[2], si[3], si[4], si[5], si[6]
    lead.fill(1)
    np.add(e10, 1, out=lead, where=positional)
    np.maximum(lead, 0, out=lead)
    np.subtract(17, lead, out=a)
    _POW10.take(a, out=cut, mode="clip")
    np.floor_divide(value, cut, out=whole)
    np.multiply(whole, cut, out=fraction)
    np.subtract(value, fraction, out=fraction)
    _POW10.take(lead, out=b, mode="clip")
    fraction *= b  # 17 digits, left-aligned

    # The cell: the sign word, a word per whole group that some cell uses,
    # the point word, four fraction words, then the 17th fraction digit,
    # the exponent if some cell has one, and the comma, in 8 bytes or 4.
    # Every byte of it is written below, so the workspace holds no stale byte.
    places = [place for place in _PLACES if whole.max(initial=0) >= place]
    exponential = not positional.all()
    tail = 4 * (len(places) + 6)
    width = tail + (8 if exponential else 4)
    columns, rows = shape
    line = before + columns * width + after
    lines = work.chars[:rows * line].reshape(rows, line)
    chars = lines[:, before:line - after].reshape(rows, columns, width).transpose(1, 0, 2)
    words = chars.view(np.uint32)
    word = work.word[:count].reshape(shape)
    np.multiply(below_one, 2, out=a)
    np.less(x, 0, out=temp)
    a += temp
    _put(words, 0, _SIGN, a, word)
    # whole groups, with their leading zeros as NULs when no digit comes
    # before them, as in every cell's first group
    rest, group = whole, si[8]
    for column, place in enumerate(places, 1):
        if place > 1:
            np.floor_divide(rest, place, out=group)
            np.multiply(group, place, out=b)
            rest = np.subtract(rest, b, out=si[7])
        else:
            group = rest  # the last group; whole is not read again
        if column == 1:
            group += 10000
        else:
            np.less(whole, 10000 * place, out=temp)
            np.add(group, 10000, out=group, where=temp)
        _put(words, column, _WORDS, group, word)
    # "." and the zeros after it below 1; ".0" for a whole number; no point
    # in a one-digit d.ddde+XX
    column, group = len(places) + 1, si[8]
    group.fill(4)
    np.copyto(group, 1, where=positional)
    np.equal(fraction, 0, out=temp)
    group *= temp
    np.subtract(-1, e10, out=b)
    np.copyto(group, b, where=below_one)
    _put(words, column, _POINT, group, word)
    # the four fraction groups at once: group k is fraction // 10**(13 - 4k)
    # less 10**4 times the one before, with its trailing zeros as NULs when
    # no digit comes after it, that is when fraction // 10**(13 - 4k) *
    # 10**(13 - 4k) is fraction itself
    groups, scaled, trailing = si[6:10], si[10:14], flags[4:8]
    np.floor_divide(fraction, _FRACTION_PLACES, out=groups)
    np.multiply(groups, _FRACTION_PLACES, out=scaled)
    np.equal(scaled, fraction, out=trailing)
    np.subtract(fraction, scaled[3], out=fraction)  # the 17th digit
    np.multiply(groups[:3], 10000, out=scaled[1:])
    groups[1:] -= scaled[1:]
    np.multiply(trailing, 20000, out=scaled)
    groups += scaled
    quads = s[2:4].view(np.uint32).reshape((4,) + shape)
    _WORDS.take(groups.reshape(quads.shape), out=quads, mode="clip")
    words[..., column + 1:column + 5] = quads.transpose(1, 2, 0)
    code = si[10]
    if exponential:  # "e", its sign and 2 or 3 digits, after a NUL byte
        exponent = s[0].view(np.uint64)
        np.add(e10, _E0, out=code)
        _EXPONENT.take(code, out=exponent, mode="clip")
        np.copyto(exponent, _COMMA, where=positional)
        words[..., -2:] = exponent.view(np.uint32).reshape(shape + (2,))
    else:
        words[..., -1] = _COMMA.view(np.uint32)[1]
    np.add(fraction, 48, out=code)
    np.not_equal(fraction, 0, out=temp)
    code *= temp
    chars[..., tail] = code.reshape(shape)

    # the cells off the pass keep their comma and get every byte before it:
    # NaN none, every other one repr(x + 0.0)
    np.isnan(x, out=temp)
    chars[temp.reshape(shape), :width - 1] = 0
    outside ^= temp
    unsure |= outside
    if unsure.any():
        fallback = np.flatnonzero(unsure)
        cells = np.array([repr(v + 0.0) for v in x[fallback].tolist()], f"S{width - 1}")
        chars[(*np.divmod(fallback, rows), slice(width - 1))] = cells.view(np.uint8).reshape(
            -1, width - 1)
    return lines


def _block_rows(arrays: Sequence[np.ndarray]) -> int:
    """Rows a block of these columns takes (see _CSV_BLOCK_CELLS)."""
    width = sum(_CELL_BYTES[array.dtype.kind] for array in arrays)
    return max(1, _CSV_BLOCK_CELLS * WIDTH // width)


def _csv_lines(block: Sequence[np.ndarray], work: Workspace) -> bytes:
    """The CSV lines of equal-length columns whose floats are adjacent.

    ``repr_chars`` lays the float cells out in lines through ``work``, each
    NUL-padded with its comma last and NaN empty.  The int and bool cells
    before and after them go into the same lines, as their digits or
    ``true``/``false`` and a comma, then each line's last comma becomes its
    newline and the NULs are dropped.
    """
    kinds = "".join(column.dtype.kind for column in block)
    first, count, rows = kinds.index("f"), kinds.count("f"), len(block[0])
    widths = [_CELL_BYTES[kind] for kind in kinds]
    # column after column, so the kernel's masks run along a column
    values = work.x[:rows * count].reshape(count, rows)
    for row, column in zip(values, block[first:first + count]):
        row[...] = column
    lines = repr_chars(values, work, sum(widths[:first]), sum(widths[first + count:]))
    ends = np.cumsum(widths)
    ends[first:] += lines.shape[1] - ends[-1]  # the float cells' own width
    for column, end, width in zip(block, ends.tolist(), widths):
        if column.dtype.kind != "f":
            cells = lines[:, end - width:end - 1].view(f"S{width - 1}")[:, 0]
            cells[...] = np.where(column, b"true", b"false") if column.dtype.kind == "b" else column
            lines[:, end - 1] = ord(",")
    lines[:, -1] = ord("\n")
    return lines.tobytes().translate(None, b"\0")


def write_csv(path, header: Sequence[str], columns: Sequence, work: Workspace) -> None:
    """Write equal-length ``columns`` (arrays or lists) under ``header``.

    A column holds floats, ints or bools.  Every table has at least two
    columns, so no row is a lone empty field (written ``""``).  The float
    columns are adjacent, any int and bool columns before or after them;
    other columns or another order raise ``TypeError``.  Every block of
    rows is formatted through ``work``, whatever the table's length.
    """
    arrays = [np.asarray(column) for column in columns]
    if set("".join(array.dtype.kind for array in arrays).strip("biu")) != {"f"}:
        raise TypeError("CSV columns hold floats, ints or bools, and the float columns must be "
                        f"adjacent, got {', '.join(str(array.dtype) for array in arrays)}")
    step = _block_rows(arrays)
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        for start in range(0, len(arrays[0]), step):
            handle.write(_csv_lines([a[start:start + step] for a in arrays], work))
