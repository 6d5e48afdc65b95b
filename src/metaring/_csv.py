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
Y, and take the multiple nearest Y.  A cell's bytes are 32-bit words that
one gather takes from a table, as few as the block's cells need, NUL-padded
(see ``WIDTH``).

Y is a double-double (about 104 bits), so its fraction is known to about
1e-14.  A cell leaves the pass in one of two ways: NaN is emptied in place,
and every other cell the pass cannot decide exactly is written as
``repr(x + 0.0)`` itself, so the kernel never decides an exact case.  Those
are zero, the infinities and |x| outside [1e-290, 1e290]; a rounding tie or
an interval endpoint within ``TOL`` of a decimal grid point; and, within an
ulp or so of a power of ten, a cell whose log10 missed its decade or whose
digits carry into the next one.
"""

from itertools import accumulate
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
# A cell is a run of 32-bit words, gathered from _WORDS in one take:
# - the whole digits and the point, right-aligned in as many words as the
#   block needs, the last holding three digits and "."; a "-" takes the NUL
#   before a negative cell's first digit, and a cell below 1 reads "0.";
# - the zeros after the point of a cell below 1, if some cell has one;
# - 16 fraction digits, left-aligned, with the trailing zeros as NULs;
# - the 17th fraction digit and the comma, or, if some cell is d.ddde+XX,
#   the 17th digit, "e", the exponent's sign and digits, NULs and the comma
#   in two words.
# So "-12.5" is "-12." "5\0\0\0" "\0\0\0\0" x 3 "\0\0\0," in a block whose
# whole parts are below 100 and that has no exponent.
WIDTH = 48  # the widest: five whole words, the zeros, four fraction and two tail words


def _words(*rows: np.ndarray) -> np.ndarray:
    """Byte rows stacked as columns, each column read as one 32-bit word."""
    return np.column_stack(rows).astype(np.uint8).view(np.uint32).ravel()


def _groups(count: int, variant: str) -> np.ndarray:
    """The digits of 0 to 10**count - 1, zero-padded, as (count, 10**count)
    uint8, with some zeros as NULs.

    "whole": none; "lead": the leading zeros, and the number's first digit
    (a 1 marking a sign) is "-" in "minus"; "units" and "units minus" keep
    the last digit, so 0 reads "0"; "trailing": the trailing zeros, and
    "first" keeps the first digit, so 0 reads "0".
    """
    digits = np.indices((10,) * count, np.uint8).reshape(count, -1) + np.uint8(48)
    numbers, places = np.arange(10 ** count), 10 ** np.arange(count - 1, -1, -1)[:, None]
    if variant == "whole":
        return digits
    if variant in ("trailing", "first"):
        shown = digits > 48
        for place in range(count - 2, -1, -1):
            shown[place] |= shown[place + 1]
        shown[0] |= variant == "first"
        return digits * shown
    if variant.startswith("units"):
        places[-1] = 0
    shown = numbers >= places
    if variant.endswith("minus"):
        return np.where(shown & (numbers < 10 * places), np.uint8(ord("-")), digits * shown)
    return digits * shown


_E0 = 324  # a cell's decade e10 + _E0 picks its row of _BY_E10 and its exponent's words
_EXPONENTS = np.array([(b"e%+03d" % e).ljust(5, b"\0") for e in range(-_E0, 309)], "S5").view(
    np.uint8).reshape(-1, 5).T
_EXPONENTS[:, _E0 - 4:_E0 + 16] = 0  # d.ddde+XX only outside [1e-4, 1e16)
_TENTHS = np.tile(np.arange(48, 58) * (np.arange(10) > 0), 633)  # a digit, as a NUL when 0
_LAST = np.concatenate([_groups(3, v) for v in ("whole", "units", "units minus")], axis=1)
_NULS, _COMMAS = np.zeros(3000), np.full(3000, ord(","))
_TABLES = {
    # whole groups: in full, after a group with a digit; with leading NULs
    # (the first digit a "-" for a negative cell), in the group of the
    # first digit and before it
    "whole": _words(*_groups(4, "whole")),
    "lead": _words(*_groups(4, "lead")),
    "minus": _words(*_groups(4, "minus")),
    # the last whole group: three digits and the point, or, for a one-digit
    # d.ddde+XX with no fraction, one digit and no point
    "last": _words(*_LAST, np.full(3000, ord("."))),
    "single": _words(_NULS, *_LAST),
    "zeros": _words(*np.array([[48] * k + [0] * (4 - k) for k in range(4)]).T),  # below 1: 0 to 3
    # fraction groups: trailing zeros as NULs when no digit comes after
    # the group, but the first fraction digit is always there (x.0)
    "fraction": _words(*_groups(4, "trailing")),
    "first": _words(*_groups(4, "first")),
    # the 17th fraction digit and the comma
    "tail": _words(_TENTHS[:10], _NULS[:10], _NULS[:10], _COMMAS[:10]),
    # with exponents: the 17th digit and the first three exponent bytes by
    # 10 * decade + digit, then the last two and the comma by decade
    "exp_a": _words(_TENTHS, *np.repeat(_EXPONENTS[:3], 10, axis=1)),
    "exp_b": _words(*_EXPONENTS[3:], _NULS[:633], _COMMAS[:633]),
}
_AT = dict(zip(_TABLES, np.cumsum([0] + [len(t) for t in _TABLES.values()]).tolist()))
_WORDS = np.concatenate(list(_TABLES.values()))
del _EXPONENTS, _TENTHS, _LAST, _NULS, _COMMAS, _TABLES
_UPPER = np.array([10 ** 15, 10 ** 11, 10 ** 7, 10 ** 3])  # the whole groups before the last
_FRACTION_PLACES = 10 * np.array([10 ** 12, 10 ** 8, 10 ** 4, 1])[:, None]
_FRACTION_AT = np.array([_AT["first"], _AT["fraction"], _AT["fraction"], _AT["fraction"]])[:, None]


def _by_e10() -> np.ndarray:
    """What each decade e10 + _E0 in [0, 632] makes of a cell: (633, 4) int64.

    The columns are 10**(17 - lead) and 10**lead, which split the 17 digits
    into the lead whole digits and the fraction; 10**max(lead, 1), the
    place of the mark that makes a negative cell's "-"; and the index of the
    zeros word.  d.ddde+XX has one whole digit, and a cell below 1 none, a
    "0" and 0 to 3 zeros after the point.
    """
    e10 = np.arange(-_E0, 309)
    positional = (e10 >= -4) & (e10 < 16)
    lead = np.where(positional, np.maximum(e10 + 1, 0), 1)
    zeros = np.where(positional & (e10 < 0), -1 - e10, 0)
    return np.stack([_POW10[17 - lead], _POW10[lead], _POW10[np.maximum(lead, 1)],
                     _AT["zeros"] + zeros], axis=1)


_BY_E10 = _by_e10()


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


_ROWS = 20  # 8-byte intermediates a cell
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
    block of ``write_csv``, so a run makes one workspace (about 1.9 MB) and
    writes every table through it.

    The arrays are views of one allocation of 232 bytes a cell, freed as one
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
    np.floor_divide(n_ends, 100, out=quotients)
    np.subtract(quotients[1], quotients[0], out=one)
    np.right_shift(one, 63, out=one)  # all bits set where (n_low, n_high] holds a multiple of 100
    quotients[0] *= 100
    _blend(value, quotients[0], one)
    # 10**17 carried into the next decade: left to repr
    np.equal(value, _POW10[17], out=flags[1])
    unsure |= flags[1]
    return value, e10, unsure


def repr_chars(values: np.ndarray, work: Workspace, before: int = 0, after: int = 0) -> np.ndarray:
    """The lines of the (columns, rows) block ``values``: shape (rows, before
    + columns * width + after), a view of ``work.chars`` valid until its next
    use.  Cell (j, i) is bytes ``before + j * width`` to ``before + (j + 1)
    * width`` of line i, its last byte a comma; ``before`` and ``after``
    bytes of each line are left to the caller as they were.

    ``width`` is at most ``WIDTH``: a block has the whole words its cells
    need, the zeros word only if a cell below 1 has a zero after the point,
    and the exponent's word only if a cell is d.ddde+XX.  ``work`` holds at
    least ``values.size`` cells, and the lines in ``work.chars``.
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
    # repr writes a finite, nonzero |x| out of range in up to 24 bytes, so
    # its block takes the exponent's word
    far = False
    if outside.any():
        rest = x[outside]
        far = bool((np.isfinite(rest) & (rest != 0)).any())
        np.copyto(ax, 1.0, where=outside)
    value, e10, unsure = _decimal(ax, s, flags, work.e2[:count])

    # the 17 digits split into the whole part and the fraction, and a
    # negative cell's mark, a 1 just before its first digit, added to the
    # whole part: its word writes the 1 as "-"
    decade, sign = si[0], si[1]
    np.add(e10, _E0, out=decade)
    split = si[2:6].reshape(count, 4)
    _BY_E10.take(decade, axis=0, out=split, mode="clip")
    cut, scale, mark, zeros = split.T
    whole, fraction = si[6], si[7]
    np.divmod(value, cut, out=(whole, fraction))
    fraction *= scale  # 17 digits, left-aligned
    np.right_shift(x.view(np.int64), 63, out=sign)  # all bits set where x < 0
    np.bitwise_and(mark, sign, out=si[8])
    whole += si[8]

    # The cell's words, as indices into _WORDS: a word per whole group that
    # some cell uses, the last with the point; the zeros after the point if
    # some cell has one; four fraction words; then the 17th fraction digit
    # and the comma, with the exponent between them if some cell has one.
    top = int(whole.max(initial=0))
    upper = _UPPER[sum(top < place for place in _UPPER.tolist()):, None]
    has_zeros = zeros.max(initial=0) > _AT["zeros"]
    positional = _E0 - 4 <= decade.min(initial=_E0) <= decade.max(initial=_E0) < _E0 + 16
    exponential = far or not positional
    k, words = len(upper), len(upper) + has_zeros + (7 if exponential else 6)
    index = si[8:8 + words]
    last, fractions, tails = index[k], index[k + 1 + has_zeros:k + 5 + has_zeros], index[-2:]
    if has_zeros:
        index[k + 1] = zeros
    if exponential:
        # a one-digit d.ddde+XX has no point: its last whole word comes from
        # "single", its first fraction word is all NULs
        single = flags[2]
        np.subtract(decade, _E0 - 4, out=si[2])
        np.greater_equal(si[2].view(np.uint64), 20, out=single)
        np.equal(fraction, 0, out=temp)
        single &= temp
        np.multiply(decade, 10, out=tails[0])
        tails[0] += _AT["exp_a"]
        np.add(decade, _AT["exp_b"], out=tails[1])
    # the whole groups, in full after a group with a digit, else from
    # "lead" or, for a negative cell, "minus": step is 1000 or 2000, the
    # offset of those in "last", and 10 * step their offset for the others
    step = si[0]
    np.multiply(sign, -1000, out=step)
    step += 1000
    if k:
        groups, leading = index[:k], si[2:2 + k]
        np.floor_divide(whole, upper, out=groups)
        np.multiply(groups[-1], 1000, out=last)
        np.subtract(whole, last, out=last)
        np.less(groups, 10000, out=leading)
        np.multiply(groups[:-1], 10000, out=fractions[:k - 1])
        groups[1:] -= fractions[:k - 1]
        np.multiply(step, 10, out=si[1])
        leading *= si[1]
        groups += leading
        np.less(whole, 1000, out=temp)
        step *= temp
        last += _AT["last"]
    else:
        np.add(whole, _AT["last"], out=last)
    last += step
    if exponential:
        np.multiply(single, _AT["single"] - _AT["last"], out=step)
        last += step
    # the four fraction groups at once: group k is fraction // 10**(13 - 4k)
    # less 10**4 times the one before, with its trailing zeros as NULs when
    # no digit comes after it, that is when fraction // 10**(13 - 4k) *
    # 10**(13 - 4k) is fraction itself
    scaled, trailing = si[2:6], flags[4:8]
    np.floor_divide(fraction, _FRACTION_PLACES, out=fractions)
    np.multiply(fractions, _FRACTION_PLACES, out=scaled)
    np.equal(scaled, fraction, out=trailing)
    np.subtract(fraction, scaled[3], out=fraction)  # the 17th digit
    if exponential:
        tails[0] += fraction
    else:
        np.add(fraction, _AT["tail"], out=tails[1])
    np.multiply(fractions[:3], 10000, out=scaled[1:])
    fractions[1:] -= scaled[1:]
    np.multiply(trailing, _FRACTION_AT, out=scaled)
    fractions += scaled
    if exponential:
        np.multiply(single, _AT["first"] - _AT["fraction"], out=scaled[0])
        fractions[0] -= scaled[0]

    width = 4 * words
    columns, rows = shape
    line = before + columns * width + after
    lines = work.chars[:rows * line].reshape(rows, line)
    chars = lines[:, before:line - after].reshape(rows, columns, width).transpose(1, 0, 2)
    quads = s[:6].view(np.uint32).ravel()[:words * count].reshape(words, count)
    _WORDS.take(index, out=quads, mode="wrap")
    chars.view(np.uint32)[...] = quads.reshape(words, columns, rows).transpose(1, 2, 0)

    # the cells off the pass keep their comma and get every byte before it:
    # NaN none, every other one repr(x + 0.0)
    if outside.any():
        np.isnan(x, out=temp)
        if temp.any():
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


def _all_nan(column: np.ndarray) -> bool:
    """Whether every value of the non-empty ``column`` is NaN; its ends first."""
    return column[0] != column[0] and column[-1] != column[-1] and bool(np.isnan(column).all())


def _csv_lines(block: Sequence[np.ndarray], work: Workspace) -> bytes:
    """The CSV lines of equal-length columns whose floats are adjacent.

    ``repr_chars`` lays the float cells out in lines through ``work``, each
    NUL-padded with its comma last and NaN empty.  A float column that is
    all NaN in the block, at the end of the float columns, skips the kernel
    (the first float column never does): its cells are NULs and a comma.
    The int and bool cells before and after the floats go into the same
    lines, as their digits or ``true``/``false`` and a comma, then each
    line's last comma becomes its newline and the NULs are dropped.
    """
    kinds = "".join(column.dtype.kind for column in block)
    first, count = kinds.index("f"), kinds.count("f")
    widths = [_CELL_BYTES[kind] for kind in kinds]
    # column after column, so the kernel's masks run along a column
    values = work.x[:len(block[0]) * count].reshape(count, -1)
    for row, column in zip(values, block[first:first + count]):
        row[...] = column
    kept = count
    while kept > 1 and _all_nan(values[kept - 1]):
        kept -= 1
    end = first + kept
    widths[end:first + count] = [4] * (count - kept)
    before, after = sum(widths[:first]), sum(widths[end:])
    lines = repr_chars(values[:kept], work, before, after)
    widths[first:end] = [(lines.shape[1] - before - after) // kept] * kept
    for j, (column, stop, width) in enumerate(zip(block, accumulate(widths), widths)):
        if first <= j < end:
            continue
        cells = lines[:, stop - width:stop - 1]
        if column.dtype.kind == "f":
            cells[...] = 0
        else:
            cells = cells.view(f"S{width - 1}")[:, 0]
            cells[...] = np.where(column, b"true", b"false") if column.dtype.kind == "b" else column
        lines[:, stop - 1] = ord(",")
    lines[:, -1] = ord("\n")
    return lines.tobytes().translate(None, b"\0")


def write_csv(path, header: Sequence[str], columns: Sequence, work: Workspace) -> None:
    """Write equal-length ``columns`` (arrays or lists) under ``header``.

    A column holds floats, ints or bools.  Every table has at least two
    columns, so no row is a lone empty field (written ``""``); fewer raise
    ``TypeError``.  The float columns are adjacent, any int and bool columns
    before or after them; other columns or another order raise
    ``TypeError``.  Every block of rows is formatted through ``work``,
    whatever the table's length.
    """
    arrays = [np.asarray(column) for column in columns]
    if len(arrays) < 2:
        raise TypeError(f"a CSV table has at least two columns, got {len(arrays)}")
    if set("".join(array.dtype.kind for array in arrays).strip("biu")) != {"f"}:
        raise TypeError("CSV columns hold floats, ints or bools, and the float columns must be "
                        f"adjacent, got {', '.join(str(array.dtype) for array in arrays)}")
    step = _block_rows(arrays)
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        for start in range(0, len(arrays[0]), step):
            handle.write(_csv_lines([a[start:start + step] for a in arrays], work))
