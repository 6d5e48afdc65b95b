"""``repr`` of a whole float64 array in one numpy pass.

``repr_chars(values)`` gives each value x a row of ``WIDTH`` bytes; with its
NUL bytes removed the row is ``repr(x + 0.0)`` (so -0.0 reads 0.0), the
shortest decimal string that reads back as the same double (the nearest
such string when there are several).  The digits follow the idea of Grisu
(Loitsch 2010) and Ryu (Adams 2018): scale |x| by a power of ten to Y in
[1e16, 1e17), find the largest power of ten 10**d with a multiple inside
the rounding interval of Y, and take the multiple nearest Y.

Y is a double-double (about 104 bits), so its fraction is known to about
1e-14.  A cell is handed to ``repr`` itself when the kernel cannot be sure,
so the kernel never decides an exact case: a rounding tie or an interval
endpoint within ``TOL`` of a decimal grid point, and |x| outside
[1e-290, 1e290].  Zero, the infinities and NaN get ``repr``'s spellings.
"""

import numpy as np

TOL = 1e-9
_LOW, _HIGH = 1e-290, 1e290
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves
_POW10 = 10 ** np.arange(18, dtype=np.int64)
# 10**s for s in [-276, 308] (e10 in [-291, 290] and one corrective step)
# as head + tail + lo: head + tail is the double nearest 10**s, split for
# Dekker's product; an entry is built when its exponent first appears, as a
# sweep uses a few dozen and the whole table takes about 2 ms to build
_S0 = 276
_POWERS = np.full((3, _S0 + 309), np.nan)
# bytes of a cell, as 32-bit words: 3 NULs and the sign (or "0", or "-0",
# for |x| < 1); 16 whole digits, right-aligned; "." and up to 3 zeros; 16
# fraction digits, left-aligned; then the 17th fraction digit, "e", sign and
# 2 or 3 exponent digits, and at least two NULs
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
# a NUL (the 17th fraction digit's slot), then "e-324" to "e+308"
_E0 = 324
_EXPONENT = np.array([b"\0e%+03d" % e for e in range(-_E0, 309)], "S8").view(np.uint64)
# the cells the kernel does not scale: zero, inf, -inf and NaN
_SPELLINGS = np.array([b"0.0", b"inf", b"-inf", b"nan"], f"S{WIDTH}").view(np.uint8).reshape(4, -1)


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


def _scaled(ax: np.ndarray, e10: np.ndarray):
    """Y = ax * 10**(16 - e10) as int64 N plus fraction r, and 10**(16 - e10)."""
    index = _S0 + 16 - e10
    head, tail, lo = _POWERS.take(index, axis=1)
    if np.isnan(head).any():
        for i in set(index[np.isnan(head)].tolist()):
            _POWERS[:, i] = _power(i - _S0)
        head, tail, lo = _POWERS.take(index, axis=1)
    hi = head + tail
    # Dekker: ax * hi = p + err exactly
    t = _SPLIT * ax
    ah = t - (t - ax)
    al = ax - ah
    p = ax * hi
    rest = (((ah * head - p) + ah * tail + al * head) + al * tail) + ax * lo
    whole = np.floor(rest)
    # p >= 1e16 > 2**53 is an integer whenever e10 is right
    return p.astype(np.int64) + whole.astype(np.int64), rest - whole, hi


def _decimal(ax: np.ndarray):
    """Shortest digits of each ax in [1e-290, 1e290]: (V, e10, unsure).

    V in [1e16, 1e17) holds the digits, left-aligned with trailing zeros, and
    ax is about V * 10**(e10 - 16).  ``unsure`` marks the cells left to repr.
    """
    e10 = np.floor(np.log10(ax)).astype(np.int64)
    n, r, hi = _scaled(ax, e10)
    wrong = np.flatnonzero((n < _POW10[16]) | (n >= _POW10[17]))  # log10 missed by one
    if len(wrong):
        e10[wrong] += np.where(n[wrong] < _POW10[16], -1, 1)
        n[wrong], r[wrong], hi[wrong] = _scaled(ax[wrong], e10[wrong])

    # the rounding interval (Y - h_low, Y + h_high): half an ulp each way,
    # and half of that below a power of two; n_high is the largest integer
    # inside and n_low the largest below
    mantissa, e2 = np.frexp(ax)
    h_high = np.ldexp(hi, e2 - 54)
    top = r + h_high
    bottom = r - np.where(mantissa == 0.5, 0.5 * h_high, h_high)
    top_floor, bottom_floor = np.floor(top), np.floor(bottom)
    unsure = ((np.abs(top - top_floor - 0.5) > 0.5 - TOL)
              | (np.abs(bottom - bottom_floor - 0.5) > 0.5 - TOL))
    n_high = n + top_floor.astype(np.int64)
    n_low = n + bottom_floor.astype(np.int64)
    # the interval's arrays are done with (peak memory, see repr_chars)
    del hi, mantissa, e2, h_high, top, bottom, top_floor, bottom_floor

    # Y's digits end at the largest d with a multiple of 10**d in (n_low, n_high].
    # d = 0: round(Y), always inside, for half an ulp is over 0.55.  d = 1:
    # the multiple of 10 nearest Y, moved inside if it is not.  d >= 2: the
    # interval is under 23 wide, so its one multiple of 100 is the only
    # multiple of 10**d too.
    tens = n // 10
    one = n_high // 10 > n_low // 10
    excess = np.where(one, (n - 10 * tens) + r - 5.0, r - 0.5)  # > 0: round up; 0: a tie
    unsure |= np.abs(excess) < TOL
    value = np.where(one, 10 * (tens + (excess > 0)), n + (excess > 0))
    value -= 10 * (value > n_high)
    value += 10 * (value <= n_low)
    hundreds = n_high // 100
    deep = np.flatnonzero(hundreds > n_low // 100)
    value[deep] = 100 * hundreds[deep]
    # 10**17 is the carry into the next decade
    carry = deep[value[deep] == _POW10[17]]
    value[carry] = _POW10[16]
    e10[carry] += 1
    return value, e10, unsure


def repr_chars(values: np.ndarray) -> np.ndarray:
    """Shape ``values.shape + (WIDTH,)``: cell i is ``chars[i]``, and with its
    NUL bytes removed it is ``repr(values[i] + 0.0)``.  The last two bytes
    of every cell are NUL.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    ax = np.abs(x)
    kernel = (ax >= _LOW) & (ax <= _HIGH)
    ax[~kernel] = 1.0
    value, e10, unsure = _decimal(ax)
    del ax

    # d.ddde+XX outside [1e-4, 1e16); the whole part is value's first e10 + 1
    # digits, none below 1 (the sign word holds the "0") and one in d.ddde+XX
    positional = (e10 >= -4) & (e10 < 16)
    below_one = positional & (e10 < 0)
    lead = np.where(positional, np.maximum(e10 + 1, 0), 1)
    cut = _POW10[17 - lead]
    whole = value // cut
    fraction = (value - whole * cut) * _POW10[lead]  # 17 digits, left-aligned
    del value, lead, cut

    # Peak memory: arrays are dropped once used and the output is made only
    # now, so a 1024-row block of 7 columns peaks near 0.9 MB, not 1.5 MB.
    # glibc hands a large freed heap top back to the system, and each block
    # faults those pages in again.
    out = np.zeros((len(x), WIDTH), dtype=np.uint8)
    words = out.view(np.uint32)
    words[:, 0] = _SIGN.take((x < 0) + 2 * below_one)
    # whole groups: above the largest whole number all NUL, and with their
    # leading zeros as NULs when no digit comes before them
    top = whole.max(initial=0)
    rest = whole.copy()
    for column, place in zip(range(1, 5), _PLACES):
        if top >= place:
            group = rest // place
            rest -= group * place
            words[:, column] = _WORDS.take(group + 10000 * (whole < 10000 * place))
    # "." and the zeros after it below 1; ".0" for a whole number; no point
    # in a one-digit d.ddde+XX
    words[:, 5] = _POINT.take(np.where(
        below_one, -1 - e10, (fraction == 0) * np.where(positional, 1, 4)))
    # fraction groups, with their trailing zeros as NULs when no digit comes after them
    for column, place in zip(range(6, 10), _PLACES):
        group = fraction // (10 * place)
        fraction -= group * (10 * place)
        words[:, column] = _WORDS.take(group + 20000 * (fraction == 0))
    exponential = np.flatnonzero(~positional)
    if len(exponential):
        out.view(np.uint64)[exponential, 5] = _EXPONENT.take(e10[exponential] + _E0)
    out[:, 40] = (fraction != 0) * (fraction + 48)

    special = np.flatnonzero(~kernel)
    if len(special):
        xs = x[special]
        out[special] = _SPELLINGS.take(np.isinf(xs) * (1 + (xs < 0)) + 3 * np.isnan(xs), axis=0)
        unsure[special] = np.isfinite(xs) & (xs != 0.0)  # out of range: repr
    fallback = np.flatnonzero(unsure)
    if len(fallback):
        cells = np.array([repr(v) for v in x[fallback].tolist()], dtype="S24")
        out[fallback] = 0
        out[fallback, :24] = cells.view(np.uint8).reshape(-1, 24)
    return out.reshape(np.shape(values) + (WIDTH,))
