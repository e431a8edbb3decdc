"""Text cells printed with numpy, and rows built from them.

A cell matrix holds one ASCII cell per row, NUL-padded (n x width uint8).
The numbers of vehicles.jsonl and of the trajectory tables are printed
here; results.csv, delay_sweep.csv and approx.csv go through cli._fmt
(f"{x:.10g}") instead. _int_cells as str prints an integer, _repr_cells
as repr prints a float (vehicles.jsonl) and _g10_cells as '%.10g' %
does (the trajectory tables). Each finds its digits in its own way and
hands the sign, the integer part and the fraction to one fixed-point
layout (_layout), which prints them from four-digit tables
(_digit_tables) and puts in the rows it leaves to Python. _rows lays
literals and columns into a bytearray-backed row matrix, one V{width}
item per cell, and squeezes its NUL padding out in place (_squeeze). The
vehicles.jsonl writer (sim.RunResult) and the trajectory tables
(_trajcsv) import this module on first use, so the commands that write
neither never compile it.
"""
from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

# Bytes of the row matrix squeezed at a time.
SQUEEZE = 1 << 16

_TENS_INT = 10 ** np.arange(18, dtype=np.int64)
_TENS = 10.0 ** np.arange(23)                        # exact: 5^k < 2^53
_TENS_HI = _TENS * 134217729.0 - (_TENS * 134217729.0 - _TENS)  # Veltkamp split of 10^k
_TENS_LO = _TENS - _TENS_HI
_MANTISSA = np.uint64((1 << 52) - 1)


@functools.lru_cache(maxsize=None)
def _digit_tables() -> Tuple[np.ndarray, ...]:
    """Every four-digit group 0..9999 as four ASCII bytes, one uint32 each.

    Four tables: plain ("0042"); lead, with leading zeros as NUL ("42"
    behind two NULs, 0 all NUL); units, lead but 0 as "0"; trail, with
    trailing zeros as NUL ("42" for 4200, 0 all NUL). Built on first use.
    """
    g = np.arange(10_000, dtype=np.uint16)
    digits = np.empty((10_000, 4), np.uint8)
    for i, scale in enumerate((1000, 100, 10, 1)):
        digits[:, i] = g // scale % 10
    del g
    plain = digits + np.uint8(48)
    lead = np.where(np.maximum.accumulate(digits, axis=1) > 0, plain, np.uint8(0))
    units = lead.copy()
    units[0, 3] = 48
    np.maximum.accumulate(digits[:, ::-1], axis=1, out=digits[:, ::-1])
    trail = np.where(digits > 0, plain, np.uint8(0))
    del digits
    tables = tuple(t.view("<u4").ravel() for t in (plain, lead, units, trail))
    for t in tables:
        t.flags.writeable = False  # shared by every call
    return tables


def _split_group(digits: np.ndarray, more: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The last four digits (in place of digits) and the rest; all of digits when none is left."""
    if not more:
        return digits, None
    rest = digits // 10_000
    digits -= rest * 10_000
    return digits, rest


def _put(cells: np.ndarray, offset: int, groups: np.ndarray) -> None:
    """Four bytes (one uint32 group) at offset in every cell."""
    n, width = cells.shape
    np.ndarray((n,), "<u4", cells, offset, (width,))[...] = groups


def _layout(negative: np.ndarray, whole: np.ndarray, fraction: List[Tuple[np.ndarray, int]],
            slow: np.ndarray, texts: List[bytes], point_zero: bool = False) -> np.ndarray:
    """Fixed-point cells: a sign, whole digits and fraction digits, or texts.

    A row is "-" where negative is set, then str(w) of its w in whole
    (int64, >= 0), then a point and its fraction digits without their
    trailing zeros; where those are all zero, ".0" if point_zero is set
    and nothing otherwise. fraction lists the fraction digits as
    (digits, groups) pairs in order, each 4 * groups digits with their
    leading zeros (int64, below 10^(4 groups)); without pairs no row has
    a point. The rows slow hold texts instead, one each. whole and the
    fraction digits are used up.
    """
    plain, lead, units, trail = _digit_tables()
    signed = bool(negative.any())
    n_int = -(-len(str(int(whole.max(initial=0)))) // 4)
    n_frac = sum(groups for _, groups in fraction)
    width = signed + 4 * n_int + (1 + 4 * n_frac if fraction else 0)
    width = max([width] + [len(t) for t in texts])
    cells = np.zeros((whole.size, width), dtype=np.uint8)
    if signed:
        cells[:, 0] = negative * np.uint8(ord("-"))
    for k in range(n_int):  # least significant group first
        g, whole = _split_group(whole, k < n_int - 1)
        low = units if k == 0 else lead
        _put(cells, signed + 4 * (n_int - 1 - k),
             low[g] if k == n_int - 1 else np.where(whole > 0, plain[g], low[g]))
    point = signed + 4 * n_int
    start = point + 1 + 4 * n_frac
    later = None  # set where a nonzero digit follows: zeros print there
    for digits, groups in reversed(fraction):
        for k in range(groups):  # last group first
            g, digits = _split_group(digits, k < groups - 1)
            start -= 4
            _put(cells, start, trail[g] if later is None else np.where(later, plain[g], trail[g]))
            later = g > 0 if later is None else np.logical_or(later, g > 0, out=later)
    if fraction and point_zero:
        cells[:, point] = ord(".")
        cells[~later, point + 1] = ord("0")
    elif fraction:
        cells[:, point] = later * np.uint8(ord("."))
    if texts:
        cells[slow] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return cells


def _int_cells(values: Sequence[int]) -> np.ndarray:
    """str(v) of every integer v, as NUL-padded ASCII cells (n x width uint8).

    values is an integer array or a sequence of ints. An int outside
    (-2^63, 2^63), whose magnitude int64 cannot hold, goes through str.
    """
    edge = -2 ** 63
    try:
        whole = np.array(values, dtype=np.int64)  # a copy: _layout uses it up
        slow = np.flatnonzero(whole == edge)
    except OverflowError:  # an int outside int64
        wide = [not edge < v < -edge for v in values]
        whole = np.array([0 if w else v for v, w in zip(values, wide)], dtype=np.int64)
        slow = np.flatnonzero(wide)
    texts = [str(values[i]).encode() for i in slow.tolist()]
    whole[slow] = 0
    negative = whole < 0
    return _layout(negative, np.abs(whole, out=whole), [], slow, texts)


def _repr_cells(values: np.ndarray) -> np.ndarray:
    """repr(v) of every float v, as NUL-padded ASCII cells (n x width uint8).

    repr prints the shortest digits that read back as v, in fixed point
    where 1e-4 <= |v| < 1e16. There, with E = floor(log10 |v|) and
    k = 16 - E in [1, 20], 10^k is an exact double, and a Dekker
    two-product gives X = |v| * 10^k exactly as hi + lo; X lies in
    [10^16, 10^17) and is N + r, N its nearest integer and |r| <= 1/2.
    Every double within h = spacing(|v|) / 2 * 10^k of X (exact: a power
    of two times 10^k) reads back as v, and h > 0.55, so N always does.
    repr's digits are the nearest multiple of 10^j to X for the largest
    j at which that multiple lies within h. It is N rounded to a multiple
    of 10^j, a half going the way of r (to even where r is 0), and as
    within-h only gains multiples as j falls, five steps of bisection
    over j in [0, 16] find j. The digits are cut into the integer part
    and the fraction, laid out by _layout with ".0" for no fraction
    digits. Every other value goes through Python's repr: |v| outside
    that range (scientific notation, NaN and infinities included), powers
    of two (the gap below is half the one above), a tested distance
    within a relative 1e-9 of h, an exact tie between two candidates
    within h, N outside [10^16, 10^17) where log10 misplaced E, and
    digits that carry into the next decade.
    """
    n = values.size
    a = np.abs(values)
    zero = a == 0.0
    fast = (a >= 1e-4) & (a < 1e16)
    fast &= (a.view(np.uint64) & _MANTISSA) != 0
    np.copyto(a, 1.0, where=~fast)  # any value in range: its digits are not used
    e = np.log10(a)
    np.floor(e, out=e)
    k = np.subtract(16, e, out=e).astype(np.intp)
    del e
    h = np.spacing(a)
    h *= 0.5
    h *= _TENS[k]
    # X = hi + lo exactly (Dekker): |v| and 10^k split into 26-bit halves.
    hi = a * _TENS[k]
    big = a * 134217729.0
    a_hi = big - (big - a)
    a -= a_hi  # a_lo
    p_hi, p_lo = _TENS_HI[k], _TENS_LO[k]
    lo = a_hi * p_hi
    lo -= hi
    big = a_hi * p_lo
    lo += big
    np.multiply(a, p_hi, out=big)
    lo += big
    np.multiply(a, p_lo, out=big)
    lo += big
    del a, a_hi, p_hi, p_lo, big
    rounded = np.rint(lo)
    r = lo - rounded  # X - N, exact: both are below 16
    whole = rounded.astype(np.int64)
    whole += hi.astype(np.int64)  # N; hi is an integer from 2^53 up
    del lo, rounded, hi
    fast &= (whole >= _TENS_INT[16]) & (whole < 10 * _TENS_INT[16])
    r_up, r_zero = r > 0.0, r == 0.0
    near = np.zeros(n, np.intp)  # largest j known within h (0 always is)
    far = np.full(n, 17, np.intp)  # least j known not within h
    digits = whole.copy()  # the nearest multiple of 10^near, divided by it
    for _ in range(5):
        j = (near + far) >> 1
        step = _TENS_INT[j]
        q = whole // step
        twice = whole - q * step
        twice *= 2
        half = twice == step
        up = (twice > step) | (half & (r_up | (r_zero & ((q & 1) == 1))))
        q += up
        dist = (q * step - whole).astype(np.float64)
        dist -= r
        np.abs(dist, out=dist)
        within = dist < h
        dist -= h
        fast &= np.abs(dist, out=dist) > 1e-9 * h
        fast &= ~(half & r_zero & within)
        np.copyto(near, j, where=within)
        np.copyto(far, j, where=~within)
        np.copyto(digits, q, where=within)
    del whole, r, r_up, r_zero, h, step, q, twice, half, up, dist, within, far
    fast &= digits < _TENS_INT[17 - near]  # no carry into the next decade
    np.copyto(digits, 0, where=~fast)
    # digits * 10^-s, s = k - near fraction digits (none when s <= 0).
    s = k - near
    del k, near
    np.copyto(s, 0, where=~fast)
    u = np.clip(s - 16, 0, 4)  # fraction digits past the sixteenth
    rest = digits // _TENS_INT[u]
    tail = digits - rest * _TENS_INT[u]
    tail *= _TENS_INT[4 - u]
    s -= u
    t = np.clip(s, 0, 16)
    whole = rest // _TENS_INT[t]
    frac = rest - whole * _TENS_INT[t]
    frac *= _TENS_INT[16 - t]  # the first sixteen fraction digits
    whole *= _TENS_INT[np.maximum(-s, 0)]
    del digits, rest, u, t
    slow = np.flatnonzero(~(fast | zero))
    texts = [repr(v).encode() for v in values[slow].tolist()]
    if tail.any():  # a fifth group, after the sixteen digits of frac
        fraction = [(frac, 4), (tail, 1)]
    else:
        n_frac = max(min(-(-int(s.max(initial=0)) // 4), 4), 1)
        frac //= _TENS_INT[16 - 4 * n_frac]
        fraction = [(frac, n_frac)]
    del s, tail
    return _layout(np.signbit(values), whole, fraction, slow, texts, point_zero=True)


def _g10_cells(values: np.ndarray) -> np.ndarray:
    """'%.10g' % v of every float v, as NUL-padded ASCII cells (n x width uint8).

    A value v with 1e-4 <= |v| < 1e10, or v = 0, is printed in fixed point
    from its ten significant digits. With e = floor(log10 |v|) and
    q = 9 - e in [0, 13], 10^q is an exact double, so m = |v| * 10^q is the
    exact product after one rounding; m < 2^34 puts that rounding's error
    below 2^-20 < 1.1e-6. '%.10g' prints the exact product rounded to an
    integer N (half to even). Wherever m lies more than 1e-5 from a
    half-integer, so does the exact product, both round to the same
    integer, and N = rint(m). N / 10^q is an integer or lies more than
    1 / N > 1e-10 (relatively) below the next one, so one float
    floor-division splits N exactly into integer and fraction digits,
    laid out by _layout: a decimal point only before a nonzero fraction.
    Every other value goes through Python's '%.10g': NaN, infinities, |v|
    below 1e-4 or from 1e10 up, m within 1e-5 of a tie, and m outside
    [10^9 - 1/2, 10^10 - 1/2), where log10 misplaced e next to a power of
    ten or N carries into the next decade. Most steps work in place, and
    temporaries go once used up.
    """
    n = values.size
    m = np.abs(values)
    fast = (m < 1e10) & ((m >= 1e-4) | (m == 0.0))
    np.copyto(m, 0.0, where=~fast)
    e = np.full(n, 9.0)
    np.log10(m, out=e, where=m > 0.0)
    np.subtract(9.0, np.floor(e, out=e), out=e)
    q = np.clip(e, 0, 13, out=e).astype(np.intp)
    del e
    scale = _TENS[q]
    m *= scale  # still 0 exactly where |v| is 0 or was set to 0
    big = np.rint(m)
    fast &= ((m >= 999_999_999.5) & (m < 9_999_999_999.5)) | (m == 0.0)
    m -= big
    fast &= np.abs(m, out=m) < 0.5 - 1e-5
    del m
    whole = big / scale
    np.floor(whole, out=whole)  # exact, and so are the next two lines
    scale *= whole
    big -= scale
    del scale
    frac = big.astype(np.int64)
    del big
    whole = whole.astype(np.int64)
    slow = np.flatnonzero(~fast)
    del fast
    texts = [("%.10g" % v).encode() for v in values[slow].tolist()]
    n_frac = -(-int(np.where(frac != 0, q, 0).max(initial=0)) // 4)
    if n_frac:  # the fraction digits as 4 * n_frac digits, trailing zeros included
        np.maximum(np.subtract(4 * n_frac, q, out=q), 0, out=q)
        frac *= _TENS_INT[q]
    del q
    return _layout(np.signbit(values), whole, [(frac, n_frac)] if n_frac else [], slow, texts)


# One piece of a row: a literal, or a column: a cell matrix and the cell
# of each row (None: one cell per row, in order).
Column = Tuple[np.ndarray, Optional[np.ndarray]]
Piece = Union[bytes, Column]


def _size(piece: Piece) -> int:
    return len(piece) if isinstance(piece, bytes) else piece[0].shape[1]


def _put_column(text: bytearray, width: int, start: int, column: Column) -> None:
    """Write a column's cells at byte start of every row of the row matrix."""
    cells, index = column
    size = cells.shape[1]
    field = np.ndarray((len(text) // width,), f"V{size}", text, start, (width,))
    items = cells.view(f"V{size}")[:, 0]
    if index is None:
        field[...] = items
    else:
        np.take(items, index, out=field, mode="clip")  # valid indices; "clip" is unbuffered


def _rows(n: int, pieces: List[Piece]) -> str:
    """n rows, each the pieces in turn, without the NULs.

    A bytearray-backed row matrix is filled with copies of one row that
    holds the literals, NUL where the columns go; every cell is then moved
    into it as one V{width} item, and each column is let go once copied
    (pieces is emptied). The matrix is then squeezed in place.
    """
    width = sum(_size(piece) for piece in pieces)
    row = bytearray(width)
    start = 0
    for piece in pieces:
        if isinstance(piece, bytes):
            row[start:start + len(piece)] = piece
        start += _size(piece)
    text = bytearray(n * width)
    np.ndarray((n,), f"V{width}", text)[...] = np.frombuffer(row, f"V{width}")[0]
    start = 0
    while pieces:
        piece = pieces.pop(0)
        if not isinstance(piece, bytes):
            _put_column(text, width, start, piece)
        start += _size(piece)
        del piece
    return _squeeze(text)


def _squeeze(text: bytearray) -> str:
    """The text without its NULs, squeezed out in place SQUEEZE bytes at a
    time so that the bytearray is never copied whole; text is used up."""
    kept = 0
    for start in range(0, len(text), SQUEEZE):  # kept <= start: the squeezed text fits behind
        part = text[start:start + SQUEEZE].translate(None, b"\0")
        text[kept:kept + len(part)] = part
        kept += len(part)
    del text[kept:]
    return text.decode("ascii")
