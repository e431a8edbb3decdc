"""Text cells printed with numpy, and rows built from them.

A cell matrix holds one ASCII cell per row, NUL-padded (n x width uint8).
_uint_cells prints non-negative integers and _repr_cells prints floats
exactly as repr does, both from four-digit tables (_digit_tables). _rows
lays literals and the cells of each column into a bytearray-backed row
matrix, one V{width} item per cell, and squeezes its NUL padding out in
place (_squeeze). The vehicles.jsonl writer (sim.RunResult) and the
trajectory tables (_trajcsv) import this module on first use, so the
commands that write neither never compile it.
"""
from __future__ import annotations

import functools
from typing import List, Optional, Tuple, Union

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


def _group_count(top: int) -> int:
    """Four-digit groups that print every integer from 0 to top."""
    count = 1
    while top >= 10 ** (4 * count):
        count += 1
    return count


def _put_whole(cells: np.ndarray, start: int, whole: np.ndarray, groups: int) -> None:
    """str(w) of every w in whole (int64, 0 <= w < 10^(4 groups)), right-aligned
    in 4 groups bytes from start; whole is used up."""
    plain, lead, units, _ = _digit_tables()
    for k in range(groups):  # least significant group first
        g, whole = _split_group(whole, k < groups - 1)
        low = units if k == 0 else lead
        _put(cells, start + 4 * (groups - 1 - k),
             low[g] if k == groups - 1 else np.where(whole > 0, plain[g], low[g]))


def _put_fraction(cells: np.ndarray, start: int, frac: np.ndarray, groups: int,
                  later: Optional[np.ndarray] = None) -> None:
    """The 4 groups digits of every f in frac (int64, 0 <= f < 10^(4 groups))
    from start, without their trailing zeros (all NUL for 0); frac is used up.

    Where later (bool, used up) is set, digits follow and all zeros print.
    """
    plain, _, _, trail = _digit_tables()
    for k in range(groups):  # last group first
        g, frac = _split_group(frac, k < groups - 1)
        _put(cells, start + 4 * (groups - 1 - k),
             trail[g] if later is None else np.where(later, plain[g], trail[g]))
        if later is None:
            later = g > 0
        else:
            later |= g > 0


def _uint_cells(values: np.ndarray) -> np.ndarray:
    """str(v) of every integer 0 <= v < 10^16, as NUL-padded ASCII cells."""
    whole = values.astype(np.int64)  # a copy: _put_whole uses it up
    groups = _group_count(int(whole.max(initial=0)))
    cells = np.zeros((whole.size, 4 * groups), np.uint8)
    _put_whole(cells, 0, whole, groups)
    return cells


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
    over j in [0, 16] find j. The digits are cut into integer and
    fraction groups, laid out from _digit_tables: the integer part without leading zeros, the fraction
    without trailing zeros, ".0" for none. Every other value goes through
    Python's repr: |v| outside that range (scientific notation, NaN and
    infinities included), powers of two (the gap below is half the one
    above), a tested distance within a relative 1e-9 of h, an exact tie
    between two candidates within h, N outside [10^16, 10^17) where
    log10 misplaced E, and digits that carry into the next decade.
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

    negative = np.signbit(values)
    signed = bool(negative.any())
    n_int = _group_count(int(whole.max(initial=0)))
    n_frac = min(-(-int(s.max(initial=0)) // 4), 4) + bool(tail.any())
    n_frac = max(n_frac, 1)
    del s
    width = signed + 4 * n_int + 1 + 4 * n_frac
    width = max([width] + [len(t) for t in texts])
    cells = np.zeros((n, width), dtype=np.uint8)
    if signed:
        cells[:, 0] = np.where(negative, ord("-"), 0)
    _put_whole(cells, signed, whole, n_int)
    point = signed + 4 * n_int
    cells[:, point] = ord(".")
    no_frac = (frac == 0) & (tail == 0)
    if n_frac > 4:  # a fifth group, after the sixteen digits of frac
        _put_fraction(cells, point + 1, frac, 4, later=tail > 0)
        _put_fraction(cells, point + 17, tail, 1)
    else:
        frac //= _TENS_INT[16 - 4 * n_frac]
        _put_fraction(cells, point + 1, frac, n_frac)
    cells[no_frac, point + 1] = ord("0")
    if texts:
        cells[slow] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return cells


# One piece of a row: a literal, or a column as parts. A part is a cell
# matrix, the cell of each row (None: one cell per row, in order) and the
# rows it fills (None: every row, in order); a later part overwrites the
# rows it fills.
Part = Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]
Piece = Union[bytes, List[Part]]


def _items(cells: np.ndarray, width: int) -> np.ndarray:
    """Each cell of a cell matrix as one V{width} item, NUL-padded on the right to width."""
    if cells.shape[1] < width:
        cells = np.concatenate(
            [cells, np.zeros((cells.shape[0], width - cells.shape[1]), np.uint8)], axis=1)
    return cells.view(f"V{width}")[:, 0]


def _size(piece: Piece) -> int:
    if isinstance(piece, bytes):
        return len(piece)
    return max(cells.shape[1] for cells, _, _ in piece)


def _put_column(text: bytearray, width: int, start: int, parts: List[Part]) -> None:
    """Write a column's parts at byte start of every row of the row matrix."""
    size = _size(parts)
    field = np.ndarray((len(text) // width,), f"V{size}", text, start, (width,))
    for cells, index, rows in parts:
        items = _items(cells, size)
        if index is not None:
            np.take(items, index, out=field, mode="clip")  # valid indices; "clip" is unbuffered
        elif rows is not None:
            field[rows] = items
        else:
            field[...] = items


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
