"""The trajectory tables as CSV: traj_segments.csv and traj_sampled.csv.

spa.write_segments_csv and spa.write_sampled_csv import this module on
their first call, so the commands that write no trajectory table never
compile it. Both tables are written a block of trajectories at a time
with numpy. The sampler takes the running-sum sample times of the whole
block from one row-wise cumsum, gives each sample its segment by counting
the later segment starts at or before it, and applies spa.evaluate's
clamp and formulas to arrays. Every float cell of both tables is printed
by one exact vectorised '%.10g' (_g10_cells), which leaves to Python only
the values it cannot prove correctly rounded; a segment without
acceleration prints its held speed once for all its samples. The cells
of a block go, one V{width} item each, into a bytearray-backed row
matrix whose NUL padding is squeezed out in place. The bytes are those
of calling spa.evaluate per sample and csv.writer per row.
"""
from __future__ import annotations

import functools
import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import write_atomic
from .spa import FEAS_TOL, OutOfDomain, Trajectory

# Sample-matrix cells (trajectories x the longest one's samples) of one
# block of the sampled table, about 9 800 rows on traj-plan's scenario; a
# longer trajectory is a block of its own.
SAMPLE_BLOCK = 12288
# Trajectories per block of the segment table.
SEGMENT_BLOCK = 512
# Bytes of the row matrix squeezed at a time.
SQUEEZE = 1 << 16


@functools.lru_cache(maxsize=None)
def _digit_tables() -> Tuple[np.ndarray, ...]:
    """Every four-digit group 0..9999 as four ASCII bytes, one uint32 each.

    Four tables: plain ("0042"); lead, with leading zeros as NUL ("42"
    behind two NULs, 0 all NUL); units, lead but 0 as "0"; trail, with
    trailing zeros as NUL ("42" for 4200, 0 all NUL). Built on first use.
    """
    g = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    plain = digits + np.uint8(48)
    lead = np.where(np.cumsum(digits, axis=1, dtype=np.uint16) > 0, plain, np.uint8(0))
    units = lead.copy()
    units[0, 3] = 48
    trail = np.where(np.cumsum(digits[:, ::-1], axis=1, dtype=np.uint16)[:, ::-1] > 0, plain,
                     np.uint8(0))
    tables = tuple(t.view("<u4").ravel() for t in (plain, lead, units, trail))
    for t in tables:
        t.flags.writeable = False  # shared by every call
    return tables


_TENS = 10.0 ** np.arange(14)                       # exact: 10^q < 2^53
_TENS_INT = 10 ** np.arange(17, dtype=np.int64)


def _split_group(digits: np.ndarray, more: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The last four digits (in place of digits) and the rest; all of digits when none is left."""
    if not more:
        return digits, None
    rest = digits // 10_000
    digits -= rest * 10_000
    return digits, rest


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
    floor-division splits N exactly into integer and fraction digits;
    int64 floor-divisions cut those into four-digit groups, laid out from
    _digit_tables: the leading integer group without its leading zeros,
    the last fraction group without its trailing zeros, and a decimal
    point only before a nonzero fraction. Every other value goes through
    Python's '%.10g': NaN, infinities, |v| below 1e-4 or from 1e10 up, m
    within 1e-5 of a tie, and m outside [10^9 - 1/2, 10^10 - 1/2), where
    log10 misplaced e next to a power of ten or N carries into the next
    decade. Most steps work in place, and temporaries go once used up.
    """
    plain, lead, units, trail = _digit_tables()
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
    has_frac = frac != 0
    slow = np.flatnonzero(~fast)
    del fast
    texts = [("%.10g" % v).encode() for v in values[slow].tolist()]

    negative = np.signbit(values)
    signed = bool(negative.any())
    top = int(whole.max()) if n else 0
    n_int = 1 if top < 10 ** 4 else 2 if top < 10 ** 8 else 3
    n_frac = -(-int(np.where(has_frac, q, 0).max(initial=0)) // 4)
    if n_frac:  # the fraction digits as 4 * n_frac digits, trailing zeros included
        np.maximum(np.subtract(4 * n_frac, q, out=q), 0, out=q)
        frac *= _TENS_INT[q]
    del q
    width = signed + 4 * n_int + (1 + 4 * n_frac if n_frac else 0)
    width = max([width] + [len(t) for t in texts])
    cells = np.zeros((n, width), dtype=np.uint8)

    def put(offset: int, groups: np.ndarray) -> None:  # four bytes at offset in every cell
        np.ndarray((n,), "<u4", cells, offset, (width,))[...] = groups

    if signed:
        cells[:, 0] = np.where(negative, ord("-"), 0)
    for k in range(n_int):  # least significant group first
        g, whole = _split_group(whole, k < n_int - 1)
        low = units if k == 0 else lead
        put(signed + 4 * (n_int - 1 - k), low[g] if k == n_int - 1
            else np.where(whole > 0, plain[g], low[g]))
    del g
    if n_frac:
        point = signed + 4 * n_int
        cells[:, point] = np.where(has_frac, ord("."), 0)
        later = None  # a nonzero group after this one keeps its trailing zeros
        for k in range(n_frac):
            g, frac = _split_group(frac, k < n_frac - 1)
            put(point + 1 + 4 * (n_frac - 1 - k),
                trail[g] if later is None else np.where(later, plain[g], trail[g]))
            if later is None:
                later = g > 0
            else:
                later |= g > 0
    if texts:
        cells[slow] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return cells


def _int_cells(values: Sequence[int]) -> np.ndarray:
    """str(v) of every integer v, as NUL-padded ASCII cells."""
    texts = np.array([f"{v}".encode() for v in values])
    return texts.view(np.uint8).reshape(len(texts), texts.dtype.itemsize)


def _items(cells: np.ndarray, width: int) -> np.ndarray:
    """Each cell of a cell matrix as one V{width} item, NUL-padded on the right to width."""
    if cells.shape[1] < width:
        cells = np.concatenate(
            [cells, np.zeros((cells.shape[0], width - cells.shape[1]), np.uint8)], axis=1)
    return cells.view(f"V{width}")[:, 0]


# One part of a column: cell matrix, the cell of each row (None: one cell
# per row, in order) and the rows it fills (None: every row, in order).
Part = Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]


def _put_column(text: bytearray, width: int, start: int, parts: List[Part]) -> int:
    """Write a column and its comma at byte start of every row; the next column's start.

    The parts are written in turn, each at the column's width, so a later
    part overwrites the rows it fills whole.
    """
    size = max(cells.shape[1] for cells, _, _ in parts)
    n = len(text) // width
    field = np.ndarray((n,), f"V{size}", text, start, (width,))
    for cells, index, rows in parts:
        items = _items(cells, size)
        if index is not None:
            np.take(items, index, out=field, mode="clip")  # valid indices; "clip" is unbuffered
        elif rows is not None:
            field[rows] = items
        else:
            field[...] = items
    np.ndarray((n,), np.uint8, text, start + size, (width,))[...] = ord(",")
    return start + size + 1


def _csv_rows(n: int, columns: List[List[Part]]) -> str:
    """n rows of cells joined by commas, each ended by \\r\\n, without the NULs.

    Every cell is moved as one V{width} item into a bytearray-backed row
    matrix, and each column is let go once copied. The NULs are then
    squeezed out of the bytearray in place, SQUEEZE bytes at a time, so the
    matrix is never copied whole.
    """
    width = sum(max(cells.shape[1] for cells, _, _ in parts) for parts in columns)
    width += len(columns) + 1
    text = bytearray(n * width)
    start = 0
    while columns:
        start = _put_column(text, width, start, columns.pop(0))
    np.ndarray((n, 2), np.uint8, text, width - 2, (width, 1))[...] = (ord("\r"), ord("\n"))
    kept = 0
    for start in range(0, len(text), SQUEEZE):  # kept <= start: the squeezed text fits behind
        part = text[start:start + SQUEEZE].translate(None, b"\0")
        text[kept:kept + len(part)] = part
        kept += len(part)
    del text[kept:]
    return text.decode("ascii")


def _segment_block(trajectories: Sequence[Trajectory]) -> str:
    """Rows of the segment table for a block of trajectories."""
    segs = [s for traj in trajectories for s in traj.segments]
    table = np.array([(s.t_start, s.duration, s.accel, s.x_start, s.v_start) for s in segs],
                     dtype=np.float64).reshape(-1, 5)
    per_traj = np.array([len(traj.segments) for traj in trajectories])
    owner = np.repeat(np.arange(len(trajectories)), per_traj)
    index = np.arange(len(segs)) - np.repeat(np.cumsum(per_traj) - per_traj, per_traj)
    ids = _int_cells([traj.vehicle_id for traj in trajectories])
    return _csv_rows(len(segs), [[(ids, owner, None)],
                                 [(_int_cells(range(int(per_traj.max()))), index, None)]]
                     + [[(_g10_cells(col), None, None)] for col in table.T])


def write_segments_csv(trajectories: Sequence[Trajectory], path: str) -> None:
    """spa.write_segments_csv: SEGMENT_BLOCK trajectories at a time."""
    header = "vehicle_id,segment_index,t_start,duration,accel,x_start,v_start\r\n"
    blocks = (_segment_block(trajectories[i:i + SEGMENT_BLOCK])
              for i in range(0, len(trajectories), SEGMENT_BLOCK))
    write_atomic(path, itertools.chain((header,), blocks))


def _sample_steps(t0: np.ndarray, t_f: np.ndarray, dt: float) -> np.ndarray:
    """Running-sum entries to allow each trajectory: its estimate plus slack."""
    steps = (t_f - 1e-12 - t0) / dt
    worst = int(np.argmax(steps))
    if not steps[worst] < np.iinfo(np.intp).max // 8:  # more bytes than an array can index
        raise MemoryError(f"cannot sample {steps[worst] + 3:.3g} times from t={t0[worst]}"
                          f" to t={t_f[worst]} at dt={dt}")
    return np.maximum(steps.astype(np.intp), 0) + 3


def _sample_times(t0: Sequence[float], t_f: Sequence[float],
                  dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Each trajectory's sample times, one after another, and their counts.

    A trajectory entering at t0 and crossing at t_f (one entry each) is
    sampled at t0, t0 + dt, ... while below t_f - 1e-12, then at t_f. The
    times are running sums (t += dt, in order), not t0 + k * dt: one
    row-wise cumsum over a trajectories x steps matrix whose first column
    is t0 and whose other columns are dt adds in order, so each time has
    the bits a scalar loop would give.
    """
    t0 = np.atleast_1d(np.asarray(t0, dtype=np.float64))
    t_f = np.atleast_1d(np.asarray(t_f, dtype=np.float64))
    stop = t_f - 1e-12
    width = int(_sample_steps(t0, t_f, dt).max())
    while True:
        ts = np.full((t0.size, width), dt)
        ts[:, 0] = t0
        np.cumsum(ts, axis=1, out=ts)
        short = ts[:, -1] < stop
        if not short.any():
            break
        stuck = short & (ts[:, -1] == ts[:, -2])
        if stuck.any():
            raise ValueError(f"step dt={dt} does not advance t={ts[stuck, -1][0]}")
        width *= 2  # rounding drift outran the estimate: sum further
    keep = ts < stop[:, None]
    ends = (np.arange(t0.size), keep.sum(axis=1))
    ts[ends] = t_f
    keep[ends] = True
    return ts[keep], ends[1] + 1


def _sampled_block(trajectories: Sequence[Trajectory], dt: float) -> str:
    """Rows of the sampled table for a block of trajectories.

    Each sample takes the segment evaluate picks, the first one moved on
    by one for each later segment start at or before the sample, then
    evaluate's clamp and formulas in the same order, so every value keeps
    evaluate's bits. Only the samples of accelerating segments print their
    own v = v_start + accel * d: for every finite d >= +0 and accel = +-0,
    that is v_start + accel * 0.0, one cell per segment.
    """
    times, rows = _sample_times([traj.t0 for traj in trajectories],
                                [traj.t_f for traj in trajectories], dt)
    per_traj = np.array([len(traj.segments) for traj in trajectories])
    t_start, duration, accel, x_start, v_start = np.array(
        [(s.t_start, s.duration, s.accel, s.x_start, s.v_start)
         for traj in trajectories for s in traj.segments], dtype=np.float64).reshape(-1, 5).T
    first = np.cumsum(per_traj) - per_traj
    seg = np.repeat(first, rows)
    for j in range(1, int(per_traj.max())):
        later = np.full(len(trajectories), np.inf)
        has = per_traj > j
        later[has] = t_start[first[has] + j]
        seg += np.repeat(later, rows) <= times
    ids = _int_cells([traj.vehicle_id for traj in trajectories])
    columns = [[(ids[np.repeat(np.arange(len(trajectories)), per_traj)], seg, None)]]
    # min(max(t - t_start, 0), duration) with Python's tie and NaN rules.
    d = times - t_start[seg]
    columns.append([(_g10_cells(times), None, None)])
    del times
    np.copyto(d, 0.0, where=0.0 > d)
    dur = duration[seg]
    np.copyto(d, dur, where=dur < d)
    del dur
    # The samples whose v may differ from their segment's held speed:
    # accel not +-0, or d not finite and >= +0 (-0.0, inf or nan).
    moving = np.flatnonzero((accel != 0.0)[seg] | np.signbit(d) | ~(d < np.inf))
    at = seg[moving]
    v = accel[at]
    v *= d[moving]
    v += v_start[at]  # v_start + accel * d
    del at
    held, v = _g10_cells(accel * 0.0 + v_start), _g10_cells(v)
    x = v_start[seg]
    x *= d
    x += x_start[seg]  # x_start + v_start * d
    half = (0.5 * accel)[seg]
    half *= d
    half *= d
    x += half  # ... + 0.5 * accel * d * d
    del d, half
    columns.append([(_g10_cells(x), None, None)])
    del x
    columns.append([(held, seg, None), (v, None, moving)])
    columns.append([(_g10_cells(accel), seg, None)])
    return _csv_rows(seg.size, columns)


def _sample_blocks(trajectories: Sequence[Trajectory], dt: float) -> Iterator[str]:
    """The sampled table's rows, one block of trajectories at a time."""
    if not trajectories:
        return
    t0 = np.array([traj.t0 for traj in trajectories], dtype=np.float64)
    t_f = np.array([traj.t_f for traj in trajectories], dtype=np.float64)
    early = np.flatnonzero(t_f < t0 - FEAS_TOL)
    if early.size:
        traj = trajectories[early[0]]
        raise OutOfDomain(f"t={traj.t_f} outside [{traj.t0}, {traj.t_f}]")
    start, widest = 0, 0
    for j, width in enumerate(_sample_steps(t0, t_f, dt).tolist()):
        if j > start and (j + 1 - start) * max(widest, width) > SAMPLE_BLOCK:
            yield _sampled_block(trajectories[start:j], dt)
            start, widest = j, 0
        widest = max(widest, width)
    yield _sampled_block(trajectories[start:], dt)


def write_sampled_csv(trajectories: Sequence[Trajectory], path: str, dt: float) -> None:
    """spa.write_sampled_csv: a block of trajectories at a time."""
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    blocks = _sample_blocks(trajectories, dt)
    write_atomic(path, itertools.chain(("vehicle_id,t,x,v,a\r\n",), blocks))
