"""The trajectory tables as CSV: traj_segments.csv and traj_sampled.csv.

spa.write_segments_csv and spa.write_sampled_csv import this module on
their first call, so the commands that write no trajectory table never
compile it. Both tables are written a block of trajectories at a time
with numpy, from one conversion of the block's segments to arrays
(_block). The sampler takes the running-sum sample times of the whole
block from one row-wise cumsum, gives each sample its segment by counting
the later segment starts at or before it, and applies spa.evaluate's
clamp and formulas to arrays; a segment without acceleration prints its
held speed once for all its samples. Every cell is printed by _cells,
which also lays out the rows: each float by its exact vectorised '%.10g'
(_g10_cells), each vehicle id and segment index by its integer printer
(_int_cells). The bytes are those of calling spa.evaluate per sample and
csv.writer per row.
"""
from __future__ import annotations

import itertools
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ._cells import Column, Piece, _g10_cells, _int_cells, _rows
from .core import write_atomic
from .spa import FEAS_TOL, OutOfDomain, Trajectory

# Sample-matrix cells (trajectories x the longest one's samples) of one
# block of the sampled table, about 9 800 rows on traj-plan's scenario; a
# longer trajectory is a block of its own.
SAMPLE_BLOCK = 12288
# Trajectories per block of the segment table.
SEGMENT_BLOCK = 512


def _csv_rows(n: int, columns: List[Column]) -> str:
    """n rows of cells joined by commas, each ended by \\r\\n, without the NULs.

    The columns move into _rows's pieces, so each is let go once copied.
    """
    pieces: List[Piece] = []
    while columns:
        pieces += [columns.pop(0), b","]
    pieces[-1] = b"\r\n"
    return _rows(n, pieces)


def _block(trajectories: Sequence[Trajectory]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block's vehicle id cells, each trajectory's segment count and its
    segments' t_start, duration, accel, x_start and v_start (5 x segments)."""
    ids = _int_cells([traj.vehicle_id for traj in trajectories])
    per_traj = np.array([len(traj.segments) for traj in trajectories])
    table = np.array([(s.t_start, s.duration, s.accel, s.x_start, s.v_start)
                      for traj in trajectories for s in traj.segments], dtype=np.float64)
    return ids, per_traj, table.reshape(-1, 5).T


def _segment_block(trajectories: Sequence[Trajectory]) -> str:
    """Rows of the segment table for a block of trajectories."""
    ids, per_traj, table = _block(trajectories)
    n = int(per_traj.sum())
    owner = np.repeat(np.arange(len(trajectories)), per_traj)
    index = np.arange(n) - np.repeat(np.cumsum(per_traj) - per_traj, per_traj)
    return _csv_rows(n, [(ids, owner), (_int_cells(np.arange(per_traj.max())), index)]
                     + [(_g10_cells(col), None) for col in table])


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


def _sampled_block(trajectories: Sequence[Trajectory], t0: np.ndarray, t_f: np.ndarray,
                   dt: float) -> str:
    """Rows of the sampled table for a block of trajectories, entering at
    t0 and crossing at t_f.

    Each sample takes the segment evaluate picks, the first one moved on
    by one for each later segment start at or before the sample, then
    evaluate's clamp and formulas in the same order, so every value keeps
    evaluate's bits. Only the samples of accelerating segments print their
    own v = v_start + accel * d: for every finite d >= +0 and accel = +-0,
    that is v_start + accel * 0.0, one cell per segment.
    """
    times, rows = _sample_times(t0, t_f, dt)
    ids, per_traj, (t_start, duration, accel, x_start, v_start) = _block(trajectories)
    first = np.cumsum(per_traj) - per_traj
    seg = np.repeat(first, rows)
    for j in range(1, int(per_traj.max())):
        later = np.full(len(trajectories), np.inf)
        has = per_traj > j
        later[has] = t_start[first[has] + j]
        seg += np.repeat(later, rows) <= times
    columns = [(ids, np.repeat(np.arange(len(trajectories)), rows))]
    # min(max(t - t_start, 0), duration) with Python's tie and NaN rules.
    d = times - t_start[seg]
    columns.append((_g10_cells(times), None))
    del times
    np.copyto(d, 0.0, where=0.0 > d)
    dur = duration[seg]
    np.copyto(d, dur, where=dur < d)
    del dur
    # The samples whose v may differ from their segment's held speed:
    # accel not +-0, or d not finite and >= +0 (-0.0, inf or nan). Their
    # cells follow the segments' held ones in one matrix.
    moving = np.flatnonzero((accel != 0.0)[seg] | np.signbit(d) | ~(d < np.inf))
    at = seg[moving]
    v = accel[at]
    v *= d[moving]
    v += v_start[at]  # v_start + accel * d
    del at
    v = _g10_cells(np.concatenate([accel * 0.0 + v_start, v]))
    v_index = seg.copy()
    v_index[moving] = np.arange(accel.size, accel.size + moving.size)
    del moving
    x = v_start[seg]
    x *= d
    x += x_start[seg]  # x_start + v_start * d
    half = (0.5 * accel)[seg]
    half *= d
    half *= d
    x += half  # ... + 0.5 * accel * d * d
    del d, half
    columns.append((_g10_cells(x), None))
    del x
    columns += [(v, v_index), (_g10_cells(accel), seg)]
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
            yield _sampled_block(trajectories[start:j], t0[start:j], t_f[start:j], dt)
            start, widest = j, 0
        widest = max(widest, width)
    yield _sampled_block(trajectories[start:], t0[start:], t_f[start:], dt)


def write_sampled_csv(trajectories: Sequence[Trajectory], path: str, dt: float) -> None:
    """spa.write_sampled_csv: a block of trajectories at a time."""
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    blocks = _sample_blocks(trajectories, dt)
    write_atomic(path, itertools.chain(("vehicle_id,t,x,v,a\r\n",), blocks))
