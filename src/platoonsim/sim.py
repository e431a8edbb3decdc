"""Discrete-event simulation of the scheduling disciplines.

Vertical-queue model: a vehicle entering the control region at entry time e
can reach the stop line no earlier than a = e + free_flow_offset, and every
vehicle shares the same offset, so delays (c - a) are unaffected by it. The
simulator therefore works directly on the earliest-crossing times a.

run and run_reference are one body, _run, given one of two schedulers
with one contract: the list-based kernel _kernels.simulate_arrivals and
the object-level reference pfa.simulate (imported only when called).
Both take (a, lane0, params, kind, cap, check), return bit-identical
(final_c, fallback_count, max_platoon) and leave an unscheduled vehicle
NaN, which _summarize refuses. Every command schedules through the
kernel; no command runs the reference, which is the semantic anchor the
tests compare against. Sweeps run their grid points serially: the kernel
is pure Python and holds the interpreter lock.

The kernel and the reference only schedule: _queue_counts reads fairness
and the largest queue from the final (a, c, lane), their one definition.

RunResult.vehicles_jsonl_chunks prints the vehicle log JSONL_CHUNK
records at a time with numpy: _cells, imported on the first call,
prints every id and lane as str and every float exactly as repr (and so
json) does, and lays the records out in a row matrix squeezed in place.

Batch is gated with a cap on platoon size (k-limited gated service), and
the two disciplines part only when a join meets a full platoon. So where
gated's largest platoon stays within the cap, batch's schedule is gated's
bit for bit, and a sweep takes batch's result from the gated run at that
point instead of running the kernel again.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from .core import (PFA_KINDS, PlatoonError, RunConfig, SimParams, UnstableLoad, beyond_tie_tolerance,
                   validate_params)
from .polling import UnsupportedDiscipline, approx_mean_delay, check_analytic

__all__ = [
    "N_BATCHES",
    "T_95_19DF",
    "JSONL_CHUNK",
    "LaneStats",
    "RunResult",
    "make_arrivals",
    "batch_means_ci",
    "run",
    "run_reference",
    "result_rows",
    "sweep_rows",
    "RUN_CSV_HEADER",
]

N_BATCHES = 20
T_95_19DF = 2.093  # Student-t 0.975 quantile at 19 dof, for 20 batch means
# Records per block of the vehicle log: on run-jsonl, a row matrix of
# about 380 kB squeezed to about 270 kB of text. In-process there, a block
# adds 0.3 MB to the run's high-water mark at 1 024 or 2 048 records and
# 0.6 MB at 4 096; importing _cells and building its tables 0.4 MB more.
JSONL_CHUNK = 2048

RUN_CSV_HEADER = (
    "rho",
    "discipline",
    "lane",
    "sim_delay_mean",
    "ci95",
    "approx_delay",
    "fairness",
    "n_vehicles",
    "seed",
)


# ===================== arrival streams =====================

def make_arrivals(params: SimParams, n_total: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """First n_total merged Poisson arrivals, one RNG stream per lane.

    Returns (entry_times float64[n_total], lanes 0-based), merged in time
    order; each array owns exactly its n_total entries. The lanes are of
    np.min_scalar_type(params.n), one byte up to 255 lanes, so lane + 1
    never overflows. Lane streams come from SeedSequence(seed).spawn, so the same seed and
    parameters reproduce the same arrivals exactly, independently of the
    discipline they are later scheduled under. Each lane draws 1.2 times
    its share of n_total plus 64, and streams are extended until the merged
    prefix is provably uncensored (every lane generated past the horizon,
    the n_total-th merged arrival). Each stream is then cut at the horizon
    before the merge, so the oversampled tails are freed before the sort.
    """
    lane_type = np.min_scalar_type(params.n)
    if n_total <= 0:
        return np.empty(0, np.float64), np.empty(0, lane_type)
    children = np.random.SeedSequence(seed).spawn(params.n)
    gens = [np.random.Generator(np.random.PCG64(c)) for c in children]
    lam_total = sum(params.lam)
    times = [
        _arrival_times(gen, lam, int(n_total * (lam / lam_total) * 1.2) + 64)
        for gen, lam in zip(gens, params.lam)
    ]
    while True:
        if sum(t.size for t in times) >= n_total:
            pool = np.concatenate(times)
            pool.partition(n_total - 1)
            horizon = pool[n_total - 1]
            del pool
            short = [i for i, t in enumerate(times) if t[-1] < horizon]
            if not short:
                break
        else:
            short = list(range(params.n))
        for lane0 in short:
            grow = max(64, times[lane0].size // 2)
            more = _arrival_times(gens[lane0], params.lam[lane0], grow)
            times[lane0] = np.concatenate([times[lane0], times[lane0][-1] + more])
            del more
    counts = [int(np.searchsorted(t, horizon, "right")) for t in times]
    entry = np.concatenate([t[:k] for t, k in zip(times, counts)])
    del times
    order = np.argsort(entry, kind="stable")[:n_total]
    # The narrow lane column is built first, so the unsorted merge and order
    # leave two column-sized holes that the caller's a and c can reuse.
    lanes = np.repeat(np.arange(params.n, dtype=lane_type), counts)[order]
    return entry[order], lanes


def _arrival_times(gen: np.random.Generator, lam: float, size: int) -> np.ndarray:
    """Arrival times of size exponential gaps at rate lam, summed in place."""
    t = gen.exponential(1.0 / lam, size)
    return np.cumsum(t, out=t)


def _scripted_arrays(config: RunConfig) -> Tuple[np.ndarray, np.ndarray]:
    arr = config.arrivals or []
    entry = np.array([t for _, t in arr], np.float64)
    lanes = np.array([lane - 1 for lane, _ in arr], np.min_scalar_type(config.params.n))
    return entry, lanes


# ===================== results =====================

@dataclass
class LaneStats:
    lane: int           # 1-based lane index
    mean: float         # mean delay over the lane's post-warmup arrivals (s)
    ci95: float         # batch-means 95% half-width (s); NaN if undersampled
    n: int              # post-warmup arrivals on the lane


@dataclass
class RunResult:
    """One simulation run: per-vehicle schedule plus summary statistics."""

    discipline: str
    seed: int
    warmup: int
    entry: np.ndarray       # control-region entry time per vehicle (s)
    a: np.ndarray           # earliest feasible crossing time (s)
    lane0: np.ndarray       # 0-based lane per vehicle, of np.min_scalar_type(n)
    c: np.ndarray           # scheduled (final) crossing time per vehicle (s)
    mean: float             # mean delay, post-warmup (s)
    ci95: float             # batch-means 95% half-width (s)
    fairness: float         # sum_ahead / sum_total of _queue_counts (NaN if 0 / 0)
    lanes: List[LaneStats]
    max_queue: int          # most vehicles scheduled at once, the arrival included
    fallback_count: int
    max_platoon: int        # largest platoon in the gate book (0 for exhaustive)

    @property
    def delay(self) -> np.ndarray:
        return self.c - self.a

    def vehicles_jsonl_chunks(self) -> Iterator[str]:
        """Per-vehicle log: one JSON object {id, lane, entry_t, a, c, delay} per line.

        Yields the text of JSONL_CHUNK records at a time, each line ending
        in "\n", so a writer never holds the whole log. Each chunk is one
        block of rows built by _cells with numpy, with the bytes json.dumps
        writes per record: json writes floats with float.__repr__, which
        _cells._repr_cells prints exactly, and every value is finite
        (RunConfig refuses non-finite entry times, _summarize non-finite
        crossing times).
        """
        for lo in range(0, self.c.size, JSONL_CHUNK):
            part = slice(lo, lo + JSONL_CHUNK)
            yield _vehicle_rows(lo, self.lane0[part], self.entry[part], self.a[part], self.c[part])


def _vehicle_rows(lo: int, lane0: np.ndarray, entry: np.ndarray, a: np.ndarray,
                  c: np.ndarray) -> str:
    """The vehicles.jsonl lines of vehicles lo, lo + 1, ... of one block."""
    from . import _cells  # here: run is the only command that writes the log

    n = c.size
    floats = np.empty((4, n))
    floats[0], floats[1], floats[2] = entry, a, c
    np.subtract(c, a, out=floats[3])
    texts = _cells._repr_cells(floats.ravel())
    del floats
    pieces = [b'{"id": ', (_cells._int_cells(np.arange(lo, lo + n)), None),
              b', "lane": ', (_cells._int_cells(lane0.astype(np.int64) + 1), None)]
    for i, name in enumerate((b"entry_t", b"a", b"c", b"delay")):
        pieces += [b', "' + name + b'": ', (texts[i * n:(i + 1) * n], None)]
    del texts
    pieces.append(b"}\n")
    return _cells._rows(n, pieces)


def batch_means_ci(x: np.ndarray) -> float:
    """95% half-width from N_BATCHES contiguous batch means; NaN when undersampled."""
    if x.size < N_BATCHES * 2:
        return float("nan")
    means = np.array([b.mean() for b in np.array_split(x, N_BATCHES)])
    s = means.std(ddof=1)
    return float(T_95_19DF * s / np.sqrt(N_BATCHES))


def _queue_counts(
    a: np.ndarray, c: np.ndarray, lane0: np.ndarray, B: Sequence[float], warmup: int
) -> Tuple[int, int, int]:
    """(sum_ahead, sum_total, max_queue) of a final schedule.

    Vehicle j < k is present at arrival k iff leave_j = c_j + B_j > a_k,
    exactly, since a departed vehicle never moves and a live one only
    moves later. Over k >= warmup, sum_total counts those present and
    sum_ahead those that cross before k; max_queue is 1 + the most present
    at any arrival. As every j >= k has leave_j > a_k, present_k = k -
    #{j : leave_j <= a_k}. The present ones crossing after k are the
    inversions c_k < c_j, counted one offset k - j at a time; k came while
    j was present, so k - j < reach_j = #{i : a_i < leave_j} - j. Only the
    sorted leave is held whole; the rest is built BLOCK at a time. Each
    lane's B is added in place under a lane mask: np.take would cast a
    narrow lane0 to an 8-byte index.
    """
    n = c.size
    if n == 0:
        return 0, 0, 0
    block = _kernels.BLOCK
    leave = c.copy()
    for i, b in enumerate(B):
        np.add(leave, b, out=leave, where=lane0 == i)
    reach = 1
    for lo in range(0, n, block):
        part = np.searchsorted(a, leave[lo:lo + block])
        part -= np.arange(lo, lo + part.size)
        reach = max(reach, int(part.max()))
    leave.sort()
    sum_total = 0
    most = 0
    for lo in range(0, n, block):
        part = a[lo:lo + block]
        present = np.arange(lo, lo + part.size) - np.searchsorted(leave, part, "right")
        most = max(most, int(present.max()))
        sum_total += int(present[max(warmup - lo, 0):].sum())
    del leave
    inversions = 0
    for offset in range(1, reach):
        lo = max(offset, warmup)
        inversions += int(np.count_nonzero(c[lo:] < c[lo - offset:n - offset]))
    return sum_total - inversions, sum_total, most + 1


def _summarize(
    config: RunConfig, warmup: int, entry: np.ndarray, a: np.ndarray, lane0: np.ndarray,
    c: np.ndarray, fallback_count: int, max_platoon: int,
) -> RunResult:
    if not np.isfinite(c).all():
        raise PlatoonError("internal error: some vehicles were never scheduled")
    last = float(c.max())
    blur = beyond_tie_tolerance(last)  # RunConfig's rule for scripted times, here only a warning
    if blur:
        warnings.warn(f"crossing times reach {last:.6g} s, where they are {blur}", stacklevel=4)
    sum_ahead, sum_total, max_queue = _queue_counts(a, c, lane0, config.params.B, warmup)
    post = c[warmup:] - a[warmup:]  # only the post-warmup delays are held
    mean = float(post.mean()) if post.size else float("nan")
    ci = batch_means_ci(post)
    del post  # freed before any lane's delays are gathered
    fairness = (sum_ahead / sum_total) if sum_total > 0 else float("nan")
    lanes = []
    post_c, post_a, post_lane = c[warmup:], a[warmup:], lane0[warmup:]
    for i in range(config.params.n):
        on = post_lane == i
        sel = post_c[on] - post_a[on]
        lanes.append(
            LaneStats(
                lane=i + 1,
                mean=float(sel.mean()) if sel.size else float("nan"),
                ci95=batch_means_ci(sel),
                n=int(sel.size),
            )
        )
        del on, sel  # not held while the next lane's delays are gathered
    return RunResult(
        discipline=config.pfa,
        seed=config.seed,
        warmup=warmup,
        entry=entry,
        a=a,
        lane0=lane0,
        c=c,
        mean=mean,
        ci95=ci,
        fairness=fairness,
        lanes=lanes,
        max_queue=max_queue,
        fallback_count=fallback_count,
        max_platoon=max_platoon,
    )


# ===================== runs =====================

def run(config: RunConfig, check: bool = False, steady_state: bool = True) -> RunResult:
    """Simulate one run through the list-based kernel.

    check=True re-verifies every scheduling invariant after each arrival
    inside the kernel: gaps, earliest times, regularity and the platoon
    book (slow; used by traj, the tests and the invariant sweep).
    """
    return _run(config, _kernels.simulate_arrivals, check, steady_state)


def run_reference(config: RunConfig, check: bool = False, steady_state: bool = True) -> RunResult:
    """Simulate one run through the object-level reference, pfa.simulate.

    The reference for run(): bit-identical by construction, and the tests
    assert it. No command calls it. check=True validates the gap
    invariant and the platoon book after every arrival.
    """
    from . import pfa  # here: every command loads sim, and none runs the reference

    return _run(config, pfa.simulate, check, steady_state)


def _run(config: RunConfig, simulate: Callable, check: bool, steady_state: bool) -> RunResult:
    """Validate the load, build the arrivals, schedule them with simulate, summarize."""
    params = config.params
    validate_params(params, steady_state=steady_state)
    if config.arrivals is not None:
        entry, lane0 = _scripted_arrays(config)
    else:
        entry, lane0 = make_arrivals(params, config.horizon_vehicles, config.seed)
    a = entry + params.free_flow_offset
    final_c, fallback_count, max_platoon = simulate(
        a, lane0, params, config.pfa, config.batch_cap, check
    )
    return _summarize(config, config.resolved_warmup(), entry, a, lane0, final_c,
                      fallback_count, max_platoon)


# ===================== sweeps =====================

def result_rows(res: RunResult, params: SimParams, rho: float) -> List[Dict[str, object]]:
    """Run-CSV rows of one run: the aggregate row, then one row per lane.

    approx_delay is the lane's interpolated mean delay, and on the aggregate
    row the arrival-weighted mean of those; it is empty where no
    approximation exists: polling.check_analytic refuses the discipline
    (batch) or core.validate_params the load (rho >= 1).
    """
    approx: List[Optional[float]] = [None] * params.n
    overall: Optional[float] = None
    try:
        check_analytic(res.discipline)
        validate_params(params)
    except (UnsupportedDiscipline, UnstableLoad):
        pass
    else:
        approx = [approx_mean_delay(params, res.discipline, i + 1) for i in range(params.n)]
        overall = sum(lam * x for lam, x in zip(params.lam, approx)) / sum(params.lam)
    rows: List[Dict[str, object]] = [
        {
            "rho": rho,
            "discipline": res.discipline,
            "lane": "all",
            "sim_delay_mean": res.mean,
            "ci95": res.ci95,
            "approx_delay": overall,
            "fairness": res.fairness,
            "n_vehicles": res.a.size - res.warmup,
            "seed": res.seed,
        }
    ]
    for ls in res.lanes:
        rows.append(
            {
                "rho": rho,
                "discipline": res.discipline,
                "lane": ls.lane,
                "sim_delay_mean": ls.mean,
                "ci95": ls.ci95,
                "approx_delay": approx[ls.lane - 1],
                "fairness": None,
                "n_vehicles": ls.n,
                "seed": res.seed,
            }
        )
    return rows


def _lane_sort_key(value: object) -> int:
    return -1 if value == "all" else int(value)  # aggregate row leads its group


def sweep_rows(
    base: RunConfig,
    rhos: Sequence[float],
    disciplines: Sequence[str],
    steady_state: bool = True,
) -> List[Dict[str, object]]:
    """Run a load sweep; returns run-CSV rows sorted by (rho, discipline, lane).

    Each point runs base's parameters rescaled to the load, on Poisson
    arrivals, with base's horizon, warmup and batch cap. Grid point i uses
    seed base.seed + i, and all disciplines at a point see exactly the same
    arrivals. Gated runs before batch, and where gated's largest platoon
    is within the cap, batch's result is gated's: the cap never bound.
    """
    for d in disciplines:
        replace(base, pfa=d)  # RunConfig refuses an unknown discipline before any point runs
    order = sorted(disciplines, key=PFA_KINDS.index)  # exhaustive, gated, batch
    rows: List[Dict[str, object]] = []
    for i, rho in enumerate(rhos):
        point = replace(base, params=base.params.with_rho(rho), seed=base.seed + i, arrivals=None)
        rows += _point_rows(point, rho, order, steady_state)
    rows.sort(key=lambda r: (r["rho"], r["discipline"], _lane_sort_key(r["lane"])))
    return rows


def _point_rows(
    point: RunConfig, rho: float, disciplines: Sequence[str], steady_state: bool
) -> List[Dict[str, object]]:
    """Run-CSV rows of every discipline at one sweep point.

    Its results go out of scope on return, so none is held while the next
    point runs.
    """
    rows: List[Dict[str, object]] = []
    gated: Optional[RunResult] = None  # a gated result batch can take
    for disc in disciplines:
        if disc == "batch" and gated is not None:
            res = replace(gated, discipline="batch")
        else:
            res = run(replace(point, pfa=disc), steady_state=steady_state)
            if disc == "gated" and res.max_platoon <= point.batch_cap:
                gated = res
        rows += result_rows(res, point.params, rho)
        del res  # not held while the next discipline runs
    return rows
