"""Shared audit helpers for the trajectory planners and the arrival streams.

Eight jobs:

* state the two planners' objectives exactly (area, accel_cost),
* search the single-dip profile family by brute force on a grid of
  breakpoints (oracle_min), draw random feasible planning instances and
  compare the closed-form planners against that search,
* audit planned trajectories for boundary conditions, speed and
  acceleration bounds, distance closure, and pairwise separation,
  using exact per-segment checks instead of dense sampling wherever
  the piecewise form allows it,
* write the sampled trajectory table one evaluate call and one
  csv.writer row per sample, the reference for spa.write_sampled_csv,
  and the segment table one csv.writer row per segment, the reference
  for spa.write_segments_csv,
* sample the separation of a trajectory pair on a fixed grid, the
  reference for spa.verify_separation's exact minimum gap, and compute
  that minimum piece by piece, looking each piece's segments up afresh
  (min_gap_reference), the reference for spa._min_gap's single walk,
* state two conditions in closed form that the package does not ship:
  schedule regularity (assert_regular) and the overcrowding bound of a
  linked platoon (check_overcrowding),
* merge the per-lane arrival streams whole, then sort and slice
  (make_arrivals_reference), the reference for sim.make_arrivals, which
  cuts each stream at the horizon first,
* replay a final schedule arrival by arrival to count the vehicles
  present and ahead (queue_counts_by_replay), the reference for
  sim._queue_counts.
"""
from __future__ import annotations

import csv
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from platoonsim.core import RunConfig, SimParams, Vehicle
from platoonsim.pfa import Schedule
from platoonsim.sim import run_reference
from platoonsim.spa import (
    FEAS_TOL,
    PlannedSchedule,
    Segment,
    Trajectory,
    TrajectoryError,
    _build_segments,
    _linked_t_full,
    evaluate,
    plan_min_accel,
    plan_min_distance,
)


# ===================== planner objectives =====================

def area(traj: Trajectory) -> float:
    """Integral of |x(t)| over [t0, t_f], exact per segment.

    The objective plan_min_distance minimizes. Positions are nonpositive
    on the approach (the vehicle never passes the stop line before t_f),
    so |x| = -x and each segment contributes a cubic antiderivative
    evaluated in closed form.
    """
    total = 0.0
    for s in traj.segments:
        d = s.duration
        total -= s.x_start * d + 0.5 * s.v_start * d * d + s.accel * d * d * d / 6.0
    return total


def accel_cost(traj: Trajectory) -> float:
    """Integral of |a(t)| over [t0, t_f]: sum of |accel| * duration.

    The objective plan_min_accel minimizes.
    """
    return sum(abs(s.accel) * s.duration for s in traj.segments)


# ===================== discretized oracle =====================

class InfeasibleInstance(TrajectoryError):
    """The discretized oracle found no feasible candidate."""


def oracle_min(
    objective: str,
    x0: float,
    v0: float,
    t_f: float,
    params: SimParams,
    pred: Optional[Trajectory] = None,
    link_gap: Optional[float] = None,
    dt: float = 0.01,
    t0: float = 0.0,
) -> Trajectory:
    """Brute-force best single-dip profile on a dt grid of breakpoints.

    Candidates cruise at v0 for p, brake for delta, cruise at the dip
    speed, then accelerate to full speed; the two cruise lengths are
    solved exactly from the time and distance closures, so every kept
    candidate is an exact trajectory. (p, delta) range over the dt grid;
    exact full-stop candidates (dip speed zero, dwell solved) and the
    exact no-dip candidate are added separately. When the predecessor
    linkage pins t_full < t_f, the final full-speed stretch is fixed and
    the search runs on the shortened horizon.

    Search is restricted to the single-dip family; optimality claims
    against the closed forms hold within that family.
    """
    if objective not in ("distance", "acceleration"):
        raise ValueError(f"objective must be distance or acceleration, got {objective!r}")
    if x0 >= 0.0:
        raise ValueError(f"x0 must be negative (upstream), got {x0}")
    v_m, a_m = params.v_max, params.a_max
    dist = -x0
    T = t_f - t0
    if link_gap is None:
        link_gap = params.B_of(1)
    t_full = _linked_t_full(t_f, pred, link_gap)
    # Pin the tail cruise; search on the shortened instance.
    Tp = t_full - t0
    distp = dist - v_m * (T - Tp)
    if Tp <= 0.0 or distp <= 0.0 or Tp < distp / v_m - FEAS_TOL:
        raise InfeasibleInstance(f"no room before t_full: T'={Tp}, |x0|'={distp}")

    grid_p = np.arange(0.0, Tp + dt / 2.0, dt)
    grid_d = np.arange(dt, v0 / a_m + dt / 2.0, dt) if v0 > 0 else np.empty(0)

    best_val = np.inf
    best: Optional[Tuple[float, float, float, float, float]] = None  # p, delta, q, r, v1

    def consider(p: float, delta: float, q: float, r: float, v1: float, val: float) -> None:
        nonlocal best_val, best
        if val < best_val - 1e-15:
            best_val = val
            best = (p, delta, q, r, v1)

    # Exact no-dip candidate: cruise v0 for p, accelerate to v_m, cruise.
    w0 = (v_m - v0) / a_m
    if Tp >= w0:
        # p * v0 + (v0 * w0 + a_m * w0^2 / 2) + r * v_m = distp, p + w0 + r = Tp
        denom = v_m - v0
        if denom > FEAS_TOL:
            rhs = distp - (v0 * w0 + 0.5 * a_m * w0 * w0) - v_m * (Tp - w0)
            p0 = rhs / (v0 - v_m)
        else:
            p0 = 0.0  # v0 == v_m: any split works only if distances match
        r0 = Tp - w0 - p0
        if p0 >= -FEAS_TOL and r0 >= -FEAS_TOL:
            p0, r0 = max(p0, 0.0), max(r0, 0.0)
            d_chk = p0 * v0 + v0 * w0 + 0.5 * a_m * w0 * w0 + r0 * v_m
            if abs(d_chk - distp) <= 1e-6:
                val = _candidate_value(objective, x0, v0, v_m, a_m, p0, 0.0, 0.0, r0, v0)
                consider(p0, 0.0, 0.0, r0, v0, val)

    # Vectorized (p, delta) sweep with q, r solved from the closures.
    if grid_d.size and grid_p.size:
        for lo in range(0, grid_p.size, 512):
            p = grid_p[lo:lo + 512, None]
            d = grid_d[None, :]
            v1 = v0 - a_m * d
            w1 = (v_m - v1) / a_m
            t_rem = Tp - p - d - w1
            d_rem = (
                distp
                - p * v0
                - (v0 * d - 0.5 * a_m * d * d)
                - (v1 * w1 + 0.5 * a_m * w1 * w1)
            )
            denom = v_m - v1
            with np.errstate(divide="ignore", invalid="ignore"):
                q = (v_m * t_rem - d_rem) / denom
            r = t_rem - q
            feas = (v1 >= -FEAS_TOL) & (q >= 0.0) & (r >= 0.0) & (denom > FEAS_TOL)
            if not feas.any():
                continue
            val = _candidate_value(objective, x0, v0, v_m, a_m, p, d, q, r, v1)
            val = np.where(feas, val, np.inf)
            ij = int(np.argmin(val))
            i, j = divmod(ij, val.shape[1])
            if val[i, j] < best_val - 1e-15:
                best_val = float(val[i, j])
                best = (float(p[i, 0]), float(d[0, j]), float(q[i, j]),
                        float(r[i, j]), float(v1[0, j]))

    # Exact full-stop candidates: delta fixed at v0/a_m, dwell solved.
    if v0 > 0.0:
        d_stop = v0 / a_m
        w1 = v_m / a_m
        for p in grid_p:
            t_rem = Tp - p - d_stop - w1
            d_rem = distp - p * v0 - 0.5 * v0 * v0 / a_m - 0.5 * v_m * v_m / a_m
            r = d_rem / v_m
            q = t_rem - r
            if q >= -FEAS_TOL and r >= -FEAS_TOL:
                q, r = max(q, 0.0), max(r, 0.0)
                val = _candidate_value(objective, x0, v0, v_m, a_m, float(p), d_stop, q, r, 0.0)
                consider(float(p), d_stop, q, r, 0.0, val)

    if best is None:
        raise InfeasibleInstance(
            f"no feasible single-dip candidate (x0={x0}, v0={v0}, t_f={t_f}, dt={dt})"
        )
    p, delta, q, r, v1 = best
    w1 = (v_m - v1) / a_m
    pieces = [
        (p, 0.0),
        (delta, -a_m),
        (q, 0.0),
        (w1, a_m),
        (r, 0.0),
        (T - Tp, 0.0),  # pinned tail cruise at full speed
    ]
    return Trajectory(
        t0=t0, t_f=t_f, x0=x0, v0=v0,
        segments=_build_segments(t0, x0, v0, pieces),
        t_full=t_full,
        breakpoints={"t_full": t_full},
        diagnostics={"p": p, "delta": delta, "q": q, "r": r, "v1": v1},
    )


def _segment_area_terms(x0, v0, a_m, p, d, q, w1, r, v1, v_m):
    """Exact -integral of x over the five-piece dip profile (array-safe)."""
    total = 0.0
    x = x0
    # cruise v0
    total = total - (x * p + 0.5 * v0 * p * p)
    x = x + v0 * p
    # decel
    total = total - (x * d + 0.5 * v0 * d * d - a_m * d * d * d / 6.0)
    x = x + v0 * d - 0.5 * a_m * d * d
    # cruise v1
    total = total - (x * q + 0.5 * v1 * q * q)
    x = x + v1 * q
    # accel
    total = total - (x * w1 + 0.5 * v1 * w1 * w1 + a_m * w1 * w1 * w1 / 6.0)
    x = x + v1 * w1 + 0.5 * a_m * w1 * w1
    # cruise v_m
    total = total - (x * r + 0.5 * v_m * r * r)
    return total


def _candidate_value(objective, x0, v0, v_m, a_m, p, d, q, r, v1):
    """Oracle objective of one candidate, or of a broadcast grid of them."""
    if objective == "acceleration":
        return (v0 - v1) + (v_m - v1) + 0.0 * (p + q + r)  # broadcast to the grid
    w1 = (v_m - v1) / a_m
    return _segment_area_terms(x0, v0, a_m, p, d, q, w1, r, v1, v_m)


# ===================== random instances =====================


def _no_stop_ok(dist: float, v0: float, slack: float, v_m: float, a_m: float) -> bool:
    """Closed-form feasibility of the no-stop dip family (cheap, no objects)."""
    t_f = dist / v_m + slack
    m = t_f - (v_m - v0) / a_m
    disc = m * m - (4.0 / a_m) * (
        v_m * t_f - (v_m - v0) * t_f + (v_m - v0) ** 2 / (2.0 * a_m) - dist
    )
    if disc < 0.0:
        return False
    t1 = (m - math.sqrt(disc)) / 2.0
    return t1 >= 0.0 and v0 - a_m * t1 >= 0.0


def _accel_slack_band(
    dist: float, v0: float, v_m: float, a_m: float, cap: float = 25.0
) -> Tuple[float, float]:
    """First contiguous feasible slack band for the no-stop family.

    The family is also feasible again at very large slacks (shallow dip,
    long dawdle); those instances have near-zero cost and would compare
    brute-force grid noise, so only the first band is used, width-capped.
    """
    s = (v_m - v0) ** 2 / (2.0 * a_m * v_m)
    while not _no_stop_ok(dist, v0, s, v_m, a_m):
        s += 1e-3
    smin = s
    while _no_stop_ok(dist, v0, s + 0.01, v_m, a_m) and s - smin < cap:
        s += 0.01
    return smin, s


def random_instances(
    objective: str, count: int, seed: int, params: SimParams
) -> List[Tuple[float, float, float]]:
    """Feasible (x0, v0, t_f) triples with substantive dips.

    Delays sit deep inside the feasible band, so the optimal dip is well
    above the brute-force grid resolution (a grid quantises the dip
    length; tiny dips would compare grid noise rather than planner
    quality).
    """
    rng = np.random.default_rng(seed)
    v_m, a_m = params.v_max, params.a_max
    out: List[Tuple[float, float, float]] = []
    while len(out) < count:
        dist = float(rng.uniform(100.0, 400.0))
        if objective == "distance":
            slack = float(rng.uniform(0.3, 12.0))
            v0 = v_m
        else:
            v0 = float(rng.uniform(6.0, v_m))
            smin, smax = _accel_slack_band(dist, v0, v_m, a_m)
            slack = smin + float(rng.uniform(0.7, 0.97)) * (smax - smin)
        t_f = dist / v_m + slack
        try:
            if objective == "distance":
                plan_min_distance(-dist, t_f, params)
            else:
                plan_min_accel(-dist, v0, t_f, params)
        except TrajectoryError:
            continue
        out.append((-dist, v0, t_f))
    return out


def oracle_gap_rows(
    objective: str, count: int, seed: int, params: SimParams, dt: float = 0.01
) -> List[Dict[str, float]]:
    """Closed-form value vs brute-force value on random instances."""
    value = area if objective == "distance" else accel_cost
    rows: List[Dict[str, float]] = []
    for x0, v0, t_f in random_instances(objective, count, seed, params):
        if objective == "distance":
            closed = value(plan_min_distance(x0, t_f, params))
        else:
            closed = value(plan_min_accel(x0, v0, t_f, params))
        brute = value(oracle_min(objective, x0, v0, t_f, params, dt=dt))
        rows.append(
            {"x0": x0, "v0": v0, "t_f": t_f, "closed": closed, "brute": brute}
        )
    return rows


def sample_xva(
    traj: Trajectory, ts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised evaluate for times inside [t0, t_f]."""
    x = np.empty_like(ts)
    v = np.empty_like(ts)
    a = np.empty_like(ts)
    filled = np.zeros(ts.shape, dtype=bool)
    for seg in traj.segments:
        t_end = seg.t_start + seg.duration
        m = ~filled & (ts <= t_end + 1e-12)
        if m.any():
            d = np.clip(ts[m] - seg.t_start, 0.0, seg.duration)
            x[m] = seg.x_start + seg.v_start * d + 0.5 * seg.accel * d * d
            v[m] = seg.v_start + seg.accel * d
            a[m] = seg.accel
            filled |= m
    if not filled.all():
        seg = traj.segments[-1]
        m = ~filled
        d = seg.duration
        x[m] = seg.x_start + seg.v_start * d + 0.5 * seg.accel * d * d
        v[m] = seg.v_start + seg.accel * d
        a[m] = seg.accel
    return x, v, a


def audit_trajectory(
    traj: Trajectory,
    params: SimParams,
    bound_tol: float = 1e-9,
    closure_tol: float = 1e-6,
) -> List[str]:
    """Constraint violations for one trajectory (empty if clean).

    Speed is linear and position quadratic per segment, so endpoint
    checks (plus the position vertex) are exact; no sampling grid.
    """
    v_m, a_m = params.v_max, params.a_max
    bad: List[str] = []
    first = traj.segments[0]
    if first.t_start != traj.t0 or first.x_start != traj.x0 or first.v_start != traj.v0:
        bad.append(f"entry state mismatch: {first} vs ({traj.t0}, {traj.x0}, {traj.v0})")
    t, x, v = traj.t0, traj.x0, traj.v0
    for i, seg in enumerate(traj.segments):
        if abs(seg.t_start - t) > bound_tol or abs(seg.x_start - x) > bound_tol \
                or abs(seg.v_start - v) > bound_tol:
            bad.append(f"segment {i} discontinuity at t={seg.t_start}")
        if abs(seg.accel) > a_m + bound_tol:
            bad.append(f"segment {i} accel {seg.accel} exceeds {a_m}")
        d = seg.duration
        v_end = seg.v_start + seg.accel * d
        for v_chk in (seg.v_start, v_end):
            if v_chk < -bound_tol or v_chk > v_m + bound_tol:
                bad.append(f"segment {i} speed {v_chk} outside [0, {v_m}]")
        x_end = seg.x_start + seg.v_start * d + 0.5 * seg.accel * d * d
        x_max = max(seg.x_start, x_end)
        if seg.accel != 0.0:
            d_star = -seg.v_start / seg.accel
            if 0.0 < d_star < d:
                x_max = max(
                    x_max,
                    seg.x_start + seg.v_start * d_star + 0.5 * seg.accel * d_star**2,
                )
        if x_max > bound_tol:
            bad.append(f"segment {i} crosses the stop line early (x={x_max})")
        t, x, v = seg.t_start + d, x_end, v_end
    if abs(t - traj.t_f) > bound_tol:
        bad.append(f"ends at t={t}, expected {traj.t_f}")
    if abs(x) > closure_tol:
        bad.append(f"ends at x={x}, expected 0")
    if abs(v - v_m) > bound_tol:
        bad.append(f"ends at v={v}, expected {v_m}")
    return bad


def make_physical_arrivals(
    params: SimParams, count: int, seed: int, margin: float = 0.01
) -> List[List[float]]:
    """Per-lane Poisson arrivals with a minimum same-lane headway.

    Raw Poisson streams can place two same-lane vehicles closer than
    ``l_min / v_max`` seconds apart, which means they already overlap
    physically when they enter the planning region; no trajectory pair
    can then satisfy the spacing requirement.  Enforcing the physical
    headway keeps every planning instance feasible at entry while
    leaving the arrival process random everywhere else.
    """
    rng = np.random.default_rng(seed)
    min_gap = params.l_min / params.v_max + margin
    per_lane = int(np.ceil(1.3 * count / params.n)) + 20
    events: List[Tuple[float, int]] = []
    for lane in range(params.n):
        gaps = rng.exponential(1.0 / params.lam[lane], size=per_lane)
        t, prev = 0.0, -math.inf
        for g in gaps:
            t = max(t + g, prev + min_gap)
            prev = t
            events.append((t, lane + 1))
    events.sort()
    return [[lane, t] for t, lane in events[:count]]


def physical_schedule(
    pfa: str, rho: float, count: int, seed: int
) -> Tuple[List[Vehicle], SimParams]:
    """Vehicles scheduled by the reference scheduler on physically spaced
    arrivals (make_physical_arrivals) at total load rho."""
    params = SimParams().with_rho(rho)
    arrivals = make_physical_arrivals(params, count, seed=seed)
    res = run_reference(RunConfig(params=params, pfa=pfa, arrivals=arrivals, seed=1))
    vehicles = [
        Vehicle(id=i, lane=int(res.lane0[i]) + 1, a=float(res.a[i]), c=float(res.c[i]))
        for i in range(res.a.size)
    ]
    return vehicles, params


def audit_separation(
    planned: PlannedSchedule,
    vehicles: Sequence[Vehicle],
    params: SimParams,
    grid_dt: float = 0.01,
    tol: float = 1e-6,
) -> List[str]:
    """Pairwise spacing violations for same-lane consecutive trajectories."""
    lane_of = {v.id: v.lane for v in vehicles}
    last_in_lane: Dict[int, Trajectory] = {}
    bad: List[str] = []
    for traj in planned.trajectories:
        lane = lane_of[traj.vehicle_id]
        pred = last_in_lane.get(lane)
        if pred is not None:
            t_lo, t_hi = traj.t0, pred.t_f
            if t_hi > t_lo:
                ts = np.arange(t_lo, t_hi, grid_dt)
                extra = [
                    b
                    for tr in (pred, traj)
                    for s in tr.segments
                    for b in (s.t_start, s.t_start + s.duration)
                    if t_lo <= b <= t_hi
                ]
                ts = np.unique(np.concatenate([ts, [t_hi], np.asarray(extra)]))
                gap = sample_xva(pred, ts)[0] - sample_xva(traj, ts)[0]
                worst = float(gap.min())
                if worst < params.l_min - tol:
                    bad.append(
                        f"vehicles {pred.vehicle_id}->{traj.vehicle_id}: "
                        f"gap {worst:.6f} m < {params.l_min} m"
                    )
        last_in_lane[lane] = traj
    return bad


def write_sampled_csv_reference(
    trajectories: Sequence[Trajectory], path: str, dt: float = 0.1
) -> None:
    """The sampled table by a scalar loop: t += dt below t_f, then t_f."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["vehicle_id", "t", "x", "v", "a"])
        for traj in trajectories:
            t = traj.t0
            while t < traj.t_f - 1e-12:
                x, v, a = evaluate(traj, t)
                w.writerow([traj.vehicle_id, f"{t:.10g}", f"{x:.10g}", f"{v:.10g}", f"{a:.10g}"])
                t += dt
            x, v, a = evaluate(traj, traj.t_f)
            w.writerow(
                [traj.vehicle_id, f"{traj.t_f:.10g}", f"{x:.10g}", f"{v:.10g}", f"{a:.10g}"]
            )


def write_segments_csv_reference(trajectories: Sequence[Trajectory], path: str) -> None:
    """The segment table by csv.writer, one row per segment."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["vehicle_id", "segment_index", "t_start", "duration", "accel", "x_start",
                    "v_start"])
        for traj in trajectories:
            for i, s in enumerate(traj.segments):
                w.writerow([traj.vehicle_id, i] + [
                    f"{v:.10g}" for v in (s.t_start, s.duration, s.accel, s.x_start, s.v_start)
                ])


def _sample_x(traj: Trajectory, ts: np.ndarray) -> np.ndarray:
    """Positions at the given times (ascending, within the domain)."""
    x = np.empty_like(ts)
    filled = np.zeros(ts.shape, dtype=bool)
    for seg in traj.segments:
        t_end = seg.t_start + seg.duration
        m = ~filled & (ts <= t_end + 1e-12)
        if m.any():
            d = np.clip(ts[m] - seg.t_start, 0.0, seg.duration)
            x[m] = seg.x_start + seg.v_start * d + 0.5 * seg.accel * d * d
            filled |= m
    if not filled.all():
        seg = traj.segments[-1]
        d = seg.duration
        x[~filled] = seg.x_start + seg.v_start * d + 0.5 * seg.accel * d * d
    return x


def separation_shortfalls_reference(leader: Trajectory, follower: Trajectory, l_min: float,
                                    tol: float, grid_dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Times and gaps of the samples where leader.x - follower.x < l_min - tol.

    Samples a fixed grid plus every segment breakpoint of both
    trajectories, from the later entry until the leader crosses. np.arange
    can step a little past the crossing, so the grid is clipped there.
    """
    t_lo = max(leader.t0, follower.t0)
    t_hi = leader.t_f
    if t_hi <= t_lo:
        return np.empty(0), np.empty(0)
    extra = [t_hi]
    for traj in (leader, follower):
        for s in traj.segments:
            for t in (s.t_start, s.t_start + s.duration):
                if t_lo <= t <= t_hi:
                    extra.append(t)
    ts = np.unique(np.concatenate([np.arange(t_lo, t_hi, grid_dt), np.asarray(extra)]))
    ts = ts[ts <= t_hi]
    gap = _sample_x(leader, ts) - _sample_x(follower, ts)
    bad = gap < l_min - tol
    return ts[bad], gap[bad]


def _segment_at(traj: Trajectory, t: float) -> Segment:
    """The first segment ending at or after t; the last one past the end."""
    for seg in traj.segments:
        if t <= seg.t_start + seg.duration:
            return seg
    return traj.segments[-1]


def _state(seg: Segment, t: float) -> Tuple[float, float, float]:
    """(x, v, a) on seg's quadratic at t; held (v = a = 0) outside the segment."""
    d = t - seg.t_start
    inside = 0.0 <= d <= seg.duration
    d = min(max(d, 0.0), seg.duration)
    x = seg.x_start + seg.v_start * d + 0.5 * seg.accel * d * d
    if not inside:
        return x, 0.0, 0.0
    return x, seg.v_start + seg.accel * d, seg.accel


def min_gap_reference(leader: Trajectory, follower: Trajectory, t_lo: float,
                      t_hi: float) -> Tuple[float, float]:
    """Exact minimum of leader.x - follower.x over [t_lo, t_hi], and its time.

    Between the merged breakpoints of both trajectories each position is
    one quadratic in t, so the gap is too: its minimum lies at a piece end
    or, when the relative acceleration is positive, at the vertex. Each
    piece looks up its segments at its midpoint from the first segment on;
    a trajectory past its last segment is held there. Ties go to the
    earliest time.
    """
    cuts = sorted({t_lo, t_hi, *(
        t for traj in (leader, follower) for s in traj.segments
        for t in (s.t_start, s.t_start + s.duration) if t_lo < t < t_hi
    )})
    best = (math.inf, t_lo)
    for p, q in zip(cuts, cuts[1:]):
        mid = 0.5 * (p + q)
        seg_l, seg_f = _segment_at(leader, mid), _segment_at(follower, mid)
        times = [p, q]
        _, v_l, a_l = _state(seg_l, mid)
        _, v_f, a_f = _state(seg_f, mid)
        rel_a = a_l - a_f
        if rel_a > 0.0:
            t = mid - (v_l - v_f) / rel_a
            if p < t < q:
                times.append(t)
        best = min(best, *((_state(seg_l, t)[0] - _state(seg_f, t)[0], t) for t in times))
    return best


# ===================== closed-form conditions =====================

def assert_regular(before: Schedule, after: Schedule, inserted: Vehicle) -> bool:
    """True iff pre-existing vehicles kept their relative order.

    before is the schedule state prior to inserting `inserted`, after the
    state following the insertion; both orderings are read by id.
    """
    before_ids = [v.id for v in before.ordering]
    after_ids = [v.id for v in after.ordering if v.id != inserted.id]
    return before_ids == after_ids


def check_overcrowding(x0: float, t_f: float, t_full: float, params: SimParams) -> bool:
    """True iff a full-speed entry can stop and still regain full speed.

    The quantified condition: (t_f - t_full) * v_max + v_max^2 / a_max
    must not exceed the entry distance |x0|.
    """
    return (t_f - t_full) * params.v_max + params.v_max ** 2 / params.a_max <= abs(x0)


def queue_counts_by_replay(
    a: np.ndarray, c: np.ndarray, lane0: np.ndarray, B: Sequence[float], warmup: int
) -> Tuple[int, int, int]:
    """(sum_ahead, sum_total, max_queue) straight from the definitions.

    At each arrival k the vehicles present are those j < k that have not
    left the stop line, c_j + B_j > a_k, and the ones ahead of k are those
    of them with c_j < c_k. sum_total and sum_ahead add both counts over
    k >= warmup; max_queue is 1 + the most present at any arrival. Plain
    Python, quadratic: for at most a few thousand vehicles.
    """
    a, c, lanes = a.tolist(), c.tolist(), lane0.tolist()
    leave = [cj + B[lane] for cj, lane in zip(c, lanes)]
    sum_ahead = sum_total = max_queue = 0
    for k, (ak, ck) in enumerate(zip(a, c)):
        present = [j for j in range(k) if leave[j] > ak]
        max_queue = max(max_queue, len(present) + 1)
        if k >= warmup:
            sum_total += len(present)
            sum_ahead += sum(1 for j in present if c[j] < ck)
    return sum_ahead, sum_total, max_queue


# ===================== arrival streams =====================

def make_arrivals_reference(params: SimParams, n_total: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """First n_total merged Poisson arrivals, one RNG stream per lane.

    Returns (entry_times float64[n_total], lanes int64[n_total] 0-based),
    merged in time order. Lane streams come from SeedSequence(seed).spawn,
    so the same seed and parameters reproduce the same arrivals exactly,
    independently of the discipline they are later scheduled under. Streams
    are extended until the merged prefix is provably uncensored (every lane
    generated past the n_total-th merged arrival).
    """
    if n_total <= 0:
        return np.empty(0, np.float64), np.empty(0, np.int64)
    children = np.random.SeedSequence(seed).spawn(params.n)
    gens = [np.random.Generator(np.random.PCG64(c)) for c in children]
    lam_total = sum(params.lam)
    times: List[np.ndarray] = []
    for lane0, gen in enumerate(gens):
        lam = params.lam[lane0]
        size = int(n_total * (lam / lam_total) * 1.2) + 64
        times.append(np.cumsum(gen.exponential(1.0 / lam, size)))
    while True:
        merged_len = sum(t.size for t in times)
        if merged_len >= n_total:
            horizon = np.partition(np.concatenate(times), n_total - 1)[n_total - 1]
            short = [i for i, t in enumerate(times) if t[-1] < horizon]
            if not short:
                break
        else:
            short = list(range(params.n))
        for lane0 in short:
            lam = params.lam[lane0]
            grow = max(64, times[lane0].size // 2)
            more = times[lane0][-1] + np.cumsum(gens[lane0].exponential(1.0 / lam, grow))
            times[lane0] = np.concatenate([times[lane0], more])
    entry = np.concatenate(times)
    lanes = np.concatenate(
        [np.full(t.size, lane0, np.int64) for lane0, t in enumerate(times)]
    )
    order = np.argsort(entry, kind="stable")
    return entry[order][:n_total], lanes[order][:n_total]
