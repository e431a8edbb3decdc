"""Speed-profile planners: exact piecewise-constant-acceleration trajectories.

Given a frozen crossing schedule, each vehicle gets a profile on the
approach segment that starts at distance |x0| upstream and reaches the
stop line (x = 0) exactly at its scheduled crossing time, at full speed.
Every profile has one shape, the single dip: cruise until t_dec, brake at
a_max until t_stop, hold the speed until t_acc, accelerate at a_max to
full speed at t_full, cruise to the stop line. One builder (_plan) makes
every trajectory; two closed forms choose only its breakpoints:

* plan_min_distance: stays as far ahead as possible (minimum area between
  the stop line and the path); a dwell at a standstill from t_stop to
  t_acc, or a dip with t_stop = t_acc that bottoms out early.
* plan_min_accel: minimizes the total applied |acceleration|; brakes
  from entry (t_dec = t0) to a shallow cruise speed held until t_acc.

Platoon members crossing exactly B apart share the instant they regain
full speed, which makes their profiles time-shifted copies and keeps the
spacing constant; the builder links a trajectory to its predecessor's
when the crossing gap matches B. Each trajectory is checked against its
predecessor by the exact minimum of their gap, which is one quadratic in
t between the breakpoints of the two trajectories.

write_segments_csv exports the exact segments of a plan, and
write_sampled_csv samples it at a fixed step for plotting; both write
through the _trajcsv module, which spa imports only when a table is
written.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import PlatoonError, SimParams, Vehicle

__all__ = [
    "Trajectory",
    "Segment",
    "PlannedSchedule",
    "TrajectoryError",
    "InfeasibleCrossingTime",
    "NegativeDiscriminant",
    "OvercrowdingViolation",
    "SeparationViolation",
    "SingleDipViolation",
    "OutOfDomain",
    "plan_min_distance",
    "plan_min_accel",
    "evaluate",
    "plan_schedule",
    "verify_separation",
    "write_segments_csv",
    "write_sampled_csv",
]

# Crossing gaps within B_LINK_TOL of B count as same-platoon spacing and
# link the follower's full-speed instant to its predecessor's.
B_LINK_TOL = 1e-6
# Separation slack (m) for pairwise checks.
SEP_TOL = 1e-6
# Feasibility slack for breakpoint times and speeds.
FEAS_TOL = 1e-9
# Segments shorter than this are dropped as degenerate.
DROP_TOL = 1e-12


# ===================== errors =====================

class TrajectoryError(PlatoonError):
    """Base class for speed-profile planning failures."""


class InfeasibleCrossingTime(TrajectoryError):
    """The crossing time cannot be met by the planner's profile family."""


class SingleDipViolation(TrajectoryError):
    """Schedule requires a profile outside the single-dip family."""


class NegativeDiscriminant(SingleDipViolation):
    """No single-dip profile closes the distance (entry spacing violated)."""


class OvercrowdingViolation(SingleDipViolation):
    """The approach segment is too short to absorb the required delay."""


class SeparationViolation(TrajectoryError):
    """Planned trajectory gets closer than l_min to its predecessor."""


class OutOfDomain(TrajectoryError):
    """Trajectory evaluated outside its [t0, t_f] domain."""


# ===================== trajectory =====================

@dataclass
class Segment:
    t_start: float       # absolute start time (s)
    duration: float      # segment length (s)
    accel: float         # constant acceleration (m/s^2)
    x_start: float       # position at t_start (m, negative upstream)
    v_start: float       # speed at t_start (m/s)


@dataclass
class Trajectory:
    t0: float            # segment entry time (s)
    t_f: float           # scheduled crossing time (s)
    x0: float            # entry position (m, negative)
    v0: float            # entry speed (m/s)
    segments: List[Segment]
    t_full: float        # instant full speed is regained for good (s)
    vehicle_id: int = -1
    breakpoints: Dict[str, float] = field(default_factory=dict)
    diagnostics: Dict[str, float] = field(default_factory=dict)


def _build_segments(t0: float, x0: float, v0: float,
                    pieces: Sequence[Tuple[float, float]]) -> List[Segment]:
    """Chain (duration, accel) pieces into segments with exact kinematics.

    Degenerate pieces (duration below DROP_TOL) are dropped; slightly
    negative durations from floating-point cancellation are treated as
    zero. A genuinely negative duration is a planner bug.
    """
    segs: List[Segment] = []
    t, x, v = t0, x0, v0
    for duration, accel in pieces:
        if duration < -FEAS_TOL:
            raise TrajectoryError(f"negative segment duration {duration}")
        if duration > DROP_TOL:
            segs.append(Segment(t, duration, accel, x, v))
            t += duration
            x += v * duration + 0.5 * accel * duration * duration
            v += accel * duration
    if not segs:
        segs.append(Segment(t0, 0.0, 0.0, x0, v0))
    return segs


def evaluate(traj: Trajectory, t: float) -> Tuple[float, float, float]:
    """Exact (position, speed, acceleration) at time t."""
    if t < traj.t0 - FEAS_TOL or t > traj.t_f + FEAS_TOL:
        raise OutOfDomain(f"t={t} outside [{traj.t0}, {traj.t_f}]")
    seg = traj.segments[0]
    for s in traj.segments:
        if s.t_start > t:
            break
        seg = s
    dt = min(max(t - seg.t_start, 0.0), seg.duration)
    x = seg.x_start + seg.v_start * dt + 0.5 * seg.accel * dt * dt
    v = seg.v_start + seg.accel * dt
    return x, v, seg.accel


# ===================== predecessor linkage and separation =====================

def _linked_t_full(t_f: float, pred: Optional[Trajectory], link_gap: Optional[float]) -> float:
    """Full-speed instant: inherited from the predecessor on a B-spaced join."""
    if pred is not None and abs((t_f - pred.t_f) - link_gap) <= B_LINK_TOL:
        return pred.t_full
    return t_f


_kinematics = attrgetter("t_start", "duration", "x_start", "v_start", "accel")


def _min_gap(leader: Trajectory, follower: Trajectory, t_lo: float,
             t_hi: float) -> Tuple[float, float]:
    """Exact minimum of leader.x - follower.x over [t_lo, t_hi], and its time.

    Between the merged breakpoints of both trajectories each position is
    one quadratic in t, so the gap is too: its minimum lies at a piece end
    or, when the relative acceleration is positive, at the vertex. One
    forward walk gives each piece, per trajectory, the first segment ending
    at or after its midpoint (past the end, the last one: held there).
    Ties go to the earliest time.
    """
    segs_l, segs_f = leader.segments, follower.segments
    cuts = sorted({t_lo, t_hi, *(t for segs in (segs_l, segs_f) for s in segs
                                 for t in (s.t_start, s.t_start + s.duration) if t_lo < t < t_hi)})
    i, j, last_l, last_f = 0, 0, len(segs_l) - 1, len(segs_f) - 1
    s_l, dur_l, x_l, v_l, a_l = _kinematics(segs_l[0])
    s_f, dur_f, x_f, v_f, a_f = _kinematics(segs_f[0])
    best, best_t = math.inf, t_lo
    for p, q in zip(cuts, cuts[1:]):
        mid = 0.5 * (p + q)
        while i < last_l and mid > s_l + dur_l:
            i += 1
            s_l, dur_l, x_l, v_l, a_l = _kinematics(segs_l[i])
        while j < last_f and mid > s_f + dur_f:
            j += 1
            s_f, dur_f, x_f, v_f, a_f = _kinematics(segs_f[j])
        # Speed and acceleration at the midpoint: 0 outside the segment.
        d_l, d_f = mid - s_l, mid - s_f
        in_l, in_f = 0.0 <= d_l <= dur_l, 0.0 <= d_f <= dur_f
        rel_a = (a_l if in_l else 0.0) - (a_f if in_f else 0.0)
        times = (p, q)
        if rel_a > 0.0:
            rel_v = (v_l + a_l * d_l if in_l else 0.0) - (v_f + a_f * d_f if in_f else 0.0)
            t = mid - rel_v / rel_a
            times = (p, q, t) if p < t < q else times
        for t in times:  # d = min(max(t - t_start, 0), duration), as Python picks
            d_l, d_f = t - s_l, t - s_f
            d_l, d_f = 0.0 if 0.0 > d_l else d_l, 0.0 if 0.0 > d_f else d_f
            d_l, d_f = dur_l if dur_l < d_l else d_l, dur_f if dur_f < d_f else d_f
            gap = x_l + v_l * d_l + 0.5 * a_l * d_l * d_l
            gap -= x_f + v_f * d_f + 0.5 * a_f * d_f * d_f
            if gap < best or gap == best and t < best_t:
                best, best_t = gap, t
    return best, best_t


def verify_separation(leader: Trajectory, follower: Trajectory, l_min: float,
                      tol: float = SEP_TOL) -> List[str]:
    """Spacing violation between two same-lane trajectories (empty if clean).

    Takes the exact minimum of leader.x - follower.x from the later entry
    until the leader crosses, and reports it, with its time, when it lies
    below l_min - tol.
    """
    t_lo, t_hi = max(leader.t0, follower.t0), leader.t_f
    if t_hi <= t_lo:
        return []
    gap, t = _min_gap(leader, follower, t_lo, t_hi)
    if gap >= l_min - tol:
        return []
    return [f"separation {gap:.9f} m < {l_min} m at t={t:.6f}"]


def _check_pred(traj: Trajectory, pred: Optional[Trajectory], params: SimParams) -> Trajectory:
    problems = [] if pred is None else verify_separation(pred, traj, params.l_min)
    if problems:
        raise SeparationViolation(f"vehicle {traj.vehicle_id}: {problems[0]}")
    return traj


# ===================== the single-dip profile =====================

# dip(T, tf_rel, dist, v0, params, vehicle_id) -> (t_dec, t_stop, t_acc, diagnostics)
Dip = Callable[..., Tuple[float, float, float, Dict[str, float]]]


def _plan(dip: Dip, x0: float, v0: float, t_f: float, params: SimParams,
          pred: Optional[Trajectory], link_gap: Optional[float], t0: float,
          vehicle_id: int) -> Trajectory:
    """The single-dip trajectory on the breakpoints dip chooses.

    dip gets the crossing time T and full-speed instant tf_rel (both after
    entry), |x0| and v0, and raises its planner's own refusals. The rest is
    shared: input checks, free-flow feasibility, B-linkage, the five pieces
    (those of zero length drop out) and the predecessor check.
    """
    if x0 >= 0.0:
        raise ValueError(f"x0 must be negative (upstream), got {x0}")
    if pred is not None and link_gap is None:  # the follower's lane headway B is not known here
        raise ValueError("pred needs link_gap, the follower's lane headway B")
    v_m, a_m = params.v_max, params.a_max
    if not 0.0 <= v0 <= v_m + FEAS_TOL:
        raise ValueError(f"v0 must lie in [0, v_max], got {v0}")
    v0 = min(v0, v_m)
    dist = -x0
    T = t_f - t0
    if T < dist / v_m - FEAS_TOL:
        raise InfeasibleCrossingTime(
            f"vehicle {vehicle_id}: t_f - t0 = {T} < free-flow time {dist / v_m}"
        )
    t_full = _linked_t_full(t_f, pred, link_gap)
    tf_rel = t_full - t0
    t_dec, t_stop, t_acc, diag = dip(T, tf_rel, dist, v0, params, vehicle_id)
    pieces = [(t_dec, 0.0), (t_stop - t_dec, -a_m), (t_acc - t_stop, 0.0),
              (tf_rel - t_acc, a_m), (T - tf_rel, 0.0)]
    breakpoints = {"t_dec": t0 + t_dec, "t_stop": t0 + t_stop, "t_acc": t0 + t_acc,
                   "t_full": t_full}
    traj = Trajectory(t0=t0, t_f=t_f, x0=x0, v0=v0,
                      segments=_build_segments(t0, x0, v0, pieces), t_full=t_full,
                      vehicle_id=vehicle_id, breakpoints=breakpoints, diagnostics=diag)
    return _check_pred(traj, pred, params)


# ===================== minimum-distance planner =====================

def _min_distance_dip(T: float, tf_rel: float, dist: float, v0: float,
                      params: SimParams, vehicle_id: int):
    v_m, a_m = params.v_max, params.a_max
    brake = v_m / a_m
    L = v_m * (T - brake)
    if L >= dist:
        # Full stop: cruise, brake to standstill, dwell, accelerate.
        t_acc = tf_rel - brake
        t_stop = t_acc - (T - brake - dist / v_m)
        t_dec = t_stop - brake
        if t_dec < -FEAS_TOL:
            raise OvercrowdingViolation(
                f"vehicle {vehicle_id}: required dwell starts {-t_dec:.6f} s before entry"
            )
        return max(t_dec, 0.0), t_stop, t_acc, {"L": L}
    # No stop: symmetric dip, deceleration time t_tilde on each side.
    # T may lie up to FEAS_TOL below the free-flow time; that is no dip.
    t_tilde = math.sqrt(max((T * v_m - dist) / a_m, 0.0))
    t_acc = tf_rel - t_tilde
    t_dec = t_acc - t_tilde
    if t_dec < -FEAS_TOL:
        raise OvercrowdingViolation(
            f"vehicle {vehicle_id}: dip of {t_tilde:.6f} s starts before entry"
        )
    return max(t_dec, 0.0), t_acc, t_acc, {"L": L, "t_tilde": t_tilde}


def plan_min_distance(x0: float, t_f: float, params: SimParams,
                      pred: Optional[Trajectory] = None, link_gap: Optional[float] = None,
                      t0: float = 0.0, vehicle_id: int = -1) -> Trajectory:
    """Plan the profile that stays closest to the stop line (entry at full speed).

    Cruise at full speed as long as possible, brake once, possibly dwell
    at a standstill, then accelerate back to full speed at t_full. The
    full-stop form applies when the distance coverable around a stop,
    L = v_max * (t_f - t0 - v_max / a_max), reaches |x0|; otherwise the
    dip bottoms out early with deceleration time
    sqrt(((t_f - t0) * v_max - |x0|) / a_max), and t_stop = t_acc.

    pred, the same-lane trajectory ahead, needs link_gap, the follower's
    lane headway B: a crossing link_gap after pred's regains full speed
    at pred's t_full. Without link_gap, pred raises ValueError.
    """
    return _plan(_min_distance_dip, x0, params.v_max, t_f, params, pred, link_gap, t0,
                 vehicle_id)


# ===================== minimum-acceleration planner =====================

def _min_accel_dip(T: float, tf_rel: float, dist: float, v0: float,
                   params: SimParams, vehicle_id: int):
    v_m, a_m = params.v_max, params.a_max
    w = (v_m - v0) / a_m
    M = tf_rel - w
    disc = M * M - (4.0 / a_m) * (
        v_m * T - (v_m - v0) * tf_rel + (v_m - v0) ** 2 / (2.0 * a_m) - dist
    )
    if disc < -FEAS_TOL:
        raise NegativeDiscriminant(
            f"vehicle {vehicle_id}: no single-dip profile (discriminant {disc:.3e})"
        )
    root = math.sqrt(max(disc, 0.0))
    t1 = 0.5 * (M - root)
    t2 = M - t1
    if t1 < -FEAS_TOL:
        raise InfeasibleCrossingTime(
            f"vehicle {vehicle_id}: dip start t1 = {t1:.6f} s before entry"
            " (profile would need to speed up first)"
        )
    t1 = max(t1, 0.0)
    v1 = v0 - a_m * t1
    if v1 < -FEAS_TOL:
        raise NegativeDiscriminant(
            f"vehicle {vehicle_id}: dip speed {v1:.6f} m/s below zero (stop required)"
        )
    return 0.0, t1, t2, {"t1": t1, "t2": t2, "v1": max(v1, 0.0), "disc": disc}


def plan_min_accel(x0: float, v0: float, t_f: float, params: SimParams,
                   pred: Optional[Trajectory] = None, link_gap: Optional[float] = None,
                   t0: float = 0.0, vehicle_id: int = -1) -> Trajectory:
    """Plan the single-dip profile minimizing total applied |acceleration|.

    Decelerate immediately for t1 (t_dec = t0, t_stop = t0 + t1), cruise
    at the dip speed v1, then accelerate from t_acc = t0 + t2 so full
    speed is regained exactly at t_full. With w = (v_max - v0) / a_max and
    M = (t_full - t0) - w, the dip times solve a quadratic:
    t1 = (M - sqrt(disc)) / 2, t2 = M - t1, where
    disc = M^2 - (4 / a_max) * (v_max (t_f - t0)
           - (v_max - v0) (t_full - t0) + (v_max - v0)^2 / (2 a_max) - |x0|).

    pred and link_gap are plan_min_distance's: pred needs link_gap.
    """
    return _plan(_min_accel_dip, x0, v0, t_f, params, pred, link_gap, t0, vehicle_id)


# ===================== whole-schedule planning =====================

@dataclass
class PlannedSchedule:
    trajectories: List[Trajectory]
    failures: List[Tuple[int, TrajectoryError]]  # (vehicle id, error)


_DIPS: Dict[str, Dip] = {"min-distance": _min_distance_dip, "min-accel": _min_accel_dip}


def plan_schedule(vehicles: Sequence[Vehicle], params: SimParams,
                  kind: str = "min-distance") -> PlannedSchedule:
    """Plan one trajectory per scheduled vehicle, chained per lane.

    Vehicles enter the profiling segment at full speed, one segment
    length upstream, timed so a free-flow run reaches the stop line at
    their earliest crossing time a. Within each lane, every trajectory is
    planned against its predecessor (full-speed linkage on B-spaced
    crossings, spacing checked by verify_separation); kind picks the
    breakpoints of the one single-dip profile.

    A vehicle the planner refuses goes into .failures with its error,
    whose message starts with "vehicle <id>: ", and drops out of its lane
    chain, so the next vehicle is planned against the last one planned.
    Refusals are not limited to capped platoons: on physically spaced
    arrivals at rho 0.4, uncapped gated min-distance schedules refuse
    some vehicles with a SeparationViolation whose minimum gap is often
    negative (the follower passes through its leader), and exhaustive
    min-accel ones with minimum gaps of 3.1-5 m against l_min = 5 m.
    """
    dip = _DIPS.get(kind)
    if dip is None:
        raise ValueError(f"kind must be min-distance or min-accel, got {kind!r}")
    x0, v_m = -params.region_spa_m, params.v_max
    entry_lead = params.region_spa_m / v_m

    last_in_lane: Dict[int, Trajectory] = {}
    out: List[Trajectory] = []
    failures: List[Tuple[int, TrajectoryError]] = []
    for v in sorted(vehicles, key=lambda v: (v.c, v.id)):
        try:
            traj = _plan(dip, x0, v_m, v.c, params, last_in_lane.get(v.lane),
                         params.B_of(v.lane), v.a - entry_lead, v.id)
        except TrajectoryError as exc:
            failures.append((v.id, exc))
            continue
        out.append(traj)
        last_in_lane[v.lane] = traj
    return PlannedSchedule(trajectories=out, failures=failures)


# ===================== CSV export =====================

def write_segments_csv(trajectories: Sequence[Trajectory], path: str) -> None:
    """Exact segment table: vehicle_id, segment_index, t_start, duration, accel, x_start, v_start.

    Cells are 10-significant-digit floats and rows end in \\r\\n; the file
    is written atomically (core.write_atomic), a block of trajectories at a
    time.
    """
    from . import _trajcsv  # here: every command loads spa, and only traj writes tables
    _trajcsv.write_segments_csv(trajectories, path)


def write_sampled_csv(trajectories: Sequence[Trajectory], path: str, dt: float = 0.1) -> None:
    """Sampled table for plotting: vehicle_id, t, x, v, a at a fixed step.

    Per trajectory the rows are the times t0, t0 + dt, ... below t_f, then
    t_f, each with evaluate's (x, v, a); cells are 10-significant-digit
    floats and rows end in \\r\\n, as csv.writer writes them. The rows are
    computed with numpy and written atomically (core.write_atomic), a block
    of trajectories at a time: as many whole ones as fit _trajcsv.SAMPLE_BLOCK
    sample-matrix cells, or one longer trajectory.
    """
    from . import _trajcsv
    _trajcsv.write_sampled_csv(trajectories, path, dt)
