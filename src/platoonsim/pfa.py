"""Platoon-forming schedulers: exhaustive, gated, and capacity-capped batch.

This is the whole object-level reference: its object model (Schedule,
PlatoonEntry, GateBook), the three schedulers, departures, and the replay
loop simulate, which sim.run_reference hands to sim's one run body in
place of the kernel. It favors clarity. No command runs or loads it:
every command schedules through the list-based kernel in _kernels, and
the tests compare that kernel against this module bit for bit.

All three schedulers mutate the Schedule (and GateBook) in place, set the
new vehicle's crossing time, and keep two invariants after every call:

* gap invariant: consecutive crossings are at least B apart on the same
  lane; across lanes the follower waits out the leader's occupation B and
  the clearance S of its own lane (crossing gap at least B + S);
* regularity: the relative order of previously scheduled vehicles never
  changes (insertions shift a suffix, never reorder).
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .core import TIE_TOL, InconsistentGateBook, PlatoonError, SimParams, Vehicle

__all__ = [
    "DepartureOutOfOrder",
    "Schedule",
    "PlatoonEntry",
    "GateBook",
    "schedule_exhaustive",
    "schedule_gated",
    "schedule_batch",
    "depart",
    "gap_violations",
    "reverse_cyclic_lanes",
    "simulate",
]


class DepartureOutOfOrder(PlatoonError):
    """depart() was called at a time that does not match the head vehicle."""


# ===================== schedule =====================

class Schedule:
    """Crossing plan: vehicles sorted by scheduled time, plus departure history.

    The ordering is kept sorted by (c, id); ties in c are impossible by
    construction (consecutive gaps are at least B > 0) but the id tiebreak
    keeps sorting deterministic anyway.
    """

    def __init__(self, n: int):
        self.n = n
        self.ordering: List[Vehicle] = []
        self.last_departed: Optional[Vehicle] = None
        self.fallback_count = 0  # times the schedulers hit the tie-only fallback branch

    def last(self) -> Optional[Vehicle]:
        """Last vehicle in the ordering, or the last departed one if empty."""
        if self.ordering:
            return self.ordering[-1]
        return self.last_departed

    def t_lane(self, lane: int) -> Optional[float]:
        """Crossing time of the last scheduled vehicle in a lane, or None."""
        for v in reversed(self.ordering):
            if v.lane == lane:
                return v.c
        return None

    def insert(self, vehicle: Vehicle) -> int:
        """Insert a scheduled vehicle; returns its position in the ordering."""
        pos = bisect.bisect_right(self.ordering, (vehicle.c, vehicle.id), key=lambda w: (w.c, w.id))
        self.ordering.insert(pos, vehicle)
        return pos

    def shift_after(self, anchor: float, delta: float) -> None:
        """Add delta to the crossing time of every vehicle with c > anchor."""
        start = bisect.bisect_right(self.ordering, anchor, key=lambda w: w.c)
        for v in self.ordering[start:]:
            v.c += delta

    def pop_head(self) -> Vehicle:
        head = self.ordering.pop(0)
        self.last_departed = head
        return head

    def __len__(self) -> int:
        return len(self.ordering)


# ===================== gate book =====================

@dataclass
class PlatoonEntry:
    f: float        # platoon start: crossing time of its first vehicle (s)
    t: float        # platoon end: crossing time of its last vehicle (s)
    count: int = 1  # number of vehicles assigned to the platoon

    def __post_init__(self) -> None:
        if self.count < 1:
            raise InconsistentGateBook(f"platoon count must be >= 1, got {self.count}")


class GateBook:
    """Per-lane lists of live platoons (start, end, size), ascending in time."""

    def __init__(self, n: int):
        self.n = n
        self._lanes: List[List[PlatoonEntry]] = [[] for _ in range(n)]

    def entries(self, lane: int) -> List[PlatoonEntry]:
        return self._lanes[lane - 1]

    def register(self, lane: int, entry: PlatoonEntry) -> None:
        """Append a new platoon; entries must stay ascending by start time."""
        lst = self._lanes[lane - 1]
        if lst and entry.f <= lst[-1].t:
            raise InconsistentGateBook(
                f"new platoon start {entry.f} not after lane {lane} last end {lst[-1].t}"
            )
        lst.append(entry)

    def shift_after(self, anchor: float, delta: float) -> None:
        """Shift every platoon whose start is strictly after the anchor."""
        for lst in self._lanes:
            for e in lst:
                if e.f > anchor:
                    e.f += delta
                    e.t += delta

    def prune_front(self, lane: int) -> PlatoonEntry:
        return self._lanes[lane - 1].pop(0)

    def validate(self) -> None:
        """Raise InconsistentGateBook unless all structural invariants hold."""
        for lane0, lst in enumerate(self._lanes):
            prev_t = -math.inf
            for e in lst:
                if e.f > e.t:
                    raise InconsistentGateBook(f"lane {lane0 + 1}: start {e.f} > end {e.t}")
                if e.f <= prev_t:
                    raise InconsistentGateBook(f"lane {lane0 + 1}: platoons overlap or are out of order")
                if e.count < 1:
                    raise InconsistentGateBook(f"lane {lane0 + 1}: count {e.count} < 1")
                prev_t = e.t


def reverse_cyclic_lanes(d: int, n: int) -> Iterator[int]:
    """Lanes in the scan order d-1, d-2, ..., 1, n, n-1, ..., d+1."""
    yield from range(d - 1, 0, -1)
    yield from range(n, d, -1)


# ===================== shared branch helpers =====================

def _branch_new_last(sched: Schedule, v0: Vehicle, params: SimParams) -> Optional[float]:
    """Free-flow branch: v0 arrives after everything currently scheduled.

    Returns the crossing time, or None if the branch does not apply. The
    occupation after the last vehicle lasts B of its own lane; a lane
    switch additionally requires the clearance S of the new vehicle's
    lane after that occupation ends.
    """
    last = sched.last()
    if last is None:
        return v0.a
    if last.c + params.B_of(last.lane) < v0.a:
        if v0.lane == last.lane:
            return v0.a
        return max(v0.a, last.c + params.B_of(last.lane) + params.S_of(v0.lane))
    return None


def _fallback_c(sched: Schedule, v0: Vehicle, params: SimParams) -> float:
    """Continuation behind the last vehicle when no platoon anchor applies.

    B behind the last vehicle on the same lane, its occupation B plus the
    clearance S of the new lane otherwise. Under the exhaustive discipline
    the scan always accepts the last vehicle's own lane, so this branch is
    reachable only through exact arithmetic ties with an empty ordering.
    Under gated/batch it is the common own-lane continuation: the vehicle
    arrives while its lane's platoon is still crossing, every own gate is
    closed, and no other lane has a usable platoon end, so the vehicle
    tags onto the tail at headway B (a new single-vehicle platoon).
    """
    last = sched.last()
    if last is None:  # defensive; the free-flow branch already covers this
        return v0.a
    sched.fallback_count += 1
    if v0.lane == last.lane:
        return last.c + params.B_of(v0.lane)
    return last.c + params.B_of(last.lane) + params.S_of(v0.lane)


def _first_after(sched: Schedule, anchor: float) -> Optional[Vehicle]:
    idx = bisect.bisect_right(sched.ordering, anchor, key=lambda w: w.c)
    if idx == len(sched.ordering):
        return None
    return sched.ordering[idx]


def _scan_candidate_safe(sched: Schedule, anchor: float, gap: float) -> bool:
    """True if no scheduled vehicle lies strictly inside (anchor, anchor+gap).

    Guards the cross-lane scan against anchoring at a platoon end that
    already has a later platoon within the clearance window (possible when
    platoon ends are not per-lane maxima). A vehicle exactly at the far
    boundary is the landing case and is allowed here.
    """
    w = _first_after(sched, anchor)
    return w is None or w.c >= anchor + gap - TIE_TOL


# ===================== exhaustive =====================

def schedule_exhaustive(sched: Schedule, v0: Vehicle, params: SimParams) -> Vehicle:
    """Insert v0 under the exhaustive discipline.

    Join the tail of the vehicle's own lane whenever it can get within B
    of it; otherwise start after the most recently visited lane whose last
    occupation plus clearance is still within reach (reverse cyclic scan).
    Later vehicles shift by the room the insertion claims.
    """
    d = v0.lane
    c = _branch_new_last(sched, v0, params)
    if c is None:
        b_d = params.B_of(d)
        t_d = sched.t_lane(d)
        if t_d is not None and t_d + b_d > v0.a:
            sched.shift_after(t_d, b_d)
            c = t_d + b_d
        else:
            s_d = params.S_of(d)
            for lane in reverse_cyclic_lanes(d, params.n):
                t_l = sched.t_lane(lane)
                gap = params.B_of(lane) + s_d
                if t_l is not None and t_l + gap > v0.a:
                    sched.shift_after(t_l, b_d + s_d)
                    c = t_l + gap
                    break
            else:
                c = _fallback_c(sched, v0, params)
    v0.c = c
    sched.insert(v0)
    return v0


# ===================== gated and batch =====================

def _lands_on_platoon_start(gates: GateBook, c: float) -> bool:
    for lane in range(1, gates.n + 1):
        for e in gates.entries(lane):
            if abs(e.f - c) <= TIE_TOL:
                return True
    return False


def _open_platoon(
    sched: Schedule,
    gates: GateBook,
    d: int,
    anchor: float,
    anchor_lane: int,
    params: SimParams,
) -> float:
    """Open a new lane-d platoon behind the platoon ending at anchor.

    The new platoon starts once the anchor vehicle's occupation (B of the
    anchor lane) and the clearance of lane d have both elapsed. The suffix
    shifts by the room the insertion claims; when the insertion point
    coincides with an existing platoon start the suffix moves by twice
    that room, so the displaced platoon keeps a full clearance behind the
    new vehicle.
    """
    unit = params.B_of(d) + params.S_of(d)
    gap = params.B_of(anchor_lane) + params.S_of(d)
    c = anchor + gap
    delta = 2.0 * unit if _lands_on_platoon_start(gates, c) else unit
    sched.shift_after(anchor, delta)
    gates.shift_after(anchor, delta)
    gates.register(d, PlatoonEntry(c, c, 1))
    return c


def _schedule_gatelike(
    sched: Schedule,
    gates: GateBook,
    v0: Vehicle,
    params: SimParams,
    cap: Optional[int],
) -> Vehicle:
    d = v0.lane
    c = _branch_new_last(sched, v0, params)
    if c is not None:
        gates.register(d, PlatoonEntry(c, c, 1))
        v0.c = c
        sched.insert(v0)
        return v0

    # Join branch: earliest lane-d platoon whose gate is still open, i.e.
    # whose start lies beyond the earliest feasible crossing time.
    joinable = [e for e in gates.entries(d) if e.f > v0.a]
    if joinable:
        target = None
        for e in joinable:
            if cap is None or e.count < cap:
                target = e
                break
        if target is not None:
            b_d = params.B_of(d)
            anchor = target.t
            sched.shift_after(anchor, b_d)
            gates.shift_after(anchor, b_d)  # target itself keeps f <= anchor
            c = anchor + b_d
            target.t = c
            target.count += 1
            v0.c = c
            sched.insert(v0)
            return v0
        # Every joinable platoon is full: open a fresh one behind the
        # lane's last platoon (forced switch, full occupation-plus-clearance).
        anchor = gates.entries(d)[-1].t
        c = _open_platoon(sched, gates, d, anchor, d, params)
        v0.c = c
        sched.insert(v0)
        return v0

    # Cross-lane scan: earliest reachable platoon end per lane, in reverse
    # cyclic order, skipping ends that already have traffic inside the
    # occupation-plus-clearance window.
    s_d = params.S_of(d)
    for lane in reverse_cyclic_lanes(d, params.n):
        gap = params.B_of(lane) + s_d
        for e in gates.entries(lane):
            if e.t + gap > v0.a and _scan_candidate_safe(sched, e.t, gap):
                c = _open_platoon(sched, gates, d, e.t, lane, params)
                v0.c = c
                sched.insert(v0)
                return v0

    c = _fallback_c(sched, v0, params)
    gates.register(d, PlatoonEntry(c, c, 1))
    v0.c = c
    sched.insert(v0)
    return v0


def schedule_gated(sched: Schedule, gates: GateBook, v0: Vehicle, params: SimParams) -> Vehicle:
    """Insert v0 under the gated discipline (platoons close when committed)."""
    return _schedule_gatelike(sched, gates, v0, params, cap=None)


def schedule_batch(sched: Schedule, gates: GateBook, v0: Vehicle, params: SimParams, cap: int) -> Vehicle:
    """Gated discipline with a per-platoon size cap.

    A join into a platoon that already holds cap vehicles is refused; the
    vehicle joins the next open platoon on its lane, or starts a new one
    behind the lane's last platoon when all of them are full.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    return _schedule_gatelike(sched, gates, v0, params, cap=cap)


# ===================== departures =====================

def depart(sched: Schedule, gates: Optional[GateBook], now: float, params: SimParams) -> Vehicle:
    """Remove the head vehicle; now must equal its crossing time plus B.

    For gated/batch books, the head's platoon entry is pruned once the
    head is the platoon's last vehicle (the platoon has fully crossed).
    """
    if not sched.ordering:
        raise DepartureOutOfOrder(f"departure at t={now} with an empty ordering")
    head = sched.ordering[0]
    due = head.c + params.B_of(head.lane)
    if abs(now - due) > TIE_TOL:
        raise DepartureOutOfOrder(f"departure at t={now}, head is due at t={due}")
    sched.pop_head()
    if gates is not None:
        entries = gates.entries(head.lane)
        if not entries:
            raise InconsistentGateBook(f"lane {head.lane} vehicle departed with no live platoon")
        front = entries[0]
        if head.c > front.t + TIE_TOL:
            raise InconsistentGateBook(
                f"departing crossing time {head.c} beyond platoon end {front.t}"
            )
        if abs(head.c - front.t) <= TIE_TOL:
            gates.prune_front(head.lane)
    return head


# ===================== checks =====================

def gap_violations(sched: Schedule, params: SimParams, tol: float = TIE_TOL) -> List[str]:
    """Human-readable list of gap-invariant violations (empty when clean).

    Consecutive crossings need at least B of the leader's lane when the
    lanes match, else the leader's occupation B plus the clearance S of
    the follower's lane.
    """
    out = []
    for u, w in zip(sched.ordering, sched.ordering[1:]):
        gap = w.c - u.c
        if w.lane == u.lane:
            need = params.B_of(u.lane)
        else:
            need = params.B_of(u.lane) + params.S_of(w.lane)
        if gap < need - tol:
            out.append(
                f"gap {gap:.9f} < {need} between id={u.id} (lane {u.lane}, c={u.c})"
                f" and id={w.id} (lane {w.lane}, c={w.c})"
            )
    return out


# ===================== replay =====================

def simulate(
    a: np.ndarray, lane0: np.ndarray, params: SimParams, kind: str, cap: int, check: bool
) -> Tuple[np.ndarray, int, int]:
    """Run one arrival stream through the reference scheduler.

    The contract of _kernels.simulate_arrivals: the same positional
    parameters and the same (final_c, fallback_count, max_platoon). a:
    ascending earliest crossing times, also the event times; lane0:
    0-based lanes. check=True validates the gap invariant and the platoon
    book after every arrival. final_c is NaN where a vehicle was never
    written; max_platoon is 0 for exhaustive.
    """
    sched = Schedule(params.n)
    gates: Optional[GateBook] = None if kind == "exhaustive" else GateBook(params.n)
    n = a.size
    final_c = np.full(n, np.nan)
    max_platoon = 0
    for k in range(n):
        now = float(a[k])
        while sched.ordering:
            head = sched.ordering[0]
            due = head.c + params.B_of(head.lane)
            if due <= now:
                gone = depart(sched, gates, due, params)
                final_c[gone.id] = gone.c
            else:
                break
        v0 = Vehicle(id=k, lane=int(lane0[k]) + 1, a=now)
        if kind == "exhaustive":
            schedule_exhaustive(sched, v0, params)
        elif kind == "gated":
            schedule_gated(sched, gates, v0, params)
        else:
            schedule_batch(sched, gates, v0, params, cap)
        if gates is not None:
            # Counts only grow, and only on the new vehicle's lane.
            for e in gates.entries(v0.lane):
                if e.count > max_platoon:
                    max_platoon = e.count
        if check:
            problems = gap_violations(sched, params)
            if problems:
                raise PlatoonError(f"after arrival {k}: {problems[0]}")
            if gates is not None:
                gates.validate()
    for v in sched.ordering:
        final_c[v.id] = v.c
    return final_c, sched.fallback_count, max_platoon
