"""Scheduler worked examples: small hand-traced insertion and departure cases.

Cross-lane anchoring throughout: a follower switching lanes waits out the
leader's occupation B (of the leader's lane) plus the clearance S of its
own lane, so tight cross-lane gaps are B + S, with B=1 and S=2.375 in the
symmetric cases below.
"""
import pytest

from platoonsim.core import InconsistentGateBook, SimParams, Vehicle
from platoonsim.pfa import (
    DepartureOutOfOrder,
    GateBook,
    PlatoonEntry,
    Schedule,
    depart,
    gap_violations,
    reverse_cyclic_lanes,
    schedule_batch,
    schedule_exhaustive,
    schedule_gated,
)

from oracle_utils import assert_regular


def veh(vid, lane, a):
    return Vehicle(id=vid, lane=lane, a=a)


def seeded_schedule(entries):
    """Schedule prebuilt from (id, lane, c) triples (a set equal to c)."""
    sched = Schedule(n=2)
    for vid, lane, c in entries:
        sched.insert(Vehicle(id=vid, lane=lane, a=c, c=c))
    return sched


# ===================== exhaustive =====================

def test_exhaustive_empty_free_flow(params):
    sched = Schedule(n=2)
    v = schedule_exhaustive(sched, veh(0, 1, 10.0), params)
    assert v.c == 10.0
    assert v.delay == 0.0


def test_exhaustive_same_lane_join(params):
    sched = seeded_schedule([(0, 1, 10.0)])
    v = schedule_exhaustive(sched, veh(1, 1, 10.5), params)
    assert v.c == pytest.approx(11.0)


def test_exhaustive_cross_lane_scan(params):
    # Lane switch behind the lane-1 tail: occupation 1 plus clearance 2.375.
    sched = seeded_schedule([(0, 1, 10.0)])
    v = schedule_exhaustive(sched, veh(1, 2, 10.5), params)
    assert v.c == pytest.approx(13.375)


def test_exhaustive_free_flow_cross_lane(params):
    sched = seeded_schedule([(0, 1, 10.0)])
    v = schedule_exhaustive(sched, veh(1, 2, 20.0), params)
    assert v.c == 20.0
    assert v.delay == 0.0


def test_exhaustive_free_flow_cross_lane_clamped(params):
    # Past the tail's own occupation but inside the clearance window: the
    # crossing clamps to occupation-plus-clearance behind the tail.
    sched = seeded_schedule([(0, 1, 10.0)])
    v = schedule_exhaustive(sched, veh(1, 2, 11.5), params)
    assert v.c == pytest.approx(13.375)
    assert v.delay == pytest.approx(1.875)


def test_exhaustive_join_shifts_suffix(params):
    sched = seeded_schedule([(0, 1, 10.0), (1, 2, 13.375)])
    before = seeded_schedule([(0, 1, 10.0), (1, 2, 13.375)])
    v = schedule_exhaustive(sched, veh(2, 1, 10.5), params)
    assert v.c == pytest.approx(11.0)
    shifted = next(w for w in sched.ordering if w.id == 1)
    assert shifted.c == pytest.approx(14.375)
    assert gap_violations(sched, params) == []
    assert assert_regular(before, sched, v)


def test_exhaustive_tie_hits_fallback(params):
    # Exact arithmetic tie: the strict join and scan guards both miss and
    # the same-lane fallback lands the vehicle at the tail headway.
    sched = seeded_schedule([(0, 1, 10.0)])
    v = schedule_exhaustive(sched, veh(1, 1, 11.0), params)
    assert v.c == pytest.approx(11.0)
    assert sched.fallback_count == 1


def test_exhaustive_scan_order_prefers_previous_lane(params_het):
    # Arrival on lane 2 scans lane 1 before lane 3.
    sched = Schedule(n=3)
    schedule_exhaustive(sched, veh(0, 1, 10.0), params_het)
    schedule_exhaustive(sched, veh(1, 3, 10.2), params_het)  # behind lane 1
    v = schedule_exhaustive(sched, veh(2, 2, 10.4), params_het)
    # Lane-1 anchor: 10 + B1 + S2 = 13.0 (not the lane-3 tail).
    assert v.c == pytest.approx(13.0)
    assert gap_violations(sched, params_het) == []


# ===================== gated =====================

def test_gated_empty_registers_platoon(params):
    sched, gates = Schedule(n=2), GateBook(n=2)
    v = schedule_gated(sched, gates, veh(0, 1, 5.0), params)
    assert v.c == 5.0
    entry = gates.entries(1)[0]
    assert (entry.f, entry.t, entry.count) == (5.0, 5.0, 1)


def test_gated_join_open_gate(params):
    sched = seeded_schedule([(0, 1, 10.0)])
    gates = GateBook(n=2)
    gates.register(1, PlatoonEntry(10.0, 10.0, 1))
    v = schedule_gated(sched, gates, veh(1, 1, 9.5), params)
    assert v.c == pytest.approx(11.0)
    entry = gates.entries(1)[0]
    assert (entry.f, entry.t, entry.count) == (10.0, 11.0, 2)


def test_gated_cross_lane_new_platoon(params):
    sched = seeded_schedule([(0, 1, 10.0)])
    gates = GateBook(n=2)
    gates.register(1, PlatoonEntry(10.0, 10.0, 1))
    v = schedule_gated(sched, gates, veh(1, 2, 9.5), params)
    assert v.c == pytest.approx(13.375)
    entry = gates.entries(2)[0]
    assert (entry.f, entry.t, entry.count) == (13.375, 13.375, 1)


def test_gated_closed_gate_falls_back_to_tail(params):
    # Gate already closed (platoon start at 10 is not beyond a=10.5) and no
    # cross-lane platoon exists: own-lane continuation at the tail headway.
    sched = seeded_schedule([(0, 1, 10.0)])
    gates = GateBook(n=2)
    gates.register(1, PlatoonEntry(10.0, 10.0, 1))
    v = schedule_gated(sched, gates, veh(1, 1, 10.5), params)
    assert v.c == pytest.approx(11.0)
    assert sched.fallback_count == 1
    assert [e.f for e in gates.entries(1)] == [10.0, 11.0]


def test_gated_landing_on_platoon_start_doubles_shift():
    params = SimParams(n=3, lam=(0.1, 0.1, 0.1))
    sched, gates = Schedule(n=3), GateBook(n=3)
    schedule_gated(sched, gates, veh(0, 1, 10.0), params)
    v1 = schedule_gated(sched, gates, veh(1, 3, 10.2), params)
    assert v1.c == pytest.approx(13.375)  # behind lane 1: 10 + 1 + 2.375
    # Lane-2 arrival anchors at lane 1 as well and lands exactly on the
    # lane-3 platoon start, so the displaced suffix moves by two units.
    v2 = schedule_gated(sched, gates, veh(2, 2, 10.4), params)
    assert v2.c == pytest.approx(13.375)
    assert v1.c == pytest.approx(13.375 + 2 * 3.375)
    assert gap_violations(sched, params) == []
    gates.validate()


def test_gated_cross_lane_scan_simple(params):
    sched, gates = Schedule(n=2), GateBook(n=2)
    schedule_gated(sched, gates, veh(0, 1, 10.0), params)
    schedule_gated(sched, gates, veh(1, 2, 10.1), params)   # at 13.375
    schedule_gated(sched, gates, veh(2, 2, 10.2), params)   # joins: 14.375
    # Own gate (start 10) is closed; the lane-2 platoon end anchors the switch.
    v = schedule_gated(sched, gates, veh(3, 1, 10.6), params)
    assert v.c == pytest.approx(14.375 + 3.375)
    assert gap_violations(sched, params) == []
    gates.validate()


def test_gated_scan_skips_unsafe_platoon_end(params):
    sched, gates = Schedule(n=2), GateBook(n=2)
    schedule_gated(sched, gates, veh(0, 1, 10.0), params)
    schedule_gated(sched, gates, veh(1, 2, 10.1), params)   # at 13.375
    schedule_gated(sched, gates, veh(2, 2, 10.2), params)   # joins: 14.375
    # Own gates closed, lane-1 tail out of reach: own-lane continuation
    # opens a trailing lane-2 platoon right behind the first one.
    v3 = schedule_gated(sched, gates, veh(3, 2, 13.5), params)
    assert v3.c == pytest.approx(15.375)
    assert sched.fallback_count == 1
    # The first lane-2 platoon end now has that trailing vehicle inside its
    # clearance window, so the scan must skip it and anchor one platoon later.
    v4 = schedule_gated(sched, gates, veh(4, 1, 13.6), params)
    assert v4.c == pytest.approx(15.375 + 3.375)
    assert gap_violations(sched, params) == []
    gates.validate()


# ===================== batch =====================

def test_batch_cap_refuses_join(params):
    sched = seeded_schedule([(0, 1, 10.0)])
    gates = GateBook(n=2)
    gates.register(1, PlatoonEntry(10.0, 10.0, 1))
    v = schedule_batch(sched, gates, veh(1, 1, 9.5), params, cap=1)
    # Refused (platoon full): new platoon behind the lane tail, paying the
    # full occupation-plus-clearance switch gap.
    assert v.c == pytest.approx(13.375)
    assert [e.count for e in gates.entries(1)] == [1, 1]


def test_batch_cap_two_allows_then_refuses(params):
    sched = seeded_schedule([(0, 1, 10.0)])
    gates = GateBook(n=2)
    gates.register(1, PlatoonEntry(10.0, 10.0, 1))
    v1 = schedule_batch(sched, gates, veh(1, 1, 9.0), params, cap=2)
    assert v1.c == pytest.approx(11.0)
    v2 = schedule_batch(sched, gates, veh(2, 1, 9.2), params, cap=2)
    assert v2.c == pytest.approx(11.0 + 1.0 + 2.375)
    assert [e.count for e in gates.entries(1)] == [2, 1]


def test_batch_invalid_cap(params):
    with pytest.raises(ValueError):
        schedule_batch(Schedule(n=2), GateBook(n=2), veh(0, 1, 1.0), params, cap=0)


def test_batch_large_cap_matches_gated(params):
    arrivals = [(1, 0.0), (2, 0.3), (1, 0.9), (2, 2.0), (2, 2.5), (1, 3.1)]
    sg, gg = Schedule(n=2), GateBook(n=2)
    sb, gb = Schedule(n=2), GateBook(n=2)
    for vid, (lane, a) in enumerate(arrivals):
        schedule_gated(sg, gg, veh(vid, lane, a), params)
        schedule_batch(sb, gb, veh(vid, lane, a), params, cap=100)
    assert [v.c for v in sg.ordering] == [v.c for v in sb.ordering]


# ===================== departures =====================

def test_depart_empties_and_remembers(params):
    sched = seeded_schedule([(0, 1, 5.0)])
    head = depart(sched, None, now=6.0, params=params)
    assert head.id == 0
    assert len(sched) == 0
    assert sched.last_departed.c == 5.0


def test_depart_leaves_tail_untouched(params):
    sched = seeded_schedule([(0, 1, 5.0), (1, 2, 8.375)])
    depart(sched, None, now=6.0, params=params)
    assert [v.id for v in sched.ordering] == [1]
    assert sched.ordering[0].c == pytest.approx(8.375)


def test_depart_requires_exact_time(params):
    sched = seeded_schedule([(0, 1, 5.0)])
    with pytest.raises(DepartureOutOfOrder):
        depart(sched, None, now=5.5, params=params)
    with pytest.raises(DepartureOutOfOrder):
        depart(Schedule(n=2), None, now=1.0, params=params)


def test_depart_prunes_finished_platoon(params):
    sched = seeded_schedule([(0, 1, 5.0), (1, 1, 6.0)])
    gates = GateBook(n=2)
    gates.register(1, PlatoonEntry(5.0, 6.0, 2))
    depart(sched, gates, now=6.0, params=params)      # head c=5: platoon live
    assert len(gates.entries(1)) == 1
    depart(sched, gates, now=7.0, params=params)      # head c=6: platoon done
    assert len(gates.entries(1)) == 0


def test_depart_detects_missing_platoon(params):
    sched = seeded_schedule([(0, 1, 5.0)])
    with pytest.raises(InconsistentGateBook):
        depart(sched, GateBook(n=2), now=6.0, params=params)


# ===================== checks and helpers =====================

def test_assert_regular_negative_control(params):
    before = seeded_schedule([(0, 1, 5.0), (1, 2, 8.375)])
    after = seeded_schedule([(1, 1, 5.0), (0, 2, 8.375)])  # ids swapped
    inserted = veh(2, 1, 9.0)
    inserted.c = 9.375
    after.insert(inserted)
    assert not assert_regular(before, after, inserted)


def test_gap_violations_positive_control(params):
    sched = seeded_schedule([(0, 1, 5.0), (1, 2, 5.5)])   # needs 1 + 2.375
    out = gap_violations(sched, params)
    assert len(out) == 1
    assert "id=0" in out[0] and "id=1" in out[0]


def test_gap_violations_same_lane_boundary(params):
    sched = seeded_schedule([(0, 1, 5.0), (1, 1, 6.0)])
    assert gap_violations(sched, params) == []


def test_reverse_cyclic_order():
    assert list(reverse_cyclic_lanes(2, 4)) == [1, 4, 3]
    assert list(reverse_cyclic_lanes(1, 3)) == [3, 2]
    assert list(reverse_cyclic_lanes(3, 3)) == [2, 1]
    assert list(reverse_cyclic_lanes(1, 1)) == []
