"""Property tests: scheduler invariants under randomized arrival sequences.

Each example drives a full arrival/departure loop the same way the
simulator does and checks, after every insertion:

* regularity (no reordering of already-scheduled vehicles),
* the gap invariant (B same lane, occupation-plus-clearance across lanes),
* monotone rescheduling (existing crossings never move earlier),
* no crossing before its earliest feasible time,
* per-lane FIFO,
* gate-book structural consistency (gated and batch).
"""
import copy

from hypothesis import given, settings, strategies as st

from platoonsim.core import TIE_TOL, SimParams, Vehicle
from platoonsim.pfa import (
    GateBook,
    Schedule,
    depart,
    gap_violations,
    schedule_batch,
    schedule_exhaustive,
    schedule_gated,
)

from oracle_utils import assert_regular

@st.composite
def arrival_sequences(draw, max_lanes=3):
    n = draw(st.integers(min_value=1, max_value=max_lanes))
    m = draw(st.integers(min_value=1, max_value=30))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False),
            min_size=m, max_size=m,
        )
    )
    lanes = draw(st.lists(st.integers(min_value=1, max_value=n), min_size=m, max_size=m))
    t, arrivals = 0.0, []
    for gap, lane in zip(gaps, lanes):
        t += gap
        arrivals.append((lane, t))
    return n, arrivals


disciplines = st.sampled_from(["exhaustive", "gated", "batch:1", "batch:3", "batch:100"])


def drive(n, arrivals, discipline, params):
    """Arrival/departure loop with invariant checks after every insertion."""
    sched = Schedule(n)
    gates = None if discipline == "exhaustive" else GateBook(n)
    for vid, (lane, now) in enumerate(arrivals):
        while sched.ordering and sched.ordering[0].c + params.B_of(sched.ordering[0].lane) <= now:
            head = sched.ordering[0]
            depart(sched, gates, head.c + params.B_of(head.lane), params)

        before = copy.deepcopy(sched)
        pre_ids = {v.id: v.c for v in sched.ordering}
        v0 = Vehicle(id=vid, lane=lane, a=now)
        if discipline == "exhaustive":
            schedule_exhaustive(sched, v0, params)
        elif discipline == "gated":
            schedule_gated(sched, gates, v0, params)
        else:
            cap = int(discipline.split(":")[1])
            schedule_batch(sched, gates, v0, params, cap)

        assert assert_regular(before, sched, v0)
        assert gap_violations(sched, params) == []
        assert v0.c >= v0.a - TIE_TOL
        for w in sched.ordering:
            if w.id != v0.id:
                assert w.c >= pre_ids[w.id] - TIE_TOL
        if gates is not None:
            gates.validate()
            total = sum(e.count for ln in range(1, n + 1) for e in gates.entries(ln))
            assert total >= len(sched.ordering)
    return sched


@given(case=arrival_sequences(), discipline=disciplines)
@settings(max_examples=120, deadline=None)
def test_invariants_symmetric(case, discipline):
    n, arrivals = case
    params = SimParams(n=n, lam=(0.2,) * n)
    drive(n, arrivals, discipline, params)


@given(case=arrival_sequences(), discipline=disciplines)
@settings(max_examples=120, deadline=None)
def test_invariants_per_lane_parameters(case, discipline):
    n, arrivals = case
    b = (1.0, 1.2, 0.9)[:n]
    s = (2.375, 2.0, 1.5)[:n]
    params = SimParams(n=n, lam=(0.2,) * n, B=b, S=s)
    drive(n, arrivals, discipline, params)


@given(case=arrival_sequences(), discipline=disciplines)
@settings(max_examples=60, deadline=None)
def test_per_lane_fifo(case, discipline):
    n, arrivals = case
    params = SimParams(n=n, lam=(0.2,) * n)
    sched = drive(n, arrivals, discipline, params)
    # Whatever is still scheduled must cross in arrival (= id) order per lane.
    for lane in range(1, n + 1):
        ids = [v.id for v in sched.ordering if v.lane == lane]
        assert ids == sorted(ids)


@given(case=arrival_sequences())
@settings(max_examples=60, deadline=None)
def test_exhaustive_delayed_switch_gap_is_tight(case):
    # A delayed vehicle right behind a crossing from another lane sits at
    # exactly occupation-plus-clearance behind it: the scan never accepts
    # an anchor with another vehicle inside the clearance window, so a
    # delayed switcher lands tight on its predecessor for any lane count.
    n, arrivals = case
    if n < 2:
        return
    params = SimParams(n=n, lam=(0.2,) * n)
    sched = drive(n, arrivals, "exhaustive", params)
    for u, w in zip(sched.ordering, sched.ordering[1:]):
        if w.lane != u.lane and w.delay > TIE_TOL:
            need = params.B_of(u.lane) + params.S_of(w.lane)
            assert abs((w.c - u.c) - need) <= 1e-7
