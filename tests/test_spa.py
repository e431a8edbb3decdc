"""Speed-profile planners: frozen worked values, feasibility, chaining.

Frozen numbers (independent kinematic derivations, v_max=15, a_max=4):

* closest-approach profile on x0=-100, t_f=10 (no stop):
    dip time     sqrt((10*15 - 100)/4) = sqrt(12.5) ~ 3.5355339
    brake start  10 - 2*sqrt(12.5)              ~ 2.9289322
    area         426.7766953,  accel cost  8*sqrt(12.5) ~ 28.2842712
* same instance, least-acceleration profile:
    t1 = (10 - sqrt(50))/2 ~ 1.4644661,  t2 = 10 - t1 ~ 8.5355339
    dip speed 15 - 4*t1 ~ 9.1421356,     cost ~ 11.7157288
* full-stop instance x0=-200, t_f=20:
    brake 9.5833333, standstill 13.3333333 at x=-28.125, launch 16.25
    area 1520.8333333 (matches the closed quadratic-area identity)
* free flow x0=-150, t_f=10: area 750, zero acceleration throughout.
"""
import csv
import math
import re

import pytest

from platoonsim.core import SimParams, Vehicle
from platoonsim.spa import (
    InfeasibleCrossingTime,
    NegativeDiscriminant,
    OutOfDomain,
    OvercrowdingViolation,
    SeparationViolation,
    Trajectory,
    _build_segments,
    evaluate,
    plan_min_accel,
    plan_min_distance,
    plan_schedule,
    verify_separation,
    write_sampled_csv,
    write_segments_csv,
)

from platoonsim._trajcsv import _sample_times

from oracle_utils import (
    accel_cost,
    area,
    check_overcrowding,
    physical_schedule,
    write_sampled_csv_reference,
)

T_TILDE = math.sqrt(12.5)


# ===================== worked values: no-stop dip =====================

def test_min_distance_dip_breakpoints(params):
    traj = plan_min_distance(-100.0, 10.0, params)
    assert traj.diagnostics["t_tilde"] == pytest.approx(3.53553, abs=1e-4)
    assert traj.breakpoints["t_dec"] == pytest.approx(2.92893, abs=1e-4)
    assert traj.breakpoints["t_acc"] == pytest.approx(6.46447, abs=1e-4)
    assert traj.breakpoints["t_full"] == 10.0


def test_min_distance_dip_area_and_cost(params):
    traj = plan_min_distance(-100.0, 10.0, params)
    assert area(traj) == pytest.approx(426.7766953, abs=1e-4)
    assert accel_cost(traj) == pytest.approx(28.2842712, abs=1e-4)


def test_min_accel_dip_values(params):
    traj = plan_min_accel(-100.0, 15.0, 10.0, params)
    assert traj.diagnostics["t1"] == pytest.approx(1.46447, abs=1e-4)
    assert traj.diagnostics["t2"] == pytest.approx(8.53553, abs=1e-4)
    assert traj.diagnostics["v1"] == pytest.approx(9.14214, abs=1e-4)
    assert accel_cost(traj) == pytest.approx(11.7157, abs=1e-4)


def test_dominance_on_shared_instance(params):
    dist = plan_min_distance(-100.0, 10.0, params)
    acc = plan_min_accel(-100.0, 15.0, 10.0, params)
    assert accel_cost(acc) <= accel_cost(dist) + 1e-9
    assert area(dist) <= area(acc) + 1e-9


# ===================== worked values: full stop =====================

def test_full_stop_breakpoints(params):
    traj = plan_min_distance(-200.0, 20.0, params)
    assert traj.breakpoints["t_dec"] == pytest.approx(9.58333, abs=1e-4)
    assert traj.breakpoints["t_stop"] == pytest.approx(13.33333, abs=1e-4)
    assert traj.breakpoints["t_acc"] == pytest.approx(16.25, abs=1e-4)


def test_full_stop_dwell_position(params):
    traj = plan_min_distance(-200.0, 20.0, params)
    x, v, a = evaluate(traj, 15.0)     # inside the standstill window
    assert x == pytest.approx(-28.125, abs=1e-9)
    assert v == pytest.approx(0.0, abs=1e-9)
    assert a == 0.0


def test_full_stop_area_identity(params):
    # area == (v_m t_f + x0)(t_f - t_full + v_m/(2 a_m)) + x0^2/(2 v_m)
    # for full-stop entries at full speed (t0 = 0).
    v_m, a_m = params.v_max, params.a_max
    for x0, t_f in ((-200.0, 20.0), (-200.0, 24.0), (-150.0, 18.0)):
        traj = plan_min_distance(x0, t_f, params)
        assert "t_tilde" not in traj.diagnostics     # full-stop branch
        expected = (v_m * t_f + x0) * (t_f - traj.t_full + v_m / (2 * a_m)) + x0**2 / (2 * v_m)
        assert area(traj) == pytest.approx(expected, abs=1e-6)
    assert area(plan_min_distance(-200.0, 20.0, params)) == pytest.approx(
        1520.8333333, abs=1e-4
    )


# ===================== free flow =====================

def test_free_flow_profile(params):
    traj = plan_min_distance(-150.0, 10.0, params)
    assert len(traj.segments) == 1
    assert traj.segments[0].accel == 0.0
    assert area(traj) == pytest.approx(750.0, abs=1e-9)
    assert accel_cost(traj) == 0.0
    assert evaluate(traj, 5.0) == pytest.approx((-75.0, 15.0, 0.0))


def test_free_flow_min_accel(params):
    traj = plan_min_accel(-150.0, 15.0, 10.0, params)
    assert accel_cost(traj) == pytest.approx(0.0, abs=1e-9)
    assert evaluate(traj, 10.0)[0] == pytest.approx(0.0, abs=1e-9)


# ===================== boundary conditions =====================

def test_boundaries_and_closure(params):
    cases = [
        plan_min_distance(-100.0, 10.0, params),
        plan_min_distance(-200.0, 20.0, params),
        plan_min_accel(-100.0, 15.0, 10.0, params),
        plan_min_accel(-120.0, 11.0, 14.0, params),
    ]
    for traj in cases:
        x, v, _ = evaluate(traj, traj.t0)
        assert (x, v) == (traj.x0, traj.v0)
        xf, vf, _ = evaluate(traj, traj.t_f)
        assert xf == pytest.approx(0.0, abs=1e-6)
        assert vf == pytest.approx(params.v_max, abs=1e-9)
        last = traj.segments[-1]
        assert last.t_start + last.duration == pytest.approx(traj.t_f, abs=1e-9)


def test_evaluate_out_of_domain(params):
    traj = plan_min_distance(-100.0, 10.0, params)
    with pytest.raises(OutOfDomain):
        evaluate(traj, -1.0)
    with pytest.raises(OutOfDomain):
        evaluate(traj, 10.5)


# ===================== errors =====================

def test_infeasible_crossing_time(params):
    with pytest.raises(InfeasibleCrossingTime):
        plan_min_distance(-150.0, 9.9, params)
    with pytest.raises(InfeasibleCrossingTime):
        plan_min_accel(-150.0, 15.0, 9.9, params)


def test_min_distance_plans_crossing_just_below_free_flow():
    # 100 / 15 is inexact, so t_f - t0 can round a few ulps below the
    # free-flow time; the feasibility check lets that through, and the
    # no-stop dip then has no depth rather than a negative radicand.
    short = SimParams(region_spa_m=100.0)
    below = 0
    for i in range(1, 2000):
        a = 0.37 * i
        t0 = a - 100.0 / 15.0
        below += (a - t0) * 15.0 < 100.0
        traj = plan_min_distance(-100.0, a, short, t0=t0)
        assert traj.diagnostics["t_tilde"] >= 0.0
        xf, vf, _ = evaluate(traj, traj.t_f)
        assert xf == pytest.approx(0.0, abs=1e-6)
        assert vf == pytest.approx(15.0, abs=1e-9)
    assert below > 0


def test_overcrowding_too_close_to_stop(params):
    # 50 m is less than the v^2/a = 56.25 m needed to brake and relaunch.
    with pytest.raises(OvercrowdingViolation):
        plan_min_distance(-50.0, 8.0, params)
    assert not check_overcrowding(-50.0, 8.0, 8.0, params)
    assert check_overcrowding(-100.0, 10.0, 10.0, params)


def test_negative_discriminant_stop_required(params):
    # Shedding 5.5 s of slack over 45 m cannot be done without stopping.
    with pytest.raises(NegativeDiscriminant):
        plan_min_accel(-45.0, 15.0, 10.0, params)


def test_min_accel_slow_entry_infeasible(params):
    # Entering at 5 m/s the vehicle is already too slow to be on time.
    with pytest.raises(InfeasibleCrossingTime):
        plan_min_accel(-100.0, 5.0, 10.0, params)


def test_argument_validation(params):
    with pytest.raises(ValueError):
        plan_min_distance(10.0, 10.0, params)
    with pytest.raises(ValueError):
        plan_min_accel(-100.0, 20.0, 10.0, params)


# ===================== predecessor linkage and separation =====================

def test_chained_pair_shares_t_full(params):
    leader = plan_min_distance(-300.0, 25.0, params)
    follower = plan_min_distance(-300.0, 26.0, params, pred=leader, link_gap=1.0, t0=1.0)
    assert follower.t_full == leader.t_full == 25.0
    assert verify_separation(leader, follower, params.l_min) == []
    # Lockstep platoon: one occupation time apart means one occupation
    # length apart the whole way down.
    for t in (5.0, 18.0, 21.0, 24.0, 25.0):
        gap = evaluate(leader, t)[0] - evaluate(follower, t)[0]
        assert gap == pytest.approx(15.0, abs=1e-9)


def test_unlinked_follower_keeps_own_t_full(params):
    leader = plan_min_distance(-300.0, 25.0, params)
    follower = plan_min_distance(-300.0, 30.0, params, pred=leader, link_gap=1.0, t0=6.0)
    assert follower.t_full == 30.0


def test_separation_violation_raised(params):
    leader = plan_min_distance(-300.0, 25.0, params)
    with pytest.raises(SeparationViolation):
        plan_min_distance(-300.0, 26.0, params, pred=leader, link_gap=1.0, t0=0.0)


def test_verify_separation_reports_close_pair(params):
    # The leader brakes hard and launches at a_max while the least-accel
    # follower cruises: the gap bottoms out at a vertex inside a segment.
    leader = plan_min_distance(-150.0, 12.0, params)
    follower = plan_min_accel(-150.0, params.v_max, 12.3, params, t0=0.4)
    out = verify_separation(leader, follower, params.l_min)
    assert len(out) == 1
    m = re.fullmatch(r"separation (\S+) m < 5\.0 m at t=(\S+)", out[0])
    assert m, out[0]
    gap, t = float(m.group(1)), float(m.group(2))

    def gap_at(t):
        return evaluate(leader, t)[0] - evaluate(follower, t)[0]

    # Dense scan: a 1 ms grid, then a 0.1 us grid around its lowest sample.
    t_lo, t_hi = follower.t0, leader.t_f
    coarse = [t_lo + k * 1e-3 for k in range(int((t_hi - t_lo) / 1e-3))] + [t_hi]
    t_c = min(coarse, key=gap_at)
    fine = [min(max(t_c + k * 1e-7, t_lo), t_hi) for k in range(-10_000, 10_001)]
    t_min = min(fine, key=gap_at)
    assert gap == pytest.approx(gap_at(t_min), abs=1e-6) and gap < params.l_min
    assert t == pytest.approx(t_min, abs=1e-6) and t_lo < t < t_hi
    # One B behind and linked: a time-shifted copy, 15 m back throughout.
    clean = plan_min_distance(-150.0, 13.0, params, pred=leader, link_gap=1.0, t0=1.0)
    assert verify_separation(leader, clean, params.l_min) == []


# ===================== whole-schedule planning =====================

def schedule_fixture():
    return [
        Vehicle(id=0, lane=1, a=30.0, c=30.0),
        Vehicle(id=1, lane=1, a=30.9, c=31.0),
        Vehicle(id=2, lane=2, a=30.3, c=34.375),
        Vehicle(id=3, lane=1, a=45.0, c=45.0),
    ]


def test_plan_schedule_chains_per_lane(params):
    planned = plan_schedule(schedule_fixture(), params, kind="min-distance")
    assert planned.failures == []
    by_id = {t.vehicle_id: t for t in planned.trajectories}
    assert len(by_id) == 4
    assert by_id[1].t_full == by_id[0].t_full == 30.0   # B-spaced join
    assert by_id[2].t_full == 34.375                    # other lane, own dip
    assert by_id[3].t_full == 45.0                      # free flow later
    assert [t.vehicle_id for t in planned.trajectories] == [0, 1, 2, 3]


def test_plan_schedule_min_accel_same_crossings(params):
    dist = plan_schedule(schedule_fixture(), params, kind="min-distance")
    acc = plan_schedule(schedule_fixture(), params, kind="min-accel")
    assert dist.failures == [] and acc.failures == []
    for td, ta in zip(dist.trajectories, acc.trajectories):
        assert td.t_f == ta.t_f
        assert accel_cost(ta) <= accel_cost(td) + 1e-9
        assert area(td) <= area(ta) + 1e-9


def test_plan_schedule_single_dip(params):
    planned = plan_schedule(schedule_fixture(), params, kind="min-distance")
    assert planned.failures == []
    for traj in planned.trajectories:
        assert sum(1 for s in traj.segments if s.accel < 0.0) <= 1


def test_plan_schedule_best_effort_reports_single_dip(params):
    tight = SimParams(region_spa_m=50.0)
    vehicles = [Vehicle(id=0, lane=1, a=20.0, c=28.0)]
    planned = plan_schedule(vehicles, tight, kind="min-distance")
    assert planned.trajectories == []
    assert len(planned.failures) == 1
    vid, err = planned.failures[0]
    assert vid == 0
    assert isinstance(err, OvercrowdingViolation)
    assert str(err).startswith("vehicle 0: ") and str(err).count("vehicle") == 1


def test_plan_schedule_rejects_unknown_kind(params):
    with pytest.raises(ValueError):
        plan_schedule([], params, kind="fastest")


# ===================== one single-dip shape =====================

def assert_single_dip(traj, params):
    """t0 <= t_dec <= t_stop <= t_acc <= t_full <= t_f, and one segment of
    acceleration 0, -a_max, 0, +a_max, 0 on each of those intervals that
    has a length."""
    bp = traj.breakpoints
    edges = [traj.t0, bp["t_dec"], bp["t_stop"], bp["t_acc"], bp["t_full"], traj.t_f]
    assert edges == sorted(edges), edges
    accels = [0.0, -params.a_max, 0.0, params.a_max, 0.0]
    want = [
        (lo, hi, accel) for lo, hi, accel in zip(edges, edges[1:], accels) if hi - lo > 1e-12
    ]
    got = [(s.t_start, s.t_start + s.duration, s.accel) for s in traj.segments]
    assert [accel for *_, accel in got] == [accel for *_, accel in want]
    assert [t for lo, hi, _ in got for t in (lo, hi)] == pytest.approx(
        [t for lo, hi, _ in want for t in (lo, hi)], abs=1e-9
    )


def single_dip_cases(params):
    md_leader = plan_min_distance(-300.0, 25.0, params)
    ma_leader = plan_min_accel(-300.0, params.v_max, 25.0, params)
    return {
        "min-distance full stop": plan_min_distance(-200.0, 20.0, params),
        "min-distance dip": plan_min_distance(-100.0, 10.0, params),
        "min-accel": plan_min_accel(-100.0, 15.0, 10.0, params),
        "min-accel below full speed": plan_min_accel(-120.0, 11.0, 14.0, params),
        "min-distance linked follower": plan_min_distance(
            -300.0, 26.0, params, pred=md_leader, link_gap=1.0, t0=1.0),
        "min-accel linked follower": plan_min_accel(
            -300.0, params.v_max, 26.0, params, pred=ma_leader, link_gap=1.0, t0=1.0),
    }


@pytest.mark.parametrize("case", [
    "min-distance full stop", "min-distance dip", "min-accel", "min-accel below full speed",
    "min-distance linked follower", "min-accel linked follower",
])
def test_planners_share_one_single_dip_shape(params, case):
    assert_single_dip(single_dip_cases(params)[case], params)


def test_each_form_is_a_choice_of_breakpoints(params):
    cases = {name: traj.breakpoints for name, traj in single_dip_cases(params).items()}
    stop, dip = cases["min-distance full stop"], cases["min-distance dip"]
    assert stop["t_stop"] < stop["t_acc"]   # dwell at a standstill
    assert dip["t_stop"] == dip["t_acc"]    # no dwell
    assert cases["min-accel"]["t_dec"] == 0.0  # brakes from entry
    for name in ("min-distance linked follower", "min-accel linked follower"):
        assert cases[name]["t_full"] == 25.0  # the leader's full-speed instant


@pytest.mark.parametrize("kind", ["min-distance", "min-accel"])
def test_planned_schedule_has_one_single_dip_shape(kind):
    # 300 physically spaced gated crossings at rho 0.4 (seed 77): B-linked
    # platoons, dips, full stops and refusals.
    vehicles, params = physical_schedule("gated", 0.4, 300, seed=77)
    planned = plan_schedule(vehicles, params, kind=kind)
    assert planned.failures
    for traj in planned.trajectories:
        assert_single_dip(traj, params)


# ===================== exporters =====================

def test_segment_export_roundtrip(tmp_path, params):
    planned = plan_schedule(schedule_fixture(), params, kind="min-distance")
    assert planned.failures == []
    path = tmp_path / "segments.csv"
    write_segments_csv(planned.trajectories, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {
        "vehicle_id", "segment_index", "t_start", "duration", "accel", "x_start", "v_start"
    }
    assert len(rows) == sum(len(t.segments) for t in planned.trajectories)
    first = rows[0]
    traj0 = planned.trajectories[0]
    assert float(first["t_start"]) == pytest.approx(traj0.t0)
    assert float(first["x_start"]) == pytest.approx(traj0.x0)


def test_sampled_export_shape(tmp_path, params):
    planned = plan_schedule(schedule_fixture(), params, kind="min-distance")
    assert planned.failures == []
    path = tmp_path / "sampled.csv"
    write_sampled_csv(planned.trajectories, str(path), dt=0.5)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"vehicle_id", "t", "x", "v", "a"}
    for vid in (0, 1, 2, 3):
        ts = [float(r["t"]) for r in rows if int(r["vehicle_id"]) == vid]
        assert ts == sorted(ts)
        # Last sample sits on the crossing itself.
        traj = next(t for t in planned.trajectories if t.vehicle_id == vid)
        assert ts[-1] == pytest.approx(traj.t_f)
        xs = [float(r["x"]) for r in rows if int(r["vehicle_id"]) == vid]
        assert xs[-1] == pytest.approx(0.0, abs=1e-6)


# ===================== sampled export against the scalar reference =====================

def sampled_bytes(write, trajectories, tmp_path, dt):
    path = tmp_path / f"{write.__name__}.csv"
    write(trajectories, str(path), dt)
    return path.read_bytes()


def assert_sampled_matches_reference(trajectories, tmp_path, dt):
    got = sampled_bytes(write_sampled_csv, trajectories, tmp_path, dt)
    assert got == sampled_bytes(write_sampled_csv_reference, trajectories, tmp_path, dt)
    return got


@pytest.mark.parametrize("kind", ["min-distance", "min-accel"])
@pytest.mark.parametrize("dt", [0.1, 0.5])
def test_sampled_export_matches_reference_with_refusals(tmp_path, kind, dt):
    # 300 physically spaced gated crossings at rho 0.4 (seed 77).
    vehicles, params = physical_schedule("gated", 0.4, 300, seed=77)
    planned = plan_schedule(vehicles, params, kind=kind)
    assert planned.failures  # the refused vehicles drop out of the table
    assert_sampled_matches_reference(planned.trajectories, tmp_path, dt)


def test_sampled_export_on_segment_starts(tmp_path):
    # dt = 0.5 and every segment start are exact binary fractions, so
    # samples land on the starts and must take the segment starting there.
    pieces = [(1.0, 0.0), (2.0, -2.0), (1.5, 0.0), (1.0, 3.0)]
    traj = Trajectory(t0=0.0, t_f=5.5, x0=-30.0, v0=10.0,
                      segments=_build_segments(0.0, -30.0, 10.0, pieces),
                      t_full=5.5, vehicle_id=7)
    text = assert_sampled_matches_reference([traj], tmp_path, 0.5).decode()
    rows = {r["t"]: r for r in csv.DictReader(text.splitlines())}
    assert [rows[t]["a"] for t in ("0", "1", "3", "4.5", "5.5")] == ["0", "-2", "0", "3", "3"]


def test_sampled_export_degenerate_single_segment(tmp_path):
    segments = _build_segments(12.0, -40.0, 15.0, [(0.0, -4.0), (1e-13, 4.0)])
    assert len(segments) == 1 and segments[0].duration == 0.0
    point = Trajectory(t0=12.0, t_f=12.0, x0=-40.0, v0=15.0, segments=segments, t_full=12.0)
    held = Trajectory(t0=12.0, t_f=13.0, x0=-40.0, v0=15.0, segments=segments, t_full=13.0)
    text = assert_sampled_matches_reference([point, held], tmp_path, 0.1).decode()
    assert text.count("\r\n") == 1 + 1 + 11  # header, the crossing, 10 steps + t_f
    backwards = Trajectory(t0=12.0, t_f=11.0, x0=-40.0, v0=15.0, segments=segments, t_full=11.0)
    for write in (write_sampled_csv, write_sampled_csv_reference):
        with pytest.raises(OutOfDomain):
            write([backwards], str(tmp_path / "backwards.csv"), 0.1)


def test_sampled_export_follows_running_sum_drift(tmp_path):
    # At t = 2**20 one ulp is 2**-32; a step of 1.4 ulp advances t by one
    # ulp, so the running sum needs 100 steps where t_f - t0 = 71.4 dt.
    t0 = 2.0 ** 20
    span = 100 * 2.0 ** -32
    traj = Trajectory(t0=t0, t_f=t0 + span, x0=-1.0, v0=1.0,
                      segments=_build_segments(t0, -1.0, 1.0, [(span, 0.0)]), t_full=t0 + span)
    text = assert_sampled_matches_reference([traj], tmp_path, 1.4 * 2.0 ** -32).decode()
    assert text.count("\r\n") == 1 + 101
    with pytest.raises(ValueError, match="does not advance"):
        write_sampled_csv([traj], str(tmp_path / "stuck.csv"), dt=0.4 * 2.0 ** -32)


def test_sample_times_refuses_an_unindexable_count():
    # About 1e301 samples: refused before numpy is asked for the array.
    with pytest.raises(MemoryError, match="cannot sample"):
        _sample_times(0.0, 1e300, 0.1)
