"""The exact-minimum screen in front of the separation grid.

spa._separation_shortfalls skips its sampling grid for a pair whose exact
minimum gap clears l_min - tol by SCREEN_CUSHION. The grid alone is kept
in oracle_utils.separation_shortfalls_reference; with either, planning
must give the same trajectories and the same refusals, and the screen
must never clear a pair with a grid sample below the threshold.
"""
import math

import pytest
from hypothesis import given, settings, strategies as st

from platoonsim import spa
from platoonsim.core import SimParams
from platoonsim.spa import SEP_GRID_DT, SEP_TOL, TrajectoryError

from oracle_utils import physical_schedule, separation_shortfalls_reference


def failure_list(planned):
    return [(vid, type(err), str(err)) for vid, err in planned.failures]


@pytest.mark.parametrize("pfa,kind,refused", [
    ("gated", "min-distance", 232),
    ("exhaustive", "min-accel", 243),
])
def test_screen_keeps_plans_and_refusals(monkeypatch, pfa, kind, refused):
    # The uncapped schedules that refuse vehicles at rho 0.4 (5 000 vehicles,
    # seed 77): every refusal message must come out of the grid unchanged.
    vehicles, params = physical_schedule(pfa, 0.4, 5000, seed=77)
    screened = spa.plan_schedule(vehicles, params, kind=kind, best_effort=True)
    monkeypatch.setattr(spa, "_separation_shortfalls", separation_shortfalls_reference)
    grid = spa.plan_schedule(vehicles, params, kind=kind, best_effort=True)
    assert len(grid.failures) == refused
    assert failure_list(screened) == failure_list(grid)
    assert screened.trajectories == grid.trajectories


def plan_pair(kind, params, t0, slack, headway, crossing_gap):
    """A leader and its follower planned as plan_schedule chains them,
    without the follower's separation check, so close pairs are kept."""
    x0 = -params.region_spa_m
    free = params.region_spa_m / params.v_max
    t_f = t0 + free + slack
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spa, "_check_pred", lambda traj, pred, params: traj)
        if kind == "min-distance":
            leader = spa.plan_min_distance(x0, t_f, params, t0=t0)
            follower = spa.plan_min_distance(x0, t_f + crossing_gap, params, pred=leader,
                                             link_gap=params.B_of(1), t0=t0 + headway)
        else:
            leader = spa.plan_min_accel(x0, params.v_max, t_f, params, t0=t0)
            follower = spa.plan_min_accel(x0, params.v_max, t_f + crossing_gap, params,
                                          pred=leader, link_gap=params.B_of(1),
                                          t0=t0 + headway)
    return leader, follower


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(["min-distance", "min-accel"]),
    t0=st.one_of(st.just(0.0), st.floats(0.0, 1e5)),
    slack=st.floats(0.0, 12.0),
    # Entry headways on both sides of l_min / v_max = 1/3 s.
    headway=st.floats(0.2, 0.5),
    # Exactly B links the follower to the leader's full-speed instant.
    crossing_gap=st.one_of(st.just(1.0), st.floats(-2.0, 4.0)),
    tol=st.sampled_from([SEP_TOL, 0.0, 0.05]),
)
def test_screen_matches_grid_on_pairs(kind, t0, slack, headway, crossing_gap, tol):
    params = SimParams()
    free = params.region_spa_m / params.v_max
    if t0 + free + slack + crossing_gap - (t0 + headway) < free:
        # Faster than free flow: plan_min_distance's dip time takes the
        # square root of a negative number within FEAS_TOL of free flow.
        # plan_schedule never asks for this at the default geometry.
        return
    try:
        leader, follower = plan_pair(kind, params, t0, slack, headway, crossing_gap)
    except TrajectoryError:
        return  # outside the planner's family: no pair to check
    got = spa._separation_shortfalls(leader, follower, params.l_min, tol, SEP_GRID_DT)
    want = separation_shortfalls_reference(leader, follower, params.l_min, tol, SEP_GRID_DT)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    t_lo, t_hi = max(leader.t0, follower.t0), leader.t_f
    if t_hi <= t_lo:
        return
    # Every grid sample: no sample is at or above an infinite threshold.
    ts, gaps = separation_shortfalls_reference(leader, follower, math.inf, 0.0, SEP_GRID_DT)
    low = spa._min_gap(leader, follower, t_lo, float(ts[-1]))
    assert low <= float(gaps.min()) + 1e-9
    # The grid comes within dt / 2 of the vertex: relative acceleration at
    # most 2 a_max, so its lowest sample is at most a_max (dt / 2)^2 above.
    assert float(gaps.min()) - low <= params.a_max * (SEP_GRID_DT / 2) ** 2 + 1e-9


def test_min_gap_of_linked_platoon_pair_is_constant_spacing():
    # B-spaced followers are time-shifted copies: v_max * B apart throughout.
    params = SimParams()
    leader, follower = plan_pair("min-distance", params, 0.0, 5.0, 1.0, 1.0)
    assert follower.t_full == leader.t_full
    low = spa._min_gap(leader, follower, follower.t0, leader.t_f)
    assert low == pytest.approx(params.v_max * params.B_of(1), abs=1e-9)
    empty = spa._separation_shortfalls(leader, follower, params.l_min, SEP_TOL, SEP_GRID_DT)
    assert [a.size for a in empty] == [0, 0]


def test_min_gap_holds_a_trajectory_after_its_last_segment():
    # The follower crosses first and _sample_x holds it at the stop line
    # until the leader crosses; the screen must see the same held position.
    params = SimParams()
    leader, follower = plan_pair("min-distance", params, 0.0, 3.0, 0.4, -1.0)
    assert follower.t_f < leader.t_f
    low = spa._min_gap(leader, follower, follower.t0, leader.t_f)
    assert low <= spa.evaluate(leader, follower.t_f)[0] < 0.0
    _, gaps = separation_shortfalls_reference(leader, follower, math.inf, 0.0, SEP_GRID_DT)
    assert float(gaps.min()) - params.a_max * (SEP_GRID_DT / 2) ** 2 - 1e-9 <= low
    assert low <= float(gaps.min()) + 1e-9
