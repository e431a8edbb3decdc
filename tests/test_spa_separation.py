"""The exact separation check against a fixed sampling grid.

spa.verify_separation decides spacing by the exact minimum gap of a
trajectory pair (spa._min_gap). The sampling grid it replaced is kept in
oracle_utils.separation_shortfalls_reference, clipped at the leader's
crossing: the exact minimum must lie at or below every grid sample and
within the grid's resolution of the lowest one, every grid refusal must
also be an exact refusal (both up to rounding), and planning must refuse
the same vehicles with either verdict.
"""
import math

import pytest
from hypothesis import given, settings, strategies as st

from platoonsim import spa
from platoonsim.core import SimParams
from platoonsim.spa import SEP_TOL, TrajectoryError

from oracle_utils import physical_schedule, separation_shortfalls_reference

GRID_DT = 0.01


def grid_verify_separation(leader, follower, l_min, tol=SEP_TOL):
    """verify_separation with the grid's verdict: its first low sample."""
    ts, gaps = separation_shortfalls_reference(leader, follower, l_min, tol, GRID_DT)
    if not ts.size:
        return []
    return [f"separation {gaps[0]:.9f} m < {l_min} m at t={ts[0]:.6f}"]


def refusal_list(planned):
    return [(vid, type(err)) for vid, err in planned.failures]


@pytest.mark.parametrize("pfa,kind,refused", [
    ("gated", "min-distance", 232),
    ("exhaustive", "min-accel", 243),
])
def test_exact_verdicts_keep_grid_refusals(monkeypatch, pfa, kind, refused):
    # The uncapped schedules that refuse vehicles at rho 0.4 (5 000 vehicles,
    # seed 77): the exact minimum refuses what the grid refuses.
    vehicles, params = physical_schedule(pfa, 0.4, 5000, seed=77)
    exact = spa.plan_schedule(vehicles, params, kind=kind)
    monkeypatch.setattr(spa, "verify_separation", grid_verify_separation)
    grid = spa.plan_schedule(vehicles, params, kind=kind)
    assert len(grid.failures) == refused
    assert refusal_list(exact) == refusal_list(grid)
    assert exact.trajectories == grid.trajectories


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
def test_min_gap_bounds_grid_samples_on_pairs(kind, t0, slack, headway, crossing_gap, tol):
    params = SimParams()
    try:
        leader, follower = plan_pair(kind, params, t0, slack, headway, crossing_gap)
    except TrajectoryError:
        return  # outside the planner's family: no pair to check
    got = spa.verify_separation(leader, follower, params.l_min, tol)
    assert len(got) <= 1
    t_lo, t_hi = max(leader.t0, follower.t0), leader.t_f
    if t_hi <= t_lo:
        assert got == []
        return
    # Every grid sample: no sample is at or above an infinite threshold.
    _, gaps = separation_shortfalls_reference(leader, follower, math.inf, 0.0, GRID_DT)
    low, t_low = spa._min_gap(leader, follower, t_lo, t_hi)
    assert t_lo <= t_low <= t_hi
    assert low <= float(gaps.min()) + 1e-9
    # The grid comes within dt / 2 of the vertex: relative acceleration at
    # most 2 a_max, so its lowest sample is at most a_max (dt / 2)^2 above.
    assert float(gaps.min()) - low <= params.a_max * (GRID_DT / 2) ** 2 + 1e-9
    # A grid refusal is an exact refusal, up to the same 1e-9 m of rounding
    # (a gap of exactly l_min can sample a few ulps below it).
    low_samples, _ = separation_shortfalls_reference(leader, follower, params.l_min,
                                                     tol + 1e-9, GRID_DT)
    if low_samples.size:
        assert got, "the grid refuses a pair the exact check clears"


def test_min_gap_of_linked_platoon_pair_is_constant_spacing():
    # B-spaced followers are time-shifted copies: v_max * B apart throughout.
    params = SimParams()
    leader, follower = plan_pair("min-distance", params, 0.0, 5.0, 1.0, 1.0)
    assert follower.t_full == leader.t_full
    low, _ = spa._min_gap(leader, follower, follower.t0, leader.t_f)
    assert low == pytest.approx(params.v_max * params.B_of(1), abs=1e-9)
    assert spa.verify_separation(leader, follower, params.l_min) == []


def test_min_gap_holds_a_trajectory_after_its_last_segment():
    # The follower crosses first and is held at the stop line until the
    # leader crosses; the exact minimum must see the same held position.
    params = SimParams()
    leader, follower = plan_pair("min-distance", params, 0.0, 3.0, 0.4, -1.0)
    assert follower.t_f < leader.t_f
    low, t_low = spa._min_gap(leader, follower, follower.t0, leader.t_f)
    assert low <= spa.evaluate(leader, follower.t_f)[0] < 0.0
    assert follower.t_f <= t_low <= leader.t_f
    _, gaps = separation_shortfalls_reference(leader, follower, math.inf, 0.0, GRID_DT)
    assert float(gaps.min()) - params.a_max * (GRID_DT / 2) ** 2 - 1e-9 <= low
    assert low <= float(gaps.min()) + 1e-9
