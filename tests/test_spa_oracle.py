"""Closed-form planners against the brute-force grid search.

The acceptance suite runs the full 200-instance comparison; this module
runs a smaller draw of the same generator plus targeted single
instances, and sanity-checks the audit helpers the acceptance suite
reuses.
"""
import numpy as np
import pytest

from platoonsim.core import Vehicle
from platoonsim.spa import (
    evaluate,
    plan_min_accel,
    plan_min_distance,
    plan_schedule,
)

from oracle_utils import (
    accel_cost,
    area,
    audit_separation,
    audit_trajectory,
    oracle_gap_rows,
    oracle_min,
    sample_xva,
)


def test_oracle_matches_min_distance_worked_instance(params):
    closed = area(plan_min_distance(-100.0, 10.0, params))
    brute = area(oracle_min("distance", -100.0, 15.0, 10.0, params))
    assert brute == pytest.approx(closed, rel=0.01)
    assert closed <= brute + 1e-9


def test_oracle_matches_min_accel_worked_instance(params):
    closed = accel_cost(plan_min_accel(-100.0, 15.0, 10.0, params))
    brute = accel_cost(oracle_min("acceleration", -100.0, 15.0, 10.0, params))
    assert closed == pytest.approx(11.7157, abs=1e-3)
    assert brute == pytest.approx(closed, rel=0.01)
    assert closed <= brute + 1e-9


def test_oracle_free_flow_is_exactly_zero_cost(params):
    brute = oracle_min("acceleration", -150.0, 15.0, 10.0, params)
    assert accel_cost(brute) == 0.0
    assert evaluate(brute, 10.0)[0] == pytest.approx(0.0, abs=1e-9)


def test_oracle_rejects_unknown_objective(params):
    with pytest.raises(ValueError):
        oracle_min("jerk", -100.0, 15.0, 10.0, params)


@pytest.mark.parametrize("objective,seed", [("distance", 21), ("acceleration", 22)])
def test_closed_form_tracks_oracle_on_random_instances(objective, seed, params):
    rows = oracle_gap_rows(objective, 30, seed, params)
    assert len(rows) == 30
    for r in rows:
        assert r["brute"] == pytest.approx(r["closed"], rel=0.01)
        assert r["closed"] <= r["brute"] + 1e-9


# ===================== audit helper self-checks =====================

def test_sample_xva_matches_evaluate(params):
    traj = plan_min_distance(-200.0, 20.0, params)
    ts = np.linspace(0.0, 20.0, 401)
    xs, vs, accs = sample_xva(traj, ts)
    for i in (0, 57, 200, 333, 400):
        x, v, a = evaluate(traj, float(ts[i]))
        assert xs[i] == pytest.approx(x, abs=1e-12)
        assert vs[i] == pytest.approx(v, abs=1e-12)
        assert accs[i] == a


def test_audit_trajectory_accepts_planner_output(params):
    for traj in (
        plan_min_distance(-100.0, 10.0, params),
        plan_min_distance(-200.0, 20.0, params),
        plan_min_accel(-100.0, 15.0, 10.0, params),
    ):
        assert audit_trajectory(traj, params) == []


def test_audit_trajectory_flags_tampered_segment(params):
    traj = plan_min_distance(-100.0, 10.0, params)
    traj.segments[1].accel = -2.0 * params.a_max
    assert audit_trajectory(traj, params)


def test_audit_separation_on_planned_platoon(params):
    vehicles = [
        Vehicle(id=0, lane=1, a=30.0, c=31.0),
        Vehicle(id=1, lane=1, a=30.5, c=32.0),
        Vehicle(id=2, lane=2, a=33.0, c=35.375),
    ]
    planned = plan_schedule(vehicles, params, kind="min-distance")
    assert planned.failures == []
    assert audit_separation(planned, vehicles, params) == []
