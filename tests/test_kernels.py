"""List kernel vs the object-based reference, bit for bit.

The kernel and the reference implement the same disciplines twice
(list state machine vs Schedule/GateBook objects), so every run is a
cross-check. check=True makes both verify schedule invariants after
each arrival.
"""
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonsim.core import PFA_KINDS, RunConfig, SimParams, load_config
from platoonsim.sim import run, run_reference
from test_pfa_properties import arrival_sequences, disciplines

TRAJ = Path(__file__).resolve().parents[1] / "configs" / "traj.json"


def assert_same_result(fast, slow):
    assert np.array_equal(fast.c, slow.c)
    assert np.array_equal(fast.a, slow.a)
    assert np.array_equal(fast.entry, slow.entry)
    assert np.array_equal(fast.lane0, slow.lane0)
    # NaN when no arrival found another vehicle present.
    assert np.array_equal([fast.fairness], [slow.fairness], equal_nan=True)
    assert fast.max_queue == slow.max_queue
    assert fast.fallback_count == slow.fallback_count
    assert fast.max_platoon == slow.max_platoon
    assert fast.mean == slow.mean


@pytest.mark.parametrize("pfa", ["exhaustive", "gated", "batch"])
def test_paths_agree_on_heterogeneous_lanes(pfa, params_het):
    config = RunConfig(
        params=params_het, pfa=pfa, batch_cap=4, horizon_vehicles=4000, seed=5
    )
    fast = run(config, check=True)
    slow = run_reference(config, check=True)
    assert_same_result(fast, slow)
    assert (fast.delay >= -1e-9).all()
    assert 0.0 <= fast.fairness <= 1.0


@pytest.mark.parametrize("pfa", ["exhaustive", "gated", "batch"])
def test_paths_agree_under_heavy_symmetric_load(pfa):
    params = SimParams().with_rho(0.85)
    config = RunConfig(
        params=params, pfa=pfa, batch_cap=8, horizon_vehicles=6000, seed=11
    )
    assert_same_result(run(config, check=True), run_reference(config, check=True))


@pytest.mark.parametrize("pfa", PFA_KINDS)
@pytest.mark.parametrize("script", ["inline", "traj.json"])
def test_paths_agree_on_scripted_arrivals(params, pfa, script):
    # configs/traj.json is the shipped input of `platoonsim traj`, which
    # schedules on the kernel; this pins it to the reference.
    if script == "inline":
        arrivals = [[1, 0.0], [2, 0.3], [1, 0.9], [2, 2.0], [2, 2.5], [1, 2.6], [2, 9.0]]
        config = RunConfig(params=params, arrivals=arrivals, seed=1)
    else:
        config = load_config(TRAJ)
    config.pfa = pfa
    assert_same_result(run(config, check=True), run_reference(config, check=True))


def test_platoon_rings_fill_to_capacity(params):
    # batch_cap=1 makes every vehicle its own platoon, so four arrivals
    # 0.1 s apart in one lane hold four live platoons at once.
    arrivals = [[1, 0.1 * i] for i in range(4)]
    config = RunConfig(params=params, pfa="batch", batch_cap=1, arrivals=arrivals, seed=1)
    assert_same_result(run(config, check=True), run_reference(config, check=True))


@given(case=arrival_sequences(), discipline=disciplines, per_lane=st.booleans())
@settings(max_examples=300, deadline=None)
def test_paths_agree_on_scripted_ties(case, discipline, per_lane):
    # Zero gaps in the arrival sequences give exact ties between arrivals,
    # departures and platoon boundaries, where the two paths could part.
    n, arrivals = case
    lanes = dict(B=(1.0, 1.2, 0.9)[:n], S=(2.375, 2.0, 1.5)[:n]) if per_lane else {}
    pfa, _, cap = discipline.partition(":")
    config = RunConfig(
        params=SimParams(n=n, lam=(0.2,) * n, **lanes),
        pfa=pfa,
        batch_cap=int(cap or 100),
        arrivals=[list(x) for x in arrivals],
        seed=1,
    )
    assert_same_result(run(config, check=True), run_reference(config, check=True))
