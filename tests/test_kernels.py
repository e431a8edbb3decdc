"""Compiled kernel vs the object-based reference, bit for bit.

The kernel and the reference implement the same disciplines twice
(array state machine vs Schedule/GateBook objects), so every run is a
cross-check. check=True makes both verify schedule invariants after
each arrival.
"""
import os
import subprocess
import sys

import numpy as np
import pytest

from platoonsim import _kernels
from platoonsim.core import InconsistentGateBook, RunConfig, SimParams
from platoonsim.sim import make_arrivals, run, run_reference


def assert_same_result(fast, slow):
    assert np.array_equal(fast.c, slow.c)
    assert np.array_equal(fast.a, slow.a)
    assert np.array_equal(fast.entry, slow.entry)
    assert np.array_equal(fast.lane0, slow.lane0)
    assert fast.fairness == slow.fairness
    assert fast.max_queue == slow.max_queue
    assert fast.fallback_count == slow.fallback_count
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


def test_paths_agree_on_scripted_arrivals(params):
    arrivals = [[1, 0.0], [2, 0.3], [1, 0.9], [2, 2.0], [2, 2.5], [1, 2.6], [2, 9.0]]
    config = RunConfig(params=params, pfa="gated", arrivals=arrivals, seed=1)
    assert_same_result(run(config, check=True), run_reference(config, check=True))


def test_platoon_rings_fill_to_capacity(monkeypatch, params):
    # batch_cap=1 makes every vehicle its own platoon, so k arrivals 0.1 s
    # apart in one lane hold k live platoons at once.
    def queue(k):
        arrivals = [[1, 0.1 * i] for i in range(k)]
        return RunConfig(params=params, pfa="batch", batch_cap=1, arrivals=arrivals, seed=1)

    # Four arrivals get rings of four slots per lane, filled exactly.
    assert_same_result(run(queue(4), check=True), run_reference(queue(4), check=True))
    if _kernels.USE_NUMBA:
        pytest.skip("the compiled kernel fixed _PCAP when it was compiled")
    monkeypatch.setattr(_kernels, "_PCAP", 4)  # rings of four platoons at most
    with pytest.raises(InconsistentGateBook, match="ring overflow at arrival 4"):
        run(queue(5))


def test_pure_python_twin_is_bitwise_identical(params):
    kern = _kernels.simulate_arrivals
    twin = getattr(kern, "py_func", None)
    if twin is None:
        pytest.skip("kernel already runs in pure Python")
    entry, lane0 = make_arrivals(params, 2000, seed=9)
    arr_a = entry + params.free_flow_offset
    B = np.asarray(params.B, dtype=np.float64)
    S = np.asarray(params.S, dtype=np.float64)
    args = (arr_a, lane0, params.n, B, S, 0, 100, 200, True)
    out_fast = kern(*args)
    out_slow = twin(*args)
    for got, want in zip(out_fast, out_slow):
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want


def test_env_flag_disables_compilation():
    code = "import platoonsim._kernels as k; print(k.USE_NUMBA)"
    env = dict(os.environ, PLATOONSIM_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
