"""List kernel vs the object-based reference, bit for bit.

The kernel and the reference implement the same disciplines twice
(list state machine vs Schedule/GateBook objects), so every run is a
cross-check. check=True makes both verify schedule invariants after
each arrival. The kernel keeps only the live queue: the compaction tests
run horizons around its block size and bound its memory.
"""
import tracemalloc
from bisect import bisect_right
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonsim import _kernels
from platoonsim._kernels import BLOCK
from platoonsim.core import PFA_KINDS, RunConfig, SimParams, load_config
from platoonsim.sim import make_arrivals, run, run_reference
from test_pfa_properties import arrival_sequences, disciplines

TRAJ = Path(__file__).resolve().parents[1] / "configs" / "traj.json"


def assert_same_result(fast, slow):
    assert np.array_equal(fast.c, slow.c)
    assert np.array_equal(fast.a, slow.a)
    assert np.array_equal(fast.entry, slow.entry)
    assert np.array_equal(fast.lane0, slow.lane0)
    # Both paths read these from c through sim._queue_counts, which
    # test_queue_counts.py checks against a replay and recorded counts.
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
    config = replace(config, pfa=pfa)
    assert_same_result(run(config, check=True), run_reference(config, check=True))


def test_platoon_rings_fill_to_capacity(params):
    # batch_cap=1 makes every vehicle its own platoon, so four arrivals
    # 0.1 s apart in one lane hold four live platoons at once.
    arrivals = [[1, 0.1 * i] for i in range(4)]
    config = RunConfig(params=params, pfa="batch", batch_cap=1, arrivals=arrivals, seed=1)
    assert_same_result(run(config, check=True), run_reference(config, check=True))


@given(case=arrival_sequences(max_lanes=5), discipline=disciplines, per_lane=st.booleans())
@settings(max_examples=300, deadline=None)
def test_paths_agree_on_scripted_ties(case, discipline, per_lane):
    # Zero gaps in the arrival sequences give exact ties between arrivals,
    # departures and platoon boundaries, where the two paths could part.
    n, arrivals = case
    lanes = dict(B=(1.0, 1.2, 0.9, 1.1, 0.8)[:n], S=(2.375, 2.0, 1.5, 1.8, 2.2)[:n]) if per_lane else {}
    pfa, _, cap = discipline.partition(":")
    config = RunConfig(
        params=SimParams(n=n, lam=(0.15,) * n, **lanes),  # rho < 1 at 5 lanes
        pfa=pfa,
        batch_cap=int(cap or 100),
        arrivals=[list(x) for x in arrivals],
        seed=1,
    )
    assert_same_result(run(config, check=True), run_reference(config, check=True))


# ===================== shifts =====================

def _bits(xs):
    return [x.hex() for x in xs]


_times = st.lists(st.sampled_from([-1.5, 0.0, 0.25, 1.0, 2.0]) | st.floats(-4.0, 4.0), max_size=12)


@st.composite
def _anchors(draw, xs):
    """The anchor: equal to an entry, below or above every entry, or any time."""
    kinds = [st.floats(-6.0, 6.0), st.just((xs[0] if xs else 0.0) - 1.0),
             st.just((xs[-1] if xs else 0.0) + 1.0)]
    return draw(st.one_of(st.sampled_from(xs), *kinds) if xs else st.one_of(*kinds))


@given(data=st.data(), xs=_times.map(sorted), delta=st.floats(0.1, 5.0))
@settings(max_examples=300, deadline=None)
def test_shift_after_equals_the_slice_rebuild(data, xs, delta):
    anchor = data.draw(_anchors(xs))
    lo = data.draw(st.integers(0, len(xs)))
    j = bisect_right(xs, anchor, lo)
    want = xs[:j] + [x + delta for x in xs[j:]]
    _kernels._shift_after(xs, lo, anchor, delta)
    assert _bits(xs) == _bits(want)


@given(data=st.data(), books=st.lists(_times.map(sorted), min_size=1, max_size=5),
       delta=st.floats(0.1, 5.0))
@settings(max_examples=300, deadline=None)
def test_shift_platoons_equals_the_slice_rebuild(data, books, delta):
    pf = books
    pt = [[f + data.draw(st.floats(0.0, 3.0)) for f in starts] for starts in pf]
    anchor = data.draw(_anchors(sorted(f for starts in pf for f in starts)))
    want_f, want_t = [], []
    for starts, ends in zip(pf, pt):
        j = bisect_right(starts, anchor)
        want_f.append(starts[:j] + [f + delta for f in starts[j:]])
        want_t.append(ends[:j] + [t + delta for t in ends[j:]])
    _kernels._shift_platoons(pf, pt, anchor, delta)
    assert [_bits(f) for f in pf] == [_bits(f) for f in want_f]
    assert [_bits(t) for t in pt] == [_bits(t) for t in want_t]


@given(data=st.data(), cs=_times.filter(bool).map(sorted), delta=st.floats(0.1, 5.0))
@settings(max_examples=200, deadline=None)
def test_shift_lanes_equals_the_slice_rebuild(data, cs, delta):
    # Each lane's last crossing time is a scheduled one, or -inf.
    tl = data.draw(st.lists(st.sampled_from(cs + [-np.inf]), min_size=1, max_size=5))
    anchor = data.draw(_anchors(cs))
    head = data.draw(st.integers(0, len(cs) - 1))
    j = bisect_right(cs, anchor, head)
    want_cs = cs[:j] + [c + delta for c in cs[j:]]
    want_tl = [t + delta if t > anchor else t for t in tl]
    _kernels._shift_lanes(cs, head, tl, anchor, delta)
    assert _bits(cs) == _bits(want_cs)
    assert _bits(tl) == _bits(want_tl)


def _shift_counter(moved):
    """Wrappers of the shift helpers that record the most each call moved:
    platoons of one lane, lanes with a moved platoon, and slots of cs."""
    shift_platoons, shift_after = _kernels._shift_platoons, _kernels._shift_after

    def platoons(pf, pt, anchor, delta):
        per_lane = [sum(f > anchor for f in starts) for starts in pf]
        moved["one lane"] = max(moved["one lane"], max(per_lane))
        moved["lanes"] = max(moved["lanes"], sum(count > 0 for count in per_lane))
        return shift_platoons(pf, pt, anchor, delta)

    def after(xs, lo, anchor, delta):
        moved["cs"] = max(moved["cs"], sum(x > anchor for x in xs[lo:]))
        return shift_after(xs, lo, anchor, delta)

    return platoons, after


@pytest.mark.parametrize("rho", [0.9, 0.95])
@pytest.mark.parametrize("pfa", ["gated", "batch"])
@pytest.mark.parametrize("n", [4, 5])
def test_paths_agree_on_long_shifts(n, pfa, rho):
    # Shifts past one platoon of a lane, across lanes and over long tails
    # of the schedule, which the two-lane runs above rarely reach. Batch's
    # cap of 20 binds, so lanes hold several live platoons; above the cap's
    # k-limited bound its queue grows, so the runs are transient.
    params = SimParams(n=n, lam=(0.1,) * n).with_rho(rho)
    config = RunConfig(params=params, pfa=pfa, batch_cap=20, horizon_vehicles=3000, seed=1)
    moved = {"one lane": 0, "lanes": 0, "cs": 0}
    platoons, after = _shift_counter(moved)
    with mock.patch.object(_kernels, "_shift_platoons", wraps=platoons), \
            mock.patch.object(_kernels, "_shift_after", wraps=after):
        fast = run(config, check=True, steady_state=False)
    assert_same_result(fast, run_reference(config, check=True, steady_state=False))
    assert moved["lanes"] >= 2
    if pfa == "batch":
        assert moved["one lane"] >= 2
        assert moved["cs"] >= 50


# ===================== compaction of departed slots =====================

def departed_at_arrivals(res, b):
    """Vehicles departed at each arrival instant, all lanes with headway b.

    A vehicle has departed once c + b <= a; later arrivals cross no earlier
    than a, so counting over all vehicles counts the earlier ones.
    """
    return np.searchsorted(np.sort(res.c + b), res.a, side="right")


def first_compaction(res, b):
    """Index of the arrival at which the kernel first retires departed slots
    (more than BLOCK departed), or None."""
    over = np.flatnonzero(departed_at_arrivals(res, b) > BLOCK)
    return int(over[0]) if over.size else None


COMPACTION_CASES = {
    # Three lanes: exhaustive's lastsched points into the compacted lists.
    "exhaustive-3": dict(pfa="exhaustive", n=3, rho=0.8, cap=100),
    "gated": dict(pfa="gated", n=2, rho=0.8, cap=100),
    # The cap binds (largest platoon 6, gated's 15) and the queue grows.
    "batch-cap6": dict(pfa="batch", n=2, rho=0.6, cap=6),
}


def compaction_config(case, horizon):
    spec = COMPACTION_CASES[case]
    params = SimParams(n=spec["n"], lam=(0.1,) * spec["n"]).with_rho(spec["rho"])
    return RunConfig(
        params=params, pfa=spec["pfa"], batch_cap=spec["cap"], horizon_vehicles=horizon, seed=7
    )


@pytest.mark.parametrize("case", sorted(COMPACTION_CASES))
@pytest.mark.parametrize("horizon", [BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1])
def test_paths_agree_across_block_edges(case, horizon):
    config = compaction_config(case, horizon)
    fast = run(config)
    assert_same_result(fast, run_reference(config))
    if horizon == 2 * BLOCK + 1:
        assert first_compaction(fast, 1.0) is not None
    if case == "batch-cap6":
        assert fast.max_platoon == 6


def test_compaction_keeps_invariants():
    # check=True reads each live slot's earliest time by its global index.
    config = compaction_config("exhaustive-3", 2 * BLOCK + 1)
    fast = run(config, check=True)
    assert_same_result(fast, run_reference(config))
    assert first_compaction(fast, 1.0) is not None


def test_busy_period_spans_compaction():
    # Sparse arrivals until just below BLOCK departures, then a 200-vehicle
    # burst over three lanes that builds a queue; departed slots pass BLOCK
    # while that queue is still live.
    sparse = BLOCK - 10
    arrivals = [[1 + i % 3, 10.0 * i] for i in range(sparse)]
    arrivals += [[1 + i % 3, 10.0 * sparse + 0.5 * i] for i in range(200)]
    arrivals += [[1 + i % 3, 10.0 * sparse + 200.0 + 10.0 * i] for i in range(20)]
    params = SimParams(n=3, lam=(0.1,) * 3)
    for pfa in PFA_KINDS:
        config = RunConfig(params=params, pfa=pfa, batch_cap=4, arrivals=arrivals, seed=1)
        fast = run(config)
        assert_same_result(fast, run_reference(config))
        k = first_compaction(fast, 1.0)
        assert k is not None and k > sparse
        assert k - departed_at_arrivals(fast, 1.0)[k] > 10  # queue at the compaction


@given(
    case=arrival_sequences(),
    discipline=disciplines,
    block=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=200, deadline=None)
def test_paths_agree_with_tiny_blocks(case, discipline, block):
    # A block of 1-4 compacts at almost every arrival, through the exact
    # ties of the scripted sequences.
    n, arrivals = case
    pfa, _, cap = discipline.partition(":")
    config = RunConfig(
        params=SimParams(n=n, lam=(0.2,) * n),
        pfa=pfa,
        batch_cap=int(cap or 100),
        arrivals=[list(x) for x in arrivals],
        seed=1,
    )
    with mock.patch.object(_kernels, "BLOCK", block):
        fast = run(config, check=True)
    assert_same_result(fast, run_reference(config, check=True))


def test_kernel_memory_is_bounded_by_live_queue():
    # 100 000 vehicles at rho 0.6: the kernel's own allocations stay below
    # 3 MB (about 2 MB with compaction; 9.5 MB when every slot was kept).
    params = SimParams().with_rho(0.6)
    entry, lane0 = make_arrivals(params, 100_000, 3)
    a = entry + params.free_flow_offset
    tracemalloc.start()
    try:
        _kernels.simulate_arrivals(a, lane0, params.n, params.B, params.S, "gated", 100, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6
