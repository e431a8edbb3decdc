"""Queue statistics read from the final schedule (sim._queue_counts).

The kernel and the reference report fairness and max_queue through the
same function, so their agreement in test_kernels.assert_same_result no
longer checks these values. Three anchors do:

* an arrival-by-arrival replay of the definitions
  (oracle_utils.queue_counts_by_replay) on random scripted sequences and
  on a few thousand Poisson arrivals;
* (sum_ahead, sum_total, max_queue) recorded from the counters that the
  kernel's scheduling loop kept before the statistics moved to sim;
* a bound on the summary's memory, so the counts stay blockwise.
"""
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from platoonsim import _kernels
from platoonsim._kernels import BLOCK
from platoonsim.core import PFA_KINDS, RunConfig, SimParams, load_config
from platoonsim.sim import _queue_counts, _summarize, make_arrivals, run
from oracle_utils import queue_counts_by_replay
from test_kernels import compaction_config
from test_pfa_properties import arrival_sequences, disciplines

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
HET = SimParams(n=3, lam=(0.15, 0.1, 0.2), B=(1.0, 1.2, 0.9), S=(2.375, 2.0, 1.5))


# ===================== replay of the definitions =====================

@given(
    case=arrival_sequences(),
    discipline=disciplines,
    per_lane=st.booleans(),
    where=st.sampled_from(["first", "middle", "last"]),
    block=st.sampled_from([1, 3, BLOCK]),
)
@settings(max_examples=300, deadline=None)
def test_counts_equal_replay_on_scripted_ties(case, discipline, per_lane, where, block):
    # Zero gaps give exact ties between arrivals and departures; a block of
    # 1 or 3 splits the counts into many slices.
    n, arrivals = case
    warmup = {"first": 0, "middle": len(arrivals) // 2, "last": len(arrivals) - 1}[where]
    lanes = dict(B=(1.0, 1.2, 0.9)[:n], S=(2.375, 2.0, 1.5)[:n]) if per_lane else {}
    params = SimParams(n=n, lam=(0.2,) * n, **lanes)
    pfa, _, cap = discipline.partition(":")
    config = RunConfig(
        params=params,
        pfa=pfa,
        batch_cap=int(cap or 100),
        arrivals=[list(x) for x in arrivals],
        warmup_vehicles=warmup,
        seed=1,
    )
    res = run(config)
    expect = queue_counts_by_replay(res.a, res.c, res.lane0, params.B, warmup)
    with mock.patch.object(_kernels, "BLOCK", block):
        assert _queue_counts(res.a, res.c, res.lane0, params.B, warmup) == expect
    assert res.max_queue == expect[2]


@pytest.mark.parametrize("pfa", PFA_KINDS)
def test_counts_equal_replay_under_heavy_load(pfa):
    # Queues of tens of vehicles, overtaken from far back, over many blocks.
    config = RunConfig(
        params=HET.with_rho(0.85), pfa=pfa, batch_cap=3, horizon_vehicles=2000, seed=4
    )
    res = run(config)
    expect = queue_counts_by_replay(res.a, res.c, res.lane0, HET.B, res.warmup)
    assert expect[2] > 10
    with mock.patch.object(_kernels, "BLOCK", 256):
        assert _queue_counts(res.a, res.c, res.lane0, HET.B, res.warmup) == expect


# ===================== counts the scheduling loop kept =====================

INLINE = [[1, 0.0], [2, 0.3], [1, 0.9], [2, 2.0], [2, 2.5], [1, 2.6], [2, 9.0]]


def busy_arrivals():
    """test_kernels.test_busy_period_spans_compaction's burst across a compaction."""
    sparse = BLOCK - 10
    arrivals = [[1 + i % 3, 10.0 * i] for i in range(sparse)]
    arrivals += [[1 + i % 3, 10.0 * sparse + 0.5 * i] for i in range(200)]
    arrivals += [[1 + i % 3, 10.0 * sparse + 200.0 + 10.0 * i] for i in range(20)]
    return arrivals


def golden_config(name):
    kind, _, rest = name.partition("-")
    if kind == "het":
        return RunConfig(params=HET, pfa=rest, batch_cap=4, horizon_vehicles=4000, seed=5)
    if kind == "heavy":
        params = SimParams().with_rho(0.85)
        return RunConfig(params=params, pfa=rest, batch_cap=8, horizon_vehicles=6000, seed=11)
    if kind == "inline":
        return RunConfig(params=SimParams(), pfa=rest, arrivals=INLINE, seed=1)
    if kind == "traj":
        config = load_config(CONFIGS / "traj.json")
        return replace(config, pfa=rest)
    if kind == "rings":
        arrivals = [[1, 0.1 * i] for i in range(4)]
        return RunConfig(params=SimParams(), pfa="batch", batch_cap=1, arrivals=arrivals, seed=1)
    if kind == "block":
        case, _, horizon = rest.rpartition("-")
        return compaction_config(case, int(horizon))
    if kind == "busy":
        params = SimParams(n=3, lam=(0.1,) * 3)
        return RunConfig(params=params, pfa=rest, batch_cap=4, arrivals=busy_arrivals(), seed=1)
    if kind == "asym":
        # A window of max_queue offsets misses inversions here: it counts
        # sum_ahead 45 093.
        params = load_config(CONFIGS / "asym.json").params.with_rho(0.6)
        return RunConfig(params=params, pfa="exhaustive", horizon_vehicles=20_000, seed=11)
    if kind == "batch2":
        # The cap-2 lock-out: one lane's queue runs away.
        params = SimParams(lam=(0.2, 0.2))
        return RunConfig(params=params, pfa="batch", batch_cap=2, horizon_vehicles=10_000, seed=5)
    raise KeyError(name)


# (sum_ahead, sum_total, max_queue) from the kernel's own counters.
GOLDEN = {
    "het-exhaustive": (6211, 7386, 12),
    "het-gated": (8156, 9109, 13),
    "het-batch": (8479, 9622, 14),
    "heavy-exhaustive": (49915, 63105, 30),
    "heavy-gated": (119056, 130299, 47),
    "heavy-batch": (1970310, 3871019, 1299),
    "inline-exhaustive": (9, 10, 4),
    "inline-gated": (12, 14, 5),
    "inline-batch": (12, 14, 5),
    "traj-exhaustive": (5, 6, 3),
    "traj-gated": (6, 8, 4),
    "traj-batch": (6, 8, 4),
    "rings": (6, 6, 4),
    f"block-exhaustive-3-{BLOCK - 1}": (69226, 90972, 30),
    f"block-exhaustive-3-{BLOCK}": (69229, 90975, 30),
    f"block-exhaustive-3-{BLOCK + 1}": (69231, 90977, 30),
    f"block-exhaustive-3-{BLOCK + 2}": (69234, 90980, 30),
    f"block-exhaustive-3-{2 * BLOCK + 1}": (134212, 176412, 35),
    f"block-gated-{BLOCK - 1}": (100113, 109591, 38),
    f"block-gated-{BLOCK}": (100120, 109600, 38),
    f"block-gated-{BLOCK + 1}": (100127, 109607, 38),
    f"block-gated-{BLOCK + 2}": (100135, 109615, 38),
    f"block-gated-{2 * BLOCK + 1}": (201734, 220733, 38),
    f"block-batch-cap6-{BLOCK - 1}": (669143, 1260110, 297),
    f"block-batch-cap6-{BLOCK}": (669151, 1260396, 297),
    f"block-batch-cap6-{BLOCK + 1}": (669433, 1260678, 297),
    f"block-batch-cap6-{BLOCK + 2}": (669436, 1260960, 297),
    f"block-batch-cap6-{2 * BLOCK + 1}": (2132321, 4125260, 481),
    "busy-exhaustive": (7059, 11266, 108),
    "busy-gated": (10045, 12114, 115),
    "busy-batch": (7986, 14840, 139),
    "asym": (44964, 51942, 17),
    "batch2": (3033889, 5985367, 1231),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_counts_equal_the_scheduling_loop(name):
    config = golden_config(name)
    res = run(config)
    sum_ahead, sum_total, max_queue = GOLDEN[name]
    assert _queue_counts(res.a, res.c, res.lane0, config.params.B, res.warmup) == GOLDEN[name]
    assert res.max_queue == max_queue
    assert res.fairness == sum_ahead / sum_total


# ===================== memory =====================

def test_summary_memory_is_bounded():
    """sim._summarize's own allocations at 100 000 vehicles, gated on 3:2:1 lanes.

    The queue counts hold one whole array, the sorted leave times, and
    build the rest BLOCK at a time; the post-warm-up delays are freed
    before each lane's are gathered. Measured tracemalloc peak over
    c.nbytes: 1.33 (1.77 with each lane's delays copied beside the
    post-warm-up delays and an int64 lane column, as with the kernel's
    counters; 3.00 with whole reach and present arrays).
    """
    params = SimParams(n=3, lam=(0.3, 0.2, 0.1))
    config = RunConfig(
        params=params, pfa="gated", horizon_vehicles=100_000, warmup_vehicles=10_000, seed=3
    )
    entry, lane0 = make_arrivals(params, config.horizon_vehicles, config.seed)
    a = entry + params.free_flow_offset
    warmup = config.resolved_warmup()
    c, fallback_count, max_platoon = _kernels.simulate_arrivals(a, lane0, params, "gated", 100, False)
    tracemalloc.start()
    try:
        _summarize(config, warmup, entry, a, lane0, c, fallback_count, max_platoon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * c.nbytes
