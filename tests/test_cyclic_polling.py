"""Exhaustive PFA is cyclic exhaustive polling, checked in crossing order.

The simulator builds exhaustive schedules online, inserting each arrival
into the crossing plan and shifting the vehicles behind it. The paper's
polling view builds the same schedule in crossing order: one server
empties the lane in service, then moves to the next waiting lane in
forward cyclic order, paying that lane's clearance S.

The two agree bit for bit only where float sums are exact: the kernel
adds B + S to a crossing time where the server adds B, then S. With entry
times and per-lane B and S on a 1/8 s grid every sum here is exact, so
the crossing times and the fallback count must be equal. Off that grid
the two round differently; a difference of one ulp can flip a near-tie
join decision, after which the schedules part.
"""
import math
from collections import deque

import numpy as np
from hypothesis import given, settings, strategies as st

from platoonsim.core import RunConfig, SimParams
from platoonsim.sim import run

GRID = 0.125


def cyclic_exhaustive(a, lanes, B, S):
    """Crossing times and fallback count of a cyclic exhaustive polling server.

    The last vehicle served crossed at c on lane d; let t = c + B_d.
    Join: lane d's next arrival came before t, so it crosses at t.
    Switch: otherwise the first lane e after d in cyclic order whose next
    arrival came before t is served at t + S_e.
    Idle: otherwise the earliest unserved arrival crosses at max(a, t) on
    lane d or max(a, t + S_e) on another lane; a == t is the kernel's
    tie-only fallback.
    """
    n = len(B)
    queues = [deque() for _ in range(n)]
    for k, lane in enumerate(lanes):
        queues[lane].append(k)
    c = [math.nan] * len(a)
    fallbacks = 0
    d, t = lanes[0], -math.inf
    for _ in range(len(a)):
        cyclic = [(d + i) % n for i in range(n)]  # lane d itself first: join
        waiting = [e for e in cyclic if queues[e] and a[queues[e][0]] < t]
        if waiting:
            e = waiting[0]
            cross = t if e == d else t + S[e]
        else:
            e = lanes[min(q[0] for q in queues if q)]
            k = queues[e][0]
            cross = max(a[k], t if e == d else t + S[e])
            fallbacks += a[k] == t
        c[queues[e].popleft()] = cross
        d, t = e, cross + B[e]
    return c, fallbacks


@st.composite
def grid_streams(draw):
    """n lanes with per-lane B <= S, and sorted entry times, all multiples of 1/8 s."""
    n = draw(st.integers(min_value=1, max_value=5))
    B = [GRID * k for k in draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))]
    S = [max(B) + GRID * k for k in draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))]
    m = draw(st.integers(min_value=1, max_value=60))
    gaps = draw(st.lists(st.integers(0, 24), min_size=m, max_size=m))  # 0: exact ties
    lanes = draw(st.lists(st.integers(1, n), min_size=m, max_size=m))
    entry = np.cumsum(gaps) * GRID
    return n, B, S, [[lane, float(t)] for lane, t in zip(lanes, entry)]


@given(stream=grid_streams())
@settings(max_examples=400, deadline=None)
def test_exhaustive_is_cyclic_exhaustive_polling(stream):
    n, B, S, arrivals = stream
    # v_max 16 makes the free-flow offset 400 m / 16 m/s = 25 s, so a stays on the grid.
    params = SimParams(n=n, lam=(0.01,) * n, B=B, S=S, v_max=16.0)
    res = run(RunConfig(params=params, pfa="exhaustive", arrivals=arrivals), check=True)
    c, fallbacks = cyclic_exhaustive(res.a.tolist(), res.lane0.tolist(), B, S)
    assert np.array_equal(res.c, c)
    assert res.fallback_count == fallbacks
