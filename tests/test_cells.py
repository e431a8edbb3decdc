"""The vectorised text cells and the vehicle log built from them.

_cells._repr_cells prints every float as repr does; run's vehicles.jsonl
is written a block of records at a time from those cells. These tests pin
the cells to repr for finite doubles of every kind, show that the log of
a run leaves none of its values to Python's repr, and pin the log to the
per-record writer it replaced across chunk edges and on crafted values.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonsim import _cells
from platoonsim.core import RunConfig, SimParams
from platoonsim.sim import JSONL_CHUNK, RunResult, run

from oracle_utils import vehicles_jsonl_reference


def repr_texts(values):
    cells = _cells._repr_cells(np.array(values, dtype=np.float64))
    return [bytes(row).replace(b"\0", b"").decode() for row in cells]


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    got = repr_texts(values)
    want = [repr(v) for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, bad[:10]


def ulps_away(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def with_negatives(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


# ===================== repr cells =====================

@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_repr_cells_match_repr_on_any_double(values):
    assert_repr(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=1e-4, max_value=1e16, exclude_max=True) | st.just(0.0),
                min_size=1, max_size=40), st.booleans())
def test_repr_cells_match_repr_in_fixed_point(values, negate):
    assert_repr([-v if negate else v for v in values])


def test_repr_cells_at_powers_of_two():
    # The gap below a power of two is half the one above.
    powers = [2.0 ** e for e in range(-40, 70)]
    assert_repr(with_negatives([ulps_away(p, s) for p in powers for s in range(-2, 3)]))


def test_repr_cells_at_the_fixed_point_edges():
    # repr switches to scientific notation below 1e-4 and from 1e16 up.
    edges = [ulps_away(x, s) for x in (1e-4, 1e16, 1e-5, 1e15) for s in range(-4, 5)]
    assert_repr(with_negatives(edges + [0.0, 9_999_999_999_999_998.0, 9.999999999999999e-5]))


def test_repr_cells_on_subnormals_and_extremes():
    rng = np.random.default_rng(7)
    subnormal = rng.integers(1, 2 ** 52, 500, dtype=np.uint64).view(np.float64)
    extremes = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-300, 1e300]
    assert_repr(with_negatives(np.concatenate([subnormal, extremes, [0.0]])))


def test_repr_cells_on_integers_around_2_53():
    base = [2 ** 53, 2 ** 52, 10 ** 15, 10 ** 16]
    assert_repr(with_negatives([float(b + i) for b in base for i in range(-40, 41)]))


def test_repr_cells_on_values_of_1_to_17_significant_digits():
    rng = np.random.default_rng(11)
    values = []
    for digits in range(1, 18):
        mantissas = rng.integers(10 ** (digits - 1), 10 ** digits, 300).tolist()
        exponents = rng.integers(-6, 18, 300).tolist()
        values += [float(f"{m}e{e - digits + 1}") for m, e in zip(mantissas, exponents)]
    assert_repr(with_negatives(values))


def test_repr_cells_where_a_candidate_sits_at_the_half_gap():
    # For 40 000 seeded 17-digit decimals d, the double nearest d and the
    # neighbour on d's other side: the 200 pairs whose d lies nearest the
    # midpoint of the two (within 1% of a gap), where the nearer double's
    # half-gap just takes d in and the farther one's just leaves it out.
    # No decimal of at most 17 digits lies exactly there in fixed point
    # unless a shorter one reads back too, so this is as near as d gets.
    rng = np.random.default_rng(5)
    pairs = []
    for m, e in zip(rng.integers(10 ** 16, 10 ** 17, 40_000).tolist(),
                    rng.integers(-4, 16, 40_000).tolist()):
        d = Fraction(m) * Fraction(10) ** (e - 16)
        near = float(d)
        far = math.nextafter(near, math.inf if d > Fraction(near) else -math.inf)
        slack = abs(2 * d - Fraction(near) - Fraction(far)) / math.ulp(near)
        pairs.append((slack, near, far))
    pairs.sort()
    assert pairs[199][0] < 1e-2
    assert_repr(with_negatives([v for _, near, far in pairs[:200] for v in (near, far)]))


def test_repr_cells_leave_no_run_log_value_to_repr(monkeypatch):
    # run-jsonl's make-up (3:2:1 lanes, gated, rho 0.6) at 50 000 vehicles:
    # every entry, crossing and delay is proved on the fast path.
    calls = []

    def counted_repr(v):
        calls.append(v)
        return repr(v)

    monkeypatch.setattr(_cells, "repr", counted_repr, raising=False)
    _cells._repr_cells(np.array([1e-5, 1e16, 0.3]))
    assert calls == [1e-5, 1e16]  # the count sees every fallback
    calls.clear()
    res = run(RunConfig(params=SimParams(n=3, lam=(0.3, 0.2, 0.1)), pfa="gated",
                        horizon_vehicles=50_000, seed=3))
    for column in (res.entry, res.a, res.c, res.c - res.a):
        _cells._repr_cells(column)
    assert calls == []


# ===================== the vehicle log =====================

@pytest.mark.parametrize("count", [JSONL_CHUNK - 1, JSONL_CHUNK, JSONL_CHUNK + 1])
def test_vehicle_log_matches_the_per_record_writer(count):
    res = run(RunConfig(params=SimParams(n=3, lam=(0.3, 0.2, 0.1)), pfa="gated",
                        horizon_vehicles=count, warmup_vehicles=0, seed=8))
    assert list(res.vehicles_jsonl_chunks()) == list(vehicles_jsonl_reference(res))


def test_vehicle_log_prints_crafted_values_as_the_per_record_writer():
    # Negative, signed-zero, scientific and extreme times, wide lane
    # numbers: every cell kind, fast and fallen back, in one chunk and over
    # a chunk edge.
    rng = np.random.default_rng(9)
    n = JSONL_CHUNK + 5
    odd = np.array([-0.0, 0.0, 1e-5, -2.5e-7, 1e16, -1e22, 5e-324, 123.0, -45.5, 1e-4])
    entry = np.concatenate([odd, rng.uniform(-1e4, 1e4, n - odd.size)])
    a = entry + 26.666666666666668
    c = a + np.where(rng.random(n) < 0.3, 0.0, rng.exponential(5.0, n))
    c[:odd.size] = odd[::-1]
    lane0 = rng.integers(0, 300, n).astype(np.uint16)
    res = RunResult(discipline="gated", seed=1, warmup=0, entry=entry, a=a, lane0=lane0, c=c,
                    mean=0.0, ci95=0.0, fairness=0.0, lanes=[], max_queue=0,
                    fallback_count=0, max_platoon=0)
    assert list(res.vehicles_jsonl_chunks()) == list(vehicles_jsonl_reference(res))
