"""Simulator behaviour: arrival streams, frozen scripted traces, sweeps.

The two frozen five-vehicle traces were worked by hand: a lone first
vehicle crosses undelayed; later vehicles join platoons one occupation
time apart or wait out the cross-lane clearance. Exhaustive lets the
third vehicle slot in behind its own-lane predecessor (0.1 s delay);
gated has already closed that gate, so the same vehicle waits out the
whole cross-lane platoon (7.85 s).
"""
import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonsim import sim
from platoonsim.core import (
    PlatoonError,
    RunConfig,
    SimParams,
    UnstableLoad,
    write_atomic,
)
from platoonsim.sim import (
    JSONL_CHUNK,
    RUN_CSV_HEADER,
    RunResult,
    batch_means_ci,
    make_arrivals,
    result_rows,
    run,
    run_reference,
    sweep_rows,
)
from oracle_utils import make_arrivals_reference
from test_pfa_properties import arrival_sequences

SCRIPT = [[1, 0.0], [2, 0.3], [1, 0.9], [2, 2.0], [2, 2.5]]


# ===================== arrival stream =====================

def test_arrivals_sorted_and_complete(params):
    entry, lane0 = make_arrivals(params, 5000, seed=3)
    assert entry.shape == lane0.shape == (5000,)
    assert (np.diff(entry) >= 0.0).all()
    assert set(np.unique(lane0)) <= {0, 1}


def test_arrivals_lane_rates(params_het):
    entry, lane0 = make_arrivals(params_het, 30000, seed=4)
    lam = np.asarray(params_het.lam)
    share = np.bincount(lane0, minlength=3) / lane0.size
    assert np.allclose(share, lam / lam.sum(), atol=0.02)


def test_arrivals_deterministic(params):
    a1 = make_arrivals(params, 1000, seed=5)
    a2 = make_arrivals(params, 1000, seed=5)
    a3 = make_arrivals(params, 1000, seed=6)
    assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])
    assert not np.array_equal(a1[0], a3[0])


ARRIVAL_RATES = [
    (0.4,),
    (0.25, 0.25),
    (0.3, 0.2, 0.1),
    (0.5, 0.05, 0.02, 0.001),
    (0.1, 0.1, 0.1, 0.1, 1e-4),
]


REAL_GENERATOR = np.random.Generator


class ShortFirstDraw:
    """A Generator whose first draw returns a third of the gaps asked for.

    A lane's first stream then ends short of the horizon, so the generator
    has to extend it, often more than once.
    """

    draws = 0

    def __init__(self, bit_generator):
        self._gen = REAL_GENERATOR(bit_generator)
        self._first = True

    def exponential(self, scale, size):
        ShortFirstDraw.draws += 1
        if self._first:
            self._first, size = False, max(1, size // 3)
        return self._gen.exponential(scale, size)


@pytest.mark.parametrize("short_first_draw", [False, True], ids=["drawn", "extended"])
@pytest.mark.parametrize("lam", ARRIVAL_RATES, ids=lambda lam: f"{len(lam)}lanes")
def test_make_arrivals_matches_reference(lam, short_first_draw, monkeypatch):
    if short_first_draw:
        monkeypatch.setattr(np.random, "Generator", ShortFirstDraw)
    params = SimParams(n=len(lam), lam=lam)
    for n_total in (1, 2, 63, 64, 65, 1000, 30011):
        for seed in (0, 7):
            ShortFirstDraw.draws = 0
            want = make_arrivals_reference(params, n_total, seed)
            extensions = ShortFirstDraw.draws - len(lam)
            got = make_arrivals(params, n_total, seed)
            case = (lam, n_total, seed)
            # One byte a lane, holding exactly the int64 reference's values.
            assert got[0].dtype == np.float64 and got[1].dtype == np.uint8, case
            assert got[0].tobytes() == want[0].tobytes(), case
            assert want[1].dtype == np.int64 and np.array_equal(got[1], want[1]), case
            if short_first_draw and n_total >= 1000:
                assert extensions > 0, case  # the extension path ran


def test_make_arrivals_holds_only_what_it_returns():
    # run-jsonl's 3:2:1 lanes. Each lane draws 1.2 times its share plus
    # 64; the streams are cut at the horizon and freed before the sort, so
    # the peak is about 3.1 times entry's bytes (4.0 with int64 lanes, 7.2
    # when the merged oversampled streams were sorted whole). The bound is
    # the one that held 2.5 times the returned bytes while lanes were int64.
    params = SimParams(n=3, lam=(0.3, 0.2, 0.1))
    tracemalloc.start()
    try:
        entry, lane0 = make_arrivals(params, 100_000, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert entry.size == lane0.size == 100_000
    assert entry.base is None and lane0.base is None
    assert peak < 5.0 * entry.nbytes


# ===================== frozen scripted traces =====================

@pytest.mark.parametrize(
    "pfa,expected",
    [
        ("exhaustive", [0.0, 4.075, 0.1, 3.375, 3.875]),
        ("gated", [0.0, 3.075, 7.85, 2.375, 2.875]),
    ],
)
def test_scripted_trace_delays(params, pfa, expected):
    config = RunConfig(params=params, pfa=pfa, arrivals=SCRIPT, seed=1)
    for res in (run(config, check=True), run_reference(config, check=True)):
        assert res.warmup == 0
        assert res.delay == pytest.approx(expected, abs=1e-9)


def test_scripted_entry_offset(params):
    config = RunConfig(params=params, pfa="exhaustive", arrivals=SCRIPT, seed=1)
    res = run(config)
    assert res.entry == pytest.approx([0.0, 0.3, 0.9, 2.0, 2.5])
    assert res.a == pytest.approx(res.entry + params.free_flow_offset)


def test_vehicle_records_schema(params):
    config = RunConfig(params=params, pfa="exhaustive", arrivals=SCRIPT, seed=1)
    text = "".join(run(config).vehicles_jsonl_chunks())
    assert text.endswith("\n")
    lines = text.splitlines()
    recs = [json.loads(line) for line in lines]
    assert lines == [json.dumps(r) for r in recs]  # the bytes json.dumps writes
    assert len(recs) == 5
    assert set(recs[0]) == {"id", "lane", "entry_t", "a", "c", "delay"}
    assert [r["lane"] for r in recs] == [1, 2, 1, 2, 2]
    for r in recs:
        assert r["delay"] == pytest.approx(r["c"] - r["a"])


def test_vehicle_log_prints_lane_256():
    # 256 lanes take a two-byte lane column, so lane0 + 1 prints 256.
    params = SimParams(n=256, lam=(1e-3,) * 256)
    config = RunConfig(params=params, pfa="gated", arrivals=[[1, 0.0], [256, 0.5], [255, 1.0]],
                       seed=1)
    res = run(config, check=True)
    assert res.lane0.dtype == np.uint16
    recs = [json.loads(line) for line in "".join(res.vehicles_jsonl_chunks()).splitlines()]
    assert [r["lane"] for r in recs] == [1, 256, 255]


@pytest.mark.parametrize(
    "count", [1, JSONL_CHUNK - 1, JSONL_CHUNK, JSONL_CHUNK + 1, 2 * JSONL_CHUNK + 1]
)
def test_vehicle_log_chunk_edges(tmp_path, params, count):
    res = run(RunConfig(params=params, pfa="gated", horizon_vehicles=count,
                        warmup_vehicles=0, seed=4))
    path = tmp_path / "vehicles.jsonl"
    write_atomic(str(path), res.vehicles_jsonl_chunks())
    expected = [
        json.dumps({"id": i, "lane": int(res.lane0[i]) + 1, "entry_t": float(res.entry[i]),
                    "a": float(res.a[i]), "c": float(res.c[i]),
                    "delay": float(res.c[i] - res.a[i])})
        for i in range(count)
    ]
    # Compared by lines, so a failure names the first differing record; the
    # empty last item is the one trailing newline.
    assert path.read_text().split("\n") == expected + [""]


def test_vehicle_log_streams_in_chunks(tmp_path, params):
    # The 50 000-record log is about 6 MB of text. Built as one string
    # from whole columns it peaked near 17 MB; in chunks it stays near 3.5 MB.
    res = run(RunConfig(params=params, pfa="gated", horizon_vehicles=50_000, seed=3))
    tracemalloc.start()
    try:
        write_atomic(str(tmp_path / "vehicles.jsonl"), res.vehicles_jsonl_chunks())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "vehicles.jsonl").stat().st_size > 5 * 2 ** 20
    assert peak < 6 * 2 ** 20


# ===================== stochastic runs =====================

def test_run_memory_per_vehicle():
    # run-jsonl's 3:2:1 lanes, gated, 100 000 vehicles. run returns 25
    # bytes a vehicle (entry, a and c as float64, a one-byte lane); its
    # traced peak is about 37 bytes a vehicle (46 with an int64 lane column
    # and the per-lane delays gathered beside the whole delay array).
    config = RunConfig(params=SimParams(n=3, lam=(0.3, 0.2, 0.1)), pfa="gated",
                       horizon_vehicles=100_000, seed=3)
    run(dataclasses.replace(config, horizon_vehicles=1000))  # imports numpy.random
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 42 * 100_000


def test_run_deterministic(params):
    config = RunConfig(params=params, pfa="gated", horizon_vehicles=5000, seed=9)
    r1, r2 = run(config), run(config)
    assert np.array_equal(r1.c, r2.c)
    assert r1.mean == r2.mean and r1.fairness == r2.fairness


def test_exhaustive_never_falls_back_on_poisson_stream(params):
    config = RunConfig(params=params, pfa="exhaustive", horizon_vehicles=20000, seed=2)
    res = run(config, check=True)
    assert res.fallback_count == 0


def test_gated_uses_own_lane_continuation(params):
    config = RunConfig(params=params, pfa="gated", horizon_vehicles=20000, seed=2)
    assert run(config).fallback_count > 0


def test_single_lane_fairness_is_one():
    params = SimParams(n=1, lam=(0.3,), B=1.0, S=2.375)
    config = RunConfig(params=params, pfa="exhaustive", horizon_vehicles=5000, seed=3)
    assert run(config).fairness == 1.0


@pytest.mark.parametrize("pfa", ["exhaustive", "gated"])
@pytest.mark.parametrize("rho", [0.3, 0.9])
def test_single_lane_is_lindley_recursion(pfa, rho):
    # One lane never switches: each vehicle crosses at its earliest time or
    # one headway behind its predecessor, c_k = max(a_k, c_{k-1} + B).
    params = SimParams(n=1, lam=(rho,), B=1.0, S=2.375)
    res = run(RunConfig(params=params, pfa=pfa, horizon_vehicles=50000, seed=5))
    c, prev = [], None
    for a in res.a.tolist():
        prev = a if prev is None else max(a, prev + 1.0)
        c.append(prev)
    assert np.array_equal(res.c, c)


def test_warmup_defaults_to_tenth(params):
    config = RunConfig(params=params, pfa="exhaustive", horizon_vehicles=5000, seed=3)
    assert run(config).warmup == 500
    explicit = RunConfig(
        params=params, pfa="exhaustive", horizon_vehicles=5000, seed=3, warmup_vehicles=123
    )
    assert run(explicit).warmup == 123


def test_batch_cap_binds_under_load():
    params = SimParams().with_rho(0.9)
    gated = run(RunConfig(params=params, pfa="gated", horizon_vehicles=20000, seed=4))
    wide = run(
        RunConfig(params=params, pfa="batch", batch_cap=100, horizon_vehicles=20000, seed=4)
    )
    tight = run(
        RunConfig(params=params, pfa="batch", batch_cap=2, horizon_vehicles=20000, seed=4)
    )
    # A 100-vehicle cap never binds at this load; a 2-vehicle cap bites hard.
    assert np.array_equal(wide.c, gated.c)
    assert wide.max_platoon == gated.max_platoon <= 100
    assert not np.array_equal(tight.c, gated.c)
    assert tight.max_platoon == 2
    assert tight.mean > gated.mean


def same_value(x, y):
    """Equality that counts NaN equal to NaN."""
    if isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y):
        return True
    return x == y


def assert_same_run(x, y, skip=()):
    """Every RunResult field equal bit for bit, apart from those in skip."""
    for f in dataclasses.fields(RunResult):
        if f.name in skip:
            continue
        u, v = getattr(x, f.name), getattr(y, f.name)
        if isinstance(u, np.ndarray):
            assert u.dtype == v.dtype and np.array_equal(u, v), f.name
        elif f.name == "lanes":
            for lu, lv in zip(u, v, strict=True):
                assert all(map(same_value, dataclasses.astuple(lu), dataclasses.astuple(lv)))
        else:
            assert same_value(u, v), f.name


@given(case=arrival_sequences(), cap=st.integers(min_value=1, max_value=6))
@settings(max_examples=300, deadline=None)
def test_batch_is_gated_when_the_cap_never_binds(case, cap):
    # Batch parts from gated only when a join meets a full platoon, which
    # leaves a gated platoon above the cap.
    n, arrivals = case
    config = RunConfig(
        params=SimParams(n=n, lam=(0.2,) * n),
        pfa="gated",
        batch_cap=cap,
        arrivals=[list(x) for x in arrivals],
        seed=1,
    )
    gated = run(config)
    batch = run(dataclasses.replace(config, pfa="batch"))
    assert batch.max_platoon <= cap
    if gated.max_platoon <= cap:
        assert_same_run(gated, batch, skip=("discipline",))


def test_unstable_load_raises_steady_state():
    params = SimParams().with_rho(1.2)
    config = RunConfig(params=params, pfa="exhaustive", horizon_vehicles=1000, seed=1)
    with pytest.raises(UnstableLoad):
        run(config)


def test_unstable_load_allowed_transient():
    params = SimParams().with_rho(1.2)
    config = RunConfig(params=params, pfa="exhaustive", horizon_vehicles=2000, seed=1)
    with pytest.warns(UserWarning):
        res = run(config, steady_state=False)
    assert np.isfinite(res.mean)
    assert res.mean > 0.0


def test_crossing_times_past_the_tie_grid_warn():
    # 20 000 arrivals at 1e-3 veh/s per lane reach 9.9e6 s, past 2**23 s,
    # where neighbouring floats are further apart than TIE_TOL.
    params = SimParams(lam=(1e-3, 1e-3))
    config = RunConfig(params=params, horizon_vehicles=20_000, seed=4)
    with pytest.warns(UserWarning, match=r"crossing times reach 9\.9\d*e\+06 s") as caught:
        res = run(config)
    assert len(caught) == 1
    assert np.isfinite(res.mean)


def test_default_run_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(RunConfig(horizon_vehicles=20_000, seed=4))


# ===================== summary statistics =====================

def test_batch_means_ci_undersampled_is_nan():
    assert math.isnan(batch_means_ci(np.arange(10.0)))


def test_batch_means_ci_positive_for_noise():
    rng = np.random.default_rng(0)
    ci = batch_means_ci(rng.exponential(1.0, size=4000))
    assert 0.0 < ci < 0.2


def test_batch_means_ci_zero_for_constant():
    assert batch_means_ci(np.ones(4000)) == 0.0


# ===================== sweeps =====================

def test_sweep_rows_shape_and_order(params):
    base = RunConfig(params=params, horizon_vehicles=4000, seed=7)
    rows = sweep_rows(base, [0.2, 0.5], ["exhaustive", "gated", "batch"])
    assert len(rows) == 2 * 3 * (1 + params.n)
    assert set(rows[0]) == set(RUN_CSV_HEADER)
    assert [r["seed"] for r in rows if r["rho"] == 0.2] == [7] * 9
    assert [r["seed"] for r in rows if r["rho"] == 0.5] == [8] * 9
    key = [(r["rho"], r["discipline"], r["lane"] != "all", r["lane"] == "all" or r["lane"]) for r in rows]
    assert key == sorted(key, key=lambda k: (k[0], k[1], k[2], str(k[3])))


def test_sweep_rows_fairness_and_approx_columns(params):
    base = RunConfig(params=params, horizon_vehicles=4000, seed=7)
    rows = sweep_rows(base, [0.5], ["exhaustive", "gated", "batch"])
    for r in rows:
        if r["lane"] == "all":
            assert 0.0 <= r["fairness"] <= 1.0
        else:
            assert r["fairness"] is None
        if r["discipline"] == "batch":
            assert r["approx_delay"] is None
        else:
            assert r["approx_delay"] > 0.0


def test_sweep_rows_deterministic(params):
    args = (RunConfig(params=params, horizon_vehicles=3000, seed=11), [0.3, 0.4, 0.6], ["exhaustive"])
    assert sweep_rows(*args) == sweep_rows(*args)


def test_sweep_rows_rejects_unknown_discipline(params):
    with pytest.raises(PlatoonError):
        sweep_rows(RunConfig(params=params, horizon_vehicles=1000), [0.3], ["round-robin"])


def per_discipline_rows(base, rhos, disciplines):
    """sweep_rows written out: every discipline run on its own at every point."""
    rows = []
    for i, rho in enumerate(rhos):
        params = base.params.with_rho(rho)
        for disc in disciplines:
            config = dataclasses.replace(base, params=params, pfa=disc, seed=base.seed + i)
            rows += result_rows(run(config), params, rho)
    rows.sort(key=lambda r: (r["rho"], r["discipline"], -1 if r["lane"] == "all" else r["lane"]))
    return rows


SWEEP_RHOS = [0.2, 0.5, 0.8, 0.9]


@pytest.mark.parametrize("cap", [3, 8, 100])
@pytest.mark.parametrize(
    "disciplines", [["exhaustive", "gated", "batch"], ["batch", "exhaustive", "gated"]]
)
def test_sweep_rows_equal_per_discipline_runs(params, cap, disciplines):
    base = RunConfig(params=params, batch_cap=cap, horizon_vehicles=3000, seed=21)
    got = sweep_rows(base, SWEEP_RHOS, disciplines)
    want = per_discipline_rows(base, SWEEP_RHOS, disciplines)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        assert all(same_value(g[k], w[k]) for k in g), (g, w)


def test_sweep_runs_batch_where_gated_outgrows_the_cap(params, monkeypatch):
    calls = []

    def spy(config, **kwargs):
        res = run(config, **kwargs)
        calls.append((config.pfa, config.params.rho, res.max_platoon))
        return res

    monkeypatch.setattr(sim, "run", spy)
    cap = 8
    base = RunConfig(params=params, batch_cap=cap, horizon_vehicles=3000, seed=21)
    sweep_rows(base, SWEEP_RHOS, ["exhaustive", "gated", "batch"])
    big = [rho for pfa, rho, size in calls if pfa == "gated" and size > cap]
    batch = [rho for pfa, rho, _ in calls if pfa == "batch"]
    assert batch == big
    # Both branches are exercised: some points reuse gated, some run batch.
    assert 0 < len(batch) < len(SWEEP_RHOS)
    assert [rho for pfa, rho, _ in calls if pfa == "gated"] == pytest.approx(SWEEP_RHOS)
