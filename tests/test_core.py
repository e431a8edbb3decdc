"""Core domain types: parameters, schedule, gate book, configuration."""
import json
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonsim.core import (
    _CONFIG_KEYS,
    HEADWAY_MIN,
    ConfigError,
    InconsistentGateBook,
    NonPositiveParameter,
    RunConfig,
    SClearanceBelowB,
    SimParams,
    UnstableLoad,
    Vehicle,
    load_config,
    parse_config,
    validate_params,
)
from platoonsim.pfa import GateBook, PlatoonEntry, Schedule


# ===================== params =====================

def test_default_params_load(params):
    assert params.rho == pytest.approx(0.5)
    assert params.free_flow_offset == pytest.approx(400.0 / 15.0)


def test_per_lane_broadcast(params):
    assert params.B == (1.0, 1.0)
    assert params.S == (2.375, 2.375)
    assert params.B_of(1) == 1.0
    assert params.S_of(2) == 2.375


def test_per_lane_sequences(params_het):
    assert params_het.B == (1.0, 1.2, 0.9)
    assert params_het.B_of(2) == 1.2
    assert params_het.S_of(3) == 1.5
    assert params_het.rho == pytest.approx(0.15 * 1.0 + 0.1 * 1.2 + 0.2 * 0.9)


def test_per_lane_length_mismatch():
    with pytest.raises(ConfigError):
        SimParams(n=2, B=(1.0, 1.0, 1.0))


def test_with_rho_rescales_rates():
    p = SimParams(lam=(0.3, 0.1), B=1.0).with_rho(0.8)
    assert p.rho == pytest.approx(0.8)
    assert p.lam[0] / p.lam[1] == pytest.approx(3.0)
    assert p.B == (1.0, 1.0)


def test_vehicle_delay():
    v = Vehicle(id=3, lane=1, a=10.0, c=12.5)
    assert v.delay == pytest.approx(2.5)
    assert math.isnan(Vehicle(id=4, lane=2, a=1.0).c)


def test_validate_rejects_nonpositive():
    with pytest.raises(NonPositiveParameter):
        validate_params(SimParams(lam=(0.25, 0.0)))
    with pytest.raises(NonPositiveParameter):
        validate_params(SimParams(v_max=0.0))
    with pytest.raises(NonPositiveParameter):
        validate_params(SimParams(B=-1.0))
    # Positive rates and headways whose products underflow leave no load split.
    with pytest.raises(NonPositiveParameter, match=r"rho must be > 0, got 0\.0"):
        SimParams(lam=(1e-200, 1e-200), B=1e-200, S=1e-200)


def test_headways_and_rates_stay_within_float_resolution():
    # Headways from HEADWAY_MIN (1000 x TIE_TOL) to just below 2**23 s, and
    # rates whose mean gap 1 / lambda is finite.
    SimParams(B=HEADWAY_MIN, S=math.nextafter(2.0 ** 23, 0.0))
    with pytest.raises(ConfigError, match=r"^B\[2\] must be >= 1e-06 s, 1000 times the tie"):
        SimParams(B=(1.0, math.nextafter(HEADWAY_MIN, 0.0)))
    with pytest.raises(ConfigError, match=r"^S\[1\] = 8\.38861e\+06 s is too long: times that"):
        SimParams(S=2.0 ** 23)
    with pytest.raises(ConfigError, match=r"^lambda\[2\] = 1e-310 is too small"):
        SimParams(lam=(0.25, 1e-310))
    SimParams(lam=(0.25, 1e-300))


def test_validate_rejects_clearance_below_headway():
    with pytest.raises(SClearanceBelowB):
        validate_params(SimParams(B=1.0, S=0.5))
    with pytest.raises(SClearanceBelowB):
        validate_params(SimParams(n=2, B=(1.0, 2.0), S=(1.5, 1.5)))


def test_validate_unstable_load():
    overloaded = SimParams(lam=(0.6, 0.6), B=1.0)
    with pytest.raises(UnstableLoad):
        validate_params(overloaded)
    with pytest.warns(UserWarning):
        validate_params(overloaded, steady_state=False)


# ===================== schedule =====================

def test_schedule_insert_keeps_order():
    sched = Schedule(n=2)
    for vid, c in ((0, 5.0), (1, 2.0), (2, 8.0)):
        sched.insert(Vehicle(id=vid, lane=1, a=0.0, c=c))
    assert [v.c for v in sched.ordering] == [2.0, 5.0, 8.0]
    assert sched.last().c == 8.0
    assert len(sched) == 3


def test_schedule_t_lane():
    sched = Schedule(n=2)
    sched.insert(Vehicle(id=0, lane=1, a=0.0, c=2.0))
    sched.insert(Vehicle(id=1, lane=2, a=0.0, c=5.375))
    sched.insert(Vehicle(id=2, lane=1, a=0.0, c=9.75))
    assert sched.t_lane(1) == 9.75
    assert sched.t_lane(2) == 5.375
    sched.pop_head()
    assert sched.t_lane(1) == 9.75


def test_schedule_t_lane_empty_is_none():
    assert Schedule(n=2).t_lane(1) is None


def test_schedule_shift_after_is_strict():
    sched = Schedule(n=2)
    sched.insert(Vehicle(id=0, lane=1, a=0.0, c=2.0))
    sched.insert(Vehicle(id=1, lane=1, a=0.0, c=3.0))
    sched.insert(Vehicle(id=2, lane=1, a=0.0, c=4.0))
    sched.shift_after(3.0, 1.5)
    assert [v.c for v in sched.ordering] == [2.0, 3.0, 5.5]


def test_schedule_last_falls_back_to_departed():
    sched = Schedule(n=2)
    sched.insert(Vehicle(id=0, lane=1, a=0.0, c=2.0))
    head = sched.pop_head()
    assert len(sched) == 0
    assert sched.last() is head
    assert sched.last_departed is head


# ===================== gate book =====================

def test_gatebook_register_and_totals():
    gates = GateBook(n=2)
    gates.register(1, PlatoonEntry(5.0, 5.0, 1))
    gates.register(1, PlatoonEntry(9.0, 11.0, 3))
    gates.register(2, PlatoonEntry(7.0, 7.0, 1))
    assert sum(len(gates.entries(lane)) for lane in (1, 2)) == 3
    assert [e.f for e in gates.entries(1)] == [5.0, 9.0]
    gates.validate()


def test_gatebook_rejects_out_of_order_register():
    gates = GateBook(n=1)
    gates.register(1, PlatoonEntry(5.0, 6.0, 2))
    with pytest.raises(InconsistentGateBook):
        gates.register(1, PlatoonEntry(6.0, 7.0, 1))


def test_gatebook_shift_after_moves_whole_platoons():
    gates = GateBook(n=2)
    gates.register(1, PlatoonEntry(5.0, 6.0, 2))
    gates.register(2, PlatoonEntry(8.0, 8.0, 1))
    gates.shift_after(6.0, 2.0)
    assert (gates.entries(1)[0].f, gates.entries(1)[0].t) == (5.0, 6.0)
    assert (gates.entries(2)[0].f, gates.entries(2)[0].t) == (10.0, 10.0)


def test_gatebook_validate_catches_overlap():
    gates = GateBook(n=1)
    gates.entries(1).append(PlatoonEntry(5.0, 8.0, 2))
    gates.entries(1).append(PlatoonEntry(7.0, 9.0, 1))
    with pytest.raises(InconsistentGateBook):
        gates.validate()


def test_platoon_entry_count_positive():
    with pytest.raises(InconsistentGateBook):
        PlatoonEntry(1.0, 1.0, 0)


# ===================== configuration =====================

def test_parse_config_minimal():
    cfg = parse_config({"n": 2, "lambda": [0.2, 0.3], "pfa": "gated", "seed": 7})
    assert cfg.pfa == "gated"
    assert cfg.seed == 7
    assert cfg.params.lam == (0.2, 0.3)
    assert cfg.resolved_warmup() == cfg.horizon_vehicles // 10


def test_resolved_warmup_is_the_one_warmup_rule():
    # Set: its value; unset: none of a script, a tenth of a Poisson horizon.
    script = [(1, 0.0), (2, 1.0), (1, 2.0)]
    assert RunConfig(arrivals=script).resolved_warmup() == 0
    assert RunConfig(arrivals=script, warmup_vehicles=2).resolved_warmup() == 2
    assert RunConfig(horizon_vehicles=5000).resolved_warmup() == 500
    assert RunConfig(horizon_vehicles=5000, warmup_vehicles=0).resolved_warmup() == 0


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config({"lamda": [0.2, 0.2]})


def test_parse_config_rejects_bad_pfa():
    with pytest.raises(ConfigError, match="pfa must be one of"):
        parse_config({"pfa": "round-robin"})


def test_parse_config_rejects_bad_batch_cap():
    with pytest.raises(ConfigError):
        parse_config({"batch_cap": 0})


def test_parse_config_arrivals():
    cfg = parse_config({"arrivals": [[1, 0.0], [2, 0.5], [1, 1.5]]})
    assert cfg.arrivals == [(1, 0.0), (2, 0.5), (1, 1.5)]
    assert parse_config({"arrivals": None}).arrivals is None  # null: no script, as in RunConfig
    with pytest.raises(ConfigError, match="finite"):
        parse_config({"arrivals": [[1, 0.0], [2, float("nan")]]})
    with pytest.raises(ConfigError, match="at least one"):
        parse_config({"arrivals": []})
    with pytest.raises(ConfigError, match="sorted"):
        parse_config({"arrivals": [[1, 1.0], [2, 0.5]]})
    with pytest.raises(ConfigError, match="lane"):
        parse_config({"arrivals": [[3, 0.0]]})


@pytest.mark.parametrize(
    "data,message",
    [
        ({"n": True}, "n must be an integer"),
        ({"n": 2.7}, "n must be an integer"),
        ({"n": 0, "lambda": []}, "n must be >= 1"),
        ({"n": 3}, "lambda must have n=3 entries"),
        ({"lambda": ["x", 0.1]}, "lambda entry must be a number"),
        ({"lambda": 0.5}, "lambda must be a list"),
        ({"B": [1.0, None]}, "B entry must be a number"),
        ({"S": "wide"}, "S must be a number"),
        ({"v_max": "fast"}, "v_max must be a number"),
        ({"a_max": 10 ** 400}, "a_max is out of range"),
        ({"batch_cap": 2.5}, "batch_cap must be an integer"),
        ({"horizon_vehicles": None}, "horizon_vehicles must be an integer"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"seed": "7"}, "seed must be an integer"),
        ({"arrivals": 5}, "arrivals must be a list"),
        ({"arrivals": [[1]]}, "[lane, entry time] pair"),
        ({"arrivals": [[1, 0.0, 2]]}, "[lane, entry time] pair"),
        ({"arrivals": [["a", 1.0]]}, "arrival lane must be an integer"),
        ({"arrivals": [[1, "soon"]]}, "arrival entry time must be a number"),
        ({"B": [1.0, 2.5]}, "min(S)=2.375 < max(B)=2.5"),
        ({"horizon_vehicles": 10, "warmup_vehicles": 10},
         "warmup_vehicles=10 must be below horizon_vehicles=10"),
        ({"arrivals": [[1, 0.0]], "warmup_vehicles": 1},
         "warmup_vehicles=1 must be below the 1 scripted arrivals"),
    ],
)
def test_parse_config_rejects_malformed_values(data, message):
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert message in str(info.value)


# Each place a number goes: the object and config that put x there, the
# name a refusal gives the number, and the refusal of NaN, which is one.
_NUMBER_PLACES = {
    "geometry": (lambda x: (SimParams, {"v_max": x}, {"v_max": x}),
                 "v_max", "v_max must be > 0, got nan"),
    "lambda-entry": (lambda x: (SimParams, {"lam": (0.25, x)}, {"lambda": [0.25, x]}),
                     "lambda entry", "lambda[2] must be > 0, got nan"),
    "scalar-B": (lambda x: (SimParams, {"B": x}, {"B": x}), "B", "B[1] must be > 0, got nan"),
    "arrival-time": (lambda x: (RunConfig, {"arrivals": [(1, x)]}, {"arrivals": [[1, x]]}),
                     "arrival entry time", "arrival entry time must be finite, got nan"),
}
_NOT_NUMBERS = {
    "bool": (True, "must be a number, got True"),
    "str": ("1", "must be a number, got '1'"),
    "none": (None, "must be a number, got None"),
    "inf": (math.inf, "must be finite, got inf"),
    "huge": (10 ** 400, "is out of range: int too large to convert to float"),
    "nan": (math.nan, None),
}
_NUMBER_CASES = [
    pytest.param(*place(value), nan_message if message is None else f"{name} {message}",
                 id=f"{where}-{kind}")
    for where, (place, name, nan_message) in _NUMBER_PLACES.items()
    for kind, (value, message) in _NOT_NUMBERS.items()
] + [
    pytest.param(SimParams, {"lam": value}, {"lambda": value},
                 f"lambda must be a list of numbers, got {value!r}", id=f"scalar-lambda-{kind}")
    for kind, (value, _) in _NOT_NUMBERS.items()
]


@pytest.mark.parametrize(
    "cls, kwargs, data, message",
    _NUMBER_CASES + [
        pytest.param(SimParams, {"region_spa_m": 1e20}, {"region_spa_m": 1e20},
                     "(region_pfa_m + region_spa_m) / v_max = 6.66667e+18 s is too long",
                     id="offset"),
        pytest.param(RunConfig, {"arrivals": [(1, 1e16), (2, 1e16 + 4.0)]},
                     {"arrivals": [[1, 1e16], [2, 1e16 + 4.0]]},
                     "arrival entry time 1e+16 s is out of range", id="script-time"),
        pytest.param(RunConfig, {"batch_cap": 0}, {"batch_cap": 0},
                     "batch_cap must be >= 1, got 0", id="batch-cap"),
        pytest.param(RunConfig, {"horizon_vehicles": 0}, {"horizon_vehicles": 0},
                     "horizon_vehicles must be >= 1, got 0", id="horizon"),
        pytest.param(RunConfig, {"arrivals": [(1, 1.0), (2, 0.5)]},
                     {"arrivals": [[1, 1.0], [2, 0.5]]},
                     "scripted arrivals must be sorted by entry time", id="unsorted"),
        pytest.param(RunConfig, {"arrivals": [(3, 0.0)]}, {"arrivals": [[3, 0.0]]},
                     "arrival lane 3 outside 1..2", id="lane"),
        pytest.param(RunConfig, {"seed": -1}, {"seed": -1}, "seed must be >= 0, got -1",
                     id="seed"),
        pytest.param(SimParams, {"B": (1.0, "1")}, {"B": [1.0, "1"]},
                     "B entry must be a number, got '1'", id="B-entry"),
        pytest.param(RunConfig, {"arrivals": [[1]]}, {"arrivals": [[1]]},
                     "arrival must be a [lane, entry time] pair, got [1]", id="short-pair"),
        pytest.param(RunConfig, {"arrivals": [[1, 0.0], [2, 1.0, 3]]},
                     {"arrivals": [[1, 0.0], [2, 1.0, 3]]},
                     "arrival must be a [lane, entry time] pair, got [2, 1.0, 3]",
                     id="long-pair"),
        pytest.param(RunConfig, {"arrivals": "ab"}, {"arrivals": "ab"},
                     "arrivals must be a list of [lane, entry time] pairs, got 'ab'",
                     id="arrivals-str"),
        pytest.param(RunConfig, {"arrivals": 5}, {"arrivals": 5},
                     "arrivals must be a list of [lane, entry time] pairs, got 5",
                     id="arrivals-int"),
    ],
)
def test_library_refuses_what_the_config_refuses(cls, kwargs, data, message):
    # One rule book: building the object in Python raises what the config
    # file raises, word for word.
    with pytest.raises(ConfigError) as built:
        cls(**kwargs)
    with pytest.raises(ConfigError) as parsed:
        parse_config(data)
    assert str(built.value) == str(parsed.value)
    assert str(built.value).startswith(message)


def test_library_refuses_a_tuple_of_the_wrong_length_and_params_not_simparams():
    with pytest.raises(ConfigError, match=r"^arrival must be a \[lane, entry time\] pair, got \(1,\)$"):
        RunConfig(arrivals=[(1,)])
    for params in (None, {"n": 2}):
        with pytest.raises(ConfigError, match=r"^params must be a SimParams, got "):
            RunConfig(params=params)


def test_library_script_takes_the_rows_of_a_numpy_array():
    rows = np.array([[2, 0.0], [1, 1.5]])
    assert RunConfig(arrivals=rows).arrivals == RunConfig(arrivals=[(2, 0.0), (1, 1.5)]).arrivals
    with pytest.raises(ConfigError, match=r"^arrivals must be a list of \[lane, entry time\] pairs"):
        RunConfig(arrivals=np.array([2, 0.0]))


def test_library_counts_take_integral_floats_and_numpy_integers():
    plain = RunConfig(params=SimParams(n=2), batch_cap=5, horizon_vehicles=1000,
                      warmup_vehicles=1, seed=3, arrivals=[(2, 0.0), (1, 1.0)])
    loose = RunConfig(params=SimParams(n=2.0), batch_cap=np.int64(5), horizon_vehicles=1e3,
                      warmup_vehicles=np.uint8(1), seed=np.float64(3.0),
                      arrivals=[(np.int32(2), 0.0), (1.0, 1.0)])
    assert loose == plain
    assert all(type(v) is int for v in (loose.params.n, loose.batch_cap, loose.horizon_vehicles,
                                        loose.warmup_vehicles, loose.seed, loose.arrivals[0][0]))


def test_library_numbers_take_numpy_scalars_tuples_and_arrays():
    plain = RunConfig(params=SimParams(lam=(0.25, 0.5), B=1.0, S=(3.0, 4.0), v_max=15.0,
                                       a_max=4.0), arrivals=[(1, 0.0), (2, 2.0)])
    loose = RunConfig(params=SimParams(lam=np.array([0.25, 0.5], dtype=np.float32),
                                       B=np.array([1, 1], dtype=np.int64),
                                       S=(np.int64(3), np.float32(4.0)), v_max=np.int64(15),
                                       a_max=np.float32(4.0)),
                      arrivals=[(1, np.float32(0.0)), (2, np.int64(2))])
    assert loose == plain
    p = loose.params
    assert all(type(v) is float for v in (*p.lam, *p.B, *p.S, p.v_max, p.a_max,
                                          *(t for _, t in loose.arrivals)))


def test_params_and_config_are_frozen():
    with pytest.raises(FrozenInstanceError):
        SimParams().v_max = 30.0
    with pytest.raises(FrozenInstanceError):
        RunConfig().pfa = "gated"


def test_parse_config_accepts_integral_floats():
    cfg = parse_config({"n": 2.0, "horizon_vehicles": 1e5, "seed": 0, "arrivals": [[2.0, 1.5]]})
    assert cfg.params.n == 2 and isinstance(cfg.params.n, int)
    assert cfg.horizon_vehicles == 100_000 and isinstance(cfg.horizon_vehicles, int)
    assert cfg.seed == 0
    assert cfg.arrivals == [(2, 1.5)]


_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
_config_values = (
    _json_values
    | st.integers(min_value=-2, max_value=4)
    | st.lists(st.floats(min_value=-1.0, max_value=3.0) | st.integers(-1, 3), max_size=4)
    | st.lists(st.lists(st.integers(0, 3) | st.floats(-1.0, 50.0), min_size=1, max_size=3),
               max_size=4)
)


@given(st.dictionaries(st.sampled_from(sorted(_CONFIG_KEYS)) | st.text(max_size=3),
                       _config_values, max_size=6))
@settings(max_examples=400, deadline=None)
def test_parse_config_parses_or_raises_config_error(data):
    data = json.loads(json.dumps(data))  # exactly what a config file decodes to
    try:
        cfg = parse_config(data)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 2, "lambda": [0.1, 0.1], "pfa": "batch", "batch_cap": 5}))
    cfg = load_config(str(path))
    assert cfg.pfa == "batch"
    assert cfg.batch_cap == 5


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.json")


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


def test_load_config_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(path))
