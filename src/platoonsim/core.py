"""Domain types, configuration, and validation shared by the whole package.

The central objects are Vehicle (lane, earliest crossing time, scheduled
crossing time) and SimParams (intersection geometry and traffic
parameters); RunConfig and parse_config read a run's JSON configuration.
The reference scheduler's object model (Schedule, GateBook) lives in pfa
with the reference itself. write_atomic writes every artifact file;
inside write_together, a command's artifacts replace the previous ones
only once all of them are written.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "PlatoonError",
    "NonPositiveParameter",
    "SClearanceBelowB",
    "UnstableLoad",
    "ConfigError",
    "InconsistentGateBook",
    "Vehicle",
    "SimParams",
    "RunConfig",
    "PFA_KINDS",
    "TIE_TOL",
    "validate_params",
    "load_config",
    "parse_config",
    "write_atomic",
    "write_together",
]


# Tolerance for exact-coincidence checks (platoon-start landing, scan safety,
# gate pruning). Real gaps are either ~B/~S or zero up to ulp-scale shift
# drift, so anything well below B works; 1e-9 s is the package-wide choice.
TIE_TOL = 1e-9


# ===================== errors =====================

class PlatoonError(Exception):
    """Base class for all domain errors raised by this package."""


class NonPositiveParameter(PlatoonError):
    """A parameter that must be strictly positive is zero or negative."""


class SClearanceBelowB(PlatoonError):
    """Cross-lane clearance S must be at least the same-lane headway B."""


class UnstableLoad(PlatoonError):
    """Total load rho >= 1; steady-state statistics are undefined."""


class ConfigError(PlatoonError):
    """Configuration file is missing, malformed, or has unknown keys."""


class InconsistentGateBook(PlatoonError):
    """Internal platoon bookkeeping violated an invariant (implementation bug)."""


# ===================== vehicles and parameters =====================

@dataclass
class Vehicle:
    id: int                 # unique integer, assigned in arrival order
    lane: int               # lane index, 1..n
    a: float                # earliest feasible crossing time (s)
    c: float = math.nan     # scheduled crossing time (s); NaN until scheduled

    @property
    def delay(self) -> float:
        """Scheduled minus earliest crossing time (s)."""
        return self.c - self.a


PerLane = Union[float, Sequence[float]]


def _per_lane(value: PerLane, n: int, name: str) -> Tuple[float, ...]:
    """Normalize a scalar-or-sequence parameter to an n-tuple of floats."""
    if isinstance(value, (int, float)):
        return (float(value),) * n
    vals = tuple(float(v) for v in value)
    if len(vals) != n:
        raise ConfigError(f"{name} must be a scalar or a sequence of length n={n}, got {len(vals)} values")
    return vals


@dataclass
class SimParams:
    n: int = 2                                  # number of lanes
    lam: Tuple[float, ...] = (0.25, 0.25)       # Poisson arrival rate per lane (veh/s)
    B: PerLane = 1.0                            # same-lane crossing headway (s)
    S: PerLane = 2.375                          # clearance before a crossing from a different lane (s)
    v_max: float = 15.0                         # full speed (m/s)
    a_max: float = 4.0                          # maximum acceleration magnitude (m/s^2)
    l_min: float = 5.0                          # minimum front-to-front spacing (m)
    region_pfa_m: float = 100.0                 # length of the scheduling sub-region (m)
    region_spa_m: float = 300.0                 # length of the speed-profiling sub-region (m)

    def __post_init__(self) -> None:
        self.lam = tuple(float(x) for x in self.lam)
        self.B = _per_lane(self.B, self.n, "B")
        self.S = _per_lane(self.S, self.n, "S")

    # Per-lane accessors take 1-based lane indices, like Vehicle.lane.
    def B_of(self, lane: int) -> float:
        return self.B[lane - 1]

    def S_of(self, lane: int) -> float:
        return self.S[lane - 1]

    @property
    def rho(self) -> float:
        """Total load: sum of lambda_i * B_i (volume-to-capacity ratio)."""
        return sum(l * b for l, b in zip(self.lam, self.B))

    @property
    def free_flow_offset(self) -> float:
        """Control-region traversal time at full speed (s)."""
        return (self.region_pfa_m + self.region_spa_m) / self.v_max

    def with_rho(self, rho: float) -> "SimParams":
        """Copy with all arrival rates scaled so the total load equals rho."""
        cur = self.rho
        if cur <= 0.0:
            raise NonPositiveParameter("cannot rescale arrival rates from zero load")
        scale = rho / cur
        return replace(self, lam=tuple(l * scale for l in self.lam))


def _non_positive(params: SimParams) -> Optional[str]:
    """Message for the first parameter that must be > 0 and is not (NaN included)."""
    values = [
        ("v_max", params.v_max),
        ("a_max", params.a_max),
        ("l_min", params.l_min),
        ("region_pfa_m", params.region_pfa_m),
        ("region_spa_m", params.region_spa_m),
    ]
    for name, per_lane in (("lambda", params.lam), ("B", params.B), ("S", params.S)):
        values += [(f"{name}[{i}]", v) for i, v in enumerate(per_lane, start=1)]
    for name, val in values:
        if not val > 0.0:
            return f"{name} must be > 0, got {val}"
    return None


def _clearance_below_headway(params: SimParams) -> Optional[str]:
    """Message if some clearance S is below some headway B, else None.

    The scheduling fallback needs every clearance to cover every headway.
    """
    if min(params.S) < max(params.B):
        return f"min(S)={min(params.S)} < max(B)={max(params.B)}"
    return None


def validate_params(params: SimParams, steady_state: bool = True) -> SimParams:
    """Check SimParams invariants; return the params unchanged if they hold.

    Raises NonPositiveParameter or SClearanceBelowB on hard violations.
    A load rho >= 1 raises UnstableLoad when steady_state is True and only
    warns otherwise (transient runs are allowed to be overloaded).
    """
    if params.n < 1:
        raise NonPositiveParameter(f"n must be >= 1, got {params.n}")
    if len(params.lam) != params.n:
        raise ConfigError(f"lambda must have n={params.n} entries, got {len(params.lam)}")
    problem = _non_positive(params)
    if problem is not None:
        raise NonPositiveParameter(problem)
    problem = _clearance_below_headway(params)
    if problem is not None:
        raise SClearanceBelowB(problem)
    rho = params.rho
    if rho >= 1.0:
        if steady_state:
            raise UnstableLoad(f"rho={rho:.4f} >= 1")
        warnings.warn(f"rho={rho:.4f} >= 1: transient run, no steady state exists", stacklevel=2)
    return params


# ===================== run configuration =====================

@dataclass
class RunConfig:
    params: SimParams = field(default_factory=SimParams)
    pfa: str = "exhaustive"                     # exhaustive | gated | batch
    batch_cap: int = 100                        # max vehicles per platoon (batch only)
    horizon_vehicles: int = 100_000             # total arrivals to simulate
    warmup_vehicles: Optional[int] = None       # discarded arrivals; default 10% of horizon
    seed: int = 1
    arrivals: Optional[List[Tuple[int, float]]] = None  # scripted (lane, entry time) list

    def resolved_warmup(self) -> int:
        if self.warmup_vehicles is not None:
            return self.warmup_vehicles
        return self.horizon_vehicles // 10


PFA_KINDS = ("exhaustive", "gated", "batch")

_CONFIG_KEYS = {
    "n", "lambda", "B", "S", "v_max", "a_max", "l_min",
    "region_pfa_m", "region_spa_m", "pfa", "batch_cap",
    "horizon_vehicles", "warmup_vehicles", "seed", "arrivals",
}


def _number(value: object, name: str) -> float:
    """A JSON number as a float; bools, strings, nulls and json's Infinity are
    refused. NaN is left to each value's range check, whose message names it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError as exc:
        raise ConfigError(f"{name} is out of range: {exc}") from exc
    if math.isinf(x):
        raise ConfigError(f"{name} must be finite, got {x}")
    return x


def _integer(value: object, name: str) -> int:
    """A JSON integer; an integral float (1e5) counts, 2.7 and true do not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _numbers(value: object, name: str) -> Tuple[float, ...]:
    """A JSON list of numbers as a tuple of floats."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_number(x, f"{name} entry") for x in value)


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from a decoded JSON object (strict about keys and types).

    Every malformed value raises ConfigError.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    params_kwargs: dict = {}
    n = _integer(data["n"], "n") if "n" in data else SimParams.n
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    params_kwargs["n"] = n
    if "lambda" in data:
        params_kwargs["lam"] = _numbers(data["lambda"], "lambda")
    lam = params_kwargs.get("lam", SimParams.lam)
    if len(lam) != n:
        raise ConfigError(f"lambda must have n={n} entries, got {len(lam)}")
    for key in ("B", "S"):
        if key in data:
            value = data[key]
            params_kwargs[key] = (
                _numbers(value, key) if isinstance(value, (list, tuple)) else _number(value, key)
            )
    for key in ("v_max", "a_max", "l_min", "region_pfa_m", "region_spa_m"):
        if key in data:
            params_kwargs[key] = _number(data[key], key)
    params = SimParams(**params_kwargs)
    problem = _non_positive(params) or _clearance_below_headway(params)
    if problem is not None:
        raise ConfigError(problem)
    offset = params.free_flow_offset
    if not math.isfinite(offset):
        raise ConfigError("(region_pfa_m + region_spa_m) / v_max must be finite, got inf")
    if math.ulp(offset) > TIE_TOL:  # from 2**23 s up, ties among crossing times blur
        raise ConfigError(
            f"(region_pfa_m + region_spa_m) / v_max = {offset:.6g} s is too long: times that"
            f" large are {math.ulp(offset):.3g} s apart, above the tie tolerance {TIE_TOL} s"
        )

    cfg = RunConfig(params=params)
    if "pfa" in data:
        if data["pfa"] not in PFA_KINDS:
            raise ConfigError(f"pfa must be one of {PFA_KINDS}, got {data['pfa']!r}")
        cfg.pfa = data["pfa"]
    if "batch_cap" in data:
        cap = _integer(data["batch_cap"], "batch_cap")
        if cap < 1:
            raise ConfigError(f"batch_cap must be >= 1, got {cap}")
        cfg.batch_cap = cap
    if "horizon_vehicles" in data:
        horizon = _integer(data["horizon_vehicles"], "horizon_vehicles")
        if horizon < 1:
            raise ConfigError(f"horizon_vehicles must be >= 1, got {horizon}")
        cfg.horizon_vehicles = horizon
    if "warmup_vehicles" in data:
        warmup = _integer(data["warmup_vehicles"], "warmup_vehicles")
        if warmup < 0:
            raise ConfigError(f"warmup_vehicles must be >= 0, got {warmup}")
        cfg.warmup_vehicles = warmup
    if "seed" in data:
        seed = _integer(data["seed"], "seed")
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        cfg.seed = seed
    if "arrivals" in data:
        items = data["arrivals"]
        if not isinstance(items, (list, tuple)):
            raise ConfigError(f"arrivals must be a list of [lane, entry time] pairs, got {items!r}")
        arr = []
        for item in items:
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                raise ConfigError(f"arrival must be a [lane, entry time] pair, got {item!r}")
            lane = _integer(item[0], "arrival lane")
            entry_t = _number(item[1], "arrival entry time")
            if not 1 <= lane <= params.n:
                raise ConfigError(f"arrival lane {lane} outside 1..{params.n}")
            if not math.isfinite(entry_t):
                raise ConfigError(f"arrival entry time must be finite, got {entry_t}")
            if math.ulp(entry_t + offset) > TIE_TOL:  # the offset's rule, at this time
                raise ConfigError(
                    f"arrival entry time {entry_t} s is out of range: crossing times near it"
                    f" are {math.ulp(entry_t + offset):.3g} s apart, above the tie tolerance"
                    f" {TIE_TOL} s"
                )
            arr.append((lane, entry_t))
        if not arr:
            raise ConfigError("scripted arrivals must list at least one vehicle")
        if arr != sorted(arr, key=lambda x: x[1]):
            raise ConfigError("scripted arrivals must be sorted by entry time")
        cfg.arrivals = arr
    warmup = cfg.warmup_vehicles
    if warmup is not None:
        # sweep simulates the horizon even when run and traj follow a script.
        if warmup >= cfg.horizon_vehicles:
            raise ConfigError(
                f"warmup_vehicles={warmup} must be below horizon_vehicles={cfg.horizon_vehicles}"
            )
        if cfg.arrivals is not None and warmup >= len(cfg.arrivals):
            raise ConfigError(
                f"warmup_vehicles={warmup} must be below the {len(cfg.arrivals)} scripted arrivals"
            )
    return cfg


def load_config(path: str) -> RunConfig:
    """Load and parse a JSON run configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return parse_config(data)


# ===================== artifact files =====================

# Inside write_together: the paths whose ".tmp" file awaits its rename.
_staged: Optional[List[str]] = None


def write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the concatenated chunks to path as UTF-8, all or nothing.

    The text goes to path + ".tmp", which replaces path only once every
    chunk is written (inside write_together: once every file of the block
    is written); on any exception the temp file is removed and the
    previous file at path is left as it was. Chunks are written as they
    come, so a generator never holds the whole text.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(chunks)
        if _staged is None:
            os.replace(tmp, path)
        else:
            _staged.append(path)
    except BaseException:
        _remove_tmp(path)
        raise


@contextlib.contextmanager
def write_together() -> Iterator[None]:
    """Make the write_atomic calls of the block one all-or-nothing set.

    Each file stays at path + ".tmp" until the block ends without an
    exception; then every file is renamed over its path. On any exception
    every ".tmp" of the block is removed and all previous files are left
    as they were, so a failed command never leaves a new artifact beside
    an old one.
    """
    global _staged
    if _staged is not None:
        raise RuntimeError("write_together blocks do not nest")
    _staged = staged = []
    try:
        yield
        for path in staged:
            os.replace(path + ".tmp", path)
    except BaseException:
        for path in staged:
            _remove_tmp(path)
        raise
    finally:
        _staged = None


def _remove_tmp(path: str) -> None:
    try:
        os.remove(path + ".tmp")
    except FileNotFoundError:
        pass
