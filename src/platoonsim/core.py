"""Domain types, configuration, and validation shared by the whole package.

The central objects are Vehicle (lane, earliest and scheduled crossing
time), SimParams (geometry and traffic) and RunConfig (one run). Each
rule about a valid scenario has one owner holding its check and message,
so the CLI and library callers meet the same refusal word for word:
SimParams and RunConfig are frozen and refuse invalid values when built
(the number, integer, arrival-pair and discipline rules included),
beyond_tie_tolerance words the magnitude rule of times, validate_params
checks only the load and parse_config only the JSON keys; polling owns
the analytic forms' disciplines and spa the planner names. write_atomic
writes every artifact file; inside write_together, a command's artifacts
replace the previous ones only once all of them are written.
"""
from __future__ import annotations

import contextlib
import json
import math
import numbers
import operator
import os
import sys
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

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
    "HEADWAY_MIN",
    "beyond_tie_tolerance",
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
# Shortest headway B or clearance S: far above TIE_TOL, so that a join
# moves a crossing time by far more than the tolerance.
HEADWAY_MIN = 1e3 * TIE_TOL


def beyond_tie_tolerance(t: float) -> Optional[str]:
    """The clause "<spacing> s apart, above the tie tolerance 1e-09 s" where floats
    near t lie further apart than TIE_TOL (from 2**23 s up), else None."""
    spacing = math.ulp(t)
    if spacing > TIE_TOL:
        return f"{spacing:.3g} s apart, above the tie tolerance {TIE_TOL} s"
    return None


# ===================== errors =====================

class PlatoonError(Exception):
    """Base class for all domain errors raised by this package."""


class ConfigError(PlatoonError):
    """A configuration (file or object) is missing, malformed, has unknown
    keys or breaks a rule of SimParams or RunConfig; every refusal of a
    scenario when it is built is one."""


class NonPositiveParameter(ConfigError):
    """A parameter that must be strictly positive is zero or negative."""


class SClearanceBelowB(ConfigError):
    """Cross-lane clearance S must be at least the same-lane headway B."""


class UnstableLoad(PlatoonError):
    """Total load rho >= 1; steady-state statistics are undefined."""


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


def _number(value: object, name: str) -> float:
    """value as a float: any real number (numpy's too) except a bool. Strings,
    None and infinities are refused; NaN is left to each value's range check,
    whose message names it."""
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):  # ABC last: slow
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError as exc:
        raise ConfigError(f"{name} is out of range: {exc}") from exc
    if math.isinf(x):
        raise ConfigError(f"{name} must be finite, got {x}")
    return x


def _integer(value: object, name: str) -> int:
    """value as an int. An integer (numpy's too) or an integral float (1e5)
    counts; 2.7, True and anything else are refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _is_list(value: object) -> bool:
    """A list, tuple or 1-D numpy array; never a str or a scalar."""
    return isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1


def _numbers(value: object, name: str) -> Tuple[float, ...]:
    """A list of numbers as a tuple of floats."""
    if not _is_list(value):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_number(x, f"{name} entry") for x in value)


def _per_lane(value: PerLane, n: int, name: str) -> Tuple[float, ...]:
    """Normalize a number-or-list parameter to an n-tuple of floats."""
    if not _is_list(value):
        return (_number(value, name),) * n
    vals = _numbers(value, name)
    if len(vals) != n:
        raise ConfigError(f"{name} must be a scalar or a sequence of length n={n}, got {len(vals)} values")
    return vals


@dataclass(frozen=True)
class SimParams:
    """Intersection geometry and traffic. Frozen; building it raises on the first
    broken rule, so every instance has an int n >= 1, lambda_i, B_i, S_i,
    rho > 0, B_i and S_i in [HEADWAY_MIN, 2**23) s, a finite 1 / lambda_i
    and min(S) >= max(B). Only the load rho < 1 is left to validate_params."""

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
        object.__setattr__(self, "n", _integer(self.n, "n"))
        if self.n < 1:
            raise NonPositiveParameter(f"n must be >= 1, got {self.n}")
        lam = _numbers(self.lam, "lambda")
        if len(lam) != self.n:
            raise ConfigError(f"lambda must have n={self.n} entries, got {len(lam)}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "B", _per_lane(self.B, self.n, "B"))
        object.__setattr__(self, "S", _per_lane(self.S, self.n, "S"))
        geometry = ("v_max", "a_max", "l_min", "region_pfa_m", "region_spa_m")
        for name in geometry:
            object.__setattr__(self, name, _number(getattr(self, name), name))
        values = [(name, getattr(self, name)) for name in geometry]
        for name, per_lane in (("lambda", self.lam), ("B", self.B), ("S", self.S)):
            values += [(f"{name}[{i}]", v) for i, v in enumerate(per_lane, start=1)]
        for name, val in values + [("rho", self.rho)]:  # rho: the products can underflow to 0
            if not val > 0.0:  # NaN included
                raise NonPositiveParameter(f"{name} must be > 0, got {val}")
        for name, per_lane in (("B", self.B), ("S", self.S)):
            for i, val in enumerate(per_lane, start=1):
                if val < HEADWAY_MIN:  # a join would add a headway the tie tolerance swallows
                    raise ConfigError(f"{name}[{i}] must be >= {HEADWAY_MIN:g} s, 1000 times"
                                      f" the tie tolerance {TIE_TOL} s, got {val}")
                blur = beyond_tie_tolerance(val)  # the offset's rule: from 2**23 s up
                if blur:
                    raise ConfigError(f"{name}[{i}] = {val:.6g} s is too long: times that large"
                                      f" are {blur}")
        for i, val in enumerate(self.lam, start=1):
            if math.isinf(1.0 / val):  # no gap between arrivals can be drawn
                raise ConfigError(f"lambda[{i}] = {val} is too small: 1 / lambda must be"
                                  " finite")
        if min(self.S) < max(self.B):  # the scheduling fallback needs S to cover every B
            raise SClearanceBelowB(f"min(S)={min(self.S)} < max(B)={max(self.B)}")
        offset = self.free_flow_offset
        if not math.isfinite(offset):
            raise ConfigError("(region_pfa_m + region_spa_m) / v_max must be finite, got inf")
        blur = beyond_tie_tolerance(offset)  # from 2**23 s up, ties among crossing times blur
        if blur:
            raise ConfigError(f"(region_pfa_m + region_spa_m) / v_max = {offset:.6g} s is too"
                              f" long: times that large are {blur}")

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
        scale = rho / self.rho
        return replace(self, lam=tuple(l * scale for l in self.lam))


def validate_params(params: SimParams, steady_state: bool = True) -> None:
    """Check the load of valid params; every other rule holds from construction.

    A load rho >= 1 raises UnstableLoad when steady_state is True and only
    warns otherwise (transient runs are allowed to be overloaded).
    """
    rho = params.rho
    if rho >= 1.0:
        if steady_state:
            raise UnstableLoad(f"rho={rho:.4f} >= 1")
        warnings.warn(f"rho={rho:.4f} >= 1: transient run, no steady state exists", stacklevel=2)


# ===================== run configuration =====================

PFA_KINDS = ("exhaustive", "gated", "batch")


@dataclass(frozen=True)
class RunConfig:
    """One run's parameters, discipline, counts and script; frozen, and
    refused with ConfigError when built if any value breaks a rule."""

    params: SimParams = field(default_factory=SimParams)
    pfa: str = "exhaustive"                     # exhaustive | gated | batch
    batch_cap: int = 100                        # max vehicles per platoon (batch only)
    horizon_vehicles: int = 100_000             # total arrivals to simulate
    warmup_vehicles: Optional[int] = None       # discarded arrivals; resolved_warmup's default
    seed: int = 1
    arrivals: Optional[List[Tuple[int, float]]] = None  # scripted (lane, entry time) list

    def __post_init__(self) -> None:
        if not isinstance(self.params, SimParams):
            raise ConfigError(f"params must be a SimParams, got {self.params!r}")
        for name in ("batch_cap", "horizon_vehicles", "warmup_vehicles", "seed"):
            value = getattr(self, name)
            if not (value is None and name == "warmup_vehicles"):  # None: resolved_warmup's default
                object.__setattr__(self, name, _integer(value, name))
        if self.pfa not in PFA_KINDS:
            raise ConfigError(f"pfa must be one of {PFA_KINDS}, got {self.pfa!r}")
        if self.batch_cap < 1:
            raise ConfigError(f"batch_cap must be >= 1, got {self.batch_cap}")
        if self.horizon_vehicles < 1:
            raise ConfigError(f"horizon_vehicles must be >= 1, got {self.horizon_vehicles}")
        if self.horizon_vehicles > sys.maxsize:  # no array that long can be built
            raise ConfigError(
                f"horizon_vehicles must be <= {sys.maxsize}, got {self.horizon_vehicles}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.arrivals is not None:
            object.__setattr__(self, "arrivals", _checked_script(self.arrivals, self.params))
        warmup = self.warmup_vehicles
        if warmup is None:
            return
        if warmup < 0:
            raise ConfigError(f"warmup_vehicles must be >= 0, got {warmup}")
        # sweep simulates the horizon even when run and traj follow a script.
        if warmup >= self.horizon_vehicles:
            raise ConfigError(
                f"warmup_vehicles={warmup} must be below horizon_vehicles={self.horizon_vehicles}"
            )
        if self.arrivals is not None and warmup >= len(self.arrivals):
            raise ConfigError(
                f"warmup_vehicles={warmup} must be below the {len(self.arrivals)} scripted arrivals"
            )

    def resolved_warmup(self) -> int:
        """warmup_vehicles if set, else none of a script and 10% of a Poisson horizon."""
        if self.warmup_vehicles is not None:
            return self.warmup_vehicles
        return 0 if self.arrivals is not None else self.horizon_vehicles // 10


def _checked_script(arrivals: object, params: SimParams) -> List[Tuple[int, float]]:
    """The scripted (lane, entry time) pairs as a new list, if every one is valid.
    The pairs come in a list or tuple of lists, tuples or 1-D arrays, or as the
    rows of a 2-D numpy array."""
    if not (isinstance(arrivals, (list, tuple))
            or isinstance(arrivals, np.ndarray) and arrivals.ndim == 2):
        raise ConfigError(f"arrivals must be a list of [lane, entry time] pairs, got {arrivals!r}")
    for item in arrivals:
        if not (_is_list(item) and len(item) == 2):
            raise ConfigError(f"arrival must be a [lane, entry time] pair, got {item!r}")
    offset = params.free_flow_offset
    script = [(_integer(lane, "arrival lane"), _number(entry_t, "arrival entry time"))
              for lane, entry_t in arrivals]
    for lane, entry_t in script:
        if not 1 <= lane <= params.n:
            raise ConfigError(f"arrival lane {lane} outside 1..{params.n}")
        if not math.isfinite(entry_t):
            raise ConfigError(f"arrival entry time must be finite, got {entry_t}")
        blur = beyond_tie_tolerance(entry_t + offset)  # the offset's rule, at this time
        if blur:
            raise ConfigError(f"arrival entry time {entry_t} s is out of range: crossing times"
                              f" near it are {blur}")
    if not script:
        raise ConfigError("scripted arrivals must list at least one vehicle")
    if any(later[1] < earlier[1] for earlier, later in zip(script, script[1:])):
        raise ConfigError("scripted arrivals must be sorted by entry time")
    return script


# Each config key and the SimParams or RunConfig field it sets.
_CONFIG_FIELDS = {
    "n": "n", "lambda": "lam", "B": "B", "S": "S", "v_max": "v_max", "a_max": "a_max",
    "l_min": "l_min", "region_pfa_m": "region_pfa_m", "region_spa_m": "region_spa_m",
    "pfa": "pfa", "batch_cap": "batch_cap", "horizon_vehicles": "horizon_vehicles",
    "warmup_vehicles": "warmup_vehicles", "seed": "seed", "arrivals": "arrivals",
}
_CONFIG_KEYS = frozenset(_CONFIG_FIELDS)
_PARAMS_FIELDS = frozenset(f.name for f in fields(SimParams))


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from a decoded JSON object (strict about keys).

    Here only the JSON is checked: that it is an object and its keys. Each
    value goes to its SimParams or RunConfig field as it is, and their
    checks, the rules for numbers, integers and arrival pairs included,
    raise the ConfigError the config gets.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {_CONFIG_FIELDS[key]: value for key, value in data.items()}
    params = {name: kwargs.pop(name) for name in list(kwargs) if name in _PARAMS_FIELDS}
    return RunConfig(params=SimParams(**params), **kwargs)


def load_config(path: str) -> RunConfig:
    """Load and parse a JSON run configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, a too long integer, deep nesting
        raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
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
    """Remove path + ".tmp" where it can be; it is called while an error
    propagates, and never raises over it (the ".tmp" may be a directory)."""
    with contextlib.suppress(OSError):
        os.remove(path + ".tmp")
