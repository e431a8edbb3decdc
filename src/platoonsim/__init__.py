"""Platoon scheduling for a signal-free intersection.

Subpackages by role:

- core: vehicles, parameters, the crossing schedule, platoon book, config.
- pfa: the three scheduling disciplines (exhaustive, gated, batch) as
  object-level reference implementations, plus invariant checks. No
  command runs them; the tests hold the kernel to them bit for bit.
- spa: closed-form speed profiles realizing a schedule (minimum distance
  shortfall or minimum acceleration effort), feasibility and separation
  checks, CSV export.
- polling: light/heavy-traffic mean-delay limits and the interpolation
  between them, per lane and discipline.
- sim: discrete-event runs (run, on the list-based kernel that every
  command uses; run_reference, on pfa), arrival streams, batch-means
  statistics, load sweeps.
- cli: the `platoonsim` command (run / sweep / approx / traj).
"""
from .core import (
    ConfigError,
    DepartureOutOfOrder,
    GateBook,
    InconsistentGateBook,
    NonPositiveParameter,
    PlatoonEntry,
    PlatoonError,
    RunConfig,
    SClearanceBelowB,
    Schedule,
    SimParams,
    UnstableLoad,
    Vehicle,
    load_config,
    parse_config,
    validate_params,
)
from .pfa import (
    depart,
    gap_violations,
    schedule_batch,
    schedule_exhaustive,
    schedule_gated,
)
from .polling import (
    ApproxCoefficients,
    UnsupportedDiscipline,
    approx_coefficients,
    approx_mean_delay,
    ht_omega,
    light_traffic_delay,
)
from .sim import LaneStats, RunResult, make_arrivals, run, run_reference, sweep_rows
from .spa import (
    InfeasibleCrossingTime,
    NegativeDiscriminant,
    OvercrowdingViolation,
    PlannedSchedule,
    SeparationViolation,
    SingleDipViolation,
    Trajectory,
    TrajectoryError,
    accel_cost,
    area,
    evaluate,
    plan_min_accel,
    plan_min_distance,
    plan_schedule,
    verify_separation,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "ConfigError",
    "DepartureOutOfOrder",
    "GateBook",
    "InconsistentGateBook",
    "NonPositiveParameter",
    "PlatoonEntry",
    "PlatoonError",
    "RunConfig",
    "SClearanceBelowB",
    "Schedule",
    "SimParams",
    "UnstableLoad",
    "Vehicle",
    "load_config",
    "parse_config",
    "validate_params",
    # pfa
    "depart",
    "gap_violations",
    "schedule_batch",
    "schedule_exhaustive",
    "schedule_gated",
    # polling
    "ApproxCoefficients",
    "UnsupportedDiscipline",
    "approx_coefficients",
    "approx_mean_delay",
    "ht_omega",
    "light_traffic_delay",
    # sim
    "LaneStats",
    "RunResult",
    "make_arrivals",
    "run",
    "run_reference",
    "sweep_rows",
    # spa
    "InfeasibleCrossingTime",
    "NegativeDiscriminant",
    "OvercrowdingViolation",
    "PlannedSchedule",
    "SeparationViolation",
    "SingleDipViolation",
    "Trajectory",
    "TrajectoryError",
    "accel_cost",
    "area",
    "evaluate",
    "plan_min_accel",
    "plan_min_distance",
    "plan_schedule",
    "verify_separation",
]
