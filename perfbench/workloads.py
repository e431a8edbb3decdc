"""The three benchmark workloads: their inputs, command lines and sizes.

Every input is generated here from the workload seed and written as a JSON
config; the program only reads it. Each workload knows how many vehicles
one command carries, so the runner can turn a wall time into a rate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

# Shared intersection geometry (the package defaults, written out so the
# checks never have to ask the package for them).
GEOMETRY = {
    "B": 1.0,
    "S": 2.375,
    "v_max": 15.0,
    "a_max": 4.0,
    "l_min": 5.0,
    "region_pfa_m": 100.0,
    "region_spa_m": 300.0,
}

RUN_VEHICLES = 200_000          # run-jsonl: arrivals in the single run
RUN_LAMBDA = [0.3, 0.2, 0.1]    # 3:2:1 split, total load 0.6 at B = 1
SWEEP_VEHICLES = 20_000         # sweep-grid: arrivals per grid point
SWEEP_LAMBDA = [0.25, 0.25]     # the rates of configs/sym.json
SWEEP_RHO = "0.1:0.9:0.1"
SWEEP_RHOS = [round(0.1 * k, 10) for k in range(1, 10)]
SWEEP_PFAS = ["exhaustive", "gated", "batch"]
TRAJ_VEHICLES = 3_000           # traj-plan: scripted arrivals
TRAJ_LAMBDA = [0.15, 0.15]      # total load 0.3
TRAJ_HEADWAY_MARGIN = 0.01      # same-lane entry headway >= l_min / v_max + margin (s)


@dataclass
class Workload:
    name: str
    config: Dict[str, object]   # the JSON config the command reads
    argv: List[str]             # CLI arguments, without --config and --out
    vehicles: int               # vehicles carried through one command
    artifacts: List[str]        # files the command writes into --out
    env: Dict[str, str] = field(default_factory=dict)  # set for every timed command


def program_seed(seed: int) -> int:
    """The workload seed folded into the non-negative range the CLI accepts."""
    return seed % (2 ** 31)


def scripted_arrivals(seed: int, count: int, lam: List[float],
                      min_gap: float) -> List[List[float]]:
    """Per-lane Poisson entries with a minimum same-lane headway, merged.

    Each lane draws exponential gaps at its own rate and stretches any gap
    below min_gap to min_gap, so no two same-lane vehicles enter the
    planning region closer than one vehicle length apart. Times are
    rounded to the microsecond, far below the margin in min_gap.
    """
    rng = np.random.default_rng(seed)
    per_lane = int(1.3 * count / len(lam)) + 20
    lanes, times = [], []
    for lane0, rate in enumerate(lam):
        t = np.cumsum(np.maximum(rng.exponential(1.0 / rate, per_lane), min_gap))
        times.append(t)
        lanes.append(np.full(t.size, lane0 + 1))
    t_all = np.concatenate(times)
    lane_all = np.concatenate(lanes)
    order = np.lexsort((lane_all, t_all))[:count]
    return [[int(lane_all[i]), round(float(t_all[i]), 6)] for i in order]


def make(name: str, seed: int) -> Workload:
    """The workload called name, with inputs drawn from seed."""
    pseed = program_seed(seed)
    if name == "run-jsonl":
        cfg = dict(GEOMETRY, n=3, **{"lambda": RUN_LAMBDA}, pfa="gated",
                   horizon_vehicles=RUN_VEHICLES, warmup_vehicles=RUN_VEHICLES // 10,
                   seed=pseed)
        return Workload(name, cfg, ["run"], RUN_VEHICLES,
                        ["results.csv", "vehicles.jsonl"])
    if name == "sweep-grid":
        cfg = dict(GEOMETRY, n=2, **{"lambda": SWEEP_LAMBDA},
                   horizon_vehicles=SWEEP_VEHICLES, warmup_vehicles=SWEEP_VEHICLES // 10,
                   seed=pseed)
        argv = ["sweep", "--rho", SWEEP_RHO, "--pfa", ",".join(SWEEP_PFAS)]
        # Serial: without a compiled engine the GIL makes the two-thread
        # pool slower than serial and its wall time swing with the host's
        # load; the traced run times the default pool against this.
        return Workload(name, cfg, argv,
                        SWEEP_VEHICLES * len(SWEEP_RHOS) * len(SWEEP_PFAS),
                        ["delay_sweep.csv"], env={"PLATOONSIM_THREADS": "1"})
    if name == "traj-plan":
        min_gap = GEOMETRY["l_min"] / GEOMETRY["v_max"] + TRAJ_HEADWAY_MARGIN
        arrivals = scripted_arrivals(pseed, TRAJ_VEHICLES, TRAJ_LAMBDA, min_gap)
        cfg = dict(GEOMETRY, n=2, **{"lambda": TRAJ_LAMBDA}, pfa="exhaustive",
                   seed=pseed, arrivals=arrivals)
        return Workload(name, cfg, ["traj", "--spa", "min-distance"], TRAJ_VEHICLES,
                        ["traj_segments.csv", "traj_sampled.csv"])
    raise KeyError(name)


NAMES = ("run-jsonl", "sweep-grid", "traj-plan")


def write_config(workload: Workload, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workload.config, fh)


def cli_args(workload: Workload, config_path: str, out_dir: str) -> List[str]:
    return [workload.argv[0], "--config", config_path, "--out", out_dir] + workload.argv[1:]
