"""Acceptance checklist: one test per required property, stated tolerances.

Each test prints one ``[acceptance] <name>: PASS/FAIL (<detail>)`` line
directly to the terminal (bypassing capture) and then asserts, so every
verdict is visible in a single ``pytest -v`` run regardless of outcome.

Two checks fail deliberately and are left failing; the analysis lives
next to each test and in the project notes:

* ``sim-vs-interpolation-15pct``: the interpolation is anchored to the
  light-traffic slope and the heavy-traffic limit, both of which the
  simulator reproduces, but its rho^2 coefficient is forced to omega by
  those anchors while the simulated curve's is ~6.5-8 s, so mid-grid
  deviations reach ~40%.  The paper calls the interpolation approximate
  and promises no 15% band.
* ``batch-exceeds-gated-high-load``: with cap 100 the probability of a
  platoon ever reaching the cap below saturation is negligible, so the
  batch and gated schedules coincide bitwise and batch cannot exceed
  gated.  Whether the paper's batch rule differs from gated-with-a-cap
  is not settled by the project's documents.
"""
from __future__ import annotations

import json
import math
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, Tuple

import numpy as np
import pytest

from oracle_utils import (
    accel_cost,
    assert_regular,
    audit_separation,
    audit_trajectory,
    make_physical_arrivals,
    oracle_gap_rows,
)
from platoonsim.cli import main
from platoonsim.core import TIE_TOL, RunConfig, SimParams, Vehicle
from platoonsim.pfa import (
    GateBook,
    Schedule,
    depart,
    gap_violations,
    schedule_batch,
    schedule_exhaustive,
    schedule_gated,
)
from platoonsim.polling import approx_mean_delay, ht_omega, light_traffic_delay
from platoonsim.sim import RunResult, make_arrivals, run
from platoonsim.spa import plan_min_accel, plan_min_distance, plan_schedule

ROOT = Path(__file__).resolve().parents[1]
GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
POINT_VEHICLES = 1_000_000

SweepRuns = Dict[Tuple[str, float], RunResult]


def report(capsys: pytest.CaptureFixture, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def sweep_runs() -> SweepRuns:
    """Symmetric grid, one million vehicles per point, arrivals shared
    across disciplines at each load so comparisons are paired."""
    out: SweepRuns = {}
    base = SimParams()
    for i, rho in enumerate(GRID):
        params = base.with_rho(rho)
        for disc in ("exhaustive", "gated"):
            config = RunConfig(params=params, pfa=disc,
                               horizon_vehicles=POINT_VEHICLES, seed=100 + i)
            out[(disc, rho)] = run(config)
        if rho >= 0.8:
            config = RunConfig(params=params, pfa="batch", batch_cap=100,
                               horizon_vehicles=POINT_VEHICLES, seed=100 + i)
            out[("batch", rho)] = run(config)
    return out


def test_interpolation_constraints(capsys):
    """1. The interpolation matches the light-traffic line in value and
    slope near zero load and the heavy-traffic limit near full load,
    to relative 1e-6, via finite differences and near-boundary points."""
    t0 = time.perf_counter()
    h1, h2 = 1e-8, 2e-8
    rho_hi = 1.0 - 1e-9
    worst = 0.0
    for base in (SimParams(), SimParams(lam=(0.375, 0.125))):
        for disc in ("exhaustive", "gated"):
            for lane in (1, 2):
                def f(rho: float) -> float:
                    return approx_mean_delay(base.with_rho(rho), disc, lane)

                def lt(rho: float) -> float:
                    return light_traffic_delay(base.with_rho(rho), lane)

                worst = max(worst, abs(f(h1) - lt(h1)) / lt(h1))
                slope_lt = lt(0.5) / 0.5
                slope_fd = (f(h2) - f(h1)) / (h2 - h1)
                worst = max(worst, abs(slope_fd - slope_lt) / slope_lt)
                omega = ht_omega(base.with_rho(0.5), disc, lane)
                worst = max(worst, abs((1.0 - rho_hi) * f(rho_hi) - omega) / omega)
    elapsed = time.perf_counter() - t0
    report(capsys, "interpolation-constraints",
           worst <= 1e-6 and elapsed < 1.0,
           f"max relative deviation {worst:.2e} over 2 parameter sets x 2 "
           f"disciplines x 2 lanes, {elapsed:.2f}s")


def test_closed_form_vs_oracle(capsys):
    """2. On 200 random feasible instances per objective, the closed-form
    planners match the dt=0.01 brute-force oracle within 1% and are never
    worse than the best oracle candidate by more than 1e-9."""
    t0 = time.perf_counter()
    params = SimParams()
    worst_rel = 0.0
    worst_adv = -math.inf
    checked = 0
    for objective, seed in (("distance", 205), ("acceleration", 206)):
        for row in oracle_gap_rows(objective, 200, seed, params):
            worst_rel = max(worst_rel, abs(row["closed"] - row["brute"]) / row["brute"])
            worst_adv = max(worst_adv, row["closed"] - row["brute"])
            checked += 1
    elapsed = time.perf_counter() - t0
    report(capsys, "closed-form-vs-oracle",
           checked == 400 and worst_rel <= 0.01 and worst_adv <= 1e-9 and elapsed < 60,
           f"{checked} instances, worst relative gap {worst_rel:.2e}, worst "
           f"closed-minus-oracle {worst_adv:.2e}, {elapsed:.1f}s")


def test_trajectory_feasibility(capsys):
    """3. Ten thousand trajectories planned for a simulated schedule meet
    entry conditions exactly, speed/acceleration bounds within 1e-9,
    distance closure within 1e-6 m, and spacing >= l_min - 1e-6 m.

    Arrivals carry the physical same-lane minimum headway l_min/v_max;
    raw Poisson streams can place two vehicles closer than one vehicle
    length at entry, which no trajectory pair can repair.
    """
    t0 = time.perf_counter()
    params = SimParams().with_rho(0.4)
    script = make_physical_arrivals(params, 10_000, seed=77)
    res = run(RunConfig(params=params, pfa="exhaustive", arrivals=script, seed=0),
              check=True)
    vehicles = [
        Vehicle(id=i, lane=int(res.lane0[i]) + 1, a=float(res.a[i]), c=float(res.c[i]))
        for i in range(res.a.size)
    ]
    planned = plan_schedule(vehicles, params, kind="min-distance")
    traj_bad = sum(1 for traj in planned.trajectories if audit_trajectory(traj, params))
    sep_bad = audit_separation(planned, vehicles, params)
    elapsed = time.perf_counter() - t0
    ok = (len(planned.trajectories) == 10_000 and not planned.failures
          and traj_bad == 0 and not sep_bad and elapsed < 60)
    report(capsys, "trajectory-feasibility", ok,
           f"{len(planned.trajectories)} planned ({len(planned.failures)} refused), "
           f"{traj_bad} bound/closure violations, {len(sep_bad)} spacing violations, "
           f"{elapsed:.1f}s")


def test_worked_values(capsys):
    """4. The hand-worked instance (entry 100 m out, 10 s to cross)
    reproduces its dip breakpoints and costs to 1e-4."""
    params = SimParams()
    dist = plan_min_distance(-100.0, 10.0, params)
    acc = plan_min_accel(-100.0, 15.0, 10.0, params)
    got = {
        "t_tilde": dist.diagnostics["t_tilde"],
        "t_dec": dist.breakpoints["t_dec"],
        "t1": acc.diagnostics["t1"],
        "t2": acc.diagnostics["t2"],
        "cost": accel_cost(acc),
    }
    want = {"t_tilde": 3.53553, "t_dec": 2.92893, "t1": 1.46447,
            "t2": 8.53553, "cost": 11.7157}
    errs = {k: abs(got[k] - want[k]) for k in want}
    ok = all(e <= 1e-4 for e in errs.values())
    report(capsys, "worked-values", ok,
           ", ".join(f"{k}={got[k]:.5f} (want {want[k]})" for k in want))


def test_sim_vs_interpolation(sweep_runs, capsys):
    """5a. Simulated mean delay within 15% of the interpolation at every
    grid point for exhaustive and gated.

    Fails deliberately: both curves share the light- and heavy-traffic
    anchors (checks 1 and 6 confirm the simulator does too), but the
    interpolation's quadratic coefficient is forced by those anchors and
    differs from the simulated curve's, so mid-grid deviations reach ~40%.
    Expanding (K1 rho + K2 rho^2) / (1 - rho) gives a rho^2 coefficient
    K1 + K2 = omega (1.6875 s exhaustive, 4.0625 s gated at the default
    parameters); the simulated mean's excess over the light-traffic line,
    (m - K1 rho) / rho^2, measures 6.5 and 6.8 s (exhaustive), 7.3 and
    8.1 s (gated) at rho = 0.05 and 0.1 (1e6 vehicles, seed 650).  The
    gap belongs to the approximation's form, not to the simulator.
    """
    devs: Dict[Tuple[str, float], float] = {}
    for disc in ("exhaustive", "gated"):
        for rho in GRID:
            approx = approx_mean_delay(SimParams().with_rho(rho), disc, 1)
            devs[(disc, rho)] = abs(sweep_runs[(disc, rho)].mean - approx) / approx
    n_bad = sum(1 for d in devs.values() if d > 0.15)
    worst_key = max(devs, key=devs.get)
    report(capsys, "sim-vs-interpolation-15pct",
           max(devs.values()) <= 0.15,
           f"{n_bad}/18 points beyond 15%, worst {devs[worst_key]:.0%} at "
           f"{worst_key[0]} rho={worst_key[1]}; both ends anchored, the forced "
           f"quadratic coefficient differs mid-grid")


def test_exhaustive_below_gated(sweep_runs, capsys):
    """5b. Exhaustive mean delay <= gated mean delay at every grid point
    (paired arrivals)."""
    margins = [sweep_runs[("gated", rho)].mean - sweep_runs[("exhaustive", rho)].mean
               for rho in GRID]
    report(capsys, "exhaustive-leq-gated",
           all(m >= 0.0 for m in margins),
           f"gated minus exhaustive in [{min(margins):.4f}, {max(margins):.4f}] s "
           f"over {len(GRID)} points")


def test_batch_exceeds_gated_high_load(sweep_runs, capsys):
    """5c. Batch (cap 100) mean delay exceeds gated at rho >= 0.8.

    Fails deliberately: below saturation a platoon of 100 vehicles never
    forms (the chance is astronomically small at these loads), so the cap
    never binds and batch produces bitwise the gated schedule.
    """
    parts = []
    ok = True
    for rho in (0.8, 0.9):
        batch = sweep_runs[("batch", rho)]
        gated = sweep_runs[("gated", rho)]
        same = np.array_equal(batch.c, gated.c)
        parts.append(f"rho={rho}: batch {batch.mean:.4f} vs gated {gated.mean:.4f}"
                     f"{' (schedules identical)' if same else ''}")
        ok = ok and batch.mean > gated.mean
    report(capsys, "batch-exceeds-gated-high-load", ok,
           "; ".join(parts) + "; cap 100 never binds below saturation")


def test_heavy_traffic_limit(capsys):
    """6a. At rho=0.95 the scaled mean delay (1-rho)*E[D] is within 10%
    of the heavy-traffic limit for both disciplines."""
    t0 = time.perf_counter()
    params = SimParams().with_rho(0.95)
    parts = []
    ok = True
    for disc in ("exhaustive", "gated"):
        res = run(RunConfig(params=params, pfa=disc,
                            horizon_vehicles=2_000_000, seed=600))
        omega = ht_omega(params, disc, 1)
        rel = abs(0.05 * res.mean - omega) / omega
        parts.append(f"{disc} scaled {0.05 * res.mean:.4f} vs {omega} ({rel:.1%})")
        ok = ok and rel <= 0.10
    elapsed = time.perf_counter() - t0
    report(capsys, "heavy-traffic-limit", ok,
           "; ".join(parts) + f", 2e6 vehicles each, {elapsed:.1f}s")


def test_light_traffic_ci(capsys):
    """6b. The simulated zero-load slope of the mean delay contains the
    light-traffic slope K1 = light_traffic_delay(rho) / rho in its 95%
    confidence interval, for exhaustive and gated.

    The slope is the Richardson extrapolation 2 m(r)/r - m(2r)/(2r) at
    r = 0.02, which cancels the quadratic-in-load term of the mean m and
    leaves an O(r^2) bias.  Its half-width is the two runs' batch-means
    ci95 values, scaled the same way and combined in quadrature.

    The mean at one load, e.g. rho = 0.05, cannot be asked to lie within
    its run's ci95 of the light-traffic value LT: LT is a first-order
    expansion in load and the simulated excess over it is second order:
    (m - LT) / rho^2 stays at 6.5-8 s for rho = 0.01..0.1 (exhaustive)
    while (m - LT) / rho falls to zero, so at 0.05 the excess (~0.016 s)
    is nearly three times the default run's ci95 (~0.006 s).  No correct
    simulator meets that at a finite load.
    """
    r1 = 0.02
    base = SimParams()
    k1 = light_traffic_delay(base.with_rho(r1), 1) / r1
    parts = []
    ok = True
    for disc in ("exhaustive", "gated"):
        lo, hi = (run(RunConfig(params=base.with_rho(rho), pfa=disc,
                                horizon_vehicles=POINT_VEHICLES, seed=seed))
                  for rho, seed in ((r1, 650), (2 * r1, 651)))
        slope = 2.0 * lo.mean / r1 - hi.mean / (2 * r1)
        half = math.hypot(2.0 * lo.ci95 / r1, hi.ci95 / (2 * r1))
        parts.append(f"{disc} slope {slope:.3f} +- {half:.3f}")
        ok = ok and abs(slope - k1) <= half
    report(capsys, "light-traffic-ci", ok,
           "; ".join(parts) + f" vs K1 {k1:.3f}; Richardson extrapolation from "
           f"rho={r1} and {2 * r1}, 1e6 vehicles each (the mean at a finite load "
           f"carries a second-order excess over the first-order line)")


def test_single_lane_pollaczek_khinchine(capsys):
    """6c. On one lane the simulator is an M/D/1 queue: at rho 0.3, 0.5
    and 0.7 the mean delay averaged over five seeds (200 000 vehicles
    each) lies within 3 standard errors of the Pollaczek-Khinchine mean
    rho B / (2 (1 - rho)), and approx_mean_delay equals it for both
    disciplines.

    The standard error is the spread of the five run means, not a single
    run's batch-means ci95, which is itself an estimate and can miss the
    exact value without any fault.
    """
    t0 = time.perf_counter()
    b = 1.0
    seeds = (700, 701, 702, 703, 704)
    parts = []
    ok = True
    for rho in (0.3, 0.5, 0.7):
        params = SimParams(n=1, lam=(rho / b,), B=b, S=2.375)
        pk = rho * b / (2.0 * (1.0 - rho))
        means = np.array([run(RunConfig(params=params, pfa="exhaustive",
                                        horizon_vehicles=200_000, seed=seed)).mean
                          for seed in seeds])
        se = float(means.std(ddof=1)) / math.sqrt(means.size)
        approx = [approx_mean_delay(params, disc, 1) for disc in ("exhaustive", "gated")]
        ok = ok and abs(float(means.mean()) - pk) <= 3.0 * se \
            and all(abs(a - pk) <= 1e-12 * pk for a in approx)
        parts.append(f"rho {rho}: {means.mean():.5f} +- {se:.5f} (se) vs P-K {pk:.5f}")
    elapsed = time.perf_counter() - t0
    report(capsys, "single-lane-pollaczek-khinchine", ok,
           "; ".join(parts) + f"; 5 seeds x 2e5 vehicles per load, {elapsed:.1f}s")


def test_fairness(sweep_runs, capsys):
    """7. Exhaustive fairness stays at or above 0.75 on the whole grid and
    gated fairness dominates exhaustive at loads up to 0.7."""
    floor = min(sweep_runs[("exhaustive", rho)].fairness for rho in GRID)
    dominated = all(
        sweep_runs[("gated", rho)].fairness >= sweep_runs[("exhaustive", rho)].fairness
        for rho in GRID if rho <= 0.7
    )
    report(capsys, "fairness-floor-and-ordering",
           floor >= 0.75 and dominated,
           f"exhaustive floor {floor:.4f}; gated >= exhaustive at rho <= 0.7: "
           f"{dominated}")


def test_schedule_invariants(capsys):
    """8. One hundred thousand random insertions per discipline keep the
    schedule regular (no reordering of existing vehicles), gap-clean, and
    monotone (rescheduling never moves a crossing earlier)."""
    t0 = time.perf_counter()
    params = SimParams().with_rho(0.5)
    total = 0
    violations = 0
    for disc, seed in (("exhaustive", 808), ("gated", 809), ("batch", 810)):
        entry, lane0 = make_arrivals(params, 100_000, seed=seed)
        a = entry + params.free_flow_offset
        sched = Schedule(params.n)
        gates = None if disc == "exhaustive" else GateBook(params.n)
        for k in range(a.size):
            now = float(a[k])
            while sched.ordering:
                head = sched.ordering[0]
                due = head.c + params.B_of(head.lane)
                if due > now:
                    break
                depart(sched, gates, due, params)
            before = SimpleNamespace(ordering=list(sched.ordering))
            pre_c = {v.id: v.c for v in sched.ordering}
            v0 = Vehicle(id=k, lane=int(lane0[k]) + 1, a=now)
            if disc == "exhaustive":
                schedule_exhaustive(sched, v0, params)
            elif disc == "gated":
                schedule_gated(sched, gates, v0, params)
            else:
                schedule_batch(sched, gates, v0, params, 100)
            total += 1
            if not assert_regular(before, sched, v0):
                violations += 1
            if gap_violations(sched, params):
                violations += 1
            if v0.c < v0.a - TIE_TOL:
                violations += 1
            if any(w.c < pre_c[w.id] - TIE_TOL
                   for w in sched.ordering if w.id != v0.id):
                violations += 1
            if gates is not None:
                gates.validate()
    elapsed = time.perf_counter() - t0
    report(capsys, "schedule-invariants",
           total == 300_000 and violations == 0 and elapsed < 60,
           f"{total} insertions across 3 disciplines, {violations} violations, "
           f"{elapsed:.1f}s")


def test_cli_determinism(tmp_path, capsys):
    """9. Every command, invoked twice with identical flags, writes
    byte-identical artifacts."""
    t0 = time.perf_counter()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "n": 2, "lambda": [0.25, 0.25], "B": 1.0, "S": 2.375,
        "horizon_vehicles": 20_000, "seed": 9,
    }))
    invocations = [
        ("run", ["run", "--config", str(cfg), "--pfa", "exhaustive"]),
        ("sweep", ["sweep", "--config", str(cfg), "--rho", "0.2:0.4:0.1"]),
        ("approx", ["approx", "--config", str(cfg)]),
        ("traj", ["traj", "--config", str(ROOT / "configs" / "traj.json")]),
    ]
    problems = []
    for name, args in invocations:
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / name / rep
            code = main(args + ["--out", str(out)])
            if code != 0:
                problems.append(f"{name} exited {code}")
            outs.append(out)
        names_a = sorted(p.name for p in outs[0].iterdir())
        names_b = sorted(p.name for p in outs[1].iterdir())
        if names_a != names_b:
            problems.append(f"{name}: artifact sets differ")
            continue
        for fname in names_a:
            if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                problems.append(f"{name}/{fname} differs")
    elapsed = time.perf_counter() - t0
    report(capsys, "cli-determinism",
           not problems,
           ("; ".join(problems) if problems else
            "run/sweep/approx/traj artifacts byte-identical across reruns")
           + f", {elapsed:.1f}s")
