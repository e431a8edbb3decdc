"""Command-line front end: runs, sweeps, analysis tables, trajectories.

Four subcommands, one JSON config schema, CSV/JSONL artifacts written
atomically into an output directory. Exit codes: 0 success, 1 internal
scheduling error, 2 configuration or usage error (a request larger than
the memory available included: one line naming the command and config,
no traceback; and an --out that cannot be written: one line naming the
path), 3 unstable load without --transient. Warnings, such as a
transient run at rho >= 1, print as one "warning: ..." line on stderr.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
import warnings
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from .core import (PFA_KINDS, ConfigError, PlatoonError, RunConfig, UnstableLoad, Vehicle,
                   load_config, write_atomic, write_together)
from .polling import DISCIPLINES, approx_coefficients, approx_mean_delay, check_analytic
from . import sim
from . import spa

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3

# The most points a --rho grid may hold: the list alone takes about 32 MB.
MAX_RHO_POINTS = 1_000_000

APPROX_CSV_HEADER = ("rho", "lane", "discipline", "K1", "K2", "omega", "approx_delay")


# ===================== small helpers =====================

def _fmt(x: object) -> str:
    """One CSV cell: fixed 10-significant-digit floats, blanks for missing."""
    if x is None:
        return ""
    if isinstance(x, float):
        if x != x:  # NaN: undersampled statistic
            return ""
        return f"{x:.10g}"
    return str(x)


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    """A warning as the CLI prints it, without Python's source location."""
    return f"warning: {message}\n"


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Dict[str, object]]) -> None:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(row[k]) for k in header])
    write_atomic(path, (buf.getvalue(),))


def _parse_rho_grid(text: str, refuse: Optional[str] = None) -> List[float]:
    """The load grid A:B:STEP as a list of points, rounded to 10 decimals.

    A grid of more than MAX_RHO_POINTS points, or whose first point rounds
    to 0, is refused before any is built.
    With refuse, the first point >= 1 raises UnstableLoad with the message
    refuse.format(rho=point) before any later point is built, so refusing
    a long grid costs no more than refusing a short one.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--rho must be A:B:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--rho must be numeric A:B:STEP: {exc}") from exc
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ConfigError(f"--rho must be finite, got {text!r}")
    if step <= 0 or hi < lo or lo <= 0:
        raise ConfigError(f"--rho needs A > 0, B >= A and STEP > 0, got {text!r}")
    if round(lo, 10) <= 0:  # every point is rounded, and the first is the least
        raise ConfigError(f"--rho's first point rounds to 0 at 10 decimals, got {text!r}")
    last = (hi - lo) / step + 1e-9  # the grid's points are 0 .. int(last)
    if not last < MAX_RHO_POINTS:
        raise ConfigError(f"--rho grid has more than {MAX_RHO_POINTS} points, got {text!r}")
    rhos = []
    for i in range(int(last) + 1):
        rho = round(lo + i * step, 10)
        if refuse is not None and rho >= 1.0:
            raise UnstableLoad(refuse.format(rho=rho))
        rhos.append(rho)
    return rhos


def _parse_pfa_list(text: str, cfg: RunConfig) -> List[str]:
    """The disciplines of --pfa in order, without repeats; RunConfig refuses an unknown one."""
    out = []
    for item in text.split(","):
        name = item.strip()
        if name and name not in out:
            replace(cfg, pfa=name)
            out.append(name)
    if not out:
        raise ConfigError("--pfa selected no disciplines")
    return out


def _load(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config)
    seed = getattr(args, "seed", None)
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {seed}")
        cfg = replace(cfg, seed=seed)
    os.makedirs(args.out, exist_ok=True)
    return cfg


def _with_one_pfa(args: argparse.Namespace, cfg: RunConfig) -> RunConfig:
    """cfg with the discipline of --pfa, which run and traj read as one discipline."""
    if args.pfa is None:
        return cfg
    kinds = _parse_pfa_list(args.pfa, cfg)
    if len(kinds) != 1:
        raise ConfigError(f"{args.command} takes exactly one --pfa discipline")
    return replace(cfg, pfa=kinds[0])


# ===================== subcommands =====================

def cmd_run(args: argparse.Namespace) -> int:
    cfg = _with_one_pfa(args, _load(args))
    res = sim.run(cfg, steady_state=not args.transient)
    rho = cfg.params.rho
    rows = sim.result_rows(res, cfg.params, rho)
    with write_together():
        _write_csv(os.path.join(args.out, "results.csv"), sim.RUN_CSV_HEADER, rows)
        write_atomic(os.path.join(args.out, "vehicles.jsonl"), res.vehicles_jsonl_chunks())
    print(
        f"run: {cfg.pfa} rho={rho:.6g} mean_delay={res.mean:.6g} "
        f"fairness={res.fairness:.6g} -> {args.out}/results.csv, vehicles.jsonl"
    )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load(args)
    kinds = _parse_pfa_list(args.pfa, cfg) if args.pfa is not None else list(PFA_KINDS)
    refuse = None if args.transient else "sweep point rho={rho} >= 1 (use --transient to allow)"
    rhos = _parse_rho_grid(args.rho, refuse)
    rows = sim.sweep_rows(cfg, rhos, kinds, steady_state=not args.transient)
    path = os.path.join(args.out, "delay_sweep.csv")
    _write_csv(path, sim.RUN_CSV_HEADER, rows)
    print(f"sweep: {len(rhos)} points x {len(kinds)} disciplines -> {path}")
    return EXIT_OK


def cmd_approx(args: argparse.Namespace) -> int:
    cfg = _load(args)
    kinds = _parse_pfa_list(args.pfa, cfg) if args.pfa is not None else list(DISCIPLINES)
    for kind in kinds:
        check_analytic(kind)
    rhos = _parse_rho_grid(args.rho, "approximation undefined at rho={rho} >= 1")
    rows: List[Dict[str, object]] = []
    for rho in rhos:
        params = cfg.params.with_rho(rho)
        for kind in kinds:
            for lane in range(1, params.n + 1):
                coef = approx_coefficients(params, kind, lane)
                rows.append(
                    {
                        "rho": rho,
                        "lane": lane,
                        "discipline": kind,
                        "K1": coef.k1,
                        "K2": coef.k2,
                        "omega": coef.omega,
                        "approx_delay": approx_mean_delay(params, kind, lane),
                    }
                )
    rows.sort(key=lambda r: (r["rho"], r["discipline"], r["lane"]))
    path = os.path.join(args.out, "approx.csv")
    _write_csv(path, APPROX_CSV_HEADER, rows)
    print(f"approx: {len(rhos)} points x {len(kinds)} disciplines -> {path}")
    return EXIT_OK


def cmd_traj(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if cfg.arrivals is None:
        raise ConfigError("traj needs a config with a scripted 'arrivals' list")
    cfg = _with_one_pfa(args, cfg)
    res = sim.run(cfg, check=True, steady_state=not args.transient)
    vehicles = [
        Vehicle(id=i, lane=int(res.lane0[i]) + 1, a=float(res.a[i]), c=float(res.c[i]))
        for i in range(res.a.size)
    ]
    planned = spa.plan_schedule(vehicles, cfg.params, kind=args.spa)
    seg_path = os.path.join(args.out, "traj_segments.csv")
    sam_path = os.path.join(args.out, "traj_sampled.csv")
    with write_together():
        spa.write_segments_csv(planned.trajectories, seg_path)
        spa.write_sampled_csv(planned.trajectories, sam_path)
    # Refusals describe the files written, so a failed write prints only its error.
    for _, err in planned.failures:
        print(err, file=sys.stderr)  # planner messages name the vehicle
    print(
        f"traj: {len(planned.trajectories)} trajectories ({len(planned.failures)} failed)"
        f" -> {seg_path}, {sam_path}"
    )
    return EXIT_OK


# ===================== entry point =====================

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platoonsim",
        description="Intersection platoon scheduling: simulation, analysis, trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each flag is declared once and given only to the commands that read it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON run configuration")
    common.add_argument("--out", default=".", help="output directory (default: .)")
    common.add_argument("--pfa", default=None, help="comma-separated disciplines")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=None, help="override the config seed")
    transient = argparse.ArgumentParser(add_help=False)
    transient.add_argument(
        "--transient",
        action="store_true",
        help="allow rho >= 1 (no steady state; statistics are transient)",
    )
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument(
        "--rho", default="0.1:0.9:0.1", help="load grid A:B:STEP (default %(default)s)"
    )

    sub.add_parser(
        "run",
        parents=[common, seed, transient],
        help="one simulation: results.csv + vehicles.jsonl",
    ).set_defaults(fn=cmd_run)
    sub.add_parser(
        "sweep", parents=[common, seed, transient, grid], help="load sweep: delay_sweep.csv"
    ).set_defaults(fn=cmd_sweep)
    sub.add_parser(
        "approx", parents=[common, grid], help="analysis table: approx.csv"
    ).set_defaults(fn=cmd_approx)
    p_traj = sub.add_parser(
        "traj",
        parents=[common, transient],
        help="trajectories for a scripted scenario: traj_segments.csv + traj_sampled.csv",
    )
    planners = tuple(spa.PLANNERS)
    p_traj.add_argument(
        "--spa",
        choices=planners,
        default=planners[0],
        help="speed-profile objective (default %(default)s)",
    )
    p_traj.set_defaults(fn=cmd_traj)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Only the text is swapped: the warnings are still UserWarnings, which
    # library callers and pytest.warns see unchanged. The filter prints
    # each distinct one once, whatever the interpreter's (-W error too).
    python_format, warnings.formatwarning = warnings.formatwarning, _one_line_warning
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default", UserWarning)
            return args.fn(args)
    except UnstableLoad as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PlatoonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        detail = " ".join(str(exc).split())  # numpy names the allocation
        print(
            f"error: not enough memory for {args.command} --config {args.config}"
            + (f": {detail}" if detail else ""),
            file=sys.stderr,
        )
        return EXIT_CONFIG
    except OSError as exc:  # an --out that is a file, under a file, or not writable
        path = args.out if exc.filename is None else exc.filename
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        warnings.formatwarning = python_format


if __name__ == "__main__":
    sys.exit(main())
