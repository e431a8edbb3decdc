"""Command-line interface: artifacts, exit codes, reproducibility.

Uses cli.main(argv) in-process so exit codes and files can be asserted
without spawning interpreters. The shipped configs under configs/ are
the same ones the README documents.
"""
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonsim import _kernels, _trajcsv, cli, polling, sim, spa
from platoonsim.core import ConfigError, RunConfig, SimParams, load_config

from oracle_utils import make_physical_arrivals

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SYM = os.path.join(ROOT, "configs", "sym.json")
ASYM = os.path.join(ROOT, "configs", "asym.json")
TRAJ = os.path.join(ROOT, "configs", "traj.json")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def fail_on_second_call(fn):
    calls = []

    def wrapper(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("formatter failed")
        return fn(*args)
    return wrapper


def seed_previous_artifacts(out, *names):
    for name in names:
        (out / name).write_bytes(b"previous artifact\n")


def assert_previous_artifacts_kept(out, *names):
    for name in names:
        assert (out / name).read_bytes() == b"previous artifact\n"
    assert list(out.glob("*.tmp")) == []


# ===================== run =====================

def test_run_writes_results_and_log(tmp_path, capsys):
    out = str(tmp_path)
    assert cli.main(["run", "--config", SYM, "--out", out]) == 0
    rows = read_csv(os.path.join(out, "results.csv"))
    assert [r["lane"] for r in rows] == ["all", "1", "2"]
    all_row = rows[0]
    assert all_row["discipline"] == "exhaustive"
    assert float(all_row["rho"]) == 0.5
    # Symmetric lanes share the interpolated value, so the weighted
    # aggregate equals the per-lane figure.
    for r in rows:
        assert float(r["approx_delay"]) == 2.392578125
    assert all_row["fairness"] != ""
    assert rows[1]["fairness"] == "" and rows[2]["fairness"] == ""

    with open(os.path.join(out, "vehicles.jsonl")) as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 100000
    rec = json.loads(lines[0])
    assert set(rec) == {"id", "lane", "entry_t", "a", "c", "delay"}
    assert capsys.readouterr().out.startswith("run: exhaustive")


def test_run_failure_keeps_previous_log(tmp_path, monkeypatch):
    # A formatter that fails after its first chunk of records.
    chunks = sim.RunResult.vehicles_jsonl_chunks

    def failing_chunks(res):
        yield next(chunks(res))
        raise RuntimeError("formatter failed")

    monkeypatch.setattr(sim.RunResult, "vehicles_jsonl_chunks", failing_chunks)
    config = tmp_path / "long.json"
    config.write_text(json.dumps({"n": 2, "lambda": [0.25, 0.25],
                                  "horizon_vehicles": 3 * sim.JSONL_CHUNK}))
    out = tmp_path / "out"
    out.mkdir()
    # results.csv is written before the log fails: neither may be replaced.
    seed_previous_artifacts(out, "results.csv", "vehicles.jsonl")
    with pytest.raises(RuntimeError, match="formatter failed"):
        cli.main(["run", "--config", str(config), "--out", str(out)])
    assert_previous_artifacts_kept(out, "results.csv", "vehicles.jsonl")


def test_run_out_of_memory_is_one_line(tmp_path, monkeypatch, capsys):
    # Nothing is allocated for real: make_arrivals raises as numpy does
    # when asked for 10**13 arrivals.
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 86.3 TiB for an array with shape "
                          "(12000000000064,) and data type float64")

    monkeypatch.setattr(sim, "make_arrivals", out_of_memory)
    config = tmp_path / "huge.json"
    config.write_text(json.dumps({"n": 2, "lambda": [0.25, 0.25],
                                  "horizon_vehicles": 10 ** 13}))
    out = tmp_path / "out"
    out.mkdir()
    seed_previous_artifacts(out, "results.csv", "vehicles.jsonl")
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: not enough memory for run --config {config}: Unable")
    assert_previous_artifacts_kept(out, "results.csv", "vehicles.jsonl")


def test_unscheduled_vehicle_is_an_internal_error(tmp_path, capsys):
    # A kernel that leaves one crossing time unwritten (NaN, as both
    # schedulers start them) makes run exit 1 with one line and no artifact.
    simulate = _kernels.simulate_arrivals

    def drops_one(*args):
        final_c, fallback_count, max_platoon = simulate(*args)
        final_c[len(final_c) // 2] = np.nan
        return final_c, fallback_count, max_platoon

    config = tmp_path / "small.json"
    config.write_text(json.dumps({"n": 2, "lambda": [0.25, 0.25], "horizon_vehicles": 2000}))
    out = tmp_path / "out"
    out.mkdir()
    seed_previous_artifacts(out, "results.csv", "vehicles.jsonl")
    with mock.patch.object(_kernels, "simulate_arrivals", drops_one):
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: internal error: some vehicles were never scheduled\n"
    assert captured.out == ""
    assert sorted(p.name for p in out.iterdir()) == ["results.csv", "vehicles.jsonl"]
    assert_previous_artifacts_kept(out, "results.csv", "vehicles.jsonl")


@pytest.mark.parametrize(
    "command, base, changes, message",
    [
        ("run", SYM, {"S": float("inf")}, "error: S must be finite, got inf"),
        ("traj", TRAJ, {"v_max": float("inf")}, "error: v_max must be finite, got inf"),
        # Finite values, infinite free-flow offset.
        ("run", SYM, {"region_pfa_m": 1e308, "v_max": 0.5},
         "error: (region_pfa_m + region_spa_m) / v_max must be finite, got inf"),
        # Finite offsets whose crossing times are further apart than TIE_TOL.
        ("traj", TRAJ, {"region_spa_m": 1e308},
         "error: (region_pfa_m + region_spa_m) / v_max = 6.66667e+306 s is too long"),
        ("run", SYM, {"region_spa_m": 1e20},
         "error: (region_pfa_m + region_spa_m) / v_max = 6.66667e+18 s is too long"),
    ],
)
def test_non_finite_config_is_one_line(tmp_path, capsys, command, base, changes, message):
    with open(base) as fh:
        cfg = json.load(fh)
    cfg.update(changes)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))  # writes inf as Infinity, which json reads back
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(message)
    assert not out.exists() or os.listdir(out) == []


# Headways and rates whose float arithmetic the schedulers cannot honour,
# on configs/sym.json with 2 000 vehicles. Each is refused on one line
# before any vehicle is drawn; unrefused, "B": 1e-320 ran to a
# steady-state row with rho 5e-321 (and a sweep exited 3), "S": 1e308 and
# rates of 1e-320 overflowed the crossing or entry times (exit 1), and
# "S": 2**63 scheduled on a 4 096 s grid.
@pytest.mark.parametrize(
    "command, changes, message",
    [
        ("run", {"B": 1e-320},
         "B[1] must be >= 1e-06 s, 1000 times the tie tolerance 1e-09 s, got 1e-320"),
        ("sweep", {"B": 1e-320},
         "B[1] must be >= 1e-06 s, 1000 times the tie tolerance 1e-09 s, got 1e-320"),
        ("run", {"S": 1e308},
         "S[1] = 1e+308 s is too long: times that large are 2e+292 s apart, above the"
         " tie tolerance 1e-09 s"),
        ("sweep", {"S": 1e308},
         "S[1] = 1e+308 s is too long: times that large are 2e+292 s apart, above the"
         " tie tolerance 1e-09 s"),
        ("run", {"lambda": [1e-320, 1e-320]},
         "lambda[1] = 1e-320 is too small: 1 / lambda must be finite"),
        ("run", {"S": 2 ** 63},
         "S[1] = 9.22337e+18 s is too long: times that large are 2.05e+03 s apart, above the"
         " tie tolerance 1e-09 s"),
    ],
)
def test_magnitudes_past_float_resolution_are_refused(tmp_path, capsys, command, changes,
                                                      message):
    with open(SYM) as fh:
        cfg = json.load(fh)
    cfg.update(changes, horizon_vehicles=2000)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_long_finite_region_still_runs(tmp_path):
    # An offset of 6.67e6 s, below 2**23 s: crossing times keep a spacing
    # finer than TIE_TOL, so the delays are the default region's to rounding.
    means = []
    for region in (300.0, 1e8):
        with open(SYM) as fh:
            cfg = json.load(fh)
        cfg.update(region_spa_m=region, horizon_vehicles=4000)
        path = tmp_path / f"region_{region:g}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"out_{region:g}"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        means.append(float(read_csv(out / "results.csv")[0]["sim_delay_mean"]))
    assert means[0] > 1.0
    assert means[1] == pytest.approx(means[0], rel=1e-6)


def test_scripted_entry_times_stay_on_the_tie_grid(tmp_path, capsys):
    # The offset's rule at each scripted time: from 2**23 s up, crossing
    # times are further apart than TIE_TOL (2 s at 1e16 s), so such a script
    # is refused; 8 388 000 s plus the 26.7 s offset stays below and runs
    # with the delays of the same script at 0 s.
    means = []
    for start in (0.0, 8_388_000.0, 1e16):
        with open(SYM) as fh:
            cfg = json.load(fh)
        cfg["arrivals"] = [[1 + i % 2, start + 2.0 * i] for i in range(4)]
        path = tmp_path / f"script_{start:g}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"out_{start:g}"
        code = cli.main(["run", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        if start < 1e16:
            assert code == 0, err
            means.append(float(read_csv(out / "results.csv")[0]["sim_delay_mean"]))
    assert code == 2
    assert err == (
        "error: arrival entry time 1e+16 s is out of range: crossing times near it are 2 s"
        " apart, above the tie tolerance 1e-09 s\n"
    )
    assert means[0] > 1.0
    assert means[1] == pytest.approx(means[0], abs=1e-6)


def run_python(*args, **extra_env):
    """A fresh interpreter on this package, with Python's default warning
    filters unless extra_env sets PYTHONWARNINGS."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env.update(extra_env)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


UNNEEDED_MODULES = (
    "sorted(m for m in sys.modules if 'pfa' in m or m.split('.')[:2] == ['numpy', 'random'])"
)


def test_cli_import_leaves_the_reference_unloaded():
    # pfa is the tests' reference; no command runs it, so none loads it.
    # numpy.random (5.4 MB of RSS) is loaded only by the commands that draw
    # Poisson arrivals, run and sweep.
    done = run_python("-c", f"import sys, platoonsim.cli; print({UNNEEDED_MODULES})")
    assert done.stdout.strip() == "[]", done.stderr


def test_cli_import_leaves_the_writers_unloaded():
    # The cell printers and the trajectory tables are compiled by the
    # commands that write with them, never by the import every command pays.
    done = run_python(
        "-c", "import sys, platoonsim.cli\n"
        "print(sorted(m for m in sys.modules if m in ('platoonsim._cells', 'platoonsim._trajcsv')))")
    assert done.stdout.strip() == "[]", done.stderr


def test_traj_leaves_numpy_random_unloaded(tmp_path):
    # Scripted arrivals are read, never drawn.
    done = run_python(
        "-c",
        "import sys, platoonsim.cli as cli\n"
        f"rc = cli.main(['traj', '--config', {TRAJ!r}, '--out', {str(tmp_path)!r}])\n"
        f"print(rc, {UNNEEDED_MODULES})",
    )
    assert done.stdout.splitlines()[-1] == "0 []", done.stderr


def test_run_seed_override_is_reproducible(tmp_path):
    out_a, out_b, out_c = (str(tmp_path / d) for d in "abc")
    for out in (out_a, out_b):
        assert cli.main(["run", "--config", SYM, "--out", out, "--seed", "9"]) == 0
    assert cli.main(["run", "--config", SYM, "--out", out_c]) == 0
    bytes_a = open(os.path.join(out_a, "results.csv"), "rb").read()
    bytes_b = open(os.path.join(out_b, "results.csv"), "rb").read()
    bytes_c = open(os.path.join(out_c, "results.csv"), "rb").read()
    assert bytes_a == bytes_b
    assert bytes_a != bytes_c


def test_run_rejects_multiple_disciplines(tmp_path):
    code = cli.main(
        ["run", "--config", SYM, "--out", str(tmp_path), "--pfa", "gated,exhaustive"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "command, pfa",
    [(command, pfa) for command in ("run", "sweep", "approx", "traj")
     for pfa in ("round-robin", ",")] + [("run", "gated,exhaustive"), ("traj", "gated,exhaustive")],
)
def test_bad_pfa_is_one_line_before_the_grid(tmp_path, capsys, command, pfa):
    # RunConfig's refusal of an unknown discipline, or the CLI's of the
    # list; before the --rho grid is read, whose 1.1:1.2:0.1 alone exits 3.
    message = {
        "round-robin": "pfa must be one of ('exhaustive', 'gated', 'batch'), got 'round-robin'",
        ",": "--pfa selected no disciplines",
    }.get(pfa, f"{command} takes exactly one --pfa discipline")
    out = tmp_path / "out"
    argv = [command, "--config", TRAJ if command == "traj" else SYM, "--out", str(out),
            "--pfa", pfa]
    if command in ("sweep", "approx"):
        argv += ["--rho", "1.1:1.2:0.1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists() or os.listdir(out) == []


# Each rule's owner refuses a library call with the line the command prints:
# RunConfig an unknown discipline, also in sim.sweep_rows before any kernel
# call, and polling.check_analytic a discipline without an analytic form in
# every form that polling computes.
ONE_TEXT = {
    "discipline": (["sweep", "--pfa", "round-robin"], ConfigError, [
        lambda cfg: RunConfig(pfa="round-robin"),
        lambda cfg: sim.sweep_rows(cfg, [0.5], ["exhaustive", "round-robin"]),
    ]),
    "analytic-form": (["approx", "--pfa", "batch"], polling.UnsupportedDiscipline, [
        lambda cfg: polling.check_analytic("batch"),
        lambda cfg: polling.ht_omega(cfg.params, "batch", 1),
        lambda cfg: polling.approx_coefficients(cfg.params, "batch", 1),
        lambda cfg: polling.approx_mean_delay(cfg.params, "batch", 1),
    ]),
}


@pytest.mark.parametrize("rule", sorted(ONE_TEXT))
def test_library_and_command_refuse_with_one_text(tmp_path, capsys, rule):
    argv, error, calls = ONE_TEXT[rule]
    assert cli.main([argv[0], "--config", SYM, "--out", str(tmp_path)] + argv[1:]) == 2
    line = capsys.readouterr().err
    cfg = load_config(SYM)
    with mock.patch.object(_kernels, "simulate_arrivals",
                           wraps=_kernels.simulate_arrivals) as kernel:
        for call in calls:
            with pytest.raises(error) as refused:
                call(cfg)
            assert line == f"error: {refused.value}\n"
    assert kernel.call_count == 0


def test_planner_refusals_name_the_planner_table(tmp_path, capsys):
    with pytest.raises(ValueError) as refused:
        spa.plan_schedule([], SimParams(), kind="x")
    assert str(refused.value) == "kind must be min-distance or min-accel, got 'x'"
    with pytest.raises(SystemExit) as exited:
        cli.main(["traj", "--config", TRAJ, "--out", str(tmp_path / "out"), "--spa", "x"])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "invalid choice: 'x'" in err
    assert list(spa.PLANNERS) == ["min-distance", "min-accel"]
    for name in spa.PLANNERS:
        assert name in str(refused.value) and name in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [["approx", "--transient"], ["approx", "--seed", "1"], ["traj", "--seed", "1"],
     ["traj", "--transient"], ["sweep", "--asymmetric"]],
)
def test_flag_of_another_command_is_usage_error(tmp_path, argv):
    # Each command takes only the flags it reads; argparse exits 2.
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--config", SYM, "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_run_missing_config_is_usage_error(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("text", ['{"seed": ' + "9" * 5000 + "}", '\xff{"seed": 1}',
                                  "[" * 100_000 + "]" * 100_000],
                         ids=["long-integer", "not-utf8", "deep-nesting"])
def test_unreadable_config_is_one_line(tmp_path, capsys, text):
    # An integer past Python's 4 300-digit conversion limit, a file that is
    # not UTF-8, and nesting deeper than the decoder recurses: one error
    # line, no traceback.
    path = tmp_path / "bad.json"
    path.write_bytes(text.encode("latin-1"))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: config file {path} cannot be read: ")


def test_run_unstable_load_exit_code(tmp_path):
    cfg = {
        "n": 2,
        "lambda": [0.6, 0.6],
        "B": 1.0,
        "S": 2.375,
        "pfa": "exhaustive",
        "horizon_vehicles": 2000,
        "seed": 1,
    }
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", str(path), "--out", out]) == 3
    with pytest.warns(UserWarning):
        assert cli.main(["run", "--config", str(path), "--out", out, "--transient"]) == 0
    # The transient run has a load but no interpolation: rho >= 1.
    rows = read_csv(os.path.join(out, "results.csv"))
    assert [r["lane"] for r in rows] == ["all", "1", "2"]
    assert {(r["rho"], r["approx_delay"]) for r in rows} == {("1.2", "")}


def test_transient_warning_is_one_line_per_point(tmp_path):
    # In its own interpreter, so Python's warning filters, not pytest's,
    # are the ones the CLI faces: one line per load, however many runs
    # (the sweep's three disciplines) share it, and no traceback when the
    # interpreter turns warnings into errors.
    with open(SYM) as fh:
        cfg = json.load(fh)
    cfg.update(horizon_vehicles=500)
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(cfg))
    cfg.update({"lambda": [0.6, 0.6]})
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps(cfg))
    for argv, rhos in (
        (["run", "--config", str(run_path)], ["1.2000"]),
        (["sweep", "--config", str(sweep_path), "--rho", "1.1:1.3:0.1"],
         ["1.1000", "1.2000", "1.3000"]),
    ):
        for extra_env in ({}, {"PYTHONWARNINGS": "error"}):
            done = run_python("-m", "platoonsim.cli", *argv, "--out", str(tmp_path),
                              "--transient", **extra_env)
            assert done.returncode == 0, done.stderr
            assert done.stderr.splitlines() == [
                f"warning: rho={rho} >= 1: transient run, no steady state exists" for rho in rhos
            ]


@pytest.mark.parametrize("command", ["run", "traj"])
def test_scripted_run_ignores_the_load_of_its_rates(tmp_path, command):
    # A script never reads lambda, so a rate pair at rho 1.2 is neither
    # refused (exit 3) nor warned about as a transient run.
    with open(TRAJ) as fh:
        cfg = json.load(fh)
    cfg.update({"lambda": [0.6, 0.6]})
    path = tmp_path / "scripted.json"
    path.write_text(json.dumps(cfg))
    done = run_python("-m", "platoonsim.cli", command, "--config", str(path),
                      "--out", str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert "warning:" not in done.stderr


def test_scripted_run_with_an_empty_lane_leaves_its_statistics_blank(tmp_path, capsys):
    # Lane 2's only arrival falls inside the warm-up: its row has no mean
    # and no CI, and the aggregate counts lane 1's vehicles only. A script
    # never reads lambda, so no row has a load or an interpolation at one,
    # and the summary line names no rho.
    path = tmp_path / "empty_lane.json"
    path.write_text(json.dumps({"arrivals": [[2, 0.0], [1, 1.0], [1, 2.0]],
                                "warmup_vehicles": 1}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path), "--pfa", "gated"]) == 0
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = {row["lane"]: row for row in csv.DictReader(fh)}
    assert (rows["2"]["sim_delay_mean"], rows["2"]["ci95"], rows["2"]["n_vehicles"]) == ("", "", "0")
    assert rows["1"]["n_vehicles"] == rows["all"]["n_vehicles"] == "2"
    assert rows["1"]["sim_delay_mean"] == rows["all"]["sim_delay_mean"] != ""
    assert sorted(rows) == ["1", "2", "all"]
    assert {(row["rho"], row["approx_delay"]) for row in rows.values()} == {("", "")}
    out = capsys.readouterr().out
    assert out.startswith("run: gated mean_delay=") and "rho=" not in out


def test_config_that_is_not_an_object_is_one_line(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: config must be a JSON object, got list\n"


def test_crossing_times_past_the_tie_grid_print_one_warning(tmp_path):
    # Rates of 1e-300 veh/s put the crossing times near 1e303 s, where
    # floats are far apart: the run completes and says so on one line.
    with open(SYM) as fh:
        cfg = json.load(fh)
    cfg.update({"lambda": [1e-300, 1e-300], "horizon_vehicles": 2000})
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps(cfg))
    done = run_python("-m", "platoonsim.cli", "run", "--config", str(path), "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: crossing times reach"), lines


@pytest.mark.parametrize(
    "key,value",
    [("warmup_vehicles", -3), ("horizon_vehicles", 0), ("horizon_vehicles", -5),
     ("warmup_vehicles", 100000), ("horizon_vehicles", 1e300)],
)
def test_run_rejects_bad_vehicle_counts(tmp_path, capsys, key, value):
    with open(SYM) as fh:
        cfg = json.load(fh)
    cfg[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err


@pytest.mark.parametrize("command", ["run", "sweep", "approx", "traj"])
def test_warmup_beyond_script_is_usage_error(tmp_path, capsys, command):
    # configs/traj.json scripts five arrivals; a warmup of five leaves none.
    with open(TRAJ) as fh:
        cfg = json.load(fh)
    cfg["warmup_vehicles"] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: warmup_vehicles=5 must be below the 5 scripted arrivals\n"
    )


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("n", True, "n must be an integer"),
        ("n", 2.7, "n must be an integer"),
        ("lambda", ["x", 0.1], "lambda entry must be a number"),
        ("arrivals", [[1]], "[lane, entry time] pair"),
        ("arrivals", [["a", 1.0]], "arrival lane must be an integer"),
        ("seed", -1, "seed must be >= 0"),
        ("v_max", 0, "v_max must be > 0, got 0.0"),
        ("lambda", [0.0, 0.1], "lambda[1] must be > 0, got 0.0"),
        ("lambda", [0.1, float("nan")], "lambda[2] must be > 0, got nan"),
        ("B", 0, "B[1] must be > 0, got 0.0"),
        ("S", [2.375, -1.0], "S[2] must be > 0, got -1.0"),
        ("S", float("nan"), "S[1] must be > 0, got nan"),
        ("S", 0.5, "min(S)=0.5 < max(B)=1.0"),
    ],
)
def test_run_rejects_malformed_config_values(tmp_path, capsys, key, value, message):
    with open(SYM) as fh:
        cfg = json.load(fh)
    cfg[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    for command in ("run", "approx"):
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "key,value",
    [("n", True), ("n", 1.5), ("batch_cap", 2.5), ("horizon_vehicles", 1000.5),
     ("warmup_vehicles", 10.5), ("seed", True), ("seed", 1.5), ("arrival lane", 1.5)],
)
def test_library_applies_the_integer_rule_of_the_config(tmp_path, capsys, key, value):
    # SimParams and RunConfig refuse a bool or a non-integral count, seed,
    # n or lane with the error line the command prints for the config.
    with open(SYM) as fh:
        cfg = json.load(fh)
    if key == "arrival lane":
        cfg["arrivals"] = [[value, 0.0], [2, 1.0]]
        cls, kwargs = RunConfig, {"arrivals": [(value, 0.0), (2, 1.0)]}
    elif key == "n":
        cfg[key] = value
        cls, kwargs = SimParams, {key: value}
    else:
        cfg.update({key: value, "pfa": "batch"})
        cls, kwargs = RunConfig, {key: value, "pfa": "batch"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    with pytest.raises(ConfigError) as built:
        cls(**kwargs)
    assert capsys.readouterr().err == f"error: {built.value}\n"
    assert str(built.value) == f"{key} must be an integer, got {value!r}"


@pytest.mark.parametrize("pfa", ["exhaustive", "gated"])
def test_run_single_lane(tmp_path, pfa):
    # One lane is the M/D/1 queue: the approximation is Pollaczek-Khinchine.
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "lambda": [0.3], "horizon_vehicles": 2000}))
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", str(path), "--out", out, "--pfa", pfa]) == 0
    rows = read_csv(os.path.join(out, "results.csv"))
    assert [r["lane"] for r in rows] == ["all", "1"]
    for r in rows:
        assert float(r["approx_delay"]) == pytest.approx(0.3 / (2 * 0.7), rel=1e-9)


def test_negative_seed_override_is_usage_error(tmp_path, capsys):
    assert cli.main(["run", "--config", SYM, "--out", str(tmp_path), "--seed", "-4"]) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -4\n"


# ===================== sweep =====================

def test_sweep_grid_and_reruns_are_byte_identical(tmp_path):
    args = ["sweep", "--config", SYM, "--rho", "0.3:0.5:0.1", "--pfa", "exhaustive"]
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(args + ["--out", out_a]) == 0
    assert cli.main(args + ["--out", out_b]) == 0
    bytes_a = open(os.path.join(out_a, "delay_sweep.csv"), "rb").read()
    assert bytes_a == open(os.path.join(out_b, "delay_sweep.csv"), "rb").read()
    rows = read_csv(os.path.join(out_a, "delay_sweep.csv"))
    assert sorted({r["rho"] for r in rows}) == ["0.3", "0.4", "0.5"]
    assert len(rows) == 3 * 3  # per point: aggregate + two lanes


def test_sweep_honours_warmup(tmp_path):
    with open(SYM) as fh:
        cfg = json.load(fh)
    cfg.update(horizon_vehicles=4000, warmup_vehicles=2000)
    path = tmp_path / "warm.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "out")
    args = ["--config", str(path), "--out", out, "--pfa", "gated"]
    assert cli.main(["sweep", "--rho", "0.5:0.5:0.1"] + args) == 0
    swept = read_csv(os.path.join(out, "delay_sweep.csv"))
    assert cli.main(["run"] + args) == 0
    ran = read_csv(os.path.join(out, "results.csv"))
    assert swept[0]["n_vehicles"] == ran[0]["n_vehicles"] == "2000"
    # Same load and seed: the sweep point is the run.
    assert swept == ran


def test_sweep_refuses_saturating_grid(tmp_path):
    code = cli.main(
        ["sweep", "--config", SYM, "--out", str(tmp_path), "--rho", "0.8:1.0:0.1"]
    )
    assert code == 3


def test_sweep_asymmetric_split(tmp_path):
    out = str(tmp_path)
    code = cli.main(
        [
            "sweep", "--config", ASYM, "--out", out,
            "--rho", "0.3:0.3:0.1", "--pfa", "exhaustive",
        ]
    )
    assert code == 0
    rows = read_csv(os.path.join(out, "delay_sweep.csv"))
    lane = {r["lane"]: r for r in rows}
    # 3:1 arrivals: the busy lane holds three quarters of the vehicles and,
    # under exhaustive service, waits less than the light lane.
    assert int(lane["1"]["n_vehicles"]) > 2 * int(lane["2"]["n_vehicles"])
    assert float(lane["1"]["approx_delay"]) < float(lane["2"]["approx_delay"])


@pytest.mark.parametrize("command, message", [
    ("approx", "error: approximation undefined at rho=1.1 >= 1\n"),
    ("sweep", "error: sweep point rho=1.1 >= 1 (use --transient to allow)\n"),
])
def test_refused_grid_stops_at_first_unstable_point(tmp_path, capsys, command, message):
    # A million points, refused at the second; building them all first
    # peaked at 32 MB of traced memory.
    tracemalloc.start()
    try:
        code = cli.main([command, "--config", SYM, "--out", str(tmp_path), "--rho", "0.1:1e6:1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err == message
    assert peak < 2 ** 20


def test_oversized_rho_grid_is_refused_before_it_is_built(tmp_path, capsys):
    # About 8e11 points: refused from the count, with no list allocated.
    tracemalloc.start()
    try:
        code = cli.main(["sweep", "--config", SYM, "--out", str(tmp_path),
                         "--rho", "0.1:0.9:1e-12"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: --rho grid has more than {cli.MAX_RHO_POINTS} points, got '0.1:0.9:1e-12'\n")
    assert peak < 2 ** 20


@pytest.mark.parametrize(
    "grid", ["0.5", "0.5:0.4:0.1", "0.2:0.4:0", "a:b:c", "0:0.5:0.1", "-0.1:0.5:0.1",
             "nan:0.5:0.1", "0.1:inf:0.1", "0.1:1e308:1e-300"]
)
def test_bad_rho_grid_is_usage_error(tmp_path, capsys, grid):
    for command in ("sweep", "approx"):
        assert cli.main([command, "--config", SYM, "--out", str(tmp_path), f"--rho={grid}"]) == 2
        assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("command", ["sweep", "approx"])
def test_rho_grid_rounding_to_zero_is_usage_error(tmp_path, capsys, command):
    # A > 0 alone let 1e-12 through: it rounds to load 0, and zero rates
    # then failed at run time with exit 1.
    grid = "1e-12:1e-12:1"
    assert cli.main([command, "--config", SYM, "--out", str(tmp_path), "--rho", grid]) == 2
    assert capsys.readouterr().err == (
        f"error: --rho's first point rounds to 0 at 10 decimals, got '{grid}'\n")
    assert os.listdir(tmp_path) == []


# ===================== approx =====================

def test_approx_table_frozen_constants(tmp_path):
    out = str(tmp_path)
    assert cli.main(["approx", "--config", SYM, "--out", out, "--rho", "0.5:0.5:0.1"]) == 0
    rows = read_csv(os.path.join(out, "approx.csv"))
    assert [r["discipline"] for r in rows] == ["exhaustive"] * 2 + ["gated"] * 2
    for r in rows:
        assert float(r["K1"]) == 3.09765625
        if r["discipline"] == "exhaustive":
            assert float(r["omega"]) == 1.6875
            assert float(r["approx_delay"]) == 2.392578125
        else:
            assert float(r["omega"]) == 4.0625
            assert float(r["approx_delay"]) == 3.580078125
        assert float(r["K2"]) == pytest.approx(float(r["omega"]) - 3.09765625, abs=1e-12)


def test_approx_has_no_batch_form(tmp_path, capsys):
    assert cli.main(["approx", "--config", SYM, "--out", str(tmp_path), "--pfa", "batch"]) == 2
    assert capsys.readouterr().err == (
        "error: no analytic delay form for 'batch'; choose from ('exhaustive', 'gated')\n")


# The approx byte contract: sha256 of approx.csv and stdout (output
# directory replaced by "OUT") for configs/sym.json and configs/asym.json
# on the default grid 0.1:0.9:0.1, with both analytic disciplines (the
# default --pfa).
APPROX_GOLDEN = {
    "asym": (
        "fddbca1a7ba52fd17951ac65b9824d2b917fefe366d06049649d5d0b4cf5a937",
        "38ac61c47c06ab64ed78c5e4bb6fa18820dc1b880aeacac1a7c8907328e0ef30",
    ),
    "sym": (
        "e0d7fb2160818f732a184371f23617807df6de70232723b1c91dc1898a1f15a4",
        "38ac61c47c06ab64ed78c5e4bb6fa18820dc1b880aeacac1a7c8907328e0ef30",
    ),
}


@pytest.mark.parametrize("config", sorted(APPROX_GOLDEN))
def test_approx_golden_bytes(tmp_path, capsys, config):
    out = tmp_path / "out"
    path = {"asym": ASYM, "sym": SYM}[config]
    assert cli.main(["approx", "--config", path, "--out", str(out)]) == 0
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in ((out / "approx.csv").read_bytes(),
                     capsys.readouterr().out.replace(str(out), "OUT").encode())
    )
    assert digests == APPROX_GOLDEN[config]


# ===================== traj =====================

def test_traj_writes_segment_and_sample_files(tmp_path, capsys):
    out = str(tmp_path)
    assert cli.main(["traj", "--config", TRAJ, "--out", out]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("traj: 5 trajectories (0 failed)")

    segments = read_csv(os.path.join(out, "traj_segments.csv"))
    assert set(segments[0]) == {
        "vehicle_id", "segment_index", "t_start", "duration", "accel", "x_start", "v_start"
    }
    assert {r["vehicle_id"] for r in segments} == {"0", "1", "2", "3", "4"}

    # The three lane-2 vehicles cross as one platoon: the platoon head dips
    # to its crossing and the members trail it at one occupation time,
    # cruising at full speed for exactly their slot offset.
    tail = {
        vid: [r for r in segments if r["vehicle_id"] == vid][-1] for vid in ("1", "3", "4")
    }
    assert float(tail["3"]["accel"]) == 0.0 and float(tail["3"]["duration"]) == pytest.approx(1.0)
    assert float(tail["4"]["accel"]) == 0.0 and float(tail["4"]["duration"]) == pytest.approx(2.0)

    sampled = read_csv(os.path.join(out, "traj_sampled.csv"))
    assert set(sampled[0]) == {"vehicle_id", "t", "x", "v", "a"}
    final_x = {}
    for r in sampled:
        final_x[r["vehicle_id"]] = float(r["x"])
    assert all(abs(x) < 1e-6 for x in final_x.values())


@pytest.mark.parametrize(
    "formatter, name",
    [("_segment_block", "traj_segments.csv"), ("_sampled_block", "traj_sampled.csv")],
)
def test_traj_failure_keeps_previous_file(tmp_path, monkeypatch, formatter, name):
    # Whichever file's formatter fails (name), both keep their previous bytes.
    # One trajectory per block, so the failing block follows a written one.
    monkeypatch.setattr(_trajcsv, "SEGMENT_BLOCK", 1)
    monkeypatch.setattr(_trajcsv, "SAMPLE_BLOCK", 1)
    monkeypatch.setattr(_trajcsv, formatter, fail_on_second_call(getattr(_trajcsv, formatter)))
    names = ("traj_segments.csv", "traj_sampled.csv")
    seed_previous_artifacts(tmp_path, *names)
    with pytest.raises(RuntimeError, match="formatter failed"):
        cli.main(["traj", "--config", TRAJ, "--out", str(tmp_path)])
    assert_previous_artifacts_kept(tmp_path, *names)


def test_traj_min_accel_objective(tmp_path):
    out = str(tmp_path)
    assert cli.main(["traj", "--config", TRAJ, "--out", out, "--spa", "min-accel"]) == 0
    assert os.path.exists(os.path.join(out, "traj_segments.csv"))


def short_region_config(tmp_path, arrivals):
    """configs/traj.json on a 100 m profiling segment, whose lead 100 / 15 s
    is inexact in floating point."""
    with open(TRAJ) as fh:
        config = json.load(fh)
    config.update(region_spa_m=100.0, arrivals=arrivals)
    path = tmp_path / "short.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_traj_short_region_plans_sparse_arrivals(tmp_path, capsys):
    # Every vehicle crosses at its earliest time, which can land a few ulps
    # below the free-flow time; planning used to die on a math domain error.
    arrivals = [[1 + i % 2, round(7.3 * i, 3)] for i in range(60)]
    config = short_region_config(tmp_path, arrivals)
    assert cli.main(["traj", "--config", config, "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("traj: 60 trajectories (0 failed)")


@pytest.mark.parametrize("spa", ["min-distance", "min-accel"])
def test_traj_refusals_name_the_vehicle_once(tmp_path, capsys, spa):
    # Dense arrivals on the short segment refuse vehicles both for spacing
    # and for having no single-dip profile (SingleDipViolation).
    rng = np.random.default_rng(1)
    times = np.cumsum(rng.exponential(2.0, 80)).round(3)
    arrivals = [[int(lane), float(t)] for lane, t in zip(rng.integers(1, 3, 80), times)]
    config = short_region_config(tmp_path, arrivals)
    assert cli.main(["traj", "--config", config, "--out", str(tmp_path), "--spa", spa]) == 0
    lines = capsys.readouterr().err.splitlines()
    separation = [line for line in lines if ": separation " in line]
    assert separation and len(separation) < len(lines)
    for line in lines:
        assert re.match(r"vehicle \d+: ", line), line
        assert len(re.findall(r"vehicle \d+", line)) == 1, line


# The traj byte contract: sha256 of traj_segments.csv, traj_sampled.csv and
# stderr, and the refused vehicles, for each planner on configs/traj.json
# and on 300 physically spaced gated arrivals at rho 0.4 (seed 77). A
# change that moves any of them changes traj's artifacts, and re-pins them
# on purpose.
TRAJ_GOLDEN = {
    ("traj", "min-distance"): (
        "74e82bf1fd7b2b18226c303b1379ad271dc9564d3ebed9e46f7f2989481cc2fe",
        "e3116789035322307568e0dc5483fc6800f72336015421f9c4c112e2043bb492",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        [],
    ),
    ("traj", "min-accel"): (
        "e2f87f679980e57c7e58a681199953d284ec2d0036fe301db5633e3646e3f3cc",
        "bc4cdf7c37afb1b23f5752c964efc49d9935b17f4435d053514394e392878efb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        [],
    ),
    ("physical", "min-distance"): (
        "64bcdb7ae11f6e0c3549ad8dd7ecef3224a3e35b96dadcacff2f19997c142a6d",
        "7f7909f5f35f1b40e993182b1542ce48f23aef32d808703dbb614eec31e0568e",
        "2bbdb79cd7ca5bb9064933bc674d54f4f31e85b826fe751274c712df49bdb7de",
        [32, 39, 120, 194, 210, 222],
    ),
    ("physical", "min-accel"): (
        "c53098a6f3a92997908e2bb32dd100a27c6b9ae4c59bbf69461c178dce9acfef",
        "60c3ab67bac377db016bd38795dedd90f0d6bd958bfb53d52aacad788cfa437b",
        "e5ad4208b8eae7edc900f92e540336f9392a489b003ab0dd26eca7dbe830cc70",
        [30, 36, 67, 73, 71, 77, 80, 82, 86, 95, 106, 120, 162, 192, 200, 206, 211, 227,
         253, 269, 276, 282],
    ),
}


@pytest.mark.parametrize("config,spa_kind", sorted(TRAJ_GOLDEN))
def test_traj_golden_bytes(tmp_path, capsys, config, spa_kind):
    if config == "traj":
        path = TRAJ
    else:
        params = SimParams().with_rho(0.4)
        arrivals = make_physical_arrivals(params, 300, seed=77)
        path = str(tmp_path / "physical.json")
        with open(path, "w") as fh:
            json.dump({"n": 2, "lambda": list(params.lam), "pfa": "gated",
                       "arrivals": arrivals}, fh)
    out = tmp_path / "out"
    assert cli.main(["traj", "--config", path, "--out", str(out), "--spa", spa_kind]) == 0
    err = capsys.readouterr().err
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in ((out / "traj_segments.csv").read_bytes(),
                     (out / "traj_sampled.csv").read_bytes(), err.encode())
    )
    refused = [int(re.match(r"vehicle (\d+): ", line).group(1)) for line in err.splitlines()]
    assert digests + (refused,) == TRAJ_GOLDEN[config, spa_kind]


def scripted_run_config(path):
    """5 002 scripted gated arrivals on configs/sym.json's lanes, written to path.

    2 500 enter at negative times, then one at -0.0 s on an idle
    intersection and a same-lane follower 1e-5 s short of B behind it,
    whose delay of about 1e-5 s prints in scientific notation; 2 500
    more follow from 20 s. Times are rounded to 1 us.
    """
    rng = np.random.default_rng(23)
    before = np.round(np.cumsum(rng.exponential(2.5, 2500)) - 6500.0, 6)
    after = np.round(20.0 + np.cumsum(rng.exponential(2.5, 2500)), 6)
    lanes = rng.integers(1, 3, 5000).tolist()
    assert before[-1] < -10.0
    arrivals = ([[lane, t] for lane, t in zip(lanes, before.tolist())]
                + [[1, -0.0], [1, 0.99999]]
                + [[lane, t] for lane, t in zip(lanes[2500:], after.tolist())])
    with open(SYM) as fh:
        cfg = json.load(fh)
    cfg.update(pfa="gated", warmup_vehicles=100, arrivals=arrivals)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


# The run byte contract: sha256 of results.csv, vehicles.jsonl, stdout
# (output directory replaced by "OUT") and stderr, for configs/sym.json,
# configs/asym.json with --pfa gated, and scripted_run_config. Pinned
# from the per-record vehicles.jsonl writer, before the block writer
# replaced it. The scripted run's results.csv and stdout were re-pinned
# when a script stopped reporting the load of its unused rates: its rho
# and approx_delay cells are blank and its run: line has no rho=.
RUN_GOLDEN = {
    "asym-gated": (
        "fc21b211a0274b0b09f3ebb3db7687e655fe24c85cfcc300ffe7ae750c2d2336",
        "635c8bde219ef1a3deb415fafecaf41bbfc5f7d67d21832174b4f0c6835ee07c",
        "eb347f718939cdbfc99023684a3d8572bf68c6db2e45cc45644e89a3cbb2b6fd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "scripted": (
        "1ef31517c8480aa1afece1a68cbbcbe1078b352c14c5563f3396bece3d94fdfa",
        "09260dbc1e20e2083d96aaad45e3f31e265787cf92a37f7f899718f6760a7d67",
        "2c28fafaf7dab83e5e9cf1f4242c9365516a0197aadc526f4ca9e4d34f74556f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "sym": (
        "b68c4d797188b7e3c6fe56668259d4664e825469a1e7b0f9fe802edd62ee4659",
        "0efc8099fa757701195dbae68468b801ae0892e588f1a4e11cb040f792a778d3",
        "5f6cad62bfd70be50680902875d3398ba8aaea202b159d761ee8aa9fa14c29f8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


@pytest.mark.parametrize("config", sorted(RUN_GOLDEN))
def test_run_golden_bytes(tmp_path, capsys, config):
    out = tmp_path / "out"
    argv = ["run", "--out", str(out)]
    if config == "sym":
        argv += ["--config", SYM]
    elif config == "asym-gated":
        argv += ["--config", ASYM, "--pfa", "gated"]
    else:
        argv += ["--config", scripted_run_config(str(tmp_path / "scripted.json"))]
    assert cli.main(argv) == 0
    std = capsys.readouterr()
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in ((out / "results.csv").read_bytes(), (out / "vehicles.jsonl").read_bytes(),
                     std.out.replace(str(out), "OUT").encode(), std.err.encode())
    )
    assert digests == RUN_GOLDEN[config]


# The sweep byte contract: sha256 of delay_sweep.csv and stdout (output
# directory replaced by "OUT") for configs/sym.json at rho 0.3, 0.6 and
# 0.9, all three disciplines, 3 000 vehicles a point and batch_cap 12.
# The cap binds at rho 0.9 only, so batch's rows there come from its own
# run while at 0.3 and 0.6 they are gated's. At 0.9 the binding cap locks
# a lane out (ROADMAP item 1), and the mend for that item will re-record
# the batch rows.
SWEEP_GOLDEN = (
    "b4e64c488556d33f1eb15b530090bf54357c3cabfd082c4a42312b3d3353ec01",
    "cbceec924c60babc9a311f0311c3f9b67469aefc8580685081d4a7894d657b84",
)


def test_sweep_golden_bytes(tmp_path, capsys):
    with open(SYM) as fh:
        cfg = json.load(fh)
    cfg.update(horizon_vehicles=3000, batch_cap=12)
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(path), "--out", str(out), "--rho", "0.3:0.9:0.3",
            "--pfa", "exhaustive,gated,batch"]
    assert cli.main(argv) == 0
    table = (out / "delay_sweep.csv").read_bytes()
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in (table, capsys.readouterr().out.replace(str(out), "OUT").encode())
    )
    assert digests == SWEEP_GOLDEN
    means = {(r["rho"], r["discipline"]): r["sim_delay_mean"]
             for r in read_csv(out / "delay_sweep.csv") if r["lane"] == "all"}
    assert means["0.6", "batch"] == means["0.6", "gated"]
    assert means["0.9", "batch"] != means["0.9", "gated"]


def test_traj_needs_scripted_arrivals(tmp_path):
    assert cli.main(["traj", "--config", SYM, "--out", str(tmp_path)]) == 2


# ===================== every command =====================

# Each command's artifacts, in the order it writes them.
ARTIFACTS = {"run": ("results.csv", "vehicles.jsonl"), "sweep": ("delay_sweep.csv",),
             "approx": ("approx.csv",), "traj": ("traj_segments.csv", "traj_sampled.csv")}


def command_argv(command, config, out):
    """command on config into out, with a two-point --rho grid where it takes one."""
    argv = [command, "--config", str(config), "--out", str(out)]
    return argv + ["--rho", "0.3:0.5:0.2"] if command in ("sweep", "approx") else argv


@pytest.mark.parametrize("case", ["out-is-a-file", "out-under-a-file", "tmp-is-a-directory"])
@pytest.mark.parametrize("command", sorted(ARTIFACTS))
def test_unwritable_out_is_one_line(tmp_path, capsys, command, case):
    # configs/traj.json, whose five scripted arrivals every command takes,
    # and a 2 000-vehicle horizon for sweep.
    with open(TRAJ) as fh:
        cfg = json.load(fh)
    cfg["horizon_vehicles"] = 2000
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    names = ARTIFACTS[command]
    out = tmp_path / "out"
    if case == "tmp-is-a-directory":
        # The last file's ".tmp" can be neither opened nor removed.
        out.mkdir()
        seed_previous_artifacts(out, *names)
        kept = [out / name for name in names]
        arg, path, reason = out, out / f"{names[-1]}.tmp", "Is a directory"
        path.mkdir()
    else:
        out.write_bytes(b"previous artifact\n")
        kept = [out]
        arg = path = out if case == "out-is-a-file" else out / "sub"
        reason = "File exists" if case == "out-is-a-file" else "Not a directory"
    assert cli.main(command_argv(command, config, arg)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {path}: {reason}\n"
    assert all(p.read_bytes() == b"previous artifact\n" for p in kept)
    assert sorted(tmp_path.rglob("*.tmp")) == ([path] if path.suffix == ".tmp" else [])


def config_keys():
    keys = set()
    for base in (SYM, TRAJ):
        with open(base) as fh:
            keys |= set(json.load(fh))
    return sorted(keys)


# Values that no key takes, or takes only at an extreme of float range.
FAULTS = [None, True, False, "", "1", "x", [], [1.0], [1.0, 1.0, 1.0], 0, -1, 5e-324, 1e-320,
          1e308, 2 ** 63, 10 ** 30, math.nan, math.inf]


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from([SYM, TRAJ]), command=st.sampled_from(sorted(ARTIFACTS)),
       faults=st.dictionaries(st.sampled_from(config_keys()), st.sampled_from(FAULTS),
                              min_size=1, max_size=2))
def test_faulty_configs_run_or_are_refused_on_one_line(base, command, faults):
    # One or two keys of a shipped config set to a fault. No fault makes a
    # valid horizon, so every run stays at the 2 000 vehicles set here.
    # Batch's values are not checked: above its k-limited bound a lane can
    # be locked out while the run exits 0.
    with open(base) as fh:
        cfg = json.load(fh)
    cfg["horizon_vehicles"] = 2000
    cfg.update(faults)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(config, "w") as fh:
            json.dump(cfg, fh)  # NaN and Infinity as Python's json writes and reads them
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(command_argv(command, config, out))
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3), lines
        assert sum(line.startswith("error:") for line in lines) <= 1, lines
        assert not any("internal error" in line or "Traceback" in line for line in lines), lines
        for name in os.listdir(out) if os.path.isdir(out) else ():
            with open(os.path.join(out, name)) as fh:
                text = fh.read()
            assert not re.search(r"(?i)\b(nan|inf|infinity)\b", text), (name, faults)
