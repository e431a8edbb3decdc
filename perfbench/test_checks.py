"""Tests for the benchmark's output checks and span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench

Small versions of the three workloads are run once through the CLI; each
check must pass on the clean artifacts and reject each corruption.
"""
from __future__ import annotations

import copy
import csv
import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from platoonsim import cli  # noqa: E402

SEED = 3


def _run_cli(wl: workloads.Workload, base: str) -> str:
    os.makedirs(base, exist_ok=True)
    cfg_path = os.path.join(base, "config.json")
    out = os.path.join(base, "out")
    workloads.write_config(wl, cfg_path)
    assert cli.main(workloads.cli_args(wl, cfg_path, out)) == 0
    return out


def _small(name: str) -> workloads.Workload:
    wl = workloads.make(name, SEED)
    cfg = copy.deepcopy(wl.config)
    if name == "run-jsonl":
        cfg.update(horizon_vehicles=6000, warmup_vehicles=600)
    elif name == "sweep-grid":
        cfg.update(horizon_vehicles=4000, warmup_vehicles=400)
    else:
        gap = cfg["l_min"] / cfg["v_max"] + workloads.TRAJ_HEADWAY_MARGIN
        cfg["arrivals"] = workloads.scripted_arrivals(SEED, 300, cfg["lambda"], gap)
    wl.config = cfg
    return wl


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    base = tmp_path_factory.mktemp("perfbench")
    return {
        name: (_small(name), _run_cli(_small(name), str(base / name)))
        for name in workloads.NAMES
    }


def _copy(artifacts, name, tmp_path):
    wl, out = artifacts[name]
    dst = str(tmp_path / name)
    shutil.copytree(out, dst)
    return wl.config, dst


def _check(name, cfg, out):
    if name == "run-jsonl":
        return checks.check_run(cfg, out)
    if name == "sweep-grid":
        return checks.check_sweep(cfg, out, workloads.SWEEP_RHOS, workloads.SWEEP_PFAS)
    return checks.check_traj(cfg, out)[0]


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _nudge(cell: str, rel: float) -> str:
    return f"{float(cell) * (1.0 + rel):.10g}"


# ===================== clean artifacts pass =====================

@pytest.mark.parametrize("name", workloads.NAMES)
def test_clean_artifacts_pass(artifacts, name):
    wl, out = artifacts[name]
    assert _check(name, wl.config, out) == []


def test_traj_counts_sampled_rows(artifacts):
    wl, out = artifacts["traj-plan"]
    with open(os.path.join(out, "traj_sampled.csv")) as fh:
        lines = sum(1 for _ in fh)
    assert checks.check_traj(wl.config, out)[1] == lines - 1


# ===================== run-jsonl corruptions =====================

def _edit_jsonl(path, edit):
    with open(path) as fh:
        recs = [json.loads(line) for line in fh]
    recs = edit(recs)
    with open(path, "w") as fh:
        fh.write("\n".join(json.dumps(r) for r in recs) + "\n")


def test_run_rejects_dropped_vehicle(artifacts, tmp_path):
    cfg, out = _copy(artifacts, "run-jsonl", tmp_path)
    _edit_jsonl(os.path.join(out, "vehicles.jsonl"), lambda recs: recs[:2000] + recs[2001:])
    assert checks.check_run(cfg, out)


def test_run_rejects_crossing_inside_headway(artifacts, tmp_path):
    cfg, out = _copy(artifacts, "run-jsonl", tmp_path)

    def move(recs):
        by_c = sorted(recs, key=lambda r: r["c"])
        prev, victim = by_c[3000], by_c[3001]
        victim["c"] = prev["c"] + 0.5
        victim["delay"] = victim["c"] - victim["a"]
        return recs

    _edit_jsonl(os.path.join(out, "vehicles.jsonl"), move)
    assert checks.check_run(cfg, out)


@pytest.mark.parametrize("row", [1, 2])
def test_run_rejects_mean_off_by_1e6(artifacts, tmp_path, row):
    cfg, out = _copy(artifacts, "run-jsonl", tmp_path)

    def edit(rows):
        rows[row][3] = _nudge(rows[row][3], 1e-6)

    _rewrite_csv(os.path.join(out, "results.csv"), edit)
    assert checks.check_run(cfg, out)


def test_run_rejects_wrong_approx(artifacts, tmp_path):
    cfg, out = _copy(artifacts, "run-jsonl", tmp_path)
    _rewrite_csv(os.path.join(out, "results.csv"), lambda rows: rows[1].__setitem__(5, _nudge(rows[1][5], 1e-6)))
    assert checks.check_run(cfg, out)


# ===================== sweep-grid corruptions =====================

def test_sweep_rejects_mean_off_by_1e6(artifacts, tmp_path):
    cfg, out = _copy(artifacts, "sweep-grid", tmp_path)
    _rewrite_csv(os.path.join(out, "delay_sweep.csv"),
                 lambda rows: rows[40].__setitem__(3, _nudge(rows[40][3], 1e-6)))
    assert checks.check_sweep(cfg, out, workloads.SWEEP_RHOS, workloads.SWEEP_PFAS)


def test_sweep_rejects_dropped_vehicle(artifacts, tmp_path):
    cfg, out = _copy(artifacts, "sweep-grid", tmp_path)
    _rewrite_csv(os.path.join(out, "delay_sweep.csv"),
                 lambda rows: rows[2].__setitem__(7, str(int(rows[2][7]) - 1)))
    assert checks.check_sweep(cfg, out, workloads.SWEEP_RHOS, workloads.SWEEP_PFAS)


def test_sweep_rejects_dropped_group(artifacts, tmp_path):
    cfg, out = _copy(artifacts, "sweep-grid", tmp_path)
    _rewrite_csv(os.path.join(out, "delay_sweep.csv"), lambda rows: rows.__delitem__(slice(-3, None)))
    assert checks.check_sweep(cfg, out, workloads.SWEEP_RHOS, workloads.SWEEP_PFAS)


def test_sweep_rejects_swapped_disciplines(artifacts, tmp_path):
    cfg, out = _copy(artifacts, "sweep-grid", tmp_path)

    def swap(rows):
        # rho = 0.5 groups: batch, exhaustive, gated, three rows each.
        ex, ga = 1 + 4 * 9 + 3, 1 + 4 * 9 + 6
        for k in range(3):
            rows[ex + k][3], rows[ga + k][3] = rows[ga + k][3], rows[ex + k][3]

    _rewrite_csv(os.path.join(out, "delay_sweep.csv"), swap)
    assert checks.check_sweep(cfg, out, workloads.SWEEP_RHOS, workloads.SWEEP_PFAS)


# ===================== traj-plan corruptions =====================

def _segments_path(out):
    return os.path.join(out, "traj_segments.csv")


def test_traj_rejects_dropped_vehicle(artifacts, tmp_path):
    cfg, out = _copy(artifacts, "traj-plan", tmp_path)
    _rewrite_csv(_segments_path(out), lambda rows: rows.__setitem__(
        slice(None), [r for r in rows if r[0] != "150"]))
    assert checks.check_traj(cfg, out)[0]


def test_traj_rejects_crossing_inside_headway(artifacts, tmp_path):
    cfg, out = _copy(artifacts, "traj-plan", tmp_path)

    def shift(rows):
        for r in rows[1:]:
            if r[0] == "150":
                r[2] = f"{float(r[2]) - 0.5:.10g}"

    _rewrite_csv(_segments_path(out), shift)
    assert checks.check_traj(cfg, out)[0]


def test_traj_rejects_acceleration_above_bound(artifacts, tmp_path):
    cfg, out = _copy(artifacts, "traj-plan", tmp_path)

    def boost(rows):
        row = next(r for r in rows[1:] if float(r[4]) < 0)
        row[4] = f"{1.5 * float(row[4]):.10g}"

    _rewrite_csv(_segments_path(out), boost)
    assert checks.check_traj(cfg, out)[0]


def test_traj_rejects_sample_off_path(artifacts, tmp_path):
    cfg, out = _copy(artifacts, "traj-plan", tmp_path)

    def move(rows):
        rows[500][2] = f"{float(rows[500][2]) + 0.01:.10g}"

    _rewrite_csv(os.path.join(out, "traj_sampled.csv"), move)
    assert checks.check_traj(cfg, out)[0]


# ===================== formulas and span arithmetic =====================

def test_interpolation_matches_worked_constants():
    # Symmetric lanes, B = 1, S = 2.375: K1 = 3.09765625, omega = 1.6875
    # (exhaustive) and 4.0625 (gated), the values the package documents.
    lam, B, S = np.array([0.2, 0.2]), np.ones(2), np.full(2, 2.375)
    rho = 0.4
    for disc, omega in (("exhaustive", 1.6875), ("gated", 4.0625)):
        lanes, overall = checks.interpolated_delays(lam, B, S, disc)
        want = (3.09765625 * rho + (omega - 3.09765625) * rho ** 2) / (1 - rho)
        assert lanes == pytest.approx([want, want], rel=1e-12)
        assert overall == pytest.approx(want, rel=1e-12)


def test_batch_means_ci_uses_twenty_contiguous_batches():
    x = np.random.default_rng(1).exponential(size=1013)
    means = [b.mean() for b in np.array_split(x, 20)]
    want = 2.093 * np.std(means, ddof=1) / np.sqrt(20)
    assert checks.batch_means_ci(x) == pytest.approx(want, rel=1e-12)
    assert np.isnan(checks.batch_means_ci(x[:39]))


def test_self_times_exclude_same_thread_children():
    def span(i, name, start, end, parent=None, thread=1, **attrs):
        return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
                "thread": thread, "attrs": attrs}

    recorded = [
        span(1, "cli.cmd_run", 0.0, 10.0),
        span(2, "core.load_config", 0.0, 1.0, parent=1),
        span(3, "sim.run", 1.0, 7.0, parent=1, pfa="gated", rho=0.6),
        span(4, "kernels.simulate_arrivals", 2.0, 6.0, parent=3, vehicles=1000),
        span(5, "cli.write_csv", 7.0, 7.5, parent=1),
        span(6, "spa.plan_schedule", 20.0, 30.0),
        span(7, "spa.verify_separation", 21.0, 24.0, parent=6),
        span(8, "spa.verify_separation", 22.0, 23.0, parent=6, thread=2),
    ]
    m = spans.layer_metrics(recorded, jsonl_bytes=3 * 2 ** 20, sampled_rows=0)
    assert m["cli.run.artifacts_s"] == pytest.approx(3.0)
    assert m["cli.vehicles_jsonl.mb_per_s"] == pytest.approx(1.0)
    assert m["kernels.us_per_vehicle"] == pytest.approx(4000.0)
    assert m["kernels.gated.us_per_vehicle"] == pytest.approx(4000.0)
    assert m["kernels.exhaustive.us_per_vehicle"] == 0.0
    assert m["spa.plan_schedule.self_s"] == pytest.approx(7.0)
    assert m["spa.verify_separation.calls"] == 2


def test_tracer_records_parent_and_restores_results():
    class Box:
        @staticmethod
        def outer(x):
            return Box.inner(x) + 1

        @staticmethod
        def inner(x):
            return 2 * x

    tracer = spans.Tracer()
    tracer.install(Box, "outer", "outer")
    tracer.install(Box, "inner", "inner", lambda x: {"x": x})
    assert Box.outer(3) == 7
    inner, outer = tracer.spans
    assert (inner["name"], outer["name"]) == ("inner", "outer")
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["attrs"] == {"x": 3}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
