"""platoonsim benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md): run-jsonl, sweep-grid, traj-plan.
Each command runs in a fresh interpreter (perfbench/child.py) against the
package in ./src, so its own wall time and peak memory can be read apart
from interpreter start. Rounds of timed interpreter starts and one command
repeat until S seconds have passed; every output is checked
(perfbench/checks.py). Command times are reported as the run's fastest
command, set-up time and memory as medians. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced commands (on sweep-grid also a traced sweep
on the default thread pool) and reports the per-layer metrics,
computed from spans recorded around the package's public calls
(perfbench/spans.py), plus the tracing overhead.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PER_COMMAND = 3           # interpreter starts timed before each command...
SETUP_SPAWNS = 9                # ...and at least this many per run, for setup_s
TRAJ_SUMMARY = re.compile(r"traj: (\d+) trajectories \((\d+) failed\)")


class BenchError(Exception):
    """The benchmark cannot run here (no package, bad arguments)."""


class Runner:
    """Spawns commands for one workload and keeps their samples."""

    def __init__(self, root: str, workload: workloads.Workload, work: str):
        self.root = root
        self.workload = workload
        self.work = work
        self.config_path = os.path.join(work, "config.json")
        workloads.write_config(workload, self.config_path)
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "PLATOONSIM_THREADS")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.reps = 0
        self.digests: Optional[Dict[str, str]] = None
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def spawn_setup(self) -> float:
        """Seconds for a fresh interpreter to start and import platoonsim.cli."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import platoonsim.cli"], env=self.env,
                       check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - start

    def first_import(self) -> None:
        """Fill the bytecode cache and make sure ./src is what gets imported."""
        out = subprocess.run(
            [sys.executable, "-c", "import platoonsim.cli, platoonsim; print(platoonsim.__file__)"],
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        want = os.path.join(self.root, "src", "platoonsim")
        if out.returncode != 0 or not os.path.abspath(out.stdout.strip()).startswith(want):
            raise BenchError(f"cannot import platoonsim from {want}: {out.stderr.strip()[-300:]}")

    def command(self, trace: bool = False, pool: bool = False) -> Dict[str, object]:
        """Run the workload's CLI command once; returns its sample.

        pool drops the workload's own environment (PLATOONSIM_THREADS on
        sweep-grid), so the sweep runs on the package's default pool.
        """
        k = self.reps
        self.reps += 1
        out_dir = os.path.join(self.work, "first" if k == 0 else "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        result_path = os.path.join(self.work, "result.json")
        span_path = os.path.join(self.work, f"spans_{k}.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"), result_path]
        if trace:
            argv += ["--trace", span_path]
        argv += ["--"] + workloads.cli_args(self.workload, self.config_path, out_dir)
        env = self.env if pool else dict(self.env, **self.workload.env)
        stdout_path = os.path.join(self.work, "stdout.txt")
        stderr_path = os.path.join(self.work, "stderr.txt")
        with open(stdout_path, "w") as so, open(stderr_path, "w") as se:
            proc = subprocess.Popen(argv, env=env, stdout=so, stderr=se, cwd=self.root)
            proc.wait()
        sample: Dict[str, object] = {"rep": k, "trace": trace, "pool": pool}
        n = self.workload.vehicles
        self.attempted += n
        try:
            with open(result_path) as fh:
                sample.update(json.load(fh))
            os.remove(result_path)
        except (OSError, ValueError):
            sample["rc"] = None
        if proc.returncode != 0 or sample.get("rc") != 0:
            with open(stderr_path) as fh:
                tail = fh.read()[-500:]
            self.problems.append(f"command {k} exited {proc.returncode}/{sample.get('rc')}: {tail}")
            self.failed += n
            return sample
        if self.workload.name == "traj-plan":
            with open(stdout_path) as fh:
                m = TRAJ_SUMMARY.search(fh.read())
            if m is None:
                self.problems.append(f"command {k}: no traj summary line")
            else:
                self.failed += int(m.group(2))
        digests = {name: _sha256(os.path.join(out_dir, name)) for name in self.workload.artifacts}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.problems.append(f"command {k}: artifacts differ from the first command's")
        if trace:
            with open(span_path) as fh:
                sample["spans"] = json.load(fh)
            if self.workload.name == "run-jsonl":
                sample["jsonl_bytes"] = os.path.getsize(os.path.join(out_dir, "vehicles.jsonl"))
        return sample

    def check_first(self) -> int:
        """Check the first command's artifacts; returns traj_sampled.csv's rows."""
        out_dir = os.path.join(self.work, "first")
        cfg = self.workload.config
        rows = 0
        try:
            if self.workload.name == "run-jsonl":
                self.problems += checks.check_run(cfg, out_dir)
            elif self.workload.name == "sweep-grid":
                self.problems += checks.check_sweep(cfg, out_dir, workloads.SWEEP_RHOS,
                                                    workloads.SWEEP_PFAS)
            else:
                found, rows = checks.check_traj(cfg, out_dir)
                self.problems += found
        except Exception as exc:  # artifacts malformed beyond what a check expects
            self.problems.append(f"checks could not read the artifacts: {exc!r}")
        return rows


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def source_record(root: str) -> Dict[str, object]:
    """What ran: engine-independent facts about the checkout and machine."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "platoonsim", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except OSError:
        commit = ""
    return {
        "commit": commit or None,
        "src_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def measure(runner: Runner, seconds: float) -> Dict[str, object]:
    """--trace 0: rounds of setup spawns and one untraced command for `seconds`.

    The spawns are spread over the run, so their median does not rest on
    the host's load during one short stretch.
    """
    setup, samples = [], []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        setup += [runner.spawn_setup() for _ in range(SETUP_PER_COMMAND)]
        samples.append(runner.command())
    while len(setup) < SETUP_SPAWNS:
        setup.append(runner.spawn_setup())
    good = [s for s in samples if s.get("rc") == 0]
    if not good:
        return {"samples": samples, "metrics": {}}
    # The fastest command, as timeit reports: this host's speed swings by up
    # to half over spans of 5-20 s as other tenants load it, and only ever
    # slows a command, so the fastest one carries the least of that.
    wall = min(s["wall_s"] for s in good)
    metrics = {
        "wall_s": wall,
        "vehicles_per_s": runner.workload.vehicles / wall,
        "setup_s": _median(setup),
        "peak_rss_mb": _median([s["peak_rss_kib"] / 1024.0 for s in good]),
    }
    fastest, median = f"fastest of {len(good)}", f"median of {len(good)}"
    stats = {"wall_s": fastest, "vehicles_per_s": fastest,
             "setup_s": f"median of {len(setup)}", "peak_rss_mb": median}
    return {"samples": samples, "setup": setup, "metrics": metrics, "stats": stats}


def measure_traced(runner: Runner, seconds: float) -> Dict[str, object]:
    """--trace 1: rounds of one untraced and one traced command (plus a traced
    sweep on the default pool on sweep-grid) for `seconds`."""
    pool_pass = runner.workload.name == "sweep-grid"
    plain, traced, pool = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        # Alternate which goes first, so drift does not favour either side.
        if len(plain) % 2:
            traced.append(runner.command(trace=True))
            plain.append(runner.command())
        else:
            plain.append(runner.command())
            traced.append(runner.command(trace=True))
        if pool_pass:
            pool.append(runner.command(trace=True, pool=True))
    return {"samples": plain + traced + pool, "plain": plain, "traced": traced,
            "pool": pool}


def layer_metrics(run: Dict[str, object], sampled_rows: int) -> Dict[str, float]:
    traced = [s for s in run["traced"] if "spans" in s]
    plain = [s for s in run["plain"] if s.get("rc") == 0]
    pool = [s for s in run["pool"] if "spans" in s]
    if not traced or not plain or (run["pool"] and not pool):
        return {}
    per_rep = [spans.layer_metrics(s["spans"], s.get("jsonl_bytes", 0), sampled_rows)
               for s in traced]
    metrics = {k: _median([m[k] for m in per_rep]) for k in per_rep[0]}
    if pool:
        # The traced commands sweep serially; the pool pass runs the same grid
        # on the default pool.
        pool_sweep = _median([spans.total(s["spans"], "sim.sweep_rows") for s in pool])
        metrics["sim.sweep.speedup_vs_serial"] = metrics["sim.sweep_rows.s"] / pool_sweep
    else:
        metrics["sim.sweep.speedup_vs_serial"] = 0.0
    metrics["trace.overhead_s"] = (_median([s["wall_s"] for s in traced])
                                   - _median([s["wall_s"] for s in plain]))
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="platoonsim benchmark (one workload)")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        if not os.path.isfile(os.path.join(root, "src", "platoonsim", "cli.py")):
            raise BenchError(f"no platoonsim sources under {root}/src")
        work = os.path.join(HERE, "work", args.workload)
        os.makedirs(work, exist_ok=True)
        runner = Runner(root, workloads.make(args.workload, args.seed), work)
        runner.first_import()
    except (OSError, ValueError, BenchError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record = dict(source_record(root), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    if args.trace:
        run = measure_traced(runner, args.seconds)
        sampled_rows = runner.check_first()
        metrics = layer_metrics(run, sampled_rows)
        wanted = bench["per_layer"]
        stats = {m["name"]: f"median of {len(run['traced'])}" for m in wanted}
    else:
        run = measure(runner, args.seconds)
        runner.check_first()
        metrics = run["metrics"]
        wanted = bench["end_to_end"]
        stats = run.get("stats", {})
    first = next((s for s in run["samples"] if "use_numba" in s), {})
    record.update(use_numba=first.get("use_numba"), numpy=first.get("numpy"),
                  commands=runner.reps, problems=runner.problems)

    names = [m["name"] for m in wanted]
    if metrics and sorted(metrics) != sorted(names):
        print(f"perfbench: metric set {sorted(metrics)} != BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 2
    for s in run["samples"]:
        s.pop("spans", None)
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(record, samples=run["samples"], setup=run.get("setup")), fh, indent=1)

    print("perfbench record: " + json.dumps(record))
    for problem in runner.problems:
        print(f"perfbench check FAILED: {problem}")
    out_metrics = {}
    for m in wanted:
        if m["name"] in metrics:
            value = metrics[m["name"]]
            out_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:40s} {value:14.6g} {m['unit']:6s} "
                  f"({stats[m['name']]})")
    print(json.dumps({
        "correct": not runner.problems and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
