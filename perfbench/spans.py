"""In-memory spans around the package's public calls, recorded from outside.

Tracer.install replaces a module attribute with a wrapper that records one
span per call: name, start, end, parent span, thread, and a few attributes
taken from the arguments. The package runs unmodified; only the names its
modules look up at call time are rebound, and only in a traced run.
Spans stay in memory until the run ends, then go to a JSON file.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._main_thread = threading.get_ident()

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, owner: object, attr: str, name: str,
                attrs: Optional[Callable[..., Dict[str, object]]] = None) -> None:
        """Rebind owner.attr to a wrapper that records a span named name."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # A worker thread's first span is caused by whatever the main
            # thread is inside (the sweep waiting on its pool).
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span_id = next(tracer._ids)
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": threading.get_ident(), "attrs": extra,
                })

        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from platoonsim import _kernels, cli, sim, spa

    def run_attrs(config, *args, **kwargs):
        return {"pfa": config.pfa, "rho": config.params.rho}

    def kernel_attrs(arr_a, *args, **kwargs):
        return {"vehicles": int(len(arr_a))}

    for attr in ("cmd_run", "cmd_sweep", "cmd_traj"):
        tracer.install(cli, attr, "cli." + attr)
    tracer.install(cli, "load_config", "core.load_config")
    tracer.install(cli, "_write_csv", "cli.write_csv")
    tracer.install(cli, "approx_mean_delay", "polling.approx_mean_delay")
    tracer.install(sim, "approx_mean_delay", "polling.approx_mean_delay")
    tracer.install(sim, "make_arrivals", "sim.make_arrivals")
    tracer.install(sim, "_summarize", "sim.summarize")
    tracer.install(sim, "sweep_rows", "sim.sweep_rows")
    tracer.install(sim, "run", "sim.run", run_attrs)
    tracer.install(sim, "run_reference", "pfa.run_reference", run_attrs)
    tracer.install(_kernels, "simulate_arrivals", "kernels.simulate_arrivals", kernel_attrs)
    tracer.install(spa, "plan_schedule", "spa.plan_schedule")
    tracer.install(spa, "verify_separation", "spa.verify_separation")
    tracer.install(spa, "write_segments_csv", "spa.write_segments_csv")
    tracer.install(spa, "write_sampled_csv", "spa.write_sampled_csv")


# ===================== metrics from spans =====================

def _dur(span: Dict[str, object]) -> float:
    return float(span["end"]) - float(span["start"])


def total(spans: List[Dict[str, object]], name: str) -> float:
    return sum(_dur(s) for s in spans if s["name"] == name)


def _count(spans: List[Dict[str, object]], name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def _children_time(spans: List[Dict[str, object]], parent: Dict[str, object],
                   names: tuple) -> float:
    """Time of parent's same-thread children with one of names."""
    return sum(
        _dur(s) for s in spans
        if s["parent"] == parent["id"] and s["thread"] == parent["thread"]
        and s["name"] in names
    )


def kernel_metrics(spans: List[Dict[str, object]]) -> Dict[str, float]:
    """Scheduling-kernel time per vehicle, overall, by discipline and by load."""
    runs = {s["id"]: s for s in spans if s["name"] == "sim.run"}
    groups = {
        "kernels": lambda r: True,
        "kernels.exhaustive": lambda r: r["attrs"]["pfa"] == "exhaustive",
        "kernels.gated": lambda r: r["attrs"]["pfa"] == "gated",
        "kernels.batch": lambda r: r["attrs"]["pfa"] == "batch",
        "kernels.low_load": lambda r: r["attrs"]["rho"] <= 0.5 + 1e-9,
        "kernels.high_load": lambda r: r["attrs"]["rho"] >= 0.8 - 1e-9,
    }
    out: Dict[str, float] = {}
    kernels = [s for s in spans if s["name"] == "kernels.simulate_arrivals"]
    for key, keep in groups.items():
        sel = [s for s in kernels if s["parent"] in runs and keep(runs[s["parent"]])]
        vehicles = sum(int(s["attrs"]["vehicles"]) for s in sel)
        seconds = sum(_dur(s) for s in sel)
        out[key + ".us_per_vehicle"] = 1e6 * seconds / vehicles if vehicles else 0.0
    out["kernels.simulate_arrivals.s"] = sum(_dur(s) for s in kernels)
    out["kernels.vehicles"] = sum(int(s["attrs"]["vehicles"]) for s in kernels)
    return out


def layer_metrics(spans: List[Dict[str, object]], jsonl_bytes: int,
                  sampled_rows: int) -> Dict[str, float]:
    """Every per-layer metric that one traced command yields.

    A layer the command never reaches reads 0. jsonl_bytes is the size of
    vehicles.jsonl and sampled_rows the data rows of traj_sampled.csv, both
    0 when the command writes no such file.
    """
    m: Dict[str, float] = {}
    for name in ("core.load_config", "sim.make_arrivals", "sim.summarize",
                 "sim.sweep_rows", "pfa.run_reference", "polling.approx_mean_delay",
                 "cli.write_csv", "spa.verify_separation", "spa.write_sampled_csv",
                 "spa.write_segments_csv"):
        m[name + ".s"] = total(spans, name)
    m["polling.approx_mean_delay.calls"] = _count(spans, "polling.approx_mean_delay")
    m["spa.verify_separation.calls"] = _count(spans, "spa.verify_separation")
    m.update(kernel_metrics(spans))

    artifacts = sum(
        _dur(s) - _children_time(spans, s, ("sim.run", "core.load_config"))
        for s in spans if s["name"] == "cli.cmd_run"
    )
    m["cli.run.artifacts_s"] = artifacts
    mb = jsonl_bytes / 2 ** 20
    m["cli.vehicles_jsonl.mb"] = mb
    m["cli.vehicles_jsonl.mb_per_s"] = mb / artifacts if artifacts > 0 and mb else 0.0

    m["spa.plan_schedule.self_s"] = sum(
        _dur(s) - _children_time(spans, s, ("spa.verify_separation",))
        for s in spans if s["name"] == "spa.plan_schedule"
    )
    m["spa.sampled_rows"] = sampled_rows
    write_s = m["spa.write_sampled_csv.s"]
    m["spa.write_sampled_csv.rows_per_s"] = sampled_rows / write_s if write_s > 0 else 0.0
    return m
