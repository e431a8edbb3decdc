"""The benchmark's layer hooks still find the names they wrap.

perfbench/spans.py times each layer by rebinding module attributes
(sim.run, _kernels.simulate_arrivals, cli.approx_mean_delay, ...) to
span-recording wrappers. A renamed attribute would otherwise show only
when the benchmark runs, and a layer that planning reaches past its hooked
name would read 0 there. This test installs every hook, runs a tiny sweep,
approx, run and traj through cli.main, and checks the spans they record.
"""
import importlib.util
import json
import os

from platoonsim import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spans_module():
    """perfbench/spans.py as a module, without putting perfbench on sys.path."""
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_wrap_live_names(tmp_path, monkeypatch):
    spans = load_spans_module()

    class RestoringTracer(spans.Tracer):
        def install(self, owner, attr, name, attrs=None):
            # Record the original so monkeypatch puts it back after the test.
            monkeypatch.setattr(owner, attr, getattr(owner, attr))
            super().install(owner, attr, name, attrs)

    tracer = RestoringTracer()
    spans.install_layers(tracer)

    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"n": 2, "lambda": [0.25, 0.25], "horizon_vehicles": 400}))
    common = ["--config", str(path), "--out", str(tmp_path / "out"), "--pfa", "exhaustive"]
    assert cli.main(["sweep", "--rho", "0.3:0.4:0.1"] + common) == 0
    assert cli.main(["approx", "--rho", "0.5:0.5:0.1"] + common) == 0

    names = [s["name"] for s in tracer.spans]
    for name in ("cli.cmd_sweep", "core.load_config", "sim.sweep_rows", "sim.run",
                 "sim.make_arrivals", "kernels.simulate_arrivals", "sim.summarize",
                 "cli.write_csv"):
        assert name in names, name
    # Two loads x two lanes through sim, one load x two lanes through cli.
    assert names.count("polling.approx_mean_delay") == 4 + 2
    assert names.count("kernels.simulate_arrivals") == 2

    # A run: its layers, and the artifact time that run-jsonl's metrics read.
    first = len(tracer.spans)
    run_out = tmp_path / "run"
    assert cli.main(["run", "--config", str(path), "--out", str(run_out), "--pfa", "gated"]) == 0
    run_spans = tracer.spans[first:]
    names = [s["name"] for s in run_spans]
    for name in ("cli.cmd_run", "core.load_config", "sim.run", "sim.make_arrivals",
                 "kernels.simulate_arrivals", "sim.summarize", "cli.write_csv"):
        assert name in names, name
    metrics = spans.layer_metrics(run_spans, (run_out / "vehicles.jsonl").stat().st_size, 0)
    assert metrics["cli.run.artifacts_s"] > 0
    assert metrics["kernels.gated.us_per_vehicle"] > 0

    # Five scripted arrivals, two and three on the two lanes: three
    # same-lane pairs, each checked once while planning.
    traj = tmp_path / "traj.json"
    traj.write_text(json.dumps({"n": 2, "lambda": [0.25, 0.25], "pfa": "exhaustive",
                                "arrivals": [[1, 0.0], [2, 0.3], [1, 0.9], [2, 2.0], [2, 2.5]]}))
    assert cli.main(["traj", "--config", str(traj), "--out", str(tmp_path / "traj")]) == 0
    names = [s["name"] for s in tracer.spans]
    for name in ("cli.cmd_traj", "spa.plan_schedule", "spa.write_segments_csv",
                 "spa.write_sampled_csv"):
        assert name in names, name
    assert names.count("spa.verify_separation") == 3
