"""Run one platoonsim CLI command in this process and report its cost.

    python3 perfbench/child.py RESULT.json [--trace SPANS.json] -- CLI ARGS...

Imports platoonsim.cli first (that is set-up, not timed), then times
cli.main(ARGS) alone. RESULT.json receives the wall time, the exit code,
the peak resident memory and the engine path. With --trace, the layer
boundaries are wrapped before the command starts and the spans are
written to SPANS.json after it ends.
"""
from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    result_path = opts[0]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    import numpy
    import platoonsim.cli as cli
    from platoonsim import _kernels

    tracer = None
    if trace_path is not None:
        from spans import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)

    start, cpu_start = time.perf_counter(), time.process_time()
    rc = cli.main(cli_args)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    sys.stdout.flush()

    if tracer is not None:
        tracer.dump(trace_path)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "wall_s": wall,
            "cpu_s": cpu,
            "rc": rc,
            # Own peak plus the largest peak among processes it started
            # and waited for (none today: the sweep pool uses threads).
            "peak_rss_kib": own + kids,
            "use_numba": bool(_kernels.USE_NUMBA),
            "numpy": numpy.__version__,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
