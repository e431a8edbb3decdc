"""Platoon scheduling for a signal-free intersection.

Import what you use from the submodules; the package itself re-exports
nothing. Modules by role:

- core: vehicles, parameters, errors, run configuration, artifact writers.
- pfa: the object-level reference for the three scheduling disciplines
  (exhaustive, gated, batch): its schedule and platoon book, the
  schedulers, invariant checks and the replay loop, which takes the
  kernel's arguments. No command runs it; the tests hold the kernel to it
  bit for bit.
- spa: closed-form speed profiles realizing a schedule (minimum distance
  shortfall or minimum acceleration effort), feasibility and separation
  checks, CSV export.
- polling: light/heavy-traffic mean-delay limits and the interpolation
  between them, per lane and discipline.
- sim: discrete-event runs through one body (run, on the list-based
  kernel in _kernels that every command uses; run_reference, on pfa),
  arrival streams, batch-means statistics, load sweeps.
- cli: the `platoonsim` command (run / sweep / approx / traj).
"""

__version__ = "0.1.0"
