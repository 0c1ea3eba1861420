"""Simulator CLI (``python -m repro.sim``).

* ``estimate`` (default) — chip-level energy / latency / area comparison of
  any zoo model on the TIMELY, PRIME-like and ISAAC-like configurations of
  :mod:`repro.energy.tables`, optionally with cross-layer-pipelined latency
  and ``--json`` output;
* ``run`` — functional simulation through :mod:`repro.engine`, reporting
  the end-to-end output error against the float reference;
* ``program`` — program a model once into the programmed-state cache;
* ``sweep`` — the resumable Monte-Carlo accuracy sweep of :mod:`repro.sweep`.
"""

from repro.sim.cli import (
    build_parser,
    estimate_to_dict,
    format_comparison,
    format_per_layer,
    main,
)

__all__ = [
    "main",
    "build_parser",
    "estimate_to_dict",
    "format_comparison",
    "format_per_layer",
]
