"""Monte-Carlo parameter-sweep engine over the functional simulator.

Reproduces the paper's Section-V "accuracy vs. analog error" study at
scale: a grid of (model x noise-scale x trial-seed x cell-bits x compute
dtype x stuck fraction) engine trials runs through a process pool, every completed trial lands in
an incremental JSON-lines store keyed by content (so interrupted sweeps
resume and completed ones are free to re-invoke), and the rows reduce to
mean / p95 relative error per noise scale with per-layer attribution.

* :mod:`repro.sweep.grid` — :class:`TrialSpec` / :class:`SweepGrid`,
  content keys and per-trial :class:`~repro.context.SimContext` derivation,
* :mod:`repro.sweep.store` — the resumable :class:`SweepStore`,
* :mod:`repro.sweep.pool` — :func:`run_trial` / :func:`run_sweep` workers,
* :mod:`repro.sweep.stats` — :func:`summarize` / :func:`format_summary`.

The pool is program-once/run-many: each distinct (model, arch, mode,
seed, compute dtype) group is programmed a single time into a
:class:`repro.engine.ProgrammedState` snapshot that every trial — across
noise scales and worker processes — executes from, instead of re-building
the chip per trial.

The correctness prerequisite is the stateless noise seeding of
:mod:`repro.circuits.noise`: every draw derives from ``(seed, salt)``, so a
pool worker computes exactly the row a serial run would (per-trial
programming variation is applied on top of the shared base conductances
from the trial's own streams) and equal grids yield byte-identical stores
at any worker count.  CLI: ``python -m repro.sim sweep``.
"""

from repro.sweep.grid import SweepGrid, TrialSpec
from repro.sweep.pool import (
    SweepOutcome,
    run_sweep,
    run_trial,
    run_trial_chunk,
    warm_pool,
)
from repro.sweep.stats import format_summary, summarize
from repro.sweep.store import SweepStore

__all__ = [
    "SweepGrid",
    "TrialSpec",
    "SweepStore",
    "SweepOutcome",
    "run_sweep",
    "run_trial",
    "run_trial_chunk",
    "warm_pool",
    "summarize",
    "format_summary",
]
