"""Functional simulation engine: execute networks through mapped crossbars.

Where :mod:`repro.mapping` and :mod:`repro.energy` *price* a network on the
TIMELY architecture, this package *runs* one: real activations are pushed
through the same crossbar tiling via the behavioural time-domain circuit
chains of :mod:`repro.circuits.timing`, and the result is validated against
the pure-numpy float reference.  See :class:`NetworkExecutor` for the
pipeline and the ``run`` subcommand of ``python -m repro.sim`` for the CLI.

* :mod:`repro.engine.params` — deterministic weight/bias generation,
* :mod:`repro.engine.reference` — the exact float forward pass
  (:func:`reference_forward_batch`, batch-first) and its one-layer step
  (:func:`reference_layer`), which validated runs walk beside the engine,
* :mod:`repro.engine.packed` — packed per-slice vectorized execution
  (one batched matmul per layer slice),
* :mod:`repro.engine.state` — the programmed-chip artifact
  (:class:`ProgrammedState`): save/load/mmap, content keys and the
  LRU + on-disk :class:`ProgrammedStateCache`,
* :mod:`repro.engine.executor` — the whole-network orchestrator, split
  into a one-time :func:`program` phase and cheap
  :meth:`NetworkExecutor.from_state` wiring.

All of it is driven by one :class:`repro.context.SimContext`.
"""

from repro.engine.errors import EngineError
from repro.faults import FaultModel, FaultReport
from repro.engine.executor import (
    ExecutionResult,
    LayerTrace,
    NetworkExecutor,
    compute_reference_outputs,
    program,
    relative_error,
    run_network,
)
from repro.engine.packed import PackedMatmul
from repro.engine.params import LayerParams, NetworkParams
from repro.engine.reference import (
    reference_forward_batch,
    reference_layer,
    validate_supported,
)
from repro.engine.state import (
    LayerState,
    ProgrammedState,
    ProgrammedStateCache,
    state_key,
)

__all__ = [
    "EngineError",
    "FaultModel",
    "FaultReport",
    "ExecutionResult",
    "LayerTrace",
    "LayerState",
    "NetworkExecutor",
    "ProgrammedState",
    "ProgrammedStateCache",
    "program",
    "compute_reference_outputs",
    "run_network",
    "relative_error",
    "state_key",
    "LayerParams",
    "NetworkParams",
    "PackedMatmul",
    "reference_forward_batch",
    "reference_layer",
    "validate_supported",
]
