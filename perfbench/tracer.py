"""Span recorder that wraps the public functions each layer exposes.

The benchmark measures the simulator from outside: nothing under ``src/``
knows it is being traced.  :func:`install` replaces each wrapped name
*where its caller looks it up* (for example ``readout_fused`` on
``repro.engine.packed``, not only on ``repro.kernels.dispatch``) with a
wrapper that records the call's self time — its wall time minus the time
of wrapped calls nested inside it — and any counts derived from the
call's argument shapes.

Totals live in one :class:`Tracer` per process.  Sweep workers forked
after :func:`install` inherit the wrappers; each worker resets the copy it
inherited on first use and dumps its cumulative totals to a JSON file
after every chunk, which the parent sums (:func:`read_worker_totals`).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Self-time and count totals of the wrapped layers in one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: wrapped-children time of every active span, innermost last
        self._stack: List[float] = []

    def reset(self) -> None:
        self.pid = os.getpid()
        self.seconds.clear()
        self.counts.clear()
        self._stack.clear()

    def adopt_process(self) -> None:
        """Forget totals inherited across ``fork`` (called in the child)."""
        if self.pid != os.getpid():
            self.reset()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {"seconds": dict(self.seconds), "counts": dict(self.counts)}

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[..., Dict[str, float]]] = None,
    ) -> Callable:
        """``fn`` recording its self time under ``name``.

        ``count(result, *args, **kwargs)`` returns counts to add, derived
        from the call's arguments or result shapes.
        """
        stack = self._stack
        seconds = self.seconds
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                seconds[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                for key, value in count(result, *args, **kwargs).items():
                    counts[key] += value
            return result

        return traced


# -- count helpers (argument shapes only, never array contents) ------------


def _gemm_flops(result, matmul, codes, *args, **kwargs) -> Dict[str, float]:
    slices = matmul.n_slices if matmul.mode == "analog" else 1
    flop = (
        2.0
        * codes.shape[0]
        * matmul.n_groups
        * matmul.rows_needed
        * matmul.group_cols
        * slices
    )
    return {"engine.gemm_gflop": flop / 1e9}


def _readout_elems(result, charges, *args, **kwargs) -> Dict[str, float]:
    return {"kernels.readout_elems": float(charges.size)}


def _im2col_bytes(result, *args, **kwargs) -> Dict[str, float]:
    return {"kernels.im2col_bytes": float(result[0].nbytes)}


def _one_layer(result, *args, **kwargs) -> Dict[str, float]:
    return {"engine.compute_layers": 1.0}


def _state_bytes(result, state, *args, **kwargs) -> Dict[str, float]:
    return {"engine.state.bytes": float(state.nbytes)}


def _targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, metric, count)`` for every wrapped name."""
    import repro.circuits.noise as noise
    import repro.engine.executor as executor
    import repro.engine.packed as packed
    import repro.engine.params as params
    import repro.engine.state as state
    import repro.sweep.pool as pool
    import repro.sweep.store as store

    targets: List[Tuple[object, str, str, Optional[Callable]]] = [
        # forward hot path
        (executor.NetworkExecutor, "run", "engine.executor.run_s", None),
        (executor._MappedComputeLayer, "forward", "engine.executor.layer_s", _one_layer),
        (packed.PackedMatmul, "matmul", "engine.packed.matmul_s", _gemm_flops),
        (packed, "readout_fused", "kernels.readout_s", _readout_elems),
        (executor, "im2col_pack", "kernels.im2col_s", _im2col_bytes),
        (executor, "quantize_unsigned_batch", "nn.quantize_s", None),
        (executor, "apply_aux_batched", "engine.aux_s", None),
        (executor, "reference_forward_batch", "engine.reference.forward_s", None),
        # programming and the state store
        (params.NetworkParams, "__init__", "engine.params_s", None),
        (executor, "program_layer", "engine.program_layer_s", None),
        (executor, "quantize_symmetric_per_channel", "nn.quantize_weights_s", None),
        (executor, "pack_weights", "engine.pack_weights_s", None),
        (state.ProgrammedState, "save", "engine.state.save_s", _state_bytes),
        (state.ProgrammedState, "load", "engine.state.load_s", None),
        # per-trial wiring and noise
        (executor.NetworkExecutor, "__init__", "engine.wire_s", None),
        (noise.NoiseStream, "apply_conductance_variation", "circuits.noise.variation_s", None),
        (
            noise.HardwareNoiseConfig,
            "apply_conductance_variation",
            "circuits.noise.variation_s",
            None,
        ),
        (pool, "run_trial", "sweep.run_trial_s", None),
    ]
    for method in ("load", "clear", "append", "rewrite"):
        targets.append((store.SweepStore, method, "sweep.store_s", None))
    return targets


def install(tracer: Tracer, worker_dir: Optional[Path] = None) -> None:
    """Wrap every target name in place (once per process).

    With ``worker_dir`` set, ``repro.sweep.pool.run_trial_chunk`` is also
    wrapped so that pool workers forked afterwards dump their totals to
    ``worker_dir/<pid>.json`` after each chunk.
    """
    for owner, attr, metric, count in _targets():
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(metric, raw.__func__, count)))
        else:
            setattr(owner, attr, tracer.wrap(metric, raw, count))
    if worker_dir is not None:
        import repro.sweep.pool as pool

        chunk = pool.run_trial_chunk

        @functools.wraps(chunk)
        def run_trial_chunk(specs, snapshot_path):
            tracer.adopt_process()
            try:
                return chunk(specs, snapshot_path)
            finally:
                path = worker_dir / f"{os.getpid()}.json"
                tmp = path.with_suffix(".tmp")
                tmp.write_text(json.dumps(tracer.snapshot()))
                os.replace(tmp, path)

        # pickled by reference: the forked workers resolve the same name
        pool.run_trial_chunk = run_trial_chunk


def read_worker_totals(worker_dir: Path) -> Dict[str, Dict[str, float]]:
    """Sum of the cumulative totals every worker has dumped so far."""
    total: Dict[str, Dict[str, float]] = {"seconds": defaultdict(float), "counts": defaultdict(float)}
    for path in sorted(worker_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        for kind in ("seconds", "counts"):
            for key, value in doc[kind].items():
                total[kind][key] += value
    return total
