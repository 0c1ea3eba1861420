"""The three benchmark workloads: one closed loop with one caller each.

Every workload follows the same protocol, driven by ``run.py``:

``setup()``
    The one-time cost a user pays before the first op (timed, repeated;
    ``release()`` drops the previous repetition untimed).
``prepare()``
    Untimed warm-up and the reference results later ops are checked
    against.
``op() -> (seconds, units, failed)``
    One operation.  It times only its own measured region and checks its
    outputs afterwards; ``units`` is how many results it produced (one
    forward, one programmed chip, or the trials of one sweep) and
    ``failed`` how many of them failed their check.
``start_tracing(tracer, worker_dir)``
    Switch the rest of the run to traced execution.

Only public entry points of ``repro`` are called; tracing wraps them from
``tracer.py``.  Inputs derive from the seed alone.  Where the seed would
move ``rel_error`` by more than its bound from run to run, the chip is
fixed instead (one programmed network, many inputs): the forward's
weights, and the sweep's whole Monte-Carlo campaign, whose accuracy is the
reproduced result rather than an input.
"""

from __future__ import annotations

import math
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import tracer as tracing

from repro.context import SimContext
from repro.engine import (
    NetworkExecutor,
    NetworkParams,
    ProgrammedState,
    ProgrammedStateCache,
    program,
)
from repro.nn.models import build_model

#: end-to-end relative error a noiseless 8-bit resnet_18 forward must stay
#: under; the quantisation floor measured on this engine is ~1.8e-2
FORWARD_REL_ERROR_BOUND = 0.03
#: weight seed of the forward's chip and of the sweep's campaign
FIXED_SEED = 0
#: the same bound for the programmed weights of resnet_152 against the
#: float weights (per-channel 8-bit quantisation alone)
WEIGHT_REL_ERROR_BOUND = 0.02


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set (VmHWM) of a process in MB, 0 if unreadable."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class Workload:
    """Defaults shared by every workload."""

    name = ""
    #: what ``op_s`` measures on this workload, as the report names it
    op_label = "op_s"
    setup_reps = 3

    def __init__(self, seed: int, work: Path, workers: int) -> None:
        self.seed = seed
        self.work = work
        self.workers = workers
        self.rel_error: Optional[float] = None
        #: checks outside the timed ops: (attempted, failed)
        self.extra_attempted = 0
        self.extra_failed = 0

    def release(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def start_tracing(self, tracer: tracing.Tracer, worker_dir: Path) -> None:
        tracing.install(tracer)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def per_layer_extras(self, units: int) -> Dict[str, float]:
        return {}

    def _check(self, ok: bool) -> None:
        self.extra_attempted += 1
        self.extra_failed += 0 if ok else 1


class ForwardResnet18(Workload):
    """Repeated batch-4 resnet_18 forwards on a resident programmed chip.

    Exercises the packed hot path (GEMM, layout, read-out, im2col) and
    almost nothing else: no programming, noise, pool or disk work.
    """

    name = "forward_resnet18_b4"
    op_label = "forward_s"
    setup_reps = 5
    batch = 4

    def release(self) -> None:
        self.executor = None
        self.x = None

    def setup(self) -> None:
        network = build_model("resnet_18")
        ctx = SimContext(seed=FIXED_SEED)  # analog, noiseless, float64
        params = NetworkParams(network, FIXED_SEED)
        state = program(network, ctx, "analog", params=params)
        self.executor = NetworkExecutor.from_state(
            state, network=network, ctx=ctx, params=params
        )
        shape = network.input_shape
        self.x = np.random.default_rng(self.seed).uniform(
            0.0, 1.0, size=(self.batch, shape.channels, shape.height, shape.width)
        )

    def prepare(self) -> None:
        validated = self.executor.run(self.x, validate=True)
        self.first = validated.output
        self.rel_error = validated.rel_error
        self._check(math.isfinite(self.rel_error) and self.rel_error <= FORWARD_REL_ERROR_BOUND)
        # warm-up op: the engine path must not depend on validation
        warm = self.executor.run(self.x, validate=False).output
        self._check(np.array_equal(warm, self.first))

    def op(self) -> Tuple[float, int, int]:
        start = time.perf_counter()
        result = self.executor.run(self.x, validate=False)
        seconds = time.perf_counter() - start
        same = result.output.dtype == self.first.dtype and np.array_equal(
            result.output, self.first
        )
        return seconds, 1, 0 if same else 1


def _crossbars(state: ProgrammedState) -> int:
    """Crossbars a programmed state occupies, from its payload shapes."""
    arch = state.arch
    total = 0
    for layer in state.layers:
        payload = layer.encoded if layer.encoded is not None else layer.conductances[0]
        groups, rows, cols = payload.shape
        total += groups * math.ceil(rows / arch.rows) * math.ceil(cols / arch.weights_per_col_tile)
    return total


def _same_layer(a, b) -> bool:
    """Every tensor of two layer states is equal in dtype, shape and value."""
    pairs = [(a.w_scales, b.w_scales), (a.bias, b.bias), (a.encoded, b.encoded)]
    if len(a.conductances) != len(b.conductances):
        return False
    pairs += list(zip(a.conductances, b.conductances))
    for x, y in pairs:
        if (x is None) != (y is None):
            return False
        if x is not None and (x.dtype != y.dtype or not np.array_equal(x, y)):
            return False
    return True


def programmed_weight_error(state: ProgrammedState, params) -> Tuple[float, bool]:
    """Decode the conductances back to weights; compare with the floats.

    Returns the network's L2 relative error of the decoded weights against
    the float weights, and whether every decoded level is exactly the
    per-channel quantised weight the chip should hold.
    """
    arch = state.arch
    cell = arch.cell_spec()
    offset = 2 ** (arch.weight_bits - 1)
    qmax = offset - 1
    err_sq = ref_sq = 0.0
    exact = True
    for layer in state.layers:
        encoded = None
        for s, conductances in enumerate(layer.conductances):
            levels = (np.asarray(conductances, dtype=np.float64) - cell.g_min_s) / cell.g_step_s
            rounded = np.rint(levels)
            exact &= bool(np.max(np.abs(levels - rounded)) < 1e-6)
            part = rounded.astype(np.int64) << (arch.cell_bits * s)
            encoded = part if encoded is None else encoded + part
        q = encoded - offset  # (groups, rows, group_cols)
        groups, rows, cols = q.shape
        w = params[layer.name].weights
        w = w.reshape(groups, cols, rows).transpose(0, 2, 1)
        scales = layer.w_scales.reshape(groups, 1, cols)
        max_abs = np.abs(w).max(axis=1, keepdims=True)
        exact &= bool(np.allclose(scales, np.where(max_abs > 0, max_abs / qmax, 1.0), rtol=1e-12, atol=0.0))
        exact &= bool(np.array_equal(q, np.clip(np.rint(w / scales), -qmax, qmax)))
        err_sq += float(np.sum((q * scales - w) ** 2))
        ref_sq += float(np.sum(w**2))
    return math.sqrt(err_sq / ref_sq), exact


class ProgramResnet152(Workload):
    """Cold programming of resnet_152 into a fresh on-disk state cache.

    The float weights are the input, generated from the seed in set-up.
    One op is the ``repro.sim program`` path from those weights — quantise,
    ``pack_weights``, save — ending with a reload through a fresh cache.
    It is the write side beside the forward's read side and never enters
    the forward hot path.
    """

    name = "program_resnet152"
    op_label = "program_s"

    def release(self) -> None:
        self.params = None

    def setup(self) -> None:
        self.network = build_model("resnet_152")
        self.ctx = SimContext(seed=self.seed)
        self.expected_crossbars = self.ctx.map_network(self.network).total_crossbars
        self.params = NetworkParams(self.network, self.seed)

    def op(self) -> Tuple[float, int, int]:
        root = self.work / "states"
        shutil.rmtree(root, ignore_errors=True)
        start = time.perf_counter()
        state, source = ProgrammedStateCache(root=root).get_or_program(
            self.network, self.ctx, "analog", params=self.params
        )
        reloaded = ProgrammedStateCache(root=root, mmap=True).get(state.key)
        seconds = time.perf_counter() - start
        ok = (
            source == "programmed"
            and reloaded is not None
            and _crossbars(state) == self.expected_crossbars
            and _crossbars(reloaded) == self.expected_crossbars
            and len(reloaded.layers) == len(state.layers)
        )
        if ok:
            # fresh handles per layer keep the comparison's RSS to one layer
            for i, layer in enumerate(state.layers):
                if not _same_layer(layer, reloaded.stream_layer(i)):
                    ok = False
                    break
        if self.rel_error is None:  # once per run: decode against the floats
            error, exact = programmed_weight_error(state, self.params)
            self.rel_error = error
            ok = ok and exact and error <= WEIGHT_REL_ERROR_BOUND
        del state, reloaded
        shutil.rmtree(root, ignore_errors=True)
        return seconds, 1, 0 if ok else 1


class SweepSqueezenetNoise(Workload):
    """Repeated noisy Monte-Carlo sweeps of squeezenet through the pool.

    Batch 1, per-trial programming variation, DTC jitter on, a validating
    float reference per trial, the process pool and the result store; the
    chip is programmed once in set-up.
    """

    name = "sweep_squeezenet_noise"
    op_label = "trial_s"
    setup_reps = 9  # pool start-up is noisy; repetitions steady its median
    trials = 8
    noise_scales = (0.5, 1.0)

    def __init__(self, seed: int, work: Path, workers: int) -> None:
        super().__init__(seed, work, workers)
        from repro.sweep import SweepGrid

        self.grid = SweepGrid(
            models=("squeezenet",),
            noise_scales=self.noise_scales,
            trials=self.trials,
            seed=FIXED_SEED,
        )
        self.pool = None
        self.pool_startup_s: List[float] = []
        self.worker_peak_mb = 0.0
        self.sweeps = 0
        self.program_s = 0.0
        self.executed = self.computed = 0

    def _sample_worker_peaks(self) -> None:
        if self.pool is not None:
            for proc in list(getattr(self.pool, "_processes", {}).values()):
                self.worker_peak_mb = max(self.worker_peak_mb, vm_hwm_mb(str(proc.pid)))

    def release(self) -> None:
        if self.pool is not None:
            self._sample_worker_peaks()
            self.pool.shutdown(wait=True)
            self.pool = None

    def _start_pool(self) -> None:
        from repro.sweep import warm_pool

        pool, startup = warm_pool(self.workers, (str(self.snapshot),))
        self.pool = pool
        self.pool_startup_s.append(startup)

    def setup(self) -> None:
        root = self.work / "sweep"
        shutil.rmtree(root, ignore_errors=True)
        self.cache = ProgrammedStateCache(root=root / "states")
        spec = self.grid.specs()[0]
        state, _ = self.cache.get_or_program(build_model(spec.model), spec.context(), spec.mode)
        self.snapshot = self.cache.ensure_on_disk(state)
        self._start_pool()

    def _sweep(self) -> Tuple[float, object, bytes]:
        from repro.sweep import SweepStore, run_sweep

        self.sweeps += 1
        store = SweepStore(self.work / "sweep" / f"store-{self.sweeps}.jsonl")
        start = time.perf_counter()
        outcome = run_sweep(
            self.grid, store, workers=self.workers, cache=self.cache, pool=self.pool
        )
        seconds = time.perf_counter() - start
        data = store.path.read_bytes()
        store.path.unlink()
        return seconds, outcome, data

    def _bad_rows(self, outcome) -> int:
        return sum(
            1
            for row in outcome.rows
            if "error" in row or not math.isfinite(row.get("rel_error", float("nan")))
        )

    def prepare(self) -> None:
        # the first sweep in fresh workers is the slowest: warm up, and keep
        # its compacted store as the byte-identity reference
        _, outcome, self.reference_store = self._sweep()
        bad = self._bad_rows(outcome)
        self.extra_attempted += outcome.computed
        self.extra_failed += bad
        by_scale: Dict[float, List[float]] = {}
        for row in outcome.rows:
            by_scale.setdefault(row["noise_scale"], []).append(row["rel_error"])
        if bad == 0:
            means = [statistics.fmean(by_scale[s]) for s in self.noise_scales]
            self.rel_error = statistics.fmean(r["rel_error"] for r in outcome.rows)
            self._check(all(a < b for a, b in zip(means, means[1:])))

    def op(self) -> Tuple[float, int, int]:
        seconds, outcome, data = self._sweep()
        self.program_s += outcome.program_s
        self.executed += outcome.executed
        self.computed += outcome.computed
        if outcome.failed or data != self.reference_store:
            return seconds, outcome.computed, outcome.computed
        return seconds, outcome.computed, self._bad_rows(outcome)

    def start_tracing(self, tracer: tracing.Tracer, worker_dir: Path) -> None:
        tracing.install(tracer, worker_dir)
        # workers fork from a traced parent, so they inherit the wrappers
        self.release()
        self._start_pool()
        self._sweep()
        self.program_s = 0.0
        self.executed = self.computed = 0

    def peak_rss_mb(self) -> float:
        self._sample_worker_peaks()
        return max(vm_hwm_mb(), self.worker_peak_mb)

    def per_layer_extras(self, units: int) -> Dict[str, float]:
        return {
            "sweep.program_s": self.program_s / max(1, units),
            "sweep.pool_startup_s": statistics.median(self.pool_startup_s),
            "sweep.executed": self.executed / max(1, self.computed),
        }


WORKLOADS = {
    cls.name: cls for cls in (ForwardResnet18, ProgramResnet152, SweepSqueezenetNoise)
}
