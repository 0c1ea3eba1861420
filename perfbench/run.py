#!/usr/bin/env python3
"""The repository benchmark: host time of the TIMELY simulator's three uses.

Run from the repository root::

    python3 perfbench/run.py --workload forward_resnet18_b4 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each):

``forward_resnet18_b4``
    repeated batch-4 resnet_18 forwards on a resident, noiseless chip;
``program_resnet152``
    cold programming of resnet_152 into a fresh state cache, with reload;
``sweep_squeezenet_noise``
    repeated noisy squeezenet Monte-Carlo sweeps through the process pool.

Each invocation runs one workload in this fresh process, in a closed loop
with one caller, for ``--seconds``.  Inputs derive from ``--seed`` only.
Every op's outputs are checked; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, all host time:
``setup_s`` (median of several set-ups in the run), ``op_s`` (median
seconds per op: a forward, a programmed chip, or one sweep trial),
``peak_rss_mb`` (VmHWM, maximum over this process and its pool workers),
``success_rate`` (share of checked results that passed; the error rate is
one minus it) and ``rel_error`` (accuracy against the float reference).

``--trace 1`` measures half the time untraced and half traced, and reports
per-layer self times in seconds per op (a wrapper's time minus its
wrapped children's), counts per op derived from argument shapes, the
tracing overhead and the share of op time no wrapper covers.  Layers a
workload never enters read 0.

Thread budget: pool workers x BLAS threads never exceeds ``nproc``.  The
environment (cores, BLAS and its threads, kernel tier, versions) is
printed with every run and compared with the previous run of the same
workload in ``.perfbench_work/history.jsonl``; differences are flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import envinfo  # neither module loads numpy, which must see the budget first
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
#: workload names, metric names and units: BENCHMARK.json is the one source
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
#: workloads that spread over a process pool (one BLAS thread per worker)
POOLED = ("sweep_squeezenet_noise",)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _budget(workload: str) -> dict:
    nproc = len(os.sched_getaffinity(0))
    workers, blas = (nproc, 1) if workload in POOLED else (1, nproc)
    assert workers * blas <= nproc
    return {"nproc": nproc, "workers": workers, "blas_threads": blas}


class Loop:
    """Closed loop: one op after another until ``seconds`` of op time.

    Only the ops' measured regions count towards ``seconds``; the output
    checks after each op do not.
    """

    def __init__(self, workload, seconds: float, min_ops: int = 3) -> None:
        #: seconds per unit of each op (a forward, a chip, a sweep trial)
        self.times = []
        self.units = self.failed = 0
        self.wall = 0.0
        while len(self.times) < min_ops or self.wall < seconds:
            op_s, units, failed = workload.op()
            self.times.append(op_s / units)
            self.units += units
            self.failed += failed
            self.wall += op_s


def _per_layer(workload, tracer_obj, worker_dir, worker_base, untraced, traced) -> dict:
    """Per-layer metrics of the traced loop, per unit of work."""
    seconds = dict(tracer_obj.seconds)
    counts = dict(tracer_obj.counts)
    capacity = traced.wall
    if workload.name in POOLED:
        after = tracing.read_worker_totals(worker_dir)
        for kind, target in (("seconds", seconds), ("counts", counts)):
            for key, value in after[kind].items():
                target[key] = target.get(key, 0.0) + value - worker_base[kind].get(key, 0.0)
        # the workers' time is the capacity layers can account for
        capacity *= workload.workers
    values = {name: 0.0 for name in PER_LAYER}
    for key, value in {**seconds, **counts}.items():
        values[key] = value / traced.units
    values.update(workload.per_layer_extras(traced.units))
    untraced_op = statistics.median(untraced.times)
    traced_op = statistics.median(traced.times)
    values["trace.untraced_op_s"] = untraced_op
    values["trace.traced_op_s"] = traced_op
    values["trace.overhead_share"] = traced_op / untraced_op - 1.0
    values["trace.unattributed_share"] = 1.0 - sum(seconds.values()) / capacity
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "engine" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    budget = _budget(args.workload)
    # before numpy loads: BLAS reads its thread count once, at import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(budget["blas_threads"])
    # the compiled kernel tier builds into a benchmark-owned cache, and
    # every temporary file stays inside the checkout
    os.environ["REPRO_KERNEL_CACHE"] = str(WORK / "kernels")
    run_dir = WORK / f"run-{args.workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    # warms the kernel cache (a gcc build never lands in set-up or an op)
    env = envinfo.record(ROOT, budget)
    changes = envinfo.flag_changes(WORK / "history.jsonl", args.workload, env)

    workload = workloads.WORKLOADS[args.workload](args.seed, run_dir, budget["workers"])
    try:
        setups = []
        for _ in range(workload.setup_reps):
            workload.release()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        workload.prepare()
        if args.trace:
            untraced = Loop(workload, args.seconds / 2)
            tracer_obj = tracing.Tracer()
            worker_dir = run_dir / "trace-workers"
            worker_dir.mkdir()
            workload.start_tracing(tracer_obj, worker_dir)
            tracer_obj.reset()
            worker_base = tracing.read_worker_totals(worker_dir)
            traced = Loop(workload, args.seconds / 2)
            metrics = _per_layer(workload, tracer_obj, worker_dir, worker_base, untraced, traced)
            units, failed = untraced.units + traced.units, untraced.failed + traced.failed
        else:
            untraced = Loop(workload, args.seconds)
            units, failed = untraced.units, untraced.failed
        op_times = untraced.times
        peak = workload.peak_rss_mb()
    finally:
        workload.release()
        shutil.rmtree(run_dir, ignore_errors=True)

    if workload.rel_error is None:
        print("perfbench: no accuracy figure; the reference results failed", file=sys.stderr)
        return 1
    attempted = units + workload.extra_attempted
    failed += workload.extra_failed
    e2e = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(op_times),
        "peak_rss_mb": peak,
        "success_rate": (attempted - failed) / attempted,
        "rel_error": workload.rel_error,
    }

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(
        f"thread budget: {budget['workers']} worker(s) x {budget['blas_threads']} "
        f"BLAS thread(s) <= nproc {budget['nproc']}"
    )
    for change in changes:
        print(f"ENVIRONMENT CHANGED since the previous {args.workload} run: {change}")
    print(
        f"{workload.op_label} = op_s: median of {len(op_times)} ops "
        f"(min {min(op_times):.4f}, max {max(op_times):.4f})"
    )
    if args.workload in POOLED:
        print(f"trials_per_s: {1.0 / e2e['op_s']:.4f} 1/s")
    print(f"error_rate: {failed / attempted:g} ({failed} of {attempted} results)")
    for name, unit in END_TO_END.items():
        print(f"{name}: {e2e[name]:.6g} {unit}")
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"{name}: {metrics[name]:.6g} {unit}")
        reported = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        reported = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": reported}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
