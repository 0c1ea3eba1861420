"""Command-line interface of the simulator.

Five subcommands share one :class:`repro.context.SimContext`:

* ``estimate`` (the default when no subcommand is given, preserving the
  historical ``python -m repro.sim --model ...`` invocation) — chip-level
  energy / latency / area comparison across the TIMELY, PRIME-like and
  ISAAC-like configurations, optionally with cross-layer-pipelined latency
  and JSON output;
* ``run`` — functional simulation: execute a model through its mapped
  crossbars with the time-domain circuit chains and report the end-to-end
  output error against the float reference; ``--state-cache`` serves the
  programming phase from the content-keyed programmed-state cache,
  ``--compute-dtype float32`` / ``--chunk-bytes`` bound arithmetic cost
  and read-out transients, and ``--stream`` executes layer-by-layer from
  the cached state's backing files (peak wired weights = largest layer);
* ``program`` — the one-time phase alone: program a model's weights onto
  crossbars and persist the chip state into the cache directory that later
  ``run --state-cache`` / ``sweep --state-cache`` invocations hit;
* ``sweep`` — the Monte-Carlo accuracy study: a (model x noise-scale x
  trial x cell-bits x compute-dtype x stuck-fraction) grid through a
  resumable process-pool sweep (:mod:`repro.sweep`) that programs each
  distinct chip state once and shares it across trials, reduced to
  mean/p95 relative error per scale;
* ``bench`` — the tracked performance smoke: vgg_d estimation plus a cnn_1
  engine run, the im2col micro-benchmark, the program-once sweep legs
  (inline vs warm pool), the programming-cache timings, a
  branching-topology engine smoke (residual block, analog, validated), the
  liveness-freeing peak-memory comparison and the streaming section
  (float64-vs-float32 deep forward, chunk-fused read-out peak, streamed-
  vs-resident subprocess memory), written to a JSON artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from repro.circuits.noise import HardwareNoiseConfig, stable_seed
from repro.context import (
    COMPUTE_DTYPES,
    ArchSpec,
    SimContext,
    accelerator_factories,
)
from repro.energy.estimator import NetworkEstimate, compare_accelerators
from repro.kernels.dispatch import KERNEL_CHOICES
from repro.nn.models import build_model, list_models
from repro.nn.network import Network

_SUBCOMMANDS = ("estimate", "run", "program", "sweep", "bench")


def _positive_int(text: str) -> int:
    """``argparse`` type for arguments that must be strictly positive.

    ``type=int`` silently accepts 0 and negatives, deferring the failure
    to whatever downstream code divides or allocates with the value; this
    converter rejects them at parse time with a proper usage error.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {value})"
        )
    return value


def _resolved_kernel(requested: str) -> str:
    """The tier name the dispatcher actually selected for ``requested``."""
    from repro.kernels.dispatch import resolve

    return resolve(requested)[0]


def _add_arch_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rows", type=int, default=256, help="crossbar rows")
    parser.add_argument("--cols", type=int, default=256, help="crossbar columns")
    parser.add_argument("--cell-bits", type=int, default=4, help="bits per ReRAM cell")
    parser.add_argument("--weight-bits", type=int, default=8, help="weight precision")
    parser.add_argument("--input-bits", type=int, default=8, help="input precision")


def _add_compute_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--compute-dtype",
        choices=COMPUTE_DTYPES,
        default=COMPUTE_DTYPES[0],
        help=(
            "packed-engine arithmetic precision: float64 (default, the "
            "bit-exact historical path) or float32 (faster large-model "
            "matmuls; digital recombination stays float64, and ideal-mode "
            "layers that would lose integer exactness fall back per layer)"
        ),
    )
    parser.add_argument(
        "--chunk-bytes",
        type=_positive_int,
        default=None,
        metavar="BYTES",
        help=(
            "bound the packed read-out working set: split the stacked "
            "charge tensor into chunks of at most BYTES and run the "
            "time-domain chain per chunk in place (omit for the "
            "historical single-pass read-out, bit-identical to earlier "
            "releases)"
        ),
    )
    parser.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default="auto",
        help=(
            "read-out/im2col kernel tier (default: auto — fastest "
            "available; every tier is bit-identical in float64, so this "
            "never changes results or content keys)"
        ),
    )


def _compute_kwargs(args: argparse.Namespace) -> dict:
    return {
        "compute_dtype": args.compute_dtype,
        "chunk_bytes": args.chunk_bytes,
        "kernel": args.kernel,
    }


def _peak_rss_mb(status_path: str = "/proc/self/status") -> Optional[float]:
    """This process's peak resident set size in MB (``None`` if unknown).

    Prefers ``VmHWM`` from ``/proc/self/status``: it is the high-water
    mark of *this* process's address space, whereas Linux ``ru_maxrss``
    is inherited across fork+exec — a subprocess launched from a fat
    parent (the bench after its vgg_d leg) would otherwise report the
    parent's peak.  Falls back to ``getrusage`` where procfs is absent or
    malformed (``ru_maxrss`` is kilobytes on Linux, bytes on macOS), and
    degrades to ``None`` — never an exception — when neither source works:
    memory reporting must not take down a run on an exotic platform.  The
    streaming bench compares streamed vs resident subprocess runs on this
    figure and tolerates the ``None``.
    """
    try:
        with open(status_path) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except (OSError, ValueError, IndexError):  # pragma: no cover - odd procfs
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError):  # pragma: no cover - non-POSIX platform
        return None
    scale = 1 if sys.platform == "darwin" else 1024
    return peak * scale / 1e6


def _arch_from_args(args: argparse.Namespace) -> ArchSpec:
    return ArchSpec(
        rows=args.rows,
        cols=args.cols,
        cell_bits=args.cell_bits,
        weight_bits=args.weight_bits,
        input_bits=args.input_bits,
        spare_rows=getattr(args, "spare_rows", 0),
    )


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "fault injection",
        "seed-stable hardware fault model (see repro.faults); all off by default",
    )
    group.add_argument(
        "--stuck-on",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="fraction of cells stuck at G_on (shorted low-resistance state)",
    )
    group.add_argument(
        "--stuck-off",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="fraction of cells stuck at G_off (open high-resistance state)",
    )
    group.add_argument(
        "--drift-time",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="conductance drift: seconds since programming (0 = no drift)",
    )
    group.add_argument(
        "--drift-nu",
        type=float,
        default=0.0,
        metavar="NU",
        help="drift exponent of the (1 + t/t0)^-nu decay law",
    )
    group.add_argument(
        "--saturation",
        type=float,
        default=None,
        metavar="FRAC",
        help=(
            "read-out saturation: clip per-tile dot-product estimates at "
            "FRAC of the chain's full-scale output (1.0 = exactly no-op)"
        ),
    )
    group.add_argument(
        "--spare-rows",
        type=int,
        default=0,
        metavar="N",
        help=(
            "redundant crossbar rows per tile: tiles whose stuck fraction "
            "exceeds --remap-threshold remap their N worst rows onto spares"
        ),
    )
    group.add_argument(
        "--remap-threshold",
        type=float,
        default=0.02,
        metavar="FRAC",
        help="stuck-cell fraction above which a tile engages its spare rows",
    )
    group.add_argument(
        "--fault-seed", type=int, default=0, help="seed of the fault masks"
    )


def _fault_model_from_args(args: argparse.Namespace):
    """The :class:`repro.faults.FaultModel` the flags describe (or ``None``)."""
    from repro.faults import FaultModel

    model = FaultModel(
        stuck_on_fraction=args.stuck_on,
        stuck_off_fraction=args.stuck_off,
        drift_nu=args.drift_nu,
        drift_time_s=args.drift_time,
        readout_saturation=args.saturation,
        remap_threshold=args.remap_threshold,
        seed=args.fault_seed,
    )
    return model if model.active else None


def build_parser() -> argparse.ArgumentParser:
    """The ``estimate`` argument parser (kept for backwards compatibility)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description=(
            "Estimate chip-level energy, latency and area of a DNN on the "
            "TIMELY, PRIME-like and ISAAC-like accelerator configurations."
        ),
    )
    parser.add_argument(
        "--model",
        default="vgg_d",
        help="model name from the zoo (default: vgg_d; see --list-models)",
    )
    parser.add_argument(
        "--configs",
        default="timely,prime,isaac",
        help="comma-separated subset of: timely, prime, isaac",
    )
    _add_arch_arguments(parser)
    parser.add_argument(
        "--pipelined",
        action="store_true",
        help="also estimate single-image latency under cross-layer pipelining",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON document instead of tables"
    )
    parser.add_argument(
        "--no-per-layer",
        action="store_true",
        help="print only the totals comparison table",
    )
    parser.add_argument(
        "--summary", action="store_true", help="also print the network summary"
    )
    parser.add_argument(
        "--list-models", action="store_true", help="list available models and exit"
    )
    return parser


def build_run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim run",
        description=(
            "Functionally simulate a model: push activations through the "
            "mapped crossbars via the time-domain circuit chains and report "
            "the output error against the float numpy reference."
        ),
    )
    parser.add_argument(
        "--model",
        default="cnn_1",
        help="model name from the zoo (default: cnn_1; see estimate --list-models)",
    )
    _add_arch_arguments(parser)
    parser.add_argument(
        "--mode",
        choices=("analog", "ideal"),
        default="analog",
        help="tile read-out: full time-domain chains or exact integer",
    )
    parser.add_argument(
        "--batch",
        type=_positive_int,
        default=0,
        metavar="N",
        help=(
            "run a batch of N deterministic random images instead of a "
            "single image (omit for a single image); matmuls amortise "
            "over the batch"
        ),
    )
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help=(
            "skip the float reference double-compute (throughput runs); "
            "relative errors are then not reported"
        ),
    )
    parser.add_argument(
        "--noise",
        type=float,
        default=0.0,
        metavar="SCALE",
        help="noise severity: Section-V sigmas scaled by SCALE (0 = ideal)",
    )
    parser.add_argument(
        "--noise-seed", type=int, default=0, help="seed of the noise draws"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for weights and the input image"
    )
    _add_compute_arguments(parser)
    _add_fault_arguments(parser)
    parser.add_argument(
        "--stream",
        action="store_true",
        help=(
            "execute layer by layer against the cached state's backing "
            "files instead of wiring the whole network up front (requires "
            "--state-cache; implies a memory-mapped state load, so peak "
            "weight memory is the largest single layer, not the sum — "
            "outputs stay bit-identical to the resident path)"
        ),
    )
    _add_state_cache_arguments(parser)
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON document instead of a table"
    )
    return parser


def _add_state_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--state-cache",
        default=None,
        metavar="DIR",
        help=(
            "programmed-state cache directory: reuse the content-keyed "
            "programmed chip state across invocations instead of "
            "re-programming (created on first use)"
        ),
    )
    parser.add_argument(
        "--mmap",
        action="store_true",
        help=(
            "memory-map cached states instead of materialising them "
            "(with --state-cache; the larger-than-RAM direction)"
        ),
    )


def build_program_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim program",
        description=(
            "Program a model's weights onto crossbars and persist the "
            "resulting chip state in a content-keyed cache directory — the "
            "expensive one-time phase, amortised by every later "
            "`run --state-cache` / `sweep --state-cache` invocation."
        ),
    )
    parser.add_argument(
        "--model",
        default="cnn_1",
        help="model name from the zoo (default: cnn_1; see estimate --list-models)",
    )
    _add_arch_arguments(parser)
    parser.add_argument(
        "--mode",
        choices=("analog", "ideal"),
        default="analog",
        help="tile read-out the state is packed for",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed of the deterministic weights"
    )
    parser.add_argument(
        "--compute-dtype",
        choices=COMPUTE_DTYPES,
        default=COMPUTE_DTYPES[0],
        help=(
            "arithmetic precision the state is packed for (part of the "
            "content key: a float32 state never aliases a float64 one)"
        ),
    )
    parser.add_argument(
        "--state-cache",
        default=".state_cache",
        metavar="DIR",
        help="cache directory to program into (default: .state_cache)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON document instead of text"
    )
    return parser


def main_program(argv: Optional[Sequence[str]] = None) -> int:
    args = build_program_parser().parse_args(argv)

    try:
        network = _load_model(args.model)
        arch = _arch_from_args(args)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    from repro.engine import EngineError, ProgrammedStateCache

    ctx = SimContext(arch=arch, seed=args.seed, compute_dtype=args.compute_dtype)
    cache = ProgrammedStateCache(root=args.state_cache)
    start = time.perf_counter()
    try:
        state, source = cache.get_or_program(network, ctx, mode=args.mode)
    except EngineError as exc:
        print(f"cannot program {args.model!r}: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    path = cache.path_for(state.key)

    if args.json:
        doc = {
            "model": args.model,
            "mode": args.mode,
            "seed": args.seed,
            "compute_dtype": args.compute_dtype,
            "key": state.key,
            "source": source,
            "state_mb": state.nbytes / 1e6,
            "layers": len(state.layers),
            "program_s": elapsed,
            "path": str(path),
        }
        print(json.dumps(doc, indent=2))
        return 0

    action = "programmed" if source == "programmed" else f"cache hit ({source})"
    print(
        f"{action}: {args.model} ({args.mode}, seed {args.seed}) -> {state.key}"
    )
    print(
        f"  {len(state.layers)} layers, {state.nbytes / 1e6:.1f} MB, "
        f"{elapsed:.2f}s"
    )
    print(f"  {path}")
    return 0


def _default_bench_output() -> str:
    """Resolve the default artifact path to the repository root.

    The bench trajectory is recorded in-repo (not only as a CI artifact), so
    the default walks up from this file looking for ``pyproject.toml``;
    installed outside a checkout it falls back to the working directory.
    """
    for parent in Path(__file__).resolve().parents:
        if (parent / "pyproject.toml").is_file():
            return str(parent / "BENCH_engine.json")
    return "BENCH_engine.json"


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim bench",
        description=(
            "Performance smoke: time the vgg_d estimator, a cnn_1 engine run "
            "(with peak memory) and the im2col kernel, run a branching-model engine "
            "smoke and the liveness-freeing memory comparison, and write the "
            "numbers to a JSON artifact at the repository root."
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        help="path of the JSON artifact (default: BENCH_engine.json at the repo root)",
    )
    parser.add_argument(
        "--estimator-model", default="vgg_d", help="model for the estimator timing"
    )
    parser.add_argument(
        "--engine-model", default="cnn_1", help="model for the engine smoke"
    )
    parser.add_argument(
        "--engine-batch",
        type=int,
        default=4,
        metavar="N",
        help="batch size of the engine timing (default: 4)",
    )
    parser.add_argument(
        "--deep-model",
        default=None,
        metavar="MODEL",
        help=(
            "additionally run MODEL (e.g. vgg_d) end to end in analog "
            "mode without validation and record its timing; "
            "skipped by default because deep models take minutes"
        ),
    )
    parser.add_argument(
        "--sweep-workers",
        type=int,
        default=2,
        metavar="N",
        help="worker count of the parallel leg of the sweep smoke (default: 2)",
    )
    parser.add_argument(
        "--sweep-trials",
        type=int,
        default=16,
        metavar="N",
        help=(
            "Monte-Carlo trials per sweep-smoke grid point (default: 16 — "
            "enough that trial compute dominates pool bookkeeping)"
        ),
    )
    parser.add_argument(
        "--sweep-model",
        default="mlp_l",
        metavar="MODEL",
        help=(
            "model of the sweep smoke (default: mlp_l — a programming-heavy "
            "FC stack)"
        ),
    )
    parser.add_argument(
        "--branching-model",
        default="resnet_smoke",
        metavar="MODEL",
        help=(
            "branching-topology engine smoke: a validated analog run of a "
            "DAG model (default: resnet_smoke — truncated ResNet stem + one "
            "residual block)"
        ),
    )
    parser.add_argument(
        "--liveness-model",
        default="bottleneck_smoke",
        metavar="MODEL",
        help=(
            "model of the liveness-freeing memory comparison: peak live "
            "activations with vs without freeing (default: bottleneck_smoke)"
        ),
    )
    parser.add_argument(
        "--stream-model",
        default="resnet_18",
        metavar="MODEL",
        help=(
            "deep model of the streaming/dtype section: float64-vs-float32 "
            "packed forward timing plus resident-vs-streamed subprocess "
            "peak-memory comparison (default: resnet_18 — deep enough that "
            "the gemm dominates and the per-layer memory bound is visible)"
        ),
    )
    return parser


def _load_model(name: str) -> Network:
    return build_model(name)


def format_per_layer(estimate: NetworkEstimate) -> str:
    """Per-layer energy / latency / area table for one accelerator."""
    lines = [f"{estimate.accelerator} — {estimate.model}, per layer"]
    header = (
        f"{'layer':<22} {'kind':<6} {'xbars':>6} {'util':>6} "
        f"{'energy/uJ':>11} {'latency/us':>11} {'area/mm2':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    area_per_layer = estimate.area_mm2 / max(estimate.total_crossbars, 1)
    for layer in estimate.layers:
        lines.append(
            f"{layer.name:<22} {layer.kind:<6} {layer.crossbars:>6} "
            f"{layer.utilization:>6.1%} {layer.energy_pj / 1e6:>11.3f} "
            f"{layer.latency_ns / 1e3:>11.2f} "
            f"{layer.crossbars * area_per_layer:>9.3f}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<22} {'':<6} {estimate.total_crossbars:>6} {'':>6} "
        f"{estimate.total_energy_pj / 1e6:>11.3f} "
        f"{estimate.total_latency_ns / 1e3:>11.2f} {estimate.area_mm2:>9.3f}"
    )
    return "\n".join(lines)


def format_comparison(estimates: Sequence[NetworkEstimate]) -> str:
    """Totals table comparing all estimated accelerator configurations."""
    reference = estimates[0]
    pipelined = reference.pipelined_latency_ns is not None
    lines = [f"Comparison — {reference.model}"]
    header = (
        f"{'accelerator':<12} {'energy/uJ':>11} {'latency/ms':>11} "
        + (f"{'pipe/ms':>9} " if pipelined else "")
        + f"{'area/mm2':>9} {'TOPS/W':>9} {'GOPS':>9} "
        f"{'eff. vs ' + reference.accelerator:>14}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for est in estimates:
        ratio = est.tops_per_watt / reference.tops_per_watt
        pipe = (
            f"{est.pipelined_latency_ns / 1e6:>9.3f} " if pipelined else ""
        )
        lines.append(
            f"{est.accelerator:<12} {est.total_energy_pj / 1e6:>11.3f} "
            f"{est.total_latency_ns / 1e6:>11.3f} "
            + pipe
            + f"{est.area_mm2:>9.2f} "
            f"{est.tops_per_watt:>9.3f} {est.gops:>9.1f} {ratio:>13.3f}x"
        )
    return "\n".join(lines)


def estimate_to_dict(estimate: NetworkEstimate, per_layer: bool = True) -> dict:
    """JSON-serialisable view of one :class:`NetworkEstimate`."""
    doc = {
        "accelerator": estimate.accelerator,
        "energy_uj": estimate.total_energy_pj / 1e6,
        "latency_ms": estimate.total_latency_ns / 1e6,
        "pipelined_latency_ms": (
            estimate.pipelined_latency_ns / 1e6
            if estimate.pipelined_latency_ns is not None
            else None
        ),
        "area_mm2": estimate.area_mm2,
        "tops_per_watt": estimate.tops_per_watt,
        "gops": estimate.gops,
        "pipelined_gops": estimate.pipelined_gops,
        "crossbars": estimate.total_crossbars,
    }
    if per_layer:
        doc["layers"] = [
            {
                "name": layer.name,
                "kind": layer.kind,
                "crossbars": layer.crossbars,
                "utilization": layer.utilization,
                "energy_pj": layer.energy_pj,
                "latency_ns": layer.latency_ns,
            }
            for layer in estimate.layers
        ]
    return doc


def main_estimate(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_models:
        print("\n".join(list_models()))
        return 0

    try:
        network = _load_model(args.model)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    try:
        config = _arch_from_args(args)
    except ValueError as exc:
        print(f"invalid crossbar configuration: {exc}", file=sys.stderr)
        return 2
    factories = accelerator_factories()
    names = [name.strip().lower() for name in args.configs.split(",") if name.strip()]
    unknown = [name for name in names if name not in factories]
    if unknown or not names:
        print(
            f"unknown configs {', '.join(unknown) or '(none)'}; "
            f"choose from: {', '.join(factories)}",
            file=sys.stderr,
        )
        return 2
    specs = [factories[name](config) for name in names]

    estimates: List[NetworkEstimate] = compare_accelerators(
        network, specs, config, pipelined=args.pipelined
    )

    if args.json:
        doc = {
            "model": args.model,
            "config": {
                "rows": config.rows,
                "cols": config.cols,
                "cell_bits": config.cell_bits,
                "weight_bits": config.weight_bits,
                "input_bits": config.input_bits,
            },
            "pipelined": args.pipelined,
            "estimates": [
                estimate_to_dict(est, per_layer=not args.no_per_layer)
                for est in estimates
            ],
        }
        print(json.dumps(doc, indent=2))
        return 0

    if args.summary:
        print(network.summary())
        print()
    if not args.no_per_layer:
        for estimate in estimates:
            print(format_per_layer(estimate))
            print()
    print(format_comparison(estimates))
    return 0


def main_run(argv: Optional[Sequence[str]] = None) -> int:
    args = build_run_parser().parse_args(argv)

    try:
        network = _load_model(args.model)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    try:
        arch = _arch_from_args(args)
        if args.noise < 0:
            raise ValueError("--noise scale must be non-negative")
        if args.stream and args.state_cache is None:
            raise ValueError("--stream needs --state-cache (a disk-backed state)")
        compute = _compute_kwargs(args)
        noise = (
            HardwareNoiseConfig.scaled(args.noise, seed=args.noise_seed)
            if args.noise > 0
            else None
        )
        faults = _fault_model_from_args(args)
        if faults is not None and args.mode != "analog":
            raise ValueError(
                "fault injection needs --mode analog (ideal mode has no "
                "conductances to corrupt)"
            )
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    # import here so `estimate` stays importable without the engine package
    from repro.engine import (
        EngineError,
        NetworkExecutor,
        ProgrammedState,
        ProgrammedStateCache,
    )

    validate = not args.no_validate
    ctx = SimContext(
        arch=arch,
        noise=noise,
        seed=args.seed,
        faults=faults,
        **compute,
    )
    start = time.perf_counter()
    try:
        if args.state_cache is not None:
            # program-once/run-many: the expensive programming phase is
            # served from the content-keyed cache when a previous
            # invocation (or `program`) already built this chip state.
            # Streaming loads memory-mapped so the full state is never
            # materialised in this process.
            cache = ProgrammedStateCache(
                root=args.state_cache, mmap=args.mmap or args.stream
            )
            state, cache_source = cache.get_or_program(network, ctx, mode=args.mode)
            if args.stream and state.source_path is None:
                # freshly programmed this invocation: re-open the snapshot
                # just written so the streamed run has backing files
                state = ProgrammedState.load(cache.ensure_on_disk(state), mmap=True)
            program_s = time.perf_counter() - start
            executor = NetworkExecutor(
                network, ctx, mode=args.mode, state=state, stream=args.stream
            )
        else:
            cache_source = "off"
            executor = NetworkExecutor(network, ctx, mode=args.mode)
            program_s = time.perf_counter() - start
        run_start = time.perf_counter()
        x = executor.random_batch(args.batch) if args.batch > 0 else None
        result = executor.run(x, validate=validate)
    except EngineError as exc:
        print(f"engine cannot run {args.model!r}: {exc}", file=sys.stderr)
        return 2
    run_s = time.perf_counter() - run_start
    elapsed = time.perf_counter() - start

    def _err(value: float) -> Optional[float]:
        return value if validate else None

    if args.json:
        doc = {
            "model": args.model,
            "mode": args.mode,
            "batch": args.batch,
            "validate": validate,
            "noise_scale": args.noise,
            "seed": args.seed,
            "compute_dtype": args.compute_dtype,
            "chunk_bytes": args.chunk_bytes,
            "kernel": _resolved_kernel(args.kernel),
            "stream": args.stream,
            "crossbars": executor.crossbars,
            "rel_error": _err(result.rel_error),
            "elapsed_s": elapsed,
            "program_s": program_s,
            "run_s": run_s,
            "peak_wired_mb": result.peak_wired_bytes / 1e6,
            "peak_rss_mb": _peak_rss_mb(),
            "programming": {
                "cache": cache_source,
                "key": executor.state.key,
            },
            "faults": (
                {
                    "stuck_on_fraction": faults.stuck_on_fraction,
                    "stuck_off_fraction": faults.stuck_off_fraction,
                    "drift_nu": faults.drift_nu,
                    "drift_time_s": faults.drift_time_s,
                    "readout_saturation": faults.readout_saturation,
                    "remap_threshold": faults.remap_threshold,
                    "spare_rows": arch.spare_rows,
                    "seed": faults.seed,
                    "stuck_cells": result.stuck_cells,
                    "remapped_rows": result.remapped_rows,
                }
                if faults is not None
                else None
            ),
            "layers": [
                {
                    "name": trace.name,
                    "kind": trace.kind,
                    "crossbars": trace.crossbars,
                    "rel_error": _err(trace.rel_error),
                    **(
                        {
                            "stuck_cells": trace.stuck_cells,
                            "remapped_rows": trace.remapped_rows,
                        }
                        if faults is not None
                        else {}
                    ),
                }
                for trace in result.traces
            ],
        }
        print(json.dumps(doc, indent=2))
        return 0

    batch_note = f", batch {args.batch}" if args.batch > 0 else ""
    dtype_note = (
        f", {args.compute_dtype}" if args.compute_dtype != COMPUTE_DTYPES[0] else ""
    )
    stream_note = ", streamed" if args.stream else ""
    kernel_note = (
        f", kernel {_resolved_kernel(args.kernel)}" if args.kernel != "auto" else ""
    )
    print(
        f"Engine run — {args.model} ({args.mode}, "
        f"noise x{args.noise:g}, seed {args.seed}{batch_note}"
        f"{dtype_note}{stream_note}{kernel_note})"
    )
    header = f"{'layer':<22} {'kind':<8} {'xbars':>6} {'rel. error':>12}"
    print(header)
    print("-" * len(header))
    for trace in result.traces:
        err = f"{trace.rel_error:.3e}" if validate else "-"
        print(f"{trace.name:<22} {trace.kind:<8} {trace.crossbars:>6} {err:>12}")
    print("-" * len(header))
    timing = f"{elapsed:.2f}s ({program_s:.2f}s programming + {run_s:.2f}s run)"
    if args.state_cache is not None:
        timing += f", state {executor.state.key}: {cache_source}"
    if args.stream:
        timing += f", peak wired {result.peak_wired_bytes / 1e6:.1f} MB"
    if faults is not None:
        print(
            f"faults: {result.stuck_cells} stuck cells, "
            f"{result.remapped_rows} rows remapped onto spares "
            f"(spare rows {arch.spare_rows}, threshold "
            f"{faults.remap_threshold:g})"
        )
    if validate:
        print(
            f"output rel. error vs float reference: {result.rel_error:.3e}  "
            f"({executor.crossbars} crossbars, {timing})"
        )
    else:
        print(
            f"validation skipped (--no-validate)  "
            f"({executor.crossbars} crossbars, {timing})"
        )
    return 0


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim sweep",
        description=(
            "Monte-Carlo accuracy sweep: run a (model x noise-scale x trial "
            "x cell-bits x compute-dtype x stuck-fraction) grid of engine "
            "trials through a process "
            "pool, record each trial in a resumable JSON-lines store and "
            "reduce the rows to mean/p95 relative error per noise scale."
        ),
    )
    parser.add_argument(
        "--model",
        default="cnn_1",
        help="comma-separated model names from the zoo (default: cnn_1)",
    )
    parser.add_argument(
        "--noise-grid",
        default="0,0.5,1",
        metavar="SCALES",
        help=(
            "comma-separated noise severities; each scales the Section-V "
            "sigmas (0 = ideal hardware; default: 0,0.5,1)"
        ),
    )
    parser.add_argument(
        "--stuck-grid",
        default="0",
        metavar="FRACS",
        help=(
            "comma-separated total stuck-cell fractions to sweep (split "
            "evenly between stuck-at-G_on and stuck-at-G_off; each trial "
            "samples an independent seed-stable chip realisation; "
            "default: 0 — no faults)"
        ),
    )
    parser.add_argument(
        "--trials",
        type=_positive_int,
        default=8,
        help="Monte-Carlo trials per grid point (default: 8)",
    )
    parser.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default="auto",
        help=(
            "read-out/im2col kernel tier for every trial, exported to "
            "pool workers via REPRO_KERNEL (default: auto; tiers are "
            "bit-identical in float64 so content keys and resumability "
            "are unaffected)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool workers; <=1 runs inline (default: 1)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help=(
            "retry a failed/crashed unit of work up to N times with "
            "exponential backoff before giving up on it (default: 2)"
        ),
    )
    parser.add_argument(
        "--trial-timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "stall watchdog: restart the pool when no unit of work "
            "completes within SECONDS per in-flight trial (0 = disabled)"
        ),
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "record trials that exhaust their retries as structured error "
            "rows and finish the sweep instead of aborting; a later "
            "--resume retries exactly those trials"
        ),
    )
    parser.add_argument(
        "--cell-bits",
        default="4",
        metavar="BITS",
        help="comma-separated bits-per-cell grid values (default: 4)",
    )
    parser.add_argument(
        "--mode",
        choices=("analog", "ideal"),
        default="analog",
        help="tile read-out: full time-domain chains or exact integer",
    )
    parser.add_argument("--rows", type=int, default=256, help="crossbar rows")
    parser.add_argument("--cols", type=int, default=256, help="crossbar columns")
    parser.add_argument("--weight-bits", type=int, default=8, help="weight precision")
    parser.add_argument("--input-bits", type=int, default=8, help="input precision")
    parser.add_argument(
        "--compute-dtype",
        default=COMPUTE_DTYPES[0],
        metavar="DTYPES",
        help=(
            "comma-separated packed-engine precisions to sweep "
            f"(choose from: {', '.join(COMPUTE_DTYPES)}; default: float64 — "
            "each dtype gets its own content keys and programmed state)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base seed: fixes weights/input; per-trial noise seeds derive from it",
    )
    parser.add_argument(
        "--output",
        default="sweep_results.jsonl",
        help="JSON-lines result store (default: sweep_results.jsonl)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "keep the existing store and skip trials whose content keys are "
            "already recorded (a completed sweep computes 0 new trials)"
        ),
    )
    parser.add_argument(
        "--state-cache",
        default=None,
        metavar="DIR",
        help=(
            "programmed-state cache directory: reuse programmed chip states "
            "across sweep invocations (each distinct model/arch/seed group "
            "is programmed at most once either way; the cache persists the "
            "snapshots beyond this run)"
        ),
    )
    parser.add_argument(
        "--per-layer",
        action="store_true",
        help="also print per-layer mean error attribution under each grid row",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON document instead of a table"
    )
    return parser


def _parse_list(text: str, kind, what: str) -> list:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(kind(part))
        except ValueError:
            raise ValueError(f"invalid {what} value {part!r}")
    if not values:
        raise ValueError(f"at least one {what} value is required")
    return values


def main_sweep(argv: Optional[Sequence[str]] = None) -> int:
    args = build_sweep_parser().parse_args(argv)

    from repro.sweep import SweepGrid, SweepStore, format_summary, run_sweep, summarize

    try:
        models = _parse_list(args.model, str, "model")
        for name in models:
            _load_model(name)  # fail fast on unknown models
        grid = SweepGrid(
            models=tuple(models),
            noise_scales=tuple(_parse_list(args.noise_grid, float, "--noise-grid")),
            trials=args.trials,
            cell_bits=tuple(_parse_list(args.cell_bits, int, "--cell-bits")),
            seed=args.seed,
            mode=args.mode,
            rows=args.rows,
            cols=args.cols,
            weight_bits=args.weight_bits,
            input_bits=args.input_bits,
            compute_dtypes=tuple(
                _parse_list(args.compute_dtype, str, "--compute-dtype")
            ),
            stuck_fractions=tuple(_parse_list(args.stuck_grid, float, "--stuck-grid")),
        )
        if args.workers < 0:
            raise ValueError("--workers must be non-negative")
        if args.max_retries < 0:
            raise ValueError("--max-retries must be non-negative")
        if args.trial_timeout < 0:
            raise ValueError("--trial-timeout must be non-negative")
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid sweep configuration: {exc}", file=sys.stderr)
        return 2

    if args.kernel != "auto":
        # Pool workers inherit the environment, so exporting the tier here
        # reaches every trial without widening TrialSpec or content keys
        # (the tier is bit-identical metadata, not a result dimension).
        os.environ["REPRO_KERNEL"] = args.kernel

    store = SweepStore(args.output)
    progress = None if args.json else print
    from repro.engine import EngineError, ProgrammedStateCache

    cache = (
        ProgrammedStateCache(root=args.state_cache)
        if args.state_cache is not None
        else None
    )
    try:
        outcome = run_sweep(
            grid,
            store,
            workers=args.workers,
            resume=args.resume,
            progress=progress,
            cache=cache,
            max_retries=args.max_retries,
            trial_timeout_s=args.trial_timeout or None,
            keep_going=args.keep_going,
        )
    except EngineError as exc:
        print(f"sweep cannot run: {exc}", file=sys.stderr)
        return 2
    summary = summarize(outcome.rows)

    if args.json:
        doc = {
            "grid": grid.to_dict(),
            "output": str(store.path),
            "trials": len(grid),
            "computed": outcome.computed,
            "skipped": outcome.skipped,
            "executed": outcome.executed,
            "failed": outcome.failed,
            "workers": args.workers,
            "kernel": _resolved_kernel(args.kernel),
            "elapsed_s": outcome.elapsed_s,
            "program_s": outcome.program_s,
            "pool_startup_s": outcome.pool_startup_s,
            "trials_per_sec": outcome.trials_per_sec,
            "summary": summary,
        }
        print(json.dumps(doc, indent=2))
        return 0

    failed_note = f", {outcome.failed} FAILED" if outcome.failed else ""
    print(
        f"Sweep — {','.join(grid.models)}: {len(grid)} trials "
        f"({outcome.computed} computed via {outcome.executed} engine runs, "
        f"{outcome.skipped} skipped{failed_note}, {args.workers} worker(s), "
        f"{outcome.elapsed_s:.2f}s, {outcome.trials_per_sec:.1f} trials/s)"
    )
    print(f"store: {store.path}")
    print()
    print(format_summary(summary, per_layer=args.per_layer))
    return 0


def _timed_engine_run(
    network, ctx, x, repeats: int = 5, with_rel_error: bool = False
) -> dict:
    """Engine timing (programming and execution separately) plus peak memory.

    With ``with_rel_error`` one additional validated run records the
    end-to-end relative error against the float reference (kept out of the
    timed runs — the double-compute would hide the engine timing).

    Weights are programmed **once** (no second construction just for the
    memory figure, which used to double the ~29 s vgg_d programming cost):
    the construction and one forward pass run under :mod:`tracemalloc`, so
    ``peak_mb`` covers the true peak — programming transients included.
    ``program_s`` is therefore measured under tracing; programming is
    dominated by large tensor allocations, where the per-allocation tracing
    overhead is small, and the honest trade is preferred over an
    incomplete peak.  ``elapsed_s`` is then re-timed best-of-``repeats``
    with tracing **off**, so the headline forward timing carries no
    overhead.  All timed runs skip validation (the float double-compute
    would dominate the engine timing).
    """
    import tracemalloc

    from repro.engine import NetworkExecutor

    tracemalloc.start()
    start = time.perf_counter()
    executor = NetworkExecutor(network, ctx, mode="analog")
    program_s = time.perf_counter() - start
    executor.run(x, validate=False)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        executor.run(x, validate=False)
        best = min(best, time.perf_counter() - start)
    timing = {
        "elapsed_s": best,
        "program_s": program_s,
        "peak_mb": peak / 1e6,
        "programmed_mb": executor.programmed_bytes / 1e6,
        "crossbars": executor.crossbars,
    }
    if with_rel_error:
        timing["rel_error"] = executor.run(x).rel_error
    return timing


def main_bench(argv: Optional[Sequence[str]] = None) -> int:
    args = build_bench_parser().parse_args(argv)
    output = args.output if args.output is not None else _default_bench_output()

    import numpy as np

    from repro.engine import NetworkExecutor
    from repro.nn import functional as F

    try:
        estimator_net = _load_model(args.estimator_model)
        engine_net = _load_model(args.engine_model)
        branching_net = _load_model(args.branching_model)
        liveness_net = _load_model(args.liveness_model)
        stream_net = _load_model(args.stream_model)
        _load_model(args.sweep_model)  # fail fast before the timed legs
        deep_net = _load_model(args.deep_model) if args.deep_model else None
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    # 1. analytic estimator over the three paper configurations
    start = time.perf_counter()
    estimates = compare_accelerators(estimator_net, pipelined=True)
    estimator_elapsed = time.perf_counter() - start

    # 2. functional engine: the packed executor on one batch
    ctx = SimContext()
    executor = NetworkExecutor(engine_net, ctx, mode="analog")
    batch = max(args.engine_batch, 1)
    x = executor.random_batch(batch)
    engine_timing = _timed_engine_run(engine_net, ctx, x)
    # one validated run of the actual batch for the accuracy figure
    result = executor.run(x)

    # 3. im2col kernel micro-benchmark (vgg_d conv1_1 geometry), best of 3
    xi = np.random.default_rng(stable_seed("bench", "im2col")).normal(
        size=(3, 224, 224)
    )

    def best_of(func, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            func(xi, 3, 1, 1)
            best = min(best, time.perf_counter() - start)
        return best

    loop_elapsed = best_of(F._im2col_loop)
    vectorized_elapsed = best_of(F.im2col)

    # 4. optional deep-model run (no validation), measured with the same
    # methodology as the engine timing above
    deep = None
    if deep_net is not None:
        deep = {
            "model": args.deep_model,
            "mode": "analog",
            "validate": False,
            **_timed_engine_run(deep_net, ctx, None, repeats=1),
        }

    # 5. Monte-Carlo sweep smoke: the program-once path inline and through
    # a pre-warmed pool whose startup is reported separately.  The grid
    # carries enough noisy trials that per-trial compute dominates
    # bookkeeping.  Pooled vs inline is recorded, not asserted: on a few
    # cores it weighs process parallelism against BLAS threading.
    import tempfile

    from repro.sweep import SweepGrid, SweepStore, run_sweep, warm_pool

    grid = SweepGrid(
        models=(args.sweep_model,),
        noise_scales=(0.0, 1.0),
        trials=args.sweep_trials,
        seed=0,
    )
    with tempfile.TemporaryDirectory() as tmp:
        shared = run_sweep(grid, SweepStore(Path(tmp) / "shared.jsonl"), workers=1)
        pool, pool_startup_s = warm_pool(args.sweep_workers)
        try:
            pooled = run_sweep(
                grid,
                SweepStore(Path(tmp) / "pooled.jsonl"),
                workers=args.sweep_workers,
                pool=pool,
            )
        finally:
            pool.shutdown()
    sweep = {
        "model": args.sweep_model,
        "trials": len(grid),
        "engine_runs": shared.executed,
        "workers": args.sweep_workers,
        # program-once path, inline
        "shared_serial_s": shared.elapsed_s,
        "program_s": shared.program_s,
        # program-once path through the (pre-warmed) pool; startup separate
        "parallel_s": pooled.elapsed_s,
        "pool_startup_s": pool_startup_s,
        "parallel_trials_per_sec": pooled.trials_per_sec,
        # pool cost/benefit at this core count: pooled vs inline
        "steady_state_speedup": shared.elapsed_s / pooled.elapsed_s,
    }

    # 5b. programmed-state cache: one cnn_1-sized state programmed cold,
    # then served from a fresh cache's disk directory and from the LRU
    from repro.engine import ProgrammedStateCache

    with tempfile.TemporaryDirectory() as tmp:
        cold_cache = ProgrammedStateCache(root=tmp)
        start = time.perf_counter()
        state, source_cold = cold_cache.get_or_program(engine_net, ctx)
        cache_program_s = time.perf_counter() - start
        fresh_cache = ProgrammedStateCache(root=tmp)  # models a new process
        start = time.perf_counter()
        _, source_disk = fresh_cache.get_or_program(engine_net, ctx)
        disk_hit_s = time.perf_counter() - start
        start = time.perf_counter()
        _, source_memory = fresh_cache.get_or_program(engine_net, ctx)
        memory_hit_s = time.perf_counter() - start
    programming_cache = {
        "model": args.engine_model,
        "key": state.key,
        "state_mb": state.nbytes / 1e6,
        "sources": [source_cold, source_disk, source_memory],
        "program_s": cache_program_s,
        "disk_hit_s": disk_hit_s,
        "memory_hit_s": memory_hit_s,
        "disk_speedup": cache_program_s / disk_hit_s,
    }

    # 6. branching-topology engine smoke: a DAG model (residual add +
    # projection branch) timed with the same methodology as the engine
    # timing, plus one validated run for the rel-error figure
    branching = {
        "model": args.branching_model,
        "mode": "analog",
        **_timed_engine_run(branching_net, ctx, None, repeats=3, with_rel_error=True),
    }

    # 7. liveness-based activation freeing: peak live activation bytes of
    # the graph executor with freeing on vs off (same run otherwise)
    liveness_exec = NetworkExecutor(liveness_net, ctx, mode="ideal")
    liveness_batch = liveness_exec.random_batch(2)
    freed = liveness_exec.run(liveness_batch, validate=False, free_activations=True)
    kept = liveness_exec.run(liveness_batch, validate=False, free_activations=False)
    liveness = {
        "model": args.liveness_model,
        "batch": 2,
        "freed_peak_mb": freed.peak_activation_bytes / 1e6,
        "unfreed_peak_mb": kept.peak_activation_bytes / 1e6,
        "reduction": kept.peak_activation_bytes / freed.peak_activation_bytes,
    }

    # 7b. fault injection: the same cnn_1-class chip clean, with 0.5% stuck
    # cells, and with the same stuck cells remapped onto spare rows —
    # graceful degradation must claw back part of the fault-induced error.
    # (0.5% keeps the degradation in the regime where healing cells
    # reliably lowers the error; at a few percent the output is fault-
    # dominated and the recovery margin is no longer monotone.)
    from repro.faults import FaultModel

    fault_model = FaultModel(
        stuck_on_fraction=0.0025, stuck_off_fraction=0.0025, seed=0
    )
    fb_clean = NetworkExecutor(engine_net, ctx, mode="analog").run()
    fb_faulted = NetworkExecutor(
        engine_net, ctx.with_faults(fault_model), mode="analog"
    ).run()
    remap_ctx = SimContext(
        arch=ArchSpec(spare_rows=16),
        faults=FaultModel(
            stuck_on_fraction=0.0025,
            stuck_off_fraction=0.0025,
            remap_threshold=0.0,  # same masks (threshold is not in the rng
            seed=0,  # salt), but every faulty tile engages its spares
        ),
    )
    fb_remapped = NetworkExecutor(engine_net, remap_ctx, mode="analog").run()
    faults_bench = {
        "model": args.engine_model,
        "stuck_fraction": 0.005,
        "spare_rows": 16,
        "clean_rel_error": fb_clean.rel_error,
        "faulted_rel_error": fb_faulted.rel_error,
        "remapped_rel_error": fb_remapped.rel_error,
        "stuck_cells": fb_faulted.stuck_cells,
        "remapped_rows": fb_remapped.remapped_rows,
        "healed_ratio": (
            fb_faulted.rel_error / fb_remapped.rel_error
            if fb_remapped.rel_error
            else None
        ),
    }

    # 8. streamed / float32 / chunk-fused execution.
    #    (a) dtype: the same deep packed analog forward at float64 vs
    #    float32 — the gemm and read-out chain drop to single precision
    #    while digital recombination stays double
    dtype_runs = {
        dtype: _timed_engine_run(
            stream_net, SimContext(compute_dtype=dtype), None, repeats=3
        )
        for dtype in COMPUTE_DTYPES
    }
    #    (b) chunking: the section-2 cnn_1 batch with a bounded read-out
    #    working set, against the unchunked packed peak measured above
    chunk_bytes = 1 << 16
    chunked = _timed_engine_run(
        engine_net, SimContext(chunk_bytes=chunk_bytes), x, repeats=3
    )
    #    (c) streaming: resident vs streamed subprocess runs against one
    #    disk-backed programmed state, compared on self-reported peak RSS
    #    (whole process) and peak wired weight bytes (deterministic)
    import subprocess

    with tempfile.TemporaryDirectory() as tmp:
        ProgrammedStateCache(root=tmp).get_or_program(stream_net, SimContext())

        def _stream_leg(stream: bool) -> dict:
            cmd = [
                sys.executable,
                "-m",
                "repro.sim",
                "run",
                "--model",
                args.stream_model,
                "--state-cache",
                tmp,
                "--no-validate",
                "--json",
            ]
            if stream:
                cmd.append("--stream")
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            return json.loads(proc.stdout)

        resident_leg = _stream_leg(False)
        streamed_leg = _stream_leg(True)
    streaming = {
        "model": args.stream_model,
        "dtype": {
            "float64_s": dtype_runs["float64"]["elapsed_s"],
            "float32_s": dtype_runs["float32"]["elapsed_s"],
            "float32_speedup": (
                dtype_runs["float64"]["elapsed_s"]
                / dtype_runs["float32"]["elapsed_s"]
            ),
        },
        "chunked": {
            "model": args.engine_model,
            "chunk_bytes": chunk_bytes,
            "peak_mb": chunked["peak_mb"],
            "unchunked_peak_mb": engine_timing["peak_mb"],
            "reduction": engine_timing["peak_mb"] / chunked["peak_mb"],
            "elapsed_s": chunked["elapsed_s"],
        },
        "stream": {
            "resident_peak_rss_mb": resident_leg["peak_rss_mb"],
            "streamed_peak_rss_mb": streamed_leg["peak_rss_mb"],
            # peak_rss_mb degrades to null on platforms without procfs or
            # getrusage — the ratio then degrades with it instead of raising
            "rss_reduction": (
                resident_leg["peak_rss_mb"] / streamed_leg["peak_rss_mb"]
                if resident_leg["peak_rss_mb"] and streamed_leg["peak_rss_mb"]
                else None
            ),
            "resident_peak_wired_mb": resident_leg["peak_wired_mb"],
            "streamed_peak_wired_mb": streamed_leg["peak_wired_mb"],
            "wired_reduction": (
                resident_leg["peak_wired_mb"] / streamed_leg["peak_wired_mb"]
            ),
            "resident_run_s": resident_leg["run_s"],
            "streamed_run_s": streamed_leg["run_s"],
        },
    }

    # 9. kernel dispatch: the fused time-domain read-out chain timed per
    # available tier on one resnet_18-class charge block (3 input slices x
    # 2 weight slices x 3136 positions x 64 columns, the conv2_x working
    # set), every tier fed identical inputs through the public dispatch
    # entry point.  Tiers are bit-identical in float64 so the fastest
    # result is also the reference result.
    from repro.circuits.timing import TimeDomainChainSpec
    from repro.kernels import dispatch as kernel_dispatch

    kscalars = TimeDomainChainSpec.from_context(ctx).scalars()
    krng = np.random.default_rng(stable_seed("bench", "kernels"))
    kcharges = krng.random((3, 2, 1, 3136, 64)) * 1e-12
    kdelays = krng.random((3, 1, 1, 3136, 1)) * 1e-9
    kshifts = np.asarray([16.0, 1.0])
    krec = np.empty((1, 3136, 64))
    kwork = np.empty_like(kcharges)

    def _time_tier(tier: str, repeats: int = 3) -> float:
        best = float("inf")
        for _ in range(repeats):
            np.copyto(kwork, kcharges)
            start = time.perf_counter()
            kernel_dispatch.readout_fused(
                kwork,
                kdelays,
                kscalars,
                out=kwork,
                saturation=1.2,
                shifts=kshifts,
                recombine_out=krec,
                kernel=tier,
            )
            best = min(best, time.perf_counter() - start)
        return best

    tier_times = {tier: _time_tier(tier) for tier in kernel_dispatch.available()}
    kernels_bench = {
        "tiers": list(kernel_dispatch.available()),
        "default": kernel_dispatch.default_kernel(),
        "unavailable": kernel_dispatch.unavailable_reasons(),
        "cores": os.cpu_count() or 1,
        "readout_elements": int(kcharges.size),
        "readout_s": tier_times,
        "readout_gelems_per_sec": {
            tier: kcharges.size / elapsed / 1e9
            for tier, elapsed in tier_times.items()
        },
        # headline: compiled fused chain vs the numpy reference chain
        "fused_speedup": (
            tier_times["numpy"] / tier_times["c"] if "c" in tier_times else None
        ),
    }

    doc = {
        "estimator": {
            "model": args.estimator_model,
            "elapsed_s": estimator_elapsed,
            "accelerators": [
                {
                    "name": est.accelerator,
                    "tops_per_watt": est.tops_per_watt,
                    "gops": est.gops,
                    "pipelined_gops": est.pipelined_gops,
                }
                for est in estimates
            ],
        },
        "engine": {
            "model": args.engine_model,
            "mode": "analog",
            "batch": batch,
            "rel_error": result.rel_error,
            **engine_timing,
        },
        "im2col": {
            "loop_s": loop_elapsed,
            "vectorized_s": vectorized_elapsed,
            "speedup": loop_elapsed / vectorized_elapsed,
        },
        "sweep": sweep,
        "programming_cache": programming_cache,
        "branching": branching,
        "liveness": liveness,
        "faults": faults_bench,
        "streaming": streaming,
        "kernels": kernels_bench,
        "deep_engine": deep,
    }
    with open(output, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")
    print(
        f"  estimator ({args.estimator_model}): {estimator_elapsed:.2f}s, "
        f"TIMELY {estimates[0].tops_per_watt:.1f} TOPS/W"
    )
    print(
        f"  engine ({args.engine_model}, batch {batch}): "
        f"{engine_timing['elapsed_s']:.3f}s forward "
        f"({engine_timing['peak_mb']:.1f} MB peak), rel error {result.rel_error:.2e}"
    )
    print(f"  im2col: {doc['im2col']['speedup']:.0f}x vs loop")
    print(
        f"  branching ({branching['model']}): rel error "
        f"{branching['rel_error']:.2e}, forward {branching['elapsed_s']:.3f}s "
        f"(+{branching['program_s']:.2f}s programming, "
        f"{branching['crossbars']} crossbars)"
    )
    print(
        f"  liveness ({liveness['model']}, batch {liveness['batch']}): "
        f"peak {liveness['freed_peak_mb']:.1f} MB freed vs "
        f"{liveness['unfreed_peak_mb']:.1f} MB kept "
        f"({liveness['reduction']:.1f}x reduction)"
    )
    print(
        f"  faults ({faults_bench['model']}, "
        f"{faults_bench['stuck_fraction']:.0%} stuck): rel error "
        f"{faults_bench['clean_rel_error']:.2e} clean -> "
        f"{faults_bench['faulted_rel_error']:.2e} faulted -> "
        f"{faults_bench['remapped_rel_error']:.2e} with "
        f"{faults_bench['spare_rows']} spare rows "
        f"({faults_bench['stuck_cells']} stuck cells, "
        f"{faults_bench['remapped_rows']} rows remapped)"
    )
    print(
        f"  sweep ({sweep['model']}, {sweep['trials']} trials): "
        f"{sweep['parallel_trials_per_sec']:.1f} trials/s with "
        f"{sweep['workers']} workers, {sweep['steady_state_speedup']:.2f}x vs "
        f"inline (+{sweep['pool_startup_s']:.2f}s pool startup, reported apart)"
    )
    print(
        f"  programming cache ({programming_cache['model']}): "
        f"{programming_cache['program_s'] * 1e3:.1f} ms cold vs "
        f"{programming_cache['disk_hit_s'] * 1e3:.1f} ms disk / "
        f"{programming_cache['memory_hit_s'] * 1e3:.2f} ms memory hit "
        f"({programming_cache['state_mb']:.1f} MB state)"
    )
    print(
        f"  dtype ({streaming['model']}): float64 "
        f"{streaming['dtype']['float64_s']:.3f}s vs float32 "
        f"{streaming['dtype']['float32_s']:.3f}s "
        f"({streaming['dtype']['float32_speedup']:.2f}x)"
    )
    print(
        f"  chunked read-out ({streaming['chunked']['model']}, "
        f"{chunk_bytes >> 10} KB chunks): peak "
        f"{streaming['chunked']['peak_mb']:.1f} MB vs "
        f"{streaming['chunked']['unchunked_peak_mb']:.1f} MB unchunked "
        f"({streaming['chunked']['reduction']:.2f}x)"
    )
    print(
        f"  streaming ({streaming['model']}): wired "
        f"{streaming['stream']['streamed_peak_wired_mb']:.1f} MB streamed vs "
        f"{streaming['stream']['resident_peak_wired_mb']:.1f} MB resident "
        f"({streaming['stream']['wired_reduction']:.1f}x), RSS "
        f"{streaming['stream']['streamed_peak_rss_mb']:.0f} MB vs "
        f"{streaming['stream']['resident_peak_rss_mb']:.0f} MB"
    )
    fused_note = (
        f"{kernels_bench['fused_speedup']:.1f}x fused c vs numpy"
        if kernels_bench["fused_speedup"] is not None
        else "compiled tier unavailable"
    )
    print(
        f"  kernels (tiers: {', '.join(kernels_bench['tiers'])}; default "
        f"{kernels_bench['default']}): {fused_note} on "
        f"{kernels_bench['cores']} core(s)"
    )
    if deep is not None:
        print(
            f"  deep engine ({deep['model']}): {deep['elapsed_s']:.1f}s packed analog "
            f"(+{deep['program_s']:.1f}s programming), "
            f"{deep['peak_mb'] / 1e3:.2f} GB peak, {deep['crossbars']} crossbars"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        command, rest = argv[0], argv[1:]
    else:
        # historical invocation: bare flags mean `estimate`
        command, rest = "estimate", argv
    if command == "run":
        return main_run(rest)
    if command == "program":
        return main_program(rest)
    if command == "sweep":
        return main_sweep(rest)
    if command == "bench":
        return main_bench(rest)
    return main_estimate(rest)
