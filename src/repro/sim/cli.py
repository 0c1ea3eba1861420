"""Command-line interface of the simulator.

:func:`build_parser` is the one argument-parser tree.  Its four
subcommands share one :class:`repro.context.SimContext`:

* ``estimate`` (the default: a command line that does not start with a
  subcommand runs it, preserving the historical ``python -m repro.sim
  --model ...`` invocation) — chip-level energy / latency / area comparison
  across the TIMELY, PRIME-like and ISAAC-like configurations, optionally
  with cross-layer-pipelined latency and JSON output;
* ``run`` — functional simulation: execute a model through its mapped
  crossbars with the time-domain circuit chains and report the end-to-end
  output error against the float reference.  The chip state always comes
  from a :class:`repro.engine.ProgrammedStateCache`: memory-only, or the
  content-keyed ``--state-cache`` directory, whose hits are memory-mapped.
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
  mean/p95 relative error per scale.

The read-out/im2col kernel tier is not a CLI option: ``REPRO_KERNEL``
overrides the automatic choice (pool workers inherit it), and ``run`` /
``sweep --json`` report the tier that served the run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import List, Optional, Sequence

from repro.circuits.noise import HardwareNoiseConfig
from repro.context import (
    COMPUTE_DTYPES,
    ArchSpec,
    SimContext,
    accelerator_factories,
)
from repro.energy.estimator import NetworkEstimate, compare_accelerators
from repro.kernels.dispatch import default_kernel
from repro.nn.models import build_model, list_models


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


def _peak_rss_mb(status_path: str = "/proc/self/status") -> Optional[float]:
    """This process's peak resident set size in MB (``None`` if unknown).

    Prefers ``VmHWM`` from ``/proc/self/status``: it is the high-water
    mark of *this* process's address space, whereas Linux ``ru_maxrss``
    is inherited across fork+exec — a run launched as a subprocess of a
    fat parent would otherwise report the parent's peak.  Falls back to
    ``getrusage`` where procfs is absent or malformed (``ru_maxrss`` is
    kilobytes on Linux, bytes on macOS), and degrades to ``None`` — never
    an exception — when neither source works: memory reporting must not
    take down a run on an exotic platform.
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
    """The CLI's argument-parser tree: one subparser per command.

    A flag that several commands take is added by one ``add_argument`` call
    looped over those commands.  Parent parsers would share one action
    object between their children, so a per-command default (``program``'s
    ``--state-cache``) set on one child would leak into the others.
    """
    parser = argparse.ArgumentParser(prog="python -m repro.sim")
    commands = parser.add_subparsers(dest="command", required=True)
    estimate = commands.add_parser(
        "estimate",
        description=(
            "Estimate chip-level energy, latency and area of a DNN on the "
            "TIMELY, PRIME-like and ISAAC-like accelerator configurations."
        ),
        epilog="Other commands: run, program, sweep (see COMMAND --help).",
    )
    run = commands.add_parser(
        "run",
        description=(
            "Functionally simulate a model: push activations through the "
            "mapped crossbars via the time-domain circuit chains and report "
            "the output error against the float numpy reference."
        ),
    )
    program = commands.add_parser(
        "program",
        description=(
            "Program a model's weights onto crossbars and persist the "
            "resulting chip state in a content-keyed cache directory — the "
            "expensive one-time phase, amortised by every later "
            "`run --state-cache` / `sweep --state-cache` invocation."
        ),
    )
    sweep = commands.add_parser(
        "sweep",
        description=(
            "Monte-Carlo accuracy sweep: run a (model x noise-scale x trial "
            "x cell-bits x compute-dtype x stuck-fraction) grid of engine "
            "trials through a process "
            "pool, record each trial in a resumable JSON-lines store and "
            "reduce the rows to mean/p95 relative error per noise scale."
        ),
    )

    for command in (estimate, run, program, sweep):
        command.add_argument(
            "--model",
            default="vgg_d" if command is estimate else "cnn_1",
            help=(
                "model name from the zoo; sweep takes a comma-separated list "
                "(default: %(default)s; see estimate --list-models)"
            ),
        )
        for flag, default, what in (
            ("--rows", 256, "crossbar rows"),
            ("--cols", 256, "crossbar columns"),
            ("--weight-bits", 8, "weight precision"),
            ("--input-bits", 8, "input precision"),
        ):
            command.add_argument(flag, type=int, default=default, help=what)
        command.add_argument(
            "--json", action="store_true", help="emit a JSON document instead of text"
        )
    for command in (estimate, run, program):
        command.add_argument(
            "--cell-bits", type=int, default=4, help="bits per ReRAM cell"
        )
    for command in (run, program, sweep):
        command.add_argument(
            "--mode",
            choices=("analog", "ideal"),
            default="analog",
            help="tile read-out: full time-domain chains or exact integer",
        )
        command.add_argument(
            "--seed",
            type=int,
            default=0,
            help=(
                "seed of the weights and input images (sweep derives its "
                "per-trial noise seeds from it)"
            ),
        )
        command.add_argument(
            "--state-cache",
            default=".state_cache" if command is program else None,
            metavar="DIR",
            help=(
                "programmed-state cache directory: reuse the content-keyed "
                "programmed chip state across invocations instead of "
                "re-programming (created on first use; program defaults to "
                ".state_cache, run and sweep keep states in memory without it)"
            ),
        )
    run.add_argument(
        "--compute-dtype",
        choices=COMPUTE_DTYPES,
        default=COMPUTE_DTYPES[0],
        help=(
            "packed-engine arithmetic precision: float64 (default) or "
            "float32, chosen when the layers are wired, so one programmed "
            "state serves both (noisy/faulty analog layers run their matmul "
            "and chain in single precision, noiseless ones read out through "
            "exact levels either way; digital recombination stays float64, "
            "and ideal-mode layers that would lose integer exactness fall "
            "back per layer)"
        ),
    )

    estimate.add_argument(
        "--configs",
        default="timely,prime,isaac",
        help="comma-separated subset of: timely, prime, isaac",
    )
    estimate.add_argument(
        "--pipelined",
        action="store_true",
        help="also estimate single-image latency under cross-layer pipelining",
    )
    estimate.add_argument(
        "--no-per-layer",
        action="store_true",
        help="print only the totals comparison table",
    )
    estimate.add_argument(
        "--summary", action="store_true", help="also print the network summary"
    )
    estimate.add_argument(
        "--list-models", action="store_true", help="list available models and exit"
    )

    run.add_argument(
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
    run.add_argument(
        "--no-validate",
        action="store_true",
        help=(
            "skip the float reference double-compute (throughput runs); "
            "relative errors are then not reported"
        ),
    )
    run.add_argument(
        "--noise",
        type=float,
        default=0.0,
        metavar="SCALE",
        help="noise severity: Section-V sigmas scaled by SCALE (0 = ideal)",
    )
    run.add_argument(
        "--noise-seed", type=int, default=0, help="seed of the noise draws"
    )
    run.add_argument(
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
    _add_fault_arguments(run)
    run.add_argument(
        "--stream",
        action="store_true",
        help=(
            "execute layer by layer against the cached state's backing "
            "files instead of wiring the whole network up front (requires "
            "--state-cache; peak weight memory is the largest single "
            "layer, not the sum — outputs stay bit-identical to the "
            "resident path)"
        ),
    )

    sweep.add_argument(
        "--noise-grid",
        default="0,0.5,1",
        metavar="SCALES",
        help=(
            "comma-separated noise severities; each scales the Section-V "
            "sigmas (0 = ideal hardware; default: 0,0.5,1)"
        ),
    )
    sweep.add_argument(
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
    sweep.add_argument(
        "--trials",
        type=_positive_int,
        default=8,
        help="Monte-Carlo trials per grid point (default: 8)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool workers; <=1 runs inline (default: 1)",
    )
    sweep.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help=(
            "retry a failed/crashed unit of work up to N times with "
            "exponential backoff before giving up on it (default: 2)"
        ),
    )
    sweep.add_argument(
        "--trial-timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "stall watchdog: restart the pool when no unit of work "
            "completes within SECONDS per in-flight trial (0 = disabled)"
        ),
    )
    sweep.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "record trials that exhaust their retries as structured error "
            "rows and finish the sweep instead of aborting; a later "
            "--resume retries exactly those trials"
        ),
    )
    sweep.add_argument(
        "--cell-bits",
        default="4",
        metavar="BITS",
        help="comma-separated bits-per-cell grid values (default: 4)",
    )
    sweep.add_argument(
        "--compute-dtype",
        default=COMPUTE_DTYPES[0],
        metavar="DTYPES",
        help=(
            "comma-separated packed-engine precisions to sweep "
            f"(choose from: {', '.join(COMPUTE_DTYPES)}; default: float64 — "
            "each dtype gets its own trial keys, and all share one "
            "programmed state per group)"
        ),
    )
    sweep.add_argument(
        "--output",
        default="sweep_results.jsonl",
        help="JSON-lines result store (default: sweep_results.jsonl)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help=(
            "keep the existing store and skip trials whose content keys are "
            "already recorded (a completed sweep computes 0 new trials)"
        ),
    )
    sweep.add_argument(
        "--per-layer",
        action="store_true",
        help="also print per-layer mean error attribution under each grid row",
    )
    return parser


def _program(args: argparse.Namespace) -> int:
    try:
        network = build_model(args.model)
        arch = _arch_from_args(args)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    from repro.engine import EngineError, ProgrammedStateCache

    ctx = SimContext(arch=arch, seed=args.seed)
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


def _estimate(args: argparse.Namespace) -> int:
    if args.list_models:
        print("\n".join(list_models()))
        return 0

    try:
        network = build_model(args.model)
        config = _arch_from_args(args)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
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


def _run(args: argparse.Namespace) -> int:
    try:
        network = build_model(args.model)
        arch = _arch_from_args(args)
        if args.stream and args.state_cache is None:
            raise ValueError("--stream needs --state-cache (a disk-backed state)")
        kernel = default_kernel()  # a bad REPRO_KERNEL fails here, not mid-run
        noise = (
            HardwareNoiseConfig.scaled(args.noise, seed=args.noise_seed)
            if args.noise != 0
            else None
        )
        faults = _fault_model_from_args(args)
        if faults is not None and args.mode != "analog":
            raise ValueError(
                "fault injection needs --mode analog (ideal mode has no "
                "conductances to corrupt)"
            )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    # import here so `estimate` stays importable without the engine package
    from repro.engine import (
        EngineError,
        NetworkExecutor,
        NetworkParams,
        ProgrammedStateCache,
    )

    validate = not args.no_validate
    ctx = SimContext(
        arch=arch,
        noise=noise,
        seed=args.seed,
        faults=faults,
        compute_dtype=args.compute_dtype,
        chunk_bytes=args.chunk_bytes,
    )
    # program-once/run-many: without --state-cache the cache is memory-only
    # and programs; with it, a previous `run` or `program` may already have
    # built this chip state, and a disk hit is memory-mapped
    cache = ProgrammedStateCache(root=args.state_cache, mmap=True)
    start = time.perf_counter()
    try:
        params = NetworkParams(network, args.seed)
        state, source = cache.get_or_program(
            network, ctx, mode=args.mode, params=params
        )
        programmed = time.perf_counter()
        executor = NetworkExecutor(
            network, ctx, mode=args.mode, params=params, state=state, stream=args.stream
        )
        wired = time.perf_counter()
        x = executor.random_batch(args.batch) if args.batch > 0 else None
        result = executor.run(x, validate=validate)
    except EngineError as exc:
        print(f"engine cannot run {args.model!r}: {exc}", file=sys.stderr)
        return 2
    end = time.perf_counter()
    program_s, wire_s, run_s = programmed - start, wired - programmed, end - wired
    elapsed = end - start
    cache_source = source if args.state_cache is not None else "off"

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
            "kernel": kernel,
            "stream": args.stream,
            "crossbars": executor.crossbars,
            "rel_error": _err(result.rel_error),
            "elapsed_s": elapsed,
            "program_s": program_s,
            "wire_s": wire_s,
            "run_s": run_s,
            "peak_wired_mb": result.peak_wired_bytes / 1e6,
            "peak_rss_mb": _peak_rss_mb(),
            "programming": {
                "cache": cache_source,
                "key": state.key,
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
                        {"readout": trace.readout, "gemm_dtype": trace.gemm_dtype}
                        if trace.readout is not None
                        else {}
                    ),
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
    print(
        f"Engine run — {args.model} ({args.mode}, "
        f"noise x{args.noise:g}, seed {args.seed}{batch_note}"
        f"{dtype_note}{stream_note})"
    )
    header = f"{'layer':<22} {'kind':<8} {'xbars':>6} {'rel. error':>12}"
    print(header)
    print("-" * len(header))
    for trace in result.traces:
        err = f"{trace.rel_error:.3e}" if validate else "-"
        print(f"{trace.name:<22} {trace.kind:<8} {trace.crossbars:>6} {err:>12}")
    print("-" * len(header))
    timing = (
        f"{elapsed:.2f}s ({program_s:.2f}s programming + {wire_s:.2f}s wiring "
        f"+ {run_s:.2f}s run)"
    )
    if args.state_cache is not None:
        timing += f", state {state.key}: {cache_source}"
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


def _sweep(args: argparse.Namespace) -> int:
    from repro.sweep import SweepGrid, SweepStore, format_summary, run_sweep, summarize

    try:
        models = _parse_list(args.model, str, "model")
        for name in models:
            build_model(name)  # fail fast on unknown models
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
        if not math.isfinite(args.trial_timeout) or args.trial_timeout < 0:
            raise ValueError("--trial-timeout must be finite and non-negative")
        kernel = default_kernel()  # a bad REPRO_KERNEL fails here, not mid-run
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid sweep configuration: {exc}", file=sys.stderr)
        return 2

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
            "kernel": kernel,
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


_HANDLERS = {"estimate": _estimate, "run": _run, "program": _program, "sweep": _sweep}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in _HANDLERS:
        argv.insert(0, "estimate")  # historical invocation: bare flags mean `estimate`
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)
