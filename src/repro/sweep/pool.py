"""Parallel sweep execution through a process pool, program-once style.

:func:`run_trial` is the (picklable, module-level) worker: it rebuilds the
trial's :class:`~repro.context.SimContext` from the :class:`TrialSpec`
primitives, runs one validated engine forward pass and returns a plain-dict
result row.  Because every noise draw is derived statelessly from
``(seed, salt)`` (see :mod:`repro.circuits.noise`), a worker computes
exactly the row the parent process would — worker count, scheduling order
and resume boundaries cannot change any result.

The expensive part of a trial is not the forward pass but the weight
*programming* that used to happen inside every ``NetworkExecutor``
construction.  Programming is noise-free and precision-free, so every
trial, noise scale and compute dtype of one ``(model, arch, mode, seed)``
group shares a single :class:`~repro.engine.state.ProgrammedState`:
:func:`run_sweep` programs each group **once** in the parent, snapshots it
to disk (the sweep's ``--state-cache`` directory when given, a temp
directory otherwise) and ships the snapshot path to the workers — a pool
initializer pre-loads it, and :func:`run_trial_chunk` runs a whole chunk
of trials against the memoised state instead of re-programming per trial.  Per-trial programming
variation is applied at executor wiring from the trial's own noise streams,
so the rows stay bit-for-bit identical to programming each trial from
scratch.

The float reference a trial validates against depends only on the weights
and the input, which the model and seed fix for every trial of a group.
The process that runs the trials (each worker, or the parent inline)
computes the reference's conv/FC outputs once per ``(model, seed)`` and
hands them to every trial's validated run, which recomputes only the cheap
auxiliary layers (:meth:`~repro.engine.NetworkExecutor.run`'s
``reference_outputs``).  A process holds one group's outputs at a time.
They are never shipped between processes: the BLAS thread count of the
process computing them can move their low bits.

:func:`run_sweep` drives a grid through a ``ProcessPoolExecutor`` (or
inline for ``workers <= 1``), appending rows to the
:class:`~repro.sweep.store.SweepStore` as they complete and compacting the
store into canonical grid order at the end.  Noise-scale-0 grid points are
deduplicated: with no noise model attached every trial of such a point is
the same deterministic forward pass, so one engine run fans out to all of
its trials' rows.  A fully-resumed sweep computes nothing and — pool
startup being the dominant cost of small sweeps — never creates a pool.

Long fault-injection campaigns must survive their own workers: the pooled
paths route every unit of work through a drain loop that retries failed
units with exponential backoff (``max_retries``), rebuilds the process pool
when a worker death surfaces as ``BrokenProcessPool`` (re-running only the
in-flight units — everything already appended to the store is kept), and
runs a stall watchdog (``trial_timeout_s``) that hard-kills a hung pool so
the same recovery path applies.  Because every row is deterministic, a
crashed-and-recovered sweep compacts to a store byte-identical to an
undisturbed one.  ``keep_going`` converts a unit that exhausts its retries
into structured error rows (spec fields plus an ``"error"`` message) instead
of aborting the sweep; stored error rows are treated as pending — not
resumed — by the next invocation.
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Executor, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sweep.grid import SweepGrid, TrialSpec
from repro.sweep.store import SweepStore

#: a reference memo: the float reference's conv/FC outputs (read-only
#: arrays by layer name) of at most one trial group, keyed by what they
#: depend on, ``(model, seed)``
ReferenceMemo = Dict[Tuple[str, int], dict]


def _group_reference(memo: ReferenceMemo, spec: TrialSpec, executor, x) -> dict:
    """The conv/FC reference outputs of ``spec``'s group for input ``x``.

    Computed by :func:`~repro.engine.compute_reference_outputs` (one float
    reference pass; read-only arrays, since every later trial of the group
    reads them) the first time the group's ``(model, seed)`` is seen,
    after dropping whatever group ``memo`` held before.
    """
    key = (spec.model, spec.seed)
    if key not in memo:
        from repro.engine import compute_reference_outputs

        memo.clear()
        memo[key] = compute_reference_outputs(executor.network, executor.params, x[None])
    return memo[key]


def run_trial(
    spec: TrialSpec,
    state=None,
    network=None,
    params=None,
    memo: Optional[ReferenceMemo] = None,
) -> dict:
    """Run one sweep trial and return its deterministic result row.

    The row carries the spec fields (with content key), the end-to-end
    relative error against the float reference, the per-layer relative
    errors (the error-attribution data the reducer aggregates) and the
    crossbar count — and deliberately **no** wall-clock fields, so rows are
    byte-identical across runs and worker counts.

    ``state``/``network``/``params`` are the program-once path
    :func:`run_sweep` always takes: a pre-programmed
    :class:`~repro.engine.state.ProgrammedState` (with its rebuilt network
    and parameters) skips quantisation and bit-slice packing and goes
    straight to wiring.  With all three ``None`` the trial programs its own
    chip — the same row, noise included, because the state is noise-free
    and per-trial variation is applied at wiring time.

    ``memo`` is the calling process's :data:`ReferenceMemo`: the trial's
    validation reads its group's conv/FC reference outputs from it (built
    on the first trial of the group) instead of recomputing them — the
    same row again.
    """
    from repro.engine import NetworkExecutor
    from repro.nn.models import build_model

    if network is None:
        network = build_model(spec.model)
    ctx = spec.context()
    executor = NetworkExecutor(network, ctx, mode=spec.mode, params=params, state=state)
    x = executor.random_input()
    references = None if memo is None else _group_reference(memo, spec, executor, x)
    result = executor.run(x, validate=True, reference_outputs=references)
    row = spec.as_row()
    row["rel_error"] = result.rel_error
    row["crossbars"] = executor.crossbars
    row["layers"] = {trace.name: trace.rel_error for trace in result.traces}
    return row


#: per-worker memo of loaded snapshots: path -> (state, network, params).
#: Populated by the pool initializer (and lazily by run_trial_chunk), so a
#: worker loads each programmed state once and serves every chunk from it.
_WORKER_STATES: Dict[str, tuple] = {}
#: this worker's reference memo (see :func:`_group_reference`)
_WORKER_REFERENCE: ReferenceMemo = {}


def _load_worker_state(path: str) -> tuple:
    entry = _WORKER_STATES.get(path)
    if entry is None:
        from repro.engine import NetworkParams, ProgrammedState
        from repro.nn.models import build_model

        state = ProgrammedState.load(path)
        network = build_model(state.model)
        entry = (state, network, NetworkParams(network, state.seed))
        _WORKER_STATES[path] = entry
    return entry


def _preload_states(paths: Sequence[str]) -> None:
    """Pool initializer: warm the engine import and pre-load snapshots."""
    import repro.engine  # noqa: F401  (the heavyweight import, paid once)

    for path in paths:
        _load_worker_state(path)


def _warm_worker(_: int) -> bool:
    import repro.engine  # noqa: F401

    return True


def warm_pool(
    workers: int, snapshot_paths: Sequence[str] = ()
) -> Tuple[ProcessPoolExecutor, float]:
    """A started, import-warmed pool and the seconds its startup took.

    Forces all ``workers`` processes to spawn and run the
    :func:`_preload_states` initializer before returning, so a subsequent
    :func:`run_sweep` with ``pool=`` measures steady-state throughput —
    the startup is returned apart (a pool :func:`run_sweep` creates itself
    reports it as ``pool_startup_s``).
    The caller owns the pool (``shutdown()`` when done).
    """
    start = time.perf_counter()
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_preload_states,
        initargs=(tuple(snapshot_paths),),
    )
    # one no-op per worker forces every process to exist before we return
    list(pool.map(_warm_worker, range(workers)))
    return pool, time.perf_counter() - start


def _maybe_inject_fault() -> None:
    """Test/CI crash-injection hook, keyed off environment variables.

    ``REPRO_SWEEP_CRASH_ONCE=<marker-path>`` SIGKILLs the first worker chunk
    that atomically claims the marker file (``O_CREAT | O_EXCL``) —
    simulating a hard worker death exactly once per marker path, so the
    retried chunk (and every other claimant) proceeds normally.
    ``REPRO_SWEEP_HANG_ONCE=<marker-path>`` makes the first claimant hang
    instead, exercising the ``trial_timeout_s`` stall watchdog.
    """
    for env, action in (
        ("REPRO_SWEEP_CRASH_ONCE", "crash"),
        ("REPRO_SWEEP_HANG_ONCE", "hang"),
    ):
        marker = os.environ.get(env)
        if not marker:
            continue
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        if action == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(3600.0)  # far beyond any stall budget; the watchdog kills us


def run_trial_chunk(specs: Sequence[TrialSpec], snapshot_path: str) -> List[dict]:
    """Run a chunk of one group's trials against its programmed snapshot.

    The chunk is the pool's unit of work: it amortises task submission and
    result pickling over several trials, and every trial reuses the
    worker-memoised state/network/params loaded from ``snapshot_path`` and
    the worker's reference memo.
    """
    _maybe_inject_fault()
    state, network, params = _load_worker_state(snapshot_path)
    return [
        run_trial(spec, state, network, params, memo=_WORKER_REFERENCE)
        for spec in specs
    ]


def _work_spec(spec: TrialSpec) -> TrialSpec:
    """The spec whose engine run produces ``spec``'s results.

    At noise scale 0 the noise model is ``None``, and in ``"ideal"`` mode
    the exact integer read-out bypasses the noisy analog chains entirely —
    either way every trial of the grid point is the same deterministic
    forward pass, so all of them share trial 0's run: it executes once and
    its results fan out to each trial's row (rows still differ in their
    ``trial`` field and content key).  A non-zero ``stuck_fraction`` blocks
    the dedup in analog mode just like noise does: each trial samples an
    independent faulty-chip realisation (:meth:`repro.faults.FaultModel.
    for_trial`).  In ideal mode faults are no-ops — no conductances exist —
    so faulty ideal trials still collapse onto trial 0.
    """
    if spec.trial == 0:
        return spec
    if spec.mode != "ideal" and (spec.noise_scale > 0 or spec.stuck_fraction > 0):
        return spec
    return replace(spec, trial=0)


def _group_key(spec: TrialSpec) -> str:
    """Programmed-state content key of ``spec``'s trial group.

    Noise scale and trial index are deliberately absent — the state is
    noise-free, so every Monte-Carlo trial of one ``(model, arch, mode,
    seed)`` group shares one programming.  So is the compute dtype: the
    state holds integers, and each trial wires it at its own precision.
    """
    from repro.context import ArchSpec
    from repro.engine.state import state_key

    arch = ArchSpec(
        rows=spec.rows,
        cols=spec.cols,
        cell_bits=spec.cell_bits,
        weight_bits=spec.weight_bits,
        input_bits=spec.input_bits,
    )
    return state_key(spec.model, arch, spec.mode, spec.seed)


@dataclass
class _PoolTask:
    """One retryable unit of pool work (a trial, or a chunk of trials)."""

    fn: Callable
    args: tuple
    payload: object  # handed back verbatim to the result/failure callbacks
    weight: int = 1  # trials in the unit — scales the stall-watchdog budget
    attempts: int = 0


def _terminate_pool_processes(pool: Executor) -> None:
    """Hard-kill a pool's worker processes (the stall watchdog's hammer).

    The pool then marks itself broken and raises ``BrokenProcessPool`` on
    its in-flight futures, which funnels a *hang* into the same
    rebuild-and-retry recovery path as a worker *crash*.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:
            pass


def _drain_pool(
    holder: List[Executor],
    rebuild: Callable[[], Executor],
    tasks: List[_PoolTask],
    on_result: Callable[[_PoolTask, object], None],
    on_failure: Callable[[_PoolTask, BaseException], None],
    max_retries: int,
    backoff_s: float,
    timeout_s: Optional[float],
    progress: Optional[Callable[[str], None]] = None,
) -> None:
    """Run ``tasks`` on ``holder[0]`` to completion, surviving the pool.

    * A task that raises is resubmitted with exponential backoff
      (``backoff_s * 2**(attempts-1)``) up to ``max_retries`` times, then
      handed to ``on_failure`` (which may raise to abort the drain).
    * ``BrokenProcessPool`` — a worker died — shuts the dead pool down,
      builds a fresh one via ``rebuild()`` and resubmits every in-flight
      task (each such loss counts as one attempt).  Results already
      delivered are kept; re-running lost units is safe because every row
      is deterministic.
    * With ``timeout_s`` set, a stall watchdog kills the pool's workers
      when no unit completes within ``timeout_s * max(active unit weight)``
      seconds, converting a hang into the broken-pool recovery above.

    ``holder`` is a one-element list so the caller always sees the current
    pool (rebuilds included) and can shut it down in its ``finally``.
    """
    active: Dict = {}
    retry: List[_PoolTask] = []

    def submit_all(batch: List[_PoolTask]) -> None:
        for task in batch:
            active[holder[0].submit(task.fn, *task.args)] = task

    def requeue_or_fail(task: _PoolTask, exc: BaseException) -> None:
        task.attempts += 1
        if task.attempts > max_retries:
            on_failure(task, exc)
            return
        if backoff_s > 0:
            time.sleep(backoff_s * (2 ** (task.attempts - 1)))
        retry.append(task)
        if progress:
            progress(
                f"retrying {task.weight} trial(s) after {type(exc).__name__} "
                f"(attempt {task.attempts + 1}/{max_retries + 1})"
            )

    submit_all(tasks)
    last_progress = time.monotonic()
    while active:
        retry = []
        budget = tick = None
        if timeout_s is not None:
            budget = timeout_s * max(task.weight for task in active.values())
            tick = max(0.05, min(1.0, budget / 4.0))
        finished, _ = wait(list(active), timeout=tick, return_when=FIRST_COMPLETED)
        broken = False
        if finished:
            last_progress = time.monotonic()
        for future in finished:
            task = active.pop(future)
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                broken = True
                requeue_or_fail(task, exc)
            except Exception as exc:
                requeue_or_fail(task, exc)
            else:
                on_result(task, result)
        if (
            not broken
            and not finished
            and budget is not None
            and time.monotonic() - last_progress >= budget
        ):
            # nothing completed within the stall budget: presume the pool
            # hung, kill its workers and fall through to the rebuild below
            if progress:
                progress(f"no trial finished within {budget:.1f}s; restarting pool")
            _terminate_pool_processes(holder[0])
            exc = TimeoutError(f"no trial finished within the {budget:.1f}s budget")
            for future, task in list(active.items()):
                future.cancel()
                requeue_or_fail(task, exc)
            active.clear()
            broken = True
        if broken:
            # every other in-flight unit died with the pool — retry them too
            exc = BrokenProcessPool("process pool died; unit resubmitted")
            for future, task in list(active.items()):
                future.cancel()
                requeue_or_fail(task, exc)
            active.clear()
            try:
                holder[0].shutdown(wait=False)
            except Exception:
                pass
            holder[0] = rebuild()
            last_progress = time.monotonic()
        submit_all(retry)


@dataclass(frozen=True)
class SweepOutcome:
    """What one :func:`run_sweep` invocation did."""

    #: all grid rows in canonical grid order (computed + previously stored)
    rows: List[dict]
    #: trial rows produced by this invocation
    computed: int
    #: trials skipped because the store already held their keys
    skipped: int
    #: engine runs actually performed (< ``computed`` when noiseless grid
    #: points deduplicated their identical trials)
    executed: int
    elapsed_s: float
    #: seconds the parent spent programming shared states (0 when
    #: everything resumed from the store)
    program_s: float = 0.0
    #: seconds spent spawning and warming a pool this call created itself
    #: (0 inline, and 0 when the caller passed a pre-warmed ``pool=``)
    pool_startup_s: float = 0.0
    #: trials recorded as structured error rows because ``keep_going`` was
    #: set and the trial exhausted its retries (0 otherwise — without
    #: ``keep_going`` a persistent failure raises instead); counted inside
    #: ``computed``, and retried by the next ``resume`` invocation
    failed: int = 0

    @property
    def trials_per_sec(self) -> float:
        if self.elapsed_s <= 0:
            return float("inf") if self.computed else 0.0
        return self.computed / self.elapsed_s


def run_sweep(
    grid: SweepGrid,
    store: SweepStore,
    workers: int = 1,
    resume: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    cache=None,
    pool: Optional[Executor] = None,
    chunk_size: Optional[int] = None,
    max_retries: int = 2,
    retry_backoff_s: float = 0.1,
    trial_timeout_s: Optional[float] = None,
    keep_going: bool = False,
) -> SweepOutcome:
    """Run every missing trial of ``grid``, recording rows in ``store``.

    With ``resume=True`` trials whose content keys are already stored are
    skipped (an interrupted sweep continues where it stopped; a completed
    one computes nothing — and creates no pool).  Stored *error* rows (from
    an earlier ``keep_going`` run) count as missing and are retried.
    Without ``resume`` any previous store content is discarded.
    ``workers <= 1`` runs inline — no pool, same rows.

    Crash tolerance: a failing unit of work is retried up to ``max_retries``
    times with exponential backoff starting at ``retry_backoff_s``; a worker
    death (``BrokenProcessPool``) rebuilds the pool and resubmits only the
    in-flight units; ``trial_timeout_s`` arms a stall watchdog that kills a
    pool when no unit completes within ``trial_timeout_s`` seconds per trial
    of the largest in-flight unit, recovering hangs the same way.  A unit
    that exhausts its retries aborts the sweep — unless ``keep_going`` is
    set, which records each affected trial as a structured error row
    (spec fields plus an ``"error"`` message) and carries on.

    Each distinct ``(model, arch, mode, seed)`` group is
    programmed once in the parent and its snapshot reused for every
    trial — bit-identical rows, minus the per-trial re-programming cost.
    Likewise the process running the trials computes each group's float
    reference conv/FC outputs once (see the module docstring).
    ``cache`` (a
    :class:`~repro.engine.state.ProgrammedStateCache`) persists and reuses
    programmed states across invocations; without one, snapshots for the
    workers live in a temp directory for the duration of the call.
    ``pool`` substitutes a caller-owned (pre-warmed) executor — it is not
    shut down here, and ``pool_startup_s`` stays 0.  ``chunk_size`` caps
    trials per pool task (default: enough chunks for ~2 tasks per worker).
    """
    if workers < 0:
        raise ValueError("workers must be non-negative")
    if chunk_size is not None and chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if max_retries < 0:
        raise ValueError("max_retries must be non-negative")
    if retry_backoff_s < 0:
        raise ValueError("retry_backoff_s must be non-negative")
    # NaN passes a bare `<= 0` check and would disarm the stall watchdog
    if trial_timeout_s is not None and (
        not math.isfinite(trial_timeout_s) or trial_timeout_s <= 0
    ):
        raise ValueError("trial_timeout_s must be positive and finite (or None)")
    specs = grid.specs()
    if not resume:
        store.clear()
    known: Dict[str, dict] = store.load()
    # error rows from an earlier --keep-going run resume as *pending*: the
    # sweep retries them rather than treating a recorded failure as a result
    failed_keys = {key for key, row in known.items() if "error" in row}
    pending = [
        spec for spec in specs if spec.key not in known or spec.key in failed_keys
    ]
    skipped = len(specs) - len(pending)
    if progress and skipped:
        progress(f"resuming: {skipped} of {len(specs)} trials already stored")

    # deduplicate: noiseless trials of one grid point share a single run
    members: Dict[str, List[TrialSpec]] = {}
    work: Dict[str, TrialSpec] = {}
    for spec in pending:
        shared = _work_spec(spec)
        members.setdefault(shared.key, []).append(spec)
        work[shared.key] = shared

    done = 0
    failed = 0

    def emit(work_row: dict, dependents: List[TrialSpec]) -> None:
        nonlocal done
        for spec in dependents:
            if spec.key == work_row["key"]:
                row = work_row
            else:  # fan a shared noiseless run out to this trial's own row
                row = {**work_row, **spec.as_row()}
            store.append(row)
            known[row["key"]] = row
            done += 1
            if progress:
                progress(
                    f"trial {done}/{len(pending)} ({spec.model}, noise x{spec.noise_scale:g})"
                )

    def emit_error(shared: TrialSpec, exc: BaseException) -> None:
        """Record every trial depending on ``shared`` as a failed row."""
        nonlocal done, failed
        message = f"{type(exc).__name__}: {exc}"[:500]
        for spec in members[shared.key]:
            row = {**spec.as_row(), "error": message}
            store.append(row)
            known[row["key"]] = row
            done += 1
            failed += 1
            if progress:
                progress(f"trial {done}/{len(pending)} FAILED ({spec.model}): {message}")

    def call_with_retries(fn: Callable, *args):
        """Inline-path counterpart of the pool drain's retry policy."""
        attempts = 0
        while True:
            try:
                return fn(*args)
            except Exception:
                attempts += 1
                if attempts > max_retries:
                    raise
                if retry_backoff_s > 0:
                    time.sleep(retry_backoff_s * (2 ** (attempts - 1)))

    program_s = 0.0
    pool_startup_s = 0.0
    start = time.perf_counter()
    # a shared run whose row resumed from the store fans out without
    # re-running (error rows never fan out — their specs stayed pending)
    for key in [k for k in work if k in known and k not in failed_keys]:
        emit(known[key], members.pop(key))
        del work[key]

    if not work:
        # everything resumed (or the grid was empty): nothing to program,
        # and — crucially — no pool to pay startup for
        pass
    else:
        from repro.engine import NetworkParams, ProgrammedStateCache
        from repro.nn.models import build_model

        # program each distinct chip configuration once, in the parent
        groups: Dict[str, List[TrialSpec]] = {}
        for shared in work.values():
            groups.setdefault(_group_key(shared), []).append(shared)
        if cache is None:
            cache = ProgrammedStateCache(memory_entries=max(4, len(groups)))
        t_program = time.perf_counter()
        states: Dict[str, tuple] = {}
        for gkey, gspecs in groups.items():
            rep = gspecs[0]
            network = build_model(rep.model)
            state, source = cache.get_or_program(network, rep.context(), rep.mode)
            states[gkey] = (state, network, NetworkParams(network, rep.seed))
            if progress:
                progress(
                    f"programmed state {state.key} ({rep.model}, "
                    f"{len(gspecs)} runs): {source}"
                )
        program_s = time.perf_counter() - t_program

        if pool is None and (workers <= 1 or len(work) == 1):
            memo: ReferenceMemo = {}
            for gkey, gspecs in groups.items():
                state, network, params = states[gkey]
                for shared in gspecs:
                    try:
                        row = call_with_retries(
                            run_trial, shared, state, network, params, memo
                        )
                    except Exception as exc:
                        if not keep_going:
                            raise
                        emit_error(shared, exc)
                    else:
                        emit(row, members[shared.key])
        else:
            # snapshot each group's state to disk so the pool initializer /
            # run_trial_chunk can load it once per worker process
            tmpdir: Optional[str] = None
            if cache.root is None:
                tmpdir = tempfile.mkdtemp(prefix="repro-sweep-state-")
            paths: Dict[str, str] = {}
            for gkey, (state, _, _) in states.items():
                if cache.root is not None:
                    paths[gkey] = str(cache.ensure_on_disk(state))
                else:
                    paths[gkey] = str(state.save(Path(tmpdir) / state.key))
            try:
                own_pool = pool is None
                original_pool = pool
                if own_pool:
                    pool, pool_startup_s = warm_pool(workers, tuple(paths.values()))
                holder: List[Executor] = [pool]

                def rebuild() -> Executor:
                    return warm_pool(max(2, workers), tuple(paths.values()))[0]

                def on_result(task: _PoolTask, rows: List[dict]) -> None:
                    for row, shared in zip(rows, task.payload):
                        emit(row, members[shared.key])

                def on_failure(task: _PoolTask, exc: BaseException) -> None:
                    if not keep_going:
                        raise exc
                    for shared in task.payload:
                        emit_error(shared, exc)

                # ~2 chunks per worker: coarse enough that chunk hand-off
                # (result pickling, scheduling) stays negligible next to
                # the trials, fine enough that a straggler worker can
                # still be backfilled
                size = chunk_size or max(
                    1, math.ceil(len(work) / (workers * 2 if workers else 2))
                )
                tasks = [
                    _PoolTask(
                        fn=run_trial_chunk,
                        args=(chunk, paths[gkey]),
                        payload=chunk,
                        weight=len(chunk),
                    )
                    for gkey, gspecs in groups.items()
                    for chunk in (
                        gspecs[lo : lo + size] for lo in range(0, len(gspecs), size)
                    )
                ]
                try:
                    _drain_pool(
                        holder,
                        rebuild,
                        tasks,
                        on_result,
                        on_failure,
                        max_retries,
                        retry_backoff_s,
                        trial_timeout_s,
                        progress,
                    )
                finally:
                    # a rebuilt pool is owned here even when the caller lent
                    # the original (now dead) one; the original is only
                    # closed if this call created it
                    if own_pool or holder[0] is not original_pool:
                        holder[0].shutdown()
            finally:
                if tmpdir is not None:
                    shutil.rmtree(tmpdir, ignore_errors=True)
    elapsed = time.perf_counter() - start

    # compact: grid rows in canonical order, then any foreign rows (other
    # grids sharing the store) in key order so the file stays deterministic
    ordered = [known[spec.key] for spec in specs]
    grid_keys = {spec.key for spec in specs}
    extras = [known[key] for key in sorted(known) if key not in grid_keys]
    store.rewrite(ordered + extras)
    return SweepOutcome(
        rows=ordered,
        computed=len(pending),
        skipped=skipped,
        executed=len(work),
        elapsed_s=elapsed,
        program_s=program_s,
        pool_startup_s=pool_startup_s,
        failed=failed,
    )
