"""Monte-Carlo sweep subsystem: grid expansion and content keys, worker-count
determinism (byte-identical stores), resumability (zero recomputation),
monotone error growth with the noise scale, and construction-order
independence of the noisy engine draws the sweep depends on."""

import json
import pickle

import numpy as np
import pytest

from repro.circuits.noise import HardwareNoiseConfig
from repro.context import NUMERICS_VERSION, SimContext
from repro.engine import NetworkExecutor
from repro.nn.models import build_model
from repro.sim import cli
from repro.sweep import (
    SweepGrid,
    SweepStore,
    TrialSpec,
    format_summary,
    run_sweep,
    run_trial,
    summarize,
    warm_pool,
)

TINY_GRID = SweepGrid(models=("tiny_cnn",), noise_scales=(0.0, 1.0), trials=2, seed=0)


# ---------------------------------------------------------------------------
# grid + specs
# ---------------------------------------------------------------------------

def test_grid_expands_the_full_cartesian_product():
    grid = SweepGrid(
        models=("tiny_cnn", "tiny_mlp"),
        noise_scales=(0.0, 1.0),
        trials=3,
        cell_bits=(4, 8),
        compute_dtypes=("float64", "float32"),
    )
    specs = grid.specs()
    assert len(specs) == len(grid) == 2 * 2 * 3 * 2 * 2
    assert len({spec.key for spec in specs}) == len(specs)  # keys are unique
    # deterministic canonical order
    assert [spec.key for spec in grid.specs()] == [spec.key for spec in specs]


def test_trial_keys_are_content_stable():
    spec = TrialSpec(model="tiny_cnn", noise_scale=0.5, trial=1)
    same = TrialSpec(model="tiny_cnn", noise_scale=0.5, trial=1)
    other = TrialSpec(model="tiny_cnn", noise_scale=0.5, trial=2)
    assert spec.key == same.key
    assert spec.key != other.key
    assert pickle.loads(pickle.dumps(spec)).key == spec.key


def test_trial_context_decorrelates_noise_per_trial_only():
    a = TrialSpec(model="tiny_cnn", noise_scale=1.0, trial=0).context()
    b = TrialSpec(model="tiny_cnn", noise_scale=1.0, trial=1).context()
    assert a.seed == b.seed  # weights/input fixed across trials
    assert a.noise.seed != b.noise.seed
    # the same trial at a different scale shares the noise seed, so a
    # trial's draws scale monotonically with the noise severity
    c = TrialSpec(model="tiny_cnn", noise_scale=0.5, trial=0).context()
    assert c.noise.seed == a.noise.seed
    zero = TrialSpec(model="tiny_cnn", noise_scale=0.0, trial=0).context()
    assert zero.noise is None


def test_grid_deduplicates_repeated_values_in_order():
    grid = SweepGrid(
        models=("tiny_cnn", "tiny_cnn"),
        noise_scales=(0.0, 0.5, 0.5),
        trials=2,
        cell_bits=(4, 4),
    )
    assert grid.models == ("tiny_cnn",)
    assert grid.noise_scales == (0.0, 0.5)
    assert grid.cell_bits == (4,)
    assert len(grid) == len(grid.specs()) == 4


def test_grid_rejects_bad_configurations():
    with pytest.raises(ValueError):
        SweepGrid(models=())
    with pytest.raises(ValueError):
        SweepGrid(trials=0)
    with pytest.raises(ValueError):
        SweepGrid(noise_scales=(-0.5,))
    # NaN/inf would pass a bare `< 0` check and corrupt the JSON store
    with pytest.raises(ValueError):
        SweepGrid(noise_scales=(float("nan"),))
    with pytest.raises(ValueError):
        SweepGrid(noise_scales=(float("inf"),))
    with pytest.raises(ValueError):
        SweepGrid(mode="warp")
    # the crossbar geometry every trial builds is checked up front
    for field in ("rows", "cols", "weight_bits", "input_bits"):
        with pytest.raises(ValueError, match="must be positive"):
            SweepGrid(**{field: 0})


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------

def test_store_appends_and_loads_by_key(tmp_path):
    store = SweepStore(tmp_path / "rows.jsonl")
    store.append({"key": "a", "value": 1})
    store.append({"key": "b", "value": 2})
    rows = store.load()
    assert set(rows) == {"a", "b"}
    assert rows["a"]["value"] == 1


def test_store_tolerates_a_torn_tail_line(tmp_path):
    """A crash mid-append leaves a partial line; it is skipped (and thus
    recomputed), not fatal."""
    path = tmp_path / "rows.jsonl"
    store = SweepStore(path)
    store.append({"key": "a", "value": 1})
    with open(path, "a") as handle:
        handle.write('{"key": "b", "val')  # torn write
    rows = store.load()
    assert set(rows) == {"a"}
    assert store.skipped_lines == 1


def test_store_rewrite_is_canonical(tmp_path):
    store = SweepStore(tmp_path / "rows.jsonl")
    store.append({"key": "b", "value": 2})
    store.append({"key": "a", "value": 1})
    store.rewrite([{"key": "a", "value": 1}, {"key": "b", "value": 2}])
    assert [json.loads(line)["key"] for line in store.lines()] == ["a", "b"]


# ---------------------------------------------------------------------------
# sweep execution
# ---------------------------------------------------------------------------

def test_sweep_rows_are_byte_identical_across_worker_counts(tmp_path):
    serial = SweepStore(tmp_path / "serial.jsonl")
    pooled = SweepStore(tmp_path / "pooled.jsonl")
    run_sweep(TINY_GRID, serial, workers=1)
    run_sweep(TINY_GRID, pooled, workers=2)
    assert serial.lines() == pooled.lines()
    assert serial.path.read_bytes() == pooled.path.read_bytes()


def test_sweep_resume_computes_zero_new_trials(tmp_path):
    store = SweepStore(tmp_path / "rows.jsonl")
    first = run_sweep(TINY_GRID, store, workers=1)
    assert first.computed == len(TINY_GRID) and first.skipped == 0
    before = store.path.read_bytes()
    again = run_sweep(TINY_GRID, store, workers=1, resume=True)
    assert again.computed == 0
    assert again.skipped == len(TINY_GRID)
    assert store.path.read_bytes() == before
    assert [row["key"] for row in again.rows] == [row["key"] for row in first.rows]


def test_sweep_resume_completes_a_partial_store(tmp_path):
    """Only the missing trials run; surviving rows are reused verbatim —
    including fanning a stored noiseless run out to its sibling trials
    without re-executing it."""
    store = SweepStore(tmp_path / "rows.jsonl")
    complete = run_sweep(TINY_GRID, store, workers=1)
    # keep only the first row (noise 0, trial 0), as an interrupted sweep might
    store.rewrite(complete.rows[:1])
    resumed = run_sweep(TINY_GRID, store, workers=1, resume=True)
    assert resumed.skipped == 1
    assert resumed.computed == len(TINY_GRID) - 1
    # noise-0 trial 1 reuses the stored trial-0 run; only the 2 noisy trials execute
    assert resumed.executed == 2
    assert resumed.rows == complete.rows


def test_resume_recomputes_rows_of_another_numerics_version(tmp_path, monkeypatch):
    """The numerics version keys every trial and is written on every row,
    so resuming over a store written under another version recomputes
    every trial instead of mixing the old rows into the outcome."""
    import repro.sweep.grid as grid_module

    store = SweepStore(tmp_path / "rows.jsonl")
    monkeypatch.setattr(grid_module, "NUMERICS_VERSION", NUMERICS_VERSION - 1)
    old = run_sweep(TINY_GRID, store, workers=1)
    assert {row["numerics"] for row in old.rows} == {NUMERICS_VERSION - 1}
    monkeypatch.undo()
    resumed = run_sweep(TINY_GRID, store, workers=1, resume=True)
    assert resumed.skipped == 0 and resumed.computed == len(TINY_GRID)
    assert {row["numerics"] for row in resumed.rows} == {NUMERICS_VERSION}
    assert not {row["key"] for row in resumed.rows} & {row["key"] for row in old.rows}
    # only the key and the version differ: the engine itself did not change
    def strip(row):
        return {k: v for k, v in row.items() if k not in ("key", "numerics")}

    assert [strip(row) for row in resumed.rows] == [strip(row) for row in old.rows]


def test_noiseless_grid_points_share_one_engine_run(tmp_path):
    """Scale-0 trials are bit-identical forwards, so they execute once and
    fan out — rows still carry their own trial index and content key."""
    outcome = run_sweep(TINY_GRID, SweepStore(tmp_path / "rows.jsonl"), workers=1)
    assert outcome.computed == 4
    assert outcome.executed == 3  # 1 shared noiseless run + 2 noisy trials
    zero_rows = [row for row in outcome.rows if row["noise_scale"] == 0.0]
    assert [row["trial"] for row in zero_rows] == [0, 1]
    assert len({row["key"] for row in zero_rows}) == 2
    assert zero_rows[0]["rel_error"] == zero_rows[1]["rel_error"]


def test_sweep_without_resume_recomputes_a_stale_store(tmp_path):
    store = SweepStore(tmp_path / "rows.jsonl")
    store.append({"key": "stale", "value": 1})
    outcome = run_sweep(TINY_GRID, store, workers=1)
    assert outcome.computed == len(TINY_GRID)
    assert "stale" not in store.load()


def test_mean_error_grows_monotonically_with_noise_on_cnn1(tmp_path):
    """The acceptance bar: cnn_1 over --noise-grid 0,0.5,1 shows mean
    rel-error increasing with the noise scale."""
    grid = SweepGrid(models=("cnn_1",), noise_scales=(0.0, 0.5, 1.0), trials=2)
    outcome = run_sweep(grid, SweepStore(tmp_path / "rows.jsonl"), workers=1)
    summary = summarize(outcome.rows)
    errors = [entry["mean_rel_error"] for entry in summary]
    assert [entry["noise_scale"] for entry in summary] == [0.0, 0.5, 1.0]
    assert errors[0] < errors[1] < errors[2]
    # per-layer attribution is populated and finite
    for entry in summary:
        assert entry["layers"]
        assert all(np.isfinite(err) for err in entry["layers"].values())


def test_ideal_mode_trials_share_one_engine_run_per_grid_point(tmp_path):
    """Ideal read-out bypasses the noisy analog chains, so every trial of
    every grid point is deterministic — one run each, fanned out."""
    grid = SweepGrid(
        models=("tiny_cnn",), noise_scales=(0.0, 1.0), trials=3, mode="ideal"
    )
    outcome = run_sweep(grid, SweepStore(tmp_path / "rows.jsonl"), workers=1)
    assert outcome.computed == 6
    assert outcome.executed == 2  # one per grid point
    by_scale = {}
    for row in outcome.rows:
        by_scale.setdefault(row["noise_scale"], set()).add(row["rel_error"])
    assert all(len(errors) == 1 for errors in by_scale.values())


def test_run_trial_row_matches_a_direct_engine_run():
    spec = TrialSpec(model="tiny_cnn", noise_scale=1.0, trial=3)
    row = run_trial(spec)
    network = build_model(spec.model)
    executor = NetworkExecutor(network, spec.context(), mode=spec.mode)
    result = executor.run(executor.random_input(), validate=True)
    assert row["rel_error"] == result.rel_error
    assert row["crossbars"] == executor.crossbars
    assert row["key"] == spec.key


# ---------------------------------------------------------------------------
# program-once pool behaviour
# ---------------------------------------------------------------------------

def test_run_trial_from_shared_state_matches_from_scratch():
    """A pre-programmed snapshot yields the byte-identical row a trial that
    programs its own chip produces — noise included."""
    from repro.engine import NetworkParams, program

    spec = TrialSpec(model="tiny_cnn", noise_scale=1.0, trial=2)
    legacy_row = run_trial(spec)
    network = build_model(spec.model)
    state = program(network, spec.context(), spec.mode)
    shared_row = run_trial(
        spec, state=state, network=network, params=NetworkParams(network, spec.seed)
    )
    assert shared_row == legacy_row


def test_chunk_size_does_not_change_the_store(tmp_path):
    coarse = SweepStore(tmp_path / "coarse.jsonl")
    fine = SweepStore(tmp_path / "fine.jsonl")
    run_sweep(TINY_GRID, coarse, workers=2)
    run_sweep(TINY_GRID, fine, workers=2, chunk_size=1)
    assert coarse.path.read_bytes() == fine.path.read_bytes()


def test_fully_resumed_sweep_creates_no_pool(tmp_path, monkeypatch):
    """Pool startup dominates a no-op sweep, so a fully-resumed invocation
    must never spawn workers — even when asked for several."""
    import repro.sweep.pool as pool_mod

    store = SweepStore(tmp_path / "rows.jsonl")
    run_sweep(TINY_GRID, store, workers=1)

    def forbidden(*args, **kwargs):
        raise AssertionError("a fully-resumed sweep must not create a pool")

    monkeypatch.setattr(pool_mod, "warm_pool", forbidden)
    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", forbidden)
    outcome = run_sweep(TINY_GRID, store, workers=4, resume=True)
    assert outcome.computed == 0 and outcome.skipped == len(TINY_GRID)
    assert outcome.program_s == 0.0 and outcome.pool_startup_s == 0.0


def test_outcome_records_programming_and_pool_startup(tmp_path):
    inline = run_sweep(TINY_GRID, SweepStore(tmp_path / "a.jsonl"), workers=1)
    assert inline.program_s > 0.0  # shared states were programmed
    assert inline.pool_startup_s == 0.0  # no pool inline
    pooled = run_sweep(TINY_GRID, SweepStore(tmp_path / "b.jsonl"), workers=2)
    assert pooled.program_s > 0.0
    assert pooled.pool_startup_s > 0.0  # it built (and timed) its own pool


def test_prewarmed_pool_is_reused_not_shut_down(tmp_path):
    """A caller-owned pool serves several sweeps; run_sweep neither warms
    nor shuts it down (pool_startup_s stays 0)."""
    pool, startup_s = warm_pool(2)
    try:
        assert startup_s > 0.0
        first = run_sweep(TINY_GRID, SweepStore(tmp_path / "a.jsonl"), workers=2, pool=pool)
        second = run_sweep(TINY_GRID, SweepStore(tmp_path / "b.jsonl"), workers=2, pool=pool)
        assert first.pool_startup_s == 0.0 and second.pool_startup_s == 0.0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    finally:
        pool.shutdown()


def test_sweep_reuses_a_disk_cache_across_invocations(tmp_path):
    """With a --state-cache directory, the second sweep of the same grid
    loads the programmed snapshot instead of re-programming it."""
    from repro.engine import ProgrammedStateCache

    cache_root = tmp_path / "cache"
    first_cache = ProgrammedStateCache(root=cache_root)
    run_sweep(TINY_GRID, SweepStore(tmp_path / "a.jsonl"), workers=1, cache=first_cache)
    assert first_cache.counts["programmed"] == 1
    second_cache = ProgrammedStateCache(root=cache_root)
    run_sweep(TINY_GRID, SweepStore(tmp_path / "b.jsonl"), workers=1, cache=second_cache)
    assert second_cache.counts == {"memory": 0, "disk": 1, "programmed": 0}
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_run_trial_chunk_matches_individual_trials(tmp_path):
    from repro.engine import program
    from repro.sweep import run_trial_chunk

    specs = [
        TrialSpec(model="tiny_cnn", noise_scale=1.0, trial=t) for t in range(3)
    ]
    network = build_model("tiny_cnn")
    state = program(network, specs[0].context(), specs[0].mode)
    path = state.save(tmp_path / state.key)
    assert run_trial_chunk(specs, str(path)) == [run_trial(s) for s in specs]


def test_sweep_rejects_bad_worker_and_chunk_configuration(tmp_path):
    store = SweepStore(tmp_path / "rows.jsonl")
    with pytest.raises(ValueError):
        run_sweep(TINY_GRID, store, workers=-1)
    with pytest.raises(ValueError):
        run_sweep(TINY_GRID, store, chunk_size=0)


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_summarize_reduces_mean_and_p95():
    rows = [
        {
            "model": "m",
            "cell_bits": 4,
            "noise_scale": 1.0,
            "rel_error": err,
            "layers": {"conv": err / 2},
        }
        for err in (0.1, 0.2, 0.3, 0.4)
    ]
    (entry,) = summarize(rows)
    assert entry["trials"] == 4
    assert entry["mean_rel_error"] == pytest.approx(0.25)
    assert entry["p95_rel_error"] == pytest.approx(np.percentile([0.1, 0.2, 0.3, 0.4], 95))
    assert entry["max_rel_error"] == pytest.approx(0.4)
    assert entry["layers"]["conv"] == pytest.approx(0.125)
    assert "2.500e-01" in format_summary([entry])


# ---------------------------------------------------------------------------
# the correctness prerequisite: construction-order independent noise
# ---------------------------------------------------------------------------

def test_two_executors_from_one_context_agree_noisily():
    """The headline bugfix: noisy outputs no longer depend on how many
    executors consumed the (previously shared) noise stream first."""
    network = build_model("tiny_cnn")
    ctx = SimContext(noise=HardwareNoiseConfig.scaled(1.0, seed=5))
    first = NetworkExecutor(network, ctx)
    second = NetworkExecutor(network, ctx)  # construction order must not matter
    x = first.random_input()
    np.testing.assert_array_equal(first.run(x).output, second.run(x).output)


def test_noisy_output_is_independent_of_unrelated_noise_consumption():
    network = build_model("tiny_cnn")
    noise = HardwareNoiseConfig.scaled(1.0, seed=5)
    ctx = SimContext(noise=noise)
    x = NetworkExecutor(network, ctx).random_input()
    baseline = NetworkExecutor(network, ctx).run(x).output
    # burn unrelated draws on the same config, then rebuild: identical
    noise.sample(1.0, (1024,), salt="elsewhere")
    NetworkExecutor(build_model("tiny_mlp"), SimContext(noise=noise))
    np.testing.assert_array_equal(NetworkExecutor(network, ctx).run(x).output, baseline)


# ---------------------------------------------------------------------------
# compute-dtype as a grid axis
# ---------------------------------------------------------------------------

def test_grid_expands_compute_dtypes_and_counts_them():
    grid = SweepGrid(
        models=("tiny_cnn",),
        noise_scales=(0.0,),
        trials=2,
        compute_dtypes=("float64", "float32"),
    )
    specs = grid.specs()
    assert len(specs) == len(grid) == 2 * 2
    assert {spec.compute_dtype for spec in specs} == {"float64", "float32"}
    assert grid.to_dict()["compute_dtypes"] == ["float64", "float32"]
    with pytest.raises(ValueError):
        SweepGrid(models=("tiny_cnn",), compute_dtypes=("float16",))


def test_trial_keys_distinguish_compute_dtypes():
    """A float32 campaign must never collide with a float64 one in the
    result store (trial content keys), while both share the group's one
    programmed state (group keys): the state holds integers, and precision
    is chosen at wiring."""
    from repro.sweep.pool import _group_key

    f64 = TrialSpec(model="tiny_cnn", noise_scale=0.5, trial=1)
    f32 = TrialSpec(
        model="tiny_cnn", noise_scale=0.5, trial=1, compute_dtype="float32"
    )
    assert f64.compute_dtype == "float64"  # the historical default
    assert f64.key != f32.key
    assert _group_key(f64) == _group_key(f32)
    assert f64.as_row()["compute_dtype"] == "float64"
    assert f32.as_row()["compute_dtype"] == "float32"


def test_trial_context_carries_the_compute_dtype():
    spec = TrialSpec(
        model="tiny_cnn", noise_scale=0.0, trial=0, compute_dtype="float32"
    )
    assert spec.context().compute_dtype == "float32"


def test_mixed_dtype_sweep_runs_and_stays_at_the_floor(tmp_path):
    """One grid, both precisions: rows land under distinct keys and the
    float32 rows stay at the same quantisation floor as float64's."""
    grid = SweepGrid(
        models=("tiny_cnn",),
        noise_scales=(0.0,),
        trials=1,
        compute_dtypes=("float64", "float32"),
    )
    outcome = run_sweep(grid, SweepStore(tmp_path / "mixed.jsonl"), workers=1)
    by_dtype = {row["compute_dtype"]: row for row in outcome.rows}
    assert set(by_dtype) == {"float64", "float32"}
    assert by_dtype["float32"]["rel_error"] <= 1.5 * by_dtype["float64"]["rel_error"]


def test_mixed_dtype_grid_programs_each_model_once(tmp_path):
    """Both precisions of a model wire one programmed state."""
    from repro.engine import ProgrammedStateCache

    grid = SweepGrid(
        models=("tiny_cnn", "tiny_mlp"),
        noise_scales=(0.0, 1.0),
        trials=2,
        compute_dtypes=("float64", "float32"),
    )
    cache = ProgrammedStateCache()
    outcome = run_sweep(grid, SweepStore(tmp_path / "mixed.jsonl"), workers=1, cache=cache)
    assert cache.counts["programmed"] == len(grid.models)
    assert {row["compute_dtype"] for row in outcome.rows} == {"float64", "float32"}


# ---------------------------------------------------------------------------
# store robustness
# ---------------------------------------------------------------------------

def test_store_duplicate_keys_last_write_wins(tmp_path):
    store = SweepStore(tmp_path / "r.jsonl")
    store.append({"key": "a", "rel_error": 1.0})
    store.append({"key": "b", "rel_error": 2.0})
    store.append({"key": "a", "rel_error": 3.0})
    rows = store.load()
    assert rows["a"]["rel_error"] == 3.0
    assert rows["b"]["rel_error"] == 2.0
    assert store.skipped_lines == 0


def test_store_crash_mid_rewrite_preserves_the_original(tmp_path, monkeypatch):
    """A rewrite that dies before the atomic replace leaves the previous
    file byte-identical and no stray .tmp behind."""
    import os as _os

    store = SweepStore(tmp_path / "r.jsonl")
    store.append({"key": "a", "rel_error": 1.0})
    before = store.path.read_bytes()

    def exploding_replace(src, dst):
        raise OSError("simulated crash during rewrite")

    monkeypatch.setattr(_os, "replace", exploding_replace)
    with pytest.raises(OSError, match="simulated crash"):
        store.rewrite([{"key": "b", "rel_error": 2.0}])
    assert store.path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


# ---------------------------------------------------------------------------
# crash-tolerant sweeps
# ---------------------------------------------------------------------------

def _flaky_run_trial(failures, error=RuntimeError("transient")):
    """A run_trial wrapper failing the first ``failures`` calls per spec key."""
    from repro.sweep import pool as pool_mod

    real = pool_mod.run_trial
    remaining = {}

    def wrapper(spec, *args, **kwargs):
        left = remaining.setdefault(spec.key, failures)
        if left > 0:
            remaining[spec.key] = left - 1
            raise error
        return real(spec, *args, **kwargs)

    return wrapper


def test_inline_sweep_retries_transient_failures(tmp_path, monkeypatch):
    from repro.sweep import pool as pool_mod

    clean = SweepStore(tmp_path / "clean.jsonl")
    run_sweep(TINY_GRID, clean, workers=0)
    monkeypatch.setattr(pool_mod, "run_trial", _flaky_run_trial(failures=1))
    flaky = SweepStore(tmp_path / "flaky.jsonl")
    outcome = run_sweep(TINY_GRID, flaky, workers=0, retry_backoff_s=0.0)
    assert outcome.failed == 0
    assert flaky.lines() == clean.lines()


def test_inline_sweep_raises_after_exhausted_retries(tmp_path, monkeypatch):
    from repro.sweep import pool as pool_mod

    monkeypatch.setattr(pool_mod, "run_trial", _flaky_run_trial(failures=99))
    store = SweepStore(tmp_path / "r.jsonl")
    with pytest.raises(RuntimeError, match="transient"):
        run_sweep(TINY_GRID, store, workers=0, max_retries=1, retry_backoff_s=0.0)


def test_keep_going_records_error_rows_and_resume_retries_them(
    tmp_path, monkeypatch
):
    from repro.sweep import pool as pool_mod

    clean = SweepStore(tmp_path / "clean.jsonl")
    run_sweep(TINY_GRID, clean, workers=0)

    monkeypatch.setattr(pool_mod, "run_trial", _flaky_run_trial(failures=99))
    store = SweepStore(tmp_path / "r.jsonl")
    outcome = run_sweep(
        TINY_GRID, store, workers=0, max_retries=0, retry_backoff_s=0.0,
        keep_going=True,
    )
    assert outcome.failed == len(TINY_GRID.specs())
    rows = store.load()
    assert all("error" in row and "RuntimeError" in row["error"] for row in rows.values())
    assert summarize(rows.values())[0]["trials"] == 0  # all excluded, cell kept

    # resume with the healthy run_trial recomputes exactly the failed trials
    monkeypatch.undo()
    healed = run_sweep(TINY_GRID, store, workers=0, resume=True)
    assert healed.computed == len(TINY_GRID.specs())
    assert healed.failed == 0
    assert store.lines() == clean.lines()


def test_pooled_sweep_survives_a_worker_crash(tmp_path, monkeypatch):
    """One SIGKILLed worker mid-sweep: the pool is rebuilt, in-flight chunks
    re-run, and the final store is byte-identical to an uncrashed run."""
    grid = SweepGrid(models=("tiny_mlp",), noise_scales=(0.0, 1.0), trials=3, seed=0)
    clean = SweepStore(tmp_path / "clean.jsonl")
    run_sweep(grid, clean, workers=2, chunk_size=1)

    marker = tmp_path / "crash.marker"
    monkeypatch.setenv("REPRO_SWEEP_CRASH_ONCE", str(marker))
    crashed = SweepStore(tmp_path / "crashed.jsonl")
    outcome = run_sweep(
        grid, crashed, workers=2, chunk_size=1, retry_backoff_s=0.05
    )
    assert marker.exists()  # the injection actually fired
    assert outcome.failed == 0
    assert crashed.path.read_bytes() == clean.path.read_bytes()
    resumed = run_sweep(grid, crashed, workers=2, resume=True)
    assert resumed.computed == 0 and resumed.skipped == len(grid)


def test_sweep_rejects_bad_retry_configuration(tmp_path):
    store = SweepStore(tmp_path / "r.jsonl")
    with pytest.raises(ValueError, match="max_retries"):
        run_sweep(TINY_GRID, store, max_retries=-1)
    with pytest.raises(ValueError, match="retry_backoff_s"):
        run_sweep(TINY_GRID, store, retry_backoff_s=-0.1)
    with pytest.raises(ValueError, match="trial_timeout_s"):
        run_sweep(TINY_GRID, store, trial_timeout_s=0.0)
    # NaN would disarm the stall watchdog; inf never fires it
    for timeout in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="trial_timeout_s"):
            run_sweep(TINY_GRID, store, trial_timeout_s=timeout)
        args = ["sweep", "--model", "tiny_mlp", "--noise-grid", "0", "--trials", "1"]
        args += ["--output", str(tmp_path / "cli.jsonl"), "--trial-timeout", str(timeout)]
        assert cli.main(args) == 2
    assert not (tmp_path / "cli.jsonl").exists()


# ---------------------------------------------------------------------------
# fault axis
# ---------------------------------------------------------------------------

def test_grid_expands_stuck_fractions_and_keys_differ():
    grid = SweepGrid(
        models=("tiny_mlp",), noise_scales=(0.0,), trials=2,
        stuck_fractions=(0.0, 0.05),
    )
    assert len(grid) == 4
    faulty = TrialSpec(model="tiny_mlp", noise_scale=0.0, trial=0, stuck_fraction=0.05)
    pristine = TrialSpec(model="tiny_mlp", noise_scale=0.0, trial=0)
    assert faulty.key != pristine.key
    with pytest.raises(ValueError, match="stuck fractions"):
        SweepGrid(models=("tiny_mlp",), stuck_fractions=(1.5,))


def test_trial_context_carries_a_per_trial_fault_model():
    spec = TrialSpec(model="tiny_mlp", noise_scale=0.0, trial=1, stuck_fraction=0.04)
    ctx = spec.context()
    assert ctx.faults is not None
    assert ctx.faults.stuck_on_fraction == ctx.faults.stuck_off_fraction == 0.02
    other = TrialSpec(
        model="tiny_mlp", noise_scale=0.0, trial=2, stuck_fraction=0.04
    ).context()
    assert ctx.faults.seed != other.faults.seed
    assert TrialSpec(model="tiny_mlp", noise_scale=0.0, trial=1).context().faults is None


def test_faulty_noiseless_trials_do_not_share_an_engine_run(tmp_path):
    """Faults decorrelate per trial, so the noiseless-dedup shortcut must
    not collapse faulty analog trials — but still collapses ideal ones."""
    from repro.sweep.pool import _work_spec

    faulty = TrialSpec(model="tiny_mlp", noise_scale=0.0, trial=2, stuck_fraction=0.05)
    assert _work_spec(faulty) == faulty
    ideal = TrialSpec(
        model="tiny_mlp", noise_scale=0.0, trial=2, stuck_fraction=0.05, mode="ideal"
    )
    assert _work_spec(ideal).trial == 0

    grid = SweepGrid(
        models=("tiny_mlp",), noise_scales=(0.0,), trials=3,
        stuck_fractions=(0.05,), rows=64, cols=64,
    )
    store = SweepStore(tmp_path / "r.jsonl")
    outcome = run_sweep(grid, store, workers=0)
    assert outcome.executed == 3  # one engine run per trial, no dedup
    errors = {row["rel_error"] for row in store.load().values()}
    assert len(errors) == 3  # distinct chip realisations


def test_mean_error_grows_with_the_stuck_fraction(tmp_path):
    grid = SweepGrid(
        models=("tiny_mlp",), noise_scales=(0.0,), trials=4,
        stuck_fractions=(0.0, 0.02, 0.1), rows=64, cols=64,
    )
    store = SweepStore(tmp_path / "r.jsonl")
    outcome = run_sweep(grid, store, workers=0)
    summary = summarize(outcome.rows)
    means = [entry["mean_rel_error"] for entry in summary]
    assert means == sorted(means)
    assert means[0] < means[-1]
