"""ProgrammedState tests: program/from_state compose identity, save/load
round-trips (eager and mmap) that stay byte-identical through execution,
state/request mismatch rejection, content keys, format versioning and the
LRU + disk cache."""

import json

import numpy as np
import pytest

from repro.circuits.noise import HardwareNoiseConfig
from repro.context import ArchSpec, SimContext
from repro.engine import (
    EngineError,
    NetworkExecutor,
    ProgrammedState,
    ProgrammedStateCache,
    program,
    state_key,
)
from repro.engine.state import STATE_FORMAT
from repro.nn.models import build_model

#: cell splits exercised by the round-trip matrix: 8-bit weights over
#: 8-bit cells (1 slice), 4-bit cells (2 slices) and 2-bit cells (4 slices)
CELL_SPLITS = (8, 4, 2)


def _run_pair(fresh, rebuilt, x):
    """Run both executors on ``x`` and return their results."""
    return fresh.run(x), rebuilt.run(x)


def _assert_identical(fresh_result, rebuilt_result):
    np.testing.assert_array_equal(fresh_result.output, rebuilt_result.output)
    assert fresh_result.rel_error == rebuilt_result.rel_error
    for a, b in zip(fresh_result.traces, rebuilt_result.traces):
        assert a.name == b.name and a.rel_error == b.rel_error


# ---------------------------------------------------------------------------
# program / from_state compose identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["analog", "ideal"])
def test_legacy_constructor_equals_program_plus_from_state(mode):
    """The historical one-shot constructor is exactly program + wire."""
    network = build_model("tiny_cnn")
    ctx = SimContext()
    legacy = NetworkExecutor(network, ctx, mode=mode)
    state = program(network, ctx, mode)
    rebuilt = NetworkExecutor.from_state(state, network=network, ctx=ctx)
    x = legacy.random_input()
    _assert_identical(*_run_pair(legacy, rebuilt, x))


def test_from_state_defaults_rebuild_model_and_context():
    """from_state with no network/ctx reconstructs both from the state."""
    network = build_model("tiny_mlp")
    ctx = SimContext(seed=5)
    state = program(network, ctx, "analog")
    rebuilt = NetworkExecutor.from_state(state)
    assert rebuilt.ctx.seed == 5
    fresh = NetworkExecutor(network, ctx)
    x = fresh.random_input()
    _assert_identical(*_run_pair(fresh, rebuilt, x))


def test_executor_records_its_state():
    network = build_model("tiny_mlp")
    executor = NetworkExecutor(network, SimContext())
    assert isinstance(executor.state, ProgrammedState)
    assert executor.state.model == "tiny_mlp"
    assert executor.state.key == state_key("tiny_mlp", executor.ctx.arch, "analog", 0)


# ---------------------------------------------------------------------------
# save -> load -> execute round-trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cell_bits", CELL_SPLITS)
@pytest.mark.parametrize("mmap", [False, True])
def test_round_trip_is_byte_identical_across_cell_splits(tmp_path, cell_bits, mmap):
    """save -> load (eager and mmap) -> from_state reproduces a freshly
    programmed executor bit-for-bit, for every bit-cell slicing."""
    network = build_model("tiny_cnn")
    ctx = SimContext(arch=ArchSpec(cell_bits=cell_bits))
    fresh = NetworkExecutor(network, ctx)
    fresh.state.save(tmp_path / "state")
    loaded = ProgrammedState.load(tmp_path / "state", mmap=mmap)
    rebuilt = NetworkExecutor.from_state(loaded, network=network, ctx=ctx)
    x = fresh.random_input()
    _assert_identical(*_run_pair(fresh, rebuilt, x))


def test_round_trip_branching_model(tmp_path):
    """A branching DAG (residual adds + projection) survives the round trip."""
    network = build_model("resnet_smoke")
    ctx = SimContext()
    fresh = NetworkExecutor(network, ctx)
    fresh.state.save(tmp_path / "state")
    loaded = ProgrammedState.load(tmp_path / "state")
    rebuilt = NetworkExecutor.from_state(loaded, network=network, ctx=ctx)
    x = fresh.random_input()
    _assert_identical(*_run_pair(fresh, rebuilt, x))


def test_round_trip_with_noise_is_bit_identical(tmp_path):
    """Per-trial programming variation applies identically on top of a
    loaded snapshot — the property the sweep pool's byte-identity rests on."""
    network = build_model("tiny_cnn")
    ctx = SimContext(noise=HardwareNoiseConfig(), seed=3)
    fresh = NetworkExecutor(network, ctx)
    fresh.state.save(tmp_path / "state")
    loaded = ProgrammedState.load(tmp_path / "state")
    rebuilt = NetworkExecutor.from_state(loaded, network=network, ctx=ctx)
    x = fresh.random_input()
    _assert_identical(*_run_pair(fresh, rebuilt, x))


def test_saved_meta_and_payload_round_trip_fields(tmp_path):
    network = build_model("tiny_cnn")
    ctx = SimContext(arch=ArchSpec(cell_bits=4), seed=9)
    state = program(network, ctx, "analog")
    state.save(tmp_path / "state")
    loaded = ProgrammedState.load(tmp_path / "state")
    assert loaded.model == state.model
    assert loaded.mode == state.mode
    assert loaded.seed == state.seed
    assert loaded.arch == state.arch
    assert loaded.key == state.key
    assert [l.name for l in loaded.layers] == [l.name for l in state.layers]
    for a, b in zip(state.layers, loaded.layers):
        assert len(a.conductances) == len(b.conductances)
        for ca, cb in zip(a.conductances, b.conductances):
            np.testing.assert_array_equal(ca, cb)
            # BLAS results depend on operand memory layout, so the saved
            # tensors must come back with the layout they were packed in
            assert ca.flags["F_CONTIGUOUS"] == cb.flags["F_CONTIGUOUS"]


def test_save_is_idempotent_and_existing_entry_wins(tmp_path):
    network = build_model("tiny_mlp")
    state = program(network, SimContext())
    first = state.save(tmp_path / "state")
    marker = first / "marker"
    marker.write_text("existing entry")
    second = state.save(tmp_path / "state")
    assert second == first
    assert marker.read_text() == "existing entry"  # rename did not clobber
    # no tmp droppings left behind
    assert [p.name for p in tmp_path.iterdir()] == ["state"]


def test_load_rejects_missing_and_wrong_format(tmp_path):
    with pytest.raises(EngineError, match="no programmed state"):
        ProgrammedState.load(tmp_path / "nope")
    state = program(build_model("tiny_mlp"), SimContext())
    path = state.save(tmp_path / "state")
    meta = path / "meta.json"
    meta.write_text(
        meta.read_text().replace(f'"format": {STATE_FORMAT}', '"format": 999')
    )
    with pytest.raises(EngineError, match="format"):
        ProgrammedState.load(path)


def test_load_rejects_a_format_2_state_naming_the_format(tmp_path):
    """A state saved before the single-engine layout (its manifest carries
    ``backend`` and per-layer ``q`` payloads) fails loudly, never loads."""
    path, _, _ = _saved_state(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    meta["format"] = 2
    meta["backend"] = "tiled"
    np.save(path / "L000_q.npy", np.zeros((1, 4, 4), dtype=np.int64))
    for i, layer in enumerate(meta["layers"]):
        layer["q"] = "L000_q.npy" if i == 0 else None
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(EngineError, match="format 2"):
        ProgrammedState.load(path)


# ---------------------------------------------------------------------------
# state / request mismatch rejection
# ---------------------------------------------------------------------------

def test_mismatched_state_is_rejected():
    network = build_model("tiny_cnn")
    other = build_model("tiny_mlp")
    ctx = SimContext()
    state = program(network, ctx)
    with pytest.raises(EngineError, match="model"):
        NetworkExecutor(other, ctx, state=state)
    with pytest.raises(EngineError, match="mode"):
        NetworkExecutor(network, ctx, mode="ideal", state=state)
    with pytest.raises(EngineError, match="compute_dtype"):
        NetworkExecutor(network, SimContext(compute_dtype="float32"), state=state)
    with pytest.raises(EngineError, match="seed"):
        NetworkExecutor(network, SimContext(seed=1), state=state)
    with pytest.raises(EngineError, match="arch"):
        NetworkExecutor(network, SimContext(arch=ArchSpec(cell_bits=2)), state=state)


def test_noise_difference_is_not_a_mismatch():
    """The state is noise-free; a noisy context may execute it directly."""
    network = build_model("tiny_mlp")
    state = program(network, SimContext())
    noisy_ctx = SimContext(noise=HardwareNoiseConfig())
    rebuilt = NetworkExecutor(network, noisy_ctx, state=state)
    fresh = NetworkExecutor(network, noisy_ctx)
    x = fresh.random_input()
    _assert_identical(*_run_pair(fresh, rebuilt, x))


# ---------------------------------------------------------------------------
# content keys
# ---------------------------------------------------------------------------

def test_state_key_is_stable_and_sensitive():
    arch = ArchSpec()
    base = state_key("cnn_1", arch, "analog", 0)
    assert base == state_key("cnn_1", arch, "analog", 0)
    assert len(base) == 16 and int(base, 16) >= 0
    assert base != state_key("mlp_l", arch, "analog", 0)
    assert base != state_key("cnn_1", arch, "ideal", 0)
    assert base != state_key("cnn_1", arch, "analog", 1)
    assert base != state_key("cnn_1", ArchSpec(cell_bits=2), "analog", 0)
    assert base != state_key("cnn_1", arch, "analog", 0, "float32")


# ---------------------------------------------------------------------------
# ProgrammedStateCache
# ---------------------------------------------------------------------------

def test_cache_sources_programmed_then_disk_then_memory(tmp_path):
    cache = ProgrammedStateCache(root=tmp_path / "cache")
    network = build_model("tiny_mlp")
    ctx = SimContext()
    state1, source1 = cache.get_or_program(network, ctx)
    assert source1 == "programmed"
    assert (cache.path_for(state1.key) / "meta.json").is_file()
    # a fresh cache over the same root must hit disk, not re-program
    cold = ProgrammedStateCache(root=tmp_path / "cache")
    state2, source2 = cold.get_or_program(network, ctx)
    assert source2 == "disk"
    state3, source3 = cold.get_or_program(network, ctx)
    assert source3 == "memory"
    assert state3 is state2
    assert cold.counts == {"memory": 1, "disk": 1, "programmed": 0}
    # all three states execute identically
    a = NetworkExecutor.from_state(state1, network=network).run()
    b = NetworkExecutor.from_state(state2, network=network).run()
    np.testing.assert_array_equal(a.output, b.output)


def test_cache_memory_only_reprograms_after_eviction():
    cache = ProgrammedStateCache(memory_entries=1)
    network_a = build_model("tiny_mlp")
    network_b = build_model("tiny_cnn")
    ctx = SimContext()
    assert cache.get_or_program(network_a, ctx)[1] == "programmed"
    assert cache.get_or_program(network_a, ctx)[1] == "memory"
    # programming B evicts A from the single-entry LRU...
    assert cache.get_or_program(network_b, ctx)[1] == "programmed"
    # ...and with no disk root, A must be programmed again
    assert cache.get_or_program(network_a, ctx)[1] == "programmed"


def test_cache_disk_backstops_lru_eviction(tmp_path):
    cache = ProgrammedStateCache(root=tmp_path / "cache", memory_entries=1)
    network_a = build_model("tiny_mlp")
    network_b = build_model("tiny_cnn")
    ctx = SimContext()
    cache.get_or_program(network_a, ctx)
    cache.get_or_program(network_b, ctx)  # evicts A from memory
    assert cache.get_or_program(network_a, ctx)[1] == "disk"


def test_cache_ignores_noise_in_lookup():
    """One snapshot serves every noise scale of a Monte-Carlo sweep."""
    cache = ProgrammedStateCache()
    network = build_model("tiny_mlp")
    clean, s1 = cache.get_or_program(network, SimContext())
    noisy, s2 = cache.get_or_program(
        network, SimContext(noise=HardwareNoiseConfig())
    )
    assert (s1, s2) == ("programmed", "memory")
    assert noisy is clean


def test_cache_rejects_bad_configuration():
    with pytest.raises(ValueError):
        ProgrammedStateCache(memory_entries=-1)


def test_cache_mmap_loads_from_disk(tmp_path):
    cache = ProgrammedStateCache(root=tmp_path / "cache", mmap=True)
    network = build_model("tiny_cnn")
    ctx = SimContext()
    state, _ = cache.get_or_program(network, ctx)
    cold = ProgrammedStateCache(root=tmp_path / "cache", mmap=True)
    mapped, source = cold.get_or_program(network, ctx)
    assert source == "disk"
    assert isinstance(mapped.layers[0].w_scales, np.memmap)
    fresh = NetworkExecutor(network, ctx)
    rebuilt = NetworkExecutor.from_state(mapped, network=network, ctx=ctx)
    x = fresh.random_input()
    _assert_identical(*_run_pair(fresh, rebuilt, x))


# ---------------------------------------------------------------------------
# corrupt snapshots
# ---------------------------------------------------------------------------

def _saved_state(tmp_path, model="tiny_mlp"):
    network = build_model(model)
    ctx = SimContext()
    state = program(network, ctx, "analog")
    return state.save(tmp_path / "state"), network, ctx


def test_load_corrupt_meta_raises_engine_error_naming_the_path(tmp_path):
    path, _, _ = _saved_state(tmp_path)
    (path / "meta.json").write_text("{ not json")
    with pytest.raises(EngineError, match=str(path)):
        ProgrammedState.load(path)


def test_load_truncated_meta_raises_engine_error(tmp_path):
    path, _, _ = _saved_state(tmp_path)
    meta = (path / "meta.json").read_text()
    (path / "meta.json").write_text(meta[: len(meta) // 2])
    with pytest.raises(EngineError, match="corrupt programmed state"):
        ProgrammedState.load(path)


def test_load_with_missing_payload_file_raises_engine_error(tmp_path):
    path, _, _ = _saved_state(tmp_path)
    victim = next(path.glob("*.npy"))
    victim.unlink()
    with pytest.raises(EngineError, match=str(path)):
        ProgrammedState.load(path)


def test_load_with_meta_missing_keys_raises_engine_error(tmp_path):
    path, _, _ = _saved_state(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    del meta["layers"]
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(EngineError, match="corrupt programmed state"):
        ProgrammedState.load(path)


def test_cache_evicts_a_corrupt_disk_entry_and_reprograms(tmp_path):
    """A torn snapshot (crash mid-save, disk rot) must not wedge the cache:
    the corrupt entry is evicted, the state re-programs and re-persists."""
    network = build_model("tiny_mlp")
    ctx = SimContext()
    warm = ProgrammedStateCache(root=tmp_path / "cache")
    state, _ = warm.get_or_program(network, ctx)
    entry = warm.path_for(state.key)
    (entry / "meta.json").write_text("{ torn")

    cold = ProgrammedStateCache(root=tmp_path / "cache")
    healed, source = cold.get_or_program(network, ctx)
    assert source == "programmed"
    assert cold.evicted == 1
    assert sorted(cold.counts) == ["disk", "memory", "programmed"]
    assert healed.key == state.key
    # the entry was re-persisted and now round-trips cleanly
    again = ProgrammedStateCache(root=tmp_path / "cache")
    _, source2 = again.get_or_program(network, ctx)
    assert source2 == "disk"
