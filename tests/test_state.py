"""ProgrammedState tests: program/from_state compose identity, save/load
round-trips (eager and mmap) that stay byte-identical through execution,
state/request mismatch rejection (precision is none: one state wires at
any compute dtype), content keys, format versioning and the LRU + disk
cache."""

import json
import re

import numpy as np
import pytest

from repro.circuits.noise import HardwareNoiseConfig
from repro.context import ArchSpec, SimContext
from repro.engine import (
    EngineError,
    NetworkExecutor,
    NetworkParams,
    ProgrammedState,
    ProgrammedStateCache,
    program,
    state_key,
)
from repro.engine.packed import level_conductances, pack_weights
from repro.engine.state import STATE_FORMAT
from repro.nn.layers import TensorShape
from repro.nn.models import build_model
from repro.nn.network import NetworkBuilder
from repro.nn.quantization import quantize_symmetric_per_channel

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


def test_load_rejects_a_format_3_state_naming_the_format(tmp_path):
    """A state of float64 conductances (format 3) is refused, not decoded."""
    path, _, _ = _saved_state(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    meta["format"] = 3
    for layer in meta["layers"]:
        layer["conductances"] = layer.pop("levels")
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(EngineError, match="format 3"):
        ProgrammedState.load(path)


def test_load_rejects_a_format_4_state_naming_the_format(tmp_path):
    """A state whose manifest records the compute dtype it was programmed
    for (format 4, float ideal payloads) is refused, not wired."""
    path, _, _ = _saved_state(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    meta["format"] = 4
    meta["compute_dtype"] = "float64"
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(EngineError, match="format 4"):
        ProgrammedState.load(path)


def test_load_rejects_a_format_5_state_naming_the_format(tmp_path):
    """A directory of per-tensor ``.npy`` files (format 5) is refused."""
    path, _, _ = _saved_state(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    meta["format"] = 5
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(EngineError, match="format 5"):
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


@pytest.mark.parametrize("stream", [False, True])
def test_precision_difference_is_not_a_mismatch(tmp_path, stream):
    """The state holds integers; precision is chosen at wiring.  One
    state, programmed under the default float64 context, in memory or
    saved and memory-mapped, wires under float32 and float64 contexts —
    noiseless, noisy and ideal, resident or streamed — into exactly the
    executor programmed at that context, read-out path and GEMM dtype
    included."""
    network = build_model("cnn_1")
    params = NetworkParams(network, 0)
    noisy = HardwareNoiseConfig.scaled(1.0)
    for mode, noises in (("analog", (None, noisy)), ("ideal", (None,))):
        state = program(network, SimContext(), mode, params=params)
        loaded = ProgrammedState.load(state.save(tmp_path / mode), mmap=True)
        for dtype in ("float64", "float32"):
            for noise in noises:
                ctx = SimContext(compute_dtype=dtype, noise=noise)
                fresh = NetworkExecutor(network, ctx, mode=mode, params=params)
                x = fresh.random_batch(2)
                a = fresh.run(x)
                for source in (state, loaded):
                    b = NetworkExecutor(
                        network, ctx, mode=mode, params=params, state=source, stream=stream
                    ).run(x)
                    _assert_identical(a, b)
                    assert [(t.readout, t.gemm_dtype) for t in a.traces] == [
                        (t.readout, t.gemm_dtype) for t in b.traces
                    ]


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
    # the persisted state records its entry, so it can stream from disk
    assert state1.source_path == cache.path_for(state1.key)
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
    (path / "payload.bin").unlink()
    for mmap in (False, True):
        with pytest.raises(EngineError, match=re.escape(str(path / "payload.bin"))):
            ProgrammedState.load(path, mmap=mmap)


@pytest.mark.parametrize("mmap", [False, True])
def test_truncated_payload_fails_at_load(tmp_path, mmap):
    """A payload cut short (crashed writer, full disk) is refused by its
    length before any tensor is viewed, mapped or not."""
    path, _, _ = _saved_state(tmp_path)
    payload = path / "payload.bin"
    data = payload.read_bytes()
    payload.write_bytes(data[:-100])
    where = re.escape(str(payload))
    with pytest.raises(EngineError, match=where + f".*{len(data) - 100} bytes.*{len(data)}"):
        ProgrammedState.load(path, mmap=mmap)


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


# ---------------------------------------------------------------------------
# tampered level payloads
# ---------------------------------------------------------------------------

def _tamper(path, edit):
    """Apply ``edit`` to the manifest of the state at ``path``; returns the
    escaped payload path the refusal must name."""
    meta = json.loads((path / "meta.json").read_text())
    edit(meta)
    (path / "meta.json").write_text(json.dumps(meta))
    return re.escape(str(path / "payload.bin"))


def _flip_level_byte(path, layer, byte=3):
    """Invert one byte inside level slice 0 of ``layer`` in the payload file."""
    meta = json.loads((path / "meta.json").read_text())
    entry = meta["layers"][layer]
    offset = entry["levels"][0]["offset"] + byte
    with open(path / "payload.bin", "r+b") as f:
        f.seek(offset)
        value = f.read(1)[0]
        f.seek(offset)
        f.write(bytes([value ^ 0xFF]))
    return entry["name"]


@pytest.mark.parametrize("mmap", [False, True])
def test_load_rejects_levels_that_are_not_unsigned(tmp_path, mmap):
    path, _, _ = _saved_state(tmp_path)
    for bad in ("|i1", "<f8"):

        def edit(meta):
            meta["layers"][0]["levels"][1]["dtype"] = bad

        where = _tamper(path, edit)
        with pytest.raises(EngineError, match=where + ".*'fc1'.*not unsigned"):
            ProgrammedState.load(path, mmap=mmap)


def test_load_rejects_slices_of_different_shapes(tmp_path):
    path, _, _ = _saved_state(tmp_path)

    def edit(meta):
        meta["layers"][1]["levels"][1]["shape"][-1] -= 1

    where = _tamper(path, edit)
    with pytest.raises(EngineError, match=where + ".*'fc2'.*differ"):
        ProgrammedState.load(path, mmap=True)


def test_load_rejects_a_slice_count_the_arch_does_not_use(tmp_path):
    path, _, _ = _saved_state(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    meta["layers"][0]["levels"].pop()
    (path / "meta.json").write_text(json.dumps(meta))
    where = re.escape(str(path / "meta.json"))
    with pytest.raises(EngineError, match=where + ".*1 level tensors.*needs 2"):
        ProgrammedState.load(path)


def test_stream_layer_rechecks_the_payload_it_opens(tmp_path):
    """Streaming re-opens the payload after load, so it checks it again."""
    path, _, _ = _saved_state(tmp_path)
    state = ProgrammedState.load(path, mmap=True)
    state.stream_layer(0)
    name = _flip_level_byte(path, 0)
    with pytest.raises(EngineError, match=re.escape(str(path / "payload.bin")) + f".*{name!r}"):
        state.stream_layer(0)
    state.stream_layer(1)  # other layers' bytes are intact


def test_flipped_level_byte_fails_loudly(tmp_path):
    """One flipped bit pattern inside a saved level payload never wires the
    wrong chip under the right key: an eager load refuses it, naming the
    layer and the file; the cache evicts the entry and re-programs; a
    memory-mapped load defers the check to wiring, which refuses it; and a
    streamed layer refuses it too."""
    network = build_model("cnn_1")
    ctx = SimContext()
    cache = ProgrammedStateCache(root=tmp_path / "cache")
    state, _ = cache.get_or_program(network, ctx)
    path = cache.path_for(state.key)
    position = 1
    name = _flip_level_byte(path, position)
    refusal = re.escape(str(path / "payload.bin")) + f".*layer {name!r}.*CRC-32"

    with pytest.raises(EngineError, match=refusal):
        ProgrammedState.load(path)
    mapped = ProgrammedState.load(path, mmap=True)
    with pytest.raises(EngineError, match=f"layer {name!r}"):
        NetworkExecutor.from_state(mapped, network=network, ctx=ctx)
    with pytest.raises(EngineError, match=refusal):
        mapped.stream_layer(position)
    for other in range(len(mapped.layers)):
        if other != position:
            mapped.check_layer(other)
            mapped.stream_layer(other)

    cold = ProgrammedStateCache(root=tmp_path / "cache")
    healed, source = cold.get_or_program(network, ctx)
    assert source == "programmed" and cold.evicted == 1
    reloaded = ProgrammedState.load(path)
    for a, b in zip(healed.layers, reloaded.layers):
        for x, y in zip(a.levels, b.levels):
            np.testing.assert_array_equal(x, y)


def test_wiring_checks_each_mapped_layer_once(tmp_path, monkeypatch):
    """A memory-mapped state checks a layer's CRC-32 when the first
    resident executor wires it; later executors (later trials) do not."""
    import zlib

    path, network, ctx = _saved_state(tmp_path)
    state = ProgrammedState.load(path, mmap=True)
    checks = []
    real = zlib.crc32

    def counted(data, value=0):
        checks.append(len(data))
        return real(data, value)

    monkeypatch.setattr(zlib, "crc32", counted)
    NetworkExecutor.from_state(state, network=network, ctx=ctx)
    assert len(checks) == len(state.layers)
    NetworkExecutor.from_state(state, network=network, ctx=ctx)
    assert len(checks) == len(state.layers)


def test_loaded_levels_are_lazy_unsigned_memory_maps(tmp_path):
    path, _, _ = _saved_state(tmp_path)
    for layer in ProgrammedState.load(path, mmap=True).layers:
        assert all(isinstance(levels, np.memmap) for levels in layer.levels)
        assert all(levels.dtype == np.uint8 for levels in layer.levels)


# ---------------------------------------------------------------------------
# parameters must belong to the request
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "params,message",
    [
        (NetworkParams(build_model("tiny_cnn"), 7), "seed 7 != 1"),
        (NetworkParams(build_model("tiny_mlp"), 1), "network 'tiny_mlp' != 'tiny_cnn'"),
    ],
)
def test_params_for_another_seed_or_network_are_rejected(tmp_path, params, message):
    """A state programmed from foreign parameters would carry the genuine
    content key over a different payload, so every entry point refuses."""
    network = build_model("tiny_cnn")
    ctx = SimContext(seed=1)
    match = re.escape(message)
    with pytest.raises(EngineError, match=match):
        program(network, ctx, params=params)
    with pytest.raises(EngineError, match=match):
        NetworkExecutor(network, ctx, params=params)
    state = program(network, ctx)
    with pytest.raises(EngineError, match=match):
        NetworkExecutor(network, ctx, params=params, state=state)
    cache = ProgrammedStateCache(root=tmp_path / "cache")
    with pytest.raises(EngineError, match=match):
        cache.get_or_program(network, ctx, params=params)
    assert cache.get(state.key) is None  # nothing cached under the genuine key
    # a warm cache does not serve them either
    assert cache.get_or_program(network, ctx)[1] == "programmed"
    with pytest.raises(EngineError, match=match):
        cache.get_or_program(network, ctx, params=params)


# ---------------------------------------------------------------------------
# level payloads decode to exactly what format 3 stored
# ---------------------------------------------------------------------------

def _format3_conductances(q, arch, dtype):
    """Format 3's analog payload, recomputed with its own arithmetic: int64
    offset encoding and bit slicing over the flat memory-order view, then
    cast, scale by ``g_step`` and offset by ``g_min`` in ``dtype``."""
    q = q.astype(np.int64, order="K")
    dtype = np.dtype(dtype)
    if q.flags.c_contiguous:
        flat = q.reshape(-1)
    elif q.flags.f_contiguous:
        flat = q.T.reshape(-1)
    else:
        flat = q

    def like(result):
        if result.shape == q.shape:
            return result
        if q.flags.c_contiguous:
            return result.reshape(q.shape)
        return result.reshape(q.shape[::-1]).T

    cell = arch.cell_spec()
    encoded = flat + 2 ** (arch.weight_bits - 1)
    tensors = []
    for s in range(arch.cols_per_weight):
        levels = (encoded >> (arch.cell_bits * s)) & (2 ** arch.cell_bits - 1)
        conductances = levels.astype(dtype)
        conductances *= dtype.type(cell.g_step_s)
        conductances += dtype.type(cell.g_min_s)
        tensors.append(like(conductances))
    return tensors


def _im2col_stack(arch, groups, seed):
    """Quantised conv weights stacked as ``program_layer`` stacks them."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(6 * groups, 5, 3, 3))
    values = quantize_symmetric_per_channel(weights, arch.weight_bits).values
    per_group = 6
    return np.stack(
        [
            values[g * per_group : (g + 1) * per_group].reshape(per_group, -1).T
            for g in range(groups)
        ]
    )


def _assert_same_bytes_and_layout(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.strides == ref.strides
    assert got.flags.c_contiguous == ref.flags.c_contiguous
    assert got.flags.f_contiguous == ref.flags.f_contiguous
    assert got.tobytes(order="A") == ref.tobytes(order="A")


@pytest.mark.parametrize(
    "weight_bits,cell_bits", [(4, 4), (8, 8), (8, 4), (8, 2), (16, 4)]
)
@pytest.mark.parametrize("groups", [1, 3])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_levels_decode_to_the_format_3_conductances(weight_bits, cell_bits, groups, dtype):
    """Packing has no precision; ``dtype`` is the decode precision only."""
    arch = ArchSpec(rows=16, cols=16, weight_bits=weight_bits, cell_bits=cell_bits)
    q = _im2col_stack(arch, groups, seed=weight_bits * 10 + cell_bits)
    assert q.dtype == np.min_scalar_type(-(2 ** (weight_bits - 1) - 1))
    encoded, levels = pack_weights(q, arch, "analog")
    assert encoded is None and len(levels) == arch.cols_per_weight
    assert all(s.dtype == np.uint8 for s in levels)
    cell = arch.cell_spec()
    reference = _format3_conductances(q, arch, dtype)
    for stored, ref in zip(levels, reference):
        decoded = level_conductances(stored, cell.g_min_s, cell.g_step_s, dtype)
        _assert_same_bytes_and_layout(decoded, ref)


def _grouped_net():
    builder = NetworkBuilder("grouped", TensorShape(4, 8, 8))
    builder.conv(8, 3, padding=1, name="conv1").relu()
    builder.conv(12, 3, padding=1, groups=2, name="conv2").relu()
    builder.fc(5, name="fc")
    return builder.build()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("mmap", [False, True])
def test_reloaded_levels_decode_to_what_format_3_reloaded(tmp_path, dtype, mmap):
    """Through save and load the levels decoded in ``dtype`` equal a
    format-3 payload's own save/load round trip: np.save keeps F order and
    writes any other strided stack in C order, for levels and conductances
    alike."""
    network = _grouped_net()
    arch = ArchSpec(rows=16, cols=16)
    cell = arch.cell_spec()
    state = program(network, SimContext(arch=arch), "analog")
    loaded = ProgrammedState.load(state.save(tmp_path / "state"), mmap=mmap)
    for i, (fresh, back) in enumerate(zip(state.layers, loaded.layers)):
        for s, (ref, got) in enumerate(zip(fresh.levels, back.levels)):
            ref = level_conductances(ref, cell.g_min_s, cell.g_step_s, dtype)
            got = level_conductances(got, cell.g_min_s, cell.g_step_s, dtype)
            np.save(tmp_path / f"ref{i}{s}.npy", ref)
            _assert_same_bytes_and_layout(got, np.load(tmp_path / f"ref{i}{s}.npy"))
