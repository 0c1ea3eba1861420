"""Streaming-executor tests: layer-by-layer execution against a disk-backed
programmed state is bit-identical to the resident path (noise included),
bounds peak wired weight bytes by the largest single layer, reports
unchanged crossbar counts, and serves each layer from fresh memory-mapped
file handles that die with the layer."""

import json

import numpy as np

from repro.circuits.noise import HardwareNoiseConfig
from repro.context import SimContext
from repro.engine import NetworkExecutor, ProgrammedState, program
from repro.nn.models import build_model


def _disk_state(tmp_path, model="tiny_cnn", ctx=None, mode="analog"):
    """Program ``model``, save it, and reload memory-mapped from disk."""
    network = build_model(model)
    ctx = ctx or SimContext()
    state = program(network, ctx, mode)
    path = state.save(tmp_path / "state")
    return ProgrammedState.load(path, mmap=True), network, ctx


def test_streamed_run_is_bit_identical_to_resident(tmp_path):
    state, network, ctx = _disk_state(tmp_path)
    resident = NetworkExecutor.from_state(state, network, ctx)
    streamed = NetworkExecutor.from_state(state, network, ctx, stream=True)
    x = resident.random_input()
    a = resident.run(x, validate=False)
    b = streamed.run(x, validate=False)
    assert np.array_equal(a.output, b.output)
    # the resident peak is the whole programmed payload; the streamed peak
    # is the largest single layer — strictly smaller on any multi-layer net
    assert a.peak_wired_bytes == resident.programmed_bytes
    assert 0 < b.peak_wired_bytes < a.peak_wired_bytes


def test_streamed_noisy_run_matches_resident(tmp_path):
    """Noise draws derive from (seed, layer salt), never from wiring order,
    so per-trial variation on a streamed executor reproduces the resident
    bytes exactly."""
    noise = HardwareNoiseConfig.scaled(1.0, seed=11)
    ctx = SimContext(noise=noise)
    state, network, _ = _disk_state(tmp_path, ctx=ctx)
    resident = NetworkExecutor.from_state(state, network, ctx)
    streamed = NetworkExecutor.from_state(state, network, ctx, stream=True)
    x = resident.random_input()
    assert np.array_equal(
        resident.run(x, validate=False).output,
        streamed.run(x, validate=False).output,
    )


def test_streamed_crossbars_and_bytes_match_resident(tmp_path):
    state, network, ctx = _disk_state(tmp_path)
    resident = NetworkExecutor.from_state(state, network, ctx)
    streamed = NetworkExecutor.from_state(state, network, ctx, stream=True)
    assert streamed.crossbars == resident.crossbars
    # a streaming executor wires nothing up front, so it reports the whole
    # stored payload (one-byte cell levels plus scales/bias); the resident
    # figure counts what the wired layers' GEMMs read: the exact-level path
    # holds every level tensor as float32
    assert streamed.programmed_bytes == state.nbytes
    stored = sum(levels.nbytes for layer in state.layers for levels in layer.levels)
    assert resident.programmed_bytes == 4 * stored


def test_stream_layer_opens_fresh_mmap_handles(tmp_path):
    state, _, _ = _disk_state(tmp_path)
    first = state.stream_layer(0)
    second = state.stream_layer(0)
    payload = first.levels[0]
    assert isinstance(payload, np.memmap)
    # fresh handles per call: dropping one streamed layer cannot invalidate
    # another, and nothing aliases the arrays the loaded state holds
    assert payload is not second.levels[0]
    assert payload is not state.layers[0].levels[0]
    assert np.array_equal(np.asarray(payload), np.asarray(second.levels[0]))


def test_stream_layer_parses_the_manifest_once(tmp_path, monkeypatch):
    state, _, _ = _disk_state(tmp_path)
    parses = []
    real_loads = json.loads

    def loads(text, *args, **kwargs):
        parses.append(text)
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", loads)
    for _ in range(2):
        for position in range(len(state.layers)):
            state.stream_layer(position)
    assert len(parses) == 1


def test_stream_layer_without_backing_files_serves_resident_layers():
    network = build_model("tiny_mlp")
    state = program(network, SimContext(), "analog")
    assert state.source_path is None
    assert state.stream_layer(0) is state.layers[0]


def test_streamed_float32_matches_resident_float32(tmp_path):
    ctx = SimContext(compute_dtype="float32")
    state, network, _ = _disk_state(tmp_path, ctx=ctx)
    resident = NetworkExecutor.from_state(state, network, ctx)
    streamed = NetworkExecutor.from_state(state, network, ctx, stream=True)
    x = resident.random_input()
    assert np.array_equal(
        resident.run(x, validate=False).output,
        streamed.run(x, validate=False).output,
    )
