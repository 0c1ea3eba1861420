"""The benchmark's contract with the package it measures.

``perfbench/tracer.py`` wraps public functions from outside, by name, and
derives its counts from argument shapes.  A rename, or a change to the
``PackedMatmul.matmul(codes)`` 2-D ``(positions, groups * rows)``
contract that ``_gemm_flops`` (and ``tests/crossbar_oracle.py``) rely on,
must fail here rather than crash a ``--trace 1`` benchmark run.  Nothing
is installed: the wrappers are only resolved.  The checks
``perfbench/workloads.py`` runs on every programmed state must pass on a
real state and on its memory-mapped reload.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.context import ArchSpec, SimContext
from repro.engine import NetworkExecutor, NetworkParams, PackedMatmul, ProgrammedStateCache
from repro.nn.models import build_model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("perfbench_tracer", TRACER_PATH)


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, imported as ``run.py`` imports it: with
    ``perfbench/`` on ``sys.path`` for its ``import tracer``."""
    imported = "tracer" in sys.modules
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        module = _load("perfbench_workloads", PERFBENCH / "workloads.py")
    if not imported:
        sys.modules.pop("tracer", None)
    return module


def test_every_traced_name_resolves(tracer):
    import repro.sweep.pool as pool

    targets = tracer._targets()
    assert targets
    for owner, attr, metric, _ in targets:
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert raw is not None, f"{owner!r}.{attr} ({metric}) no longer exists"
        assert callable(getattr(raw, "__func__", raw)), f"{owner!r}.{attr} is not callable"
    assert callable(pool.run_trial_chunk)


def test_gemm_flop_count_matches_the_matmul_contract(tracer):
    arch = ArchSpec(rows=16, cols=16)
    q = np.zeros((3, 30, 8), dtype=int)  # 3 groups, 2 row tiles
    packed = PackedMatmul(q, SimContext(arch=arch), "analog")
    codes = np.ones((5, 3 * 30))
    out = packed.matmul(codes)
    assert out.shape == (5, 3 * 8)
    flops = tracer._gemm_flops(out, packed, codes)["engine.gemm_gflop"] * 1e9
    assert flops == 2 * 5 * 3 * 30 * 8 * arch.cols_per_weight


def test_shape_counts_see_the_arguments_they_expect(tracer, monkeypatch):
    """The read-out count takes the packed (T, S, G, P, C) block as the
    first argument, the im2col count the operand as the first result."""
    import repro.engine.executor as executor
    import repro.engine.packed as packed

    seen = {"readout": [], "im2col": []}
    readout, gather = packed.readout_fused, executor.im2col_pack

    def traced_readout(charges, *args, **kwargs):
        seen["readout"].append(tracer._readout_elems(None, charges)["kernels.readout_elems"])
        assert charges.ndim == 5
        return readout(charges, *args, **kwargs)

    def traced_gather(*args, **kwargs):
        result = gather(*args, **kwargs)
        seen["im2col"].append(tracer._im2col_bytes(result)["kernels.im2col_bytes"])
        assert result[0].ndim == 2
        return result

    monkeypatch.setattr(packed, "readout_fused", traced_readout)
    monkeypatch.setattr(executor, "im2col_pack", traced_gather)
    run = NetworkExecutor(build_model("tiny_cnn"), SimContext())
    run.run(run.random_batch(2), validate=False)
    assert seen["readout"] and all(n > 0 for n in seen["readout"])
    assert seen["im2col"] and all(n > 0 for n in seen["im2col"])


def test_workload_program_checks_pass_on_a_state_and_its_reload(workloads, tmp_path):
    network = build_model("resnet_smoke")
    ctx = SimContext(seed=4)
    params = NetworkParams(network, ctx.seed)
    state, source = ProgrammedStateCache(root=tmp_path).get_or_program(
        network, ctx, "analog", params=params
    )
    assert source == "programmed"
    reloaded = ProgrammedStateCache(root=tmp_path, mmap=True).get(state.key)
    assert reloaded is not None and reloaded.source_path is not None
    expected = ctx.map_network(network).total_crossbars
    for candidate in (state, reloaded):
        assert workloads._crossbars(candidate) == expected
        error, exact = workloads.programmed_weight_error(candidate, params)
        assert exact and 0 < error <= workloads.WEIGHT_REL_ERROR_BOUND
    for i, layer in enumerate(state.layers):
        assert workloads._same_layer(layer, reloaded.layers[i])
        assert workloads._same_layer(layer, reloaded.stream_layer(i))
