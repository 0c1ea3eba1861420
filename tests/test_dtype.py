"""Float32 compute-path tests: packed dtype parity against the float64
reference across modes and cell splits, the ideal-mode exactness fallback
chosen at wiring (requested float32 reverts to float64 per layer when the
worst-case product sum would overflow the 24-bit mantissa, float64 to
int64 past 2**53, and a layer exact in none is refused), layout
preservation of the ideal pack, chunk-fused read-out equivalence and the
end-to-end accuracy-at-the-quantisation-floor bars."""

import numpy as np
import pytest

from repro.circuits.noise import HardwareNoiseConfig
from repro.context import COMPUTE_DTYPES, ArchSpec, SimContext
from repro.engine import (
    EngineError,
    NetworkExecutor,
    PackedMatmul,
    relative_error,
)
from repro.engine.packed import (
    _EXACT_BOUNDS,
    _worst_product_sum,
    level_conductances,
    pack_weights,
)

RNG = np.random.default_rng(17)


def _codes_and_weights(arch: ArchSpec, rows: int, cols: int, positions: int = 5):
    qmax = 2 ** (arch.weight_bits - 1) - 1
    q = RNG.integers(-qmax, qmax + 1, size=(rows, cols))
    codes = RNG.integers(0, 2 ** arch.input_bits, size=(positions, rows))
    return q, codes


# ---------------------------------------------------------------------------
# context plumbing
# ---------------------------------------------------------------------------

def test_context_validates_compute_dtype_and_chunk_bytes():
    assert COMPUTE_DTYPES == ("float64", "float32")
    ctx = SimContext(compute_dtype="float32", chunk_bytes=4096)
    assert ctx.np_compute_dtype == np.float32
    with pytest.raises(ValueError):
        SimContext(compute_dtype="float16")
    with pytest.raises(ValueError):
        SimContext(chunk_bytes=0)
    with pytest.raises(ValueError):
        SimContext(chunk_bytes=-1)


# ---------------------------------------------------------------------------
# matmul-level parity: float32 vs the float64 reference
# ---------------------------------------------------------------------------

def _conductance_path(packed: PackedMatmul) -> PackedMatmul:
    """``packed`` forced off the exact-level read-out onto the conductance
    chain, with the conductances the stored levels decode to."""
    cell = packed.ctx.arch.cell_spec()
    packed._conductances = [
        level_conductances(levels, cell.g_min_s, cell.g_step_s, packed.compute_dtype)
        for levels in packed._levels
    ]
    packed._levels = None
    return packed


@pytest.mark.parametrize(
    "weight_bits,cell_bits",
    [(4, 4), (8, 4), (16, 4)],  # cols_per_weight = 1, 2, 4
)
@pytest.mark.parametrize("mode", ["analog", "ideal"])
def test_packed_float32_tracks_float64_within_1e4(weight_bits, cell_bits, mode):
    """Single-layer float32 read-out stays within 1e-4 of float64.

    (Observed ~1e-5 at up to 2048 rows; the pinned bar leaves headroom.)
    The result dtype stays float64 either way: only the gemm and the
    time-domain chain run in single precision, digital recombination of
    the slice cascade does not.
    """
    arch = ArchSpec(rows=16, cols=16, weight_bits=weight_bits, cell_bits=cell_bits)
    q, codes = _codes_and_weights(arch, 40, 21)
    packed64 = PackedMatmul(q, SimContext(arch=arch), mode)
    packed32 = PackedMatmul(q, SimContext(arch=arch, compute_dtype="float32"), mode)
    if mode == "analog":
        # noiseless layers read out through exact levels in either dtype
        # (bit-identical); the float32 chain is the conductance path's
        np.testing.assert_array_equal(packed32.matmul(codes), packed64.matmul(codes))
        packed64, packed32 = _conductance_path(packed64), _conductance_path(packed32)
    ref = packed64.matmul(codes)
    out = packed32.matmul(codes)
    assert out.dtype == np.float64
    assert relative_error(out, ref) <= 1e-4


def test_packed_float32_grouped_tracks_float64():
    arch = ArchSpec(rows=16, cols=16)
    qmax = 2 ** (arch.weight_bits - 1) - 1
    q = RNG.integers(-qmax, qmax + 1, size=(3, 20, 7))  # 3 groups
    codes = RNG.integers(0, 2 ** arch.input_bits, size=(4, 3 * 20))
    packed64 = PackedMatmul(q, SimContext(arch=arch), "analog")
    packed32 = PackedMatmul(q, SimContext(arch=arch, compute_dtype="float32"), "analog")
    # the float32 conductance chain
    packed64, packed32 = _conductance_path(packed64), _conductance_path(packed32)
    assert relative_error(packed32.matmul(codes), packed64.matmul(codes)) <= 1e-4


# ---------------------------------------------------------------------------
# ideal-mode exactness: honoured request vs per-layer fallback
# ---------------------------------------------------------------------------

def test_ideal_float32_is_exact_below_the_mantissa_bound():
    """A small-rows ideal layer honours float32 and still matches bit-exact."""
    arch = ArchSpec()
    q, codes = _codes_and_weights(arch, 40, 21, positions=3)
    assert _worst_product_sum(arch, 40) < _EXACT_BOUNDS[np.dtype(np.float32)]
    small = PackedMatmul(q, SimContext(compute_dtype="float32"), "ideal")
    assert small.gemm_dtype == np.float32
    ref = PackedMatmul(q, SimContext(), "ideal")
    assert ref.gemm_dtype == np.float64
    assert np.array_equal(small.matmul(codes), ref.matmul(codes))


def test_ideal_float32_falls_back_to_float64_above_the_bound():
    """A deep-rows ideal layer ignores the float32 request, staying exact."""
    arch = ArchSpec()
    # 8-bit codes x 8-bit weights: worst product sum is 65280 per row, so
    # anything past ~257 rows overflows float32's 24-bit mantissa
    q, codes = _codes_and_weights(arch, 400, 21, positions=3)
    assert _worst_product_sum(arch, 400) >= _EXACT_BOUNDS[np.dtype(np.float32)]
    big = PackedMatmul(q, SimContext(compute_dtype="float32"), "ideal")
    assert big.gemm_dtype == np.float64
    ref = PackedMatmul(q, SimContext(), "ideal")
    assert np.array_equal(big.matmul(codes), ref.matmul(codes))


def test_network_fallback_is_per_layer():
    """In one ideal float32 network, only the deep-rows layers fall back."""
    from repro.nn.models import build_model

    network = build_model("cnn_1")
    ctx = SimContext(compute_dtype="float32")
    executor = NetworkExecutor(network, ctx, mode="ideal")
    dtypes = {
        name: layer._packed.gemm_dtype
        for name, layer in executor._compute.items()
    }
    assert set(dtypes.values()) == {np.dtype(np.float32), np.dtype(np.float64)}
    for name, layer in executor._compute.items():
        bound = _EXACT_BOUNDS[np.dtype(np.float32)]
        expected = (
            np.float64
            if _worst_product_sum(ctx.arch, layer._packed.rows_needed) >= bound
            else np.float32
        )
        assert dtypes[name] == np.dtype(expected), name


def test_ideal_int64_gemm_past_the_float64_bound():
    """Between 2**53 and 2**63 the ideal GEMM runs in int64 at either
    precision.  Its products are exact; only their float64 offset
    correction rounds, by at most an ulp of the worst product sum."""
    arch = ArchSpec(weight_bits=40, input_bits=12)
    qmax = 2 ** (arch.weight_bits - 1) - 1
    rng = np.random.default_rng(53)
    q = rng.integers(-qmax, qmax + 1, size=(40, 21))
    codes = rng.integers(0, 2 ** arch.input_bits, size=(3, 40))
    worst = _worst_product_sum(arch, 40)
    assert _EXACT_BOUNDS[np.dtype(np.float64)] <= worst < _EXACT_BOUNDS[np.dtype(np.int64)]
    exact = (codes @ q).astype(np.float64)
    for dtype in COMPUTE_DTYPES:
        packed = PackedMatmul(q, SimContext(arch=arch, compute_dtype=dtype), "ideal")
        assert packed.gemm_dtype == np.int64
        ulp = np.spacing(float(worst))
        np.testing.assert_allclose(packed.matmul(codes), exact, rtol=0, atol=ulp)


def test_ideal_int64_overflow_is_refused():
    """Past int64's range no GEMM dtype holds the product sums exactly:
    wiring refuses the layer by name instead of overflowing silently."""
    from repro.nn.models import build_model

    network = build_model("tiny_cnn")
    arch = ArchSpec(weight_bits=40, input_bits=20)
    first = network.compute_instances[0]
    assert _worst_product_sum(arch, 9) >= _EXACT_BOUNDS[np.dtype(np.int64)]
    with pytest.raises(EngineError, match=f"layer {first.name!r}.*int64"):
        NetworkExecutor(network, SimContext(arch=arch), mode="ideal")


# ---------------------------------------------------------------------------
# layout pinning: the ideal pack must keep the im2col stack's memory order
# ---------------------------------------------------------------------------

def test_ideal_pack_preserves_fortran_layout():
    """The ideal branch keeps q's F-order (it used to force C-contiguity),
    in the unsigned payload and in the operand wired from it.

    Layout matters downstream: BLAS picks summation paths by operand
    memory order, so discarding the layout silently changed performance.
    """
    arch = ArchSpec(rows=16, cols=16)
    qmax = 2 ** (arch.weight_bits - 1) - 1
    q = np.asfortranarray(RNG.integers(-qmax, qmax + 1, size=(2, 40, 21)))
    encoded, levels = pack_weights(q, arch, "ideal")
    assert levels == []
    assert encoded.dtype == np.uint8
    assert encoded.flags.f_contiguous and not encoded.flags.c_contiguous
    assert np.array_equal(encoded, q + 2 ** (arch.weight_bits - 1))
    for dtype in COMPUTE_DTYPES:
        ctx = SimContext(arch=arch, compute_dtype=dtype)
        wired = PackedMatmul.from_packed(encoded, [], ctx, "ideal")
        assert wired.gemm_dtype == np.dtype(dtype)  # 40 rows: float32 honoured
        operand = wired._encoded
        assert operand.flags.f_contiguous and not operand.flags.c_contiguous
        assert np.array_equal(operand, encoded)


# ---------------------------------------------------------------------------
# chunk-fused read-out
# ---------------------------------------------------------------------------

def test_chunked_readout_matches_unchunked_within_1e12():
    """Bounded-chunk analog read-out agrees with the single-pass path.

    Not pinned bit-identical — BLAS may pick different summation orders
    for the blocked gemm — but the float-rounding bar is 1e-12 (observed
    0.0 on cnn_1 at 64 KB chunks)."""
    arch = ArchSpec(rows=32, cols=32)
    q, codes = _codes_and_weights(arch, 70, 40, positions=50)
    ref = PackedMatmul(q, SimContext(arch=arch), "analog").matmul(codes)
    chunked = PackedMatmul(
        q, SimContext(arch=arch, chunk_bytes=4096), "analog"
    ).matmul(codes)
    assert relative_error(chunked, ref) <= 1e-12


def test_chunking_does_not_change_noisy_results():
    """Noise draws (DTC jitter included) are independent of the chunking:
    the full delay tensor is drawn before the chunk walk."""
    arch = ArchSpec(rows=32, cols=32)
    q, codes = _codes_and_weights(arch, 70, 40, positions=50)
    noise = HardwareNoiseConfig.scaled(1.0, seed=3)
    whole = PackedMatmul(
        q, SimContext(arch=arch, noise=noise), "analog", salt=4
    ).matmul(codes)
    chunked = PackedMatmul(
        q, SimContext(arch=arch, noise=noise, chunk_bytes=4096), "analog", salt=4
    ).matmul(codes)
    assert relative_error(chunked, whole) <= 1e-12


def test_chunked_network_run_matches_unchunked():
    """Whole networks agree chunked and unchunked, noiseless and noisy: a
    conv layer's DTC delays are converted per input element and gathered
    before the chunk walk, so the draws do not depend on the chunking."""
    from repro.nn.models import build_model

    cases = [
        ("tiny_cnn", None),
        ("tiny_cnn", HardwareNoiseConfig.scaled(1.0)),
        ("resnet_smoke", HardwareNoiseConfig.scaled(1.0)),
    ]
    for name, noise in cases:
        network = build_model(name)
        runs = [
            NetworkExecutor(
                network, SimContext(noise=noise, chunk_bytes=chunk_bytes), mode="analog"
            ).run(validate=False)
            for chunk_bytes in (None, 8192)
        ]
        if noise is not None:
            assert {t.readout for t in runs[0].traces if t.readout} == {"conductances"}
        assert relative_error(runs[1].output, runs[0].output) <= 1e-12, name


# ---------------------------------------------------------------------------
# end-to-end: float32 must not leave the 8-bit quantisation floor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", ["tiny_cnn", "cnn_1"])
def test_float32_accuracy_stays_at_the_quantisation_floor(model):
    """End-to-end float32 error vs the float reference stays comparable to
    float64's (within 1.5x).  Per-layer requantisation amplifies *any*
    arithmetic perturbation toward the 8-bit floor, so the honest
    end-to-end bar is the floor itself, not the 1e-4 single-layer parity
    (measured ratios float32/float64: tiny_cnn 0.63, cnn_1 1.18)."""
    from repro.nn.models import build_model

    network = build_model(model)
    rel64 = NetworkExecutor(network, SimContext(), mode="analog").run().rel_error
    rel32 = (
        NetworkExecutor(network, SimContext(compute_dtype="float32"), mode="analog")
        .run()
        .rel_error
    )
    assert rel32 <= 1.5 * rel64
