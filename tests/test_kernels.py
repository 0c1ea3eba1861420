"""Kernel-dispatch tests: the cross-implementation equivalence matrix.

Every available tier must reproduce the numpy reference bit-for-bit in
float64 (the reference *is* the historical read-out arithmetic, extracted
verbatim) and stay within float rounding in float32.  Dispatch policy —
selection order, ``REPRO_KERNEL``, unknown-tier errors, graceful
degradation — is exercised through the same public entry points the
engine uses.
"""

import os

import numpy as np
import pytest

from repro.circuits.noise import stable_seed
from repro.circuits.timing import TimeDomainChainSpec
from repro.context import ArchSpec, SimContext
from repro.engine import NetworkExecutor, PackedMatmul, relative_error
from repro.engine.packed import level_conductances, pack_weights
from repro.kernels import dispatch
from repro.kernels.dispatch import (
    KERNEL_TIERS,
    KernelError,
    ReadoutScalars,
    available,
    im2col_pack,
    quantize_channels,
    readout_fused,
    resolve,
)
from repro.nn.models import build_model

TIERS = available()
COMPILED = [name for name in TIERS if name != "numpy"]

SCALARS = ReadoutScalars(
    offset_coeff=1.2 * 4e-6,
    capacitance_f=2.4e-12,
    v_threshold=0.6,
    phase2_scale=1.9e-7,
    full_scale_s=5.1e-7,
    lsb_s=2e-9,
    dot_max=4080.0,
    level_coeff=1.2 * 5e-12 * 3e-6,
)


def _chain_inputs(dtype, t=3, s=2, g=2, p=37, c=11, seed=("kernels", "chain")):
    rng = np.random.default_rng(stable_seed(*seed))
    charges = (rng.random((t, s, g, p, c)) * 2e-12).astype(dtype)
    delay_sums = (rng.random((t, 1, g, p, 1)) * 4e-7).astype(dtype)
    return charges, delay_sums


def _shifts(s=2):
    return np.asarray([2.0 ** (4 * i) for i in reversed(range(s))])


# -- float64: every tier must be bit-for-bit the numpy reference --------------


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("saturation", [None, 0.25])
@pytest.mark.parametrize("recombine", [False, True])
def test_tier_matches_numpy_bitwise_f64(tier, saturation, recombine):
    charges, delay_sums = _chain_inputs(np.float64)
    shifts = _shifts() if recombine else None
    rec_ref = np.empty(charges.shape[2:]) if recombine else None
    rec_got = np.empty(charges.shape[2:]) if recombine else None
    ref = readout_fused(
        charges,
        delay_sums,
        SCALARS,
        saturation=saturation,
        shifts=shifts,
        recombine_out=rec_ref,
        kernel="numpy",
    )
    got = readout_fused(
        charges,
        delay_sums,
        SCALARS,
        saturation=saturation,
        shifts=shifts,
        recombine_out=rec_got,
        kernel=tier,
    )
    np.testing.assert_array_equal(got, ref)
    if recombine:
        np.testing.assert_array_equal(rec_got, rec_ref)
    # the inputs were left untouched
    assert charges.flags.writeable and delay_sums.flags.writeable


@pytest.mark.parametrize("tier", COMPILED)
def test_tier_matches_numpy_on_partial_tile_views(tier):
    """Tail chunks are non-contiguous views: charges[:, :, :, :n]."""
    charges, delay_sums = _chain_inputs(np.float64, p=29)
    view_c = charges[:, :, :, :13]
    view_d = delay_sums[:, :, :, :13]
    assert not view_c.flags.c_contiguous
    ref = readout_fused(view_c, view_d, SCALARS, kernel="numpy")
    got = readout_fused(view_c, view_d, SCALARS, kernel=tier)
    np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("tier", COMPILED)
def test_tier_matches_numpy_in_place_strided(tier):
    """The chunked walk runs in place on a strided recombine slice."""
    charges, delay_sums = _chain_inputs(np.float64, g=1, p=24)
    shifts = _shifts()
    full_ref = np.empty((1, 29, 11))
    full_got = np.empty((1, 29, 11))
    work_ref = charges.copy()
    work_got = charges.copy()
    readout_fused(
        work_ref,
        delay_sums,
        SCALARS,
        out=work_ref,
        shifts=shifts,
        recombine_out=full_ref[:, 5:],
        kernel="numpy",
    )
    readout_fused(
        work_got,
        delay_sums,
        SCALARS,
        out=work_got,
        shifts=shifts,
        recombine_out=full_got[:, 5:],
        kernel=tier,
    )
    np.testing.assert_array_equal(work_got, work_ref)
    np.testing.assert_array_equal(full_got[:, 5:], full_ref[:, 5:])


@pytest.mark.parametrize("tier", TIERS)
def test_tier_handles_empty_blocks(tier):
    charges, delay_sums = _chain_inputs(np.float64, p=0)
    got = readout_fused(charges, delay_sums, SCALARS, kernel=tier)
    assert got.shape == charges.shape and got.size == 0


# -- the exact-level chain: bit-for-bit on every tier, float32 products too ---


def _level_products(dtype, t=3, s=2, g=2, p=37, c=11):
    rng = np.random.default_rng(stable_seed("kernels", "levels"))
    return rng.integers(0, 4081, size=(t, s, g, p, c)).astype(dtype)


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("saturation", [None, 0.25])
def test_level_chain_matches_numpy_bitwise(tier, dtype, saturation):
    """The level chain runs in float64 whatever the products' storage, so
    even float32 products give bit-identical estimates and recombination."""
    products = _level_products(dtype)
    shifts = _shifts()
    rec_ref = np.empty(products.shape[2:])
    rec_got = np.empty(products.shape[2:])
    ref = readout_fused(
        products, None, SCALARS, saturation=saturation, shifts=shifts,
        recombine_out=rec_ref, kernel="numpy",
    )
    work = products.copy()
    got = readout_fused(
        work, None, SCALARS, out=work, saturation=saturation, shifts=shifts,
        recombine_out=rec_got, kernel=tier,
    )
    assert got is work and got.dtype == ref.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(rec_got, rec_ref)
    # the level chain is the conductance chain on exact net charges
    net = products.astype(np.float64) * SCALARS.level_coeff
    offset_free = readout_fused(
        net, np.zeros((3, 1, 2, 37, 1)), SCALARS, saturation=saturation, kernel="numpy"
    )
    np.testing.assert_array_equal(ref, offset_free.astype(dtype))


@pytest.mark.parametrize("tier", COMPILED)
def test_level_chain_matches_numpy_on_strided_chunks(tier):
    """Chunk tails: a products view and a strided recombine slice."""
    products = _level_products(np.float32, g=1, p=24)[:, :, :, :13]
    assert not products.flags.c_contiguous
    shifts = _shifts()
    full_ref, full_got = np.empty((1, 20, 11)), np.empty((1, 20, 11))
    work_ref, work_got = products.copy(), products.copy()
    for work, full, tier_name in ((work_ref, full_ref, "numpy"), (work_got, full_got, tier)):
        readout_fused(
            work, None, SCALARS, out=work, shifts=shifts,
            recombine_out=full[:, 7:], kernel=tier_name,
        )
    np.testing.assert_array_equal(work_got, work_ref)
    np.testing.assert_array_equal(full_got[:, 7:], full_ref[:, 7:])


# -- cell levels: the programmed payload is the level chain's operand --------


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("src", [np.float64, np.float32])
@pytest.mark.parametrize("dst", [np.float32, np.float64])
@pytest.mark.parametrize("order", ["F", "C"])
def test_cell_levels_recover_programmed_levels(tier, src, dst, order, monkeypatch):
    """A programmed (2, 40, 21) stack: its stored levels recover the
    weights, decode in ``src`` precision to conductances that give them
    back exactly on the level grid, and reach the level GEMM of a ``src``
    context as ``dst`` (float32 while dot_max fits its mantissa, float64
    past it) in the weights' memory layout; the read-out on ``tier`` is
    the numpy tier's, bit for bit, and the exact integer products."""
    input_bits = 8 if dst == np.float32 else 20
    arch = ArchSpec(rows=16, cols=16, input_bits=input_bits)
    rng = np.random.default_rng(stable_seed("kernels", "levels", "programmed"))
    q = rng.integers(-127, 128, size=(2, 40, 21))
    q = np.asfortranarray(q) if order == "F" else q
    encoded, stored = pack_weights(q, arch, "analog")
    assert encoded is None and len(stored) == arch.cols_per_weight
    weights = sum(
        s.astype(np.int64) << (arch.cell_bits * i) for i, s in enumerate(stored)
    )
    np.testing.assert_array_equal(weights - 2 ** (arch.weight_bits - 1), q)
    cell = arch.cell_spec()
    for levels in stored:
        assert levels.dtype == np.uint8 and levels.flags[f"{order}_CONTIGUOUS"]
        g = level_conductances(levels, cell.g_min_s, cell.g_step_s, src)
        real = g.dtype.type
        assert g.dtype == np.dtype(src) and g.strides == tuple(
            s * g.itemsize for s in levels.strides
        )
        recovered = np.rint((g - real(cell.g_min_s)) / real(cell.g_step_s))
        np.testing.assert_array_equal(recovered, levels)
        np.testing.assert_array_equal(recovered * real(cell.g_step_s) + real(cell.g_min_s), g)

    ctx = SimContext(arch=arch, compute_dtype=np.dtype(src).name)
    packed = PackedMatmul.from_packed(None, stored, ctx)
    assert packed.readout_path == "levels" and packed.gemm_dtype == np.dtype(dst)
    for levels, operand in zip(stored, packed._levels):
        assert operand.strides == tuple(s * operand.itemsize for s in levels.strides)
        np.testing.assert_array_equal(operand, levels)
    codes = rng.integers(0, 2**input_bits, size=(9, 2 * 40))
    monkeypatch.setenv("REPRO_KERNEL", "numpy")
    ref = packed.matmul(codes)
    monkeypatch.setenv("REPRO_KERNEL", tier)
    got = packed.matmul(codes)
    np.testing.assert_array_equal(got, ref)
    exact = np.hstack([codes[:, g * 40 : (g + 1) * 40] @ w for g, w in enumerate(q)])
    assert relative_error(got, exact) <= 1e-9


# -- float32: within float rounding of the numpy float32 chain ----------------


@pytest.mark.parametrize("tier", COMPILED)
@pytest.mark.parametrize("saturation", [None, 0.25])
def test_tier_matches_numpy_f32(tier, saturation):
    charges, delay_sums = _chain_inputs(np.float32)
    ref = readout_fused(
        charges, delay_sums, SCALARS, saturation=saturation, kernel="numpy"
    )
    got = readout_fused(
        charges, delay_sums, SCALARS, saturation=saturation, kernel=tier
    )
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-4)


# -- im2col: bytes, shape, strides and dtype ---------------------------------


def _layouts(x):
    """``x`` as the engine meets it: contiguous NCHW, a channel-last view
    (a conv output's transpose), a non-contiguous strided view, and a view
    with negative channel and row strides."""
    n, c, h, w = x.shape
    channel_last = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    padded = np.zeros((n, c + 1, h + 2, 2 * w))
    padded[:, 1:, 1:-1, ::2] = x
    strided = padded[:, 1:, 1:-1, ::2]
    flipped = np.ascontiguousarray(x[:, ::-1, ::-1])[:, ::-1, ::-1]
    for name, view in (
        ("nchw", x),
        ("channel_last", channel_last),
        ("strided", strided),
        ("flipped", flipped),
    ):
        np.testing.assert_array_equal(view, x)
        yield name, view


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize(
    "shape,kernel,stride,pad",
    [
        ((2, 3, 8, 8), 3, 1, 1),
        ((1, 1, 7, 5), 3, 2, 0),
        ((1, 4, 6, 6), 1, 1, 0),
        ((2, 2, 5, 5), 5, 1, 2),
        ((2, 6, 9, 7), 3, 2, 1),
        ((3, 8, 4, 4), 1, 2, 0),
    ],
)
def test_im2col_matches_numpy(tier, shape, kernel, stride, pad):
    """Every tier gathers the same GEMM operand: C-contiguous
    ``(N * positions, C*K*K)`` rows in ``(c, ki, kj)`` column order, for
    any input layout and either float output dtype; for a grouped conv,
    group ``g``'s column block is the gather of its own channel slice."""
    rng = np.random.default_rng(stable_seed("kernels", "im2col", kernel, stride))
    x = rng.integers(0, 256, size=shape).astype(np.float64)
    for name, view in _layouts(x):
        for dtype in (None, np.float32, np.float64):
            ref, rh, rw = im2col_pack(
                x, kernel, stride=stride, pad=pad, dtype=dtype, kernel="numpy"
            )
            got, gh, gw = im2col_pack(view, kernel, stride=stride, pad=pad, dtype=dtype, kernel=tier)
            assert (gh, gw) == (rh, rw), name
            assert got.dtype == ref.dtype == np.dtype(dtype or np.float64), name
            assert got.shape == ref.shape == (shape[0] * rh * rw, shape[1] * kernel**2)
            assert got.strides == ref.strides and got.flags.c_contiguous, name
            assert got.tobytes() == ref.tobytes(), name
        groups = 2 if shape[1] % 2 == 0 else 1
        width = got.shape[1] // groups
        for g in range(groups):
            members = view[:, g * shape[1] // groups : (g + 1) * shape[1] // groups]
            part, _, _ = im2col_pack(members, kernel, stride=stride, pad=pad, kernel=tier)
            np.testing.assert_array_equal(got[:, g * width : (g + 1) * width], part)
    # the rows are the float reference's patches (functional.im2col_batch)
    from repro.nn import functional as F

    cols, oh, ow = F.im2col_batch(x, kernel, stride, pad)
    np.testing.assert_array_equal(ref, cols.reshape(-1, cols.shape[2]))


@pytest.mark.parametrize("tier", TIERS)
def test_im2col_empty_output_raises_on_every_tier(tier):
    x = np.zeros((1, 1, 2, 2))
    with pytest.raises(ValueError, match="empty output"):
        im2col_pack(x, 5, stride=1, pad=0, kernel=tier)


# -- the per-channel quantiser -----------------------------------------------


def _quantizer_cases():
    """``(label, matrix)`` inputs of the quantiser equivalence matrix."""
    rng = np.random.default_rng(stable_seed("kernels", "quantize"))
    for shape in [(5,), (3, 7), (64, 3, 3, 3), (300, 512), (3, 70000), (0, 4), (4, 0)]:
        x = rng.normal(size=shape) * 3.0
        if x.size:
            x[0] = 0.0
        yield f"shape {shape}", x.reshape(shape[0], int(np.prod(shape[1:])))
    # widths around the compiled kernel's 8-lane scan and 16-wide rounding
    for width in (1, 2, 7, 9, 15, 16, 17, 33):
        yield f"width {width}", rng.normal(size=(5, width))
    # exact ties: a power-of-two scale divides (k + 0.5) * scale exactly;
    # a plain one gives near-ties on both sides
    for scale in (2.0**-3, 0.037):
        k = np.arange(-130.0, 130.0)
        row = np.concatenate([[127 * scale], (k + 0.5) * scale])
        yield f"ties at scale {scale}", np.stack([row, -row])
    tiny = np.finfo(np.float64).smallest_subnormal
    yield "signed zeros and subnormals", np.array(
        [
            [0.0, -0.0, 0.0, -0.0],
            [tiny, -tiny, 0.0, -0.0],
            [1e-310, -3e-311, tiny, -0.0],
            [1e-310, 1.0, -1e-320, 2.5e-308],
        ]
    )


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("bits", [2, 8, 9, 16])
def test_quantize_channels_matches_numpy(tier, bits):
    """Every tier returns the numpy tier's codes, dtype and scales bit for
    bit; an F-ordered matrix takes the numpy fallback inside the call."""
    for label, x in _quantizer_cases():
        for view in (x, np.asfortranarray(x)):
            ref_values, ref_scales = quantize_channels(view, bits, kernel="numpy")
            values, scales = quantize_channels(view, bits, kernel=tier)
            assert values.dtype == ref_values.dtype == np.min_scalar_type(
                -(2 ** (bits - 1) - 1)
            ), label
            assert values.shape == x.shape and values.flags.c_contiguous, label
            np.testing.assert_array_equal(values, ref_values, err_msg=label)
            assert scales.tobytes() == ref_scales.tobytes(), label


def test_quantize_channels_rounds_exact_ties_to_even():
    """The numpy tier's ``rint``: ties go to the even neighbour, and a
    channel whose scale underflows to zero is scale 1.0, all zero codes."""
    tiny = np.finfo(np.float64).smallest_subnormal
    x = np.array([[127 * 0.25, 0.125, 0.375, -0.125, -0.375], [tiny, 0.0, 0.0, 0.0, -tiny]])
    for tier in TIERS:
        values, scales = quantize_channels(x, 8, kernel=tier)
        assert values.tolist() == [[127, 0, 2, 0, -2], [0, 0, 0, 0, 0]]
        assert scales.tolist() == [0.25, 1.0]


# -- the spec facade ----------------------------------------------------------


def test_chain_spec_read_out_goes_through_dispatch():
    spec = TimeDomainChainSpec.from_context(SimContext())
    charges, delay_sums = _chain_inputs(np.float64, g=1)
    ref = readout_fused(charges, delay_sums, spec.scalars(), kernel="numpy")
    np.testing.assert_array_equal(spec.read_out(charges, delay_sums), ref)


# -- dispatch policy ----------------------------------------------------------


def test_numpy_tier_is_always_available():
    assert "numpy" in TIERS
    assert TIERS == tuple(t for t in KERNEL_TIERS if t in TIERS)  # order kept


def test_resolve_auto_picks_first_available(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert resolve("auto")[0] == TIERS[0]
    assert resolve(None)[0] == TIERS[0]


def test_unknown_tier_raises_kernel_error():
    with pytest.raises(KernelError, match="unknown kernel tier"):
        resolve("fortran")
    with pytest.raises(KernelError):
        readout_fused(*_chain_inputs(np.float64), SCALARS, kernel="fortran")


def test_env_override_wins_for_auto(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "numpy")
    assert resolve("auto")[0] == "numpy"
    assert resolve(None)[0] == "numpy"
    # an explicit request still beats the environment
    assert resolve(TIERS[0])[0] == TIERS[0]


def test_env_unknown_tier_raises(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "fortran")
    with pytest.raises(KernelError):
        resolve(None)


def test_unavailable_tier_degrades_with_one_warning(monkeypatch):
    """A tier whose probe fails (here the ``c`` tier, as on a machine with
    no compiler) falls back to numpy with exactly one RuntimeWarning."""
    import warnings

    real_probe = dispatch._probe

    def probe(name):
        if name == "c":
            dispatch._unavailable["c"] = "RuntimeError: no C compiler"
            return None
        return real_probe(name)

    dispatch.reset()
    monkeypatch.setattr(dispatch, "_probe", probe)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            name, _ = resolve("c")
            assert resolve("c")[0] == name  # second request: no re-warn
        assert name == "numpy"
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "falling back" in str(caught[0].message)
        assert "c" in dispatch.unavailable_reasons()
    finally:
        dispatch.reset()


# -- end-to-end: the engine is tier-invariant ---------------------------------


def _run(model, ctx):
    executor = NetworkExecutor(model, ctx, mode="analog")
    result = executor.run(executor.random_batch(2))
    return executor.state.key, result


@pytest.mark.parametrize("tier", COMPILED)
@pytest.mark.parametrize("noisy", [False, True])
def test_engine_outputs_are_tier_invariant(tier, noisy, monkeypatch):
    from repro.circuits.noise import HardwareNoiseConfig

    model = build_model("tiny_cnn")
    noise = HardwareNoiseConfig.scaled(1.0, seed=7) if noisy else None
    monkeypatch.setenv("REPRO_KERNEL", "numpy")
    key_ref, ref = _run(model, SimContext(noise=noise))
    monkeypatch.setenv("REPRO_KERNEL", tier)
    key_got, got = _run(model, SimContext(noise=noise))
    assert key_got == key_ref  # the tier is not a content-key dimension
    np.testing.assert_array_equal(got.output, ref.output)
    assert got.rel_error == ref.rel_error


@pytest.mark.parametrize("tier", COMPILED)
def test_engine_float32_outputs_are_tier_invariant(tier, monkeypatch):
    """Noiseless (exact levels) and noisy (float32 conductance chain)."""
    from repro.circuits.noise import HardwareNoiseConfig

    model = build_model("tiny_cnn")
    for noise in (None, HardwareNoiseConfig.scaled(1.0, seed=7)):
        ctx = SimContext(compute_dtype="float32", noise=noise)
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        _, ref = _run(model, ctx)
        monkeypatch.setenv("REPRO_KERNEL", tier)
        _, got = _run(model, ctx)
        np.testing.assert_array_equal(got.output, ref.output)


@pytest.mark.parametrize("tier", COMPILED)
@pytest.mark.parametrize("mode,noise_scale", [("analog", 0.0), ("analog", 1.0), ("ideal", 0.0)])
def test_engine_conv_gathers_never_fall_back_to_numpy(tier, mode, noise_scale, monkeypatch):
    """Every conv of a batched forward takes the compiled gather: float
    codes from the quantiser, channel-last activations from the conv
    before, on every read-out path."""
    from repro.circuits.noise import HardwareNoiseConfig
    from repro.kernels import numpy_impl

    calls = []
    real = numpy_impl.im2col_pack

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setenv("REPRO_KERNEL", tier)
    monkeypatch.setattr(numpy_impl, "im2col_pack", counted)
    noise = HardwareNoiseConfig.scaled(noise_scale, seed=3) if noise_scale else None
    executor = NetworkExecutor(build_model("resnet_smoke"), SimContext(noise=noise), mode=mode)
    executor.run(executor.random_batch(2), validate=False)
    assert calls == []


# -- the environment this matrix actually covered -----------------------------


def test_compiled_tier_present_unless_explicitly_waived():
    """CI builds the compiled tier; a numpy-only box documents why."""
    if os.environ.get("REPRO_EXPECT_KERNEL") == "c":
        assert "c" in TIERS, dispatch.unavailable_reasons()
