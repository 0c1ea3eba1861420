"""Stateless noise seeding: every draw derives from (seed, salt), so equal
seeds give identical draws, distinct salts decorrelate, streams replay, the
config pickles across process boundaries, and the Section-V error budget is
pinned at the paper's design point."""

import math
import pickle

import numpy as np
import pytest

from repro.circuits.noise import (
    HardwareNoiseConfig,
    NoiseBudget,
    NoiseStream,
    stable_seed,
)
from repro.context import SimContext


# ---------------------------------------------------------------------------
# stateless config draws
# ---------------------------------------------------------------------------

def test_same_seed_gives_identical_draws():
    a = HardwareNoiseConfig(seed=123)
    b = HardwareNoiseConfig(seed=123)
    for _ in range(3):
        np.testing.assert_array_equal(a.sample(0.1, (4, 4)), b.sample(0.1, (4, 4)))


def test_unsalted_draws_are_sequential_but_replayable():
    """Circuit blocks handed the bare config (legacy path) must see
    decorrelated successive draws — a 12-hop cascade may not repeat one
    jitter vector 12 times — while equal-seed configs still replay the same
    sequence."""
    a = HardwareNoiseConfig(seed=3)
    b = HardwareNoiseConfig(seed=3)
    first, second = a.sample(0.1, (8,)), a.sample(0.1, (8,))
    assert not np.array_equal(first, second)
    np.testing.assert_array_equal(b.sample(0.1, (8,)), first)
    np.testing.assert_array_equal(b.sample(0.1, (8,)), second)


def test_cascade_hops_accumulate_independent_errors():
    """Regression for the stateless redesign: each X-subBuf hop must draw
    fresh jitter (sqrt(n) accumulation), not re-apply one identical draw."""
    from repro.circuits.analog_buffers import XSubBuf

    buf = XSubBuf()
    noise = HardwareNoiseConfig(x_subbuf_sigma=0.5, seed=2)
    delays = np.full(64, 100.0 * buf.unit_delay_s)
    one_hop = np.asarray(buf.latch(delays, noise)) - delays
    two_hop_step = np.asarray(buf.latch(delays, noise)) - delays
    assert not np.array_equal(one_hop, two_hop_step)


def test_config_draws_are_pure_functions_of_seed_and_salt():
    """No hidden generator state: interleaving other draws cannot perturb a
    call, which is what makes results construction-order independent."""
    cfg = HardwareNoiseConfig(seed=7)
    first = cfg.sample(0.1, (8,), salt="site-a")
    for _ in range(5):
        cfg.sample(0.1, (16,), salt="site-b")  # unrelated consumption
    np.testing.assert_array_equal(cfg.sample(0.1, (8,), salt="site-a"), first)


def test_distinct_salts_decorrelate():
    cfg = HardwareNoiseConfig(seed=1)
    assert not np.array_equal(
        cfg.sample(0.1, (16,), salt="a"), cfg.sample(0.1, (16,), salt="b")
    )
    assert not np.array_equal(
        cfg.sample(0.1, (16,), salt=(1, 2)), cfg.sample(0.1, (16,), salt=(2, 1))
    )


def test_different_seeds_differ():
    a = HardwareNoiseConfig(seed=1)
    b = HardwareNoiseConfig(seed=2)
    assert not np.array_equal(a.sample(0.1, (16,)), b.sample(0.1, (16,)))


def test_reseed_updates_the_recorded_seed_and_the_draws():
    cfg = HardwareNoiseConfig(seed=1)
    before = cfg.sample(0.1, (8,))
    cfg.reseed(2)
    assert cfg.seed == 2
    assert not np.array_equal(cfg.sample(0.1, (8,)), before)
    cfg.reseed(1)
    np.testing.assert_array_equal(cfg.sample(0.1, (8,)), before)


def test_none_seed_normalises_to_default():
    assert HardwareNoiseConfig(seed=None).seed == 0
    np.testing.assert_array_equal(
        HardwareNoiseConfig(seed=None).sample(0.1, (4,)),
        HardwareNoiseConfig(seed=0).sample(0.1, (4,)),
    )


def test_zero_sigma_is_deterministically_zero():
    cfg = HardwareNoiseConfig(seed=5)
    np.testing.assert_array_equal(cfg.sample(0.0, (1000,)), np.zeros(1000))
    stream = cfg.stream("x")
    # zero-sigma draws consume no stream entropy
    first = cfg.stream("x").sample(0.1, (4,))
    np.testing.assert_array_equal(stream.sample(0.0, (1000,)), np.zeros(1000))
    np.testing.assert_array_equal(stream.sample(0.1, (4,)), first)


@pytest.mark.parametrize("shape", [None, 7, (3, 5), (2, 3, 4)])
@pytest.mark.parametrize("sigma", [5e-13, 0.01, 1.0, 2.5])
def test_draws_equal_generator_normal_bit_for_bit(shape, sigma):
    """A scoped stream's draws and a salted config draw are bit for bit
    ``Generator.normal(0.0, sigma, size)`` from the same derived generator:
    a draw's bits depend on the seed, the salt, the shape and the sigma,
    never on how the kernel computes it."""
    cfg = HardwareNoiseConfig(seed=21)
    expected = cfg.derived_rng("site", 4).normal(0.0, sigma, size=shape)
    salted = cfg.sample(sigma, shape, salt=("site", 4))
    assert type(salted) is type(expected)
    assert np.asarray(salted).tobytes() == np.asarray(expected).tobytes()
    stream, rng = cfg.stream("site", 4), cfg.derived_rng("site", 4)
    for _ in range(3):  # successive stream draws replay the generator's sequence
        drawn, replayed = stream.sample(sigma, shape), rng.normal(0.0, sigma, size=shape)
        assert np.shape(drawn) == np.shape(replayed)
        assert np.asarray(drawn).tobytes() == np.asarray(replayed).tobytes()


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_variation_follows_memory_order(order, dtype):
    """Programming variation draws one Gaussian per cell over the tensor's
    flat memory-order view and returns ``c * (1 + sigma * z)`` in the
    input's layout and dtype, leaving the input as it was."""
    sigma = 0.25
    cfg = HardwareNoiseConfig(seed=4, reram_conductance_sigma=sigma)
    rng = np.random.default_rng(stable_seed(4, "conductances"))
    conductances = np.asarray(
        rng.uniform(1e-6, 1e-4, size=(2, 5, 3)), dtype=dtype, order=order
    )
    before = conductances.copy(order="K")
    noisy = cfg.stream("cells").apply_conductance_variation(conductances)
    assert noisy.dtype == dtype
    assert noisy.flags.f_contiguous == (order == "F")
    assert noisy.flags.c_contiguous == (order == "C")
    z = cfg.derived_rng("cells").standard_normal(conductances.size)
    flat = conductances.reshape(-1, order=order).astype(np.float64)
    expected = np.clip(flat * (1.0 + sigma * z), 0.0, None).astype(dtype)
    assert noisy.reshape(-1, order=order).tobytes() == expected.tobytes()
    assert conductances.tobytes(order="A") == before.tobytes(order="A")
    assert conductances.flags[f"{order}_CONTIGUOUS"]


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def test_equal_salt_streams_replay_identical_sequences():
    cfg = HardwareNoiseConfig(seed=9)
    a = cfg.stream("tile", 0, 1)
    b = cfg.stream("tile", 0, 1)
    for _ in range(4):
        np.testing.assert_array_equal(a.sample(0.05, (8,)), b.sample(0.05, (8,)))


def test_stream_draws_are_sequential_and_salted():
    cfg = HardwareNoiseConfig(seed=9)
    stream = cfg.stream("tile", 0, 0)
    assert not np.array_equal(stream.sample(0.05, (8,)), stream.sample(0.05, (8,)))
    assert not np.array_equal(
        cfg.stream("tile", 0, 0).sample(0.05, (8,)),
        cfg.stream("tile", 0, 1).sample(0.05, (8,)),
    )


def test_stream_exposes_config_sigmas():
    cfg = HardwareNoiseConfig(seed=3, dtc_sigma=0.25)
    stream = cfg.stream("s")
    assert stream.dtc_sigma == 0.25
    assert stream.reram_conductance_sigma == cfg.reram_conductance_sigma
    sub = stream.stream("deeper")
    assert isinstance(sub, NoiseStream)
    assert sub.salt == ("s", "deeper")


def test_monte_carlo_trials_are_independently_reproducible():
    """The MC pattern the sweep uses: per-trial seeds derived from the base
    seed make every trial reproducible in isolation."""

    def trial_draws(trial):
        cfg = HardwareNoiseConfig(seed=stable_seed(0, "trial", trial))
        return cfg.stream("layer", 0).sample(0.02, (32,))

    for trial in range(4):
        np.testing.assert_array_equal(trial_draws(trial), trial_draws(trial))
    assert not np.array_equal(trial_draws(0), trial_draws(1))


# ---------------------------------------------------------------------------
# stable_seed
# ---------------------------------------------------------------------------

def test_stable_seed_is_deterministic_and_salt_sensitive():
    assert stable_seed(0, "noise", 3) == stable_seed(0, "noise", 3)
    assert stable_seed(0, "noise", 3) != stable_seed(0, "noise", 4)
    assert stable_seed(0, "noise", 3) != stable_seed(1, "noise", 3)
    assert stable_seed(-1, "x") == stable_seed(-1, "x")  # negative ints allowed


def test_stable_seed_rejects_unhashable_salt_kinds():
    with pytest.raises(TypeError):
        stable_seed(0, 1.5)


# ---------------------------------------------------------------------------
# pickling (the sweep pool ships configs across processes)
# ---------------------------------------------------------------------------

def test_noise_config_pickle_roundtrip_preserves_draws():
    cfg = HardwareNoiseConfig.scaled(0.5, seed=11)
    clone = pickle.loads(pickle.dumps(cfg))
    assert clone == cfg
    np.testing.assert_array_equal(
        clone.sample(0.1, (8,), salt="s"), cfg.sample(0.1, (8,), salt="s")
    )
    np.testing.assert_array_equal(
        clone.stream("t").sample(0.1, (8,)), cfg.stream("t").sample(0.1, (8,))
    )


def test_sim_context_pickle_roundtrip():
    ctx = SimContext(noise=HardwareNoiseConfig.scaled(1.0, seed=4), seed=2)
    clone = pickle.loads(pickle.dumps(ctx))
    assert clone == ctx
    assert clone.noise is not None
    np.testing.assert_array_equal(
        clone.noise.sample(0.1, (4,)), ctx.noise.sample(0.1, (4,))
    )


def test_noise_stream_pickle_roundtrip_preserves_state():
    stream = HardwareNoiseConfig(seed=8).stream("tile", 2)
    stream.sample(0.1, (4,))  # advance the state
    clone = pickle.loads(pickle.dumps(stream))
    np.testing.assert_array_equal(clone.sample(0.1, (4,)), stream.sample(0.1, (4,)))


# ---------------------------------------------------------------------------
# scaled() / ideal()
# ---------------------------------------------------------------------------

def test_scaled_preserves_sigma_ratios():
    base = HardwareNoiseConfig()
    half = HardwareNoiseConfig.scaled(0.5, seed=3)
    assert half.x_subbuf_sigma == pytest.approx(base.x_subbuf_sigma * 0.5)
    assert half.dtc_sigma == pytest.approx(base.dtc_sigma * 0.5)
    assert half.reram_conductance_sigma == pytest.approx(
        base.reram_conductance_sigma * 0.5
    )
    assert half.seed == 3


def test_scaled_zero_equals_ideal():
    zero = HardwareNoiseConfig.scaled(0.0)
    ideal = HardwareNoiseConfig.ideal()
    for name in (
        "x_subbuf_sigma",
        "p_subbuf_sigma",
        "i_adder_sigma",
        "comparator_sigma",
        "dtc_sigma",
        "tdc_sigma",
        "reram_conductance_sigma",
    ):
        assert getattr(zero, name) == 0.0
        assert getattr(ideal, name) == 0.0


def test_scaled_rejects_negative_scale():
    with pytest.raises(ValueError):
        HardwareNoiseConfig.scaled(-0.1)
    # NaN passes a bare `< 0` check and would silently run noiseless
    for scale in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and non-negative"):
            HardwareNoiseConfig.scaled(scale)


def test_noise_config_rejects_non_finite_sigmas():
    for name in (
        "x_subbuf_sigma",
        "p_subbuf_sigma",
        "i_adder_sigma",
        "comparator_sigma",
        "dtc_sigma",
        "tdc_sigma",
        "reram_conductance_sigma",
    ):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                HardwareNoiseConfig(**{name: value})


# ---------------------------------------------------------------------------
# NoiseBudget: Section-V design point
# ---------------------------------------------------------------------------

def test_noise_budget_pins_the_paper_design_point():
    """Section V: a 40 ps margin per 50 ps unit delay over a 2^8 dynamic
    range, 12 cascaded X-subBufs — sqrt(12) * eps must stay inside 40 ps per
    unit, both sides scaled by 2^8."""
    budget = NoiseBudget()
    assert budget.total_margin_ps == pytest.approx(40.0 * 2 ** 8)
    assert budget.accumulated_error_ps == pytest.approx(
        math.sqrt(12) * 5.0 * 2 ** 8
    )
    assert budget.within_margin()


def test_noise_budget_margin_boundary():
    """The largest admissible per-buffer error is margin / sqrt(12)."""
    eps_max = 40.0 / math.sqrt(12)
    assert NoiseBudget(epsilon_ps=eps_max).within_margin()
    assert not NoiseBudget(epsilon_ps=eps_max * 1.01).within_margin()
