"""DTC/TDC and DAC/ADC interface tests, including the full-scale regression."""

import numpy as np
import pytest

from repro.circuits import ADC, DAC, DTC, TDC, HardwareNoiseConfig
from repro.circuits.converters import roundtrip_error_lsb


def test_dtc_tdc_roundtrip_is_lossless():
    dtc, tdc = DTC(), TDC()
    codes = np.arange(dtc.levels)
    errors = roundtrip_error_lsb(dtc, tdc, codes)
    assert np.all(errors == 0)


def test_full_scale_is_largest_representable_delay():
    # Regression: full scale used to be levels * t_del, one unit delay above
    # the largest code (levels - 1).
    for conv in (DTC(), TDC()):
        assert conv.full_scale_s == pytest.approx((conv.levels - 1) * conv.t_del_s)
        assert conv.full_scale_s < conv.levels * conv.t_del_s


def test_jittered_delay_clips_to_max_code():
    # Regression: with the old ceiling (levels * t_del) a heavily jittered
    # max-code delay could round to a code above the representable range's
    # intent; the clipped delay must digitise back to exactly levels - 1.
    dtc, tdc = DTC(), TDC()
    noise = HardwareNoiseConfig(dtc_sigma=1e6, seed=0)  # enormous jitter
    delays = np.asarray(dtc.convert(np.full(64, dtc.levels - 1), noise))
    assert np.all(delays <= (dtc.levels - 1) * dtc.t_del_s + 1e-18)
    codes = np.asarray(tdc.convert(delays))
    # positively-jittered samples clip to the ceiling and must digitise back
    # to exactly the max code, never above it
    assert np.max(codes) == dtc.levels - 1
    assert np.all((codes == 0) | (codes == dtc.levels - 1))


def test_dtc_clips_out_of_range_codes():
    dtc = DTC()
    assert dtc.convert(dtc.levels + 50) == pytest.approx(dtc.full_scale_s)
    assert dtc.convert(-3) == 0.0


def test_dac_adc_roundtrip_is_lossless():
    dac, adc = DAC(), ADC()
    codes = np.arange(dac.levels)
    recovered = adc.convert(dac.convert(codes))
    np.testing.assert_array_equal(recovered, codes)


def test_scalar_conversions_return_python_types():
    dtc, tdc = DTC(), TDC()
    delay = dtc.convert(17)
    assert isinstance(delay, float)
    assert isinstance(tdc.convert(delay), int)
    assert tdc.convert(delay) == 17


def test_dtc_convert_is_the_formula_and_leaves_codes_alone():
    """Delays are clip(code) * T_del, plus the jitter draw clipped to full
    scale, bit for bit — and the codes are never written."""
    dtc = DTC()
    noise = HardwareNoiseConfig(dtc_sigma=0.3, seed=5)
    rng = np.random.default_rng(3)
    codes = [
        rng.integers(-20, dtc.levels + 20, size=(3, 4, 5)),
        rng.uniform(-20.0, dtc.levels + 20.0, size=(6, 7)),
        rng.integers(0, dtc.levels, size=(2, 9)).astype(np.uint8),
        200,
        17.25,
    ]
    for code in codes:
        before = np.array(code, copy=True)
        by_hand = np.clip(np.asarray(code, dtype=float), 0, dtc.levels - 1) * dtc.t_del_s
        delays = dtc.convert(code)
        np.testing.assert_array_equal(np.asarray(delays), by_hand)
        assert np.asarray(delays).tobytes() == np.asarray(by_hand).tobytes()

        jitter = noise.stream("dtc").sample(noise.dtc_sigma * dtc.t_del_s, np.shape(code))
        jittered = np.clip(by_hand + jitter, 0.0, dtc.full_scale_s)
        noisy = dtc.convert(code, noise.stream("dtc"))
        assert np.asarray(noisy).tobytes() == np.asarray(jittered).tobytes()
        assert not np.array_equal(np.asarray(noisy), by_hand)

        if np.isscalar(code):
            assert isinstance(delays, float) and isinstance(noisy, float)
        else:
            assert delays.dtype == noisy.dtype == np.float64
            assert delays.shape == noisy.shape == np.shape(code)
            assert not np.shares_memory(delays, code)
        np.testing.assert_array_equal(np.asarray(code), before)
        assert np.asarray(code).dtype == before.dtype
