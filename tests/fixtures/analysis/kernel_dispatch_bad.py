"""Known-bad fixture: hot path imports kernel implementations directly."""

import repro.kernels.c_impl
from repro.kernels import c_impl
from repro.kernels.numpy_impl import readout_fused


def run(charges, delay_sums, scalars):
    # pins the tier: no probing, no REPRO_KERNEL override, and a
    # missing compiler raises here instead of degrading to numpy
    repro.kernels.c_impl.load()
    c_impl.readout_fused(charges, delay_sums, scalars)
    return readout_fused(charges, delay_sums, scalars)
