"""Conveniences the engine tests share: a one-shot network run and a small
grouped-conv network.  Neither is library API: a program builds a
:class:`repro.engine.NetworkExecutor` and keeps it, and the model zoo holds
no grouped convolution."""

from typing import Optional

import numpy as np

from repro.context import SimContext
from repro.engine import ExecutionResult, NetworkExecutor
from repro.nn.layers import TensorShape
from repro.nn.network import Network, NetworkBuilder


def run_network(
    network: Network,
    ctx: Optional[SimContext] = None,
    x: Optional[np.ndarray] = None,
    mode: str = "analog",
    validate: bool = True,
) -> ExecutionResult:
    """Program ``network``, wire it and run ``x`` once."""
    return NetworkExecutor(network, ctx, mode).run(x, validate=validate)


def grouped_conv_net() -> Network:
    """A small net with a grouped conv (2 groups) and partial edge tiles."""
    builder = NetworkBuilder("grouped", TensorShape(4, 10, 10))
    builder.conv(8, 3, padding=1, name="conv1").relu()
    builder.conv(12, 3, padding=1, groups=2, name="conv2").relu()
    builder.pool(2, name="pool")
    builder.fc(7, name="fc")
    return builder.build()
