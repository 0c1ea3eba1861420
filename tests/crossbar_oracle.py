"""Per-crossbar reference for the packed engine: the test suite's oracle.

Programs one physical :class:`repro.circuits.reram.ReRAMCrossbar` per
(group, row tile, column tile), each sized at the rows its tile really
holds, exactly as :func:`repro.mapping.crossbar_mapping.map_layer` counts
them.  Every bit-cell slice is read through its own time-domain chain
(:class:`repro.circuits.timing.TimeDomainDotProduct`, or the Section IV-C
MSB/LSB pair :class:`repro.circuits.timing.SubRangingDotProduct` for two
slices); the slice partial products recombine with power-of-two shifts and
the weight offset is removed digitally.

Noiseless and fault-free by design: it pins the packed engine's arithmetic,
not its noise draws.  It shares only the circuit models and the
:class:`repro.context.ArchSpec` geometry with :mod:`repro.engine`, and never
imports :mod:`repro.engine.packed`.
"""

from typing import Callable, Tuple

import numpy as np

from repro.circuits.timing import SubRangingDotProduct, TimeDomainDotProduct
from repro.context import ArchSpec, SimContext


def _tile_reader(block: np.ndarray, arch: ArchSpec, mode: str) -> Callable:
    """``codes -> partial products`` of one tile's offset-encoded weights."""
    if arch.cols_per_weight == 2:
        pair = SubRangingDotProduct.from_context(SimContext(arch=arch), block)
        return pair.compute if mode == "analog" else pair.ideal
    mask = 2 ** arch.cell_bits - 1
    reads = []
    for s in range(arch.cols_per_weight):
        crossbar = arch.make_crossbar(rows=block.shape[0])
        crossbar.program((block >> (arch.cell_bits * s)) & mask)
        if mode == "analog":
            chain = TimeDomainDotProduct(crossbar, dtc=arch.dtc(), v_dd=arch.v_dd)
            reads.append(chain.compute)
        else:
            reads.append(crossbar.ideal_dot_product)
    shifts = [2 ** (arch.cell_bits * s) for s in range(arch.cols_per_weight)]
    return lambda codes: sum(read(codes) * shift for read, shift in zip(reads, shifts))


def tiled_matmul(
    q: np.ndarray, codes: np.ndarray, arch: ArchSpec, mode: str = "analog"
) -> Tuple[np.ndarray, int]:
    """``codes @ q`` read out tile by tile, and the crossbars it programmed.

    ``q`` holds signed quantised weights, ``(rows, cols)`` or a grouped
    ``(groups, rows, cols)`` stack; ``codes`` is ``(positions, groups *
    rows)`` with the groups' code blocks side by side.  Returns the
    ``(positions, groups * cols)`` products and the crossbar (pair) count.
    """
    q = np.asarray(q, dtype=np.int64)
    if q.ndim == 2:
        q = q[None]
    groups, rows, cols = q.shape
    codes = np.asarray(codes, dtype=np.int64)
    offset = 2 ** (arch.weight_bits - 1)
    width = arch.weights_per_col_tile
    outputs = []
    crossbars = 0
    for g in range(groups):
        encoded = q[g] + offset
        group_codes = codes[:, g * rows : (g + 1) * rows]
        acc = np.zeros((codes.shape[0], cols))
        for r0 in range(0, rows, arch.rows):
            tile_codes = group_codes[:, r0 : r0 + arch.rows]
            for c0 in range(0, cols, width):
                block = encoded[r0 : r0 + arch.rows, c0 : c0 + width]
                partial = _tile_reader(block, arch, mode)(tile_codes)
                used = block.shape[1]
                acc[:, c0 : c0 + used] += np.asarray(partial, dtype=float)[:, :used]
                crossbars += 1
        correction = offset * group_codes.sum(axis=1, dtype=np.int64)
        outputs.append(acc - correction[:, None])
    return np.concatenate(outputs, axis=1), crossbars
