"""Known-bad fixture: layout-discarding and narrowing casts on payloads."""

import numpy as np


def discards_layout(encoded):
    # re-copies into C order, throwing away the arranged F-order layout
    return np.ascontiguousarray(encoded)


def unordered_cast(self):
    # astype without order="K" defaults to a C-order copy
    return self._encoded.astype(np.int64)


def narrowing_cast(products):
    # recombination is pinned to float64
    return products.astype(np.float32)


def forced_order(conductances):
    # an explicit non-K order is just as layout-destroying
    return conductances.astype(np.float64, order="C")


def discards_level_layout(levels):
    # the stored cell levels carry the same layout contract
    return np.ascontiguousarray(levels)


def unordered_level_cast(levels):
    # no order="K", and a narrowing dtype on a payload name
    return levels.astype(np.float32)
