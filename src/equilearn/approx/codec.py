"""Categorical support encoding of scalar values.

A scalar in [lo, hi] becomes a two-hot distribution over evenly spaced
bins; the inverse is the expectation of the bin centers. The roundtrip
is exact for in-range values, out-of-range values clamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SupportCodec:
    num_bins: int = 21
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if self.num_bins < 2:
            raise ValueError("need at least 2 bins")
        if not self.lo < self.hi:
            raise ValueError("lo must be strictly below hi")

    @cached_property
    def centers(self) -> np.ndarray:
        """Bin centers, built on first access; read-only, as every
        model sharing this codec reads the same array."""
        c = np.linspace(self.lo, self.hi, self.num_bins)
        c.flags.writeable = False
        return c


def scalar_to_support(codec: SupportCodec, v) -> np.ndarray:
    """Two-hot linear interpolation between adjacent bins.

    Accepts a scalar or an array; adds a trailing axis of size
    ``num_bins``. The expectation of bin centers equals the clamped
    input exactly.
    """
    v = np.clip(np.asarray(v, dtype=float), codec.lo, codec.hi)
    pos = (v - codec.lo) / (codec.hi - codec.lo) * (codec.num_bins - 1)
    low = np.floor(pos).astype(int)
    low = np.minimum(low, codec.num_bins - 2)
    frac = pos - low
    out = np.zeros(v.shape + (codec.num_bins,))
    if v.ndim == 0:
        out[low] = 1.0 - frac
        out[low + 1] = frac
    else:
        np.put_along_axis(out, low[..., None], (1.0 - frac)[..., None],
                          axis=-1)
        # += for the upper bin so frac == 0 on-bin cases keep mass 1
        upper = np.take_along_axis(out, (low + 1)[..., None], axis=-1)
        np.put_along_axis(out, (low + 1)[..., None],
                          upper + frac[..., None], axis=-1)
    return out


def support_to_scalar(codec: SupportCodec, p: np.ndarray):
    """Expectation of bin centers; inverse of :func:`scalar_to_support`."""
    p = np.asarray(p, dtype=float)
    total = p.sum(axis=-1)
    if np.any(np.abs(total - 1.0) > 1e-6):
        raise ValueError("support vector does not sum to 1")
    return p @ codec.centers
