"""The MX shared-scale rule: one power-of-two scale per block of values."""

from __future__ import annotations

import numpy as np

from .minifloat import MinifloatFormat


def block_scales(amax, fmt: MinifloatFormat) -> np.ndarray:
    """Shared-scale rule 2^(floor(log2(amax)) - emax); 1.0 for all-zero blocks.

    Places the largest block element in the format's top binade so it never
    saturates.  Vectorized over an array of per-block amax values.
    """
    a = np.asarray(amax, dtype=np.float64)
    _, e = np.frexp(a)
    # clamp to the normal float64 exponent range so the scale itself never
    # underflows/overflows (subnormal amax would otherwise give scale 0)
    s = np.ldexp(1.0, np.clip(e - 1 - fmt.emax, -1022, 1023))
    return np.where(a > 0, s, 1.0)
