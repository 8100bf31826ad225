"""The MX shared-scale rule: one power-of-two scale per block of values."""

from __future__ import annotations

import numpy as np

from .minifloat import MinifloatFormat, _binade


def block_scales(amax, fmt: MinifloatFormat) -> np.ndarray:
    """Shared-scale rule 2^(floor(log2(amax)) - emax); 1.0 for all-zero blocks.

    Places the largest block element in the format's top binade so it never
    saturates.  Vectorized over an array of per-block amax values.  Scales
    are held at or above 2^-1022, the smallest normal float64.
    """
    a = np.asarray(amax, dtype=np.float64)
    s = _binade(a)
    s *= 2.0**-fmt.emax
    np.maximum(s, 2.0**-1022, out=s)
    np.copyto(s, 1.0, where=~(a > 0))
    return s
