"""The MX shared-scale rule: one power-of-two scale per block of values."""

from __future__ import annotations

import numpy as np

from .minifloat import MinifloatFormat, _binade


def block_scales(amax, fmt: MinifloatFormat) -> np.ndarray:
    """Shared-scale rule 2^(floor(log2(amax)) - emax); 1.0 for all-zero blocks.

    The OCP MX v1.0 rule: it places the largest block element in
    [2^emax, 2^(emax+1)) * scale.  Every format's max_finite lies below
    2^(emax+1) (448 = 1.75 * 2^8 in E4M3), so elements in
    [max_finite, 2^(emax+1)) * scale saturate: in E4M3, a twiddle block whose
    largest |cos| or |sin| lies in [0.875, 1) clips it to 0.875.  Vectorized
    over an array of per-block amax values.  Scales are held at or above
    2^-1022, the smallest normal float64.
    """
    a = np.asarray(amax, dtype=np.float64)
    s = _binade(a)
    s *= 2.0**-fmt.emax
    np.maximum(s, 2.0**-1022, out=s)
    np.copyto(s, 1.0, where=~(a > 0))
    return s
