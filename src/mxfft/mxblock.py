"""The MX shared-scale rule: one power-of-two scale per block of values."""

from __future__ import annotations

import numpy as np

from .minifloat import _FLOAT_BITS, MinifloatFormat, _binade


def block_scales(amax, fmt: MinifloatFormat, dtype=np.float64) -> np.ndarray:
    """Shared-scale rule 2^(floor(log2(amax)) - emax); 1.0 for all-zero blocks.

    The OCP MX v1.0 rule: it places the largest block element in
    [2^emax, 2^(emax+1)) * scale.  Every format's max_finite lies below
    2^(emax+1) (448 = 1.75 * 2^8 in E4M3), so elements in
    [max_finite, 2^(emax+1)) * scale saturate: in E4M3, a twiddle block whose
    largest |cos| or |sin| lies in [0.875, 1) clips it to 0.875.  Vectorized
    over an array of per-block amax values, computed in `dtype`: float64, or
    float32 for the MX stage's per-call scales, which stay in float32
    (fftcore._mx_multiply).  Scales are held at or above the
    smallest normal value of `dtype` (2^-1022 in float64, 2^-126 in float32),
    so the two agree wherever the float32 scale is above 2^-126.
    """
    a = np.asarray(amax, dtype=dtype)
    s = _binade(a)
    s *= 2.0**-fmt.emax
    return np.where(a > 0, np.maximum(s, _FLOAT_BITS[a.dtype][0].tiny, out=s), 1.0)


def _fit_scales(amax, fmt: MinifloatFormat) -> np.ndarray:
    """The least power of two >= the float32 block_scales(amax, fmt) that holds
    amax within max_finite times it: the OCP scale, doubled where the largest
    element would saturate.  The MX stage renormalizes its products by it."""
    scale = block_scales(amax, fmt, np.float32)
    np.multiply(scale, 2, out=scale, where=amax > fmt.max_finite * scale)
    return scale
