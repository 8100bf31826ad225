"""Frozen quantizer and shared-scale oracles: the frexp/ldexp versions of
`minifloat.quantize_array` and `mxblock.block_scales` as they stood before
the package read every power of two from the exponent bits.

Kept verbatim in their arithmetic, all in FP64, and independent of the
package's code, so that the frozen transform oracles built on them
(`mx_oracle`, `fft_oracle`, `mx_literal`) do not test the code under test
against itself.  Tests require the package's versions to equal these bit for
bit.
"""

import numpy as np

from mxfft import InvalidValue


def quantize_array(values, fmt):
    """Round every element to the nearest value of `fmt` (ties to even).

    Magnitudes above max_finite saturate; magnitudes below half the smallest
    subnormal flush to zero.  Input must be finite.
    """
    x = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise InvalidValue("non-finite input to quantize")
    a = np.abs(x)
    # a = m * 2^e with m in [0.5, 1), so floor(log2(a)) = e - 1
    _, e = np.frexp(a)
    eb = np.maximum(e - 1, fmt.emin)
    step = np.ldexp(1.0, eb - fmt.mantissa_bits)
    with np.errstate(over="ignore"):  # x / step overflows near the float64 max
        q = np.round(x / step) * step  # np.round is round-half-to-even
    return np.clip(q, -fmt.max_finite, fmt.max_finite)


def block_scales(amax, fmt):
    """Shared-scale rule 2^(floor(log2(amax)) - emax); 1.0 for all-zero blocks."""
    a = np.asarray(amax, dtype=np.float64)
    _, e = np.frexp(a)
    # clamp to the normal float64 exponent range so the scale itself never
    # underflows/overflows (subnormal amax would otherwise give scale 0)
    s = np.ldexp(1.0, np.clip(e - 1 - fmt.emax, -1022, 1023))
    return np.where(a > 0, s, 1.0)
