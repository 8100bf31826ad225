"""Parametric minifloat codec: small sign/exponent/mantissa formats.

Covers the 8-bit (E4M3, E5M2), 6-bit (E2M3, E3M2) and 16-bit (FP16)
element formats.  Quantization is round-to-nearest, ties-to-even, with
saturation to the largest finite magnitude and gradual underflow through
subnormals.  There is one quantizer, `_quantize_inplace`, exact in float32 or
float64; `quantize_array` is its checked FP64 form.  Powers of two are read
from the exponent bits by `_binade`, here and in `mxblock.block_scales`.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property

import numpy as np

from .errors import InvalidValue, _choice, _instance, _integer, _numbers

#: Special-value conventions.
#:   "ieee"     -- top exponent code reserved for inf/NaN (E5M2, FP16)
#:   "extended" -- top exponent code carries finite values except the
#:                 all-ones mantissa, which is NaN (OCP E4M3)
#:   "finite"   -- every code is a finite value (FP6 formats)
POLICIES = ("ieee", "extended", "finite")


@dataclasses.dataclass(frozen=True)
class MinifloatFormat:
    """A (1, E, M)-bit format with the standard bias and a special-value policy.

    2 <= E <= 10 and 1 <= M <= 52: FP64 holds every grid step and 1/step.
    """

    name: str
    exponent_bits: int
    mantissa_bits: int
    policy: str = "finite"

    def __post_init__(self):
        _instance(self.name, str, "name")  # a format is hashed: plans and caches key on it
        for field, lo, hi in (("exponent_bits", 2, 10), ("mantissa_bits", 1, 52)):
            object.__setattr__(self, field, _integer(getattr(self, field), field, lo, hi))
        _choice(self.policy, POLICIES, "policy", "policy")

    @property
    def bits(self) -> int:
        return 1 + self.exponent_bits + self.mantissa_bits

    @property
    def bias(self) -> int:
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def emin(self) -> int:
        """Smallest normal (unbiased) exponent."""
        return 1 - self.bias

    @cached_property
    def emax(self) -> int:
        """Unbiased exponent of the top finite binade, floor(log2(max_finite))."""
        top_code = (1 << self.exponent_bits) - 1
        if self.policy == "ieee":
            top_code -= 1
        return top_code - self.bias

    @cached_property
    def max_finite(self) -> float:
        """Largest representable magnitude."""
        m = 1 << self.mantissa_bits
        if self.policy == "extended":
            frac = m + (m - 2)  # all-ones mantissa is NaN
        else:
            frac = m + (m - 1)
        return math.ldexp(frac, self.emax - self.mantissa_bits)

    @property
    def min_subnormal(self) -> float:
        return math.ldexp(1.0, self.emin - self.mantissa_bits)

    @property
    def min_normal(self) -> float:
        return math.ldexp(1.0, self.emin)


E4M3 = MinifloatFormat("e4m3", 4, 3, "extended")
E5M2 = MinifloatFormat("e5m2", 5, 2, "ieee")
E2M3 = MinifloatFormat("e2m3", 2, 3, "finite")
E3M2 = MinifloatFormat("e3m2", 3, 2, "finite")
FP16 = MinifloatFormat("fp16", 5, 10, "ieee")

FORMATS = {f.name: f for f in (E4M3, E5M2, E2M3, E3M2, FP16)}


def get_format(name: str) -> MinifloatFormat:
    return FORMATS[_choice(name, sorted(FORMATS), "format", "format")]


def quantize_array(values, fmt: MinifloatFormat) -> np.ndarray:
    """Round every element to the nearest value of `fmt` (ties to even), in FP64.

    Magnitudes above max_finite saturate; magnitudes below half the smallest
    subnormal flush to zero.  Input must be finite.
    """
    _instance(fmt, MinifloatFormat, "fmt")
    a = _numbers(values, "biuf", "quantize input must be an array of real numbers", np.float64)
    # a C-contiguous copy of the caller's values, which the in-place pass overwrites
    x = np.array(a, order="C")
    if not np.all(np.isfinite(x)):
        raise InvalidValue("non-finite input to quantize")
    return _quantize_inplace(x, fmt)[()]


# per float dtype: its finfo, the unsigned integer dtype of its bits and the
# exponent field's mask (looked up once: the MX stage reads them per call)
_FLOAT_BITS = {
    np.dtype(t): (info, np.dtype(f"u{info.bits // 8}"), ((1 << info.nexp) - 1) << info.nmant)
    for t in (np.float32, np.float64)
    for info in [np.finfo(t)]
}


def _binade(x: np.ndarray) -> np.ndarray:
    """2^floor(log2|x|) for normal x, 0 for zero or subnormal x: a new array of
    x's dtype holding x's exponent field, sign and mantissa bits masked off."""
    _, utype, mask = _FLOAT_BITS[x.dtype]
    bits = x.view(utype)
    return np.bitwise_and(bits, utype.type(mask), out=np.empty_like(bits)).view(x.dtype)


def _quantize_inplace(x: np.ndarray, fmt: MinifloatFormat, saturate: bool = True,
                      scale=None, out=None) -> np.ndarray:
    """Round a finite float32/float64 array to `fmt`, in place, in its own dtype.

    Skips the finiteness check (callers check once at their boundary).
    step = 2^(max(floor(log2|x|), emin) - M) and 1/step are formed by integer
    arithmetic on _binade's exponent field; x * (1/step) is rounded half to
    even by rint and multiplied back by step, both exact.  Saturating first
    cannot overflow; saturate=False skips it, for callers that guarantee
    |x| <= max_finite.  Every step and 1/step must be a normal value of x's
    dtype: true in float64 for every format, and in float32 for every format
    an MX mode takes (E <= 6, M <= 11; see fftcore.ModeSpec).

    `scale`, powers of two of x's dtype broadcast against x (one per MX
    block), rounds to fmt's grid times scale instead: exponent floor
    2^emin * scale, bound max_finite * scale.  While every step, bound and
    1/step stays a normal value, the result is one rounding of x / scale to
    fmt, times scale: a block's encode and decode at once.  `out`, if given,
    receives the result and x is left as it is.
    """
    info, bits_dtype, _ = _FLOAT_BITS[x.dtype]
    mbits = info.nmant
    floor = x.dtype.type(2.0**fmt.emin)
    if scale is not None:
        floor = scale * floor
    dst = x if out is None else out
    if saturate:
        if scale is None:
            np.clip(x, -fmt.max_finite, fmt.max_finite, out=dst)
        else:  # two passes cost about a quarter of np.clip's with array bounds
            bound = scale * x.dtype.type(fmt.max_finite)
            np.maximum(np.minimum(x, bound, out=dst), np.negative(bound), out=dst)
        x = dst
    binade = _binade(x)
    np.maximum(binade, floor, out=binade)
    bits = binade.view(bits_dtype)
    utype = bits_dtype.type
    step = bits - utype(fmt.mantissa_bits << mbits)
    np.subtract(utype((2 * (info.maxexp - 1) + fmt.mantissa_bits) << mbits), bits, out=bits)
    np.multiply(x, binade, out=dst)  # 1/step
    np.rint(dst, out=dst)  # round half to even
    dst *= step.view(x.dtype)
    return dst
