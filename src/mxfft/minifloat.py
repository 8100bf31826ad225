"""Parametric minifloat codec: small sign/exponent/mantissa formats.

Covers the 8-bit (E4M3, E5M2), 6-bit (E2M3, E3M2) and 16-bit (FP16)
element formats.  Quantization is round-to-nearest, ties-to-even, with
saturation to the largest finite magnitude and gradual underflow through
subnormals.  There is one quantizer, `_quantize_inplace`, exact in float32 or
float64; `quantize_array` is its checked FP64 form.  Powers of two are read
from the exponent bits by `_binade`, here and in the MX kernel.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property

import numpy as np

from .errors import ConfigError, InvalidValue

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
        for field, lo, hi in (("exponent_bits", 2, 10), ("mantissa_bits", 1, 52)):
            value = getattr(self, field)
            if not isinstance(value, (int, np.integer)) or not lo <= value <= hi:
                raise ConfigError(field, f"must be an integer in [{lo}, {hi}], got {value!r}")
        if self.policy not in POLICIES:
            raise ConfigError("policy", f"unknown policy {self.policy!r}; known: {', '.join(POLICIES)}")

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
    try:
        return FORMATS[name]
    except KeyError:
        known = ", ".join(sorted(FORMATS))
        raise ConfigError("format", f"unknown format {name!r}; known formats: {known}") from None


def quantize_array(values, fmt: MinifloatFormat) -> np.ndarray:
    """Round every element to the nearest value of `fmt` (ties to even), in FP64.

    Magnitudes above max_finite saturate; magnitudes below half the smallest
    subnormal flush to zero.  Input must be finite.
    """
    # a C-contiguous copy of the caller's values, which the in-place pass overwrites
    x = np.array(values, dtype=np.float64, order="C")
    if not np.all(np.isfinite(x)):
        raise InvalidValue("non-finite input to quantize")
    return _quantize_inplace(x, fmt)[()]


def _binade(x: np.ndarray) -> np.ndarray:
    """2^floor(log2|x|) for normal x, 0 for zero or subnormal x: a new array of
    x's dtype holding x's exponent field, sign and mantissa bits masked off."""
    info = np.finfo(x.dtype)
    bits = x.view(f"u{x.itemsize}")
    mask = bits.dtype.type(((1 << info.nexp) - 1) << info.nmant)
    return np.bitwise_and(bits, mask, out=np.empty_like(bits)).view(x.dtype)


def _quantize_inplace(x: np.ndarray, fmt: MinifloatFormat, saturate: bool = True) -> np.ndarray:
    """Round a finite float32/float64 array to `fmt`, in place, in its own dtype.

    Skips the finiteness check (callers check once at their boundary).
    step = 2^(max(floor(log2|x|), emin) - M) and 1/step are formed by integer
    arithmetic on _binade's exponent field; x * (1/step) is rounded half to
    even by rint and multiplied back by step, both exact.  Saturating first
    cannot overflow; saturate=False skips it, for callers that guarantee
    |x| <= max_finite.  Every step and 1/step must be a normal value of x's
    dtype: true in float64 for every format, and in float32 for those that
    fftcore._product_dtype carries in float32.
    """
    info = np.finfo(x.dtype)
    mbits = info.nmant
    if saturate:
        np.clip(x, -fmt.max_finite, fmt.max_finite, out=x)
    binade = _binade(x)
    np.maximum(binade, x.dtype.type(2.0**fmt.emin), out=binade)
    bits = binade.view(f"u{x.itemsize}")
    utype = bits.dtype.type
    step = bits - utype(fmt.mantissa_bits << mbits)
    np.subtract(utype((2 * (info.maxexp - 1) + fmt.mantissa_bits) << mbits), bits, out=bits)
    x *= binade  # 1/step
    np.rint(x, out=x)  # round half to even
    x *= step.view(x.dtype)
    return x
