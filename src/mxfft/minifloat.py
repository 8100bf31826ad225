"""Parametric minifloat codec: small sign/exponent/mantissa formats.

Covers the 8-bit (E4M3, E5M2), 6-bit (E2M3, E3M2) and 16-bit (FP16)
element formats.  Quantization is round-to-nearest, ties-to-even, with
saturation to the largest finite magnitude and gradual underflow through
subnormals.  All internal arithmetic of quantize_array is FP64, so the codec
itself is exact relative to its definition; the in-place variant the MX kernel
uses works on the exponent bits in float32 or float64 and matches it bit for
bit.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property

import numpy as np

from .errors import InvalidValue

#: Special-value conventions.
#:   "ieee"     -- top exponent code reserved for inf/NaN (E5M2, FP16)
#:   "extended" -- top exponent code carries finite values except the
#:                 all-ones mantissa, which is NaN (OCP E4M3)
#:   "finite"   -- every code is a finite value (FP6 formats)
POLICIES = ("ieee", "extended", "finite")


@dataclasses.dataclass(frozen=True)
class MinifloatFormat:
    """A (1, E, M)-bit floating point format with a fixed special-value policy."""

    name: str
    exponent_bits: int
    mantissa_bits: int
    policy: str = "finite"
    bias: int = None  # default 2^(E-1) - 1

    def __post_init__(self):
        if self.exponent_bits < 2:
            raise ValueError("exponent_bits must be >= 2")
        if self.mantissa_bits < 1:
            raise ValueError("mantissa_bits must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.bias is None:
            object.__setattr__(self, "bias", (1 << (self.exponent_bits - 1)) - 1)

    @property
    def bits(self) -> int:
        return 1 + self.exponent_bits + self.mantissa_bits

    @property
    def has_inf_nan(self) -> bool:
        return self.policy != "finite"

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
        raise KeyError(f"unknown format {name!r}; known formats: {known}") from None


def quantize_array(values, fmt: MinifloatFormat) -> np.ndarray:
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
    q = np.round(x / step) * step  # np.round is round-half-to-even
    return np.clip(q, -fmt.max_finite, fmt.max_finite)


def _quantize_inplace(x: np.ndarray, fmt: MinifloatFormat, saturate: bool = True) -> np.ndarray:
    """quantize_array on a finite float32/float64 array, in place, in its own dtype.

    Bit-identical to quantize_array, but skips the finiteness check (callers
    check once at their boundary) and works on the exponent bits instead of
    frexp/ldexp: the binade 2^max(floor(log2|x|), emin) is the exponent field
    with the mantissa masked off, floored at 2^emin; step = binade * 2^-M and
    1/step are formed by integer arithmetic on those bits.  Then x * (1/step)
    is rounded half-to-even by rint and multiplied back by step, both exact.
    Saturating first, rather than clipping last as quantize_array does, gives
    the same result and cannot overflow.  saturate=False skips that clip; only
    for callers that guarantee |x| <= max_finite.  Formats whose step or 1/step
    is not a normal value of x's dtype fall back to quantize_array itself.
    """
    info = np.finfo(x.dtype)
    mbits = info.nmant
    if saturate:
        np.clip(x, -fmt.max_finite, fmt.max_finite, out=x)
    if fmt.mantissa_bits >= mbits and fmt.emin <= info.minexp:
        return x  # every value of x's dtype is on the format's grid
    if fmt.emin - fmt.mantissa_bits < info.minexp or fmt.mantissa_bits - fmt.emin >= info.maxexp:
        x[...] = quantize_array(x, fmt)
        return x
    utype = np.dtype(f"u{x.itemsize}").type
    bias = info.maxexp - 1
    binade = x.view(utype) & utype(((1 << info.nexp) - 1) << mbits)
    floor = np.empty(binade.shape, dtype=x.dtype)
    floor.fill(2.0**fmt.emin)  # a full operand: numpy's scalar maximum is slow
    np.maximum(binade.view(x.dtype), floor, out=binade.view(x.dtype))
    step = binade - utype(fmt.mantissa_bits << mbits)
    np.subtract(utype((2 * bias + fmt.mantissa_bits) << mbits), binade, out=binade)
    x *= binade.view(x.dtype)  # 1/step
    np.rint(x, out=x)  # round half to even
    x *= step.view(x.dtype)
    return x


def quantize_scalar(value: float, fmt: MinifloatFormat) -> float:
    """Scalar form of quantize_array."""
    if not math.isfinite(value):
        raise InvalidValue(f"cannot quantize {value!r}")
    return float(quantize_array(np.float64(value), fmt))


def enumerate_values(fmt: MinifloatFormat) -> np.ndarray:
    """Every finite representable value of `fmt`, ascending, +/-0 collapsed."""
    e_bits, m_bits = fmt.exponent_bits, fmt.mantissa_bits
    m_count = 1 << m_bits
    top_code = (1 << e_bits) - 1
    mags = []
    # exponent code 0: zero and subnormals
    for f in range(m_count):
        mags.append(math.ldexp(f, fmt.emin - m_bits))
    for code in range(1, top_code + 1):
        if fmt.policy == "ieee" and code == top_code:
            continue  # inf/NaN codes
        for f in range(m_count):
            if fmt.policy == "extended" and code == top_code and f == m_count - 1:
                continue  # NaN code
            mags.append(math.ldexp(m_count + f, code - fmt.bias - m_bits))
    pos = sorted(set(mags))
    neg = [-v for v in reversed(pos) if v != 0.0]
    return np.array(neg + pos, dtype=np.float64)
