"""Global power-of-two input conditioning and its exact inverse.

One gain 2^k is chosen for the whole coil stack: k1 places the peak
magnitude at the target, k2 lifts the tail percentile of the nonzero
magnitudes above a floor, and the stricter (larger) of the two is clipped
to user bounds.  Applying and undoing the gain is exact in FP64.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from .errors import ConfigError, InvalidValue, _instance, _integer, _numbers, _real

EPS = 1e-30  # guards log2 when peak or tail is zero
_SAMPLE = 2048  # magnitudes in the strided sample that sets the candidate threshold
# |k| bound of the gain 2^k, so that 2^k and 2^-k are both normal FP64
K_LIMIT = 1022


@dataclasses.dataclass(frozen=True)
class PrescaleConfig:
    target: float = 1.0
    tau: float = 1.0  # tail percentile of nonzero magnitudes, in (0, 100)
    tau_min: float = 2.0**-20
    k_min: int = -40
    k_max: int = 40

    def __post_init__(self):
        # stored as floats: the gain and the percentile rank run in float64
        for field, hi in (("target", math.inf), ("tau_min", math.inf), ("tau", 100)):
            value = _real(getattr(self, field))
            if not 0 < value < hi:
                raise ConfigError(field, f"must be in (0, {hi}), got {getattr(self, field)!r}")
            object.__setattr__(self, field, value)
        for field in ("k_min", "k_max"):
            object.__setattr__(self, field, _integer(getattr(self, field), field, -K_LIMIT, K_LIMIT))
        if self.k_min > self.k_max:
            raise ConfigError("k_min", "must be <= k_max")


@dataclasses.dataclass(frozen=True)
class PrescaleResult:
    k: int  # applied exponent, clip(max(k1, k2), k_min, k_max)
    a_max: float
    p_tau: float
    k1: int
    k2: int


def _round_half_away(v: float) -> int:
    return math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5)


def _log2(ratio: float) -> float:
    """log2 of a gain ratio, which FP64 may round to 0 or inf.

    Such a ratio is held to the positive finite range: its exponent is then
    beyond K_LIMIT either way, and clips to the config bounds.
    """
    return math.log2(min(max(ratio, math.ulp(0.0)), sys.float_info.max))


def compute_prescale(x, cfg: PrescaleConfig) -> PrescaleResult:
    """Choose the power-of-two exponent k for the array x.

    p_tau equals np.percentile(m[m > 0], cfg.tau) of the magnitudes m bit for
    bit, but is read without copying out the nonzero magnitudes: zeros sort
    first, so the two order statistics that numpy's "linear" rule interpolates
    sit at ranks z + lo and z + hi of m, z its count of zeros.  Selection runs
    on a candidate set (Floyd & Rivest, "Expected time bounds for selection",
    CACM 1975): a sorted strided sample of about _SAMPLE magnitudes gives a
    threshold t at about twice the fraction of m up to rank z + hi, and only
    m[m <= t], a prefix of m in sorted order, is partitioned.  A candidate set
    too short to hold both ranks falls back to the whole of m.
    """
    _instance(cfg, PrescaleConfig, "cfg")
    x = _numbers(x, "iufc", "prescale input must be numeric")
    if x.size == 0:
        raise InvalidValue("empty input to prescale")
    if x.dtype.kind == "i":  # np.abs wraps a signed type's minimum onto itself
        x = x.astype(np.float64)
    m = np.abs(x).reshape(-1)  # private: the partition reorders it
    a_max = float(m.max())
    # a finite complex value may still have an infinite magnitude
    if not math.isfinite(a_max) and not np.all(np.isfinite(x)):
        raise InvalidValue("non-finite input to prescale")
    z = int(np.count_nonzero(m == 0))  # on a bool mask: faster than on m
    nnz = m.size - z
    p_tau = 0.0
    if nnz:
        # np.percentile's rank among the nonzero magnitudes; from the last
        # rank on, it reads the last value at both ends
        v = (nnz - 1) * (cfg.tau / 100)
        lo = nnz - 1 if v >= nnz - 1 else math.floor(v)
        hi = min(lo + 1, nnz - 1)
        s = np.sort(m[:: (m.size // _SAMPLE) | 1])  # an odd stride: no grid aliasing
        # + 4: a margin where the sample holds few values up to the target rank
        t = s[min(2 * (z + hi + 1) * s.size // m.size + 4, s.size - 1)]
        sub = m.compress(m <= t)
        if sub.size <= z + hi:
            sub = m
        sub.partition([z + lo, z + hi])
        pair = sub[[z + lo, z + hi]]
        # np.quantile of the pair at the float v - lo runs np.percentile's lerp and
        # dtype rules; its lerp toward an infinite upper value is NaN: read it as inf
        p_tau = math.inf if math.isinf(pair[1]) else float(np.quantile(pair, v - lo))
    k1 = _round_half_away(_log2(cfg.target / max(a_max, EPS)))
    k2 = math.ceil(_log2(cfg.tau_min / max(p_tau, EPS)))
    k = min(max(max(k1, k2), cfg.k_min), cfg.k_max)
    return PrescaleResult(k=k, a_max=a_max, p_tau=p_tau, k1=k1, k2=k2)


def apply_prescale(x, k: int):
    """Multiply every element by exactly 2^k, into a new array.

    Exact in binary floating point while results stay in normal FP64 range.
    x must hold integer, float or complex numbers and k be an integer within
    +-K_LIMIT; a result beyond the FP64 range raises InvalidValue.
    """
    return _scale(x, k)


def undo_prescale(x, k: int, out=None):
    """Exact inverse of apply_prescale(x, k), into `out` if given; raises as
    apply_prescale does, and ConfigError for an `out` that cannot hold it."""
    return _scale(x, k, out, undo=True)


def _scale(x, k, out=None, undo=False):
    """x times 2^k, or 2^-k to undo the prescale: the body of both."""
    k = _integer(k, "k", -K_LIMIT, K_LIMIT)
    x = _numbers(x, "iufc", "prescale input must be numeric")
    if out is not None and not (isinstance(out, np.ndarray) and out.shape == x.shape and out.flags.writeable
                                and np.can_cast(np.result_type(x, 1.0), out.dtype, "same_kind")):
        raise ConfigError("out", f"must be a writeable array of shape {x.shape} that holds x times 2^-k")
    try:
        with np.errstate(over="raise", invalid="ignore"):  # a complex inf * 2^k is NaN in part
            return np.multiply(x, math.ldexp(1.0, -k if undo else k), out=out)
    except FloatingPointError:
        what = "undo of the prescale" if undo else "prescale"
        raise InvalidValue(f"{what} by 2^{k} overflows the float64 range") from None
