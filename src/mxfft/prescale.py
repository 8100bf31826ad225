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

from .errors import ConfigError, InvalidValue

EPS = 1e-30  # guards log2 when peak or tail is zero
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
        if not 0 < self.target < math.inf:
            raise ConfigError("target", "must be finite and > 0")
        if not 0 < self.tau < 100:
            raise ConfigError("tau", "must be in (0, 100)")
        if not 0 < self.tau_min < math.inf:
            raise ConfigError("tau_min", "must be finite and > 0")
        for field in ("k_min", "k_max"):
            if not -K_LIMIT <= getattr(self, field) <= K_LIMIT:
                raise ConfigError(field, f"must be in [{-K_LIMIT}, {K_LIMIT}]")
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
    """Choose the power-of-two exponent k for the array x."""
    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise InvalidValue("non-finite input to prescale")
    m = np.abs(x)
    a_max = float(m.max())
    nz = m[m > 0]
    p_tau = float(np.percentile(nz, cfg.tau)) if nz.size else 0.0
    k1 = _round_half_away(_log2(cfg.target / max(a_max, EPS)))
    k2 = math.ceil(_log2(cfg.tau_min / max(p_tau, EPS)))
    k = min(max(max(k1, k2), cfg.k_min), cfg.k_max)
    return PrescaleResult(k=k, a_max=a_max, p_tau=p_tau, k1=k1, k2=k2)


def apply_prescale(x, k: int, out=None):
    """Multiply every element by exactly 2^k, into `out` if given.

    Exact in binary floating point while results stay in normal FP64 range.
    """
    return np.multiply(x, math.ldexp(1.0, k), out=out)


def undo_prescale(x, k: int, out=None):
    """Exact inverse of apply_prescale(x, k)."""
    return apply_prescale(x, -k, out)
