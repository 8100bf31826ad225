"""Frozen prescale oracle: `prescale.compute_prescale` as it stood when it
read the tail percentile with np.percentile over a copy of the nonzero
magnitudes.

The package's version selects the same two order statistics from a sampled
candidate set.  This one is kept verbatim, so that the tests can require
every PrescaleResult field, and every error, to equal it bit for bit.  Only
the selection is frozen: the rounding of k1 and k2 comes from the package.
"""

import math

import numpy as np

from mxfft import InvalidValue, PrescaleResult
from mxfft.prescale import EPS, _log2, _round_half_away


def compute_prescale(x, cfg):
    """Choose the power-of-two exponent k for the array x."""
    x = np.asarray(x)
    if x.dtype.kind not in "iufc":  # integer, float or complex
        raise InvalidValue(f"prescale input must be numeric, got dtype {x.dtype}")
    if x.size == 0:
        raise InvalidValue("empty input to prescale")
    if not np.all(np.isfinite(x)):
        raise InvalidValue("non-finite input to prescale")
    m = np.abs(x)
    if x.dtype.kind == "i":  # np.abs wraps a signed type's minimum onto itself
        m = np.abs(x.astype(np.float64))
    a_max = float(m.max())
    nz = m[m > 0]
    p_tau = float(np.percentile(nz, cfg.tau, overwrite_input=True)) if nz.size else 0.0
    k1 = _round_half_away(_log2(cfg.target / max(a_max, EPS)))
    k2 = math.ceil(_log2(cfg.tau_min / max(p_tau, EPS)))
    k = min(max(max(k1, k2), cfg.k_min), cfg.k_max)
    return PrescaleResult(k=k, a_max=a_max, p_tau=p_tau, k1=k1, k2=k2)
