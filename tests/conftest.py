"""Shared oracles, test helpers and fixtures.

The oracles here are deliberately independent of the library's fast paths:
brute-force DFT matrices, nearest-neighbor search over enumerated format
values, and per-window metric formulas.  The helpers are conveniences only
the tests use: scalar quantization and RSS of a list of coil arrays.
"""

import math

import numpy as np
import pytest

from mxfft import ComplexGrid, InvalidValue, ShapeError, quantize_array, rss
from mxfft.mri import IMAGE

# Phantom settings used by the trend studies and the acceptance suite.
# tail/noise give the k-space a realistic noise floor and tail weight;
# without them the synthetic spectra are far more dynamic-range-heavy than
# any acquired data.
PHANTOM = dict(kind="blobs", tail=0.2, noise=0.1)
COILS = 4


def brute_dft(x, inverse=False):
    """O(n^2) FP64 DFT, the reference oracle for every transform test."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    j = np.arange(n)
    sign = 2j if inverse else -2j
    return np.exp(sign * np.pi * np.outer(j, j) / n) @ x


def enumerate_values(fmt):
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


def quantize_scalar(value, fmt):
    """Scalar form of quantize_array."""
    if not math.isfinite(value):
        raise InvalidValue(f"cannot quantize {value!r}")
    return float(quantize_array(np.float64(value), fmt))


def rss_of(images):
    """RSS of a list of equal-shape coil arrays, through one image grid."""
    arrs = [np.asarray(a, dtype=np.complex128) for a in images]
    if len(arrs) < 1:
        raise ShapeError("need at least one coil")
    if any(a.shape != arrs[0].shape for a in arrs):
        raise ShapeError("coil images must share one shape")
    return rss(ComplexGrid(np.stack(arrs), IMAGE))


def mantissa_parity(v, fmt):
    """Parity of the mantissa code of a representable value (0 is even)."""
    if v == 0:
        return 0
    a = abs(v)
    _, e = np.frexp(a)
    eb = max(int(e) - 1, fmt.emin)
    m = round(a / np.ldexp(1.0, eb - fmt.mantissa_bits))
    return int(m) % 2


def nn_quantize(x, fmt, grid=None):
    """Nearest representable value by exhaustive search, ties to even code."""
    if grid is None:
        grid = enumerate_values(fmt)
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(xs)
    idx = np.clip(np.searchsorted(grid, xs), 1, grid.size - 1)
    for i, (v, j) in enumerate(zip(xs, idx)):
        lo, hi = grid[j - 1], grid[j]
        dlo, dhi = abs(v - lo), abs(hi - v)
        if dlo < dhi:
            out[i] = lo
        elif dhi < dlo:
            out[i] = hi
        else:
            out[i] = lo if mantissa_parity(lo, fmt) == 0 else hi
    return out if np.ndim(x) else float(out[0])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
