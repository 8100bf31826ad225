"""Frozen reference and FP16 transform oracles: the stage loops as they stood
before the shared stage driver.

Both are the earlier complex `(batch, n)` loops, kept verbatim in their
arithmetic: bit reversal on load, one `np.concatenate` per stage, the
reference in complex128 with `v * w`, the FP16 control with FP16 inputs,
every intermediate of its complex multiply in float16, complex64 add/sub and
an FP16 output quantize through the frozen `quant_oracle.quantize_array`.  They build
their own twiddle tables so that they depend on nothing in `fftcore`.  Tests
require the package's `fft_1d` and `fft_2d` to equal them bit for bit.
"""

import numpy as np

from mxfft import FP16

from mx_oracle import _bit_reversal
from quant_oracle import quantize_array


def _twiddles(n):
    """Forward twiddles of every stage in butterfly order, length n/2 each."""
    tables = []
    for s in range(n.bit_length() - 1):
        half = 1 << s
        step = n // (2 * half)
        w = np.exp(-2j * np.pi * np.arange(half) * step / n)
        tables.append(np.tile(w, n // (2 * half)))
    return tables


def fft_batch_reference(x, inverse):
    """FP64 transforms of the rows of a (batch, n) complex array."""
    n = x.shape[1]
    y = x[:, _bit_reversal(n)].astype(np.complex128)
    b = y.shape[0]
    for s, w in enumerate(_twiddles(n)):
        half = 1 << s
        if inverse:
            w = np.conj(w)
        view = y.reshape(b, -1, 2 * half)
        u = view[..., :half]
        v = view[..., half:]
        t = v * w.reshape(-1, half)
        y = np.concatenate((u + t, u - t), axis=-1).reshape(b, n)
    return y


def fft_batch_fp16(x, inverse):
    """FP16-control transforms of the rows of a (batch, n) complex array."""
    n = x.shape[1]
    y = x[:, _bit_reversal(n)]
    # inputs quantized scalar-wise to FP16
    y = (y.real.astype(np.float16).astype(np.float32)
         + 1j * y.imag.astype(np.float16).astype(np.float32)).astype(np.complex64)
    b = y.shape[0]
    for s, w in enumerate(_twiddles(n)):
        half = 1 << s
        wr, wi = w.real.astype(np.float16), w.imag.astype(np.float16)
        if inverse:
            wi = -wi
        view = y.reshape(b, -1, 2 * half)
        u = view[..., :half]
        v = view[..., half:]
        vr = v.real.astype(np.float16)
        vi = v.imag.astype(np.float16)
        wr_ = wr.reshape(-1, half)
        wi_ = wi.reshape(-1, half)
        # every intermediate of the complex multiply rounded to FP16
        p_r = wr_ * vr - wi_ * vi
        p_i = wr_ * vi + wi_ * vr
        t = p_r.astype(np.float32) + 1j * p_i.astype(np.float32)
        y = np.concatenate((u + t, u - t), axis=-1).reshape(b, n)
    # outputs quantized to FP16
    out_r = quantize_array(y.real.astype(np.float64), FP16)
    out_i = quantize_array(y.imag.astype(np.float64), FP16)
    return (out_r + 1j * out_i).astype(np.complex64)


_BATCH = {"reference": fft_batch_reference, "fp16": fft_batch_fp16}


def fft_1d(x, kind, direction="forward"):
    """One length-n transform in mode `kind` ("reference" or "fp16")."""
    x = np.asarray(x, dtype=np.complex128)
    return _BATCH[kind](x[None, :], direction == "inverse")[0]


def fft_2d(x, kind, direction="forward"):
    """Row then column transforms of a square grid, as complex128."""
    x = np.asarray(x, dtype=np.complex128)
    inverse = direction == "inverse"
    rows = _BATCH[kind](x, inverse)
    cols = _BATCH[kind](np.ascontiguousarray(rows.T), inverse)
    return np.asarray(cols.T, dtype=np.complex128)
