"""Frozen MX transform oracle: the stage loop as it stood before the
float32-plane kernel.

This is the earlier vectorized MX path, kept verbatim in its arithmetic:
complex64 carry in a (batch, n) layout, blocks along the trailing axis,
every encode and requantize through the frozen frexp `quantize_array` of
`quant_oracle` in FP64, the shared scales from its frozen `block_scales`,
FP32 (or FP64 for wide formats) mantissa products, and `np.concatenate` per
stage.  It builds its own twiddle tables so that it depends on nothing in
`fftcore`.  Tests require the package's `fft_2d` to equal it bit for bit.
"""

import numpy as np

from quant_oracle import block_scales, quantize_array


def _bit_reversal(n):
    bits = n.bit_length() - 1
    perm = np.zeros(n, dtype=np.intp)
    for i in range(n):
        r, v = 0, i
        for _ in range(bits):
            r = (r << 1) | (v & 1)
            v >>= 1
        perm[i] = r
    return perm


def encode_blocks(vr, vi, cpb, fmt):
    """Encode (batch, m) real/imag arrays as blocks of cpb complex values."""
    b, m = vr.shape
    nb = m // cpb
    vr = np.asarray(vr, dtype=np.float64).reshape(b, nb, cpb)
    vi = np.asarray(vi, dtype=np.float64).reshape(b, nb, cpb)
    amax = np.maximum(np.abs(vr), np.abs(vi)).max(axis=-1)
    scales = block_scales(amax, fmt)
    inv = 1.0 / scales[..., None]
    codes_r = quantize_array(vr * inv, fmt)
    codes_i = quantize_array(vi * inv, fmt)
    return codes_r, codes_i, scales


def mx_multiply(vr, vi, w_enc, fmt, cpb):
    """Blockwise MX complex multiply w*v on (batch, m) arrays; complex128 out."""
    b, m = vr.shape
    wcr, wci, ws = w_enc
    cvr, cvi, sv = encode_blocks(vr, vi, cpb, fmt)
    ptype = np.float32 if 2 * (fmt.emax + 1) <= 126 else np.float64
    xr = wcr.astype(ptype)
    xi = wci.astype(ptype)
    yr = cvr.astype(ptype)
    yi = cvi.astype(ptype)
    p_r = xr * yr - xi * yi
    p_i = xr * yi + xi * yr
    s_out = ws * sv
    amax = np.maximum(np.abs(p_r), np.abs(p_i)).max(axis=-1).astype(np.float64)
    shift = np.zeros(amax.shape, dtype=np.int64)
    over = amax > fmt.max_finite
    if np.any(over):
        shift[over] = np.ceil(np.log2(amax[over] / fmt.max_finite)).astype(np.int64)
        fac = np.ldexp(np.ones(1, dtype=ptype), -shift)[..., None]
        p_r = p_r * fac
        p_i = p_i * fac
        s_out = s_out * np.ldexp(1.0, shift)
    c_r = quantize_array(p_r.astype(np.float64), fmt)
    c_i = quantize_array(p_i.astype(np.float64), fmt)
    wv = (c_r + 1j * c_i) * s_out[..., None]
    return wv.reshape(b, m)


def _fft_batch(x, n, fmt, block_size, inverse):
    cpb = min(block_size // 2, n // 2)
    bitrev = _bit_reversal(n)
    y = x[:, bitrev].astype(np.complex64)
    b = y.shape[0]
    for s in range(n.bit_length() - 1):
        half = 1 << s
        step = n // (2 * half)
        w = np.tile(np.exp(-2j * np.pi * np.arange(half) * step / n), n // (2 * half))
        wcr, wci, ws = encode_blocks(w.real[None], w.imag[None], cpb, fmt)
        if inverse:
            wci = -wci
        view = y.reshape(b, -1, 2 * half)
        u = view[..., :half]
        v = view[..., half:]
        vflat = v.reshape(b, n // 2)
        wv = mx_multiply(
            vflat.real.astype(np.float64),
            vflat.imag.astype(np.float64),
            (wcr, wci, ws),
            fmt,
            cpb,
        ).astype(np.complex64)
        t = wv.reshape(b, -1, half)
        y = np.concatenate((u + t, u - t), axis=-1).reshape(b, n)
    return y


def fft_2d_mx(x, fmt, block_size, direction="forward"):
    """Row then column MX transforms of a square grid, as complex128."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    inverse = direction == "inverse"
    rows = _fft_batch(x, n, fmt, block_size, inverse)
    cols = _fft_batch(np.ascontiguousarray(rows.T), n, fmt, block_size, inverse)
    return np.asarray(cols.T, dtype=np.complex128)
