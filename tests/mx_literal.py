"""Literal single-block MX oracle: the paper's butterfly, one block at a time.

A block of B real scalars (complex data stored real/imag interleaved, so
B/2 complex values) shares one power-of-two scale from the frozen
`quant_oracle.block_scales`, and codes are rounded by the frozen
`quant_oracle.quantize_array`.  Codes are kept as decoded element-format reals;
bit-packing is a storage concern, not a semantic one.  `butterfly_mx` runs
the mantissa-space product with FP32 products, renormalization and
requantization step by step on such blocks.  The package's batched kernel
(`fftcore._mx_multiply`) must agree with it bit for bit.
"""

import dataclasses

import numpy as np

from mxfft import InvalidValue, MinifloatFormat, MxfftError, ShapeError
from mxfft.fftcore import _product_dtype

from quant_oracle import block_scales, quantize_array


class MantissaOverflow(MxfftError):
    """Mantissa-space values exceed the element format's finite range.

    Raised by encode_from_mant_block when the caller failed to renormalize;
    signals a bug in the butterfly, not bad data.
    """


@dataclasses.dataclass(frozen=True)
class MxBlock:
    codes: np.ndarray  # element-format reals, length n
    scale: float  # exact power of two
    n: int
    fmt: MinifloatFormat


def encode_block_mx(values, fmt: MinifloatFormat) -> MxBlock:
    """Encode B real scalars as element codes plus one shared power-of-two scale."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ShapeError("block must be a non-empty 1-D array")
    if not np.all(np.isfinite(v)):
        raise InvalidValue("non-finite block element")
    amax = float(np.max(np.abs(v)))
    scale = float(block_scales(amax, fmt))
    codes = quantize_array(v / scale, fmt)
    return MxBlock(codes, scale, v.size, fmt)


def mantissas_block(b: MxBlock):
    """De-interleave block codes into (real, imag) mantissa vectors.

    Returns the element-format values themselves; the shared scale is not
    applied.
    """
    if b.n % 2 != 0:
        raise ShapeError("complex block length must be even")
    return b.codes[0::2].copy(), b.codes[1::2].copy()


def encode_from_mant_block(p_r, p_i, s_out: float, fmt: MinifloatFormat) -> MxBlock:
    """Repack mantissa-space real/imag vectors as a block with scale s_out.

    Values are already in mantissa space, so they are quantized as-is.  The
    caller must have renormalized so that no magnitude exceeds fmt.max_finite.
    """
    p_r = np.asarray(p_r, dtype=np.float64)
    p_i = np.asarray(p_i, dtype=np.float64)
    if p_r.shape != p_i.shape or p_r.ndim != 1:
        raise ShapeError("mantissa vectors must be 1-D and of equal length")
    amax = max(np.max(np.abs(p_r), initial=0.0), np.max(np.abs(p_i), initial=0.0))
    if amax > fmt.max_finite:
        raise MantissaOverflow(
            f"mantissa magnitude {amax} exceeds {fmt.name} max {fmt.max_finite}"
        )
    codes = np.empty(2 * p_r.size, dtype=np.float64)
    codes[0::2] = quantize_array(p_r, fmt)
    codes[1::2] = quantize_array(p_i, fmt)
    return MxBlock(codes, float(s_out), codes.size, fmt)


def decode_block_mx(b: MxBlock) -> np.ndarray:
    """Reconstruct the B/2 complex values (codes * scale), in FP64."""
    if b.n % 2 != 0:
        raise ShapeError("complex block length must be even")
    return (b.codes[0::2] + 1j * b.codes[1::2]) * b.scale


def butterfly_mx(u, v, w, fmt: MinifloatFormat):
    """One MX-scaled complex butterfly on a block of up to B/2 values.

    w may be a prequantized MxBlock or a complex vector, which is then
    encoded on the fly.  Returns (y0, y1) = (u + wv, u - wv) accumulated in
    FP32.
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if isinstance(w, MxBlock):
        w_blk = w
    else:
        w = np.asarray(w, dtype=np.complex128)
        inter = np.empty(2 * w.size, dtype=np.float64)
        inter[0::2] = w.real
        inter[1::2] = w.imag
        w_blk = encode_block_mx(inter, fmt)
    if u.shape != v.shape or 2 * v.size != w_blk.n:
        raise ShapeError("butterfly operands must have matching lengths")

    inter = np.empty(2 * v.size, dtype=np.float64)
    inter[0::2] = v.real
    inter[1::2] = v.imag
    v_blk = encode_block_mx(inter, fmt)
    x_r, x_i = mantissas_block(w_blk)
    y_r, y_i = mantissas_block(v_blk)
    ptype = _product_dtype(fmt)
    x_r = x_r.astype(ptype)
    x_i = x_i.astype(ptype)
    y_r = y_r.astype(ptype)
    y_i = y_i.astype(ptype)
    p_r = x_r * y_r - x_i * y_i
    p_i = x_r * y_i + x_i * y_r
    s_out = w_blk.scale * v_blk.scale
    amax = max(np.max(np.abs(p_r), initial=0.0), np.max(np.abs(p_i), initial=0.0))
    if amax > fmt.max_finite:
        k = int(np.ceil(np.log2(float(amax) / fmt.max_finite)))
        p_r = p_r * ptype(2.0**-k)
        p_i = p_i * ptype(2.0**-k)
        s_out = s_out * 2.0**k
    prod = encode_from_mant_block(p_r.astype(np.float64), p_i.astype(np.float64), s_out, fmt)
    wv = decode_block_mx(prod).astype(np.complex64)
    u32 = u.astype(np.complex64)
    return u32 + wv, u32 - wv
