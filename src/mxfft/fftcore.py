"""Radix-2 decimation-in-time FFT with three arithmetic modes.

Modes:
  * Reference -- FP64 throughout; the accuracy baseline.
  * MX        -- the twiddle complex multiply inside each butterfly runs in
                 MX block arithmetic: operand blocks are encoded with a
                 shared power-of-two scale, multiplied in mantissa space
                 with FP32 products, renormalized if the product mantissas
                 exceed the element format's finite range, requantized, and
                 decoded.  Twiddles are encoded once at plan time.  The
                 add/sub operand u is never quantized; butterfly sums are
                 accumulated in FP32.  The transform carries two float32
                 planes (real, imaginary) with the batch axis trailing, so
                 each stage and each MX block is a view, block maxima are
                 reductions over contiguous batch rows, and stage outputs
                 ping-pong between two preallocated plane pairs.  Values
                 outside the complex64 range raise InvalidValue.
  * FP16      -- positive control: multiplies with every intermediate
                 rounded to FP16, add/sub in FP32, inputs/outputs in FP16.

MX block sizes B must be powers of two, so that B/2-value blocks tile every
stage's half-groups.  No normalization is applied inside the transforms;
pipelines apply 1/N**2 where needed.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import mxblock
from .errors import ConfigError, InvalidValue, ShapeError, UnsupportedSize
from .minifloat import FP16 as _FP16_FMT
from .minifloat import MinifloatFormat, _quantize_inplace, get_format, quantize_array


@dataclasses.dataclass(frozen=True)
class ModeSpec:
    """Arithmetic mode of a plan: "mx" (with element format), "fp16", "reference"."""

    kind: str
    fmt: MinifloatFormat = None
    block_size: int = 32  # B: real scalars per MX block (B/2 complex values)

    def __post_init__(self):
        if self.kind == "mx" and not (self.block_size >= 2 and _is_pow2(self.block_size)):
            raise ConfigError("block_size", f"{self.block_size} is not a power of two >= 2")

    @staticmethod
    def mx(fmt: MinifloatFormat, block_size: int = 32) -> "ModeSpec":
        return ModeSpec("mx", fmt, block_size)

    @staticmethod
    def fp16() -> "ModeSpec":
        return ModeSpec("fp16")

    @staticmethod
    def reference() -> "ModeSpec":
        return ModeSpec("reference")

    @staticmethod
    def from_name(name: str, block_size: int = 32) -> "ModeSpec":
        if name == "reference":
            return ModeSpec.reference()
        if name == "fp16":
            return ModeSpec.fp16()
        return ModeSpec.mx(get_format(name), block_size)

    @property
    def label(self) -> str:
        return self.kind if self.kind != "mx" else self.fmt.name


def _bit_reversal(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    perm = np.zeros(n, dtype=np.intp)
    for i in range(n):
        r = 0
        v = i
        for _ in range(bits):
            r = (r << 1) | (v & 1)
            v >>= 1
        perm[i] = r
    return perm


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class FftPlan:
    """Precomputed bit-reversal permutation and twiddle tables for one size.

    Immutable after construction; safe to share across threads.  Twiddles are
    stored per stage in butterfly order (the flattened (group, j) iteration
    order), forward direction; the inverse conjugates them, which is exact for
    every mode.  MX plans also hold each stage's view shape (mx_shapes) and
    its twiddles encoded once as MX blocks (mx_twiddles, see _mx_twiddles).
    """

    def __init__(self, n: int, mode: ModeSpec):
        if not _is_pow2(n) or n < 2:
            raise UnsupportedSize(f"transform length must be a power of two >= 2, got {n}")
        self.n = n
        self.mode = mode
        self.stages = n.bit_length() - 1
        self.bitrev = _bit_reversal(n)
        half_tables = []
        for s in range(self.stages):
            half = 1 << s
            step = n // (2 * half)
            w = np.exp(-2j * np.pi * np.arange(half) * step / n)
            half_tables.append(np.tile(w, n // (2 * half)))  # butterfly order, len n//2
        self.ref_twiddles = half_tables

        if mode.kind == "mx":
            self.cplx_per_block = min(mode.block_size // 2, n // 2)
            self.mx_shapes = [_stage_shape(n, s, self.cplx_per_block) for s in range(self.stages)]
            self.mx_twiddles = [
                _mx_twiddles(w, shape, mode.fmt) for w, shape in zip(half_tables, self.mx_shapes)
            ]
        elif mode.kind == "fp16":
            self.fp16_twiddles = [
                (w.real.astype(np.float16), w.imag.astype(np.float16)) for w in half_tables
            ]


def make_plan(n: int, mode: ModeSpec) -> FftPlan:
    return FftPlan(n, mode)


# ---------------------------------------------------------------------------
# MX block machinery on stacked float32 planes.
#
# The MX transform carries a (2, n, batch) float32 array: the real and
# imaginary planes of `batch` length-n signals, transformed along axis 1.  A
# stage with half-size h and blocks of cpb complex values views it as
# (2, G, K, 2, R, J, batch): index 3 selects the butterfly input u or v, and
# one MX block of v is the (re/im, k, j) sub-array at fixed (g, r), with the
# batch axis trailing.  Either K = 1 (cpb <= h: R blocks per half-group) or
# R = 1 (cpb > h: a block spans K whole half-groups).  Block reductions are
# then row-wise maxima over contiguous batch rows.  The single-block
# semantics live in mxblock and butterfly_mx; tests cross-check against both.
# ---------------------------------------------------------------------------

_F32 = np.finfo(np.float32)
_BLOCK_AXES = (0, 2, 4)  # re/im, k, j of a stacked v view (2, G, K, R, J, batch)


def _product_dtype(fmt: MinifloatFormat):
    """Dtype of the MX encode, mantissa product and requantize.

    FP32 products are exact-range for element formats up to 16 bits; wide
    test formats would overflow FP32 mantissa products, so they use FP64.
    FP32 also needs half the format's smallest subnormal step to be a normal
    float32, so that the encode's rounding never sees a float32 subnormal.
    """
    narrow = 2 * (fmt.emax + 1) <= 126 and fmt.emin - fmt.mantissa_bits - 1 >= _F32.minexp
    return np.float32 if narrow else np.float64


def _stage_shape(n: int, s: int, cpb: int) -> tuple:
    """(G, K, 2, R, J): stage s of a length-n transform with cpb-value blocks."""
    half = 1 << s
    j = min(cpb, half)
    k = cpb // j
    return (n // (2 * half * k), k, 2, half // j, j)


def _within(a, lo: float, hi: float) -> bool:
    return bool(a.min() >= lo and a.max() <= hi)


def _non_finite() -> InvalidValue:
    return InvalidValue(
        f"non-finite value in the MX transform: real and imaginary parts must stay "
        f"within the complex64 range (|x| <= {_F32.max:.7g})"
    )


def _mx_encode(v: np.ndarray, fmt: MinifloatFormat):
    """Encode stacked block views v (2, G, K, R, J, batch).

    Returns (codes, scales): codes like v, in the product dtype, and one
    shared power-of-two scale per block over both components, shape
    (1, G, 1, R, 1, batch).  Float32 input is encoded in float32 when every
    1/scale is a normal float32, which makes v * (1/scale) exact; otherwise,
    and for float64 input, in float64.
    """
    amax = np.abs(v).max(axis=_BLOCK_AXES, keepdims=True)
    if not amax.max() <= _F32.max:  # also catches NaN
        raise _non_finite()
    scales = mxblock.block_scales(amax, fmt)
    ptype = _product_dtype(fmt)
    exact32 = v.dtype == np.float32 and _within(scales, 2.0**_F32.minexp, 2.0**-_F32.minexp)
    dtype = ptype if exact32 else np.float64
    codes = _quantize_inplace(np.multiply(v, (1.0 / scales).astype(dtype), dtype=dtype), fmt)
    return codes.astype(ptype, copy=False), scales


def _mx_multiply(v: np.ndarray, w, fmt: MinifloatFormat) -> np.ndarray:
    """Blockwise MX complex multiply w*v of a stage, decoded to float32.

    v is the stacked (2, G, K, R, J, batch) view of the stage's v operands;
    w holds the prequantized twiddle blocks (codes_r, codes_i, scales) in
    broadcast shapes.  Implements the mantissa-space product with per-block
    renormalization and requantization.
    """
    wr, wi, ws = w
    y, sv = _mx_encode(v, fmt)
    p = np.empty_like(y)
    tmp = np.empty_like(y[0])
    np.multiply(wr, y[0], out=p[0])
    p[0] -= np.multiply(wi, y[1], out=tmp)
    np.multiply(wr, y[1], out=p[1])
    p[1] += np.multiply(wi, y[0], out=tmp)
    s_out = ws * sv  # powers of two; product exact
    # renormalize blocks whose products exceed the finite range: shift 0 elsewhere
    amax = np.abs(p, out=y).max(axis=_BLOCK_AXES, keepdims=True).astype(np.float64)
    ratio = np.maximum(amax, fmt.max_finite) / fmt.max_finite
    shift = np.ceil(np.log2(ratio)).astype(np.int64)
    p *= np.ldexp(np.ones(1, dtype=p.dtype), -shift)
    s_out = s_out * np.ldexp(1.0, shift)
    _quantize_inplace(p, fmt, saturate=False)  # now |p| <= max_finite
    # decode: one rounding of the exact product codes * scale to float32
    if _within(s_out, 2.0 ** (_F32.minexp - _F32.nmant), 2.0 ** (_F32.maxexp - 1)):
        s_out = s_out.astype(np.float32)  # exact: a float32 power of two
    out = p if p.dtype == np.float32 else np.empty(p.shape, dtype=np.float32)
    return np.multiply(p, s_out, out=out, casting="same_kind")


def _mx_twiddles(w: np.ndarray, shape: tuple, fmt: MinifloatFormat):
    """Encode one stage's twiddle table (butterfly order) as broadcast blocks.

    Every block row (g, k) holds the same values, so only the first is kept:
    codes (1, 1, R, J, 1) in the product dtype and scales (1, 1, R, 1, 1).
    """
    g, k, _, r, j = shape
    wv = np.stack((w.real, w.imag)).reshape(2, g, k, r, j, 1)
    codes, scales = _mx_encode(wv, fmt)
    return codes[0, :1, :1], codes[1, :1, :1], scales[0, :1]


def _fft_mx(re: np.ndarray, im: np.ndarray, plan: "FftPlan", inverse: bool) -> np.ndarray:
    """MX transforms of the columns of (n, batch) real/imag arrays.

    Returns the (2, n, batch) float32 planes of the results.  Raises
    InvalidValue if the input or any intermediate leaves the complex64 range.
    """
    fmt = plan.mode.fmt
    src = np.empty((2,) + re.shape, dtype=np.float32)
    dst = np.empty_like(src)
    with np.errstate(over="ignore", invalid="ignore"):
        src[0] = re[plan.bitrev]
        src[1] = im[plan.bitrev]
        for shape, (wr, wi, ws) in zip(plan.mx_shapes, plan.mx_twiddles):
            if inverse:
                wi = -wi  # conjugation is exact on codes
            x = src.reshape((2,) + shape + (re.shape[1],))
            y = dst.reshape(x.shape)
            t = _mx_multiply(x[:, :, :, 1], (wr, wi, ws), fmt)
            np.add(x[:, :, :, 0], t, out=y[:, :, :, 0])
            np.subtract(x[:, :, :, 0], t, out=y[:, :, :, 1])
            src, dst = dst, src
    if not np.isfinite(src).all():
        raise _non_finite()
    return src


def butterfly_mx(u, v, w, fmt: MinifloatFormat):
    """One MX-scaled complex butterfly on a block of up to B/2 values.

    w may be a prequantized MxBlock (the plan path) or a complex vector,
    which is then encoded on the fly.  Returns (y0, y1) = (u + wv, u - wv)
    accumulated in FP32.  This is the literal single-block procedure; the
    transform loops use the batched equivalent, which tests cross-check
    against this one.
    """
    u = np.asarray(u, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if isinstance(w, mxblock.MxBlock):
        w_blk = w
    else:
        w = np.asarray(w, dtype=np.complex128)
        inter = np.empty(2 * w.size, dtype=np.float64)
        inter[0::2] = w.real
        inter[1::2] = w.imag
        w_blk = mxblock.encode_block_mx(inter, fmt)
    if u.shape != v.shape or 2 * v.size != w_blk.n:
        raise ShapeError("butterfly operands must have matching lengths")

    inter = np.empty(2 * v.size, dtype=np.float64)
    inter[0::2] = v.real
    inter[1::2] = v.imag
    v_blk = mxblock.encode_block_mx(inter, fmt)
    x_r, x_i = mxblock.mantissas_block(w_blk)
    y_r, y_i = mxblock.mantissas_block(v_blk)
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
    prod = mxblock.encode_from_mant_block(
        p_r.astype(np.float64), p_i.astype(np.float64), s_out, fmt
    )
    wv = mxblock.decode_block_mx(prod).astype(np.complex64)
    u32 = u.astype(np.complex64)
    return u32 + wv, u32 - wv


# ---------------------------------------------------------------------------
# Batched 1-D transforms (batch along axis 0, transform along axis 1).
# ---------------------------------------------------------------------------


def _fft_batch_reference(x: np.ndarray, plan: FftPlan, inverse: bool) -> np.ndarray:
    y = x[:, plan.bitrev].astype(np.complex128)
    b = y.shape[0]
    for s in range(plan.stages):
        half = 1 << s
        w = plan.ref_twiddles[s]
        if inverse:
            w = np.conj(w)
        view = y.reshape(b, -1, 2 * half)
        u = view[..., :half]
        v = view[..., half:]
        t = v * w.reshape(-1, half)
        y = np.concatenate((u + t, u - t), axis=-1).reshape(b, plan.n)
    return y


def _fft_batch_mx(x: np.ndarray, plan: FftPlan, inverse: bool) -> np.ndarray:
    y = _fft_mx(x.real.T, x.imag.T, plan, inverse)
    out = np.empty(x.shape, dtype=np.complex64)
    out.real = y[0].T
    out.imag = y[1].T
    return out


def _fft_batch_fp16(x: np.ndarray, plan: FftPlan, inverse: bool) -> np.ndarray:
    y = x[:, plan.bitrev]
    # inputs quantized scalar-wise to FP16
    y = (y.real.astype(np.float16).astype(np.float32)
         + 1j * y.imag.astype(np.float16).astype(np.float32)).astype(np.complex64)
    b = y.shape[0]
    for s in range(plan.stages):
        half = 1 << s
        wr, wi = plan.fp16_twiddles[s]
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
        y = np.concatenate((u + t, u - t), axis=-1).reshape(b, plan.n)
    # outputs quantized to FP16
    out_r = quantize_array(y.real.astype(np.float64), _FP16_FMT)
    out_i = quantize_array(y.imag.astype(np.float64), _FP16_FMT)
    return (out_r + 1j * out_i).astype(np.complex64)


_BATCH_FNS = {
    "reference": _fft_batch_reference,
    "mx": _fft_batch_mx,
    "fp16": _fft_batch_fp16,
}


def _is_inverse(direction: str) -> bool:
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return direction == "inverse"


def _fft_batch(x: np.ndarray, plan: FftPlan, direction: str) -> np.ndarray:
    inverse = _is_inverse(direction)
    if x.shape[1] != plan.n:
        raise ShapeError(f"expected length {plan.n}, got {x.shape[1]}")
    return _BATCH_FNS[plan.mode.kind](x, plan, inverse)


def fft_1d(x, plan: FftPlan, direction: str = "forward") -> np.ndarray:
    """Unnormalized radix-2 DIT transform of a length-n complex vector."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ShapeError("fft_1d expects a 1-D vector")
    return _fft_batch(x[None, :], plan, direction)[0]


def fft_1d_fp16(x, plan: FftPlan, direction: str = "forward") -> np.ndarray:
    """FP16 positive-control transform; plan must be in fp16 mode."""
    if plan.mode.kind != "fp16":
        raise ValueError("fft_1d_fp16 requires an fp16-mode plan")
    return fft_1d(x, plan, direction)


def fft_2d(x, plan: FftPlan, direction: str = "forward") -> np.ndarray:
    """Row transforms then column transforms of a square N x N grid."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise UnsupportedSize("fft_2d expects a square grid")
    if x.shape[0] != plan.n:
        raise UnsupportedSize(f"grid size {x.shape[0]} does not match plan size {plan.n}")
    if plan.mode.kind == "mx":
        # _fft_mx transforms columns, so the row pass reads x transposed and
        # returns planes indexed (k, row); their transposes are the columns
        # of the row-transformed grid, and the column pass returns (k, l) as is
        inverse = _is_inverse(direction)
        rows = _fft_mx(x.real.T, x.imag.T, plan, inverse)
        cols = _fft_mx(rows[0].T, rows[1].T, plan, inverse)
        out = np.empty(x.shape, dtype=np.complex128)
        out.real = cols[0]
        out.imag = cols[1]
        return out
    rows = _fft_batch(x, plan, direction)
    cols = _fft_batch(np.ascontiguousarray(rows.T), plan, direction)
    return np.asarray(cols.T, dtype=np.complex128)
