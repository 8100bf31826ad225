"""Radix-2 decimation-in-time FFT with three arithmetic modes.

One stage driver runs every mode; the modes differ only in the carry and the
twiddle multiply applied to each butterfly's v input:
  * Reference -- FP64 throughout, the accuracy baseline: one complex128 plane.
  * MX        -- the twiddle complex multiply runs in MX block arithmetic:
                 operand blocks are encoded with a shared power-of-two scale,
                 multiplied in mantissa space with FP32 products,
                 renormalized if the product mantissas exceed the element
                 format's finite range, requantized, and decoded.  Twiddles
                 are encoded once at plan time.  The add/sub operand u is
                 never quantized; butterfly sums are accumulated in FP32.
                 Two float32 planes (real, imaginary).
  * FP16      -- positive control: multiplies with every intermediate
                 rounded to FP16, add/sub in FP32, inputs/outputs in FP16.
                 Two float32 planes.
A pass whose values leave the mode's range (float64, complex64, FP16) raises
InvalidValue.  MX block sizes B must be powers of two, so that B/2-value
blocks tile every stage's half-groups.  No normalization is applied inside
the transforms; pipelines apply 1/N**2 where needed.
"""

from __future__ import annotations

import dataclasses
import functools

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
        if self.kind == "mx" and not _is_pow2(self.block_size):
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
    """The bit-reversal permutation of range(n), n a power of two."""
    bits = n.bit_length() - 1
    i = np.arange(n, dtype=np.intp)
    perm = np.zeros(n, dtype=np.intp)
    for b in range(bits):
        perm |= ((i >> b) & 1) << (bits - 1 - b)
    return perm


def _is_pow2(n: int) -> bool:
    """True for the powers of two >= 2: the valid transform, grid and MX block sizes."""
    return n >= 2 and (n & (n - 1)) == 0


class FftPlan:
    """Precomputed bit-reversal permutation, stage views and twiddles for one size.

    Immutable after construction; safe to share across threads.  The stage
    driver carries `dtype` planes (one complex128 plane for the reference,
    float32 real and imaginary planes otherwise) and calls `multiply(v, w)`,
    the mode's twiddle multiply, once per stage.  shapes[s] is stage s's view
    shape (see _stage_shape) and twiddles[inverse][s] its twiddles, in the
    mode's format at the v half's broadcast shape.  ref_twiddles keeps the
    FP64 table of every stage in butterfly order (the flattened (group, j)
    iteration order), forward direction; the inverse conjugates it.
    """

    def __init__(self, n: int, mode: ModeSpec):
        if not _is_pow2(n):
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

        # only MX blocks constrain the view; the others take one value per block
        cpb = min(mode.block_size // 2, n // 2) if mode.kind == "mx" else 1
        self.shapes = [_stage_shape(n, s, cpb) for s in range(self.stages)]
        self.twiddles = tuple(
            [_twiddles(w, shape, mode) for w, shape in zip(tables, self.shapes)]
            for tables in (half_tables, np.conj(half_tables))
        )
        if mode.kind == "reference":
            self.dtype, self.multiply = np.complex128, np.multiply
        elif mode.kind == "fp16":
            self.dtype, self.multiply = np.float32, _fp16_multiply
        else:
            self.dtype, self.multiply = np.float32, functools.partial(_mx_multiply, fmt=mode.fmt)


def make_plan(n: int, mode: ModeSpec) -> FftPlan:
    return FftPlan(n, mode)


# ---------------------------------------------------------------------------
# The stage driver.
#
# Every mode carries a (C, n, batch) array: `batch` length-n signals,
# transformed along axis 1, as one complex128 plane (C = 1, the reference) or
# as float32 real and imaginary planes (C = 2, MX and FP16).  A stage with
# half-size h and blocks of cpb complex values views it as
# (C, G, K, 2, R, J, batch): index 3 selects the butterfly input u or v, and
# one MX block of v is the (re/im, k, j) sub-array at fixed (g, r), with the
# batch axis trailing.  Either K = 1 (cpb <= h: R blocks per half-group) or
# R = 1 (cpb > h: a block spans K whole half-groups).  MX block reductions
# are then row-wise maxima over contiguous batch rows; the other modes use
# cpb = 1.  The literal single-block MX procedure lives in the test oracle
# tests/mx_literal.py, which the tests cross-check this kernel against.
# ---------------------------------------------------------------------------

_F32 = np.finfo(np.float32)
# per mode: the name of the transform, and the range its values must stay in
_RANGES = {
    "reference": ("FP64 reference", "float64", float(np.finfo(np.float64).max)),
    "mx": ("MX", "complex64", float(_F32.max)),
    "fp16": ("FP16", "FP16", _FP16_FMT.max_finite),
}


def _stage_shape(n: int, s: int, cpb: int) -> tuple:
    """(G, K, 2, R, J): stage s of a length-n transform with cpb-value blocks."""
    half = 1 << s
    j = min(cpb, half)
    k = cpb // j
    return (n // (2 * half * k), k, 2, half // j, j)


def _out_of_range(kind: str) -> InvalidValue:
    transform, name, limit = _RANGES[kind]
    return InvalidValue(
        f"non-finite value in the {transform} transform: real and imaginary parts "
        f"must stay within the {name} range (|x| <= {limit:.7g})"
    )


def _fft(src, plan: FftPlan, inverse: bool) -> np.ndarray:
    """Transforms of the columns of C source planes, each (n, batch).

    Loads the planes in bit-reversed order into the plan's carry dtype (the
    FP16 control rounds them to FP16 first), runs every stage into
    ping-pong buffers and returns the (C, n, batch) result planes, which the
    FP16 control quantizes to FP16.  Raises InvalidValue if the result is not
    finite: an input or intermediate left the mode's range.
    """
    kind = plan.mode.kind
    buf = np.empty((len(src),) + src[0].shape, dtype=plan.dtype)
    out = np.empty_like(buf)
    with np.errstate(over="ignore", invalid="ignore"):
        for plane, s in zip(buf, src):
            plane[...] = s[plan.bitrev].astype(np.float16) if kind == "fp16" else s[plan.bitrev]
        for shape, w in zip(plan.shapes, plan.twiddles[inverse]):
            x = buf.reshape(buf.shape[:1] + shape + buf.shape[2:])
            y = out.reshape(x.shape)
            t = plan.multiply(x[:, :, :, 1], w)
            np.add(x[:, :, :, 0], t, out=y[:, :, :, 0])
            np.subtract(x[:, :, :, 0], t, out=y[:, :, :, 1])
            buf, out = out, buf
    if not np.isfinite(buf).all():
        raise _out_of_range(kind)
    if kind == "fp16":
        buf[...] = quantize_array(buf, _FP16_FMT)
    return buf


def _planes(z: np.ndarray, plan: FftPlan) -> tuple:
    """The driver's source planes of a complex (n, batch) array."""
    return (z,) if plan.dtype == np.complex128 else (z.real, z.imag)


def _join(planes: np.ndarray, dtype) -> np.ndarray:
    """The complex (n, batch) array of the driver's result planes."""
    if len(planes) == 1:
        return planes[0]
    out = np.empty(planes.shape[1:], dtype=dtype)
    out.real = planes[0]
    out.imag = planes[1]
    return out


def _twiddles(w: np.ndarray, shape: tuple, mode: ModeSpec):
    """One stage's twiddle table (butterfly order) in the mode's format.

    Every block row (g, k) of the v half holds the same twiddles, so only the
    first is kept, at the broadcast shape (1, 1, R, J, 1); MX codes are in
    the product dtype, with scales (1, 1, R, 1, 1).
    """
    _, _, _, r, j = shape
    w = w[: r * j].reshape(1, 1, r, j, 1)
    if mode.kind == "mx":
        codes, scales = _mx_encode(np.stack((w.real, w.imag)), mode.fmt)
        return codes[0], codes[1], scales[0]
    if mode.kind == "fp16":
        return w.real.astype(np.float16), w.imag.astype(np.float16)
    return w


# Twiddle multiplies: w*v of a stage's v half (C, G, K, R, J, batch) in the
# carry dtype.  The reference multiply is np.multiply itself.


def _fp16_multiply(v: np.ndarray, w) -> np.ndarray:
    """FP16-control complex multiply w*v of a stage, as float32 planes.

    The operands are rounded to FP16 and every intermediate of
    (wr*vr - wi*vi, wr*vi + wi*vr) is computed in float16.
    """
    wr, wi = w
    vr, vi = v.astype(np.float16)
    t = np.empty(v.shape, dtype=np.float32)
    t[0] = wr * vr - wi * vi
    t[1] = wr * vi + wi * vr
    return t


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


def _within(a, lo: float, hi: float) -> bool:
    return bool(a.min() >= lo and a.max() <= hi)


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
        raise _out_of_range("mx")
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


# ---------------------------------------------------------------------------
# Public transforms.
# ---------------------------------------------------------------------------


def _is_inverse(direction: str) -> bool:
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return direction == "inverse"


def fft_1d(x, plan: FftPlan, direction: str = "forward") -> np.ndarray:
    """Unnormalized radix-2 DIT transform of a length-n complex vector.

    Returns complex128 in reference mode and complex64 in the MX and FP16 modes.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise ShapeError("fft_1d expects a 1-D vector")
    inverse = _is_inverse(direction)
    if x.shape[0] != plan.n:
        raise ShapeError(f"expected length {plan.n}, got {x.shape[0]}")
    return _join(_fft(_planes(x[:, None], plan), plan, inverse), np.complex64)[:, 0]


def fft_2d(x, plan: FftPlan, direction: str = "forward") -> np.ndarray:
    """Row transforms then column transforms of a square N x N grid, as complex128."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise UnsupportedSize("fft_2d expects a square grid")
    if x.shape[0] != plan.n:
        raise UnsupportedSize(f"grid size {x.shape[0]} does not match plan size {plan.n}")
    inverse = _is_inverse(direction)
    # the driver transforms columns, so the row pass reads x transposed and
    # returns planes indexed (k, row); their transposes are the columns of
    # the row-transformed grid, and the column pass returns (k, l) as is
    rows = _fft(_planes(x.T, plan), plan, inverse)
    return _join(_fft(rows.transpose(0, 2, 1), plan, inverse), np.complex128)
