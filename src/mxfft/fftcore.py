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
                 Two float32 planes; each op of the multiply runs in float32
                 and its result is rounded to FP16, which equals float16
                 arithmetic (see _fp16_multiply).
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
from .minifloat import MinifloatFormat, _binade, _quantize_inplace, get_format
from .minifloat import quantize_array  # noqa: F401  (perfbench traces fftcore.quantize_array)


@dataclasses.dataclass(frozen=True)
class ModeSpec:
    """Arithmetic mode of a plan: "mx" (with element format), "fp16", "reference"."""

    kind: str
    fmt: MinifloatFormat = None
    block_size: int = 32  # B: real scalars per MX block (B/2 complex values)

    def __post_init__(self):
        if self.kind not in ("mx", "fp16", "reference"):
            raise ConfigError("kind", f"unknown mode kind {self.kind!r}; known: mx, fp16, reference")
        if self.kind == "mx" and not isinstance(self.fmt, MinifloatFormat):
            raise ConfigError("fmt", f"an MX mode needs a MinifloatFormat, got {self.fmt!r}")
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
    mode's format at the v half's broadcast shape.
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
    """Transforms along axis 0 of C source planes, each (n, ...).

    Every index of a plane's trailing axes is one length-n signal; the
    driver carries them, in C order, as the batch columns of (n, batch)
    planes.  Loads the planes in bit-reversed order into the plan's carry
    dtype (the FP16 control rounds them to FP16 first), runs every stage into
    ping-pong buffers and returns the (C, n, batch) result planes, which the
    FP16 control quantizes to FP16, in place.  Raises InvalidValue if the
    result is not finite, or, in the FP16 control, as soon as a rounding
    leaves the FP16 range: an input or intermediate left the mode's range.
    """
    kind = plan.mode.kind
    buf = np.empty((len(src), plan.n, src[0][0].size), dtype=plan.dtype)
    out = np.empty_like(buf)
    with np.errstate(over="ignore", invalid="ignore"):
        for plane, s in zip(buf, src):
            plane.reshape(s.shape)[...] = (
                _fp16_round(s[plan.bitrev]) if kind == "fp16" else s[plan.bitrev]
            )
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
        _quantize_inplace(buf, _FP16_FMT)
    return buf


def _planes(z: np.ndarray, plan: FftPlan) -> tuple:
    """The driver's source planes of a complex array."""
    return (z,) if plan.dtype == np.complex128 else (z.real, z.imag)


def _join(planes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the driver's result planes into the complex array `out`."""
    if len(planes) == 1:
        out[...] = planes[0]
    else:
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
        return _quantize_inplace(np.stack((w.real, w.imag)), _FP16_FMT).astype(np.float32)
    return w


# Twiddle multiplies: w*v of a stage's v half (C, G, K, R, J, batch) in the
# carry dtype.  The reference multiply is np.multiply itself.


def _fp16_round(x: np.ndarray) -> np.ndarray:
    """Round a float32/float64 array to FP16, in place, as a float16 cast would.

    Raises InvalidValue where that cast gives inf or the input is not finite:
    wherever |x| > max_finite after the rounding, which does not saturate.
    """
    _quantize_inplace(x, _FP16_FMT, saturate=False)
    if not _within(x, -_FP16_FMT.max_finite, _FP16_FMT.max_finite):  # also catches NaN
        raise _out_of_range("fp16")
    return x


def _fp16_multiply(v: np.ndarray, w) -> np.ndarray:
    """FP16-control complex multiply w*v of a stage, as float32 planes.

    v is rounded to FP16, and every op of (wr*vr - wi*vi, wr*vi + wi*vr) runs
    in float32 with its result rounded to FP16; w holds the FP16 twiddles as
    float32.  This is float16 arithmetic: float32 carries p = 24 >= 2*11 + 2
    significand bits, so rounding a +, - or * of FP16 operands first to
    float32 and then to FP16 is the single FP16 rounding of the exact result
    (Higham, Accuracy and Stability of Numerical Algorithms).  The products
    cannot leave the FP16 range, since |w| <= 1; a rounded v or sum beyond
    it, where float16 would give inf, raises InvalidValue.
    """
    wr, wi = w
    vr, vi = _fp16_round(np.array(v))
    p = np.empty((4,) + vr.shape, dtype=np.float32)
    np.multiply(wr, vr, out=p[0])
    np.multiply(wi, vi, out=p[1])
    np.multiply(wr, vi, out=p[2])
    np.multiply(wi, vr, out=p[3])
    _quantize_inplace(p, _FP16_FMT, saturate=False)
    t = np.empty(v.shape, dtype=np.float32)
    np.subtract(p[0], p[1], out=t[0])
    np.add(p[2], p[3], out=t[1])
    return _fp16_round(t)


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
    # renormalize blocks whose products exceed the finite range by the least
    # power of two 2^k >= 1 with amax <= max_finite * 2^k: 2^k is t or 2t for
    # t = 2^(floor(log2(amax)) - emax), and 1 in blocks already in range
    amax = np.abs(p, out=y).max(axis=_BLOCK_AXES, keepdims=True).astype(np.float64)
    t = _binade(amax) * 2.0**-fmt.emax
    shift = np.maximum(np.where(amax > fmt.max_finite * t, 2 * t, t), 1.0)
    p *= (1.0 / shift).astype(p.dtype)
    s_out = ws * sv * shift  # powers of two; products exact
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
        raise ConfigError("direction", f"must be 'forward' or 'inverse', got {direction!r}")
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
    out = np.empty(plan.n, dtype=np.result_type(plan.dtype, np.complex64))
    return _join(_fft(_planes(x, plan), plan, inverse)[:, :, 0], out)


# Coils per stage-driver call of fft_2d: max(1, COIL_CHUNK_ELEMS // n**2).
# Wider calls spread the driver's fixed per-stage cost over more columns, but
# past about 2**15 complex values per call the stage temporaries outgrow a
# 2 MiB L2 cache and every column gets slower.
COIL_CHUNK_ELEMS = 2**15


def fft_2d(x, plan: FftPlan, direction: str = "forward") -> np.ndarray:
    """Row transforms then column transforms of a square N x N grid, as complex128.

    x may also be a (C, N, N) stack of coils, each transformed independently
    and bit-identically to its own fft_2d.  The coils run in chunks of
    max(1, COIL_CHUNK_ELEMS // N**2), one stage-driver call per chunk and
    pass: N=256 runs one coil per call, N=128 two, N=64 eight.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim not in (2, 3) or x.shape[-1] != x.shape[-2]:
        raise UnsupportedSize("fft_2d expects a square grid or a (coils, n, n) stack of them")
    n = x.shape[-1]
    if n != plan.n:
        raise UnsupportedSize(f"grid size {n} does not match plan size {plan.n}")
    inverse = _is_inverse(direction)
    coils = x.reshape(-1, n, n)
    out = np.empty(coils.shape, dtype=np.complex128)
    chunk = max(1, COIL_CHUNK_ELEMS // (n * n))
    for c0 in range(0, len(coils), chunk):
        xs = coils[c0 : c0 + chunk]
        c = len(xs)
        # the driver transforms along axis 0, so the row pass reads each coil
        # transposed, (l, coil, row), and returns planes (k, coil * n + row);
        # the column pass reads them as (row, coil, k) and returns
        # (k', coil * n + k), which is written to out[coil, k', k]
        rows = _fft(_planes(xs.transpose(2, 0, 1), plan), plan, inverse)
        cols = _fft(rows.reshape(-1, n, c, n).transpose(0, 3, 2, 1), plan, inverse)
        _join(cols.reshape(-1, n, c, n).transpose(0, 2, 1, 3), out[c0 : c0 + c])
    return out.reshape(x.shape)
