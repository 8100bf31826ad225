"""Radix-2 decimation-in-time FFT with three arithmetic modes.

One stage driver runs every mode; the modes differ only in the carry and the
twiddle multiply applied to each butterfly's v input:
  * Reference -- FP64 throughout, the accuracy baseline: one complex128 plane.
  * MX        -- the twiddle complex multiply runs in MX block arithmetic:
                 operand blocks are encoded with a shared power-of-two scale,
                 multiplied in mantissa space with exact FP32 products,
                 renormalized if the product mantissas exceed the element
                 format's finite range, requantized, and decoded.  Twiddles
                 are decoded once, at plan time.  The add/sub operand u is
                 never quantized; butterfly sums are accumulated in FP32.
                 Two float32 planes (real, imaginary).  One body does the
                 multiply.  Every scale is a power of two, so while values
                 stay normal float32 it runs on decoded values, where an
                 encode and decode, and a renormalize, requantize and
                 decode, are each one rounding at a scaled exponent floor;
                 otherwise it runs on the codes, whose scales are all 1
                 (see _mx_multiply).
  * FP16      -- positive control: multiplies with every intermediate
                 rounded to FP16, add/sub in FP32, inputs/outputs in FP16.
                 Two float32 planes; each op of the multiply runs in float32
                 and its result is rounded to FP16, which equals float16
                 arithmetic (see _fp16_multiply).
A pass whose values leave the mode's range (float64, complex64) raises
InvalidValue; the FP16 control raises on inputs, v operands and multiply
results beyond FP16's range, but saturates its pass outputs to +-65504, as
tests/fft_oracle.py does.  MX block sizes B must be powers of two, so that
B/2-value blocks tile every stage's half-groups.  No normalization is
applied inside the transforms; pipelines apply 1/N**2 where needed.

The reference and MX transforms are 2^k-equivariant: an input scaled by 2^k
gives every pass value scaled by 2^k, bit for bit, while all stay normal.  A
float64 or float32 rounding commutes with a power-of-two scaling of normal
values, and every data or product block's MX scale is the power of two its
amax sets, so 2^k multiplies those scales and leaves every code, renormalize
shift and requantize as it was (_decoded_scales makes the same argument for
the decoded form).  So the pipelines' global power-of-two prescale moves no
MX or reference bit and only guards the range.  The FP16 control's exponent
range is fixed: 2^k moves which values round as FP16 subnormals or overflow,
and so its bits.  The tests pin both (test_pow2_linearity_property,
test_prescale_moves_no_mx_or_reference_bit).
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import mxblock
from .errors import MAX_SIZE, ConfigError, InvalidValue, ShapeError, UnsupportedSize
from .errors import _choice, _instance, _numbers, _size
from .minifloat import FP16 as _FP16_FMT
from .minifloat import FORMATS, MinifloatFormat, _quantize_inplace, get_format
from .minifloat import quantize_array  # noqa: F401  (perfbench traces fftcore.quantize_array)

_F32 = np.finfo(np.float32)


@dataclasses.dataclass(frozen=True)
class ModeSpec:
    """Arithmetic mode of a plan: "mx" (with element format), "fp16", "reference".

    An MX format's code arithmetic must be the paper's FP32: products of
    2(M + 1) <= 24 bits whose sums of two, up to 2 * max_finite^2, stay
    finite; that is E <= 6 and M <= 11.  Codes lie in [2^(emin - M),
    max_finite], so products lie in [2^(2(emin - M)), max_finite^2], normal
    float32 (2^-82 at least, in E6M11): the code-space form forms each
    product exactly and each sum with one float32 rounding, for every block.
    """

    kind: str
    fmt: MinifloatFormat = None
    block_size: int = 32  # B: real scalars per MX block (B/2 complex values)

    def __post_init__(self):
        kind = _choice(self.kind, ("mx", "fp16", "reference"), "kind", "mode kind")
        block = self.block_size
        if kind != "mx":  # one spec per arithmetic: no format, the default block
            if self.fmt is not None:
                raise ConfigError("fmt", f"the {kind} mode takes no format, got {self.fmt!r}")
            if _size(block) != ModeSpec.block_size:
                raise ConfigError("block_size", f"the {kind} mode takes no block size, got {block!r}")
            return
        fmt = _instance(self.fmt, MinifloatFormat, "fmt")
        m, top = fmt.mantissa_bits, fmt.max_finite  # Python floats: a float32 bound vs inf warns
        if 2 * (m + 1) > _F32.nmant + 1 or 2 * top * top > float(_F32.max):
            raise ConfigError("fmt", f"{fmt.name}: code products are not exact in float32 (E <= 6, M <= 11)")
        if (size := _size(block)) is None:
            raise ConfigError("block_size", f"{block!r} is not an integer power of two in [2, {MAX_SIZE}]")
        object.__setattr__(self, "block_size", size)

    # `block_size` in the defaults below is the field default above
    @staticmethod
    def mx(fmt: MinifloatFormat, block_size: int = block_size) -> "ModeSpec":
        return ModeSpec("mx", fmt, block_size)

    @staticmethod
    def fp16() -> "ModeSpec":
        return ModeSpec("fp16")

    @staticmethod
    def reference() -> "ModeSpec":
        return ModeSpec("reference")

    @staticmethod
    def from_name(name: str, block_size: int = block_size) -> "ModeSpec":
        """The mode of one of MODE_NAMES; block_size applies to the MX modes."""
        if _choice(name, MODE_NAMES, "format", "mode") in ("reference", "fp16"):
            return ModeSpec(name)
        return ModeSpec.mx(get_format(name), block_size)


# The names ModeSpec.from_name decodes, in sweep order: the scalar modes, then the MX formats
MODE_NAMES = ("reference", "fp16") + tuple(sorted(k for k in FORMATS if k != "fp16"))


class FftPlan:
    """Precomputed bit-reversal permutation, stage views and twiddles for one size.

    Immutable after construction; safe to share across threads.  The stage
    driver updates `dtype` planes in place, one buffer per pass (a complex128
    plane for the reference, float32 real and imaginary planes otherwise).
    shapes[s] is stage s's view shape (see _stage_shape), twiddles[inverse][s]
    its twiddles, in the mode's format at the v half's broadcast shape, and
    exact[s] True where they are all 1, -1, i or -i in a quantized mode
    (stage 0, and stage 1 where the format flushes cos(pi/2) = 6.1e-17 to
    0): there the mode's `multiply` runs its exact form (see _unit_twiddles).
    The inverse twiddles are the conjugates, and conjugation maps
    {1, -1, i, -i} onto itself, so one flag serves both directions.
    """

    def __init__(self, n: int, mode: ModeSpec):
        if (size := _size(n)) is None:
            raise UnsupportedSize(f"n must be an integer power of two in [2, {MAX_SIZE}], got {n!r}")
        _instance(mode, ModeSpec, "mode")
        self.n = n = size
        self.mode = mode
        self.stages = n.bit_length() - 1
        self.bitrev = np.arange(n).reshape((2,) * self.stages).transpose().reshape(-1)
        half_tables = []
        for s in range(self.stages):
            half = 1 << s
            step = n // (2 * half)
            w = np.exp(-2j * np.pi * np.arange(half) * step / n)
            half_tables.append(w)  # the twiddles of one half-group, len half

        # only MX blocks constrain the view; the others take one value per block
        cpb = min(mode.block_size // 2, n // 2) if mode.kind == "mx" else 1
        self.shapes = [_stage_shape(n, s, cpb) for s in range(self.stages)]
        self.twiddles = tuple(
            [_twiddles(w, shape, mode) for w, shape in zip(tables, self.shapes)]
            for tables in (half_tables, [np.conj(w) for w in half_tables])
        )
        if mode.kind == "reference":
            self.dtype, self.multiply = np.complex128, np.multiply
        elif mode.kind == "fp16":
            self.dtype, self.multiply = np.float32, _fp16_multiply
        else:
            self.dtype, self.multiply = np.float32, functools.partial(_mx_multiply, fmt=mode.fmt)
        self.exact = tuple(_unit_twiddles(w, mode) for w in self.twiddles[0])


def make_plan(n: int, mode: ModeSpec) -> FftPlan:
    """The plan of size n and mode, built once per process; plans are immutable."""
    if (size := _size(n)) is not None and isinstance(mode, ModeSpec):  # neither 8.0 (== 8) nor unhashables
        return _cached_plan(size, mode)
    return FftPlan(n, mode)  # raises its typed error


_cached_plan = functools.lru_cache(maxsize=64)(FftPlan)


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


def _carry(plan: FftPlan, values: int) -> np.ndarray:
    """A flat stage-driver buffer for `values` complex values in carry planes."""
    return np.empty((1 if plan.dtype == np.complex128 else 2) * values, dtype=plan.dtype)


def _stages(plan: FftPlan, inverse: bool, buf: np.ndarray):
    """The stage walk over a (C, n, batch) carry: per stage, the u and v
    views, the twiddles and the multiply, exact where plan.exact says so."""
    for shape, w, exact in zip(plan.shapes, plan.twiddles[inverse], plan.exact):
        x = buf.reshape(buf.shape[:1] + shape + buf.shape[2:])
        multiply = functools.partial(plan.multiply, exact=True) if exact else plan.multiply
        yield x[:, :, :, 0], x[:, :, :, 1], w, multiply


def _butterfly(u: np.ndarray, v: np.ndarray, t: np.ndarray) -> None:
    """A stage's add/sub, in place: v = u - t, then u = u + t."""
    np.subtract(u, t, out=v)
    np.add(u, t, out=u)


def _fft(src, plan: FftPlan, inverse: bool, carry: np.ndarray) -> np.ndarray:
    """Transforms along axis 0 of C source planes, each (n, ...).

    Every index of a plane's trailing axes is one length-n signal; the
    driver carries them, in C order, as the batch columns of (n, batch)
    planes.  Loads the planes in bit-reversed order (the FP16 control rounds
    them to FP16 first) into the (C, n, batch) prefix of `carry`, contiguous
    so that no stage view is a copy, and walks the stages (_stages), each
    butterfly in place: t = multiply(v, w), then _butterfly(u, v, t); so no
    stage multiply may return memory shared with v.  Returns the prefix,
    which the FP16 control quantizes to FP16 in place, saturating.  Raises
    InvalidValue if the result is not finite, or, in the FP16 control, as
    soon as an input, a v operand or a multiply's result rounds beyond the
    FP16 range.
    """
    kind = plan.mode.kind
    shape = (len(src), plan.n, src[0][0].size)
    buf = carry[: math.prod(shape)].reshape(shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for plane, s in zip(buf, src):
            # a scatter through the bit reversal, an involution, is its gather
            plane.reshape(s.shape)[plan.bitrev] = _fp16_round(np.array(s)) if kind == "fp16" else s
        for u, v, w, multiply in _stages(plan, inverse, buf):
            _butterfly(u, v, multiply(v, w))
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
    """One stage's twiddle table in the mode's format.

    w holds the R * J twiddles of one half-group, which every block row (g, k)
    of the v half shares, at the broadcast shape (1, 1, R, J, 1).  An MX
    table is (decoded, ws): the stacked (re, im) decoded twiddles, codes
    times ws, in float32, and their block scales ws, shape (1, 1, R, 1, 1).
    The cast is exact, as are the codes decoded / ws.
    """
    _, _, _, r, j = shape
    w = w.reshape(1, 1, r, j, 1)
    if mode.kind == "mx":
        w = np.stack((w.real, w.imag))
        ws = mxblock.block_scales(_block_amax(w), mode.fmt)
        return _quantize_inplace(w, mode.fmt, scale=ws).astype(np.float32), ws[0]
    if mode.kind == "fp16":
        return _quantize_inplace(np.stack((w.real, w.imag)), _FP16_FMT).astype(np.float32)
    return w


def _unit_twiddles(w, mode: ModeSpec) -> bool:
    """True if every quantized twiddle of a stage is 1, -1, i or -i.

    A product by such a twiddle only moves and negates the v operand's
    values, so the quantized multiply needs no requantize: FP16 products
    and sums with a zero product are FP16 values already, and in MX the
    twiddle codes are 0 and +-2^emax with scale 2^-emax, so every product
    block of a nonzero v block (amax in [2^emax, max_finite]) renormalizes
    by exactly 2^emax back to v's own codes, which the requantize keeps.
    """
    if mode.kind == "reference":
        return False
    re, im = w[0] if mode.kind == "mx" else w
    return bool(np.all((np.abs(re) + np.abs(im) == 1) & (re * im == 0)))


# Twiddle multiplies: w*v of a stage's v half (C, G, K, R, J, batch) in the
# carry dtype.  The reference multiply is np.multiply itself.


def _fp16_round(x: np.ndarray) -> np.ndarray:
    """Round a float32/float64 array to FP16, in place, as a float16 cast would.

    Raises InvalidValue where that cast gives inf or the input is not finite:
    wherever |x| > max_finite after the rounding, which does not saturate.
    A rounding that leaves the float32 range gives inf or NaN, not a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        _quantize_inplace(x, _FP16_FMT, saturate=False)
    if not (x.min() >= -_FP16_FMT.max_finite and x.max() <= _FP16_FMT.max_finite):  # also catches NaN
        raise _out_of_range("fp16")
    return x


def _fp16_multiply(v: np.ndarray, w, exact: bool = False) -> np.ndarray:
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
    y = _fp16_round(np.array(v))
    p = np.multiply(w[:, None], y)  # p[a, b] = w[a] * y[b]
    if not exact:
        _quantize_inplace(p, _FP16_FMT, saturate=False)
    np.subtract(p[0, 0], p[1, 1], out=y[0])
    np.add(p[0, 1], p[1, 0], out=y[1])
    return y if exact else _fp16_round(y)


_BLOCK_AXES = (0, 2, 4)  # re/im, k, j of a stacked v view (2, G, K, R, J, batch)


def _block_amax(v: np.ndarray) -> np.ndarray:
    """Per-block amax of stacked block views v (2, G, K, R, J, batch), shape
    (1, G, 1, R, 1, batch); raises InvalidValue beyond the float32 range."""
    amax = np.abs(v).max(axis=_BLOCK_AXES, keepdims=True)
    if not amax.max() <= _F32.max:  # also catches NaN
        raise _out_of_range("mx")
    return amax


def _mx_multiply(v: np.ndarray, w, fmt: MinifloatFormat, exact: bool = False) -> np.ndarray:
    """Blockwise MX complex multiply w*v of a stage, decoded to float32.

    v is the stacked float32 (2, G, K, R, J, batch) view of the stage's v
    operands; w is the stage's twiddle table (decoded, ws) (see _twiddles).
    Implements the mantissa-space product with per-block renormalization and
    requantization; exact=True, for a stage of _unit_twiddles, skips the
    requantize.  One body runs every call: on v's decoded values
    (_mx_multiply_decoded) where v's block scales lie in the format's
    _decoded_scales window, and otherwise on the codes, at unit scales
    (_mx_multiply_codes).
    """
    amax = _block_amax(v)
    sv = mxblock.block_scales(amax, fmt, np.float32)
    lo, hi = _decoded_scales(fmt)
    if lo <= sv.min() and sv.max() <= hi:
        return _mx_multiply_decoded(v, w, sv, fmt, exact)
    return _mx_multiply_codes(v, amax, w, fmt, exact)


def _mx_multiply_codes(v, amax, w, fmt: MinifloatFormat, exact: bool = False) -> np.ndarray:
    """_mx_multiply in code space: the one body at unit scales, on v's codes
    in float32, between one encode and one decode with float64 scales.
    Exact for every float32 block, near the float32 limits too (see ModeSpec)."""
    decoded, ws = w
    sv = mxblock.block_scales(amax, fmt)
    # exact in float64; the cast rounds only codes that the encode flushes to 0
    codes = np.multiply(v, 1.0 / sv).astype(np.float32)
    one = np.float32(1.0)
    p = _mx_multiply_decoded(codes, (np.divide(decoded, ws, dtype=np.float32), one), one, fmt, exact)
    # decode: one rounding of the exact product codes * scale to float32
    return np.multiply(p, ws * sv, out=np.empty(p.shape, np.float32), casting="same_kind")


@functools.cache
def _decoded_scales(fmt: MinifloatFormat) -> tuple:
    """The window [lo, hi] of v's float32 block scales sv on which
    _mx_multiply_decoded is exact; not empty for any format ModeSpec takes,
    as 3 emax - 2 emin + 2M <= 247 for each.

    Scaling by a power of two commutes with a float32 rounding while the
    operands and the result are normal, so the decoded form equals the
    code-space one when every value it rounds or forms is normal.  Every
    twiddle block's amax lies in [2^-0.5, 1], so the twiddle scale ws is
    2^-emax or half that, and the scale of each rounding lies in
    [ws * sv, 2^3 * sv]: sv for the encode, ws * sv * shift for the
    requantize, with shift < 2^(emax + 3) as the products stay below
    2 * max_finite^2.  The least value formed is a product block's shared
    scale t, at least 2^(2(emin - M) - emax) * ws * sv; the greatest, the
    requantize's bound max_finite * scale, below 2^(emax + 4) * sv.  Every
    step 2^(emin..emax - M) * scale and its inverse lie between the two, as
    M >= 1 and emin <= 0 < emax.  So a nonzero block's amax must lie in
    [2^(3 emax + 2(M - emin) - 125), 2^124): [2^-83, 2^124) for E4M3.
    """
    m, e, top = fmt.mantissa_bits, fmt.emin, fmt.emax
    # t >= 2^(2(e - m) - top) * 2^(-1 - top) * lo >= 2^minexp, and
    # 2^(top + 4) * hi <= 2^(maxexp - 1); Python floats: float32 would overflow
    return 2.0 ** (_F32.minexp + 1 + 2 * top - 2 * (e - m)), 2.0 ** (_F32.maxexp - 5 - top)


def _mx_multiply_decoded(v, w, sv, fmt: MinifloatFormat, exact: bool = False) -> np.ndarray:
    """The one body of _mx_multiply, in float32, with block scales sv of the
    float32 v and a twiddle table w = (decoded, ws).

    Every MX scale is a power of two, so an encode then decode of v is one
    rounding of v itself at exponent floor 2^emin * sv, bounded by
    max_finite * sv; the decoded twiddles are codes * ws exactly; the products
    of decoded values are the products of codes times ws * sv; and the
    renormalize, requantize and decode are one rounding at floor
    2^emin * ws * sv * shift.  On float32 values this skips three broadcast
    multiplies; on codes every scale is 1 (_mx_multiply_codes).
    """
    (wr, wi), ws = w
    y = _quantize_inplace(v, fmt, scale=sv, out=np.empty_like(v))
    # p = (wr*y0 - wi*y1, wr*y1 + wi*y0) from two whole-array products
    p = np.multiply(y, wr)
    wiy = np.multiply(y, wi)
    np.subtract(p[0], wiy[1], out=p[0])
    np.add(p[1], wiy[0], out=p[1])
    if exact:
        return p  # v's rounded values, moved and negated
    # renormalize by shift >= 1, the products' fitting scale over ws * sv (an
    # all-zero block keeps scale 1, which rounds it to 0 all the same)
    amax = np.abs(p, out=y).max(axis=_BLOCK_AXES, keepdims=True)
    scale = mxblock._fit_scales(amax, fmt)
    np.maximum(scale, np.multiply(ws, sv, dtype=np.float32), out=scale)
    return _quantize_inplace(p, fmt, saturate=False, scale=scale)


# ---------------------------------------------------------------------------
# Public transforms.
# ---------------------------------------------------------------------------


def _complex_array(x, what: str) -> np.ndarray:
    """x as a complex128 array, x itself if it is one; raises InvalidValue,
    naming `what`, unless it holds numbers: bool, integer, float or complex."""
    return _numbers(x, "biufc", f"{what} must be an array of numbers", np.complex128)


def _is_inverse(direction: str) -> bool:
    return _choice(direction, ("forward", "inverse"), "direction", "direction") == "inverse"


def fft_1d(x, plan: FftPlan, direction: str = "forward") -> np.ndarray:
    """Unnormalized radix-2 DIT transform of a length-n complex vector.

    Returns complex128 in reference mode and complex64 in the MX and FP16 modes.
    """
    _instance(plan, FftPlan, "plan", "an FftPlan (see make_plan)")
    x = _complex_array(x, "x")
    if x.ndim != 1:
        raise ShapeError("fft_1d expects a 1-D vector")
    inverse = _is_inverse(direction)
    if x.shape[0] != plan.n:
        raise ShapeError(f"expected length {plan.n}, got {x.shape[0]}")
    out = np.empty(plan.n, dtype=np.result_type(plan.dtype, np.complex64))
    planes = _fft(_planes(x, plan), plan, inverse, _carry(plan, plan.n))
    return _join(planes[:, :, 0], out)


# Values per call of a stack's chunks (see _chunks).  Wider calls spread the
# stage driver's fixed per-stage cost over more columns, but past about 2**15
# complex values per call the stage temporaries outgrow a 2 MiB L2 cache and
# every column gets slower.  fft_2d chunks its coils and the SSIM window
# passes (metrics._window_means) their image stacks by this one rule.
COIL_CHUNK_ELEMS = 2**15


def _chunks(stack: np.ndarray):
    """The stack in slices of max(1, COIL_CHUNK_ELEMS // values per item) items."""
    step = max(1, COIL_CHUNK_ELEMS // math.prod(stack.shape[1:]))
    return (stack[i : i + step] for i in range(0, len(stack), step))


def fft_2d(x, plan: FftPlan, direction: str = "forward", out=None) -> np.ndarray:
    """Row transforms then column transforms of a square N x N grid, as complex128.

    x may also be a (C, N, N) stack of coils, each transformed independently
    and bit-identically to its own fft_2d.  The coils run in chunks of
    max(1, COIL_CHUNK_ELEMS // N**2), one stage-driver call per chunk and
    pass: N=256 runs one coil per call, N=128 two, N=64 eight.  Each pass
    updates one carry buffer, sized for the largest chunk, in place.
    The result is written to `out` if given: a writeable complex128 array of
    x's shape that is x itself or shares no memory with it.
    """
    _instance(plan, FftPlan, "plan", "an FftPlan (see make_plan)")
    x = _complex_array(x, "x")
    if x.ndim not in (2, 3) or x.shape[-1] != x.shape[-2]:
        raise UnsupportedSize("fft_2d expects a square grid or a (coils, n, n) stack of them")
    n = x.shape[-1]
    if n != plan.n:
        raise UnsupportedSize(f"grid size {n} does not match plan size {plan.n}")
    inverse = _is_inverse(direction)
    if out is None:
        out = np.empty(x.shape, dtype=np.complex128)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.complex128
              and out.shape == x.shape and out.flags.writeable):
        raise ConfigError("out", f"must be a writeable complex128 array of shape {x.shape}")
    elif out is not x and np.may_share_memory(out, x):
        raise ConfigError("out", "must be x itself or share no memory with it")
    coils = x.reshape(-1, n, n)
    values = next(_chunks(coils), coils).size  # an empty stack has no chunk
    row_carry, col_carry = _carry(plan, values), _carry(plan, values)
    for xs, dst in zip(_chunks(coils), _chunks(out.reshape(-1, n, n))):
        c = len(xs)
        # the driver transforms along axis 0, so the row pass reads each coil
        # transposed, (l, coil, row), and returns planes (k, coil * n + row);
        # the column pass loads them as (row, coil, k) and returns
        # (k', coil * n + k), which is written to out[coil, k', k]
        rows = _fft(_planes(xs.transpose(2, 0, 1), plan), plan, inverse, row_carry)
        cols = _fft(rows.reshape(-1, n, c, n).transpose(0, 3, 2, 1), plan, inverse, col_carry)
        _join(cols.reshape(-1, n, c, n).transpose(0, 2, 1, 3), dst)
    return out
