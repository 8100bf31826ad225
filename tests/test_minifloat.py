import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mxfft import (
    ConfigError,
    E2M3,
    E3M2,
    E4M3,
    E5M2,
    FP16,
    FORMATS,
    InvalidValue,
    MinifloatFormat,
    get_format,
    quantize_array,
)

from mxfft.minifloat import _quantize_inplace
from mxfft.mxblock import block_scales

import quant_oracle
from conftest import enumerate_values, mantissa_parity, nn_quantize, quantize_scalar

ALL = [E4M3, E5M2, E2M3, E3M2, FP16]
WIDE = MinifloatFormat("wide", 8, 23, "ieee")


class TestFormatConstants:
    def test_e4m3_extended_range(self):
        assert E4M3.max_finite == 448.0
        assert E4M3.min_subnormal == 2.0**-9
        assert E4M3.emax == 8

    def test_e5m2_ieee_range(self):
        assert E5M2.max_finite == 57344.0
        assert E5M2.emax == 15

    def test_fp6_ranges(self):
        assert E2M3.max_finite == 7.5
        assert E3M2.max_finite == 28.0

    def test_fp16(self):
        assert FP16.max_finite == 65504.0
        assert FP16.min_subnormal == 2.0**-24

    @pytest.mark.parametrize("fmt", ALL, ids=lambda f: f.name)
    def test_width_and_reconstruction(self, fmt):
        assert fmt.bits <= 16
        vals = enumerate_values(fmt)
        assert vals[-1] == fmt.max_finite
        assert vals[vals > 0][0] == fmt.min_subnormal

    def test_registry(self):
        assert set(FORMATS) == {"e4m3", "e5m2", "e2m3", "e3m2", "fp16"}
        assert get_format("e4m3") is E4M3
        with pytest.raises(ConfigError, match="e5m2"):
            get_format("nope")

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            MinifloatFormat("bad", 1, 3)
        with pytest.raises(ConfigError):
            MinifloatFormat("bad", 4, 0)

    @pytest.mark.parametrize(
        "args,field",
        [
            ((11, 4, "ieee"), "exponent_bits"),  # steps below the FP64 normal range
            ((4, 53, "ieee"), "mantissa_bits"),  # finer than FP64
            ((4.0, 3), "exponent_bits"),
            ((4, 3, "nan-free"), "policy"),
        ],
    )
    def test_unsupported_formats_name_the_field(self, args, field):
        with pytest.raises(ConfigError, match=field):
            MinifloatFormat("bad", *args)

    def test_bias_is_derived(self):
        assert [f.bias for f in ALL] == [7, 15, 1, 3, 15]
        assert "bias" not in {f.name for f in dataclasses.fields(MinifloatFormat)}


class TestQuantize:
    def test_exactly_representable(self):
        assert quantize_scalar(1.0, E4M3) == 1.0

    @pytest.mark.parametrize("fmt", ALL, ids=lambda f: f.name)
    def test_zero(self, fmt):
        assert quantize_scalar(0.0, fmt) == 0.0

    def test_saturation(self):
        assert quantize_scalar(1.0e6, E4M3) == 448.0
        assert quantize_scalar(-1.0e6, E4M3) == -448.0
        assert quantize_scalar(1.0e9, E5M2) == 57344.0

    def test_near_value(self):
        assert quantize_scalar(0.3, E4M3) == nn_quantize(0.3, E4M3)
        assert quantize_scalar(0.3, E4M3) == 0.3125

    def test_nan_rejected(self):
        with pytest.raises(InvalidValue):
            quantize_scalar(float("nan"), E4M3)
        with pytest.raises(InvalidValue):
            quantize_array([1.0, float("inf")], E4M3)

    @pytest.mark.parametrize("values", ["x", [1j], [object()]])
    def test_non_numeric_rejected(self, values):
        with pytest.raises(InvalidValue, match="^quantize input must be an array of real numbers"):
            quantize_array(values, E4M3)

    @pytest.mark.parametrize(
        "values, kind",
        [(np.array([1 + 1j]), "complex128"), (["1.5"], "<U3"), ([10**400], "object"), (np.array([1.0], dtype=object), "object")],
        ids=["complex-ndarray", "numeric-string", "huge-int", "object-ndarray"],
    )
    def test_dtype_kind_that_is_not_real_is_rejected(self, values, kind):
        # no ComplexWarning and no string parse: the dtype kind is checked first
        with pytest.raises(InvalidValue, match=f"^quantize input must be an array of real numbers, got dtype {kind}$"):
            quantize_array(values, E4M3)

    def test_bool_integer_and_float_input_are_read(self):
        assert quantize_array([True, 2, 0.3], E4M3).tolist() == [1.0, 2.0, 0.3125]
        assert quantize_array(np.arange(3, dtype=np.uint8), E4M3).tolist() == [0.0, 1.0, 2.0]

    def test_underflow_flush(self):
        assert quantize_scalar(E4M3.min_subnormal / 4, E4M3) == 0.0
        # exact halfway below the smallest subnormal rounds to even (zero)
        assert quantize_scalar(E4M3.min_subnormal / 2, E4M3) == 0.0

    @pytest.mark.parametrize("fmt", ALL, ids=lambda f: f.name)
    def test_exactness_on_grid(self, fmt):
        vals = enumerate_values(fmt)
        assert np.array_equal(quantize_array(vals, fmt), vals)

    @pytest.mark.parametrize("fmt", ALL, ids=lambda f: f.name)
    def test_ties_to_even_at_midpoints(self, fmt):
        grid = enumerate_values(fmt)
        mids = (grid[:-1] + grid[1:]) / 2.0
        got = quantize_array(mids, fmt)
        want = nn_quantize(mids, fmt, grid)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("fmt", ALL, ids=lambda f: f.name)
    def test_oracle_agreement(self, fmt, rng):
        x = rng.standard_normal(20000) * np.exp(rng.uniform(-12, 12, 20000) * np.log(2))
        got = quantize_array(x, fmt)
        want = nn_quantize(x, fmt)
        assert np.array_equal(got, want)


class TestEnumerate:
    @pytest.mark.parametrize("fmt", ALL, ids=lambda f: f.name)
    def test_sorted_unique_symmetric(self, fmt):
        vals = enumerate_values(fmt)
        assert np.all(np.diff(vals) > 0)
        assert np.array_equal(vals, -vals[::-1])

    def test_e4m3_count(self):
        # 256 codes minus 2 NaN, minus one duplicate zero
        assert enumerate_values(E4M3).size == 253

    @pytest.mark.parametrize("fmt", ALL, ids=lambda f: f.name)
    def test_parity_helper_consistent(self, fmt):
        vals = enumerate_values(fmt)
        # adjacent representables alternate mantissa parity within a binade
        for v in vals[:: max(1, vals.size // 13)]:
            assert mantissa_parity(v, fmt) in (0, 1)


finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


@given(x=finite_floats)
@settings(max_examples=300)
def test_idempotent(x):
    q = quantize_scalar(x, E4M3)
    assert quantize_scalar(q, E4M3) == q


@given(x=finite_floats, y=finite_floats)
@settings(max_examples=300)
def test_monotone(x, y):
    if x > y:
        x, y = y, x
    assert quantize_scalar(x, E2M3) <= quantize_scalar(y, E2M3)


@given(x=finite_floats)
@settings(max_examples=200)
def test_output_always_representable(x):
    grid = enumerate_values(E3M2)
    q = quantize_scalar(x, E3M2)
    assert q in grid or q == 0.0


@given(x=finite_floats)
@settings(max_examples=200)
def test_symmetric_in_sign(x):
    assert quantize_scalar(-x, E5M2) == -quantize_scalar(x, E5M2)


# ---------------------------------------------------------------------------
# The quantizer and the shared-scale rule read powers of two from the exponent
# bits.  They must equal the frozen frexp versions in tests/quant_oracle.py bit
# for bit (signed zeros included): the in-place quantizer in float32 and
# float64, quantize_array and block_scales on any input layout.
# ---------------------------------------------------------------------------

E8M10 = MinifloatFormat("e8m10", 8, 10, "ieee")
ORACLE_FORMATS = ALL + [WIDE, E8M10]
# float32 only where every step of the format is a normal float32, as it is
# for every format the MX kernel carries in float32; wide and e8m10 steps are not
QUANTIZER_CASES = [(f, d) for f in ALL for d in (np.float32, np.float64)] + [
    (WIDE, np.float64),
    (E8M10, np.float64),
]


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _assert_private_quantizer_matches(x, fmt, saturate=True):
    want = quant_oracle.quantize_array(x.astype(np.float64), fmt)
    got = _quantize_inplace(x.copy(), fmt, saturate=saturate)
    assert got.dtype == x.dtype
    assert np.array_equal(_bits(got), _bits(want))


def _edge_values(fmt, dtype):
    """Signed zeros, float32 and float64 subnormals, exact ties in every binade
    of the format (its subnormal range included), max_finite and the values
    just above it; only those exactly representable in `dtype`."""
    m = fmt.mantissa_bits
    vals = [0.0, 2.0**-149, 3 * 2.0**-149, 2.0**-127 - 2.0**-149, 2.0**-126, 5e-324, 2.0**-1022]
    ks = sorted({0, 1, 2, 3, (1 << m) - 2, (1 << m) - 1})
    for e in range(fmt.emin - 1, fmt.emax + 1):  # emin - 1: the subnormal range
        base = 0.0 if e < fmt.emin else 2.0**e
        step = 2.0 ** (max(e, fmt.emin) - m)
        vals += [base + (k + 0.5) * step for k in ks]
    top = fmt.max_finite
    ulp = 2.0 ** (fmt.emax - m)
    vals += [top, top + ulp / 2, top + ulp, math.ldexp(1.0, min(fmt.emax + 1, 1023))]
    with np.errstate(over="ignore"):
        vals += [float(np.nextafter(dtype(top), dtype(np.inf)))]
        x = np.array(vals, dtype=np.float64)
        x = np.concatenate([x, -x])
        exact = np.isfinite(x) & (x.astype(dtype).astype(np.float64) == x)
    return x[exact].astype(dtype)


@pytest.mark.parametrize("fmt,dtype", QUANTIZER_CASES, ids=lambda c: getattr(c, "name", None) or np.dtype(c).name)
def test_private_quantizer_edges(fmt, dtype):
    x = _edge_values(fmt, dtype)
    assert np.signbit(x[x == 0]).any()  # -0.0 is covered
    _assert_private_quantizer_matches(x, fmt)
    _assert_private_quantizer_matches(x[np.abs(x) <= fmt.max_finite], fmt, saturate=False)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_private_quantizer_matches_public(data):
    fmt, dtype = data.draw(st.sampled_from(QUANTIZER_CASES))
    elements = st.floats(
        allow_nan=False, allow_infinity=False, width=np.dtype(dtype).itemsize * 8
    )
    x = data.draw(hnp.arrays(dtype, st.integers(1, 64), elements=elements))
    _assert_private_quantizer_matches(x, fmt)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_quantize_array_and_block_scales_match_frozen_oracle(data):
    fmt = data.draw(st.sampled_from(ORACLE_FORMATS), label="fmt")
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=16), label="shape")
    elements = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=np.dtype(dtype).itemsize * 8),
        st.sampled_from(list(_edge_values(fmt, dtype))),
    )
    x = data.draw(hnp.arrays(dtype, shape, elements=elements), label="x")
    if x.ndim == 2 and data.draw(st.booleans(), label="transposed"):
        x = x.T  # a non-C-contiguous input
    q = quantize_array(x, fmt)
    want = quant_oracle.quantize_array(x, fmt)
    assert type(q) is type(want)  # 0-d input gives a float64 scalar
    assert np.array_equal(_bits(q), _bits(want))
    amax = np.abs(x)
    assert np.array_equal(_bits(block_scales(amax, fmt)), _bits(quant_oracle.block_scales(amax, fmt)))


def test_quantize_array_leaves_its_input_alone():
    x = np.array([[0.3, -1.7], [2.5, 1e9]]).T
    before = x.copy()
    assert np.array_equal(quantize_array(x, E4M3), [[0.3125, 2.5], [-1.75, 448.0]])
    assert np.array_equal(x, before)
