import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mxfft import E4M3, E5M2, InvalidValue, ShapeError, enumerate_values, quantize_scalar
from mxfft.mxblock import block_scales

from conftest import nn_quantize
from mx_literal import (
    MantissaOverflow,
    MxBlock,
    decode_block_mx,
    encode_block_mx,
    encode_from_mant_block,
    mantissas_block,
)


def is_pow2_scale(s):
    return s > 0 and math.log2(s) == int(math.log2(s))


class TestEncode:
    def test_zero_block(self):
        b = encode_block_mx([0.0, 0.0, 0.0, 0.0], E4M3)
        assert b.scale == 1.0
        assert np.all(b.codes == 0.0)

    def test_spec_block(self):
        b = encode_block_mx([1.0, 0.5, -0.25, 0.0], E4M3)
        assert b.scale == 2.0**-8
        assert np.array_equal(b.codes, [256.0, 128.0, -64.0, 0.0])
        grid = enumerate_values(E4M3)
        assert all(c in grid for c in b.codes)
        dec = decode_block_mx(b)
        assert np.array_equal(dec, [1.0 + 0.5j, -0.25 + 0.0j])

    def test_single_element_error_bound(self):
        b = encode_block_mx([3.14159], E4M3)
        dec = b.codes[0] * b.scale
        assert abs(dec - 3.14159) / 3.14159 <= 2.0**-4
        # agrees with nearest-neighbor quantization at the computed scale
        assert b.codes[0] == nn_quantize(3.14159 / b.scale, E4M3)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidValue):
            encode_block_mx([1.0, float("nan")], E4M3)

    def test_amax_element_lands_in_top_binade(self, rng):
        # the scale rule places amax in the top binade; clipping is bounded
        # by the gap between the binade top and max_finite
        for _ in range(50):
            v = rng.standard_normal(32) * 10.0 ** rng.uniform(-6, 6)
            b = encode_block_mx(v, E4M3)
            i = np.argmax(np.abs(v))
            assert 2.0**E4M3.emax <= abs(b.codes[i]) <= E4M3.max_finite

    def test_scale_rule_matches_helper(self, rng):
        amax = np.abs(rng.standard_normal(100)) * 10.0 ** rng.uniform(-8, 8, 100)
        s = block_scales(amax, E4M3)
        assert np.all(s == 2.0 ** (np.floor(np.log2(amax)) - E4M3.emax))


class TestMantissas:
    def test_deinterleave(self):
        b = MxBlock(np.array([256.0, 0.0, 128.0, -64.0]), 2.0**-8, 4, E4M3)
        r, i = mantissas_block(b)
        assert np.array_equal(r, [256.0, 128.0])
        assert np.array_equal(i, [0.0, -64.0])

    def test_zero_block(self):
        b = encode_block_mx(np.zeros(8), E4M3)
        r, i = mantissas_block(b)
        assert not np.any(r) and not np.any(i)

    def test_odd_length_rejected(self):
        b = MxBlock(np.array([1.0, 2.0, 3.0]), 1.0, 3, E4M3)
        with pytest.raises(ShapeError):
            mantissas_block(b)
        with pytest.raises(ShapeError):
            decode_block_mx(b)

    def test_mantissas_roundtrip_identity(self, rng):
        v = rng.standard_normal(16)
        b = encode_block_mx(v, E4M3)
        r, i = mantissas_block(b)
        inter = np.empty(16)
        inter[0::2] = r
        inter[1::2] = i
        rebuilt = (inter[0::2] + 1j * inter[1::2]) * b.scale
        assert np.array_equal(rebuilt, decode_block_mx(b))


class TestEncodeFromMant:
    def test_trivial(self):
        b = encode_from_mant_block([1.0], [0.0], 2.0**-4, E4M3)
        assert np.array_equal(b.codes, [1.0, 0.0])
        assert b.scale == 2.0**-4

    def test_boundary_no_saturation_loss(self):
        m = E4M3.max_finite
        b = encode_from_mant_block([m, -m], [m, 0.0], 1.0, E4M3)
        assert np.array_equal(b.codes, [m, m, -m, 0.0])

    def test_overflow_is_a_bug_signal(self):
        with pytest.raises(MantissaOverflow):
            encode_from_mant_block([E4M3.max_finite * 2], [0.0], 1.0, E4M3)

    def test_per_element_oracle(self, rng):
        p_r = rng.uniform(-E4M3.max_finite, E4M3.max_finite, 16)
        p_i = rng.uniform(-E4M3.max_finite, E4M3.max_finite, 16)
        b = encode_from_mant_block(p_r, p_i, 2.0**3, E4M3)
        for j in range(16):
            assert b.codes[2 * j] == quantize_scalar(p_r[j], E4M3)
            assert b.codes[2 * j + 1] == quantize_scalar(p_i[j], E4M3)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", [E4M3, E5M2], ids=lambda f: f.name)
    def test_half_ulp_at_block_scale(self, fmt, rng):
        for _ in range(200):
            bsize = int(rng.choice([2, 8, 32]))
            v = rng.standard_normal(bsize) * 10.0 ** rng.uniform(-4, 4)
            b = encode_block_mx(v, fmt)
            dec = b.codes * b.scale
            bound = b.scale * 2.0 ** (fmt.emax - fmt.mantissa_bits) / 2
            m = np.abs(v / b.scale)
            normal = (m >= fmt.min_normal) & (m <= fmt.max_finite)
            assert np.all(np.abs(v - dec)[normal] <= bound)

    def test_single_pow2_bit_exact(self):
        for e in (-6, 0, 9):
            b = encode_block_mx([0.0, 2.0**e, 0.0, 0.0], E4M3)
            assert np.array_equal(b.codes * b.scale, [0.0, 2.0**e, 0.0, 0.0])


@given(
    v=hnp.arrays(
        np.float64,
        8,
        # keep nonzero elements well clear of the FP64 subnormal range, where
        # the scale-exponent clamp (and ldexp rounding) breaks the shift relation
        elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(
            lambda x: x == 0.0 or abs(x) > 1e-200
        ),
    ),
    j=st.integers(min_value=-20, max_value=20),
)
@settings(max_examples=200)
def test_pow2_equivariance(v, j):
    assume(np.any(v != 0.0))  # all-zero blocks pin scale to 1.0
    a = encode_block_mx(v, E4M3)
    b = encode_block_mx(np.ldexp(v, j), E4M3)
    assert np.array_equal(a.codes, b.codes)
    assert b.scale == a.scale * 2.0**j


@given(
    v=hnp.arrays(
        np.float64,
        16,
        elements=st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
    )
)
@settings(max_examples=200)
def test_scale_always_pow2_and_codes_representable(v):
    b = encode_block_mx(v, E4M3)
    assert is_pow2_scale(b.scale)
    for c in b.codes:
        assert quantize_scalar(float(c), E4M3) == c
