import itertools

import numpy as np
import pytest

from mxfft import (
    E2M3,
    E3M2,
    E4M3,
    E5M2,
    ConfigError,
    MinifloatFormat,
    ModeSpec,
    ShapeError,
    UnsupportedSize,
    fft_1d,
    fft_2d,
    make_plan,
)
from mxfft.fftcore import _bit_reversal, _mx_multiply, _twiddles

import mx_oracle
from conftest import brute_dft
from mx_literal import butterfly_mx, decode_block_mx, encode_block_mx

WIDE = MinifloatFormat("wide", 8, 23, "ieee")


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestPlan:
    def test_bit_reversal_matches_loop(self):
        for n in (1 << b for b in range(1, 13)):
            perm = _bit_reversal(n)
            assert perm.dtype == np.intp
            assert np.array_equal(perm, mx_oracle._bit_reversal(n))

    def test_n2_twiddles(self):
        p = make_plan(2, ModeSpec.reference())
        assert np.array_equal(p.ref_twiddles[0], [1.0 + 0.0j])

    def test_n8_reference_twiddle(self):
        p = make_plan(8, ModeSpec.reference())
        w8 = p.ref_twiddles[2][1]  # W_8^1 in the last stage
        expect = np.sqrt(2) / 2 * (1 - 1j)
        assert abs(w8 - expect) < 1e-15

    def test_rejects_bad_sizes(self):
        for n in (0, 1, 3, 12, 100):
            with pytest.raises(UnsupportedSize):
                make_plan(n, ModeSpec.reference())

    def test_mx_twiddles_within_roundtrip_bound(self):
        p = make_plan(8, ModeSpec.mx(E4M3, 32))
        for s, (wcr, wci, ws) in enumerate(p.twiddles[0]):
            # one block row per stage: the table's first half-group, (1, 1, R, J, 1)
            dec = (wcr + 1j * wci) * ws
            ref = p.ref_twiddles[s][: dec.size].reshape(dec.shape)
            bound = ws * 2.0 ** (E4M3.emax - E4M3.mantissa_bits) / 2
            assert np.all(np.abs(dec.real - ref.real) <= bound)
            assert np.all(np.abs(dec.imag - ref.imag) <= bound)


class TestReferenceMode:
    @pytest.mark.parametrize("n", [2, 8, 64, 256])
    def test_matches_brute_dft(self, n, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p = make_plan(n, ModeSpec.reference())
        assert rel_l2(fft_1d(x, p), brute_dft(x)) <= 1e-10
        assert rel_l2(fft_1d(x, p, "inverse"), brute_dft(x, inverse=True)) <= 1e-10

    def test_parseval(self, rng):
        n = 128
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        X = fft_1d(x, make_plan(n, ModeSpec.reference()))
        lhs = np.sum(np.abs(X) ** 2)
        rhs = n * np.sum(np.abs(x) ** 2)
        assert abs(lhs - rhs) / rhs <= 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            fft_1d(np.zeros(8, complex), make_plan(16, ModeSpec.reference()))

    def test_2d_delta(self):
        p = make_plan(8, ModeSpec.reference())
        x = np.zeros((8, 8), complex)
        x[0, 0] = 1.0
        assert np.allclose(fft_2d(x, p), np.ones((8, 8)), atol=1e-14)

    def test_2d_separability(self, rng):
        n = 32
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p = make_plan(n, ModeSpec.reference())
        got = fft_2d(np.outer(a, b), p)
        want = np.outer(fft_1d(a, p), fft_1d(b, p))
        assert rel_l2(got, want) <= 1e-10

    def test_2d_roundtrip(self, rng):
        n = 64
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = make_plan(n, ModeSpec.reference())
        back = fft_2d(fft_2d(x, p), p, "inverse") / n**2
        assert rel_l2(back, x) <= 1e-9

    def test_2d_shape_checks(self):
        p = make_plan(8, ModeSpec.reference())
        with pytest.raises(UnsupportedSize):
            fft_2d(np.zeros((8, 4), complex), p)
        with pytest.raises(UnsupportedSize):
            fft_2d(np.zeros((16, 16), complex), p)


class TestButterflyMx:
    def test_unit_twiddle_zero_u(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = np.ones(4, complex)
        y0, y1 = butterfly_mx(np.zeros(4, complex), v, w, E4M3)
        inter = np.empty(8)
        inter[0::2] = v.real
        inter[1::2] = v.imag
        want = decode_block_mx(encode_block_mx(inter, E4M3))
        assert np.array_equal(y0, want.astype(np.complex64))
        assert np.array_equal(y1, -y0)

    def test_zero_v_short_circuit(self, rng):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = np.exp(-2j * np.pi * np.arange(4) / 8)
        y0, y1 = butterfly_mx(u, np.zeros(4, complex), w, E4M3)
        assert np.array_equal(y0, u.astype(np.complex64))
        assert np.array_equal(y1, u.astype(np.complex64))

    def test_wide_format_converges_to_exact(self, rng):
        u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        w = np.exp(-2j * np.pi * rng.uniform(0, 1, 16))
        y0, y1 = butterfly_mx(u, v, w, WIDE)
        assert rel_l2(y0, u + w * v) <= 1e-6
        assert rel_l2(y1, u - w * v) <= 1e-6

    def test_renormalization_triggers_and_stays_finite(self):
        # both operands at max_finite force mantissa products far above the
        # format's finite range
        m = E4M3.max_finite
        v = np.array([m + 0j, m + 0j])
        w = np.array([m + 0j, -m + 0j])
        y0, y1 = butterfly_mx(np.zeros(2, complex), v, w, E4M3)
        assert np.all(np.isfinite(y0)) and np.all(np.isfinite(y1))
        exact = w * v
        bound = 2.0 ** np.floor(np.log2(np.abs(exact))) * 2.0**-E4M3.mantissa_bits
        assert np.all(np.abs(y0 - exact) <= bound)

    def test_batched_path_matches_single_block(self, rng):
        # the transform's vectorized multiply, on the float32 planes it
        # carries, must agree bit-for-bit with the literal single-block butterfly
        for fmt, _ in itertools.product((E4M3, E5M2, E2M3, E3M2), range(20)):
            cpb = int(rng.choice([1, 4, 16]))
            u = rng.standard_normal(cpb) + 1j * rng.standard_normal(cpb)
            v = (rng.standard_normal(cpb) + 1j * rng.standard_normal(cpb)).astype(np.complex64)
            w = np.exp(-2j * np.pi * rng.uniform(0, 1, cpb))
            shape = (1, 1, 2, 1, cpb)  # one stage view holding exactly one block
            planes = np.stack((v.real, v.imag)).reshape(2, 1, 1, 1, cpb, 1)
            w_enc = _twiddles(w, shape, ModeSpec.mx(fmt, 2 * cpb))
            t = _mx_multiply(planes, w_enc, fmt).reshape(2, cpb)
            wv = t[0] + 1j * t[1]
            y0, y1 = butterfly_mx(u, v, w, fmt)
            u32 = u.astype(np.complex64)
            assert np.array_equal(y0, u32 + wv)
            assert np.array_equal(y1, u32 - wv)


class TestMxMode:
    def test_delta_exact(self):
        p = make_plan(8, ModeSpec.mx(E4M3, 32))
        x = np.zeros(8, complex)
        x[0] = 1.0
        assert np.array_equal(fft_1d(x, p), np.ones(8, np.complex64))

    def test_constant_dc_exact_offdc_bounded(self):
        p = make_plan(8, ModeSpec.mx(E4M3, 32))
        X = fft_1d(np.ones(8, complex), p)
        assert X[0] == 8.0
        assert np.max(np.abs(X[1:])) <= 8 * 2.0**-4

    def test_wide_format_converges_to_reference(self, rng):
        n = 64
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = fft_1d(x, make_plan(n, ModeSpec.reference()))
        got = fft_1d(x, make_plan(n, ModeSpec.mx(WIDE, 32)))
        assert rel_l2(got, ref) <= 1e-5

    def test_error_monotone_in_mantissa_bits(self, rng):
        n = 128
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = fft_1d(x, make_plan(n, ModeSpec.reference()))
        err = {
            f.name: rel_l2(fft_1d(x, make_plan(n, ModeSpec.mx(f, 32))), ref)
            for f in (E4M3, E5M2, E2M3, E3M2)
        }
        assert err["e4m3"] < err["e5m2"]
        assert err["e2m3"] < err["e3m2"]

    def test_pow2_linearity_bit_identical(self, rng):
        n = 64
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p = make_plan(n, ModeSpec.mx(E4M3, 32))
        assert np.array_equal(fft_1d(np.ldexp(x.real, 5) + 1j * np.ldexp(x.imag, 5), p),
                              fft_1d(x, p) * np.float32(2.0**5))

    def test_roundtrip_tolerance_monotone(self, rng):
        n = 64
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        errs = {}
        for f in (E4M3, E5M2):
            p = make_plan(n, ModeSpec.mx(f, 32))
            back = fft_2d(fft_2d(x, p), p, "inverse") / n**2
            errs[f.name] = rel_l2(back, x)
        assert errs["e4m3"] < errs["e5m2"]

    def test_determinism(self, rng):
        n = 256
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p = make_plan(n, ModeSpec.mx(E4M3, 32))
        assert np.array_equal(fft_1d(x, p), fft_1d(x, p))

    @pytest.mark.parametrize("block", [2, 8, 32])
    def test_inverse_uses_conjugate_twiddles(self, block, rng):
        n = 32
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p = make_plan(n, ModeSpec.mx(E4M3, block))
        fwd_conj = np.conj(fft_1d(np.conj(x), p, "forward"))
        inv = fft_1d(x, p, "inverse")
        assert rel_l2(inv, fwd_conj) <= 1e-6


class TestFp16Mode:
    def test_delta_exact(self):
        p = make_plan(8, ModeSpec.fp16())
        x = np.zeros(8, complex)
        x[0] = 1.0
        assert np.array_equal(fft_1d(x, p), np.ones(8, np.complex64))

    def test_accuracy_64pt(self, rng):
        # observed max over 20 seeds was 7.4e-4; frozen regression bound 2e-3
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        got = fft_1d(x, make_plan(64, ModeSpec.fp16()))
        assert rel_l2(got, brute_dft(x)) <= 2e-3

    def test_beats_e5m2(self, rng):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        ref = brute_dft(x)
        e16 = rel_l2(fft_1d(x, make_plan(64, ModeSpec.fp16())), ref)
        e52 = rel_l2(fft_1d(x, make_plan(64, ModeSpec.mx(E5M2, 32))), ref)
        assert e16 < e52


@pytest.mark.parametrize("block", [0, 3, 6, 12, 24])
def test_mx_blocks_must_be_powers_of_two(block):
    # stage views split each half-group into B/2-value blocks, so B/2 must be
    # a power of two
    with pytest.raises(ConfigError, match="block_size"):
        ModeSpec.mx(E4M3, block)


def test_mode_from_name():
    assert ModeSpec.from_name("reference").kind == "reference"
    assert ModeSpec.from_name("fp16").kind == "fp16"
    m = ModeSpec.from_name("e4m3", 8)
    assert m.kind == "mx" and m.fmt is E4M3 and m.block_size == 8
    with pytest.raises(KeyError):
        ModeSpec.from_name("e9m9")
