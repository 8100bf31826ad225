import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mxfft import (
    E2M3,
    E3M2,
    E4M3,
    E5M2,
    FORMATS,
    ConfigError,
    InvalidValue,
    MinifloatFormat,
    ModeSpec,
    ShapeError,
    UnsupportedSize,
    fft_1d,
    fft_2d,
    make_plan,
)
from mxfft import fftcore, mri
from mxfft.cli import MODE_NAMES
from mxfft.fftcore import _bit_reversal, _mx_multiply, _twiddles

import fft_oracle
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
        assert np.array_equal(fft_oracle._twiddles(2)[0], [1.0 + 0.0j])
        assert np.array_equal(p.twiddles[0][0].ravel(), [1.0 + 0.0j])

    def test_n8_reference_twiddle(self):
        p = make_plan(8, ModeSpec.reference())
        expect = np.sqrt(2) / 2 * (1 - 1j)
        for w in (fft_oracle._twiddles(8)[2], p.twiddles[0][2].ravel()):
            assert abs(w[1] - expect) < 1e-15  # W_8^1 in the last stage

    def test_rejects_bad_sizes(self):
        for n in (0, 1, 3, 12, 100):
            with pytest.raises(UnsupportedSize):
                make_plan(n, ModeSpec.reference())

    def test_mx_twiddles_within_roundtrip_bound(self):
        p = make_plan(8, ModeSpec.mx(E4M3, 32))
        for s, (wcr, wci, ws) in enumerate(p.twiddles[0]):
            # one block row per stage: the table's first half-group, (1, 1, R, J, 1)
            dec = (wcr + 1j * wci) * ws
            ref = fft_oracle._twiddles(8)[s][: dec.size].reshape(dec.shape)
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
        for shape in [(8, 4), (16, 16), (8,), (2, 8, 4), (2, 16, 16), (1, 2, 8, 8)]:
            with pytest.raises(UnsupportedSize):
                fft_2d(np.zeros(shape, complex), p)


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

    # FP16 max_finite is 65504; float16 rounds [65504, 65520) down to it and
    # 65520 and above to inf.  Each case puts one rounding at the boundary:
    # an input; a v carried in float32 (x1 + x3 after stage 0 of n = 4); a
    # sum of rounded twiddle products (W_8^1 = c - ic, c = 0.70703125 in FP16,
    # times v = x1 at the last stage of n = 8: c*46336 -> 32768 and
    # c*46304 -> 32736).
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "n, values, ok",
        [
            (2, {1: 65504.0}, True),
            (2, {1: 65519.99}, True),
            (2, {1: 65520.0}, False),
            (2, {1: -65520.0j}, False),
            (4, {1: 32752.0, 3: 32752.0}, True),
            (4, {1: 32752.0, 3: 32768.0}, False),
            (8, {1: 46336 + 46304j}, True),
            (8, {1: 46336 + 46336j}, False),
        ],
    )
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_range_boundary_matches_frozen_oracle(self, n, values, ok, direction):
        x = np.zeros(n, complex)
        for i, v in values.items():
            x[i] = v
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                want = fft_oracle.fft_1d(x, "fp16", direction)
            except InvalidValue:  # its output quantize rejects the infinities
                want = None
        assert (want is not None) == ok
        plan = make_plan(n, ModeSpec.fp16())
        if ok:
            assert np.array_equal(fft_1d(x, plan, direction), want)
        else:
            with pytest.raises(InvalidValue, match="FP16 range"):
                fft_1d(x, plan, direction)


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
    with pytest.raises(ConfigError):
        ModeSpec.from_name("e9m9")


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ModeSpec.from_name("e9m9"), "format"),
        (lambda: ModeSpec("weird"), "kind"),
        (lambda: make_plan(16, ModeSpec("mx")), "fmt"),
        (lambda: ModeSpec.mx("e4m3"), "fmt"),
        (lambda: fft_1d(np.ones(4), make_plan(4, ModeSpec.reference()), "backward"), "direction"),
        (lambda: fft_2d(np.ones((4, 4)), make_plan(4, ModeSpec.mx(E4M3)), "backward"), "direction"),
    ],
)
def test_bad_modes_and_directions_name_the_field(build, field):
    with pytest.raises(ConfigError, match=f"^{field}: "):
        build()


@functools.lru_cache(maxsize=None)
def _mx_plan(n, fmt, block):
    return make_plan(n, ModeSpec.mx(fmt, block))


def _in_f32_normal_range(*arrays):
    """True if every real and imaginary part is 0 or a normal float32 magnitude."""
    f32 = np.finfo(np.float32)
    for a in arrays:
        m = np.abs(a.view(np.float64))
        if not np.all((m == 0) | ((m >= f32.tiny) & (m <= f32.max))):
            return False
    return True


@given(
    fmt=st.sampled_from(list(FORMATS.values())),
    block=st.sampled_from([2, 8, 32, 64]),
    log_n=st.integers(1, 8),
    direction=st.sampled_from(["forward", "inverse"]),
    k=st.integers(-30, 30),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_pow2_linearity_property(fmt, block, log_n, direction, k, seed):
    # shared scales and decodes are powers of two, so scaling the input by
    # 2^k scales every MX value by 2^k exactly while it stays float32-normal
    n = 1 << log_n
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    plan = _mx_plan(n, fmt, block)
    want = fft_2d(x, plan, direction) * 2.0**k
    assume(_in_f32_normal_range(x * 2.0**k, want))
    got = fft_2d(x * 2.0**k, plan, direction)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _named_plan(n, name, block):
    return mri._plan(n, ModeSpec.from_name(name, block))


def _assert_stack_equals_per_coil(x, plan, direction):
    got = fft_2d(x, plan, direction)
    assert got.shape == x.shape and got.dtype == np.complex128
    for c in range(len(x)):
        want = fft_2d(x[c], plan, direction)
        assert np.array_equal(got[c].view(np.uint64), want.view(np.uint64))


@given(
    name=st.sampled_from(MODE_NAMES),
    block=st.sampled_from([2, 8, 32]),
    log_n=st.integers(1, 8),
    coils=st.integers(1, 5),
    direction=st.sampled_from(["forward", "inverse"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_stack_equals_per_coil_property(name, block, log_n, coils, direction, seed):
    # a chunk's coils are extra batch columns of the stage driver, and no MX
    # block spans two columns, so stacking changes no bit
    n = 1 << log_n
    coils = min(coils, 2) if n == 256 else coils
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((coils, n, n)) + 1j * rng.standard_normal((coils, n, n))
    _assert_stack_equals_per_coil(x, _named_plan(n, name, block), direction)


@pytest.mark.parametrize("n, coils", [(128, 3), (256, 2)])  # chunks of 2 + 1, and of 1 + 1
@pytest.mark.parametrize("name", MODE_NAMES)
def test_multi_chunk_stack_equals_per_coil(name, n, coils, rng):
    assert max(1, fftcore.COIL_CHUNK_ELEMS // (n * n)) < coils
    x = rng.standard_normal((coils, n, n)) + 1j * rng.standard_normal((coils, n, n))
    for direction in ("forward", "inverse"):
        _assert_stack_equals_per_coil(x, _named_plan(n, name, 32), direction)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, big", [("reference", 1e308), ("fp16", 1e5), ("e4m3", 1e39)])
def test_one_out_of_range_coil_raises_as_it_does_alone(name, big, rng):
    # the bad coil sits in the second chunk of a 3-coil N=128 stack
    x = rng.standard_normal((3, 128, 128)).astype(np.complex128)
    x[2, 5, :] = big
    plan = _named_plan(128, name, 32)
    with pytest.raises(InvalidValue) as alone:
        fft_2d(x[2], plan)
    with pytest.raises(InvalidValue) as stacked:
        fft_2d(x, plan)
    assert str(stacked.value) == str(alone.value)
