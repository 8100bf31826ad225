import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mxfft import (
    E2M3,
    E3M2,
    E4M3,
    E5M2,
    FORMATS,
    ConfigError,
    FftPlan,
    InvalidValue,
    MinifloatFormat,
    ModeSpec,
    ShapeError,
    UnsupportedSize,
    fft_1d,
    fft_2d,
    get_format,
    make_plan,
    quantize_array,
)
from mxfft import cli, fftcore
from mxfft.cli import MODE_NAMES
from mxfft.fftcore import _mx_multiply, _twiddles

import fft_oracle
import mx_oracle
from conftest import brute_dft
from mx_literal import butterfly_mx, decode_block_mx, encode_block_mx
from test_mx_kernel import E6M11

WIDE = MinifloatFormat("wide", 8, 23, "ieee")


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestPlan:
    def test_bit_reversal_matches_loop(self):
        for n in (1 << b for b in range(1, 17)):
            perm = FftPlan(n, ModeSpec.reference()).bitrev
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
        for s, ((wr, wi), ws) in enumerate(p.twiddles[0]):
            # one block row per stage: the table's first half-group, (1, 1, R, J, 1)
            dec = wr + 1j * wi
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

    def test_code_products_sum_in_float32_outside_the_decoded_window(self):
        # N=1024, stage 9's twiddle 255, and one E4M3 block of v far below
        # the decoded window: the twiddle code saturates at -448, and
        # -448 * 384 = -21 * 2^13 is an E4M3 midpoint.  The other product is
        # below 2^-24 of it, so the float32 sum rounds onto the midpoint and
        # ties-to-even moves it a step; a float64 sum would give -2.1185229e-33.
        w = np.exp(-2j * np.pi * np.array([255]) / 1024)
        v = np.array([(3072 - 0.0146484375j) * 2.0**-120], dtype=np.complex64)
        planes = np.stack((v.real, v.imag)).reshape(2, 1, 1, 1, 1, 1)
        t = _mx_multiply(planes, _twiddles(w, (1, 1, 2, 1, 1), ModeSpec.mx(E4M3, 2)), E4M3).ravel()
        assert t.tolist() == np.array([1.5046328e-35, -1.92593e-33], dtype=np.float32).tolist()
        y0, _ = butterfly_mx(np.zeros(1), v, w, E4M3)
        assert np.array_equal(y0, t[:1] + 1j * t[1:])


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
        (lambda: ModeSpec.mx(E4M3, 32.0), "block_size"),
        (lambda: fft_1d(np.ones(4), make_plan(4, ModeSpec.reference()), "backward"), "direction"),
        (lambda: fft_2d(np.ones((4, 4)), make_plan(4, ModeSpec.mx(E4M3)), "backward"), "direction"),
        (lambda: make_plan(8, "e4m3"), "mode"),
        (lambda: FftPlan(8, "e4m3"), "mode"),
        (functools.partial(get_format, ["e4m3"]), "format"),
    ],
)
def test_bad_modes_and_directions_name_the_field(build, field):
    with pytest.raises(ConfigError, match=f"^{field}: "):
        build()


@pytest.mark.parametrize("plan", [None, "e4m3", ModeSpec.reference()])
@pytest.mark.parametrize("transform, x", [(fft_1d, np.ones(4)), (fft_2d, np.ones((4, 4)))])
def test_a_plan_that_is_not_an_fft_plan_is_a_config_error(transform, x, plan):
    with pytest.raises(ConfigError, match="^plan: must be an FftPlan"):
        transform(x, plan)


def test_mx_modes_take_exactly_the_formats_with_exact_float32_code_products():
    # code products of 2(M + 1) <= 24 bits whose sums, up to 2 * max_finite^2,
    # stay finite in float32: E <= 6 and M <= 11.  Every such format has a
    # non-empty decoded window; the others stay valid element formats.
    for e, m, policy in itertools.product(range(2, 11), range(1, 53), ("ieee", "extended", "finite")):
        fmt = MinifloatFormat(f"e{e}m{m}", e, m, policy)
        if e <= 6 and m <= 11:
            assert ModeSpec.mx(fmt).fmt is fmt
            lo, hi = fftcore._decoded_scales(fmt)
            assert lo <= hi, fmt
        else:
            with pytest.raises(ConfigError, match=f"^fmt: e{e}m{m}: ") as exc:
                ModeSpec.mx(fmt)
            assert exc.value.field == "fmt"
            assert quantize_array([1.0, 3.0], fmt).tolist() == [1.0, 3.0]


@pytest.mark.parametrize("policy", ["ieee", "extended", "finite"])
def test_mx_formats_whose_code_products_overflow_float64_are_rejected(policy):
    # a stage's sums of code products reach 2 * max_finite^2: beyond the
    # float64 range with 10 exponent bits; the float32 rule (E <= 6) rejects
    # them too, and the widest accepted exponent keeps every output finite
    e10 = MinifloatFormat("e10m3", 10, 3, policy)
    with pytest.raises(ConfigError, match="^fmt: e10m3: "):
        ModeSpec.mx(e10)
    assert quantize_array([1.0, 3.0], e10).tolist() == [1.0, 3.0]  # a valid element format
    plan = make_plan(8, ModeSpec.mx(MinifloatFormat("e6m3", 6, 3, policy)))
    assert np.all(np.isfinite(fft_2d(np.ones((8, 8)), plan)))
    grid = np.random.default_rng(0).standard_normal((8, 8))
    assert np.all(np.isfinite(fft_2d(grid, plan)))


@pytest.mark.parametrize("transform, x", [(fft_1d, "abc"), (fft_2d, "abc"), (fft_1d, [object()] * 8)])
def test_input_that_is_not_numbers_is_a_typed_error(transform, x):
    with pytest.raises(InvalidValue, match="^x must be an array of numbers"):
        transform(x, make_plan(8, ModeSpec.reference()))


@pytest.mark.parametrize("x", [["1", "2"], np.array([1, 2], dtype=object), np.array([b"1", b"2"])])
def test_input_of_a_non_numeric_dtype_is_rejected(x):
    # numpy would parse the strings and cast the objects; the dtype kind is checked first
    with pytest.raises(InvalidValue, match="^x must be an array of numbers, got dtype"):
        fft_1d(x, make_plan(2, ModeSpec.reference()))


def test_complex128_input_is_not_copied():
    x = np.ones(4, dtype=np.complex128)
    assert fftcore._complex_array(x, "x") is x
    assert fftcore._complex_array([True, 1, 2.5, 1j], "x").tolist() == [1, 1, 2.5, 1j]


def test_mode_names_and_default_block_live_with_mode_spec():
    assert cli.MODE_NAMES is fftcore.MODE_NAMES
    assert all(ModeSpec.from_name(name) for name in MODE_NAMES)
    default = ModeSpec.block_size
    assert ModeSpec.mx(E4M3).block_size == ModeSpec.from_name("e4m3").block_size == default
    for command, block in (["forward"], default), (["sweep"], str(default)):
        assert cli.build_parser().parse_args(command).block == block


def test_float_size_is_a_typed_error():
    with pytest.raises(UnsupportedSize, match="integer power of two"):
        make_plan(8.0, ModeSpec.reference())


def test_make_plan_builds_each_size_and_mode_once():
    mode = ModeSpec.mx(E4M3, 8)
    plan = make_plan(8, mode)
    assert make_plan(8, ModeSpec.mx(E4M3, 8)) is plan
    assert make_plan(np.int64(8), mode) is plan
    # 8.0 == 8 and hashes alike, so a cache keyed on the raw size would
    # return 8's plan; a list is unhashable
    for n in (8.0, [8]):
        with pytest.raises(UnsupportedSize, match="integer power of two"):
            make_plan(n, mode)


def test_numpy_integer_sizes_are_accepted():
    plan = make_plan(np.int64(8), ModeSpec.mx(E4M3, np.int64(8)))
    assert plan.n == 8 and plan.stages == 3


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
    return make_plan(n, ModeSpec.from_name(name, block))


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


@pytest.mark.parametrize("coils", [1, 2, 3])  # at N=128: one chunk of 1, one of 2, 2 + 1
@pytest.mark.parametrize("name", MODE_NAMES)
def test_out_equals_a_new_result(name, coils, rng):
    x = rng.standard_normal((coils, 128, 128)) + 1j * rng.standard_normal((coils, 128, 128))
    plan = _named_plan(128, name, 32)
    for direction in ("forward", "inverse"):
        want = fft_2d(x, plan, direction)
        out = np.full_like(x, np.nan)
        assert fft_2d(x, plan, direction, out=out) is out
        in_place = x.copy()
        assert fft_2d(in_place, plan, direction, out=in_place) is in_place
        for got in (out, in_place):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_out_of_a_single_grid_and_of_a_strided_view(rng):
    plan = _named_plan(16, "e4m3", 32)
    x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    want = fft_2d(x, plan)
    wide = np.zeros((3, 16, 32), dtype=np.complex128)
    view = wide[1, :, ::2]
    view[...] = x
    assert fft_2d(view, plan, out=view) is view
    assert np.array_equal(view.copy().view(np.uint64), want.view(np.uint64))
    assert not wide[1, :, 1::2].any() and not wide[0].any() and not wide[2].any()


@pytest.mark.parametrize(
    "out",
    [
        np.zeros((2, 8, 8), dtype=np.complex64),
        np.zeros((1, 8, 8), dtype=np.complex128),
        np.zeros((2, 8, 8)),
        [[0j] * 8] * 8,
    ],
)
def test_an_out_that_cannot_hold_the_result_names_it(out):
    x = np.ones((2, 8, 8), dtype=np.complex128)
    with pytest.raises(ConfigError, match="^out: must be a writeable complex128 array"):
        fft_2d(x, _named_plan(8, "reference", 32), out=out)


@pytest.mark.parametrize("name", ["reference", "fp16", "e4m3"])
def test_an_empty_stack_gives_an_empty_result(name):
    x = np.ones((0, 8, 8))
    plan = _named_plan(8, name, 32)
    for got in (fft_2d(x, plan), fft_2d(x, plan, out=np.empty((0, 8, 8), dtype=np.complex128))):
        assert got.shape == (0, 8, 8) and got.dtype == np.fft.fft2(x).dtype == np.complex128


def test_a_read_only_or_overlapping_out_names_it():
    plan = _named_plan(8, "e4m3", 32)
    x = np.ones((3, 8, 8), dtype=np.complex128)
    frozen = np.zeros_like(x)
    frozen.flags.writeable = False
    with pytest.raises(ConfigError, match="^out: must be a writeable"):
        fft_2d(x, plan, out=frozen)
    stack = np.ones((4, 8, 8), dtype=np.complex128)
    with pytest.raises(ConfigError, match="^out: must be x itself or share no memory"):
        fft_2d(stack[:3], plan, out=stack[1:])
    assert np.all(stack == 1)


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


def _exact_stages(plan):
    """The stages that run the exact form of the multiply, in both directions;
    the inverse twiddles, the conjugates, give the same stages."""
    stages = [s for s, exact in enumerate(plan.exact) if exact]
    assert stages == [s for s, w in enumerate(plan.twiddles[1]) if fftcore._unit_twiddles(w, plan.mode)]
    return stages


@pytest.mark.parametrize("block", [2, 32])
def test_exact_twiddle_stages(block):
    # stage 0 multiplies by 1; stage 1 by 1 and -i (or i), where cos(pi/2) =
    # 6.1e-17 flushes to 0 in every shipped format but not in E6M11
    for name in MODE_NAMES:
        want = [] if name == "reference" else [0, 1]
        assert _exact_stages(make_plan(64, ModeSpec.from_name(name, block))) == want
    assert _exact_stages(make_plan(64, ModeSpec.mx(E6M11, block))) == [0]
    assert _exact_stages(make_plan(2, ModeSpec.fp16())) == [0]


def _stage_v(rng, plan, s, e):
    """Random float32 v planes of stage s, (2, G, K, R, J, batch=3), at 2^e,
    with a fifth of the values +0 or -0."""
    g, k, _, r, j = plan.shapes[s]
    v = rng.standard_normal((2, g, k, r, j, 3)) * 2.0**e
    v *= 4.0 ** rng.integers(-3, 4, (1, g, 1, 1, 1, 3))  # blocks spread over 12 binades
    zero = rng.random(v.shape) < 0.2
    v[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    with np.errstate(over="ignore"):
        return v.astype(np.float32)


def _outcome(multiply, v, w, **kw):
    try:
        return multiply(np.array(v), w, **kw).view(np.uint32)
    except InvalidValue as exc:
        return str(exc)


@given(
    fmt=st.sampled_from([E4M3, E5M2, E2M3, E3M2, E6M11, None]),  # None: the FP16 control
    block=st.sampled_from([2, 8, 32, 64]),
    log_n=st.integers(1, 7),
    stage=st.integers(0, 1),
    inverse=st.integers(0, 1),
    e=st.integers(-150, 130),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
@example(fmt=None, block=2, log_n=4, stage=0, inverse=0, e=130, seed=1_752_373_519)
def test_exact_multiply_equals_the_requantizing_one(fmt, block, log_n, stage, inverse, e, seed):
    # on a stage of unit twiddles, skipping the requantize changes no bit,
    # the sign of zero included, and raises where the full multiply raises
    mode = ModeSpec.fp16() if fmt is None else ModeSpec.mx(fmt, block)
    plan = make_plan(1 << log_n, mode)
    assume(stage < plan.stages and plan.exact[stage])
    w = plan.twiddles[inverse][stage]
    v = _stage_v(np.random.default_rng(seed), plan, stage, e)
    kw = {} if fmt is None else {"fmt": fmt}
    multiply = fftcore._fp16_multiply if fmt is None else _mx_multiply
    full = _outcome(multiply, v, w, **kw)
    exact = _outcome(multiply, v, w, exact=True, **kw)
    if isinstance(full, str):
        assert exact == full
    else:
        assert np.array_equal(exact, full)
