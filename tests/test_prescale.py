import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prescale_oracle
from mxfft import (
    ComplexGrid,
    ConfigError,
    InvalidValue,
    ModeSpec,
    PrescaleConfig,
    apply_prescale,
    compute_prescale,
    forward_pipeline,
    gen_phantom,
    make_plan,
    mri,
    undo_prescale,
)
from mxfft.fftcore import MODE_NAMES
from mxfft.prescale import _SAMPLE

CFG = PrescaleConfig()


class TestConfig:
    def test_defaults(self):
        assert CFG.target == 1.0
        assert CFG.tau == 1.0
        assert CFG.tau_min == 2.0**-20
        assert (CFG.k_min, CFG.k_max) == (-40, 40)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(target=0.0),
            dict(tau=0.0),
            dict(tau=100.0),
            dict(tau_min=-1.0),
            dict(k_min=5, k_max=-5),
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ConfigError):
            PrescaleConfig(**kw)

    @pytest.mark.parametrize(
        "kw, field",
        [
            (dict(target=math.inf), "target"),
            (dict(tau_min=math.inf), "tau_min"),
            (dict(k_min=-1023), "k_min"),
            (dict(k_min=-1100, k_max=-1100), "k_min"),
            (dict(k_max=1023), "k_max"),
            (dict(k_min=-1.5, k_max=-1.5), "k_min"),
            (dict(k_max=2.0), "k_max"),
            (dict(target="1"), "target"),
            (dict(tau=None), "tau"),
            (dict(tau_min="1e-6"), "tau_min"),
            (dict(target=10**400), "target"),  # beyond float64: no OverflowError
            (dict(tau_min=10**400), "tau_min"),
        ],
    )
    def test_rejects_unbounded_fields_naming_them(self, kw, field):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            PrescaleConfig(**kw)

    def test_gain_limits_keep_both_powers_normal(self):
        # +-1022 is accepted and undone exactly; one step further is not
        cfg = PrescaleConfig(k_min=-1022, k_max=1022)
        x = np.array([1.5 + 0.5j])
        for k in (cfg.k_min, cfg.k_max):
            assert np.array_equal(undo_prescale(apply_prescale(x, k), k), x)
        with pytest.raises(ConfigError, match="^k_max: "):
            PrescaleConfig(k_min=-1022, k_max=1023)


class TestComputePrescale:
    def test_at_target(self):
        x = np.array([1.0, 0.5, 0.25], dtype=complex)
        r = compute_prescale(x, CFG)
        assert r.k1 == 0 and r.k == 0
        assert r.a_max == 1.0

    def test_quarter_peak(self):
        x = np.array([0.25, 0.1], dtype=complex)
        r = compute_prescale(x, CFG)
        assert r.k1 == 2 and r.k == 2

    def test_all_zero_input(self):
        x = np.zeros((4, 4), dtype=complex)
        r = compute_prescale(x, CFG)
        assert r.a_max == 0.0 and r.p_tau == 0.0
        assert r.k1 == round(math.log2(CFG.target / 1e-30))
        assert r.k == CFG.k_max

    def test_tail_limited(self):
        # peak already at target, but the 1st-percentile tail sits below the
        # floor: k2 must lift it
        x = np.ones(1000, dtype=complex)
        x[:500] = 2.0**-30
        r = compute_prescale(x, CFG)
        assert r.k1 == 0
        assert r.k2 == math.ceil(math.log2(CFG.tau_min / 2.0**-30))
        assert r.k == r.k2 > 0

    def test_clipped(self):
        x = np.array([2.0**-60], dtype=complex)
        r = compute_prescale(x, CFG)
        assert r.k1 == 60
        assert r.k == CFG.k_max

    def test_invariant_k_formula(self, rng):
        for _ in range(20):
            x = rng.standard_normal((8, 8)) * 10.0 ** rng.uniform(-9, 9)
            r = compute_prescale(x.astype(complex), CFG)
            assert r.k == min(max(max(r.k1, r.k2), CFG.k_min), CFG.k_max)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidValue):
            compute_prescale(np.array([np.inf]), CFG)

    @pytest.mark.parametrize("x", [["a"], [True], np.array([1.0, None])])
    def test_non_numeric_rejected(self, x):
        with pytest.raises(InvalidValue, match="numeric, got dtype"):
            compute_prescale(x, CFG)

    @pytest.mark.parametrize("x", [[[1], [1, 2]], [1.0, [2.0, 3.0]]])
    def test_ragged_input_rejected(self, x):
        with pytest.raises(InvalidValue, match="^prescale input must be numeric: "):
            compute_prescale(x, CFG)

    def test_infinite_tail_magnitude_reads_inf(self):
        # finite parts whose magnitudes all overflow: the tail pair is (inf, inf)
        grid = ComplexGrid(np.full((1, 8, 8), 1.7e308 + 1.7e308j), "kspace")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = compute_prescale(grid.data, CFG)
            assert (r.k, r.a_max, r.p_tau) == (CFG.k_min, math.inf, math.inf)
            for mode in ("reference", "fp16", "e4m3"):
                with pytest.raises(InvalidValue):
                    forward_pipeline(grid, make_plan(8, ModeSpec.from_name(mode)), CFG)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_signed_integer_minimum_matches_its_float64_copy(self, dtype):
        # np.abs maps a signed type's minimum onto itself
        x = np.array([np.iinfo(dtype).min, 1], dtype=dtype)
        assert compute_prescale(x, CFG) == compute_prescale(x.astype(np.float64), CFG)

    @pytest.mark.parametrize("cfg", [None, {"tau": 1.0}, 1.0])
    def test_config_that_is_not_a_prescale_config_names_cfg(self, cfg):
        with pytest.raises(ConfigError, match="^cfg: must be a PrescaleConfig"):
            compute_prescale(np.ones(4), cfg)

    def test_empty_rejected(self):
        with pytest.raises(InvalidValue, match="empty"):
            compute_prescale([], CFG)

    @pytest.mark.parametrize(
        "x, cfg, k",
        [
            # target / EPS and tau_min / EPS overflow FP64; target / a_max underflows
            (np.zeros(4), PrescaleConfig(target=1e300), 40),
            (np.zeros(4), PrescaleConfig(tau_min=1e300), 40),
            (np.full(4, 1e10), PrescaleConfig(target=1e-320), -40),
        ],
    )
    def test_extreme_gain_ratios_clip_to_bounds(self, x, cfg, k):
        assert compute_prescale(x, cfg).k == k

    def test_peak_lands_within_half_octave(self, rng):
        cfg = PrescaleConfig(k_min=-1000, k_max=1000, tau_min=1e-300)
        for _ in range(20):
            x = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * 10.0 ** rng.uniform(-8, 8)
            r = compute_prescale(x, cfg)
            peak = np.abs(x).max() * 2.0**r.k
            assert abs(math.log2(peak / cfg.target)) <= 0.5


class TestApplyUndo:
    def test_identity_at_zero(self, rng):
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.array_equal(apply_prescale(x, 0), x)

    def test_exact_peak_move(self):
        x = np.array([0.25 + 0.0j])
        assert np.abs(apply_prescale(x, 2)).max() == 1.0

    @pytest.mark.parametrize("k", [5000, 1100, -1023, 1.0, 2.5, None])
    def test_k_outside_the_integer_limit_names_it(self, k):
        # 2^5000 overflows math.ldexp; 2^-1100 would silently zero the data
        for call in (apply_prescale, undo_prescale):
            with pytest.raises(ConfigError, match="^k: must be an integer in"):
                call(np.ones(4), k)

    @pytest.mark.parametrize("k", [-64, -17, -3, 0, 3, 17, 64])
    def test_roundtrip_bit_identical(self, k, rng):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        back = undo_prescale(apply_prescale(x, k), k)
        assert np.array_equal(back, x)


@given(j=st.integers(min_value=-10, max_value=10))
@settings(max_examples=60)
def test_pow2_input_shifts_k1(j):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    base = compute_prescale(x, CFG)
    shifted = compute_prescale(apply_prescale(x, j), CFG)
    assert shifted.k1 == base.k1 - j


@pytest.mark.parametrize("n, seed", [(16, 0), (32, 1)])
def test_prescale_moves_no_mx_or_reference_bit(n, seed):
    # every MX scale is a power of two, so 2^k moves no code, and float32 and
    # float64 roundings commute with 2^k while values stay normal: the
    # pipelines' pixels are those at k = 0.  The FP16 control's fixed
    # exponent range is what the prescale guards, and its pixels move.
    image, kspace = gen_phantom(n, 2, seed)
    modes = [ModeSpec.reference()] + [ModeSpec.from_name(m, b) for m in MODE_NAMES[2:] for b in (2, 8, 32)]
    for grid in (kspace, image):
        for mode in modes + [ModeSpec.fp16()]:
            plan = make_plan(n, mode)
            want = mri._pipeline(grid, plan, 0).pixels.view(np.uint64)
            same = []
            for k in (-40, -20, -5, 3, 17, 40):
                try:
                    same.append(np.array_equal(mri._pipeline(grid, plan, k).pixels.view(np.uint64), want))
                except InvalidValue:  # only the FP16 control leaves its range
                    assert mode.kind == "fp16"
                    same.append(False)
            assert all(same) if mode.kind != "fp16" else not any(same[:2]), (mode, grid.domain, same)


class TestApplyOverflow:
    def test_overflow_is_a_typed_error_and_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValue, match="^prescale by 2\\^40 overflows"):
                apply_prescale(np.array([1e300]), 40)

    def test_overflow_leaves_the_input_as_it_was(self):
        # no in-place form: numpy writes the whole product before the overflow is seen
        x = np.array([1e300, 1.0])
        with pytest.raises(TypeError):
            apply_prescale(x, 40, out=x)
        with pytest.raises(InvalidValue):
            apply_prescale(x, 40)
        assert x.tolist() == [1e300, 1.0]

    def test_pipeline_overflow_is_a_typed_error_and_no_warning(self):
        # the tail lifts k to k_max = 40, which takes the one large sample past the float64 max
        data = np.full((1, 8, 8), 1e-300 + 0j)
        data[0, 0, 0] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValue, match="^prescale by 2\\^40 overflows"):
                forward_pipeline(ComplexGrid(data, "kspace"), make_plan(8, ModeSpec.from_name("e4m3")), CFG)

    @pytest.mark.parametrize("out", [False, True])
    def test_undo_overflow_is_a_typed_error_and_no_warning(self, out):
        x = np.array([1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValue, match="^undo of the prescale by 2\\^-40 overflows"):
                undo_prescale(x, -40, out=x if out else None)


@pytest.mark.parametrize("call", [apply_prescale, undo_prescale])
class TestApplyUndoInput:
    # the same reader, and the same messages, as compute_prescale's
    @pytest.mark.parametrize("x", [[[1], [1, 2]], [1.0, [2.0, 3.0]]])
    def test_ragged_input_rejected(self, call, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValue, match="^prescale input must be numeric: "):
                call(x, 0)

    @pytest.mark.parametrize("x", [["a"], None, [True], np.array([1.0, None])])
    def test_non_numeric_rejected(self, call, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValue, match="^prescale input must be numeric, got dtype "):
                call(x, 0)

    @pytest.mark.parametrize("x", [[3], np.array([3], np.uint8), [1.5], [1 + 2j]])
    def test_integer_float_and_complex_input_scale(self, call, x):
        assert np.array_equal(call(x, 0), np.asarray(x))


# ---------------------------------------------------------------------------
# compute_prescale equals the frozen np.percentile version, field for field
# ---------------------------------------------------------------------------

ORACLE_DTYPES = [np.complex128, np.complex64, np.float64, np.float32, np.float16, np.int8, np.int32, np.uint16]


def _outcome(x, cfg):
    """(package result or error, oracle result or error)"""
    out = []
    for f in (compute_prescale, prescale_oracle.compute_prescale):
        try:
            out.append(f(x, cfg))
        except InvalidValue as exc:
            out.append((type(exc), str(exc)))
    return out


def _assert_matches_oracle(x, cfg=CFG):
    got, want = _outcome(x, cfg)
    assert got == want
    return got


@given(
    dtype=st.sampled_from(ORACLE_DTYPES),
    size=st.one_of(st.integers(1, 64), st.integers(1, 70_000)),
    zero_share=st.sampled_from([0.0, 0.0, 0.01, 0.3, 0.9, 0.999, 1.0]),
    repeats=st.booleans(),
    decades=st.floats(-6, 6),
    tau=st.one_of(st.sampled_from([1e-6, 0.5, 1.0, 50.0, 99.0, 99.9999]), st.floats(1e-6, 99.9999)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_matches_frozen_percentile_oracle(dtype, size, zero_share, repeats, decades, tau, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(-3, 4, size).astype(float) if repeats else rng.standard_normal(size)
    x *= 10.0**decades
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal(size) * 10.0**decades
    x[rng.random(size) < zero_share] = 0
    if np.dtype(dtype).kind in "iu":
        info = np.iinfo(dtype)
        x = np.clip(np.round(x.real), info.min, info.max)
    with np.errstate(over="ignore"):  # float16 saturates to inf: the typed error is compared too
        x = x.astype(dtype)
    _assert_matches_oracle(x, PrescaleConfig(tau=tau))


class TestMatchesOracleCases:
    N = 100_000
    STRIDE = (N // _SAMPLE) | 1  # the sample's stride at this size

    def test_sample_holding_only_the_smallest_forces_the_whole_array(self):
        # the sampled magnitudes are the smallest, so the sample's threshold
        # admits fewer values than the 1st percentile's rank
        x = np.ones(self.N)
        on = np.arange(0, self.N, self.STRIDE)
        x[on] = 1e-6 * np.arange(1, on.size + 1)
        r = _assert_matches_oracle(x)
        assert r.p_tau < 1.0

    def test_smallest_magnitudes_off_the_sample_stride(self):
        x = np.ones(self.N)
        off = np.setdiff1d(np.arange(self.N), np.arange(0, self.N, self.STRIDE))
        x[off[:5000]] = 1e-6 * np.arange(1, 5001)
        r = _assert_matches_oracle(x)
        assert r.p_tau < 1.0

    def test_all_zeros(self):
        r = _assert_matches_oracle(np.zeros((3, 8, 8), dtype=complex))
        assert r.p_tau == 0.0

    @pytest.mark.parametrize("tau", [1e-6, 1.0, 99.9999])
    def test_single_nonzero(self, tau):
        x = np.zeros(1000, dtype=complex)
        x[123] = 0.75 - 1j
        r = _assert_matches_oracle(x, PrescaleConfig(tau=tau))
        assert r.p_tau == r.a_max == 1.25

    @pytest.mark.parametrize("tau", [1e-12, 5e-324, 1e-6])
    def test_tau_near_zero_reads_the_two_smallest_nonzero(self, tau, rng):
        x = rng.standard_normal(50_000)
        x[::7] = 0
        r = _assert_matches_oracle(x, PrescaleConfig(tau=tau))
        smallest = np.sort(np.abs(x[x != 0]))[:2]
        assert smallest[0] <= r.p_tau <= smallest[1]

    @pytest.mark.parametrize("tau", [99.9999, 99.99999999999999, math.nextafter(100, 0)])
    @pytest.mark.parametrize("nnz", [1, 2, 3, 10, 4097])
    def test_tau_near_hundred_where_hi_clamps(self, tau, nnz, rng):
        x = np.zeros(nnz + 500)
        x[:nnz] = rng.uniform(1, 2, nnz)
        r = _assert_matches_oracle(rng.permutation(x), PrescaleConfig(tau=tau))
        assert r.p_tau <= r.a_max

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_signed_minimum(self, dtype):
        x = np.zeros(3000, dtype=dtype)
        x[::3] = np.iinfo(dtype).min
        x[1::3] = 1
        r = _assert_matches_oracle(x)
        assert r.a_max == -float(np.iinfo(dtype).min)

    def test_numpy_typed_tau_is_read_as_a_float(self, rng):
        x = rng.standard_normal(20_000).astype(np.float32)
        for tau in (np.float32(1.3), np.float64(1.3), 1.3, 1, np.int64(7)):
            _assert_matches_oracle(x, PrescaleConfig(tau=tau))

    def test_float16_tau_forms_no_float16_rank(self):
        # a rank formed in float16 would overflow: 199999 * 0.5 > 65504
        cfg = PrescaleConfig(tau=np.float16(50))
        assert type(cfg.tau) is float and cfg.tau == 50.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_matches_oracle(np.ones(200_000), cfg)

    def test_infinite_magnitude_of_finite_complex_input(self):
        big = 1.7e308 + 1.7e308j  # finite parts, magnitude beyond the float64 max
        r = _assert_matches_oracle(np.array([big, big, 1.0]))
        assert r.a_max == math.inf

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(1, np.nan)])
    def test_non_finite_input_error_unchanged(self, bad):
        x = np.ones(5000, dtype=complex)
        x[4321] = bad
        got, want = _outcome(x, CFG)
        assert got == want == (InvalidValue, "non-finite input to prescale")
