"""Pipelines, phantoms, and MXCG grid I/O."""

import math
import os
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mxfft import (
    BadMagic,
    BadVersion,
    ComplexGrid,
    ConfigError,
    FftPlan,
    FileFormatError,
    InvalidValue,
    ModeSpec,
    NonFinitePayload,
    PrescaleConfig,
    ShapeError,
    TruncatedFile,
    coil_sensitivities,
    compute_prescale,
    forward_pipeline,
    gen_phantom,
    make_plan,
    nmse,
    psnr,
    read_grid,
    roundtrip_pipeline,
    rss,
    write_grid,
)
from mxfft import fftcore
from mxfft.cli import MODE_NAMES, ExperimentSpec
from mxfft.errors import MAX_SIZE
from mxfft.mri import PHANTOM_KINDS, PHANTOM_LIMIT

import phantom_oracle
from conftest import COILS, PHANTOM, rss_of

CFG = PrescaleConfig()


class TestRss:
    def test_single_coil_is_magnitude(self, rng):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert np.allclose(rss_of([a]).pixels, np.abs(a), atol=0)

    def test_two_identical_coils(self, rng):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert np.allclose(rss_of([a, a]).pixels, math.sqrt(2) * np.abs(a), rtol=1e-15)

    def test_per_pixel_oracle(self, rng):
        stack = rng.standard_normal((4, 8, 8)) + 1j * rng.standard_normal((4, 8, 8))
        out = rss_of(list(stack)).pixels
        for i in range(8):
            for j in range(8):
                expect = math.sqrt(sum(abs(stack[c, i, j]) ** 2 for c in range(4)))
                assert out[i, j] == pytest.approx(expect, rel=1e-15)

    def test_phase_invariance(self, rng):
        stack = rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8))
        rotated = [np.exp(1j * rng.uniform(0, 2 * np.pi)) * c for c in stack]
        assert np.allclose(rss_of(rotated).pixels, rss_of(list(stack)).pixels, atol=1e-12)

    def test_accepts_grid(self, rng):
        d = rng.standard_normal((2, 8, 8)) + 0j
        assert np.array_equal(rss(ComplexGrid(d, "image")).pixels, rss_of(list(d)).pixels)

    def test_overflow_is_a_typed_error(self):
        with pytest.raises(InvalidValue, match="float64 range"):
            rss_of([np.full((2, 2), 1e200), np.ones((2, 2))])

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            rss_of([])
        with pytest.raises(ShapeError):
            rss_of([np.ones((4, 4)), np.ones((4, 8))])


class TestComplexGrid:
    def test_validation(self, rng):
        with pytest.raises(ShapeError):
            ComplexGrid(np.ones((4, 4)), "image")
        with pytest.raises(ShapeError):
            ComplexGrid(np.ones((1, 4, 8)), "image")
        with pytest.raises(InvalidValue):
            ComplexGrid(np.ones((1, 4, 4)), "spectral")
        bad = np.ones((1, 4, 4), dtype=complex)
        bad[0, 0, 0] = np.nan
        with pytest.raises(InvalidValue):
            ComplexGrid(bad, "image")

    @pytest.mark.parametrize("data", [[[["a"]]], [[[1, 2], [3]]]])
    def test_non_numeric_data_is_a_typed_error(self, data):
        with pytest.raises(InvalidValue, match="^grid data must be an array of numbers"):
            ComplexGrid(data, "kspace")

    def test_string_data_is_not_parsed(self):
        with pytest.raises(InvalidValue, match="^grid data must be an array of numbers, got dtype <U3$"):
            ComplexGrid(np.full((1, 4, 4), "1.5"), "kspace")

    @pytest.mark.parametrize("shape, field", [((0, 4, 4), "coils"), ((1, 0, 0), "n")])
    def test_rejects_empty(self, shape, field):
        with pytest.raises(ShapeError, match=f"^{field}: "):
            ComplexGrid(np.zeros(shape, dtype=complex), "kspace")

    def test_properties(self):
        g = ComplexGrid(np.zeros((3, 8, 8)), "kspace")
        assert g.coils == 3 and g.n == 8


class TestForwardPipeline:
    def test_delta_kspace_constant_image(self):
        k = np.zeros((1, 16, 16), dtype=complex)
        k[0, 0, 0] = 1.0
        out = forward_pipeline(ComplexGrid(k, "kspace"), make_plan(16, ModeSpec.reference()), CFG)
        assert np.allclose(out.pixels, 1.0, atol=1e-12)

    def test_matches_brute_dft_pipeline(self, rng):
        n = 16
        k = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        out = forward_pipeline(ComplexGrid(k, "kspace"), make_plan(n, ModeSpec.reference()), CFG)
        f = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        oracle = rss_of([f @ k[c] @ f.T for c in range(2)])
        assert np.max(np.abs(out.pixels - oracle.pixels)) < 1e-10

    def test_linearity_in_amplitude(self, rng):
        n = 16
        k = rng.standard_normal((1, n, n)) + 1j * rng.standard_normal((1, n, n))
        plan = make_plan(n, ModeSpec.reference())
        base = forward_pipeline(ComplexGrid(k, "kspace"), plan, CFG)
        scaled = forward_pipeline(ComplexGrid(3.0 * k, "kspace"), plan, CFG)
        assert np.allclose(scaled.pixels, 3.0 * base.pixels, rtol=1e-12)

    def test_domain_tag_enforced(self):
        g = ComplexGrid(np.ones((1, 8, 8), dtype=complex), "image")
        with pytest.raises(InvalidValue):
            forward_pipeline(g, make_plan(8, ModeSpec.reference()), CFG)

    @pytest.mark.parametrize(
        "pipeline, domain", [(forward_pipeline, "kspace"), (roundtrip_pipeline, "image")]
    )
    @pytest.mark.parametrize(
        "plan, cfg, field",
        [("ref", None, "cfg"), (None, CFG, "plan"), ("e4m3", CFG, "plan")],
    )
    def test_wrong_typed_plan_or_config_names_it(self, pipeline, domain, plan, cfg, field):
        g = ComplexGrid(np.ones((1, 8, 8), dtype=complex), domain)
        if plan == "ref":
            plan = make_plan(8, ModeSpec.reference())
        with pytest.raises(ConfigError, match=f"^{field}: "):
            pipeline(g, plan, cfg)

    @pytest.mark.parametrize("data", [np.ones((1, 8, 8), dtype=complex), None, "kspace"])
    @pytest.mark.parametrize(
        "call, field",
        [
            (lambda g: forward_pipeline(g, make_plan(8, ModeSpec.reference()), CFG), "kspace"),
            (lambda g: roundtrip_pipeline(g, make_plan(8, ModeSpec.reference()), CFG), "image"),
            (rss, "grid"),
            (lambda g: write_grid(g, os.devnull), "grid"),
        ],
    )
    def test_an_input_that_is_not_a_grid_names_it(self, call, field, data):
        with pytest.raises(ConfigError, match=f"^{field}: must be a ComplexGrid"):
            call(data)

    def test_overflowing_undo_is_a_typed_error(self):
        # the transform of the prescaled grid is in range, but undoing a
        # prescale of 2^k with k < 0 leaves the float64 range
        k = np.full((1, 16, 16), 1e306, dtype=complex)
        cfg = PrescaleConfig(k_min=-1022)
        assert compute_prescale(k, cfg).k < 0
        for mode in ("reference", "fp16", "e4m3"):
            plan = make_plan(16, ModeSpec.from_name(mode))
            with pytest.raises(InvalidValue, match="^undo of the prescale by 2\\^-"):
                forward_pipeline(ComplexGrid(k, "kspace"), plan, cfg)

    def test_mx_psnr_above_floor(self):
        # frozen regression floor: observed 34.8 dB at N=128, B=32, seed 0,
        # minus a 2 dB margin; must also never drop below 25 dB
        n = 128
        _, ksp = gen_phantom(n, COILS, seed=0, **PHANTOM)
        ref = forward_pipeline(ksp, make_plan(n, ModeSpec.reference()), CFG)
        out = forward_pipeline(ksp, make_plan(n, ModeSpec.from_name("e4m3", 32)), CFG)
        val = psnr(ref, out)
        assert math.isfinite(val)
        assert val > 32.8
        assert val > 25.0



@given(
    mode=st.sampled_from(MODE_NAMES),
    block=st.sampled_from([2, 8, 32]),
    seed=st.integers(0, 1000),
    j=st.integers(-30, 30),
)
@settings(max_examples=40, deadline=None)
def test_global_pow2_scale_passes_through_forward_pipeline(mode, block, seed, j):
    # the paper's premise: an unclipped global prescale absorbs any 2^j, so the
    # transform sees the same input and the RSS image scales by exactly 2^j
    n = 16
    _, ksp = gen_phantom(n, 2, seed, **PHANTOM)
    scaled = ComplexGrid(ksp.data * 2.0**j, "kspace")
    r, r_scaled = compute_prescale(ksp.data, CFG), compute_prescale(scaled.data, CFG)
    assume(r.k == max(r.k1, r.k2) and r_scaled.k == max(r_scaled.k1, r_scaled.k2))
    assert r_scaled.k == r.k - j
    plan = make_plan(n, ModeSpec.from_name(mode, block))
    base = forward_pipeline(ksp, plan, CFG).pixels
    got = forward_pipeline(scaled, plan, CFG).pixels
    assert np.array_equal(got.view(np.uint64), (base * 2.0**j).view(np.uint64))


class TestRoundtripPipeline:
    def test_reference_recovers_input(self, rng):
        n = 16
        img = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        out = roundtrip_pipeline(ComplexGrid(img, "image"), make_plan(n, ModeSpec.reference()), CFG)
        expect = rss_of(list(img))
        assert np.max(np.abs(out.pixels - expect.pixels)) < 1e-9 * np.max(expect.pixels)

    def test_zero_input(self):
        g = ComplexGrid(np.zeros((1, 8, 8)), "image")
        out = roundtrip_pipeline(g, make_plan(8, ModeSpec.reference()), CFG)
        assert np.all(out.pixels == 0.0)

    def test_mx_roundtrip_error_not_below_forward(self):
        n = 64
        img, ksp = gen_phantom(n, COILS, seed=3, **PHANTOM)
        ref_plan = make_plan(n, ModeSpec.reference())
        for fmt in ("e4m3", "e5m2"):
            plan = make_plan(n, ModeSpec.from_name(fmt, 32))
            fwd_ref = forward_pipeline(ksp, ref_plan, CFG)
            fwd = nmse(fwd_ref, forward_pipeline(ksp, plan, CFG))
            rt_ref = roundtrip_pipeline(img, ref_plan, CFG)
            rt = nmse(rt_ref, roundtrip_pipeline(img, plan, CFG))
            assert rt >= fwd

    def test_domain_tag_enforced(self):
        g = ComplexGrid(np.ones((1, 8, 8), dtype=complex), "kspace")
        with pytest.raises(InvalidValue):
            roundtrip_pipeline(g, make_plan(8, ModeSpec.reference()), CFG)


@pytest.mark.parametrize("mode", ["reference", "fp16", "e4m3"])
@pytest.mark.parametrize("pipeline", [forward_pipeline, roundtrip_pipeline])
def test_pipelines_leave_the_grid_unmodified(mode, pipeline):
    # 3 coils at N=128: two fft_2d chunks, of 2 coils and 1
    img, ksp = gen_phantom(128, 3, seed=5, **PHANTOM)
    grid = ksp if pipeline is forward_pipeline else img
    before = grid.data.copy()
    pipeline(grid, make_plan(128, ModeSpec.from_name(mode)), CFG)
    assert np.array_equal(grid.data.view(np.uint64), before.view(np.uint64))


class TestPhantom:
    def test_determinism(self):
        a_img, a_ksp = gen_phantom(64, 1, 0, **PHANTOM)
        b_img, b_ksp = gen_phantom(64, 1, 0, **PHANTOM)
        assert np.array_equal(a_img.data, b_img.data)
        assert np.array_equal(a_ksp.data, b_ksp.data)

    def test_seed_and_kind_vary_output(self):
        base, _ = gen_phantom(32, 2, 0, **PHANTOM)
        other, _ = gen_phantom(32, 2, 1, **PHANTOM)
        bars, _ = gen_phantom(32, 2, 0, kind="bars", tail=PHANTOM["tail"], noise=PHANTOM["noise"])
        assert not np.array_equal(base.data, other.data)
        assert not np.array_equal(base.data, bars.data)

    def test_kspace_image_self_consistency(self):
        # forward transform of the generated k-space must reproduce the
        # image coils' RSS up to FP64 rounding
        img, ksp = gen_phantom(64, COILS, seed=1, **PHANTOM)
        out = forward_pipeline(ksp, make_plan(64, ModeSpec.reference()), CFG)
        expect = rss(img)
        assert np.max(np.abs(out.pixels - expect.pixels)) < 1e-9 * np.max(expect.pixels)

    def test_sensitivity_rss_floor(self):
        maps = coil_sensitivities(64, COILS, seed=5)
        assert np.min(rss_of(list(maps)).pixels) >= 0.5

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            gen_phantom(48, 1, 0)
        with pytest.raises(ConfigError):
            gen_phantom(32, 0, 0)
        with pytest.raises(ConfigError):
            gen_phantom(32, 1, 0, kind="stripes")

    def test_unknown_kind_lists_the_kinds(self):
        with pytest.raises(ConfigError, match="^kind: .*known: blobs, bars$"):
            gen_phantom(32, 1, 0, kind="stripes")
        assert PHANTOM_KINDS == ("blobs", "bars")
        for kind in PHANTOM_KINDS:
            gen_phantom(16, 1, 0, kind=kind)

    @pytest.mark.parametrize(
        "kw, field",
        [
            (dict(tail=math.nan), "tail"),
            (dict(tail=-5.0), "tail"),
            (dict(tail=math.inf), "tail"),
            (dict(noise=math.nan), "noise"),
            (dict(noise=-0.1), "noise"),
            (dict(noise=math.inf), "noise"),
            (dict(seed=-1), "seed"),
            (dict(seed=1.5), "seed"),
            (dict(n=16.0), "n"),
            (dict(coils=2.0), "coils"),
            (dict(tail="0.2"), "tail"),
            (dict(noise=None), "noise"),
            (dict(tail=10**400), "tail"),
            (dict(noise=10**309), "noise"),
            (dict(n=32, coils=4, tail=sys.float_info.max), "tail"),
            (dict(n=32, coils=4, noise=1e308), "noise"),
            (dict(tail=1e308), "tail"),
            (dict(noise=1e307), "noise"),
            (dict(tail=1e307, noise=1e307), "tail"),
            (dict(tail=1e308, noise=0.0), "tail"),
        ],
    )
    def test_rejects_bad_texture_and_seed_naming_the_field(self, kw, field):
        args = dict(n=16, coils=1, seed=0) | kw
        with pytest.raises(ConfigError, match=f"^{field}: "):
            gen_phantom(**args)

    @pytest.mark.parametrize("field", ["tail", "noise"])
    def test_bound_is_phantom_limit(self, field):
        gen_phantom(16, 1, 0, **{field: PHANTOM_LIMIT})
        with pytest.raises(ConfigError, match=f"^{field}: "):
            gen_phantom(16, 1, 0, **{field: math.nextafter(PHANTOM_LIMIT, math.inf)})

    @pytest.mark.parametrize("field", ["tail", "noise"])
    def test_spec_beyond_the_limit_fails_when_built(self, field):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            ExperimentSpec(modes=["e4m3"], sizes=[16], blocks=[32], seeds=[0], **{field: 1e300})

    @pytest.mark.parametrize("kind", PHANTOM_KINDS)
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_at_the_limit_the_phantom_is_finite_without_a_warning(self, n, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            img, ksp = gen_phantom(n, 4, 0, kind, PHANTOM_LIMIT, PHANTOM_LIMIT)
        assert np.isfinite(img.data).all() and np.isfinite(ksp.data).all()

    @pytest.mark.parametrize("kind", PHANTOM_KINDS)
    @pytest.mark.parametrize("tail, noise", [(0.2, 0.1), (0.0, 0.0), (0.0, 0.5), (1.5, 0.0)])
    @pytest.mark.parametrize("n, coils, seed", [(2, 1, 3), (16, 2, 0), (64, 3, 11), (128, 4, 5), (256, 5, 2)])
    def test_equals_the_frozen_expression(self, n, coils, seed, kind, tail, noise):
        # the image is built and noised in place: every bit stays as it was
        img, ksp = gen_phantom(n, coils, seed, kind, tail, noise)
        want_img, want_ksp = phantom_oracle.phantom(n, coils, seed, kind, tail, noise)
        assert np.array_equal(img.data.view(np.uint64), want_img.view(np.uint64))
        assert np.array_equal(ksp.data.view(np.uint64), want_ksp.view(np.uint64))

    def test_plan_built_once_per_size(self, monkeypatch):
        built = []
        init = FftPlan.__init__
        monkeypatch.setattr(FftPlan, "__init__", lambda p, n, mode: built.append(n) or init(p, n, mode))
        fftcore._cached_plan.cache_clear()
        first = gen_phantom(16, 2, 0)
        for seed in (1, 2):
            gen_phantom(16, 2, seed)
        gen_phantom(32, 2, 0)
        assert built == [16, 32]
        fftcore._cached_plan.cache_clear()
        again = gen_phantom(16, 2, 0)
        for a, b in zip(first, again):
            assert np.array_equal(a.data, b.data)


class TestGridIO:
    def test_roundtrip_bit_identical(self, rng, tmp_path):
        d = rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8))
        g = ComplexGrid(d, "kspace")
        p = tmp_path / "g.mxcg"
        write_grid(g, p)
        back = read_grid(p)
        assert back.domain == "kspace"
        assert np.array_equal(back.data, g.data)
        p2 = tmp_path / "g2.mxcg"
        write_grid(back, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_known_size_1x2x2(self, tmp_path):
        # header 4+4+1+4+4 = 17 bytes, payload 2*2*16 = 64 -> 81 total
        d = np.array([[[1 + 2j, 3 - 4j], [-5j, 6.5]]])
        p = tmp_path / "small.mxcg"
        write_grid(ComplexGrid(d, "image"), p)
        raw = p.read_bytes()
        assert len(raw) == 81
        assert raw[:4] == b"MXCG"
        magic, version, domain, coils, n = struct.unpack_from("<4sIBII", raw)
        assert (version, domain, coils, n) == (1, 1, 1, 2)
        vals = np.frombuffer(raw[17:], dtype="<c16").reshape(1, 2, 2)
        assert np.array_equal(vals, d)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mxcg"
        p.write_bytes(b"NOPE" + bytes(60))
        with pytest.raises(BadMagic):
            read_grid(p)

    def test_bad_version(self, tmp_path):
        p = tmp_path / "v9.mxcg"
        p.write_bytes(struct.pack("<4sIBII", b"MXCG", 9, 0, 1, 2) + bytes(64))
        with pytest.raises(BadVersion):
            read_grid(p)

    def test_truncated(self, tmp_path, rng):
        d = rng.standard_normal((1, 4, 4)) + 0j
        p = tmp_path / "t.mxcg"
        write_grid(ComplexGrid(d, "image"), p)
        whole = p.read_bytes()
        for cut in (3, 10, len(whole) - 1):
            p.write_bytes(whole[:cut])
            with pytest.raises((TruncatedFile, BadMagic)):
                read_grid(p)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        d = rng.standard_normal((1, 4, 4)) + 0j
        p = tmp_path / "x.mxcg"
        write_grid(ComplexGrid(d, "image"), p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FileFormatError):
            read_grid(p)

    @pytest.mark.parametrize("coils, n, field", [(0, 2, "coils"), (1, 0, "n"), (1, 3, "n")])
    def test_bad_header_sizes(self, tmp_path, coils, n, field):
        payload = bytes(coils * n * n * 16)
        p = tmp_path / "h.mxcg"
        p.write_bytes(struct.pack("<4sIBII", b"MXCG", 1, 0, coils, n) + payload)
        with pytest.raises(FileFormatError, match=f"^{field}: "):
            read_grid(p)

    def test_header_size_beyond_the_bound(self, tmp_path):
        # refused from the header alone, before the payload is read as a grid
        p = tmp_path / "big.mxcg"
        p.write_bytes(struct.pack("<4sIBII", b"MXCG", 1, 0, 1, 2 * MAX_SIZE) + bytes(16))
        with pytest.raises(FileFormatError, match="^n: "):
            read_grid(p)

    def test_non_finite_payload(self, tmp_path):
        payload = np.full(4, np.inf, dtype="<c16").tobytes()
        p = tmp_path / "nf.mxcg"
        p.write_bytes(struct.pack("<4sIBII", b"MXCG", 1, 0, 1, 2) + payload)
        with pytest.raises(NonFinitePayload):
            read_grid(p)


_FUZZ_GRID = ComplexGrid(np.arange(2 * 4 * 4).reshape(2, 4, 4) * (1.0 - 0.5j), "image")


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mxcg_fuzz_yields_a_grid_or_file_format_error(data, tmp_path_factory):
    # truncate and bit-flip a valid file: read_grid either returns a valid
    # grid or raises FileFormatError, never any other exception
    p = tmp_path_factory.mktemp("fuzz") / "g.mxcg"
    write_grid(_FUZZ_GRID, p)
    raw = bytearray(p.read_bytes())
    for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), max_size=8)):
        raw[bit // 8] ^= 1 << (bit % 8)
    p.write_bytes(bytes(raw[: data.draw(st.integers(0, len(raw)))]))
    try:
        g = read_grid(p)
    except FileFormatError:
        return
    assert isinstance(g, ComplexGrid) and g.domain in ("kspace", "image")
    assert g.data.dtype == np.complex128 and g.data.shape == (g.coils, g.n, g.n)
    assert np.all(np.isfinite(g.data))
