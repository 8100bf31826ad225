"""Pipelines, phantoms, and MXCG grid I/O."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxfft import (
    BadMagic,
    BadVersion,
    ComplexGrid,
    ConfigError,
    FileFormatError,
    InvalidValue,
    ModeSpec,
    NonFinitePayload,
    PrescaleConfig,
    ShapeError,
    TruncatedFile,
    coil_sensitivities,
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
from conftest import COILS, PHANTOM

CFG = PrescaleConfig()


class TestRss:
    def test_single_coil_is_magnitude(self, rng):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert np.allclose(rss([a]).pixels, np.abs(a), atol=0)

    def test_two_identical_coils(self, rng):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        assert np.allclose(rss([a, a]).pixels, math.sqrt(2) * np.abs(a), rtol=1e-15)

    def test_per_pixel_oracle(self, rng):
        stack = rng.standard_normal((4, 8, 8)) + 1j * rng.standard_normal((4, 8, 8))
        out = rss(list(stack)).pixels
        for i in range(8):
            for j in range(8):
                expect = math.sqrt(sum(abs(stack[c, i, j]) ** 2 for c in range(4)))
                assert out[i, j] == pytest.approx(expect, rel=1e-15)

    def test_phase_invariance(self, rng):
        stack = rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8))
        rotated = [np.exp(1j * rng.uniform(0, 2 * np.pi)) * c for c in stack]
        assert np.allclose(rss(rotated).pixels, rss(list(stack)).pixels, atol=1e-12)

    def test_accepts_grid(self, rng):
        d = rng.standard_normal((2, 8, 8)) + 0j
        assert np.array_equal(rss(ComplexGrid(d, "image")).pixels, rss(list(d)).pixels)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            rss([])
        with pytest.raises(ShapeError):
            rss([np.ones((4, 4)), np.ones((4, 8))])


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
        oracle = rss([f @ k[c] @ f.T for c in range(2)])
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


class TestRoundtripPipeline:
    def test_reference_recovers_input(self, rng):
        n = 16
        img = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        out = roundtrip_pipeline(ComplexGrid(img, "image"), make_plan(n, ModeSpec.reference()), CFG)
        expect = rss(list(img))
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
        assert np.min(rss(list(maps)).pixels) >= 0.5

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            gen_phantom(48, 1, 0)
        with pytest.raises(ConfigError):
            gen_phantom(32, 0, 0)
        with pytest.raises(ConfigError):
            gen_phantom(32, 1, 0, kind="stripes")

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
        ],
    )
    def test_rejects_bad_texture_and_seed_naming_the_field(self, kw, field):
        args = dict(n=16, coils=1, seed=0) | kw
        with pytest.raises(ConfigError, match=f"^{field}: "):
            gen_phantom(**args)


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
