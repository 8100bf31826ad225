"""PSNR/NMSE/SSIM against direct-formula and per-window oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxfft import (
    DegenerateReference,
    InvalidValue,
    MetricsReport,
    RssImage,
    ShapeError,
    WindowTooLarge,
    nmse,
    psnr,
    report,
    ssim,
)
from mxfft.metrics import SSIM_K1, SSIM_K2, SSIM_SIGMA, SSIM_WINDOW

import ssim_oracle


def _rand_pair(rng, n=32, noise=0.05):
    r = rng.uniform(0.1, 1.0, (n, n))
    t = r + noise * rng.standard_normal((n, n))
    return r, t


class TestPsnr:
    def test_identical_is_inf(self, rng):
        r = rng.uniform(0, 1, (16, 16))
        assert psnr(r, r.copy()) == math.inf

    def test_uniform_error_forty_db(self):
        # peak 1.0, uniform error 0.01 -> 20*log10(1/0.01) = 40 dB exactly
        r = np.zeros((8, 8))
        r[0, 0] = 1.0
        assert psnr(r, r + 0.01) == pytest.approx(40.0, abs=1e-12)

    def test_scale_invariance(self, rng):
        r, t = _rand_pair(rng)
        assert psnr(2 * r, 2 * t) == pytest.approx(psnr(r, t), abs=1e-12)

    def test_direct_formula(self, rng):
        r, t = _rand_pair(rng)
        expect = 20 * math.log10(r.max() / math.sqrt(np.mean((r - t) ** 2)))
        assert psnr(r, t) == pytest.approx(expect, abs=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(DegenerateReference):
            psnr(np.zeros((8, 8)), np.ones((8, 8)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(np.ones((8, 8)), np.ones((8, 9)))

    def test_accepts_rss_image(self, rng):
        r, t = _rand_pair(rng)
        assert psnr(RssImage(r), RssImage(t)) == psnr(r, t)


class TestNmse:
    def test_identities(self, rng):
        r = rng.uniform(0.1, 1.0, (16, 16))
        assert nmse(r, r.copy()) == 0.0
        assert nmse(r, np.zeros_like(r)) == pytest.approx(1.0, abs=1e-14)
        assert nmse(r, 2 * r) == pytest.approx(1.0, abs=1e-14)

    def test_scale_invariance(self, rng):
        r, t = _rand_pair(rng)
        assert nmse(3 * r, 3 * t) == pytest.approx(nmse(r, t), rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(DegenerateReference):
            nmse(np.zeros((4, 4)), np.ones((4, 4)))

    def test_psnr_cross_identity(self, rng):
        # psnr = 20 log10(peak) - 10 log10(mse); relate through nmse
        for _ in range(20):
            r, t = _rand_pair(rng)
            mse = nmse(r, t) * np.sum(r**2) / r.size
            expect = 20 * math.log10(r.max()) - 10 * math.log10(mse)
            assert psnr(r, t) == pytest.approx(expect, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.integers(-700, 700),
    st.integers(-250, 250),
)
def test_psnr_nmse_power_of_two_scaling_is_bit_exact(n, seed, e, j):
    # pixels near 2^e: their squares leave the float64 range for |e| > 511
    # unless the metrics scale them first
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.5, 1.0, (n, n)) * 2.0**e
    t = r + rng.standard_normal((n, n)) * 2.0 ** (e - 4)
    scale = 2.0**j
    assert psnr(r * scale, t * scale) == psnr(r, t)
    assert nmse(r * scale, t * scale) == nmse(r, t)
    assert math.isfinite(psnr(r, t)) and math.isfinite(nmse(r, t))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("metric", [psnr, nmse])
def test_overflowing_errors_are_a_typed_error(metric, rng):
    r = rng.uniform(0.0, 1.0, (16, 16))
    with pytest.raises(InvalidValue, match=f"^{metric.__name__}: "):
        metric(r, 1e300 * r)


def _ssim_oracle(r, t):
    """Literal per-window SSIM loop, independent of the convolution path."""
    ax = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2
    g = np.exp(-(ax**2) / (2 * SSIM_SIGMA**2))
    w = np.outer(g, g)
    w /= w.sum()
    L = r.max() - r.min()
    if L == 0:
        L = 1.0
    c1 = (SSIM_K1 * L) ** 2
    c2 = (SSIM_K2 * L) ** 2
    n = r.shape[0] - SSIM_WINDOW + 1
    m = r.shape[1] - SSIM_WINDOW + 1
    vals = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            a = r[i : i + SSIM_WINDOW, j : j + SSIM_WINDOW]
            b = t[i : i + SSIM_WINDOW, j : j + SSIM_WINDOW]
            mu1, mu2 = np.sum(w * a), np.sum(w * b)
            s1 = np.sum(w * a * a) - mu1**2
            s2 = np.sum(w * b * b) - mu2**2
            s12 = np.sum(w * a * b) - mu1 * mu2
            vals[i, j] = ((2 * mu1 * mu2 + c1) * (2 * s12 + c2)) / (
                (mu1**2 + mu2**2 + c1) * (s1 + s2 + c2)
            )
    return float(np.mean(vals))


class TestSsim:
    def test_identical_is_one(self, rng):
        r = rng.uniform(0, 1, (16, 16))
        assert ssim(r, r.copy()) == 1.0

    def test_matches_per_window_oracle(self, rng):
        for noise in (0.01, 0.1, 0.5):
            r, t = _rand_pair(rng, n=24, noise=noise)
            assert ssim(r, t) == pytest.approx(_ssim_oracle(r, t), abs=1e-9)

    def test_anticorrelated_image_scores_negative(self, rng):
        # inverting within the intensity range keeps means positive while
        # flipping every window covariance, so the structure term goes negative
        r = rng.uniform(0.1, 1.0, (24, 24))
        t = (r.max() + r.min()) - r
        val = ssim(r, t)
        assert val < 0
        assert val == pytest.approx(_ssim_oracle(r, t), abs=1e-9)

    def test_scale_invariance(self, rng):
        r, t = _rand_pair(rng, n=20)
        assert ssim(5 * r, 5 * t) == pytest.approx(ssim(r, t), abs=1e-12)

    def test_in_unit_interval(self, rng):
        for _ in range(20):
            r = rng.uniform(0, 1, (16, 16))
            t = rng.uniform(0, 1, (16, 16))
            assert -1.0 <= ssim(r, t) <= 1.0

    def test_window_larger_than_image(self):
        with pytest.raises(WindowTooLarge):
            ssim(np.ones((8, 8)), np.ones((8, 8)))

    def test_constant_reference_falls_back(self):
        r = np.ones((16, 16))
        assert ssim(r, r.copy()) == 1.0
        assert ssim(3e-200 * r, 3e-200 * r) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(11, 256),
        st.integers(11, 256),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["noisy", "anticorrelated", "independent"]),
    )
    def test_matches_frozen_convolve2d_oracle(self, n, m, seed, kind):
        rng = np.random.default_rng(seed)
        r = rng.uniform(0.0, 2.0, (n, m))
        if kind == "noisy":
            t = r + 0.1 * rng.standard_normal((n, m))
        elif kind == "anticorrelated":
            t = (r.max() + r.min()) - r
        else:
            t = rng.uniform(0.0, 2.0, (n, m))
        assert ssim(r, t) == pytest.approx(ssim_oracle.ssim(r, t), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(11, 40), st.integers(0, 2**32 - 1), st.integers(-250, 250))
    def test_power_of_two_scaling_is_bit_exact(self, n, seed, j):
        rng = np.random.default_rng(seed)
        r = rng.uniform(0.0, 1.0, (n, n))
        t = r + 0.2 * rng.standard_normal((n, n))
        scale = 2.0**j
        assert ssim(r * scale, t * scale) == ssim(r, t)

    @pytest.mark.filterwarnings("error")
    def test_large_pixels_score_one_against_themselves(self, rng):
        # (2*mu1*mu2 + c1)*(2*s12 + c2) overflows float64 above about 1e77
        r = 1e150 * rng.uniform(0.0, 1.0, (16, 16))
        assert ssim(r, r.copy()) == 1.0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_statistics_are_a_typed_error(self, rng):
        r = rng.uniform(0.0, 1.0, (16, 16))
        with pytest.raises(InvalidValue, match="ssim"):
            ssim(r, 1e300 * r)


class TestReport:
    def test_bundle(self, rng):
        r, t = _rand_pair(rng)
        rep = report(r, t)
        assert isinstance(rep, MetricsReport)
        assert rep.psnr_db == psnr(r, t)
        assert rep.ssim == ssim(r, t)
        assert rep.nmse == nmse(r, t)

    def test_zero_nmse_iff_inf_psnr(self, rng):
        r = rng.uniform(0.1, 1.0, (16, 16))
        rep = report(r, r.copy())
        assert rep.nmse == 0.0 and rep.psnr_db == math.inf and rep.ssim == 1.0
