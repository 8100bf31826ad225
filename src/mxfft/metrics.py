"""Image-quality metrics over RSS magnitude images: PSNR, SSIM, NMSE."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.ndimage import correlate1d

from .errors import DegenerateReference, InvalidValue, ShapeError, WindowTooLarge

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


@dataclasses.dataclass(frozen=True)
class MetricsReport:
    psnr_db: float  # +inf when images are identical
    ssim: float
    nmse: float


def _pixels(img) -> np.ndarray:
    return np.asarray(getattr(img, "pixels", img), dtype=np.float64)


def _check_pair(ref, test):
    r = _pixels(ref)
    t = _pixels(test)
    if r.shape != t.shape:
        raise ShapeError(f"shape mismatch: {r.shape} vs {t.shape}")
    return r, t


def _unit_scale(v: float) -> float:
    """2^-floor(log2 v) for v > 0, kept finite for a subnormal v: multiplying
    by it is exact and brings v into [1, 2)."""
    return math.ldexp(1.0, -max(math.frexp(v)[1] - 1, -1023))


def _scaled_errors(metric: str, ref, test):
    """(r, sum((r - t)^2)) of the checked pair, both first scaled by
    _unit_scale(max|ref|).  The scaling is exact, so PSNR and NMSE are
    unchanged, and large or small pixels square without leaving the float64
    range.  Raises InvalidValue if the sum still overflows."""
    r, t = _check_pair(ref, test)
    if not np.any(r):
        raise DegenerateReference("all-zero reference image")
    scale = _unit_scale(float(np.abs(r).max()))
    r = r * scale
    with np.errstate(over="ignore"):
        err = float(np.sum((r - t * scale) ** 2))
    if not math.isfinite(err):
        raise InvalidValue(f"{metric}: the squared pixel errors leave the float64 range")
    return r, err


def psnr(ref, test) -> float:
    """20*log10(peak/rmse) with peak = max of the reference image."""
    r, err = _scaled_errors("psnr", ref, test)
    mse = err / r.size
    if mse == 0.0:
        return math.inf
    return 20.0 * math.log10(float(r.max()) / math.sqrt(mse))


def nmse(ref, test) -> float:
    """||ref - test||^2 / ||ref||^2 (Frobenius)."""
    r, err = _scaled_errors("nmse", ref, test)
    return err / float(np.sum(r**2))


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    """The normalized 1-D Gaussian; its outer product is the 2-D window."""
    ax = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(ax**2) / (2.0 * sigma**2))
    return g / g.sum()


def _window_means(stack: np.ndarray) -> np.ndarray:
    """Gaussian-weighted means over every full window of each (n, m) image of
    a (k, n, m) stack: one 1-D pass per image axis, cropped to the valid region."""
    g = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    h = SSIM_WINDOW // 2
    stack = correlate1d(stack, g, axis=1)[:, h:-h]
    return correlate1d(stack, g, axis=2)[:, :, h:-h]


def ssim(ref, test) -> float:
    """Mean local SSIM, 11x11 Gaussian window (sigma 1.5), K1=0.01, K2=0.03.

    Dynamic range is L = max(ref) - min(ref); a constant reference falls back
    to L = 1 so identical inputs still score 1.  The window is separable: two
    1-D passes of the normalized Gaussian (Wang et al. 2004).  Both images
    and L are first scaled by 2^-floor(log2 L), which is exact and leaves the
    score unchanged, so that the local statistics of large or small pixel
    values stay in range.  Raises InvalidValue if they still overflow.
    """
    r, t = _check_pair(ref, test)
    if min(r.shape) < SSIM_WINDOW:
        raise WindowTooLarge(f"image smaller than {SSIM_WINDOW}x{SSIM_WINDOW} window")
    L = float(r.max() - r.min())
    if L == 0.0:
        L = 1.0
    scale = _unit_scale(L)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = r * scale
        t = t * scale
        c1 = (SSIM_K1 * L * scale) ** 2
        c2 = (SSIM_K2 * L * scale) ** 2
        mu1, mu2, rr, tt, rt = _window_means(np.stack((r, t, r * r, t * t, r * t)))
        s1 = rr - mu1**2
        s2 = tt - mu2**2
        s12 = rt - mu1 * mu2
        num = (2 * mu1 * mu2 + c1) * (2 * s12 + c2)
        den = (mu1**2 + mu2**2 + c1) * (s1 + s2 + c2)
        val = float(np.mean(num / den))
    if not math.isfinite(val):
        raise InvalidValue("ssim: the local image statistics leave the float64 range")
    return min(1.0, max(-1.0, val))


def report(ref, test) -> MetricsReport:
    return MetricsReport(psnr_db=psnr(ref, test), ssim=ssim(ref, test), nmse=nmse(ref, test))
