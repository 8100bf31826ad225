"""Frozen SSIM oracle: `metrics.ssim` as it stood before the separable window.

Five full 11x11 Gaussian `convolve2d` passes over the unscaled images, kept
verbatim in its arithmetic.  Tests require the package's separable `ssim` to
match it to 1e-12 on in-range images.
"""

import numpy as np
from scipy.signal import convolve2d

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _gaussian_kernel(size, sigma):
    ax = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(ax**2) / (2.0 * sigma**2))
    k = np.outer(g, g)
    return k / k.sum()


def ssim(ref, test):
    """Mean local SSIM, 11x11 Gaussian window (sigma 1.5), K1=0.01, K2=0.03.

    Dynamic range is max(ref) - min(ref); a constant reference falls back to
    L = 1 so identical inputs still score 1.
    """
    r = np.asarray(ref, dtype=np.float64)
    t = np.asarray(test, dtype=np.float64)
    L = float(r.max() - r.min())
    if L == 0.0:
        L = 1.0
    c1 = (SSIM_K1 * L) ** 2
    c2 = (SSIM_K2 * L) ** 2
    w = _gaussian_kernel(SSIM_WINDOW, SSIM_SIGMA)

    def f(img):
        return convolve2d(img, w, mode="valid")

    mu1 = f(r)
    mu2 = f(t)
    s1 = f(r * r) - mu1**2
    s2 = f(t * t) - mu2**2
    s12 = f(r * t) - mu1 * mu2
    num = (2 * mu1 * mu2 + c1) * (2 * s12 + c2)
    den = (mu1**2 + mu2**2 + c1) * (s1 + s2 + c2)
    val = float(np.mean(num / den))
    return min(1.0, max(-1.0, val))
