"""Frozen test oracle: the phantom's image and k-space expression as first written.

gen_phantom builds its image in place in the coil-sensitivity array and adds
the noise floor in place, to hold one copy of the coil stack.  This is the
out-of-place expression it replaced, kept verbatim so that the tests can
check gen_phantom against it bit for bit.  The magnitude, phase grid and
coil maps come from the library's own helpers; only the way they are
combined, the noise draws and the k-space transform are frozen here.
"""

import numpy as np

from mxfft import ModeSpec, coil_sensitivities, fft_2d, make_plan
from mxfft.mri import _coords, _phantom_magnitude


def phantom(n, coils, seed, kind, tail, noise):
    """(image coils, k-space coils) of gen_phantom(n, coils, seed, kind, tail, noise)."""
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        yy, xx = _coords(n)
        mag = _phantom_magnitude(yy, xx, kind, rng, tail)
        a, b, c, d = rng.uniform(-1.0, 1.0, size=4)
        phase = np.pi * (a * xx + b * yy + c * xx * yy + d * (xx**2 - yy**2))
        sens = coil_sensitivities(n, coils, seed)
        clean = mag * np.exp(1j * phase) * sens
        img = clean
        if noise > 0:
            img = clean + noise * (
                rng.standard_normal((coils, n, n)) + 1j * rng.standard_normal((coils, n, n))
            )
    ksp = fft_2d(img, make_plan(n, ModeSpec.reference()), "inverse")
    ksp *= 1.0 / (n * n)
    return img, ksp
