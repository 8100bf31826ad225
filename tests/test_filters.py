"""The numpy filters of the SSIM window and the phantom blur against SciPy's
ndimage, bit for bit, and a run that never loads SciPy."""

import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import correlate1d, gaussian_filter

from mxfft import metrics, mri

SRC = Path(__file__).resolve().parents[1] / "src"


def _array(shape, seed, e):
    """Normal values at 10^e, each row over two more decades."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 10.0**e
    return x * 10.0 ** rng.integers(-1, 2, size=shape[:-1] + (1,))


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@given(
    n=st.integers(1, 300),
    m=st.integers(1, 300),
    e=st.integers(-300, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, m=1, e=0, seed=0)
@example(n=3, m=300, e=0, seed=1)
@example(n=256, m=256, e=5, seed=2)
@settings(max_examples=80, deadline=None)
def test_blur_equals_gaussian_filter(n, m, e, seed):
    # sides 1..300, non-square and below the radius of 4 included, where the
    # reflected border repeats
    x = _array((n, m), seed, e)
    assert np.array_equal(_bits(mri._blur(x)), _bits(gaussian_filter(x, 1.0)))


@given(
    k=st.integers(1, 6),
    n=st.integers(metrics.SSIM_WINDOW, 300),
    m=st.integers(metrics.SSIM_WINDOW, 300),
    e=st.integers(-150, 150),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=5, n=11, m=11, e=0, seed=0)
@example(k=5, n=128, m=128, e=0, seed=1)  # chunks of 2 + 2 + 1 images
@example(k=2, n=300, m=257, e=-5, seed=2)
@settings(max_examples=60, deadline=None)
def test_window_means_equal_cropped_correlate1d(k, n, m, e, seed):
    # every image side SSIM accepts, and stacks that run in several chunks
    stack = _array((k, n, m), seed, e)
    g = metrics._gaussian_window(metrics.SSIM_WINDOW, metrics.SSIM_SIGMA)
    h = metrics.SSIM_WINDOW // 2
    want = correlate1d(correlate1d(stack, g, axis=1)[:, h:-h], g, axis=2)[:, :, h:-h]
    got = metrics._window_means(stack)
    assert len(got) == k
    for image, expect in zip(got, want):
        assert np.array_equal(_bits(image), _bits(expect))


def test_a_sweep_cell_loads_no_scipy():
    code = (
        "import sys\n"
        "import mxfft\n"
        "from mxfft.cli import ExperimentSpec, run_experiment\n"
        "run_experiment(ExperimentSpec(modes=['e4m3'], sizes=[16], blocks=[8], seeds=[0]))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = {"PYTHONPATH": str(SRC), "PATH": ""}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
