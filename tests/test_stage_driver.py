"""The reference and FP16 modes of the stage driver against their frozen
pre-driver oracles, and the typed errors at the edge of each mode's range."""

import warnings

import numpy as np
import pytest

from mxfft import (
    InvalidValue,
    ModeSpec,
    PrescaleConfig,
    fft_1d,
    fft_2d,
    forward_pipeline,
    gen_phantom,
    make_plan,
)
from mxfft.mri import KSPACE, ComplexGrid

import fft_oracle

# from the format's subnormal range up to just below overflow; rows are
# rescaled over six decades on top, so the largest magnitudes overflow at
# the larger sizes, where both sides must fail
MAGNITUDES = {
    "reference": [1e-310, 1e-300, 1e-100, 1.0, 1e100, 1e304],
    "fp16": [1e-7, 1e-5, 1e-3, 1.0, 1e2, 3e4],
}


def _input(rng, n, mag):
    """Complex normal grid at `mag` with rows rescaled over six decades and
    single zeros and whole zero rows sprinkled in."""
    x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * mag
    x *= 10.0 ** rng.integers(-3, 4, size=(n, 1))
    x[rng.random((n, n)) < 0.15] = 0
    x[rng.random(n) < 0.1] = 0
    return x


def _oracle(fn, *args):
    """Oracle output, or InvalidValue where it raises or overflows (the
    reference oracle returns infinities with only a warning)."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            out = fn(*args)
        except InvalidValue:
            return InvalidValue
    return out if np.all(np.isfinite(out)) else InvalidValue


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["reference", "fp16"])
def test_matches_frozen_oracle(kind):
    rng = np.random.default_rng(len(kind))
    equal = failed = 0
    for n in (2, 4, 8, 16, 32, 64, 128, 256):
        plan = make_plan(n, ModeSpec.from_name(kind))
        for mag in MAGNITUDES[kind]:
            x = _input(rng, n, mag)
            for direction in ("forward", "inverse"):
                cases = [(fft_2d, fft_oracle.fft_2d, x)]
                cases += [(fft_1d, fft_oracle.fft_1d, row) for row in (x[0], x[-1])]
                for fn, oracle, arg in cases:
                    want = _oracle(oracle, arg, kind, direction)
                    if want is InvalidValue:
                        with pytest.raises(InvalidValue):
                            fn(arg, plan, direction)
                        failed += 1
                    else:
                        assert np.array_equal(fn(arg, plan, direction), want), (n, mag, direction)
                        equal += 1
    assert equal > failed > 0  # both outcomes are exercised


@pytest.mark.filterwarnings("error")
def test_fp16_overflow_is_a_typed_error():
    plan = make_plan(16, ModeSpec.fp16())
    x = np.random.default_rng(1).standard_normal((16, 16)) * 1e6 + 0j
    with pytest.raises(InvalidValue, match=r"FP16 range \(\|x\| <= 65504\)"):
        fft_2d(x, plan)


@pytest.mark.filterwarnings("error")
def test_fp16_pipeline_out_of_range_is_a_typed_error():
    # the prescale's k is clipped at k_min = -40, so 1e60 k-space stays far
    # above the FP16 range
    _, ksp = gen_phantom(16, 2, 0)
    big = ComplexGrid(ksp.data * 1e60, KSPACE)
    with pytest.raises(InvalidValue, match="FP16 range"):
        forward_pipeline(big, make_plan(16, ModeSpec.fp16()), PrescaleConfig())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["reference", "fp16", "e4m3"])
def test_nan_input_is_a_typed_error(kind):
    plan = make_plan(16, ModeSpec.from_name(kind))
    x = np.ones((16, 16), dtype=complex)
    x[3, 5] = np.nan
    with pytest.raises(InvalidValue):
        fft_2d(x, plan)
    with pytest.raises(InvalidValue):
        fft_1d(x[3], plan, "inverse")


@pytest.mark.filterwarnings("error")
def test_reference_overflow_is_a_typed_error():
    plan = make_plan(16, ModeSpec.reference())
    with pytest.raises(InvalidValue, match="float64 range"):
        fft_2d(np.full((16, 16), 1e306, dtype=complex), plan)
