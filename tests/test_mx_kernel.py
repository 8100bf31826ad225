"""The MX kernel on float32 planes against the frozen pre-plane oracle,
and its typed errors at the edge of the complex64 range."""

import warnings

import numpy as np
import pytest

from mxfft import E2M3, E3M2, E4M3, E5M2, InvalidValue, MinifloatFormat, ModeSpec, fft_2d, make_plan

from mx_oracle import fft_2d_mx

# the widest format an MX mode takes: 24-bit code products
E6M11 = MinifloatFormat("e6m11", 6, 11)
MAGNITUDES = [1e-42, 1e-38, 1e-30, 1e-8, 1.0, 1e12, 1e30, 1e35]


def _input(rng, n, mag):
    """Complex normal grid at `mag` with rows rescaled over six decades and
    single zeros and whole zero rows sprinkled in."""
    x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * mag
    x *= 10.0 ** rng.integers(-3, 4, size=(n, 1))
    x[rng.random((n, n)) < 0.15] = 0
    x[rng.random(n) < 0.1] = 0
    return x


def _mixed(rng, n):
    """One grid whose rows span 1e-42 to 1e30, with zero rows; the row sums
    stay inside the complex64 range up to n = 256."""
    mags = np.array(MAGNITUDES[:-1] + [0.0])
    return _input(rng, n, 1.0) * mags[rng.integers(0, mags.size, size=(n, 1))]


def _oracle(x, fmt, block, direction):
    """Oracle output, or the exception type it raises.  Output that is not
    finite (the oracle overflowed complex64 with only a warning) counts as
    InvalidValue, which the kernel now raises instead."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            out = fft_2d_mx(x, fmt, block, direction)
        except Exception as exc:  # noqa: BLE001 - the type is the expectation
            return type(exc)
    return out if np.all(np.isfinite(out)) else InvalidValue


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block", [2, 8, 32, 64])
@pytest.mark.parametrize("fmt", [E4M3, E5M2, E2M3, E3M2, E6M11], ids=lambda f: f.name)
def test_fft_2d_matches_frozen_oracle(fmt, block):
    rng = np.random.default_rng([block, fmt.mantissa_bits, fmt.exponent_bits])
    both = ("forward", "inverse")
    # every magnitude at one or two sizes; mixed magnitudes at every size,
    # where n = 256 runs one direction per block size to bound the oracle's cost
    cases = [
        (n, _input(rng, n, MAGNITUDES[(2 * i + j) % len(MAGNITUDES)]), both)
        for i, n in enumerate((2, 4, 8, 16, 32, 64))
        for j in range(2)
    ]
    cases += [(n, _mixed(rng, n), both) for n in (2, 4, 8, 16, 32, 64, 128)]
    cases.append((256, _mixed(rng, 256), (both[block in (8, 64)],)))
    for n, x, directions in cases:
        plan = make_plan(n, ModeSpec.mx(fmt, block))
        for direction in directions:
            want = _oracle(x, fmt, block, direction)
            if isinstance(want, type):
                with pytest.raises(want):
                    fft_2d(x, plan, direction)
            else:
                got = fft_2d(x, plan, direction)
                assert np.array_equal(got, want), (n, direction)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "value",
    [1e39, 3e37, 1e38 - 1e38j],  # out of range at the cast; in a butterfly add; both
)
def test_complex64_overflow_is_a_typed_error(value):
    plan = make_plan(16, ModeSpec.mx(E4M3, 32))
    with pytest.raises(InvalidValue, match="complex64 range"):
        fft_2d(np.full((16, 16), value, dtype=complex), plan)


@pytest.mark.filterwarnings("error")
def test_nan_input_is_a_typed_error():
    plan = make_plan(16, ModeSpec.mx(E4M3, 32))
    x = np.ones((16, 16), dtype=complex)
    x[3, 5] = np.nan
    with pytest.raises(InvalidValue):
        fft_2d(x, plan)
    with pytest.raises(InvalidValue):
        fft_2d(x.T, plan, "inverse")


@pytest.mark.filterwarnings("error")
def test_in_range_input_stays_finite_without_warnings():
    n = 16
    plan = make_plan(n, ModeSpec.mx(E4M3, 32))
    # the largest constant whose DC sum n*n*a stays below the float32 maximum
    a = np.float32(3.4e38) / (n * n)
    out = fft_2d(np.full((n, n), a, dtype=complex), plan)
    assert np.all(np.isfinite(out))
