"""The MX stage multiply's decoded form against its code-space form.

fftcore._mx_multiply runs a call on decoded values (_mx_multiply_decoded)
when v's block scales lie in the format's _decoded_scales window, where every
value that form rounds or forms is normal in float32, and in code space
(_mx_multiply_codes) otherwise.  Wherever the
decoded form runs, the two must agree bit for bit (uint32 views, so the sign
of zero counts), and the dispatcher must give the code-space bits either way.
The inputs sit at magnitudes 2^e on both sides of the switch-over bounds,
with all-zero blocks, signed zeros and blocks spread over many binades.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mxfft import E2M3, E3M2, E4M3, E5M2, FP16, ConfigError, MinifloatFormat, ModeSpec, make_plan, mxblock
from mxfft.fftcore import (
    _F32,
    _block_amax,
    _decoded_scales,
    _mx_multiply,
    _mx_multiply_codes,
    _mx_multiply_decoded,
)

from test_mx_kernel import E6M11  # decoded only for block amax in [2^53, 2^124)

FORMATS = [E4M3, E5M2, E2M3, E3M2, FP16]
BATCH = 3


def _v(rng, shape, e, spread):
    """Float32 v planes (2, G, K, R, J, BATCH) of a stage view at 2^e: blocks
    rescaled over 2 * spread + 1 binades, a fifth of the blocks all zero and
    a fifth of the other values +0 or -0; clipped to the float32 range."""
    g, k, _, r, j = shape
    v = rng.standard_normal((2, g, k, r, j, BATCH)) * 2.0**e
    v *= 2.0 ** rng.integers(-spread, spread + 1, (1, g, 1, r, 1, BATCH))
    v *= rng.random((1, g, 1, r, 1, BATCH)) >= 0.2
    zero = rng.random(v.shape) < 0.2
    v[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    return np.clip(v, -_F32.max, _F32.max).astype(np.float32)


def _compare(fmt, plan, inverse, s, v):
    """Asserts both forms' bits agree where the decoded one runs; returns
    whether it ran.  Runs under the stage driver's errstate: near the float32
    limit the code-space decode overflows to inf, which the driver reports."""
    w, exact = plan.twiddles[inverse][s], plan.exact[s]
    amax = _block_amax(v)
    sv = mxblock.block_scales(amax, fmt, np.float32)
    lo, hi = _decoded_scales(fmt)
    decoded = bool(lo <= sv.min() and sv.max() <= hi)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _mx_multiply_codes(v, amax, w, fmt, exact).view(np.uint32)
        assert np.array_equal(_mx_multiply(v, w, fmt, exact).view(np.uint32), want)
    if decoded:
        got = _mx_multiply_decoded(v, w, sv, fmt, exact).view(np.uint32)
        assert np.array_equal(got, want)
    return decoded


@given(
    fmt=st.sampled_from(FORMATS + [E6M11]),
    block=st.sampled_from([2, 8, 32, 64]),
    log_n=st.integers(1, 7),
    stage=st.integers(0, 6),
    inverse=st.integers(0, 1),
    e=st.integers(-160, 128),
    spread=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_decoded_form_equals_the_code_space_one(fmt, block, log_n, stage, inverse, e, spread, seed):
    plan = make_plan(1 << log_n, ModeSpec.mx(fmt, block))
    s = stage % plan.stages
    v = _v(np.random.default_rng(seed), plan.shapes[s], e, spread)
    event("decoded" if _compare(fmt, plan, inverse, s, v) else "code space")


@pytest.mark.parametrize("block", [2, 32])
@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
def test_each_form_is_reached_on_both_sides_of_the_bounds(fmt, block):
    # one exact and one requantizing stage per direction, single-binade data
    # at every magnitude from near the float32 subnormals to near overflow:
    # the decoded form runs around 2^0 and the code-space form at both ends,
    # and the forms agree throughout.  Below 2^-145 the values flush to zero
    # blocks, which the decoded form may take.
    plan = make_plan(64, ModeSpec.mx(fmt, block))
    exps = range(-145, 128)
    for inverse in (0, 1):
        for s in (0, plan.stages - 1):
            rng = np.random.default_rng([block, s, inverse])
            forms = {e: _compare(fmt, plan, inverse, s, _v(rng, plan.shapes[s], e, 0)) for e in exps}
            assert forms[0] and not forms[exps[0]] and not forms[exps[-1]], (inverse, s)



@pytest.mark.parametrize(
    "fmt, lo, hi",
    [(E4M3, -83, 124), (E5M2, -48, 124), (E2M3, -113, 124), (E3M2, -105, 124), (E6M11, 53, 124)],
    ids=lambda f: getattr(f, "name", ""),
)
def test_decoded_window_in_block_amax_terms(fmt, lo, hi):
    # a nonzero block's scale is 2^(floor(log2 amax) - emax), so the scale
    # window [s_lo, s_hi] holds the blocks with amax in [2^lo, 2^hi)
    s_lo, s_hi = _decoded_scales(fmt)
    assert (s_lo * 2.0**fmt.emax, s_hi * 2.0 ** (fmt.emax + 1)) == (2.0**lo, 2.0**hi)


@pytest.mark.parametrize(
    "fmt",
    [MinifloatFormat("wide", 8, 23, "ieee"), MinifloatFormat("e7m3", 7, 3), MinifloatFormat("e4m12", 4, 12)],
    ids=lambda f: f.name,
)
def test_formats_without_exact_float32_products_are_never_decoded(fmt):
    # float64 products, or code products past 24 bits: no MX mode takes them,
    # so no plan reaches the decoded multiply with them
    with pytest.raises(ConfigError, match=f"^fmt: {fmt.name}: "):
        ModeSpec.mx(fmt)
