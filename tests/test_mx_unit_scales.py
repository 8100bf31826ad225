"""The MX multiply's code-space form, the one body run at unit scales, on
formats that no mode name selects; and the shipped modes' fast path, which
never needs it.

fftcore._mx_multiply_codes runs _mx_multiply_decoded on v's codes, in
float32, as the decoded form runs.  The frozen oracle tests/mx_oracle.py pins
those formats' transforms bit for bit.
"""

import itertools

import numpy as np
import pytest

from mxfft import (
    FORMATS,
    MinifloatFormat,
    ModeSpec,
    PrescaleConfig,
    cli,
    fftcore,
    fft_2d,
    gen_phantom,
    make_plan,
    quantize_array,
)
from mxfft.cli import ExperimentSpec
from mxfft.mri import forward_pipeline

from test_mx_kernel import E6M11, MAGNITUDES, _input, _mixed, _oracle

# exponent bits 2 to 6 and mantissa bits 1 to 11, the formats an MX mode
# takes; E6M11 and E5M11 form 24-bit code products, the most float32 holds
OFF_MENU = [
    MinifloatFormat("e4m10", 4, 10),
    MinifloatFormat("e5m7", 5, 7, "extended"),
    MinifloatFormat("e2m1", 2, 1),
    E6M11,
    MinifloatFormat("e5m11", 5, 11, "ieee"),
]


@pytest.mark.parametrize("block", [2, 8, 32])
@pytest.mark.parametrize("fmt", OFF_MENU, ids=lambda f: f.name)
def test_off_menu_formats_match_frozen_oracle(fmt, block):
    rng = np.random.default_rng([block, fmt.exponent_bits, fmt.mantissa_bits])
    # every magnitude at a size that cycles 2..32, and mixed rows at 8 and 32
    cases = [(2 << i % 5, _input(rng, 2 << i % 5, mag)) for i, mag in enumerate(MAGNITUDES)]
    cases += [(n, _mixed(rng, n)) for n in (8, 32)]
    for n, x in cases:
        plan = make_plan(n, ModeSpec.mx(fmt, block))
        for direction in ("forward", "inverse"):
            want = _oracle(x, fmt, block, direction)
            if isinstance(want, type):
                with pytest.raises(want):
                    fft_2d(x, plan, direction)
            else:
                assert np.array_equal(fft_2d(x, plan, direction), want), (n, direction)


def _no_code_space(*args, **kwargs):
    raise AssertionError("the code-space MX multiply ran")


def test_shipped_modes_never_leave_the_decoded_form(monkeypatch):
    # the benchmark's workloads: an e4m3 (and e5m2) forward pipeline at
    # N=256, and one sweep cell at N=128
    monkeypatch.setattr(fftcore, "_mx_multiply_codes", _no_code_space)
    _, kspace = gen_phantom(256, 4, 0)
    for name in ("e4m3", "e5m2"):
        image = forward_pipeline(kspace, make_plan(256, ModeSpec.from_name(name, 32)), PrescaleConfig())
        assert np.all(np.isfinite(image.pixels))
    spec = ExperimentSpec(modes=["e4m3", "e5m2", "fp16"], sizes=[128], blocks=[32], seeds=[0])
    assert {row["mode"] for row in cli.run_experiment(spec)} == {"e4m3", "e5m2", "fp16"}


@pytest.mark.parametrize("fmt", list(FORMATS.values()) + OFF_MENU, ids=lambda f: f.name)
def test_every_twiddle_scale_is_two_to_the_minus_emax_or_half_that(fmt):
    # fftcore._decoded_scales rests on this: a twiddle block's amax lies in
    # [2^-0.5, 1].  The plan's decoded tables divide by ws back to codes on
    # the format's grid.
    scales = {2.0**-fmt.emax, 2.0 ** (-1 - fmt.emax)}
    for block, log_n in itertools.product([2, 8, 32, 64], range(1, 13)):
        plan = fftcore.FftPlan(1 << log_n, ModeSpec.mx(fmt, block))
        for decoded, ws in itertools.chain(*plan.twiddles):
            assert set(np.unique(ws)) <= scales, (block, log_n)
            assert decoded.dtype == np.float32
            codes = decoded / ws
            assert np.array_equal(quantize_array(codes, fmt), codes), (block, log_n)
