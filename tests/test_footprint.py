"""Peak heap of the layers that hold a whole coil stack.

At N=256 with 4 coils a complex128 stack takes 4 MiB.  A phantom holds its
image and k-space, a pipeline one prescaled copy of its input, and fft_2d
one carry buffer per pass, updated in place and sized for one chunk (one
coil at N=256).  The bounds are tracemalloc peaks above what was allocated
when the call began, as multiples of the stack's bytes; each call runs once
untraced first, so that first-call caches are not counted.
"""

import tracemalloc

import numpy as np
import pytest

from mxfft import (
    ModeSpec,
    PrescaleConfig,
    fft_2d,
    forward_pipeline,
    gen_phantom,
    make_plan,
    roundtrip_pipeline,
)

N, COILS = 256, 4
STACK_BYTES = COILS * N * N * np.dtype(np.complex128).itemsize
MODES = ["reference", "fp16", "e4m3"]


def _peak_stacks(call, *arrays) -> float:
    """The traced peak of call(*arrays) in stacks; each run gets fresh copies
    of the arrays, made before the tracing starts."""
    call(*(a.copy() for a in arrays))
    fresh = [a.copy() for a in arrays]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(*fresh)
        return (tracemalloc.get_traced_memory()[1] - base) / STACK_BYTES
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def phantom():
    return gen_phantom(N, COILS, 0)


def test_phantom_holds_its_image_and_kspace():
    assert _peak_stacks(lambda: gen_phantom(N, COILS, 0)) <= 3.5


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("pipeline", [forward_pipeline, roundtrip_pipeline])
def test_pipeline_holds_one_copy_of_the_stack(phantom, pipeline, mode):
    image, kspace = phantom
    grid = kspace if pipeline is forward_pipeline else image
    plan = make_plan(N, ModeSpec.from_name(mode))
    assert _peak_stacks(lambda: pipeline(grid, plan, PrescaleConfig())) <= 2.25


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_in_place_transform_holds_less_than_the_stack(phantom, mode, direction):
    plan = make_plan(N, ModeSpec.from_name(mode))
    assert _peak_stacks(lambda x: fft_2d(x, plan, direction, out=x), phantom[1].data) <= 1.0
