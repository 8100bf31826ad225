"""The package names that perfbench's tracer hooks.

perfbench/spans.py looks up module attributes of the package by name in
every benchmark run, so a renamed or dropped name breaks the benchmark
without failing any other test.  The file is loaded as it stands; nothing
under perfbench/ is imported as a package or changed.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mxfft import ModeSpec, PrescaleConfig, cli, gen_phantom, make_plan, mri
from mxfft.cli import ExperimentSpec

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_to_a_callable(spans):
    for module, attr, name, _ in spans.HOOKS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} (span {name})"
    spans.Tracer()
    spans.FftPeakProbe()


def test_traced_sweep_cell_reaches_the_hooked_names(spans):
    # the second run finds its plans built: the span must still see the call
    def spec():
        return ExperimentSpec(modes=["e4m3"], sizes=[16], blocks=[32], seeds=[0], coils=1)

    cli.run_experiment(spec())
    tracer = spans.Tracer()
    tracer.install()
    try:
        rows = cli.run_experiment(spec())
    finally:
        tracer.uninstall()
    assert len(rows) == 2
    assert tracer.calls["cli.run_experiment"] == 1
    assert tracer.calls["fftcore.make_plan"] >= 1
    assert tracer.calls["mxblock.block_scales"] >= 1


def test_traced_pipeline_reaches_the_transform_span_and_probe(spans):
    # the pipeline transforms its prescaled copy in place through mri's
    # fft_2d name, so the span and the peak probe must still see each call;
    # called by module attribute, as the benchmark's workloads call it
    _, kspace = gen_phantom(16, 2, 0)
    plan = make_plan(16, ModeSpec.from_name("e4m3"))
    untraced = mri.forward_pipeline(kspace, plan, PrescaleConfig())
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = mri.forward_pipeline(kspace, plan, PrescaleConfig())
    finally:
        tracer.uninstall()
    assert tracer.calls["mri.forward_pipeline"] == 1
    assert tracer.calls["fftcore.fft_2d"] == 1
    assert tracer.work["fftcore.fft_2d"] == 16 * 16 * 4
    assert np.array_equal(traced.pixels, untraced.pixels)
    probe = spans.FftPeakProbe()
    probe.install()
    try:
        mri.forward_pipeline(kspace, plan, PrescaleConfig())
    finally:
        probe.uninstall()
    assert probe.peak_bytes > 0
