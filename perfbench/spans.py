"""Per-layer tracing from outside the package.

Wrappers are installed on the module attributes that callers inside
``mxfft`` actually look up at call time (``mri`` calls its own global
``fft_2d``, ``fftcore`` its own global ``quantize_array``, and so on), so
no file under ``src/`` is touched.  Each wrapper records a span: its wall
time, its self time (wall time minus the wall time of the wrapped calls it
made) and a call count.  Spans are aggregated per name in memory; nothing is
written to disk.
"""

from __future__ import annotations

import tracemalloc
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from mxfft import cli, fftcore, metrics, mri, mxblock


def _elems(args, kwargs, result):
    return np.size(args[0] if args else kwargs["values"])


def _rows(args, kwargs, result):
    return len(result)


def _butterflies(args, kwargs, result):
    # fft_2d runs 2n length-n transforms of (n/2) log2 n butterflies each
    n = (args[1] if len(args) > 1 else kwargs["plan"]).n
    return n * n * (n.bit_length() - 1)


# (module, attribute looked up by callers, span name, work counter or None).
# A span name is "<defining module>.<function>"; undo_prescale is reported
# under apply_prescale, which it calls.
HOOKS = [
    (fftcore, "quantize_array", "minifloat.quantize_array", _elems),
    (mxblock, "block_scales", "mxblock.block_scales", None),
    (mri, "fft_2d", "fftcore.fft_2d", _butterflies),
    (mri, "make_plan", "fftcore.make_plan", None),
    (cli, "make_plan", "fftcore.make_plan", None),
    (mri, "compute_prescale", "prescale.compute_prescale", None),
    (cli, "compute_prescale", "prescale.compute_prescale", None),
    (mri, "apply_prescale", "prescale.apply_prescale", None),
    (mri, "undo_prescale", "prescale.apply_prescale", None),
    (mri, "rss", "mri.rss", None),
    (cli, "gen_phantom", "mri.gen_phantom", None),
    (mri, "forward_pipeline", "mri.forward_pipeline", None),
    (cli, "forward_pipeline", "mri.forward_pipeline", None),
    (mri, "roundtrip_pipeline", "mri.roundtrip_pipeline", None),
    (cli, "roundtrip_pipeline", "mri.roundtrip_pipeline", None),
    (metrics, "ssim", "metrics.ssim", None),
    (metrics, "psnr", "metrics.psnr", None),
    (metrics, "nmse", "metrics.nmse", None),
    (cli, "run_experiment", "cli.run_experiment", _rows),
]

SPANS = sorted({name for _, _, name, _ in HOOKS})


class _Patch:
    """Replaces module attributes by wrappers while installed."""

    def __init__(self, wrappers):
        self._wrappers = wrappers  # [(module, attr, original, wrapper)]

    def install(self):
        for mod, attr, _, wrapper in self._wrappers:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._wrappers:
            setattr(mod, attr, original)


class Tracer(_Patch):
    """Aggregates span self time, calls and work counts per span name."""

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self._stack = []  # wall ns of finished child spans, per open span
        super().__init__(
            [(m, a, getattr(m, a), self._wrap(getattr(m, a), name, count)) for m, a, name, count in HOOKS]
        )

    def _wrap(self, fn, name, count):
        stack, self_ns, calls, work = self._stack, self.self_ns, self.calls, self.work

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self_ns[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            if count is not None:
                work[name] += count(args, kwargs, result)
            return result

        return wrapper

    def total_self_ns(self) -> int:
        return sum(self.self_ns.values())


class FftPeakProbe(_Patch):
    """Largest tracemalloc peak of a single ``fft_2d`` call while installed.

    The peak counts the bytes numpy and Python allocate during the call above
    what was allocated when it started; it is not a bandwidth figure.
    """

    def __init__(self):
        self.peak_bytes = 0
        original = mri.fft_2d

        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return original(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1] - base)

        super().__init__([(mri, "fft_2d", original, wrapper)])

    def install(self):
        tracemalloc.start()
        super().install()

    def uninstall(self):
        super().uninstall()
        tracemalloc.stop()
