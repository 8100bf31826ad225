"""mxfft benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload fwd-e4m3-256 --seed 0 --seconds 40 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Each invocation is one process running one workload as
a closed loop with one caller: set-up (repeated, median reported), one
untimed warm-up operation, then operations back to back until ``--seconds``
have passed.  BLAS/OpenMP threads are pinned to 1 and no pools are used.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
blocks of traced and untraced operations, reports per-layer self times from
the traced ones and the tracing overhead from the difference.  The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's details
(machine facts, output digest, per-mode PSNR, failures).
"""

from __future__ import annotations

import os

# must precede the first numpy import to take effect
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
MAX_FAILURES_SHOWN = 5
# spans whose call count per operation is reported; the others are called a
# fixed number of times per pipeline call
COUNTED_CALLS = {
    "minifloat.quantize_array", "mxblock.block_scales", "fftcore.fft_2d", "fftcore.make_plan",
    "mri.gen_phantom", "metrics.ssim", "cli.run_experiment",
}


def _import_package():
    """Import mxfft from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import mxfft

    if Path(mxfft.__file__).resolve().parent != ROOT / "src" / "mxfft":
        raise ImportError(f"mxfft resolved to {mxfft.__file__}, not this checkout's src/")


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
    }


def percentile_nearest_rank(values, q: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


class Runner:
    """Runs, times and checks operations of one workload."""

    def __init__(self, workload, caught):
        self.wl = workload
        self.caught = caught  # warnings recorded since the loop began
        self.attempted = 0
        self.failures = []

    def attempt(self, i: int, patch=None):
        """Run operation i with `patch` installed; return its seconds, None if it failed."""
        self.attempted += 1
        seen = len(self.caught)
        if patch is not None:
            patch.install()
        t0 = perf_counter()
        try:
            out = self.wl.run_op(i)
        except Exception as exc:  # every failure is counted, the loop goes on
            out, reason = None, f"op {i}: {type(exc).__name__}: {exc}"
        else:
            reason = None
        finally:
            dt = perf_counter() - t0
            if patch is not None:
                patch.uninstall()
        if reason is None:
            reason = self.wl.check(i, out)
        if reason is None and len(self.caught) > seen:
            w = self.caught[seen]
            reason = f"op {i}: {w.category.__name__}: {w.message}"
        if reason is not None:
            self.failures.append(reason)
            return None
        return dt


def end_to_end(times, setup_times, wl) -> dict:
    ms = [t * 1e3 for t in times]
    return {
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (percentile_nearest_rank(ms, 0.9), "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "psnr_db_mean": (wl.psnr_db_mean(), "dB"),
    }


def per_layer(tracer, traced, untraced, fft_peak_bytes) -> dict:
    from spans import SPANS

    n = len(traced)
    out = {}
    for name in SPANS:
        out[f"{name}.ms"] = (tracer.self_ns[name] / 1e6 / n, "ms/op")
        if name in COUNTED_CALLS:
            out[f"{name}.calls"] = (tracer.calls[name] / n, "calls/op")
    q, f = "minifloat.quantize_array", "fftcore.fft_2d"
    out[f"{q}.elems"] = (tracer.work[q] / n, "elems/op")
    out[f"{q}.ns_per_elem"] = (tracer.self_ns[q] / max(tracer.work[q], 1), "ns")
    out[f"{f}.butterflies"] = (tracer.work[f] / n, "butterflies/op")
    out[f"{f}.ns_per_butterfly"] = (tracer.self_ns[f] / max(tracer.work[f], 1), "ns")
    out[f"{f}.temp_peak_mb"] = (fft_peak_bytes / 2**20, "MiB_tracemalloc")
    out["cli.rows"] = (tracer.work["cli.run_experiment"] / n, "rows/op")
    wall_ns = sum(traced) * 1e9
    out["trace.overhead_pct"] = (100 * (statistics.median(traced) / statistics.median(untraced) - 1), "%")
    out["trace.unaccounted_pct"] = (100 * (wall_ns - tracer.total_self_ns()) / wall_ns, "%")
    return out


def run(args) -> int:
    from spans import FftPeakProbe, Tracer
    from workloads import REFERENCE_RTOL, WORKLOADS

    wl = WORKLOADS[args.workload]()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl.setup(args.seed)
        setup_times.append(perf_counter() - t0)
    tracer = Tracer() if args.trace else None
    gc.collect()

    traced, untraced = [], []  # seconds of successful timed ops
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runner = Runner(wl, caught)
        runner.attempt(0)  # warm-up, untimed; its output is the first seen for input 0
        deadline = perf_counter() + args.seconds
        i = 0
        while perf_counter() < deadline:
            # the first block is traced, so it is compared with the untraced warm-up
            on = tracer is not None and (i // wl.trace_block) % 2 == 0
            dt = runner.attempt(i, tracer if on else None)
            if dt is not None:
                (traced if on else untraced).append(dt)
            i += 1
        timed_ops = i
        for k in range(wl.first_pass):  # a short run still covers the whole first pass
            if k not in wl.first:
                runner.attempt(k)
        fft_peak = 0
        if tracer is not None:
            probe = FftPeakProbe()
            runner.attempt(0, probe)
            fft_peak = probe.peak_bytes

    complete = all(k in wl.first for k in range(wl.first_pass))
    reference_ok = wl.reference_error <= REFERENCE_RTOL
    failed = len(runner.failures)
    if not complete or not untraced or (tracer is not None and not traced):
        print("error: no successful timed operation or incomplete first pass", file=sys.stderr)
        return 1
    if tracer is not None:
        metrics = per_layer(tracer, traced, untraced, fft_peak)
    else:
        metrics = end_to_end(untraced, setup_times, wl)
    n_ok = len(traced) if tracer is not None else len(untraced)
    detail = {
        "workload": wl.name,
        "input": wl.input_desc,
        "machine": machine_facts(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_ops": timed_ops,
        "ops_beyond_p90": n_ok - math.ceil(0.9 * n_ok),
        "setup_s_all": setup_times,
        "error_rate": failed / runner.attempted,
        "failures": runner.failures[:MAX_FAILURES_SHOWN],
        "reference_max_rel_err": wl.reference_error,
        "digest": wl.digest(),
        "psnr_db": wl.psnr_by_mode(),
    }
    if tracer is not None:
        detail.update(traced_ops=len(traced), untraced_ops=len(untraced))
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and reference_ok,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    try:
        _import_package()
    except ImportError as exc:
        print(f"error: cannot import mxfft from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
