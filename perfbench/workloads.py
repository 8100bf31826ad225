"""The benchmark's workloads: inputs, one operation, and its correctness oracle.

Every workload is driven by ``run.py`` as a closed loop with one caller.  An
operation fails if it raises, warns (checked by the runner), returns a
non-finite value or the wrong shape, scores a PSNR below the workload's
floor, or gives an output on a repeated input that is not bit-identical to
the first one.  Phantoms use the harness/CLI defaults (tail 0.2, noise 0.1,
default ``PrescaleConfig``).

Why these three:
  fwd-e4m3-256  the MX forward transform at N=256, where fft_2d and
                quantize_array dominate; SSIM and phantom generation are
                outside the operation, so changes to them read as no change.
  sweep-128     one sweep cell per fresh seed, the researchers' real loop;
                SSIM, phantom generation and plan building are inside it.
  rt-bars-64    the round trip (inverse direction too) through the fp16
                kernel and the smallest MX blocks on small arrays, where fixed
                per-call and per-block cost dominates.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from mxfft import E2M3, E4M3, ModeSpec, PrescaleConfig, cli, make_plan, metrics, mri
from mxfft.mri import IMAGE, KSPACE

TAIL = 0.2
NOISE = 0.1
PRESCALE = PrescaleConfig()

#: Largest allowed max|FP64 reference - np.fft pipeline| / max|np.fft pipeline|.
REFERENCE_RTOL = 1e-12


def phantom_seeds(seed: int, count: int) -> list:
    """Phantom seeds of benchmark seed `seed`; two seeds share none below 100000 inputs."""
    return [seed * 100_000 + j for j in range(count)]


def numpy_pipeline(grid, pipeline: str) -> np.ndarray:
    """The forward or round-trip pipeline with np.fft, RSS-combined."""
    out = np.fft.fft2(grid.data)
    if pipeline == "roundtrip":
        out = np.fft.ifft2(out)
    return np.sqrt(np.sum(np.abs(out) ** 2, axis=0))


def reference_error(grid, ref, pipeline: str) -> float:
    oracle = numpy_pipeline(grid, pipeline)
    return float(np.max(np.abs(ref.pixels - oracle)) / np.max(np.abs(oracle)))


class Workload:
    """First-seen bookkeeping shared by the workloads.

    ``first_pass`` operations cover the inputs the digest and ``psnr_db_mean``
    are taken over; operation ``i`` reads input ``key(i)``.  A traced run
    alternates blocks of ``trace_block`` traced and untraced operations.
    """

    trace_block = 1

    name: str
    input_desc: str
    first_pass: int
    floors: dict  # mode -> lowest PSNR (dB) an operation may score

    def __init__(self):
        self.first = {}  # key -> (fingerprint sha256, [(mode, psnr_db)])
        self.reference_error = math.inf

    def key(self, i: int) -> int:
        return i

    def check(self, i: int, out):
        """Return None if operation i's output passes the oracle, else a reason."""
        bad = self.validate(out)
        if bad:
            return bad
        fp = hashlib.sha256(self.fingerprint(out)).hexdigest()
        k = self.key(i)
        if k in self.first:
            return None if fp == self.first[k][0] else f"output on repeated input {k} differs"
        scores = self.psnrs(k, out)
        self.first[k] = (fp, scores)
        low = [f"{m} {p:.3f} dB < {self.floors[m]} dB" for m, p in scores if not p >= self.floors[m]]
        return f"psnr below floor on input {k}: {', '.join(low)}" if low else None

    def digest(self) -> str:
        h = hashlib.sha256()
        for k in range(self.first_pass):
            h.update(self.first[k][0].encode())
        return h.hexdigest()

    def psnr_by_mode(self) -> dict:
        by_mode = {}
        for k in range(self.first_pass):
            for m, p in self.first[k][1]:
                by_mode.setdefault(m, []).append(p)
        return {m: sum(v) / len(v) for m, v in by_mode.items()}

    def psnr_db_mean(self) -> float:
        vals = [p for k in range(self.first_pass) for _, p in self.first[k][1]]
        return sum(vals) / len(vals)


class PipelineWorkload(Workload):
    """One pipeline call per mode on one of a few phantoms built in setup."""

    def __init__(self, name, pipeline, n, coils, kind, modes, inputs, floors):
        super().__init__()
        self.name = name
        self.pipeline = pipeline
        self.n = n
        self.coils = coils
        self.kind = kind
        self.modes = modes  # [(label, ModeSpec)], all run in one operation
        self.first_pass = inputs
        # whole passes, so that every input is seen both traced and untraced
        self.trace_block = inputs
        self.floors = floors
        domain = KSPACE if pipeline == "forward" else IMAGE
        self.input_desc = (
            f"{coils} coils x {n}^2 {kind} {domain} grid, {inputs} inputs cycled, "
            f"{pipeline} via {' then '.join(m for m, _ in modes)}"
        )

    def key(self, i: int) -> int:
        return i % self.first_pass

    def _run(self, grid, plan):
        # looked up at call time so that a traced run sees the wrapper
        return getattr(mri, f"{self.pipeline}_pipeline")(grid, plan, PRESCALE)

    def setup(self, seed: int) -> None:
        self.plans = [make_plan(self.n, spec) for _, spec in self.modes]
        ref_plan = make_plan(self.n, ModeSpec.reference())
        self.grids, self.refs = [], []
        err = 0.0
        for s in phantom_seeds(seed, self.first_pass):
            image, kspace = mri.gen_phantom(self.n, self.coils, s, self.kind, TAIL, NOISE)
            grid = kspace if self.pipeline == "forward" else image
            ref = self._run(grid, ref_plan)
            err = max(err, reference_error(grid, ref, self.pipeline))
            self.grids.append(grid)
            self.refs.append(ref)
        self.reference_error = err

    def run_op(self, i: int):
        grid = self.grids[self.key(i)]
        return [self._run(grid, plan) for plan in self.plans]

    def validate(self, out):
        for (m, _), img in zip(self.modes, out):
            if img.pixels.shape != (self.n, self.n):
                return f"{m}: shape {img.pixels.shape}"
            if not np.all(np.isfinite(img.pixels)):
                return f"{m}: non-finite output"
        return None

    def fingerprint(self, out) -> bytes:
        return b"".join(img.pixels.tobytes() for img in out)

    def psnrs(self, k, out):
        return [(m, metrics.psnr(self.refs[k], img)) for (m, _), img in zip(self.modes, out)]


class SweepWorkload(Workload):
    """One ``cli.run_experiment`` call per operation, for a fresh seed each time."""

    name = "sweep-128"
    n = 128
    coils = 4
    modes = ["e4m3", "e5m2", "fp16"]
    first_pass = 8
    floors = {"e4m3": 24.0, "e5m2": 24.0, "fp16": 70.0}
    input_desc = (
        "4 coils x 128^2 blobs k-space grid, fresh seed per op, "
        "forward via e4m3, e5m2, fp16 (B=32) plus the FP64 reference"
    )

    def setup(self, seed: int) -> None:
        self.base_seed = phantom_seeds(seed, 1)[0]
        ref_plan = make_plan(self.n, ModeSpec.reference())
        err = 0.0
        for s in phantom_seeds(seed, self.first_pass):
            _, kspace = mri.gen_phantom(self.n, self.coils, s, "blobs", TAIL, NOISE)
            ref = mri.forward_pipeline(kspace, ref_plan, PRESCALE)
            err = max(err, reference_error(kspace, ref, "forward"))
        self.reference_error = err

    def run_op(self, i: int):
        spec = cli.ExperimentSpec(
            modes=list(self.modes),
            sizes=[self.n],
            blocks=[32],
            seeds=[self.base_seed + i],
            coils=self.coils,
            tail=TAIL,
            noise=NOISE,
            prescale=PRESCALE,
        )
        return cli.run_experiment(spec)

    def validate(self, rows):
        if sorted(r["mode"] for r in rows) != sorted(self.modes * 2):
            return f"unexpected rows: {[r['mode'] for r in rows]}"
        for r in rows:
            if not all(math.isfinite(float(r[c])) for c in ("psnr", "ssim", "nmse")):
                return f"{r['mode']}: non-finite metric"
        return None

    def fingerprint(self, rows) -> bytes:
        return json.dumps([{c: v for c, v in r.items() if c != "runtime_ms"} for r in rows]).encode()

    def psnrs(self, k, rows):
        return [(r["mode"], float(r["psnr"])) for r in rows if r["seed"] != "mean"]


WORKLOADS = {
    "fwd-e4m3-256": lambda: PipelineWorkload(
        "fwd-e4m3-256", "forward", 256, 4, "blobs",
        [("e4m3", ModeSpec.mx(E4M3, 32))], inputs=8,
        floors={"e4m3": 22.0},
    ),
    "sweep-128": SweepWorkload,
    "rt-bars-64": lambda: PipelineWorkload(
        "rt-bars-64", "roundtrip", 64, 8, "bars",
        [("fp16", ModeSpec.fp16()), ("e2m3", ModeSpec.mx(E2M3, 2))], inputs=4,
        floors={"fp16": 68.0, "e2m3": 16.0},
    ),
}
