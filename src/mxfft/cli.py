"""Experiment harness: format / size / block sweeps with CSV output.

Every cell (input, size, mode, block, pipeline) is scored against the
FP64 reference pipeline run on the identical input.  All randomness flows
from explicit seeds, so two runs of the same spec produce identical CSV
output except for the runtime column.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
import time
from pathlib import Path

from . import metrics
from .errors import ConfigError, MxfftError
from .fftcore import ModeSpec, _is_pow2
from .fftcore import make_plan  # noqa: F401  (perfbench traces cli.make_plan)
from .minifloat import FORMATS
from .mri import (
    IMAGE,
    KSPACE,
    PHANTOM_NOISE,
    PHANTOM_TAIL,
    _pipeline,
    _plan,
    gen_phantom,
    read_grid,
    write_grid,
)
from .mri import forward_pipeline, roundtrip_pipeline  # noqa: F401  (perfbench traces cli's names)
from .prescale import PrescaleConfig, compute_prescale

CSV_COLUMNS = [
    "dataset_id",
    "seed",
    "size",
    "mode",
    "block",
    "pipeline",
    "psnr",
    "ssim",
    "nmse",
    "psnr_std",
    "ssim_std",
    "nmse_std",
    "prescale_k",
    "runtime_ms",
]

MODE_NAMES = ("reference", "fp16") + tuple(sorted(k for k in FORMATS if k != "fp16"))


@dataclasses.dataclass
class ExperimentSpec:
    modes: list
    sizes: list
    blocks: list
    seeds: list
    pipeline: str = "forward"
    coils: int = 4
    kind: str = "blobs"
    tail: float = PHANTOM_TAIL
    noise: float = PHANTOM_NOISE
    prescale: PrescaleConfig = dataclasses.field(default_factory=PrescaleConfig)
    input_path: str = None  # MXCG file instead of phantoms
    out: str = None

    def validate(self):
        if not self.modes:
            raise ConfigError("modes", "need at least one mode")
        for m in self.modes:
            if m not in MODE_NAMES:
                raise ConfigError("modes", f"unknown mode {m!r}; known: {', '.join(MODE_NAMES)}")
        if not self.sizes:
            raise ConfigError("sizes", "need at least one size")
        for n in self.sizes:
            if not _is_pow2(n):
                raise ConfigError("sizes", f"{n} is not a power of two >= 2")
        if not self.blocks:
            raise ConfigError("blocks", "need at least one block size")
        for b in self.blocks:
            if not _is_pow2(b):
                raise ConfigError("blocks", f"{b} is not a power of two >= 2")
        if not self.seeds:
            raise ConfigError("seeds", "need at least one seed")
        if self.pipeline not in ("forward", "roundtrip"):
            raise ConfigError("pipeline", "must be 'forward' or 'roundtrip'")
        if self.coils < 1:
            raise ConfigError("coils", "must be >= 1")


def _fmt(v: float) -> str:
    if v == math.inf:
        return "inf"
    return f"{v:.10g}"


def _mean_std(vals):
    if all(v == vals[0] for v in vals):  # also covers all-inf reference cells
        return vals[0], 0.0
    m = sum(vals) / len(vals)
    var = sum((v - m) ** 2 for v in vals) / len(vals)
    return m, math.sqrt(var)


def _row(cell, dataset_id, seed, values, stds, prescale_k, ms):
    """One CSV row of cell (size, mode, block, pipeline): the psnr/ssim/nmse
    values (per seed, or means) and their std columns (empty per seed)."""
    size, mode, block, pipeline = cell
    block = "" if block is None else str(block)
    fields = [dataset_id, str(seed), str(size), mode, block, pipeline]
    fields += [_fmt(v) for v in values] + list(stds) + [prescale_k, f"{ms:.3f}"]
    return dict(zip(CSV_COLUMNS, fields))


def _inputs(spec: ExperimentSpec, size: int):
    """(dataset_id, seed, grid) of each input of one size: the MXCG file, or
    one phantom per seed, in the pipeline's domain."""
    want = KSPACE if spec.pipeline == "forward" else IMAGE
    if spec.input_path is not None:
        grid = read_grid(spec.input_path)
        if grid.n != size:
            raise ConfigError("sizes", f"input grid is {grid.n}, not {size}")
        if grid.domain != want:
            raise ConfigError("input", f"pipeline {spec.pipeline} needs a {want} grid")
        yield Path(spec.input_path).stem, 0, grid
        return
    for seed in spec.seeds:
        image, kspace = gen_phantom(size, spec.coils, seed, spec.kind, spec.tail, spec.noise)
        yield f"phantom-{spec.kind}", seed, kspace if want == KSPACE else image


def run_experiment(spec: ExperimentSpec):
    """Run the full experiment matrix; returns a list of CSV row dicts.

    Detail rows carry per-seed metrics; each cell is followed by one
    aggregate row (seed == "mean") with mean values and std columns filled.
    Each input's prescale exponent is chosen once and shared by its FP64
    reference run and every cell; each (size, mode) plan is built once per
    process.
    """
    spec.validate()
    rows = []
    for size in sorted(spec.sizes):
        ref_plan = _plan(size, ModeSpec.reference())
        inputs = []  # (dataset_id, seed, grid, prescale k, reference RSS)
        for dataset_id, seed, grid in _inputs(spec, size):
            k = compute_prescale(grid.data, spec.prescale).k
            inputs.append((dataset_id, seed, grid, k, _pipeline(grid, ref_plan, k)))
        for mode in sorted(spec.modes, key=MODE_NAMES.index):
            blocks = sorted(spec.blocks) if mode not in ("reference", "fp16") else [None]
            for block in blocks:
                plan = _plan(size, ModeSpec.from_name(mode, block or 32))
                cell = (size, mode, block, spec.pipeline)
                results = []  # (metric values, ms) per input
                for dataset_id, seed, grid, k, ref_out in inputs:
                    t0 = time.perf_counter()
                    out = _pipeline(grid, plan, k)
                    ms = (time.perf_counter() - t0) * 1e3
                    rep = metrics.report(ref_out, out)
                    values = (rep.psnr_db, rep.ssim, rep.nmse)
                    results.append((values, ms))
                    rows.append(_row(cell, dataset_id, seed, values, ("", "", ""), str(k), ms))
                stats = [_mean_std([v[i] for v, _ in results]) for i in range(3)]
                mean_ms = sum(ms for _, ms in results) / len(results)
                rows.append(
                    _row(cell, inputs[0][0], "mean", [m for m, _ in stats],
                         [_fmt(sd) for _, sd in stats], "", mean_ms)
                )
    if spec.out:
        write_csv(rows, spec.out)
    return rows


def write_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------


def _add_prescale_flags(p):
    # one flag per PrescaleConfig field (--tau-min for tau_min), with its default
    for field in dataclasses.fields(PrescaleConfig):
        flag = "--" + field.name.replace("_", "-")
        p.add_argument(flag, type=type(field.default), default=field.default)


def _prescale_of(args) -> PrescaleConfig:
    fields = dataclasses.fields(PrescaleConfig)
    return PrescaleConfig(**{f.name: getattr(args, f.name) for f in fields})


def _add_phantom_flags(p, seed_flag, **seed_kw):
    """The phantom flags, with the subcommand's seed flag in its help position."""
    p.add_argument("--coils", type=int, default=4)
    p.add_argument(seed_flag, type=int, **seed_kw)
    p.add_argument("--kind", default="blobs", choices=["blobs", "bars"])
    p.add_argument("--tail", type=float, default=PHANTOM_TAIL, help="low-magnitude texture weight")
    p.add_argument(
        "--noise", type=float, default=PHANTOM_NOISE, help="complex noise floor amplitude"
    )


def _add_common_flags(p):
    p.add_argument("--size", default="128", help="comma-separated grid sizes")
    _add_phantom_flags(p, "--seeds", default=10, help="number of phantom seeds (0..S-1)")
    p.add_argument("--input", default=None, help="MXCG input file (overrides phantoms)")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    _add_prescale_flags(p)


def _ints(csv_str, field) -> list:
    try:
        return [int(s) for s in str(csv_str).split(",") if s]
    except ValueError:
        raise ConfigError(field, f"{csv_str!r} is not a comma-separated list of integers") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mxfft", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-phantom", help="write phantom image/k-space MXCG files")
    g.add_argument("--size", type=int, default=128)
    _add_phantom_flags(g, "--seed", default=0)
    g.add_argument("--out-image", default=None)
    g.add_argument("--out-kspace", default=None)

    for name in ("forward", "roundtrip"):
        c = sub.add_parser(name, help=f"run one {name} cell")
        c.add_argument("--mode", default="e4m3", help="one of: " + ", ".join(MODE_NAMES))
        c.add_argument("--block", type=int, default=32)
        _add_common_flags(c)

    s = sub.add_parser("sweep", help="run the cross product of modes/sizes/blocks")
    s.add_argument("--mode", default="e4m3,e5m2", help="comma-separated modes")
    s.add_argument("--block", default="32", help="comma-separated block sizes")
    s.add_argument("--pipeline", default="forward", choices=["forward", "roundtrip"])
    _add_common_flags(s)

    return p


def _spec_of(args, modes, blocks, pipeline) -> ExperimentSpec:
    return ExperimentSpec(
        modes=modes,
        sizes=_ints(args.size, "sizes"),
        blocks=blocks,
        seeds=list(range(args.seeds)),
        pipeline=pipeline,
        coils=args.coils,
        kind=args.kind,
        tail=args.tail,
        noise=args.noise,
        prescale=_prescale_of(args),
        input_path=args.input,
        out=args.out,
    )


def _emit(rows, out):
    if out:
        return
    writer = csv.DictWriter(sys.stdout, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen-phantom":
            image, kspace = gen_phantom(args.size, args.coils, args.seed, args.kind, args.tail, args.noise)
            if not args.out_image and not args.out_kspace:
                raise ConfigError("out", "need --out-image and/or --out-kspace")
            if args.out_image:
                write_grid(image, args.out_image)
            if args.out_kspace:
                write_grid(kspace, args.out_kspace)
            return 0
        if args.command in ("forward", "roundtrip"):
            spec = _spec_of(args, [args.mode], [args.block], args.command)
        else:
            spec = _spec_of(args, args.mode.split(","), _ints(args.block, "blocks"), args.pipeline)
        rows = run_experiment(spec)
        _emit(rows, spec.out)
        return 0
    except (MxfftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
