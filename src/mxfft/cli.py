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
from .errors import MAX_SIZE, ConfigError, MxfftError, _choice, _instance, _integer, _size
from .fftcore import MODE_NAMES, ModeSpec, make_plan
from .mri import (
    IMAGE,
    KSPACE,
    PHANTOM_KINDS,
    PHANTOM_NOISE,
    PHANTOM_TAIL,
    _check_phantom_fields,
    _pipeline,
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

@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One sweep.  Building it checks the axes (one size with input_path),
    pipeline, phantom fields (by gen_phantom's rule at the largest size; with
    input_path, without its bound on size) and prescale, and raises
    ConfigError naming the field."""

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

    def __post_init__(self):
        axes = {"modes": "mode", "sizes": "size", "blocks": "block size", "seeds": "seed"}
        for field, noun in axes.items():
            axis = _instance(getattr(self, field), (list, tuple), field, "a list or tuple")
            if not axis:
                raise ConfigError(field, f"need at least one {noun}")
        for m in self.modes:
            _choice(m, MODE_NAMES, "modes", "mode")
        for field, lo in (("sizes", metrics.SSIM_WINDOW), ("blocks", 2)):  # SSIM scores every size
            for n in getattr(self, field):
                if _size(n) is None or n < lo:
                    raise ConfigError(field, f"{n!r} is not an integer power of two in [{lo}, {MAX_SIZE}]")
        if self.input_path is not None and len(set(self.sizes)) > 1:
            raise ConfigError("sizes", f"one input file has one size, got {sorted(set(self.sizes))}")
        _choice(self.pipeline, ("forward", "roundtrip"), "pipeline", "pipeline")
        # the phantoms' rule at their largest size; an input file's sweep builds none
        n = max(self.sizes) if self.input_path is None else 2
        for seed in self.seeds:  # every size is already a valid n
            _check_phantom_fields(n, self.coils, seed, self.kind, self.tail, self.noise)
        _instance(self.prescale, PrescaleConfig, "prescale")


def _mean_std(vals):
    if all(v == vals[0] for v in vals):  # also covers all-inf reference cells
        return vals[0], 0.0
    m = sum(vals) / len(vals)  # unequal values with an infinite one spread by inf (inf - inf is nan)
    var = math.inf if any(map(math.isinf, vals)) else sum((v - m) ** 2 for v in vals) / len(vals)
    return m, math.sqrt(var)


def _row(cell, dataset_id, seed, values, stds, prescale_k, ms):
    """One CSV row of cell (size, mode, block, pipeline): the psnr/ssim/nmse
    values (per seed, or means) and their std columns (empty per seed)."""
    size, mode, block, pipeline = cell
    fields = [dataset_id, str(seed), str(size), mode, block, pipeline]
    fields += [f"{v:.10g}" for v in values] + list(stds) + [prescale_k, f"{ms:.3f}"]
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

    One cell per distinct size, mode and ModeSpec, in size, MODE_NAMES and
    block order; the modes without blocks take one cell whatever the blocks.
    Detail rows carry per-seed metrics; each cell is followed by one
    aggregate row (seed == "mean") with mean values and std columns filled.
    Each input's prescale exponent is chosen once and shared by its FP64
    reference run and every cell; each (size, mode) plan is built once per
    process.
    """
    cells = dict.fromkeys(
        (mode, ModeSpec.from_name(mode, b))
        for mode in sorted(spec.modes, key=MODE_NAMES.index)
        for b in sorted(spec.blocks)
    )
    rows = []
    for size in sorted(set(spec.sizes)):
        ref_plan = make_plan(size, ModeSpec.reference())
        inputs = []  # (dataset_id, seed, grid, prescale k, reference RSS)
        for dataset_id, seed, grid in _inputs(spec, size):
            k = compute_prescale(grid.data, spec.prescale).k
            inputs.append((dataset_id, seed, grid, k, _pipeline(grid, ref_plan, k)))
        for mode, mode_spec in cells:
            plan = make_plan(size, mode_spec)
            block = str(mode_spec.block_size) if mode_spec.kind == "mx" else ""
            cell = (size, mode, block, spec.pipeline)
            results = []  # (metric values, runtime in ms) per input
            for dataset_id, seed, grid, k, ref_out in inputs:
                t0 = time.perf_counter()
                out = _pipeline(grid, plan, k)
                elapsed_ms = (time.perf_counter() - t0) * 1e3
                rep = metrics.report(ref_out, out)
                values = (rep.psnr_db, rep.ssim, rep.nmse)
                results.append((values, elapsed_ms))
                rows.append(_row(cell, dataset_id, seed, values, ("", "", ""), str(k), elapsed_ms))
            stats = [_mean_std([v[i] for v, _ in results]) for i in range(3)]
            mean_ms = sum(t for _, t in results) / len(results)
            rows.append(_row(cell, inputs[0][0], "mean", [m for m, _ in stats],
                             [f"{sd:.10g}" for _, sd in stats], "", mean_ms))
    return rows


def write_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_rows(fh, rows)


def _write_rows(fh, rows) -> None:
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
    """The phantom flags, with ExperimentSpec's defaults and the subcommand's
    seed flag in its help position."""
    default = {f.name: f.default for f in dataclasses.fields(ExperimentSpec)}
    p.add_argument("--coils", type=int, default=default["coils"])
    p.add_argument(seed_flag, type=int, **seed_kw)
    p.add_argument("--kind", default=default["kind"], choices=PHANTOM_KINDS)
    p.add_argument(
        "--tail", type=float, default=default["tail"], help="low-magnitude texture weight"
    )
    p.add_argument(
        "--noise", type=float, default=default["noise"], help="complex noise floor amplitude"
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
        c.add_argument("--block", type=int, default=ModeSpec.block_size)
        _add_common_flags(c)

    s = sub.add_parser("sweep", help="run the cross product of modes/sizes/blocks")
    s.add_argument("--mode", default="e4m3,e5m2", help="comma-separated modes")
    s.add_argument("--block", default=str(ModeSpec.block_size), help="comma-separated block sizes")
    s.add_argument("--pipeline", default="forward", choices=["forward", "roundtrip"])
    _add_common_flags(s)

    return p


def _spec_of(args, modes, blocks, pipeline) -> ExperimentSpec:
    return ExperimentSpec(
        modes=modes,
        sizes=_ints(args.size, "sizes"),
        blocks=blocks,
        seeds=list(range(_integer(args.seeds, "seeds", 1, MAX_SIZE))),
        pipeline=pipeline,
        coils=args.coils,
        kind=args.kind,
        tail=args.tail,
        noise=args.noise,
        prescale=_prescale_of(args),
        input_path=args.input,
    )


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
        if args.out:
            write_csv(rows, args.out)
        else:
            _write_rows(sys.stdout, rows)
        return 0
    except (MxfftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
