#!/usr/bin/env python3
"""Time each stage's twiddle multiply of one plan, in process.

Builds the plan of (N, mode, block) with make_plan, fills one row pass's
carry (two float32 planes, N signals of length N, as fft_2d hands one coil
to the stage driver) with seeded complex normal values, and calls every
stage's multiply on its v half `--repeats` times, the stages taking turns.
Prints the median and the quartiles per stage, in microseconds, and their
sum.

    PYTHONPATH=src python3 scripts/stage_anatomy.py --n 256 --mode e4m3 --block 32
"""

import argparse
import statistics
from time import perf_counter

import numpy as np

from mxfft import ModeSpec, make_plan


def stage_times(n, mode, block, direction, repeats, seed):
    """Per stage: (shape, exact, sorted multiply times in seconds).  The
    stages take turns, one call each per round, so that a burst of load
    from elsewhere on the machine lands on every stage alike."""
    plan = make_plan(n, ModeSpec.from_name(mode, block))
    if plan.dtype != np.float32:
        raise SystemExit(f"mode {mode!r} carries no float32 planes: its multiply is np.multiply")
    inverse = direction == "inverse"
    rng = np.random.default_rng(seed)
    carry = rng.standard_normal((2, n, n)).astype(np.float32)
    stages = [
        (carry.reshape(carry.shape[:1] + shape + carry.shape[2:])[:, :, :, 1], w, multiply)
        for shape, w, multiply in zip(plan.shapes, plan.twiddles[inverse], plan.multiplies[inverse])
    ]
    times = [[] for _ in stages]
    for r in range(repeats + 1):  # round 0 warms up
        for (v, w, multiply), ts in zip(stages, times):
            t0 = perf_counter()
            multiply(v, w)
            if r:
                ts.append(perf_counter() - t0)
    return [
        (shape, bool(getattr(multiply, "keywords", {}).get("exact")), sorted(ts))
        for shape, (_, _, multiply), ts in zip(plan.shapes, stages, times)
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--mode", default="e4m3", help="an MX format name or fp16")
    ap.add_argument("--block", type=int, default=32)
    ap.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    ap.add_argument("--repeats", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rows = stage_times(args.n, args.mode, args.block, args.direction, args.repeats, args.seed)
    print(f"N={args.n} {args.mode} B={args.block} {args.direction}, "
          f"{args.repeats} calls per stage, times in us")
    print(f"{'stage':>5}  {'view (G, K, 2, R, J)':>22}  {'exact':>5}  {'p50':>8}  {'q1':>8}  {'q3':>8}")
    total = 0.0
    for s, (shape, exact, times) in enumerate(rows):
        q1, p50, q3 = (1e6 * q for q in statistics.quantiles(times, n=4))
        total += p50
        print(f"{s:>5}  {str(shape):>22}  {'yes' if exact else '':>5}  {p50:8.1f}  {q1:8.1f}  {q3:8.1f}")
    print(f"{'sum':>5}  {'':>22}  {'':>5}  {total:8.1f}")


if __name__ == "__main__":
    main()
