#!/usr/bin/env python3
"""Time each stage of one plan, its twiddle multiply and its add/sub, in process.

Builds the plan of (N, mode, block) with make_plan, fills one row pass's
carry (fftcore._carry: N signals of length N, as fft_2d hands one coil to
the stage driver) with seeded normal values, and runs every stage
`--repeats` times, the stages taking turns: the driver's stage walk
(fftcore._stages) gives the views, twiddles and multiply, and
fftcore._butterfly, the driver's in-place add/sub, follows the multiply t
of the v half.  The add/sub writes into a second copy of the carry, so that
every multiply reads the same values.  Prints per stage the median and the
quartiles of the multiply and the median of the add/sub, in microseconds,
and their sums.

    PYTHONPATH=src python3 scripts/stage_anatomy.py --n 256 --mode e4m3 --block 32
"""

import argparse
import statistics
from time import perf_counter

import numpy as np

from mxfft import ModeSpec, fftcore, make_plan


def stage_times(n, mode, block, direction, repeats, seed):
    """Per stage: (shape, exact, sorted multiply times, sorted add/sub times),
    in seconds.  The stages take turns, one call each per round, so that a
    burst of load from elsewhere on the machine lands on every stage alike."""
    plan = make_plan(n, ModeSpec.from_name(mode, block))
    inverse = direction == "inverse"
    carry = fftcore._carry(plan, n * n)
    carry.view(carry.real.dtype)[:] = np.random.default_rng(seed).standard_normal(2 * n * n)
    carry = carry.reshape(-1, n, n)
    work = carry.copy()
    # per stage: the walk over the carry, whose v the multiply reads, and over the work copy
    stages = list(zip(fftcore._stages(plan, inverse, carry), fftcore._stages(plan, inverse, work)))
    times = [([], []) for _ in stages]
    for r in range(repeats + 1):  # round 0 warms up
        for ((_, v, w, multiply), (u_work, v_work, _, _)), (mul, addsub) in zip(stages, times):
            t0 = perf_counter()
            t = multiply(v, w)
            t1 = perf_counter()
            fftcore._butterfly(u_work, v_work, t)
            t2 = perf_counter()
            if r:
                mul.append(t1 - t0)
                addsub.append(t2 - t1)
    return [
        (shape, exact, sorted(mul), sorted(addsub))
        for shape, exact, (mul, addsub) in zip(plan.shapes, plan.exact, times)
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--mode", default="e4m3", help="one of: " + ", ".join(fftcore.MODE_NAMES))
    ap.add_argument("--block", type=int, default=32)
    ap.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    ap.add_argument("--repeats", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rows = stage_times(args.n, args.mode, args.block, args.direction, args.repeats, args.seed)
    print(f"N={args.n} {args.mode} B={args.block} {args.direction}, "
          f"{args.repeats} calls per stage, times in us")
    print(f"{'stage':>5}  {'view (G, K, 2, R, J)':>22}  {'exact':>5}  "
          f"{'mul p50':>8}  {'q1':>8}  {'q3':>8}  {'add/sub':>8}  {'both':>8}")
    sums = [0.0, 0.0]
    for s, (shape, exact, mul, addsub) in enumerate(rows):
        q1, p50, q3 = (1e6 * q for q in statistics.quantiles(mul, n=4))
        add = 1e6 * statistics.median(addsub)
        sums[0] += p50
        sums[1] += add
        print(f"{s:>5}  {str(shape):>22}  {'yes' if exact else '':>5}  "
              f"{p50:8.1f}  {q1:8.1f}  {q3:8.1f}  {add:8.1f}  {p50 + add:8.1f}")
    print(f"{'sum':>5}  {'':>22}  {'':>5}  {sums[0]:8.1f}  {'':>8}  {'':>8}  "
          f"{sums[1]:8.1f}  {sum(sums):8.1f}")


if __name__ == "__main__":
    main()
