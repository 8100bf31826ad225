"""Acceptance suite: ten criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Trend criteria (4-8) share one 10-seed phantom study computed once per
session; everything is scored against the FP64 reference pipeline on the
identical input.
"""

import math

import numpy as np
import pytest

from mxfft import (
    FORMATS,
    ComplexGrid,
    ModeSpec,
    PrescaleConfig,
    apply_prescale,
    compute_prescale,
    fft_1d,
    fft_2d,
    forward_pipeline,
    gen_phantom,
    make_plan,
    nmse,
    psnr,
    quantize_array,
    roundtrip_pipeline,
    ssim,
    undo_prescale,
)
from mxfft.cli import ExperimentSpec, run_experiment
from mxfft.mxblock import block_scales
from conftest import COILS, PHANTOM, brute_dft, enumerate_values, nn_quantize

SEEDS = list(range(10))
MX_MODES = ["e4m3", "e5m2", "e2m3", "e3m2"]
CFG = PrescaleConfig()


def _check(num, name, ok, detail):
    print(f"\n[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="session")
def study():
    """Mean metrics over 10 seeded phantoms for every trend cell.

    Keys are (size, mode, block, pipeline) -> dict of mean psnr/ssim/nmse.
    """
    cells = {}

    def run(size, mode, block, pipeline):
        plan = make_plan(size, ModeSpec.from_name(mode, block))
        ref_plan = make_plan(size, ModeSpec.reference())
        ps, ss, nm = [], [], []
        for seed in SEEDS:
            image, kspace = gen_phantom(size, COILS, seed, **PHANTOM)
            grid = kspace if pipeline == "forward" else image
            if pipeline == "forward":
                ref = forward_pipeline(grid, ref_plan, CFG)
                out = forward_pipeline(grid, plan, CFG)
            else:
                ref = roundtrip_pipeline(grid, ref_plan, CFG)
                out = roundtrip_pipeline(grid, plan, CFG)
            ps.append(psnr(ref, out))
            ss.append(ssim(ref, out))
            nm.append(nmse(ref, out))
        cells[(size, mode, block, pipeline)] = {
            "psnr": float(np.mean(ps)),
            "ssim": float(np.mean(ss)),
            "nmse": float(np.mean(nm)),
        }

    for mode in MX_MODES + ["fp16"]:
        run(128, mode, 32, "forward")
        run(128, mode, 32, "roundtrip")
    run(128, "e4m3", 2, "forward")
    run(128, "e4m3", 8, "forward")
    run(256, "e4m3", 32, "forward")
    return cells


def test_criterion_1_reference_correctness(rng):
    worst = 0.0
    for n in (2, 8, 64, 256, 1024):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        plan = make_plan(n, ModeSpec.reference())
        y = fft_1d(x, plan, "forward")
        o = brute_dft(x)
        worst = max(worst, np.linalg.norm(y - o) / np.linalg.norm(o))
    n = 256
    plan = make_plan(n, ModeSpec.reference())
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    back = fft_2d(fft_2d(x, plan, "forward"), plan, "inverse") / n**2
    rt = np.linalg.norm(back - x) / np.linalg.norm(x)
    _check(
        1,
        "reference vs brute DFT",
        worst <= 1e-10 and rt <= 1e-9,
        f"1-D rel l2 {worst:.2e} <= 1e-10, 2-D roundtrip {rt:.2e} <= 1e-9",
    )


def test_criterion_2_codec_oracle_equivalence(rng):
    total_mismatch = 0
    for name, fmt in FORMATS.items():
        grid = enumerate_values(fmt)
        hi = fmt.max_finite
        vals = np.concatenate(
            [
                rng.uniform(-2 * hi, 2 * hi, 40_000),
                rng.standard_normal(40_000) * 10.0 ** rng.uniform(-12, 6, 40_000),
                rng.choice(grid, 10_000)
                + rng.choice([-0.25, 0.25, 0.5, 0.0], 10_000) * 2.0**-20,
                np.zeros(10_000),
            ]
        )
        got = quantize_array(vals, fmt)
        want = nn_quantize(vals, fmt, grid=grid)
        total_mismatch += int(np.sum(got != want))
    _check(
        2,
        "quantize vs nearest-neighbor oracle",
        total_mismatch == 0,
        f"{total_mismatch} mismatches over 1e5 inputs x {len(FORMATS)} formats",
    )


def test_criterion_3_mx_roundtrip_bound(rng):
    violations = 0
    checked = 0
    for fmt in FORMATS.values():
        for bsize in (2, 8, 32):
            v = rng.standard_normal((10_000, bsize)) * 10.0 ** rng.uniform(
                -6, 6, (10_000, 1)
            )
            amax = np.max(np.abs(v), axis=1)
            s = block_scales(amax, fmt)[:, None]
            dec = quantize_array(v / s, fmt) * s
            m = np.abs(v / s)
            normal = (m >= fmt.min_normal) & (m <= fmt.max_finite)
            bound = s * 2.0 ** (fmt.emax - fmt.mantissa_bits) / 2
            bad = (np.abs(v - dec) > bound) & normal
            violations += int(np.sum(bad))
            checked += int(np.sum(normal))
    _check(
        3,
        "encode/decode half-ulp at block scale",
        violations == 0,
        f"{violations} violations over {checked} normal-range elements",
    )


def test_criterion_4_mantissa_dominance(study):
    e4 = study[(128, "e4m3", 32, "forward")]["psnr"]
    e5 = study[(128, "e5m2", 32, "forward")]["psnr"]
    e2 = study[(128, "e2m3", 32, "forward")]["psnr"]
    e3 = study[(128, "e3m2", 32, "forward")]["psnr"]
    _check(
        4,
        "3-bit mantissa beats 2-bit",
        e4 > e5 and e2 > e3,
        f"e4m3 {e4:.2f} > e5m2 {e5:.2f} dB; e2m3 {e2:.2f} > e3m2 {e3:.2f} dB",
    )


def test_criterion_5_fp16_upper_bound(study):
    ok = True
    detail = []
    for pipeline in ("forward", "roundtrip"):
        f16 = study[(128, "fp16", 32, pipeline)]["ssim"]
        worst = max(study[(128, m, 32, pipeline)]["ssim"] for m in MX_MODES)
        ok = ok and f16 >= worst
        detail.append(f"{pipeline}: fp16 {f16:.4f} >= best MX {worst:.4f}")
    _check(5, "fp16 SSIM upper bound", ok, "; ".join(detail))


def test_criterion_6_roundtrip_degradation(study):
    ok = True
    detail = []
    for m in MX_MODES:
        fwd = study[(128, m, 32, "forward")]["nmse"]
        rt = study[(128, m, 32, "roundtrip")]["nmse"]
        ok = ok and rt >= fwd
        detail.append(f"{m} {rt:.2e} >= {fwd:.2e}")
    _check(6, "roundtrip NMSE >= forward NMSE", ok, "; ".join(detail))


def test_criterion_7_block_size_trend(study):
    b2 = study[(128, "e4m3", 2, "forward")]["psnr"]
    b8 = study[(128, "e4m3", 8, "forward")]["psnr"]
    b32 = study[(128, "e4m3", 32, "forward")]["psnr"]
    ok = b32 > b2 and (b2 <= b8 <= b32 or abs(b32 - b8) <= 1.0)
    _check(
        7,
        "PSNR grows with block size",
        ok,
        f"B=2 {b2:.2f} dB, B=8 {b8:.2f} dB, B=32 {b32:.2f} dB",
    )


def test_criterion_8_image_size_weak_dependence(study):
    s128 = study[(128, "e4m3", 32, "forward")]["ssim"]
    s256 = study[(256, "e4m3", 32, "forward")]["ssim"]
    gap = abs(s128 - s256)
    _check(
        8,
        "e4m3 SSIM stable across image size",
        gap <= 0.02,
        f"|{s128:.4f} - {s256:.4f}| = {gap:.4f} <= 0.02",
    )


def test_criterion_9_prescale(rng):
    exact = True
    for _ in range(50):
        x = rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-10, 10)
        for k in (-40, -3, 0, 17, 40):
            exact = exact and np.array_equal(undo_prescale(apply_prescale(x, k), k), x)

    # hand-evaluated: peak at 8 -> k1=-3 wins; tiny tail -> k2=10 wins;
    # peak 2^-60 -> k1=60 clipped to k_max=40
    peak = compute_prescale(np.full((4, 4), 8.0 + 0j), CFG)
    tail_data = np.full((1, 16, 16), 2.0**-30, dtype=complex)
    tail_data[0, 0, 0] = 1.0
    tail = compute_prescale(ComplexGrid(tail_data, "kspace").data, CFG)
    clipped = compute_prescale(np.full((4, 4), 2.0**-60), CFG)
    hand_ok = (
        (peak.k1, peak.k) == (-3, -3)
        and (tail.k1, tail.k2, tail.k) == (0, 10, 10)
        and (clipped.k1, clipped.k) == (60, 40)
    )
    _check(
        9,
        "prescale exact undo + hand-evaluated k",
        exact and hand_ok,
        f"bit-exact undo {exact}; k = {peak.k}/{tail.k}/{clipped.k} expected -3/10/40",
    )


def test_criterion_10_sweep_determinism():
    spec = lambda: ExperimentSpec(
        modes=["reference", "fp16", "e4m3", "e5m2"],
        sizes=[32, 64],
        blocks=[8, 32],
        seeds=[0, 1, 2],
        coils=2,
        kind=PHANTOM["kind"],
        tail=PHANTOM["tail"],
        noise=PHANTOM["noise"],
    )
    strip = lambda rows: [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows]
    a = strip(run_experiment(spec()))
    b = strip(run_experiment(spec()))
    _check(
        10,
        "sweep determinism modulo runtime",
        a == b,
        f"{len(a)} rows identical across two runs",
    )
