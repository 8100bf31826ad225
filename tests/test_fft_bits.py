"""fft_2d's raw output bits, sign of zero included, against committed digests.

The other oracles compare with np.array_equal, which takes -0 for +0; these
digests hash the float64 words themselves.  One SHA-256 per mode x block
(2, 32; MX only) x N (2, 4, 16, 64) x direction, over a fixed 3-coil stack:
a dense coil with +0 and -0 parts sprinkled in, a sparse coil that is +0 or
-0 everywhere but a few samples, and a coil of +0 and -0 only.  A change
that moves an output bit on purpose regenerates the file and says why:

    PYTHONPATH=src python tests/test_fft_bits.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from mxfft import ModeSpec, fft_2d, make_plan
from mxfft.cli import MODE_NAMES

DATA = Path(__file__).parent / "data" / "fft_bits.json"
SIZES = (2, 4, 16, 64)
BLOCKS = (2, 32)


def _modes():
    """(label, ModeSpec) of every mode, MX ones at each block size."""
    for name in MODE_NAMES:
        if name in ("reference", "fp16"):
            yield name, ModeSpec.from_name(name)
            continue
        for b in BLOCKS:
            yield f"{name}-b{b}", ModeSpec.from_name(name, b)


def _part(rng, n, zeros):
    """One real part: normal values over six decades (|x| < 4 keeps the FP16
    control in range at N=64), with a share `zeros` set to +0 or -0."""
    x = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-6, 0, size=(n, n))
    z = rng.random((n, n)) < zeros
    x[z] = np.where(rng.random(int(z.sum())) < 0.5, 0.0, -0.0)
    return np.clip(x, -3.9, 3.9)


def _input(n):
    """The dense, the sparse and the zero coil of size n.  Parts are written
    in place: complex arithmetic (x + 1j*y) would turn a -0 part into +0."""
    rng = np.random.default_rng(n)
    stack = np.empty((3, n, n), dtype=np.complex128)
    for coil, zeros in zip(stack, (0.2, 0.95, 1.0)):
        coil.real = _part(rng, n, zeros)
        coil.imag = _part(rng, n, zeros)
    return stack


def digests() -> dict:
    out = {}
    for n in SIZES:
        x = _input(n)
        for label, mode in _modes():
            plan = make_plan(n, mode)
            for direction in ("forward", "inverse"):
                bits = fft_2d(x, plan, direction).view(np.uint64)
                out[f"{label}/n{n}/{direction}"] = hashlib.sha256(bits.tobytes()).hexdigest()
    return out


def test_fft_bits_match_committed_digests():
    want = json.loads(DATA.read_text())
    got = digests()
    assert got.keys() == want.keys()
    moved = sorted(k for k in want if got[k] != want[k])
    assert not moved, f"{len(moved)} cells changed bits: {moved[:10]}"


def test_inputs_hold_both_zeros():
    for n in SIZES:
        parts = _input(n).view(np.float64)
        assert np.any(parts == 0) and np.any(np.signbit(parts) & (parts == 0))
        assert np.any(~np.signbit(parts) & (parts == 0))


if __name__ == "__main__":
    DATA.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
