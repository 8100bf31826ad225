"""MRI-style evaluation pipelines, synthetic multi-coil phantoms, grid I/O.

Pipelines follow the per-coil forward / round-trip definition: each coil is
transformed independently, and a root-sum-square over coils produces the
magnitude image.  A single global power-of-two prescale is applied across
the whole coil stack before the transforms and undone exactly afterwards.
"""

from __future__ import annotations

import dataclasses
import math
import struct
import sys

import numpy as np

from .errors import (
    MAX_SIZE,
    BadMagic,
    BadVersion,
    ConfigError,
    FileFormatError,
    InvalidValue,
    NonFinitePayload,
    ShapeError,
    TruncatedFile,
    _choice,
    _instance,
    _integer,
    _real,
    _size,
)
from .fftcore import FftPlan, ModeSpec, _complex_array, fft_2d, make_plan
from .metrics import _correlate_valid, _gaussian_window
from .prescale import PrescaleConfig, apply_prescale, compute_prescale, undo_prescale

KSPACE = "kspace"
IMAGE = "image"

# Phantom defaults of the harness: the tail weight and the complex noise
# floor give the k-space a realistic noise floor and tail.
PHANTOM_TAIL = 0.2
PHANTOM_NOISE = 0.1
# The bound on tail and noise, 2^-64 of the float64 maximum (about 9.7e288).
# numpy's standard-normal draws stay below 14 in magnitude (the ziggurat
# tail, from 53-bit uniforms) and |sens| <= 1.5, so a pixel stays below
# 9 + 21*tail + 20*noise < 2^6 * PHANTOM_LIMIT.  Each radix-2 stage at most
# doubles the largest magnitude, so the FP64 k-space transform stays finite
# up to N = 2^29, beyond MAX_SIZE = 2^16, the largest size accepted.
PHANTOM_LIMIT = 2.0**-64 * sys.float_info.max
# The most complex values a phantom holds, coils * n * n: 32 coils at 512^2,
# or one at 4096^2.  Each is a 256 MiB complex128 array.
PHANTOM_VALUES = 2**24
PHANTOM_KINDS = ("blobs", "bars")


@dataclasses.dataclass(frozen=True)
class ComplexGrid:
    """C x N x N complex FP64 samples, tagged as k-space or image domain."""

    data: np.ndarray
    domain: str

    def __post_init__(self):
        d = _complex_array(self.data, "grid data")
        if d.ndim != 3 or d.shape[1] != d.shape[2]:
            raise ShapeError("grid data must be (coils, n, n)")
        if d.shape[0] < 1:
            raise ShapeError("coils: a grid needs at least one coil")
        if d.shape[1] < 1:
            raise ShapeError("n: a grid needs at least one sample per side")
        if not (isinstance(self.domain, str) and self.domain in (KSPACE, IMAGE)):
            raise InvalidValue(f"unknown domain tag {self.domain!r}")
        if not np.all(np.isfinite(d)):
            raise InvalidValue("non-finite grid data")
        object.__setattr__(self, "data", d)

    @property
    def coils(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


@dataclasses.dataclass(frozen=True)
class RssImage:
    pixels: np.ndarray  # N x N nonnegative FP64

    @property
    def n(self) -> int:
        return self.pixels.shape[0]


def rss(grid: ComplexGrid) -> RssImage:
    """Root-sum-square coil combination: sqrt(sum_c |T_c|^2) per pixel."""
    return _rss(_instance(grid, ComplexGrid, "grid").data)


def _rss(data: np.ndarray) -> RssImage:
    """rss of (coils, n, n) complex data; raises InvalidValue if a pixel is
    not finite, which also catches non-finite data."""
    with np.errstate(over="ignore"):
        sq = np.abs(data)
        pixels = np.sum(np.square(sq, out=sq), axis=0)
        np.sqrt(pixels, out=pixels)
    if not np.isfinite(pixels).all():
        raise InvalidValue(
            f"rss: the sum of squared coil magnitudes must stay within the float64 range "
            f"(<= {np.finfo(np.float64).max:.7g})"
        )
    return RssImage(pixels)


def forward_pipeline(kspace: ComplexGrid, plan: FftPlan, cfg: PrescaleConfig) -> RssImage:
    """Prescale -> per-coil forward 2-D FFT -> exact prescale undo -> RSS."""
    if _instance(kspace, ComplexGrid, "kspace").domain != KSPACE:
        raise InvalidValue("forward_pipeline expects a k-space grid")
    return _pipeline(kspace, plan, compute_prescale(kspace.data, cfg).k)


def roundtrip_pipeline(image: ComplexGrid, plan: FftPlan, cfg: PrescaleConfig) -> RssImage:
    """Prescale -> per-coil forward then inverse FFT, 1/N^2 in FP64 -> undo -> RSS."""
    if _instance(image, ComplexGrid, "image").domain != IMAGE:
        raise InvalidValue("roundtrip_pipeline expects an image grid")
    return _pipeline(image, plan, compute_prescale(image.data, cfg).k)


def _pipeline(grid: ComplexGrid, plan: FftPlan, k: int) -> RssImage:
    """Both pipelines after the prescale choice: scale by 2^k, transform each
    coil (k-space forward; an image forward, then inverse with 1/N^2 in FP64),
    undo 2^k exactly, RSS.  The transforms, the undo and the RSS each raise
    InvalidValue where a value leaves their range."""
    y = apply_prescale(grid.data, k)  # the one private copy, transformed in place
    fft_2d(y, plan, "forward", out=y)
    if grid.domain == IMAGE:
        fft_2d(y, plan, "inverse", out=y)
        y *= 1.0 / (grid.n * grid.n)
    undo_prescale(y, k, out=y)
    return _rss(y)


# ---------------------------------------------------------------------------
# Synthetic phantoms
# ---------------------------------------------------------------------------


def coil_sensitivities(n: int, coils: int, seed: int) -> np.ndarray:
    """Smooth complex per-coil sensitivity maps, (coils, n, n).

    Each map has magnitude >= 0.6 everywhere, so the RSS of the maps alone
    stays above 0.5 over any support; n, coils and seed follow gen_phantom's
    rule.
    """
    n, coils, seed = _check_coil_fields(n, coils, seed)
    rng = np.random.default_rng(seed + 7919)
    yy, xx = _coords(n)
    maps = np.empty((coils, n, n), dtype=np.complex128)
    for c in range(coils):
        ang = 2.0 * np.pi * c / coils
        cx, cy = 0.6 * math.cos(ang), 0.6 * math.sin(ang)
        mag = 0.6 + 0.9 * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * 0.5**2))
        px, py = rng.uniform(-1.5, 1.5, size=2)
        maps[c] = mag * np.exp(1j * (px * xx + py * yy))
    return maps


def _coords(n: int):
    """(yy, xx): the row and column coordinates of an n x n grid over [-1, 1]^2."""
    ax = np.linspace(-1.0, 1.0, n)
    return np.meshgrid(ax, ax, indexing="ij")


def _check_coil_fields(n, coils, seed) -> tuple:
    """gen_phantom's rule for n, coils and seed: the three as Python ints, or
    ConfigError naming the first bad one.  The phantom may hold at most
    PHANTOM_VALUES values: beyond, n is bad if one coil is too big, else coils."""
    if (size := _size(n)) is None:
        raise ConfigError("n", f"must be an integer power of two in [2, {MAX_SIZE}], got {n!r}")
    coils = _integer(coils, "coils", 1, MAX_SIZE)
    if coils * size * size > PHANTOM_VALUES:
        raise ConfigError("n" if size * size > PHANTOM_VALUES else "coils",
                          f"coils x n x n = {coils} x {size} x {size} exceeds a phantom's "
                          f"{PHANTOM_VALUES} complex values")
    return size, coils, _integer(seed, "seed", 0)


def _check_phantom_fields(n, coils, seed, kind, tail, noise) -> tuple:
    """The phantom-parameter rule of gen_phantom and ExperimentSpec: (n, coils,
    seed) as Python ints, or ConfigError naming the first bad field."""
    ints = _check_coil_fields(n, coils, seed)
    for field, value in (("tail", tail), ("noise", noise)):
        if not 0 <= _real(value) <= PHANTOM_LIMIT:
            raise ConfigError(field, f"must be in [0, {PHANTOM_LIMIT:.7g}], got {value!r}")
    _choice(kind, PHANTOM_KINDS, "kind", "phantom kind")
    return ints


def _phantom_magnitude(yy, xx, kind, rng, tail):
    rr = np.sqrt(xx**2 + yy**2)
    support = 0.5 * (1.0 + np.tanh((0.85 - rr) / 0.05))
    if kind == "blobs":
        mag = np.zeros(xx.shape)
        for _ in range(6):
            cx, cy = rng.uniform(-0.5, 0.5, size=2)
            sig = rng.uniform(0.08, 0.25)
            amp = rng.uniform(0.4, 1.0)
            mag += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sig**2))
    else:  # "bars"
        theta = rng.uniform(0, np.pi)
        period = rng.uniform(0.15, 0.35)
        phase = rng.uniform(0, 2 * np.pi)
        ramp = (xx * math.cos(theta) + yy * math.sin(theta)) / period
        mag = 0.55 + 0.45 * np.tanh(4.0 * np.sin(2 * np.pi * ramp + phase))
    if tail > 0:
        noise = _blur(rng.standard_normal(xx.shape))
        mag = mag + tail * np.abs(noise)
    return mag * support


# The tail texture's Gaussian blur, sigma 1, truncated at int(4*sigma + 0.5)
# samples.  The kernel equals SciPy's ndimage one, so _blur(x) equals
# ndimage.gaussian_filter(x, 1.0) bit for bit (tests/test_filters.py).
_BLUR_SIGMA = 1.0
_BLUR_RADIUS = int(4.0 * _BLUR_SIGMA + 0.5)
_BLUR_KERNEL = _gaussian_window(2 * _BLUR_RADIUS + 1, _BLUR_SIGMA)


def _blur(x: np.ndarray) -> np.ndarray:
    """The Gaussian blur of a 2-D array, axis 0 then axis 1.  Borders
    reflect about the edge sample, repeating it (numpy's "symmetric" pad,
    ndimage's "reflect"), also for sides shorter than the radius.  Both axes
    are padded at once: a padded column filters to a copy of the filtered
    column it reflects, so the axis-1 pass sees the same borders."""
    x = np.pad(x, _BLUR_RADIUS, mode="symmetric")
    return _correlate_valid(_correlate_valid(x, _BLUR_KERNEL, 0), _BLUR_KERNEL, 1)


def gen_phantom(
    n: int,
    coils: int,
    seed: int,
    kind: str = "blobs",
    tail: float = PHANTOM_TAIL,
    noise: float = PHANTOM_NOISE,
):
    """Deterministic multi-coil phantom; returns (image grid, k-space grid).

    K-space is constructed with the exact FP64 transform so that the forward
    pipeline applied to it reproduces the image coils, up to FP64 rounding.
    `noise` sets a small complex noise floor per coil; without it the
    k-space tail percentile sits at FP64 rounding level and the prescale
    tail rule would dominate the gain, which no acquired data exhibits.
    `tail` and `noise` lie in [0, PHANTOM_LIMIT], which keeps the image and
    its k-space finite; a value outside raises ConfigError naming it.
    """
    n, coils, seed = _check_phantom_fields(n, coils, seed, kind, tail, noise)
    rng = np.random.default_rng(seed)
    yy, xx = _coords(n)
    mag = _phantom_magnitude(yy, xx, kind, rng, tail)
    a, b, c, d = rng.uniform(-1.0, 1.0, size=4)
    phase = np.pi * (a * xx + b * yy + c * xx * yy + d * (xx**2 - yy**2))
    sens = coil_sensitivities(n, coils, seed)
    # built in the coil-sensitivity array, in this operand order: numpy's
    # complex product is not bitwise commutative
    img = np.multiply(mag * np.exp(1j * phase), sens, out=sens)
    del yy, xx, mag, phase  # not held through the noise draws and the k-space transform
    if noise > 0:
        draw = np.empty(img.shape)
        for part in (img.real, img.imag):  # every real draw, then every imaginary one
            part += np.multiply(rng.standard_normal(out=draw), noise, out=draw)
        del draw  # not held through the k-space transform
    ksp = fft_2d(img, make_plan(n, ModeSpec.reference()), "inverse")
    ksp *= 1.0 / (n * n)
    return ComplexGrid(img, IMAGE), ComplexGrid(ksp, KSPACE)


# ---------------------------------------------------------------------------
# MXCG interchange format
# ---------------------------------------------------------------------------

_MAGIC = b"MXCG"
_VERSION = 1
_HEADER = struct.Struct("<4sIBII")  # magic, version, domain, coils, n


def write_grid(grid: ComplexGrid, path) -> None:
    """Write a grid in the MXCG binary format (little-endian, FP64 pairs)."""
    domain_code = 0 if _instance(grid, ComplexGrid, "grid").domain == KSPACE else 1
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, domain_code, grid.coils, grid.n))
        fh.write(np.ascontiguousarray(grid.data, dtype="<c16").tobytes())


def read_grid(path) -> ComplexGrid:
    """Read an MXCG file; rejects bad magic/version, truncation, non-finite data."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        if raw[:4] != _MAGIC:
            raise BadMagic("not an MXCG file")
        raise TruncatedFile("incomplete MXCG header")
    magic, version, domain_code, coils, n = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != _VERSION:
        raise BadVersion(f"unsupported MXCG version {version}")
    if domain_code not in (0, 1):
        raise FileFormatError(f"unknown domain code {domain_code}")
    if coils < 1:
        raise FileFormatError(f"coils: header says {coils}, need at least one")
    if _size(n) is None:
        raise FileFormatError(f"n: header says {n}, not a power of two in [2, {MAX_SIZE}]")
    expected = coils * n * n * 16
    payload = raw[_HEADER.size:]
    if len(payload) < expected:
        raise TruncatedFile(f"expected {expected} payload bytes, got {len(payload)}")
    if len(payload) > expected:
        raise FileFormatError(f"{len(payload) - expected} trailing bytes")
    data = np.frombuffer(payload, dtype="<c16").reshape(coils, n, n)
    if not np.all(np.isfinite(data)):
        raise NonFinitePayload("non-finite values in MXCG payload")
    return ComplexGrid(data.astype(np.complex128), KSPACE if domain_code == 0 else IMAGE)
