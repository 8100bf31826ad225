"""MRI-style evaluation pipelines, synthetic multi-coil phantoms, grid I/O.

Pipelines follow the per-coil forward / round-trip definition: each coil is
transformed independently, and a root-sum-square over coils produces the
magnitude image.  A single global power-of-two prescale is applied across
the whole coil stack before the transforms and undone exactly afterwards.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import struct

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import (
    BadMagic,
    BadVersion,
    ConfigError,
    FileFormatError,
    InvalidValue,
    NonFinitePayload,
    ShapeError,
    TruncatedFile,
)
from .fftcore import FftPlan, ModeSpec, _is_pow2, fft_2d, make_plan
from .prescale import PrescaleConfig, apply_prescale, compute_prescale, undo_prescale

KSPACE = "kspace"
IMAGE = "image"

# Phantom defaults of the harness: the tail weight and the complex noise
# floor give the k-space a realistic noise floor and tail.
PHANTOM_TAIL = 0.2
PHANTOM_NOISE = 0.1


@dataclasses.dataclass(frozen=True)
class ComplexGrid:
    """C x N x N complex FP64 samples, tagged as k-space or image domain."""

    data: np.ndarray
    domain: str

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.complex128)
        if d.ndim != 3 or d.shape[1] != d.shape[2]:
            raise ShapeError("grid data must be (coils, n, n)")
        if d.shape[0] < 1:
            raise ShapeError("coils: a grid needs at least one coil")
        if d.shape[1] < 1:
            raise ShapeError("n: a grid needs at least one sample per side")
        if self.domain not in (KSPACE, IMAGE):
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
    return _rss(grid.data)


def _rss(data: np.ndarray) -> RssImage:
    """rss of (coils, n, n) complex data; raises InvalidValue if a pixel is
    not finite, which also catches non-finite data."""
    with np.errstate(over="ignore"):
        pixels = np.sqrt(np.sum(np.abs(data) ** 2, axis=0))
    if not np.isfinite(pixels).all():
        raise InvalidValue(
            f"rss: the sum of squared coil magnitudes must stay within the float64 range "
            f"(<= {np.finfo(np.float64).max:.7g})"
        )
    return RssImage(pixels)


def forward_pipeline(kspace: ComplexGrid, plan: FftPlan, cfg: PrescaleConfig) -> RssImage:
    """Prescale -> per-coil forward 2-D FFT -> exact prescale undo -> RSS."""
    if kspace.domain != KSPACE:
        raise InvalidValue("forward_pipeline expects a k-space grid")
    return _pipeline(kspace, plan, compute_prescale(kspace.data, cfg).k)


def roundtrip_pipeline(image: ComplexGrid, plan: FftPlan, cfg: PrescaleConfig) -> RssImage:
    """Prescale -> per-coil forward then inverse FFT, 1/N^2 in FP64 -> undo -> RSS."""
    if image.domain != IMAGE:
        raise InvalidValue("roundtrip_pipeline expects an image grid")
    return _pipeline(image, plan, compute_prescale(image.data, cfg).k)


def _pipeline(grid: ComplexGrid, plan: FftPlan, k: int) -> RssImage:
    """Both pipelines after the prescale choice: scale by 2^k, transform each
    coil (k-space forward; an image forward, then inverse with 1/N^2 in FP64),
    undo 2^k exactly, RSS.  The transforms raise on a non-finite result, and
    an undo that overflows is caught by the RSS check."""
    out = fft_2d(apply_prescale(grid.data, k), plan, "forward")
    if grid.domain == IMAGE:
        out = fft_2d(out, plan, "inverse")
        out *= 1.0 / (grid.n * grid.n)
    with np.errstate(over="ignore"):
        undo_prescale(out, k, out=out)
    return _rss(out)


# ---------------------------------------------------------------------------
# Synthetic phantoms
# ---------------------------------------------------------------------------


def coil_sensitivities(n: int, coils: int, seed: int) -> np.ndarray:
    """Smooth complex per-coil sensitivity maps, (coils, n, n).

    Each map has magnitude >= 0.6 everywhere, so the RSS of the maps alone
    stays above 0.5 over any support.
    """
    rng = np.random.default_rng(seed + 7919)
    ax = np.linspace(-1.0, 1.0, n)
    yy, xx = np.meshgrid(ax, ax, indexing="ij")
    maps = np.empty((coils, n, n), dtype=np.complex128)
    for c in range(coils):
        ang = 2.0 * np.pi * c / coils
        cx, cy = 0.6 * math.cos(ang), 0.6 * math.sin(ang)
        mag = 0.6 + 0.9 * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * 0.5**2))
        px, py = rng.uniform(-1.5, 1.5, size=2)
        maps[c] = mag * np.exp(1j * (px * xx + py * yy))
    return maps


def _phantom_magnitude(n, kind, rng, tail):
    ax = np.linspace(-1.0, 1.0, n)
    yy, xx = np.meshgrid(ax, ax, indexing="ij")
    rr = np.sqrt(xx**2 + yy**2)
    support = 0.5 * (1.0 + np.tanh((0.85 - rr) / 0.05))
    if kind == "blobs":
        mag = np.zeros((n, n))
        for _ in range(6):
            cx, cy = rng.uniform(-0.5, 0.5, size=2)
            sig = rng.uniform(0.08, 0.25)
            amp = rng.uniform(0.4, 1.0)
            mag += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sig**2))
    elif kind == "bars":
        theta = rng.uniform(0, np.pi)
        period = rng.uniform(0.15, 0.35)
        phase = rng.uniform(0, 2 * np.pi)
        ramp = (xx * math.cos(theta) + yy * math.sin(theta)) / period
        mag = 0.55 + 0.45 * np.tanh(4.0 * np.sin(2 * np.pi * ramp + phase))
    else:
        raise ConfigError("kind", f"unknown phantom kind {kind!r}")
    if tail > 0:
        noise = gaussian_filter(rng.standard_normal((n, n)), sigma=1.0)
        mag = mag + tail * np.abs(noise)
    return mag * support


def _check_phantom(img, field):
    if not np.isfinite(img).all():
        raise ConfigError(field, "too large: the phantom image leaves the float64 range")


@functools.lru_cache(maxsize=64)
def _plan(n: int, mode: ModeSpec) -> FftPlan:
    """The plan of size n and mode, built once per process; plans are immutable."""
    return make_plan(n, mode)


def _kspace(img: np.ndarray):
    """The k-space of (coils, n, n) image coils, FP64 inverse 2-D FFTs with
    1/N^2, or None if the transforms leave the float64 range."""
    n = img.shape[1]
    try:
        ksp = fft_2d(img, _plan(n, ModeSpec.reference()), "inverse")
    except InvalidValue:
        return None
    ksp *= 1.0 / (n * n)
    return ksp


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
    A `tail` or `noise` whose image or k-space leaves the float64 range
    raises ConfigError naming it.
    """
    if not _is_pow2(n):
        raise ConfigError("n", "must be a power of two >= 2")
    if coils < 1:
        raise ConfigError("coils", "must be >= 1")
    if seed < 0:
        raise ConfigError("seed", "must be >= 0")
    for field, value in (("tail", tail), ("noise", noise)):
        if not 0 <= value < math.inf:
            raise ConfigError(field, f"must be finite and >= 0, got {value}")
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        mag = _phantom_magnitude(n, kind, rng, tail)
        ax = np.linspace(-1.0, 1.0, n)
        yy, xx = np.meshgrid(ax, ax, indexing="ij")
        a, b, c, d = rng.uniform(-1.0, 1.0, size=4)
        phase = np.pi * (a * xx + b * yy + c * xx * yy + d * (xx**2 - yy**2))
        sens = coil_sensitivities(n, coils, seed)
        clean = mag * np.exp(1j * phase) * sens
        _check_phantom(clean, "tail")
        img = clean
        if noise > 0:
            img = clean + noise * (
                rng.standard_normal((coils, n, n)) + 1j * rng.standard_normal((coils, n, n))
            )
            _check_phantom(img, "noise")
    ksp = _kspace(img)
    if ksp is None:
        # blame the noise only if the noise-free k-space is in range
        field = "noise" if noise > 0 and _kspace(clean) is not None else "tail"
        raise ConfigError(field, "too large: the phantom k-space leaves the float64 range")
    return ComplexGrid(img, IMAGE), ComplexGrid(ksp, KSPACE)


# ---------------------------------------------------------------------------
# MXCG interchange format
# ---------------------------------------------------------------------------

_MAGIC = b"MXCG"
_VERSION = 1
_HEADER = struct.Struct("<4sIBII")  # magic, version, domain, coils, n


def write_grid(grid: ComplexGrid, path) -> None:
    """Write a grid in the MXCG binary format (little-endian, FP64 pairs)."""
    domain_code = 0 if grid.domain == KSPACE else 1
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
    if not _is_pow2(n):
        raise FileFormatError(f"n: header says {n}, not a power of two >= 2")
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
