"""Exception hierarchy shared across the package, and one reader per kind of
public input (arrays, reals, integers, sizes, names and typed configs)."""

import math
import numbers

import numpy as np

# The largest transform, grid and MX block size: a plan at 2^16 takes a few MiB
MAX_SIZE = 2**16


class MxfftError(Exception):
    """Base class for all mxfft errors."""


class InvalidValue(MxfftError):
    """Non-finite or otherwise unusable numeric input."""


class ShapeError(MxfftError):
    """Array shape or length does not match the operation's contract."""


class UnsupportedSize(MxfftError):
    """Transform size is not a supported power of two (or grid not square)."""


class DegenerateReference(MxfftError):
    """Reference image is all-zero; PSNR/NMSE undefined."""


class WindowTooLarge(MxfftError):
    """Image smaller than the SSIM window."""


class ConfigError(MxfftError):
    """Invalid experiment or prescale configuration; message names the field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class FileFormatError(MxfftError):
    """Base for MXCG file errors."""


class BadMagic(FileFormatError):
    pass


class BadVersion(FileFormatError):
    pass


class TruncatedFile(FileFormatError):
    pass


class NonFinitePayload(FileFormatError):
    pass


def _numbers(x, kinds: str, head: str, dtype=None) -> np.ndarray:
    """x as an array of a dtype kind in `kinds`, cast to `dtype` if given (x
    itself if it is one); raises InvalidValue starting with `head` otherwise.
    The kind is read first, so strings are not parsed; a cast beyond dtype's
    range gives inf without a warning, which every caller rejects."""
    try:
        a = np.asarray(x)
    except (TypeError, ValueError) as exc:
        raise InvalidValue(f"{head}: {exc}") from None
    if a.dtype.kind not in kinds:
        raise InvalidValue(f"{head}, got dtype {a.dtype}")
    with np.errstate(over="ignore"):
        return a if dtype is None else a.astype(dtype, copy=False)


def _real(value) -> float:
    """A real number as a float, +-inf beyond the float range, for a range
    check (a float16 compared with a float bound casts the bound); else NaN."""
    try:
        return float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an integer beyond the float range
        return math.inf if value > 0 else -math.inf


def _integer(value, field: str, lo, hi=math.inf) -> int:
    """value as a Python int, which does not wrap as a numpy integer may, if it
    is an integer (a bool included) in [lo, hi]; else ConfigError naming `field`."""
    if isinstance(value, numbers.Integral) and lo <= value <= hi:
        return int(value)
    raise ConfigError(field, f"must be an integer in [{lo}, {hi}], got {value!r}")


def _size(value) -> int | None:
    """value as a Python int if it is an integer power of two in [2, MAX_SIZE], a
    valid transform, grid or MX block size; else None, for the caller's typed error."""
    if isinstance(value, numbers.Integral) and 2 <= value <= MAX_SIZE and not value & (value - 1):
        return int(value)
    return None


def _choice(value, choices, field: str, what: str) -> str:
    """value if it is a str among `choices`, else ConfigError naming `field`."""
    if isinstance(value, str) and value in choices:
        return value
    raise ConfigError(field, f"unknown {what} {value!r}; known: {', '.join(choices)}")


def _instance(value, cls: type, field: str, what: str = None):
    """value if it is a `cls`; raises ConfigError naming `field` otherwise."""
    if isinstance(value, cls):
        return value
    raise ConfigError(field, f"must be {what or 'a ' + cls.__name__}, got {value!r}")
