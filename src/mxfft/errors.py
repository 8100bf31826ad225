"""Exception hierarchy shared across the package."""


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
