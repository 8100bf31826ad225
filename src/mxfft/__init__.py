"""Mixed-precision radix-2 FFT with microscaling block quantization."""

from .errors import (
    BadMagic,
    BadVersion,
    ConfigError,
    DegenerateReference,
    FileFormatError,
    InvalidValue,
    MxfftError,
    NonFinitePayload,
    ShapeError,
    TruncatedFile,
    UnsupportedSize,
    WindowTooLarge,
)
from .minifloat import (
    E2M3,
    E3M2,
    E4M3,
    E5M2,
    FP16,
    FORMATS,
    MinifloatFormat,
    enumerate_values,
    get_format,
    quantize_array,
    quantize_scalar,
)
from .prescale import (
    PrescaleConfig,
    PrescaleResult,
    apply_prescale,
    compute_prescale,
    undo_prescale,
)
from .fftcore import (
    FftPlan,
    ModeSpec,
    fft_1d,
    fft_2d,
    make_plan,
)
from .metrics import MetricsReport, nmse, psnr, report, ssim
from .mri import (
    ComplexGrid,
    RssImage,
    coil_sensitivities,
    forward_pipeline,
    gen_phantom,
    read_grid,
    roundtrip_pipeline,
    rss,
    write_grid,
)

__version__ = "0.1.0"
