"""The public contract as one property: every public callable, given any
argument from one shared pool of odd values, returns a finite result (PSNR's
+inf for identical images, and the prescale's documented inf peak, count) or
raises an MxfftError, and never warns.

The pool holds ragged lists, 0-d and empty arrays, arrays of every dtype
kind (long doubles beyond the float64 range included), None, 10**400,
NaN/inf, dicts, wrong types and one-element string arrays.  Each argument is
drawn from the pool one time in four, and otherwise from values the callable
accepts, so that calls also reach past their first check.  Every allocation
stays at a few MiB: grids at most 64 on a side, at most 4 coils, plans of at
most 2^12 points; the pool's sizes and counts are filtered to match.  File paths are
left out (read_grid and write_grid raise OSError for them, which the CLI
catches), as are the plain record types.

run_experiment and the CLI have their own properties: small specs, and argv
from a pool of valid and bad flag values, give finite rows, or exit code 0 or
2 with an `error:` line and no traceback.
"""

import csv
import dataclasses
import io
import math
import numbers
import os
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mxfft
from mxfft import (
    E4M3,
    FORMATS,
    ComplexGrid,
    ConfigError,
    FftPlan,
    InvalidValue,
    MinifloatFormat,
    ModeSpec,
    MxfftError,
    PrescaleConfig,
    UnsupportedSize,
    apply_prescale,
    coil_sensitivities,
    compute_prescale,
    fft_1d,
    fft_2d,
    forward_pipeline,
    gen_phantom,
    get_format,
    make_plan,
    nmse,
    psnr,
    quantize_array,
    report,
    roundtrip_pipeline,
    rss,
    ssim,
    undo_prescale,
    write_grid,
)
from mxfft.cli import CSV_COLUMNS, ExperimentSpec, main, run_experiment
from mxfft.errors import MAX_SIZE
from mxfft.mri import _check_coil_fields

HUGE = np.longdouble(2) ** 2000  # beyond the float64 range
DTYPES = ["?", "u1", "u8", "i1", "i8", "f2", "f4", "f8", "g", "c8", "c16", "G", "S3", "U4", "O", "M8[s]", "m8[s]"]


@st.composite
def arrays(draw, shapes):
    """An array of any dtype kind, with values from 1e-300 to beyond float64
    and, sometimes, one NaN, inf or zero."""
    shape = draw(st.sampled_from(shapes))
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = np.asarray(rng.standard_normal(shape), dtype=np.longdouble)
    v = v * draw(st.sampled_from([1.0, 1e-300, 1e30, 1e300, HUGE]))
    special = draw(st.sampled_from([None, math.nan, math.inf, -math.inf, 0.0]))
    if special is not None and v.size:
        v.reshape(-1)[draw(st.integers(0, v.size - 1))] = special
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the casts below may overflow; only the call is checked
        if dtype.kind in "Mm":
            return rng.integers(-100, 100, shape).astype(dtype)
        if dtype.kind == "c":
            return (v + 1j * rng.standard_normal(shape)).astype(dtype)
        return v.astype(dtype)


ODD = st.one_of(
    st.sampled_from([
        None, 10**400, math.nan, math.inf, -math.inf, -1, 0, 1, 3, 8, 8.0, True, 1e-300,
        np.int64(np.iinfo(np.int64).max), np.uint64(np.iinfo(np.uint64).max), np.float64(2.5), HUGE,
        "", "bogus", "e4m3", "fp16", "forward", "kspace", b"fp16", {}, {"tau": 1.0}, [], [[1], [1, 2]],
        [1, "a"], object(), np.array(4), np.array(math.nan), np.array("fp16"), np.array(["kspace"]),
        np.array(["forward"]), np.array(["e4m3"]), np.array([]), np.empty((0, 4, 4)),
    ]),
    arrays([(), (0,), (3,), (4,), (4, 4), (1, 4, 4), (0, 4, 4)]),
)


class Bounded:
    """A size or count argument: its pool integers are at most `limit`, so
    that no draw allocates more than a few MiB."""

    def __init__(self, valid, limit: int):
        self.valid = valid
        self.odd = ODD.filter(lambda v: not (isinstance(v, numbers.Integral) and v > limit))


SIZES = st.sampled_from([2, 4, 8, 16])
PLAN_SIZES = Bounded(st.sampled_from([2, 64, 4096]), 2**12)
GRID_SIDES = Bounded(st.sampled_from([2, 16, 64]), 64)
COILS = Bounded(st.integers(1, 4), 4)
SEEDS = st.integers(0, 2**64)
FMTS = st.sampled_from(list(FORMATS.values()))
MODES = st.one_of(
    st.just(ModeSpec.reference()),
    st.just(ModeSpec.fp16()),
    st.builds(ModeSpec.mx, FMTS, st.sampled_from([2, 8, 32])),
)
NAMES = st.sampled_from(["reference", "fp16", "e4m3", "e5m2", "e2m3", "e3m2"])
DIRECTIONS = st.sampled_from(["forward", "inverse"])
CONFIGS = st.one_of(st.just(PrescaleConfig()), st.builds(PrescaleConfig, k_min=st.integers(-1022, -40)))
REALS = st.sampled_from([0.0, 0.5, 1e6, 1e300, 2.0**-64 * 1.7976931348623157e308])


def _finite_stack(n, coils=(1, 2)):
    """(coils, n, n) finite complex128 data, up to 1e300."""
    def stack(c, seed, scale):
        return scale * np.random.default_rng(seed).standard_normal((c, n, n, 2)).view(complex)[..., 0]

    scales = st.sampled_from([1.0, 1e-300, 1e300])
    return st.builds(stack, st.sampled_from(coils), st.integers(0, 2**32 - 1), scales)


def _grid(n, domains=("kspace", "image")):
    return st.builds(ComplexGrid, _finite_stack(n), st.sampled_from(domains))


def _table(n):
    """name -> (callable, argument strategies, whether +inf is a result)."""
    plan = st.builds(make_plan, st.just(n), MODES)
    grids = [(n,), (n, n), (2, n, n)]
    images = arrays([(n, n), (12, 12), (16, 16)])
    return {
        "MinifloatFormat": (MinifloatFormat, (st.just("w"), st.integers(2, 10), st.integers(1, 52),
                                              st.sampled_from(["ieee", "extended", "finite"])), False),
        "get_format": (get_format, (NAMES,), False),
        "quantize_array": (quantize_array, (arrays(grids), FMTS), False),
        "PrescaleConfig": (PrescaleConfig, (REALS, st.sampled_from([1.0, 50.0]), REALS,
                                            st.integers(-40, 0), st.integers(0, 40)), False),
        "compute_prescale": (compute_prescale, (arrays(grids), CONFIGS), True),
        "apply_prescale": (apply_prescale, (arrays(grids), st.integers(-1022, 1022)), False),
        "undo_prescale": (undo_prescale, (arrays(grids), st.integers(-1022, 1022),
                                          st.sampled_from([None, np.empty((n, n), complex)])), False),
        "ModeSpec": (ModeSpec, (st.sampled_from(["mx", "fp16", "reference"]), st.one_of(st.none(), FMTS),
                                st.sampled_from([2, 32])), False),
        "ModeSpec.mx": (ModeSpec.mx, (FMTS, st.sampled_from([2, 64])), False),
        "ModeSpec.from_name": (ModeSpec.from_name, (NAMES, st.sampled_from([2, 32])), False),
        "FftPlan": (FftPlan, (PLAN_SIZES, MODES), False),
        "make_plan": (make_plan, (PLAN_SIZES, MODES), False),
        "fft_1d": (fft_1d, (arrays([(n,)]), plan, DIRECTIONS), False),
        "fft_2d": (fft_2d, (arrays([(n, n), (2, n, n), (0, n, n)]), plan, DIRECTIONS,
                            st.sampled_from([None, np.empty((n, n), complex)])), False),
        "psnr": (psnr, (images, images), True),
        "ssim": (ssim, (images, images), False),
        "nmse": (nmse, (images, images), False),
        "report": (report, (images, images), True),
        "ComplexGrid": (ComplexGrid, (arrays([(1, n, n), (2, n, n)]), st.sampled_from(["kspace", "image"])),
                        False),
        "rss": (rss, (_grid(n),), False),
        "forward_pipeline": (forward_pipeline, (_grid(n, ("kspace",)), plan, CONFIGS), False),
        "roundtrip_pipeline": (roundtrip_pipeline, (_grid(n, ("image",)), plan, CONFIGS), False),
        "coil_sensitivities": (coil_sensitivities, (GRID_SIDES, COILS, SEEDS), False),
        "gen_phantom": (gen_phantom, (GRID_SIDES, COILS, SEEDS, st.sampled_from(["blobs", "bars"]), REALS, REALS),
                        False),
        "write_grid": (lambda grid: write_grid(grid, os.devnull), (_grid(n),), False),
        "ExperimentSpec": (ExperimentSpec, (
            st.lists(st.one_of(NAMES, ODD), min_size=1, max_size=2),
            st.lists(st.one_of(st.sampled_from([16, 2**40]), ODD), min_size=1, max_size=2),
            st.lists(st.one_of(st.sampled_from([2, 32]), ODD), min_size=1, max_size=2),
            st.lists(st.one_of(st.integers(0, 10**30), ODD), min_size=1, max_size=2),
            st.sampled_from(["forward", "roundtrip"]), st.integers(1, 10**9), st.sampled_from(["blobs", "bars"]),
            REALS, REALS, CONFIGS,
        ), False),
    }


PUBLIC = set(_table(4))
# the prescale's scalings check no input value: the pipelines pass them
# finite grids, and a check would cost a pass over every coil stack
SCALINGS = {"apply_prescale", "undo_prescale"}
# the public callables left out: plain records and the file reader
LEFT_OUT = {"MetricsReport", "PrescaleResult", "RssImage", "read_grid"}


def test_the_table_covers_every_public_callable():
    callables = {
        name for name in dir(mxfft)
        if not name.startswith("_") and callable(getattr(mxfft, name))
        and not (isinstance(getattr(mxfft, name), type) and issubclass(getattr(mxfft, name), Exception))
        and not isinstance(getattr(mxfft, name), MinifloatFormat)
    }
    assert callables - LEFT_OUT == PUBLIC - {"ModeSpec.mx", "ModeSpec.from_name", "ExperimentSpec"}


def _assert_finite(result, allow_inf: bool) -> None:
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        for field in dataclasses.fields(result):
            _assert_finite(getattr(result, field.name), allow_inf)
    elif isinstance(result, (tuple, list)):
        for item in result:
            _assert_finite(item, allow_inf)
    elif isinstance(result, (np.ndarray, np.generic)):  # finite in its own dtype
        assert result.dtype.kind in "biufc" and np.isfinite(result).all()
    elif isinstance(result, float):
        assert not math.isnan(result) and (allow_inf or math.isfinite(result))


@pytest.mark.parametrize("name", sorted(PUBLIC))
@given(data=st.data())
# derandomized, so that the suite is reproducible; raise max_examples to search wider
@settings(max_examples=40, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_public_call_returns_a_finite_result_or_raises_an_mxfft_error(name, data):
    func, params, allow_inf = _table(data.draw(SIZES, label="n"))[name]
    args = []
    for i, p in enumerate(params):
        valid, odd = (p.valid, p.odd) if isinstance(p, Bounded) else (p, ODD)
        args.append(data.draw(st.one_of(valid, valid, valid, odd), label=f"arg {i}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = func(*args)
        except MxfftError:
            return
    if name in SCALINGS and not np.isfinite(args[0]).all():
        return  # an exact elementwise scaling: NaN or inf in, the same out
    _assert_finite(result, allow_inf)


DATA = np.ones((1, 4, 4), dtype=complex)
PLAN = make_plan(4, ModeSpec.reference())
BEYOND = np.full((4, 4), HUGE)
SPEC = dict(modes=["e4m3"], sizes=[16], blocks=[8], seeds=[0])


@pytest.mark.parametrize(
    "call, error, field",
    [
        # an array where a name belongs: numpy's ambiguous truth value before
        (lambda: fft_2d(np.ones((4, 4)), PLAN, np.ones((4, 4))), ConfigError, "direction"),
        (lambda: ModeSpec(np.ones(3)), ConfigError, "kind"),
        (lambda: ModeSpec.from_name(np.ones(3)), ConfigError, "format"),
        (lambda: MinifloatFormat("x", 4, 3, np.ones(3)), ConfigError, "policy"),
        (lambda: gen_phantom(8, 1, 0, np.ones(3)), ConfigError, "kind"),
        (lambda: ComplexGrid(DATA, np.ones(3)), InvalidValue, None),
        (lambda: ExperimentSpec(**SPEC, pipeline=np.ones(3)), ConfigError, "pipeline"),
        (lambda: ExperimentSpec(**SPEC, kind=np.ones(3)), ConfigError, "kind"),
        (lambda: ExperimentSpec(**dict(SPEC, modes=[np.ones(3)])), ConfigError, "modes"),
        # raw TypeErrors before
        (lambda: fft_1d(np.ones(4), PLAN, np.array(["inverse"])), ConfigError, "direction"),
        (lambda: make_plan(4, ModeSpec(np.array(["fp16"]))), ConfigError, "kind"),
        # a one-element string array is not a name
        (lambda: ComplexGrid(DATA, np.array(["kspace"])), InvalidValue, None),
        # long doubles beyond float64: a cast overflow warning before
        (lambda: fft_1d(BEYOND[0], PLAN), InvalidValue, None),
        (lambda: fft_2d(BEYOND, PLAN), InvalidValue, None),
        (lambda: ComplexGrid(BEYOND[None], "kspace"), InvalidValue, None),
        (lambda: quantize_array(BEYOND, E4M3), InvalidValue, None),
        (lambda: psnr(BEYOND, np.ones((4, 4))), InvalidValue, None),
        (lambda: ssim(np.full((12, 12), HUGE), np.ones((12, 12))), InvalidValue, None),
        (lambda: nmse(np.ones((4, 4)), BEYOND), InvalidValue, None),
        # the scalar modes take no format and the default block
        (lambda: make_plan(4, ModeSpec("fp16", None, [1])), ConfigError, "block_size"),
        (lambda: ModeSpec("fp16", [1]), ConfigError, "fmt"),
        (lambda: ModeSpec("fp16", E4M3, 7), ConfigError, "fmt"),
        (lambda: ModeSpec("reference", None, 8), ConfigError, "block_size"),
        # coil_sensitivities follows gen_phantom's rule
        (lambda: coil_sensitivities(8.0, 1, 0), ConfigError, "n"),
        (lambda: coil_sensitivities(-3, 1, 0), ConfigError, "n"),
        (lambda: coil_sensitivities(8, 0, 0), ConfigError, "coils"),
        (lambda: coil_sensitivities(8, 1, -1), ConfigError, "seed"),
        # found by the property
        (lambda: quantize_array(np.ones(3), "e4m3"), ConfigError, "fmt"),
        (lambda: undo_prescale(np.ones(3), 1, [0.0] * 3), ConfigError, "out"),
        (lambda: undo_prescale(np.ones(3), 1, np.ones(3, dtype=int)), ConfigError, "out"),
        (lambda: make_plan(4, ModeSpec.mx(MinifloatFormat(["w"], 4, 3))), ConfigError, "name"),
    ],
)
def test_known_leaks_are_typed_errors(call, error, field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc:
            call()
    assert getattr(exc.value, "field", None) == field


def test_a_numpy_seed_at_its_types_top_does_not_wrap():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        maps = coil_sensitivities(4, 1, np.int64(np.iinfo(np.int64).max))
    assert np.array_equal(maps, coil_sensitivities(4, 1, int(np.iinfo(np.int64).max)))


def test_a_bool_coil_count_is_one_coil():
    assert np.array_equal(coil_sensitivities(4, True, 0), coil_sensitivities(4, 1, 0))


def test_numpy_integer_format_fields_are_read_as_ints():
    fmt = MinifloatFormat("w", np.uint8(4), np.int64(3), "extended")
    assert fmt == MinifloatFormat("w", 4, 3, "extended") and type(fmt.exponent_bits) is int
    assert fmt.max_finite == E4M3.max_finite and fmt.emin == E4M3.emin


def test_scalar_modes_keep_one_spec_per_arithmetic():
    assert ModeSpec.from_name("fp16", 8) == ModeSpec.fp16()
    assert ModeSpec.from_name("reference", 2) == ModeSpec.reference()
    assert ModeSpec("fp16", None, np.int64(32)) == ModeSpec.fp16()


def test_fp16_pass_outputs_saturate():
    # the exact DC is 120000; the FP16 control's pass output saturates to 65504
    out = fft_1d([30000] * 4, make_plan(4, ModeSpec.fp16()))
    assert out[0] == 65504 and np.all(out[1:] == 0)


def test_numpy_integers_are_read_as_python_ints():
    ints = _check_coil_fields(np.int16(256), np.uint8(2), np.uint64(2**63))
    assert ints == (256, 2, 2**63) and all(type(v) is int for v in ints)
    cfg = PrescaleConfig(k_min=np.int16(-50), k_max=np.uint8(3))
    assert (cfg.k_min, cfg.k_max) == (-50, 3) and type(cfg.k_min) is type(cfg.k_max) is int
    assert type(ModeSpec.mx(E4M3, np.uint8(8)).block_size) is int
    assert type(make_plan(np.int16(16), ModeSpec.reference()).n) is int
    # an int16 n squared would wrap to 0 in the k-space scale 1/n^2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        image, kspace = gen_phantom(np.int16(256), np.uint8(1), np.uint64(5))
    want = gen_phantom(256, 1, 5)
    assert np.array_equal(image.data, want[0].data) and np.array_equal(kspace.data, want[1].data)


@pytest.mark.parametrize(
    "call, error, field",
    [
        (lambda: make_plan(2 * MAX_SIZE, ModeSpec.reference()), UnsupportedSize, None),
        (lambda: make_plan(np.uint64(2**63), ModeSpec.reference()), UnsupportedSize, None),
        (lambda: FftPlan(2 * MAX_SIZE, ModeSpec.reference()), UnsupportedSize, None),
        (lambda: ModeSpec.mx(E4M3, 2 * MAX_SIZE), ConfigError, "block_size"),
        (lambda: gen_phantom(2 * MAX_SIZE, 1, 0), ConfigError, "n"),
        (lambda: coil_sensitivities(2 * MAX_SIZE, 1, 0), ConfigError, "n"),
        (lambda: ExperimentSpec(**dict(SPEC, sizes=[2**40])), ConfigError, "sizes"),
        (lambda: ExperimentSpec(**dict(SPEC, blocks=[2 * MAX_SIZE])), ConfigError, "blocks"),
        # coil counts too: numpy's MemoryError or "array is too big" before
        (lambda: gen_phantom(256, 2**40, 0), ConfigError, "coils"),
        (lambda: coil_sensitivities(4, 2**62, 0), ConfigError, "coils"),
        (lambda: ExperimentSpec(**dict(SPEC, coils=2**40)), ConfigError, "coils"),
        # phantoms beyond PHANTOM_VALUES: numpy's MemoryError before
        (lambda: gen_phantom(2**16, 1, 0), ConfigError, "n"),
        (lambda: gen_phantom(256, 2**16, 0), ConfigError, "coils"),
        (lambda: coil_sensitivities(2**16, 1, 0), ConfigError, "n"),
        (lambda: ExperimentSpec(**dict(SPEC, sizes=[16, 2**16])), ConfigError, "n"),
    ],
)
def test_sizes_above_the_bound_raise_without_allocating(call, error, field):
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as exc:
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert getattr(exc.value, "field", None) == field and peak < 2**20


def _assert_finite_rows(rows):
    """Every numeric column parses, none is NaN, and only PSNR may be +inf
    (the reference cell scores identical images)."""
    for row in rows:
        assert list(row) == CSV_COLUMNS
        for column in CSV_COLUMNS[6:]:
            if row[column]:
                value = float(row[column])
                assert not math.isnan(value) and (column == "psnr" or math.isfinite(value)), row


# small specs: grids of 16 or 32, at most 2 coils and 2 seeds, so that a run takes milliseconds
SPECS = st.fixed_dictionaries(dict(
    modes=st.lists(NAMES, min_size=1, max_size=2),
    sizes=st.lists(st.sampled_from([16, 32]), min_size=1, max_size=2),
    blocks=st.lists(st.sampled_from([2, 8, 32]), min_size=1, max_size=2),
    seeds=st.lists(st.integers(0, 2**64), min_size=1, max_size=2),
    pipeline=st.sampled_from(["forward", "roundtrip"]),
    coils=st.integers(1, 2),
    kind=st.sampled_from(["blobs", "bars"]),
    tail=st.one_of(st.just(0.2), REALS),
    noise=st.one_of(st.just(0.1), REALS),
    prescale=CONFIGS,
))


@given(spec=SPECS)
@settings(max_examples=40, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_run_experiment_returns_finite_rows_or_raises_an_mxfft_error(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = run_experiment(ExperimentSpec(**spec))
        except MxfftError:
            return
    _assert_finite_rows(rows)


# per subcommand: each flag's pool of valid and bad values; "{tmp}" is the `grids` directory
_PHANTOM_FLAGS = {
    "--coils": ["1", "2", "0", "x", "1099511627776"],
    "--kind": ["blobs", "bars", "stripes"],
    "--tail": ["0.2", "0", "-1", "nan", "1e300"],
    "--noise": ["0.1", "0", "inf"],
}
_RUN_FLAGS = _PHANTOM_FLAGS | {
    "--size": ["16", "32", "16,32", "8", "12", "1099511627776", "x", ""],
    "--seeds": ["1", "2", "0", "-1", "1099511627776"],
    "--input": ["{tmp}/k16.mxcg", "{tmp}/i16.mxcg", "{tmp}/k8.mxcg", "{tmp}/missing.mxcg"],
    "--out": ["{tmp}/out.csv", "{tmp}"],
    "--tau": ["1", "50", "0", "100", "nan"],
    "--tau-min": ["1e-6", "0", "1e400"],
    "--k-min": ["-40", "-1100", "x"],
    "--k-max": ["40", "-50"],
    "--target": ["1", "1e300", "-1"],
}
FLAGS = {
    "gen-phantom": _PHANTOM_FLAGS | {
        "--size": ["16", "32", "4", "3", "1099511627776"],
        "--seed": ["0", "7", "-1"],
        "--out-image": ["{tmp}/image.mxcg", "{tmp}"],
        "--out-kspace": ["{tmp}/kspace.mxcg"],
    },
    "forward": _RUN_FLAGS | {"--mode": ["e4m3", "fp16", "reference", "bogus"], "--block": ["2", "32", "3", "0"]},
    "roundtrip": _RUN_FLAGS | {"--mode": ["e5m2", "e2m3", "x"], "--block": ["8", "6"]},
    "sweep": _RUN_FLAGS | {
        "--mode": ["e4m3,fp16", "e3m2", "e4m3,bogus"],
        "--block": ["8,32", "2", "3", ""],
        "--pipeline": ["forward", "roundtrip", "sideways"],
    },
}


@pytest.fixture(scope="module")
def grids(tmp_path_factory):
    """A directory holding 16-point k-space and image grids and an 8-point k-space grid."""
    tmp = tmp_path_factory.mktemp("grids")
    for n in (16, 8):
        image, kspace = gen_phantom(n, 1, 0)
        write_grid(kspace, tmp / f"k{n}.mxcg")
        write_grid(image, tmp / f"i{n}.mxcg")
    return tmp


@given(data=st.data())
@settings(max_examples=80, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_cli_exits_0_with_finite_rows_or_2_with_an_error_line(data, grids):
    command = data.draw(st.sampled_from(sorted(FLAGS)), label="command")
    flags = data.draw(st.lists(st.sampled_from(sorted(FLAGS[command])), max_size=5, unique=True), label="flags")
    values = {"--size": "16"} if command == "gen-phantom" else {"--size": "16", "--seeds": "1", "--coils": "1"}
    for flag in flags:
        values[flag] = data.draw(st.sampled_from(FLAGS[command][flag]), label=flag).format(tmp=grids)
    argv = [command] + [item for pair in values.items() for item in pair]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flag value
            code = exc.code
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue()
        return
    assert code == 0 and not err.getvalue()
    if command != "gen-phantom":
        csv_path = grids / "out.csv"
        text = csv_path.read_text() if f"{grids}/out.csv" in argv else out.getvalue()
        csv_path.unlink(missing_ok=True)
        _assert_finite_rows(list(csv.DictReader(io.StringIO(text))))
