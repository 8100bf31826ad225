"""Experiment harness: spec validation, row arithmetic, determinism, exit codes."""

import csv
import inspect
import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from mxfft import ConfigError, PrescaleConfig, cli, compute_prescale, gen_phantom, make_plan, mri
from mxfft.cli import CSV_COLUMNS, ExperimentSpec, build_parser, main, run_experiment, write_csv
from conftest import PHANTOM


def _spec(**kw):
    base = dict(
        modes=["e4m3"],
        sizes=[16],
        blocks=[32],
        seeds=[0, 1],
        coils=2,
        kind=PHANTOM["kind"],
        tail=PHANTOM["tail"],
        noise=PHANTOM["noise"],
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_phantom_defaults_agree():
    # gen_phantom, ExperimentSpec and both CLI parsers share one set of defaults
    sig = inspect.signature(gen_phantom).parameters
    spec = ExperimentSpec(modes=["e4m3"], sizes=[16], blocks=[32], seeds=[0])
    gen = build_parser().parse_args(["gen-phantom"])
    fwd = build_parser().parse_args(["forward"])
    for field in ("tail", "noise"):
        want = PHANTOM[field]
        assert sig[field].default == getattr(spec, field) == want
        assert getattr(gen, field) == getattr(fwd, field) == want


def _details(rows):
    return [r for r in rows if r["seed"] != "mean"]


def _aggregates(rows):
    return [r for r in rows if r["seed"] == "mean"]


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(modes=[]),
            dict(modes=["e9m9"]),
            dict(sizes=[]),
            dict(sizes=[48]),
            dict(blocks=[]),
            dict(blocks=[3]),
            dict(seeds=[]),
            dict(pipeline="sideways"),
            dict(coils=0),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            _spec(**kw).validate()

    @pytest.mark.parametrize("block", [6, 12])
    def test_rejects_non_power_of_two_block(self, block):
        with pytest.raises(ConfigError, match="blocks"):
            _spec(blocks=[8, block]).validate()

    def test_unknown_mode_lists_registry(self):
        with pytest.raises(ConfigError, match="e4m3"):
            _spec(modes=["bogus"]).validate()


class TestRunExperiment:
    def test_row_arithmetic(self):
        rows = run_experiment(
            _spec(modes=["e4m3", "e5m2"], sizes=[16, 32], blocks=[8, 32], seeds=[0, 1, 2])
        )
        # 2 sizes x 2 modes x 2 blocks x 3 seeds detail rows, + 1 aggregate per cell
        assert len(_details(rows)) == 2 * 2 * 2 * 3
        assert len(_aggregates(rows)) == 2 * 2 * 2

    def test_reference_rows_are_inf(self):
        rows = run_experiment(_spec(modes=["reference"], seeds=[0]))
        for r in _details(rows):
            assert r["psnr"] == "inf"
            assert r["nmse"] == "0"
            assert r["ssim"] == "1"

    def test_prescale_chosen_once_per_input(self, monkeypatch):
        # one exponent per input, shared by its reference run and every cell
        calls = []

        def counted(x, cfg):
            calls.append(x.shape)
            return compute_prescale(x, cfg)

        monkeypatch.setattr(cli, "compute_prescale", counted)
        monkeypatch.setattr(mri, "compute_prescale", counted)
        rows = run_experiment(_spec(modes=["reference", "fp16", "e4m3"], blocks=[8, 32], seeds=[0, 1]))
        assert len(calls) == 2
        want = {
            str(s): str(compute_prescale(gen_phantom(16, 2, s, **PHANTOM)[1].data, PrescaleConfig()).k)
            for s in (0, 1)
        }
        assert all(r["prescale_k"] == want[r["seed"]] for r in _details(rows))

    def test_each_plan_built_once_across_calls(self, monkeypatch):
        built = []

        def counted(n, mode):
            built.append((n, mode))
            return make_plan(n, mode)

        monkeypatch.setattr(mri, "make_plan", counted)
        mri._plan.cache_clear()
        spec = _spec(modes=["reference", "fp16", "e4m3"], sizes=[16, 32], blocks=[8, 32], seeds=[0])
        first = run_experiment(spec)
        again = run_experiment(spec)
        mri._plan.cache_clear()
        # per size: the reference, fp16 and e4m3 at B=8 and B=32
        assert len(built) == len(set(built)) == 2 * 4
        assert [r | {"runtime_ms": ""} for r in first] == [r | {"runtime_ms": ""} for r in again]

    def test_scalar_modes_ignore_block_axis(self):
        rows = run_experiment(_spec(modes=["reference", "fp16"], blocks=[2, 8, 32], seeds=[0]))
        assert len(_details(rows)) == 2  # one cell per mode, block column empty
        assert all(r["block"] == "" for r in rows)

    def test_aggregate_row_is_mean(self):
        rows = run_experiment(_spec(seeds=[0, 1, 2]))
        det = _details(rows)
        agg = _aggregates(rows)[0]
        mean = sum(float(r["psnr"]) for r in det) / len(det)
        assert float(agg["psnr"]) == pytest.approx(mean, rel=1e-9)
        assert agg["psnr_std"] != ""

    def test_determinism_modulo_runtime(self):
        spec = _spec(modes=["e4m3", "fp16"], seeds=[0, 1])
        strip = lambda rows: [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows]
        assert strip(run_experiment(spec)) == strip(run_experiment(spec))

    def test_rows_keep_csv_column_order(self):
        # serialized rows (not only the CSV writer) see the dict order
        rows = run_experiment(_spec(modes=["e4m3", "fp16"], seeds=[0]))
        assert all(list(r) == CSV_COLUMNS for r in rows)

    def test_roundtrip_nmse_not_below_forward(self):
        fwd = run_experiment(_spec(sizes=[32], seeds=[0], pipeline="forward"))
        rt = run_experiment(_spec(sizes=[32], seeds=[0], pipeline="roundtrip"))
        assert float(rt[0]["nmse"]) >= float(fwd[0]["nmse"])

    def test_csv_file_output(self, tmp_path):
        out = tmp_path / "r.csv"
        rows = run_experiment(_spec(seeds=[0], out=str(out)))
        with open(out, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert back == rows
        assert list(back[0]) == CSV_COLUMNS


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestMain:
    def test_forward_stdout_csv(self):
        code, out, _ = _run_main(
            ["forward", "--mode", "e4m3", "--size", "16", "--seeds", "2", "--coils", "2"]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3  # 2 detail + 1 aggregate
        assert list(rows[0]) == CSV_COLUMNS

    def test_sweep_row_count(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, _ = _run_main(
            [
                "sweep",
                "--mode",
                "e4m3,e5m2",
                "--size",
                "16,32",
                "--block",
                "8,32",
                "--seeds",
                "2",
                "--coils",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len([r for r in rows if r["seed"] != "mean"]) == 2 * 2 * 2 * 2

    def test_unknown_mode_exits_2_and_lists_names(self):
        code, _, err = _run_main(["forward", "--mode", "e7m0", "--size", "16", "--seeds", "1"])
        assert code == 2
        assert "e4m3" in err and "e5m2" in err

    def test_bad_size_exits_2(self):
        code, _, err = _run_main(["forward", "--mode", "e4m3", "--size", "48", "--seeds", "1"])
        assert code == 2
        assert "power of two" in err

    @pytest.mark.parametrize("block", ["6", "12"])
    def test_non_power_of_two_block_exits_2_naming_the_field(self, block):
        code, _, err = _run_main(["forward", "--block", block, "--size", "64", "--seeds", "1"])
        assert code == 2
        assert "blocks" in err and "power of two" in err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--k-min", "-1100", "--k-max", "-1100"], "k_min"),
            (["--k-max", "1100"], "k_max"),
            (["--tau-min", "inf"], "tau_min"),
            (["--target", "inf"], "target"),
            (["--tail", "nan"], "tail"),
            (["--tail", "-5"], "tail"),
            (["--noise", "inf"], "noise"),
            (["--size", "12x"], "sizes"),
        ],
    )
    def test_bad_value_exits_2_naming_the_field(self, flags, field):
        code, _, err = _run_main(["forward", "--size", "16", "--seeds", "1", *flags])
        assert code == 2
        assert err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize("noise, field", [("1e308", "noise: "), ("1e200", "rss: ")])
    def test_overflowing_noise_exits_2_without_a_warning(self, noise, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = _run_main(["forward", "--size", "16", "--seeds", "1", "--coils", "1", "--noise", noise])
        assert code == 2
        assert err.startswith(f"error: {field}")

    @pytest.mark.parametrize("flags", [["--tail", "1e308"], ["--tail", "1e308", "--noise", "0"]])
    def test_overflowing_phantom_kspace_exits_2_naming_tail(self, flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = _run_main(["forward", "--size", "16", "--seeds", "1", "--coils", "1", *flags])
        assert code == 2
        assert err.startswith("error: tail: ") and err.count("\n") == 1

    def test_large_pixels_score_ssim_one_without_a_warning(self):
        # the reference scored against itself; its SSIM terms overflowed
        # float64 above about 1e77 and used to read -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = _run_main(
                ["forward", "--mode", "reference", "--size", "16", "--seeds", "1", "--coils", "1",
                 "--noise", "1e80"]
            )
        assert code == 0
        assert list(csv.DictReader(io.StringIO(out)))[0]["ssim"] == "1"

    def test_large_pixels_score_finite_nmse_without_a_warning(self):
        # np.sum(r**2) overflowed above about 1e154 and nmse read 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = _run_main(
                ["forward", "--mode", "e4m3", "--size", "16", "--seeds", "1", "--coils", "1",
                 "--noise", "1e153", "--k-min", "-1022"]
            )
        assert code == 0
        row = list(csv.DictReader(io.StringIO(out)))[0]
        assert 0 < float(row["nmse"]) < 1 and math.isfinite(float(row["psnr"]))

    def test_bad_block_list_exits_2_naming_blocks(self):
        code, _, err = _run_main(["sweep", "--block", "8x", "--size", "16", "--seeds", "1"])
        assert code == 2
        assert err.startswith("error: blocks: ")

    @pytest.mark.parametrize(
        "flags, field", [(["--tail", "nan"], "tail"), (["--seed", "-1"], "seed")]
    )
    def test_gen_phantom_bad_value_exits_2_naming_the_field(self, flags, field, tmp_path):
        out = tmp_path / "i.mxcg"
        code, _, err = _run_main(["gen-phantom", "--size", "16", "--out-image", str(out), *flags])
        assert code == 2
        assert err.startswith(f"error: {field}: ")
        assert not out.exists()

    def test_internal_errors_propagate(self, monkeypatch):
        def broken(spec):
            raise ValueError("internal bug")

        monkeypatch.setattr(cli, "run_experiment", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["forward", "--size", "16", "--seeds", "1"])

    def test_gen_phantom_and_input_flow(self, tmp_path):
        ksp = tmp_path / "k.mxcg"
        img = tmp_path / "i.mxcg"
        code, _, _ = _run_main(
            [
                "gen-phantom",
                "--size",
                "16",
                "--coils",
                "2",
                "--seed",
                "0",
                "--out-kspace",
                str(ksp),
                "--out-image",
                str(img),
            ]
        )
        assert code == 0
        code, out, _ = _run_main(
            ["forward", "--mode", "e4m3", "--size", "16", "--input", str(ksp)]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["dataset_id"] == "k"
        # roundtrip needs the image-domain grid; k-space input is rejected
        code, _, err = _run_main(
            ["roundtrip", "--mode", "e4m3", "--size", "16", "--input", str(ksp)]
        )
        assert code == 2 and "image" in err
        code, _, _ = _run_main(
            ["roundtrip", "--mode", "e4m3", "--size", "16", "--input", str(img)]
        )
        assert code == 0

    def test_gen_phantom_requires_output(self):
        code, _, err = _run_main(["gen-phantom", "--size", "16"])
        assert code == 2 and "out" in err

    def test_write_csv_header(self, tmp_path):
        p = tmp_path / "h.csv"
        write_csv([], p)
        assert p.read_text().strip() == ",".join(CSV_COLUMNS)
