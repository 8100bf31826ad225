"""Smoke test of scripts/reproduce_trends.py, the trend-study driver."""

import csv
import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_trends.py"
_spec = importlib.util.spec_from_file_location("reproduce_trends", _PATH)
reproduce_trends = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reproduce_trends)


def test_study_writes_one_mean_row_per_mode(tmp_path, capsys):
    reproduce_trends.study(
        "s", tmp_path, 1, modes=["fp16", "e4m3"], sizes=[16], blocks=[32], pipeline="forward", coils=1
    )
    with open(tmp_path / "s.csv", newline="") as fh:
        means = [r for r in csv.DictReader(fh) if r["seed"] == "mean"]
    assert sorted(r["mode"] for r in means) == ["e4m3", "fp16"]
    assert all(math.isfinite(float(r["psnr"])) for r in means)
    assert "== s ->" in capsys.readouterr().out
