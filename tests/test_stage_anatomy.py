"""Smoke test of scripts/stage_anatomy.py, the per-stage timing tool."""

import importlib.util
from pathlib import Path

import pytest

from mxfft import ModeSpec, fftcore, make_plan

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "stage_anatomy.py"
_spec = importlib.util.spec_from_file_location("stage_anatomy", _PATH)
stage_anatomy = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_anatomy)


def test_stage_times_gives_one_timed_row_per_stage():
    rows = stage_anatomy.stage_times(16, "e4m3", 8, "forward", 2, 0)
    plan = make_plan(16, ModeSpec.from_name("e4m3", 8))
    assert [shape for shape, _, _, _ in rows] == list(plan.shapes)
    assert tuple(e for _, e, _, _ in rows) == plan.exact
    assert True in plan.exact and False in plan.exact  # both kinds of stage are read
    for _, _, mul, addsub in rows:  # the multiply and the add/sub, each timed every round
        for times in (mul, addsub):
            assert len(times) == 2 and all(t > 0 for t in times)


@pytest.mark.parametrize("mode", ["reference", "fp16", "e4m3"])
def test_stage_times_runs_the_driver_add_sub_in_every_mode(monkeypatch, mode):
    # the tool times the stage driver's own add/sub, the reference mode's too
    calls, butterfly = [], fftcore._butterfly
    monkeypatch.setattr(fftcore, "_butterfly", lambda u, v, t: calls.append(u.dtype) or butterfly(u, v, t))
    rows = stage_anatomy.stage_times(16, mode, 8, "inverse", 2, 0)
    plan = make_plan(16, ModeSpec.from_name(mode, 8))
    assert len(rows) == plan.stages and calls == [plan.dtype] * 3 * plan.stages  # a warm-up and 2 rounds


def test_main_reports_the_add_sub_beside_the_multiply(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["stage_anatomy.py", "--n", "16", "--block", "8", "--repeats", "4"])
    stage_anatomy.main()
    lines = capsys.readouterr().out.splitlines()
    assert "add/sub" in lines[1] and "both" in lines[1]
    assert len(lines) == 2 + make_plan(16, ModeSpec.from_name("e4m3", 8)).stages + 1
    mul, addsub, both = (float(f) for f in lines[-1].split()[1:])  # the sums
    assert both == pytest.approx(mul + addsub, abs=0.2)
