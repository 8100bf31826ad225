"""Smoke test of scripts/stage_anatomy.py, the per-stage timing tool."""

import importlib.util
from pathlib import Path

from mxfft import ModeSpec, make_plan

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "stage_anatomy.py"
_spec = importlib.util.spec_from_file_location("stage_anatomy", _PATH)
stage_anatomy = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stage_anatomy)


def test_stage_times_gives_one_timed_row_per_stage():
    rows = stage_anatomy.stage_times(16, "e4m3", 8, "forward", 2, 0)
    plan = make_plan(16, ModeSpec.from_name("e4m3", 8))
    assert [shape for shape, _, _ in rows] == list(plan.shapes)
    exact = [m.keywords.get("exact", False) for m in plan.multiplies[0]]
    assert [e for _, e, _ in rows] == exact
    assert True in exact and False in exact  # both kinds of stage are read
    for _, _, times in rows:
        assert len(times) == 2 and all(t > 0 for t in times)
