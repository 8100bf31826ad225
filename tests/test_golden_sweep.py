"""The sweep CSV against committed golden files, byte for byte apart from runtime_ms.

The golden files cover every mode x blocks 2/8/32 x N 32/64 x seeds 0-2
with 4-coil default phantoms, one file per pipeline.  A change that moves an
output on purpose regenerates them and lists every changed cell:

    PYTHONPATH=src python tests/test_golden_sweep.py
"""

from pathlib import Path

import pytest

from mxfft.cli import MODE_NAMES, ExperimentSpec, run_experiment, write_csv

DATA = Path(__file__).parent / "data"


def _golden_csv(pipeline, path):
    spec = ExperimentSpec(
        modes=list(MODE_NAMES), sizes=[32, 64], blocks=[2, 8, 32], seeds=[0, 1, 2], pipeline=pipeline
    )
    rows = run_experiment(spec)
    for row in rows:
        row["runtime_ms"] = ""
    write_csv(rows, path)


@pytest.mark.parametrize("pipeline", ["forward", "roundtrip"])
def test_sweep_matches_golden_csv(pipeline, tmp_path):
    out = tmp_path / "sweep.csv"
    _golden_csv(pipeline, out)
    assert out.read_bytes() == (DATA / f"golden_sweep_{pipeline}.csv").read_bytes()


if __name__ == "__main__":
    for name in ("forward", "roundtrip"):
        _golden_csv(name, DATA / f"golden_sweep_{name}.csv")
