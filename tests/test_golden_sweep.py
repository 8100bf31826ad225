"""The sweep CSV against committed golden files, byte for byte apart from runtime_ms.

The golden files cover every mode x blocks 2/8/32 x N 32/64 x seeds 0-2
with 4-coil default phantoms, one file per pipeline.  The `_128` pair adds
N=128 with seed 0: there fft_2d splits the 4-coil stack into two chunks of 2
coils (see fftcore.COIL_CHUNK_ELEMS), where N 32/64 fit in one.  A change
that moves an output on purpose regenerates them and lists every changed cell:

    PYTHONPATH=src python tests/test_golden_sweep.py
"""

from pathlib import Path

import pytest

from mxfft.cli import MODE_NAMES, ExperimentSpec, run_experiment, write_csv

DATA = Path(__file__).parent / "data"

# golden file suffix -> (sizes, seeds)
GRIDS = {"": ([32, 64], [0, 1, 2]), "_128": ([128], [0])}


def _golden_csv(pipeline, suffix, path):
    sizes, seeds = GRIDS[suffix]
    spec = ExperimentSpec(
        modes=list(MODE_NAMES), sizes=sizes, blocks=[2, 8, 32], seeds=seeds, pipeline=pipeline
    )
    rows = run_experiment(spec)
    for row in rows:
        row["runtime_ms"] = ""
    write_csv(rows, path)


def _check(pipeline, suffix, tmp_path):
    out = tmp_path / "sweep.csv"
    _golden_csv(pipeline, suffix, out)
    assert out.read_bytes() == (DATA / f"golden_sweep_{pipeline}{suffix}.csv").read_bytes()


@pytest.mark.parametrize("pipeline", ["forward", "roundtrip"])
def test_sweep_matches_golden_csv(pipeline, tmp_path):
    _check(pipeline, "", tmp_path)


@pytest.mark.parametrize("pipeline", ["forward", "roundtrip"])
def test_two_chunk_sweep_matches_golden_csv(pipeline, tmp_path):
    _check(pipeline, "_128", tmp_path)


if __name__ == "__main__":
    for name in ("forward", "roundtrip"):
        for suffix in GRIDS:
            _golden_csv(name, suffix, DATA / f"golden_sweep_{name}{suffix}.csv")
