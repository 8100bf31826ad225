"""Fast self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Runs every workload in ``workloads.py`` (also those BENCHMARK.json does not
gate) for a few operations with tracing off and on, and checks that each run
is correct, prints exactly the metrics BENCHMARK.json names
with their units, and that the traced output digest equals the untraced one.
Then checks that the benchmark fails without printing a result in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys

from collect import BENCHMARK, HERE, RUN_TIMEOUT_S, run_once

SECONDS = 2
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(workload: str, trace: int) -> tuple:
    r = run_once(workload, seed=1, seconds=SECONDS, trace=trace)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in r["metrics"].items()}
    errors = []
    if set(r) - {"detail", "wall_s"} != RESULT_KEYS:
        errors.append(f"result keys {sorted(r)}")
    if not (r["correct"] and r["failed"] == 0 and r["attempted"] >= 1):
        errors.append(f"correct={r['correct']} failed={r['failed']} failures={r['detail']['failures']}")
    if got != want:
        errors.append(f"metrics/units differ: missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}, "
                      f"units {[(k, got[k], want[k]) for k in set(got) & set(want) if got[k] != want[k]]}")
    errors += [f"{k} = {v['value']!r}" for k, v in r["metrics"].items()
               if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    return errors, r["detail"]["digest"]


def check_bare_directory() -> list:
    """The benchmark must fail, printing no result, where the package is absent."""
    bare = HERE / ".selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / HERE.name).mkdir(parents=True)
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / HERE.name)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", BENCHMARK["workloads"][0]["name"],
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS

    errors = []
    for name in WORKLOADS:
        digests = {}
        for trace in (0, 1):
            errs, digests[trace] = check_run(name, trace)
            errors += [f"{name} trace={trace}: {e}" for e in errs]
        if digests[0] != digests[1]:
            errors.append(f"{name}: traced digest differs from untraced")
        print(f"{name}: checked", flush=True)
    errors += check_bare_directory()
    for e in errors:
        print("FAIL", e)
    print("selftest passed" if not errors else f"selftest: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
