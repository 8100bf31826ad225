"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 0-9 --seconds 40 --trace 0 1 \
        --out perfbench/baseline.json

Runs ``run.py`` once per (workload, trace, seed), one process at a time,
and reports per metric the median, the quartiles and the spread (quartile
distance over median).  It also checks that every run was correct and that a
traced run's output digest equals the untraced run's for the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; returns its result line plus its detail line."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    result["wall_s"] = time.perf_counter() - t0
    return result


def summarise(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="*", default=[w["name"] for w in BENCHMARK["workloads"]])
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    p.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    p.add_argument("--trace", type=int, nargs="*", default=[0], choices=(0, 1))
    p.add_argument("--out", default=None, help="write the summary as JSON here")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

    summary = {"seconds": args.seconds, "workloads": {}}
    ok = True
    for wl in args.workload:
        entry = summary["workloads"][wl] = {}
        for trace in args.trace:
            runs = []
            for seed in parse_seeds(args.seeds):
                r = run_once(wl, seed, args.seconds, trace)
                runs.append(r)
                d = r["detail"]
                print(f"{wl} trace={trace} seed={seed} correct={r['correct']} attempted={r['attempted']} "
                      f"failed={r['failed']} ops={d['timed_ops']} wall={r['wall_s']:.1f}s", flush=True)
                summary.setdefault("machine", {k: v for k, v in d["machine"].items() if k != "seed"})
                ok &= r["correct"] and r["failed"] == 0
            entry[f"trace{trace}"] = {
                "input": runs[0]["detail"]["input"],
                "digests": {str(r["detail"]["machine"]["seed"]): r["detail"]["digest"] for r in runs},
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "min_ops_beyond_p90": min(r["detail"]["ops_beyond_p90"] for r in runs),
                "max_wall_s": max(r["wall_s"] for r in runs),
                "metrics": {
                    name: dict(unit=m["unit"], **summarise([r["metrics"][name]["value"] for r in runs]))
                    for name, m in runs[0]["metrics"].items()
                },
            }
            for name, s in entry[f"trace{trace}"]["metrics"].items():
                flag = ""
                if name in bounds and s["spread"] is not None and name != "setup_s":
                    flag = "  OK" if s["spread"] < bounds[name] / 3 else "  WIDE (bound %.3f)" % bounds[name]
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {name:40s} median {s['median']:14.5f} {s['unit']:15s} spread {spread}{flag}")
        if "trace0" in entry and "trace1" in entry and entry["trace0"]["digests"] != entry["trace1"]["digests"]:
            print(f"{wl}: traced digests differ from untraced ones", flush=True)
            ok = False
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print("all runs correct" if ok else "SOME RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
