"""Run the benchmark over several seeds and summarise each metric.

From the repository root:

    python3 bench/sweep.py --workloads e2e-fail bounds --seeds 1 2 3 4 5 --trace 0

Runs ``bench/run.py`` once per (workload, seed), one process at a time, with
the ``run_seconds`` from BENCHMARK.json, and prints a JSON summary: for every
metric line a run printed, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median.  For end-to-end metrics the
summary also says whether the spread is below a third of the metric's bound.

``--record LABEL`` also stores the summary in trajectory.json under LABEL
(normally the commit measured), one entry per commit, oldest first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
TRAJECTORY = Path(__file__).resolve().parent / "trajectory.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(metric name -> (value, unit) from the metric lines, final JSON result)."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    metrics = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            metrics[name] = (float(value), unit)
    return metrics, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL",
                        help="store the summary in trajectory.json under LABEL")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        per_metric: dict[str, list[float]] = {}
        units, attempted, failed, correct = {}, 0, 0, True
        for seed in args.seeds:
            t0 = time.perf_counter()
            metrics, result = run_once(workload, seed, spec["run_seconds"], args.trace)
            wall = time.perf_counter() - t0
            attempted += result["attempted"]
            failed += result["failed"]
            correct &= result["correct"]
            for name, (value, unit) in metrics.items():
                per_metric.setdefault(name, []).append(value)
                units[name] = unit
            print(workload, seed, f"wall {wall:.1f}s",
                  {k: round(v[0], 4) for k, v in metrics.items()}, file=sys.stderr)
        entry = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}}
        for name, values in per_metric.items():
            s = summarise(values)
            s["unit"] = units[name]
            if name in bounds and s["spread"] is not None:
                s["steady"] = s["spread"] < bounds[name] / 3
            entry["metrics"][name] = s
        summary[workload] = entry
    run = {"seeds": args.seeds, "run_seconds": spec["run_seconds"],
           "machine": f"{platform.machine()}, {os.cpu_count()} cores", "workloads": summary}
    print(json.dumps(run, indent=1))
    if args.record:
        record(args.record, f"trace{args.trace}", run)
    return 0


def record(label: str, key: str, run: dict) -> None:
    entries = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    entry = next((e for e in entries if e["label"] == label), None)
    if entry is None:
        entry = {"label": label}
        entries.append(entry)
    entry[key] = run
    TRAJECTORY.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
