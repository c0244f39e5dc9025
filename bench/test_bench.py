"""Self-tests for the benchmark: the shortest run of every workload, traced
and untraced.  A run always makes one whole pass over its pool, so each
workload takes a pass (about 20 s untraced, 40 s traced) and the module a few
minutes.  Run from the repository root with

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run as bench_run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# metric lines printed besides the JSON result's end-to-end metrics
PRINTED = {"trial_wall_s": "s", "calib_s": "s", "failed_share": "ratio"}
RECON_PRINTED = {"edit_distance_norm": "ratio", "hyp_len_excess": "ratio", "capped_share": "ratio"}


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[list[str], dict | None, int]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return lines, result, proc.returncode


# each (workload, seed, trace) run is shared by the tests that read it
run_cached = functools.cache(run)


def metric_lines(lines: list[str]) -> dict[str, str]:
    """name -> unit for every ``metric`` line."""
    return {p[1]: p[3] for p in (line.split() for line in lines) if p[0] == "metric"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke(workload):
    lines, result, code = run_cached(workload, 1, 0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == bench_run.WORKLOADS[workload].pool  # one whole pass
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = metric_lines(lines)
    assert printed.items() >= expected.items() | PRINTED.items()
    if workload != "bounds":
        assert printed.items() >= RECON_PRINTED.items()
        assert ("recon_s" in printed) == (workload != "e2e-fallback")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload):
    lines, result, code = run_cached(workload, 1, 1)
    assert code == 0
    # correct also covers the traced-vs-untraced output comparison
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert not any(line.startswith("absent ") for line in lines)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    config = bench_run.WORKLOADS[workload]
    if workload == "bounds":
        assert values["lower_bound.mc_atomic_failure_prob.samples"] > 0
        assert values["align.calls"] == 0
    else:
        # per draw of the pool: M traces of every instance
        assert values["channel.transmit.calls"] == config.pool * config.m
        assert values["strings.edit_distance_bounded.calls"] == 2
    if workload in ("e2e-fail", "e2e-working"):
        assert values["align.calls"] == values["reconstruct.segments"] > 0
        assert values["bma.bma_run.calls"] == values["reconstruct.segments"]


def test_same_seed_same_outputs_and_second_seed_runs():
    first, _, _ = run_cached("e2e-working", 1, 0)
    again, _, _ = run("e2e-working", 1, 0)
    other, result, code = run("e2e-working", 2, 0)

    def digest0(lines):
        return [line.split()[-1] for line in lines if line.startswith("trials ")]

    assert digest0(first) == digest0(again) != ["none"]
    assert digest0(other) != digest0(first)
    assert code == 0 and result["correct"]


def test_fails_without_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    lines, result, code = run("e2e-fail", 1, 0, cwd=tmp_path)
    assert code != 0 and result is None


def test_missing_layer_is_reported_absent():
    sys.path.insert(0, str(ROOT / "src"))
    import spans

    layers = spans.LAYERS + (spans.Layer("strings", "no_such_function"),
                             spans.Layer("no_such_module", "f"))
    tracer = spans.Tracer(layers=layers)
    assert tracer.absent == ["strings.no_such_function", "no_such_module.f"]
    strings = __import__("tracerecon.strings", fromlist=["x"])
    with tracer.trial("trial:0"):
        strings.edit_distance_bounded(strings.BitString("0110"), strings.BitString("010"), 4)
    totals = tracer.layer_totals("trial:")
    assert totals["strings.edit_distance_bounded"]["calls"] == 1
    assert strings.edit_distance_bounded.__module__ == "tracerecon.strings"
    assert not hasattr(strings.edit_distance_bounded, "__wrapped__")
