"""Benchmark for tracerecon: trace reconstruction and the lower-bound machinery.

Run from the repository root:

    python3 bench/run.py --workload e2e-fail --seed 1 --seconds 25 --trace 0

The library is imported from this checkout's ``src/``.  All inputs come from
``--seed``: set-up draws a pool of instances, then the run makes whole passes
over the pool, one trial per instance, for as long as another pass fits in
``--seconds`` (at least one pass).  So every run measures every instance of its
pool, and equally often, however fast the code or the machine is.  A trial is
one reconstruct-and-score cell, as in the harness's ``reconstruct_e2e`` kind,
or one pass over the bounds table.  Every trial checks its outputs.

``--trace 0`` reports the end-to-end metrics, timed with nothing wrapped;
trial times are rescaled to the machine's reference speed (see calib.py).
``--trace 1`` runs each instance untraced and then traced (see spans.py),
checks that both give the same outputs, and reports the per-layer metrics.
Human-readable ``metric <name> <value> <unit>`` lines come first; the last
line of standard output is the JSON result.  See README.md for why each
workload exists and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7  # set-ups per untraced run; setup_s is their median
TAU, GAMMA = 8.0, 0.01  # desk-mode constants for every reconstruction workload
# End-to-end metrics in the JSON result: those that every workload has and
# that are never 0.  recon_s, the quality metrics and failed_share print as
# metric lines only (see README.md).
END_TO_END = ("setup_s", "trial_s", "peak_rss_mb")


def import_library() -> dict:
    """The library modules, imported from this checkout and nowhere else."""
    if not (SRC / "tracerecon" / "__init__.py").is_file():
        sys.exit(f"bench: no tracerecon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    lib = {name: importlib.import_module(f"tracerecon.{name}")
           for name in ("rng", "strings", "channel", "reconstruct", "lower_bound")}
    origin = Path(lib["rng"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"bench: tracerecon was imported from {origin}, not from {SRC}")
    return lib


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class TrialOut:
    trial_s: float
    recon_s: float | None
    quality: dict  # deterministic per instance
    digest: str


# --- reconstruction workloads -------------------------------------------


@dataclass(frozen=True)
class Recon:
    n: int
    delta: float
    m: int
    k_const: float
    action: str  # the regime action reconstruct_with_fallback must take
    pool: int
    wl_index: int

    def make_inputs(self, lib: dict, seed: int) -> list:
        pool = []
        for i in range(self.pool):
            rng = lib["rng"].stream(seed, self.wl_index, i)
            x = lib["strings"].random_bits(self.n, rng)
            traces = [lib["channel"].transmit(x, self.delta, rng).trace for _ in range(self.m)]
            pool.append((x, traces))
        return pool

    def trial(self, lib: dict, inst, seed: int) -> TrialOut:
        x, traces = inst
        n, delta = self.n, self.delta
        recon, strings = lib["reconstruct"], lib["strings"]
        t0 = time.perf_counter()
        result = recon.reconstruct_with_fallback(
            n, delta, traces, k_const=self.k_const, tau=TAU, gamma=GAMMA, mode="desk")
        t1 = time.perf_counter()
        cap = max(64, math.ceil(2 * delta * n))
        hyp = result.hypothesis
        d = strings.edit_distance_bounded(x, hyp, cap)
        d_base = strings.edit_distance_bounded(x, traces[0], cap)
        t2 = time.perf_counter()

        check(result.regime_action == self.action,
              f"regime action {result.regime_action}, expected {self.action}")
        # a trace is a subsequence of its source, so the distance is the deletion count
        check(d_base == n - len(traces[0]), f"d(x, trace0) = {d_base} != {n - len(traces[0])}")
        if d is not None:
            check(d >= abs(len(hyp) - n), "distance below the length difference")
            check((d - n - len(hyp)) % 2 == 0, "distance parity differs from n + |hyp|")
        if result.regime_action == "output_single_trace":
            check(hyp == traces[0], "output_single_trace did not return traces[0]")
        quality = {
            "edit_distance_norm": (cap if d is None else d) / n,
            "hyp_len_excess": abs(len(hyp) / n - 1.0),
            "capped_share": float(d is None),
        }
        digest = hashlib.sha256(hyp.tobytes()).hexdigest()
        recon_s = t1 - t0 if self.action != "output_single_trace" else None
        return TrialOut(t2 - t0, recon_s, quality, digest)


# --- bounds workload ------------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    grid: tuple  # (M, delta) cells for exact + Monte Carlo atomic failure
    mc_samples: int
    prlp: tuple  # (M, delta, B, trials) for mc_prlp_exact_match
    aprlp: tuple  # (M, delta, B) for sample_prlp / decode / simulate_aprlp
    pool: int
    wl_index: int

    def make_inputs(self, lib: dict, seed: int) -> list:
        m, delta, b_len = self.aprlp
        pool = []
        for i in range(self.pool):
            rng = lib["rng"].stream(seed, self.wl_index, i)
            z = lib["strings"].random_bits(b_len, rng)
            pool.append((i, lib["lower_bound"].sample_prlp(z, m, delta, rng)))
        return pool

    def trial(self, lib: dict, inst, seed: int) -> TrialOut:
        i, samples = inst
        lb = lib["lower_bound"]
        # fresh generators per trial, so a repeated instance repeats its draws
        rngs = [lib["rng"].stream(seed, self.wl_index, i, j) for j in range(len(self.grid) + 2)]
        cells = []  # (M, delta, exact failure, Monte Carlo estimate)
        t0 = time.perf_counter()
        for j, (m, delta) in enumerate(self.grid):
            p = lb.exact_atomic_failure_prob(m, delta)
            p_hat, _ = lb.mc_atomic_failure_prob(m, delta, self.mc_samples, rngs[j])
            cells.append((m, delta, p, p_hat))
        pm, pdelta, b_len, prlp_trials = self.prlp
        rate = lb.mc_prlp_exact_match(pm, pdelta, b_len, prlp_trials, rngs[-2])
        am, adelta, ab = self.aprlp
        z_bayes = lb.decode_prlp_bayes(samples, am, adelta)
        z_hat = lb.simulate_aprlp(samples, lambda traces: traces[0], adelta, ab, rngs[-1])
        t1 = time.perf_counter()

        n_mc = 2 * (self.mc_samples // 2)
        for m, delta, p, p_hat in cells:
            check(abs(p_hat - p) <= 5 * math.sqrt(p * (1 - p) / n_mc),
                  f"MC failure {p_hat} more than 5 SE from exact {p} at M={m} delta={delta}")
        p_prlp = next(p for m, delta, p, _ in cells if (m, delta) == (pm, pdelta))
        ceiling = (1.0 - p_prlp) ** b_len
        check(abs(rate - ceiling) <= 5 * math.sqrt(ceiling * (1 - ceiling) / prlp_trials),
              f"PRLP exact-match rate {rate} more than 5 SE from (1-p)^B = {ceiling}")
        check(len(z_bayes) == ab, "decode_prlp_bayes did not return B bits")
        check(len(z_hat) <= ab, f"simulate_aprlp returned {len(z_hat)} > B bits")
        outputs = [cells, rate, str(z_bayes), str(z_hat)]
        digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
        return TrialOut(t1 - t0, None, {}, digest)


BOUNDS_GRID = tuple((m, d) for m in (1, 2, 3, 4) for d in (0.1, 0.25, 0.5))

# Sizes are scaled down from the ROADMAP's n = 2^17..2^18 so that a trial takes
# about a second; README.md gives the reasons and the regime each configuration
# keeps.  Each pool is sized so that one pass over it takes about 16 s on the
# reference machine (see calib.py) and so fits in a 25 s run on a slower one.
WORKLOADS = {
    "e2e-fail": Recon(2**13, 0.01, 25, 2.0, "run_full", pool=24, wl_index=0),
    "e2e-working": Recon(10240, 1e-3, 25, 5.0, "run_full", pool=9, wl_index=1),
    "e2e-fallback": Recon(2**14, 4e-4, 25, 4.0, "output_single_trace", pool=30, wl_index=2),
    "bounds": Bounds(BOUNDS_GRID, 100_000, (4, 0.1, 64, 4_000), (4, 0.1, 4),
                     pool=36, wl_index=3),
}

# (name, unit) of every per-layer metric the traced run reports
LAYER_METRICS = [
    ("channel.transmit.calls", "count"),
    ("channel.transmit.busy_s", "s"),
    ("reconstruct.segments", "count"),
    ("reconstruct.self_s", "s"),
    ("align.calls", "count"),
    ("align.busy_s", "s"),
    ("align.self_s", "s"),
    ("align.fail_share", "ratio"),
    ("strings.find_closest_subword.calls", "count"),
    ("strings.find_closest_subword.busy_s", "s"),
    ("strings.find_closest_subword.miss_share", "ratio"),
    ("strings.find_common_word.calls", "count"),
    ("strings.find_common_word.busy_s", "s"),
    ("strings.find_common_word.miss_share", "ratio"),
    ("bma.bma_run.calls", "count"),
    ("bma.bma_run.busy_s", "s"),
    ("bma.bma_run.rounds", "count"),
    ("bma.bma_run.empty_share", "ratio"),
    ("strings.edit_distance_bounded.calls", "count"),
    ("strings.edit_distance_bounded.busy_s", "s"),
    ("strings.edit_distance_bounded.capped_share", "ratio"),
    ("lower_bound.exact_atomic_failure_prob.busy_s", "s"),
    ("lower_bound.mc_atomic_failure_prob.busy_s", "s"),
    ("lower_bound.mc_atomic_failure_prob.samples", "count"),
    ("lower_bound.mc_prlp_exact_match.busy_s", "s"),
    ("lower_bound.simulate_aprlp.busy_s", "s"),
    ("lower_bound.compose_traces.busy_s", "s"),
    ("lower_bound.find_pattern_occurrences.busy_s", "s"),
    ("trace.overhead", "ratio"),
]

# share metrics: outcome counter divided by calls
SHARES = {"fail_share": "fail", "miss_share": "miss", "empty_share": "empty",
          "capped_share": "capped"}


def layer_metrics(tracer, trials: int) -> dict:
    """name -> (value, unit) per traced trial, except channel.transmit, which
    is per draw of the input pool (the traced run draws it once).  A share is 0
    when its layer made no calls; an absent layer's metrics are left out."""
    phases = {"trial": (tracer.layer_totals("trial:"), trials),
              "setup": (tracer.layer_totals("setup:"), 1)}
    out = {}
    for name, unit in LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        if layer == "trace" or layer in tracer.absent:
            continue
        totals, per = phases["setup" if layer == "channel.transmit" else "trial"]
        t = totals.get(layer, {})
        if stat in SHARES:
            value = t.get(SHARES[stat], 0) / t["calls"] if t.get("calls") else 0.0
        else:
            value = t.get(stat, 0) / per
        out[name] = (value, unit)
    return out


def run_trial(workload, lib, inst, seed, failures: list) -> TrialOut | None:
    try:
        return workload.trial(lib, inst, seed)
    except Exception:  # a failed trial is counted, and the run goes on
        failures.append(traceback.format_exc())
        traceback.print_exc(file=sys.stderr)
        return None


def run_passes(pool: list, seconds: float, instance_trial) -> list[list]:
    """Whole passes over the pool while another pass fits in ``seconds``, at
    least one; ``instance_trial(pass_index, instance_index, instance)`` runs
    one trial.  Returns each pass's trial results in pool order."""
    start = time.perf_counter()
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append([instance_trial(len(passes), i, inst) for i, inst in enumerate(pool)])
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return passes


def setup(workload, lib, seed) -> tuple[list, float]:
    """One set-up: import the library in a fresh interpreter, then draw the
    input pool.  Returns the pool and the seconds both took."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import tracerecon; print(time.perf_counter() - t)")
    import_s = float(subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                                    text=True, check=True, timeout=60).stdout)
    t0 = time.perf_counter()
    pool = workload.make_inputs(lib, seed)
    return pool, import_s + time.perf_counter() - t0


def quality_means(first_pass: list[TrialOut | None]) -> dict:
    """Quality averaged over the pool's instances (those that did not fail)."""
    seen = [out.quality for out in first_pass if out is not None]
    keys = seen[0].keys() if seen else ()
    return {k: statistics.fmean(q[k] for q in seen) for k in keys}


def emit(name: str, value: float, unit: str) -> None:
    print(f"metric {name} {value!r} {unit}")


def run_untraced(workload, lib, seed, seconds) -> dict:
    calib = importlib.import_module("calib")
    kernel = calib.Kernel()
    pool, first_setup_s = setup(workload, lib, seed)
    setup_s = [first_setup_s]
    # The other set-ups are spread over the first pass, so that their median
    # samples the machine's speed over the run and not only at its start.
    setup_after = {len(pool) * j // SETUP_REPEATS for j in range(1, SETUP_REPEATS)}
    failures: list[str] = []
    kernel_s = []

    def instance_trial(pass_index, index, inst):
        out = run_trial(workload, lib, inst, seed, failures)
        # about 5% of the run goes to the kernel, at least one pass per trial
        reps = max(1, round(0.05 * out.trial_s / calib.REFERENCE_S)) if out else 1
        kernel_s.extend(kernel.seconds() for _ in range(reps))
        if pass_index == 0 and index in setup_after:
            setup_s.append(setup(workload, lib, seed)[1])
        return out

    passes = run_passes(pool, seconds, instance_trial)
    outs = [out for one_pass in passes for out in one_pass if out is not None]
    attempted = len(passes) * len(pool)
    # trial timings at the machine's reference speed; see calib.py
    scale = calib.REFERENCE_S / statistics.median(kernel_s)
    metrics = {"setup_s": (statistics.median(setup_s), "s"),
               "calib_s": (statistics.median(kernel_s), "s")}
    if outs:
        trial_wall = statistics.median(o.trial_s for o in outs)
        metrics["trial_s"] = (trial_wall * scale, "s")
        metrics["trial_wall_s"] = (trial_wall, "s")
        recon = [o.recon_s for o in outs if o.recon_s is not None]
        if recon:
            metrics["recon_s"] = (statistics.median(recon) * scale, "s")
        for k, v in quality_means(passes[0]).items():
            metrics[k] = (v, "ratio")
    metrics["failed_share"] = (len(failures) / attempted, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    first = passes[0][0].digest if passes[0][0] is not None else "none"
    print(f"trials {attempted} passes {len(passes)} instances {len(pool)} digest0 {first}")
    for name, (value, unit) in metrics.items():
        emit(name, value, unit)
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics}


def run_traced(workload, lib, seed, seconds, workload_name) -> dict:
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    with tracer.trial("setup:0"):
        pool = workload.make_inputs(lib, seed)
    failures: list[str] = []
    plain, traced = [], []

    def instance_trial(pass_index, index, inst):
        a = run_trial(workload, lib, inst, seed, failures)
        with tracer.trial(f"trial:{pass_index}:{index}"):
            b = run_trial(workload, lib, inst, seed, failures)
        if a is not None and b is not None:
            plain.append(a.trial_s)
            traced.append(b.trial_s)
            if (a.quality, a.digest) != (b.quality, b.digest):
                failures.append(f"instance {index}: traced output differs from untraced")
                print(failures[-1], file=sys.stderr)

    trials = len(run_passes(pool, seconds, instance_trial)) * len(pool)
    for name in tracer.absent:
        print(f"absent {name}")
    metrics = layer_metrics(tracer, trials)
    if traced:
        metrics["trace.overhead"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    for name, (value, unit) in metrics.items():
        emit(name, value, unit)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload_name}-{seed}.jsonl")
    return {"attempted": 2 * trials, "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    lib = import_library()
    workload = WORKLOADS[args.workload]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        res = run_traced(workload, lib, args.seed, args.seconds, args.workload)
    else:
        res = run_untraced(workload, lib, args.seed, args.seconds)
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()
                    if args.trace or name in END_TO_END},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
