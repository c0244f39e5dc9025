"""Seeded experiment runner.

A config names an experiment kind, a grid of parameter points, and a trial
count; the runner executes every (point, trial) cell on its own random
stream keyed by (master seed, grid index, trial index), so reports are
reproducible bit for bit regardless of worker count or scheduling.  Trial
failures become error-tagged rows instead of aborting the sweep.

FIELDS declares every grid-point field once: its type, or its choices, and
its range.  Each kind declares the fields it reads, required or with a
default (the constants k_const, tau and gamma only where a kind passes them
on); validation rejects any other field, fills defaults and checks every
value against FIELDS before anything runs.

Reports: CSV with one row per metric (columns kind, the kind's fields, seed,
trial, metric, value), or JSONL with one trial per line.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .align import align
from .bma import bma_run
from .channel import consensus_check, source_of, transmit
from .deserts import contains_long_desert
from .lower_bound import (
    EXACT_MAX_M,
    EmbeddingSpec,
    exact_atomic_failure_prob,
    mc_atomic_failure_prob,
    mc_prlp_exact_match,
    sample_prlp,
    simulate_aprlp,
)
from .params import DESK_DEFAULTS, derive_params
from .reconstruct import reconstruct_with_fallback
from .rng import stream
from .strings import BitString, edit_distance, random_bits

__all__ = [
    "ExperimentConfig",
    "TrialResult",
    "run_experiment",
    "emit_report",
    "KINDS",
    "FIELDS",
]

# every grid-point field a kind may read: its type (or its choices) and the
# range its values must lie in; the CLI builds its point flags from this too
FIELDS = {
    "n": (int, ">= 1"),
    "delta": (float, "in [0, 1]"),
    "m_traces": (int, ">= 1"),
    "b_len": (int, ">= 1"),
    "mc_samples": (int, ">= 1"),
    "k_const": (float, "> 0 and finite"),
    "tau": (float, "> 0 and finite"),
    "gamma": (float, "> 0 and finite"),
    "reconstructor": (("first_trace", "full"), None),
}

_IN_RANGE = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
    "> 0 and finite": lambda v: 0 < v < math.inf,
}

_REGIME_CODES = {"run_full": 0, "output_single_trace": 1, "reduce_M": 2}

# bma_bench draws words free of a (L, G) desert: no stretch of L bits with a
# period of at most G, the setting of criterion 08
_BMA_DESERT = (40, 20)


@dataclass(frozen=True)
class TrialResult:
    kind: str
    point: dict
    seed: int
    trial: int
    metrics: dict
    error: str | None = None


@dataclass
class ExperimentConfig:
    kind: str
    grid: list[dict]
    trials: int = 1
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    workers: int = 1

    @classmethod
    def from_json(cls, payload: str) -> "ExperimentConfig":
        obj = json.loads(payload)
        if not isinstance(obj, dict):
            raise ValueError("a config must be a JSON object")
        extra = set(obj) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        grid = obj.get("grid")
        if not (isinstance(grid, list) and all(isinstance(point, dict) for point in grid)):
            raise ValueError("grid must be a list of objects")
        return cls(**obj)

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; have {sorted(KINDS)}")
        for name, rule in (("trials", ">= 1"), ("seed", ">= 0"), ("workers", ">= 1")):
            _check_value(name, getattr(self, name), int, rule)
        if self.format not in ("csv", "jsonl"):
            raise ValueError("format must be csv or jsonl")
        if not (self.out is None or isinstance(self.out, str)):
            raise ValueError(f"out must be a path, not {self.out!r}")
        if not self.grid:
            raise ValueError("grid must contain at least one point")
        kind = KINDS[self.kind]
        for point in self.grid:
            unread = sorted(set(point) - set(kind.fields))
            if unread:
                raise ValueError(f"{self.kind} reads no grid field {unread}; it reads {list(kind.fields)}")
            missing = [name for name in kind.required if name not in point]
            if missing:
                raise ValueError(f"grid point missing {missing}: {point}")
            for name, value in kind.defaults.items():
                point.setdefault(name, value)
            for name in kind.fields:
                _check_value(name, point[name], *FIELDS[name])
            kind.check(point)


def _check_value(name: str, value, spec, rule) -> None:
    # an int is a float here, as in derive_params; a bool is neither
    if isinstance(spec, tuple):
        if value not in spec:
            raise ValueError(f"{name} must be one of {list(spec)}, not {value!r}")
    elif isinstance(value, bool) or not isinstance(value, (int, float) if spec is float else int):
        raise ValueError(f"{name} must be {'an int' if spec is int else 'a number'}, not {value!r}")
    elif not _IN_RANGE[rule](value):
        raise ValueError(f"{name} must be {rule}, not {value!r}")


# --- kind runners -------------------------------------------------------
# Each runner gets (point, rng) and returns a metrics dict; values
# must be plain floats.  Key order is fixed per kind so reports are stable.


def _run_channel_stats(point: dict, rng: np.random.Generator) -> dict:
    x = random_bits(point["n"], rng)
    rec = transmit(x, point["delta"], rng)
    roundtrip = np.array_equal(x.array[rec.source_map - 1], rec.trace.array)
    return {
        "trace_len": float(len(rec.trace)),
        "deleted_count": float(rec.source_len - len(rec.trace)),
        "roundtrip_ok": float(roundtrip),
    }


def _run_bma_bench(point: dict, rng: np.random.Generator) -> dict:
    r_rounds = point["n"]
    m_count = point["m_traces"]
    resamples = 0
    while True:
        word = random_bits(r_rounds, rng)
        if not contains_long_desert(word, *_BMA_DESERT):
            break
        resamples += 1
        if resamples > 1000:
            raise RuntimeError("could not draw a desert-free word")
    traces = [transmit(word, point["delta"], rng).trace for _ in range(m_count)]
    out, _, diags = bma_run(traces, [1] * m_count, r_rounds)
    return {
        "bma_success": float(out == word),
        "margin_min": float(min(diags.margins)),
        "resamples": float(resamples),
    }


def _check_bma_bench(point: dict) -> None:
    if point["n"] < _BMA_DESERT[0]:
        raise ValueError(f"n shorter than the desert window in {point}")
    if point["delta"] >= 1.0:
        raise ValueError(f"bad bma point {point}")


def _params_from_point(point: dict):
    return derive_params(
        point["n"],
        point["delta"],
        point["m_traces"],
        k_const=point["k_const"],
        tau=point["tau"],
        gamma=point["gamma"],
    )


def _run_align_bench(point: dict, rng: np.random.Generator) -> dict:
    params = _params_from_point(point)
    x = random_bits(params.n, rng)
    records = [transmit(x, params.delta, rng) for _ in range(params.m_traces)]
    y_star = records[0]
    lo, hi = params.margin, len(y_star.trace) - params.margin
    if lo > hi:
        raise RuntimeError("no valid reference cursor at this n and tau")
    ell_star = int(rng.integers(lo, hi + 1))
    cursors, diags = align(params, ell_star, y_star.trace, [r.trace for r in records])
    threshold = math.ceil(0.9 * params.m_traces)
    consensus, location = consensus_check(cursors, records, threshold)
    src = source_of(y_star, ell_star)
    loc_ok = location is not None and src - 2 * math.ceil(params.H) <= location <= src
    return {
        "consensus": float(consensus),
        "location_ok": float(loc_ok),
        "align_success": float(consensus and loc_ok),
        "failure_stage": float(-1 if diags.failure_stage is None else diags.failure_stage),
    }


def _run_reconstruct_e2e(point: dict, rng: np.random.Generator) -> dict:
    n, delta = point["n"], point["delta"]
    x = random_bits(n, rng)
    traces = [transmit(x, delta, rng).trace for _ in range(point["m_traces"])]
    result = reconstruct_with_fallback(
        n, delta, traces,
        k_const=point["k_const"], tau=point["tau"], gamma=point["gamma"],
    )
    cap = max(64, math.ceil(2 * delta * n))
    d = edit_distance(x, result.hypothesis)
    return {
        "edit_distance": float(d),
        "edit_distance_capped": float(d > cap),
        "normalized_distance": float(d / n),
        "baseline_distance": float(n - len(traces[0])),  # a trace is a subsequence of x
        "regime_code": float(_REGIME_CODES[result.regime_action]),
        "m_used": float(result.m_used),
        "segments": float(len(result.segments)),
    }


def _run_atomic_exact(point: dict, rng: np.random.Generator) -> dict:
    return {"p_exact": exact_atomic_failure_prob(point["m_traces"], point["delta"])}


def _check_atomic_exact(point: dict) -> None:
    if point["m_traces"] > EXACT_MAX_M:
        raise ValueError(f"bad atomic point {point}")


def _run_atomic_mc(point: dict, rng: np.random.Generator) -> dict:
    p_hat, se = mc_atomic_failure_prob(point["m_traces"], point["delta"], point["mc_samples"], rng)
    return {"p_mc": p_hat, "p_mc_stderr": se}


def _check_atomic_mc(point: dict) -> None:
    if point["mc_samples"] < 2:
        raise ValueError("mc_samples must be >= 2")


def _run_prlp(point: dict, rng: np.random.Generator) -> dict:
    m, delta, b_len = point["m_traces"], point["delta"], point["b_len"]
    rate = mc_prlp_exact_match(m, delta, b_len, point["mc_samples"], rng)
    out = {"exact_match_rate": rate}
    if m <= EXACT_MAX_M:
        p = exact_atomic_failure_prob(m, delta)
        out["ceiling"] = (1.0 - p) ** b_len
    return out


def _run_aprlp_embedding(point: dict, rng: np.random.Generator) -> dict:
    m, delta, b_len = point["m_traces"], point["delta"], point["b_len"]
    spec = EmbeddingSpec.build(m, b_len)
    z = BitString(rng.integers(0, 2, size=b_len, dtype=np.int64))
    samples = sample_prlp(z, m, delta, rng)
    if point["reconstructor"] == "first_trace":
        recon = lambda traces: traces[0]  # noqa: E731
    else:
        recon = lambda traces: reconstruct_with_fallback(  # noqa: E731
            spec.n, delta, traces,
            k_const=point["k_const"], tau=point["tau"], gamma=point["gamma"],
        ).hypothesis
    z_hat = simulate_aprlp(samples, recon, delta, b_len, rng)
    return {
        "z_edit_distance": float(edit_distance(z, z_hat)),
        "exact_match": float(z_hat == z),
        "b_hat": float(len(z_hat)),
    }


# a runner, the grid-point fields it reads (required, or with a default), and
# the checks on a point that are the kind's own beyond each field's range
@dataclass(frozen=True)
class _Kind:
    run: object
    required: tuple
    defaults: dict = field(default_factory=dict)
    check: object = lambda point: None

    @property
    def fields(self) -> tuple:
        return (*self.required, *self.defaults)


KINDS = {
    "channel_stats": _Kind(_run_channel_stats, ("n", "delta")),
    "bma_bench": _Kind(_run_bma_bench, ("n", "delta", "m_traces"), check=_check_bma_bench),
    "align_bench": _Kind(_run_align_bench, ("n", "delta", "m_traces"), DESK_DEFAULTS, _params_from_point),
    "reconstruct_e2e": _Kind(_run_reconstruct_e2e, ("n", "delta", "m_traces"), DESK_DEFAULTS, _params_from_point),
    "atomic_exact": _Kind(_run_atomic_exact, ("delta", "m_traces"), check=_check_atomic_exact),
    "atomic_mc": _Kind(_run_atomic_mc, ("delta", "m_traces"), {"mc_samples": 10**6}, _check_atomic_mc),
    "prlp": _Kind(_run_prlp, ("delta", "m_traces", "b_len"), {"mc_samples": 10**5}),
    "aprlp_embedding": _Kind(
        _run_aprlp_embedding, ("delta", "m_traces", "b_len"), {"reconstructor": "first_trace", **DESK_DEFAULTS}
    ),
}


def _run_cell(args: tuple) -> TrialResult:
    kind, seed, grid_index, point, trial = args
    rng = stream(seed, grid_index, trial)
    t0 = time.perf_counter()
    try:
        metrics = KINDS[kind].run(point, rng)
        error = None
    except Exception as exc:  # error rows must not kill the sweep
        metrics = {"error": 1.0}
        error = f"{type(exc).__name__}: {exc}"
    metrics["runtime_ms"] = (time.perf_counter() - t0) * 1000.0
    return TrialResult(kind, dict(point), seed, trial, metrics, error)


def run_experiment(config: ExperimentConfig) -> list[TrialResult]:
    config.validate()
    tasks = [
        (config.kind, config.seed, gi, point, trial)
        for gi, point in enumerate(config.grid)
        for trial in range(config.trials)
    ]
    if config.workers == 1:
        return [_run_cell(t) for t in tasks]
    # imported here, so that importing the package does not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(_run_cell, tasks, chunksize=max(1, len(tasks) // (4 * config.workers))))


def emit_report(results: list[TrialResult], fmt: str, path: str) -> None:
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            # a report holds one kind's results, as run_experiment returns them
            fields = KINDS[results[0].kind].fields if results else ()
            writer.writerow(("kind", *fields, "seed", "trial", "metric", "value"))
            for res in results:
                base = [res.kind, *(res.point[name] for name in fields), res.seed, res.trial]
                for metric, value in res.metrics.items():
                    writer.writerow(base + [metric, repr(float(value))])
    elif fmt == "jsonl":
        with open(path, "w") as fh:
            for res in results:
                fh.write(json.dumps(asdict(res)) + "\n")
    else:
        raise ValueError("format must be csv or jsonl")

