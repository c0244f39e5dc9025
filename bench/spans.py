"""Spans and counts for the traced benchmark run, recorded from outside the
library.

A Tracer replaces the public functions of each layer with timing wrappers
by rebinding module attributes.  Modules that did ``from .x import f`` hold
their own binding of ``f``, so every loaded ``tracerecon`` module whose
attribute *is* the original function gets the wrapper, and every binding is
restored when the traced trial ends.  A layer whose module or function no
longer exists is reported as absent instead of failing the run.

Spans are (name, start, end, parent index, trial id) tuples kept in memory;
``write`` dumps them as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


@dataclass(frozen=True)
class Layer:
    """One wrapped function: ``module.func`` inside the tracerecon package,
    reported as ``label`` (``module.func`` when not given).

    ``outcome(result, args, kwargs)`` returns counter increments for the
    call, such as ``{"fail": 1}``.
    """

    module: str
    func: str
    outcome: Callable[[object, tuple, dict], dict] | None = None
    label: str | None = None

    @property
    def name(self) -> str:
        return self.label or f"{self.module}.{self.func}"


def _align_outcome(result, args, kwargs):
    return {"fail": int(result[1].failure_stage is not None)}


def _miss_outcome(result, args, kwargs):
    return {"miss": int(result is None)}


def _bma_outcome(result, args, kwargs):
    return {"rounds": _arg(args, kwargs, 2, "rounds"), "empty": int(len(result[0]) == 0)}


LAYERS = (
    Layer("channel", "transmit"),
    Layer("reconstruct", "reconstruct", lambda r, a, k: {"segments": len(r.segments)},
          label="reconstruct"),
    Layer("align", "align", _align_outcome, label="align"),
    Layer("strings", "find_closest_subword", _miss_outcome),
    Layer("strings", "find_common_word", _miss_outcome),
    Layer("bma", "bma_run", _bma_outcome),
    Layer("strings", "edit_distance_bounded", lambda r, a, k: {"capped": int(r is None)}),
    Layer("lower_bound", "exact_atomic_failure_prob"),
    Layer(
        "lower_bound",
        "mc_atomic_failure_prob",
        lambda r, a, k: {"samples": _arg(a, k, 2, "trials")},
    ),
    Layer("lower_bound", "mc_prlp_exact_match"),
    Layer("lower_bound", "simulate_aprlp"),
    Layer("lower_bound", "compose_traces"),
    Layer("lower_bound", "find_pattern_occurrences"),
)


class Tracer:
    def __init__(self, package: str = "tracerecon", layers: tuple[Layer, ...] = LAYERS):
        self.package = package
        self.spans: list[tuple[str, float, float, int | None, str] | None] = []
        # counts[trial id][layer name][outcome key]
        self.counts: dict[str, dict[str, dict[str, int]]] = defaultdict(
            lambda: defaultdict(lambda: defaultdict(int)))
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._trial = ""
        self._present: list[tuple[Layer, Callable]] = []
        for layer in layers:
            try:
                module = importlib.import_module(f"{package}.{layer.module}")
            except ImportError:
                module = None
            func = getattr(module, layer.func, None)
            if callable(func):
                self._present.append((layer, func))
            else:
                self.absent.append(layer.name)

    def _wrap(self, layer: Layer, func: Callable) -> Callable:
        name, outcome = layer.name, layer.outcome
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._trial)
            if outcome is not None:
                per_layer = counts[self._trial][name]
                for key, amount in outcome(result, args, kwargs).items():
                    per_layer[key] += amount
            return result

        return wrapper

    @contextmanager
    def trial(self, trial_id: str):
        """Trace everything called inside the block under one root span."""
        wrappers = {id(func): self._wrap(layer, func) for layer, func in self._present}
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, value))
        self._trial = trial_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = ("trial", start, time.perf_counter(), None, trial_id)
            self._stack.pop()
            for module, attr, value in patched:
                setattr(module, attr, value)

    def layer_totals(self, trial_prefix: str) -> dict[str, dict[str, float]]:
        """calls, busy_s, self_s and outcome counts per layer over the
        trials whose id starts with ``trial_prefix``.  Busy time counts only
        the outermost span of a layer, so recursion is not double counted;
        self time is a span's duration minus the durations of its direct
        children."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, trial) in enumerate(spans):
            if not trial.startswith(trial_prefix) or name == "trial":
                continue
            t = totals[name]
            t["calls"] += 1
            t["self_s"] += (end - start) - child_time[i]
            p = parent
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:
                t["busy_s"] += end - start
        for trial, per_trial in self.counts.items():
            if trial.startswith(trial_prefix):
                for name, per_layer in per_trial.items():
                    for key, amount in per_layer.items():
                        totals[name][key] = totals[name].get(key, 0) + amount
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, trial) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}) + "\n")
