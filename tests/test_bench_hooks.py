"""The library hooks that bench/spans.py wraps, checked without a bench run.

The traced benchmark (``bench/run.py --trace 1``) finds each layer by module
and function name, and reports a layer it cannot find as absent instead of
failing.  A rename in the library would therefore only show as a missing
row in a benchmark report; these checks make it a test failure.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from tracerecon import random_bits, reconstruct_with_fallback, transmit
from tracerecon.rng import stream

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_layer_is_present(spans):
    assert spans.Tracer().absent == []


def test_traced_reconstruction_counts(spans):
    n, delta, m = 4096, 2e-3, 8
    g = stream(19, 0)
    x = random_bits(n, g)
    traces = [transmit(x, delta, g).trace for _ in range(m)]
    tracer = spans.Tracer()
    with tracer.trial("trial:0"):
        res = reconstruct_with_fallback(n, delta, traces)
    assert res.regime_action == "run_full"
    totals = tracer.layer_totals("trial:")
    align, vote = totals["align"], totals["bma.bma_run"]
    assert align["calls"] == totals["reconstruct"]["segments"] == len(res.segments) > 0
    # a failed alignment is not voted
    assert vote["calls"] == align["calls"] - align["fail"] > 0
