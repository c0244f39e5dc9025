"""Acceptance suite: one test per numbered criterion, one PASS/FAIL line each.

Each test prints a single line `criterion NN <name>: PASS|FAIL (<measured
detail>)`, then asserts.  At the end of the module the lines of the criteria
that ran replace theirs in reports/acceptance_report.txt; the other criteria's
lines are kept, so a `-k` run of one criterion updates only its own line.
Criteria that the shipped constants cannot meet at desk scale fail here
honestly; the measurements and the parameter-search write-ups live under
reports/.
"""
from __future__ import annotations

import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

from tracerecon import (
    BitString,
    ExperimentConfig,
    align,
    apply_deletions,
    bma_run,
    consensus_check,
    contains_long_desert,
    derive_params,
    edit_distance,
    edit_distance_bounded,
    embed_instance,
    emit_report,
    exact_atomic_failure_prob,
    extract_z,
    find_pattern_occurrences,
    mc_atomic_failure_prob,
    mc_prlp_exact_match,
    random_bits,
    reconstruct_with_fallback,
    run_experiment,
    source_of,
    transmit,
)
from tracerecon.deserts import _desert_starts
from tracerecon.lower_bound import EmbeddingSpec, atomic_tables
from tracerecon.rng import stream
from tracerecon.strings import _walk

from .oracles import (
    bma_literal,
    desert_scan_naive,
    exact_failure_prob_naive,
    lcs_dp_rows,
    lcs_suffix,
)

REPORT = Path(__file__).resolve().parent.parent / "reports" / "acceptance_report.txt"


_LINES: dict[int, str] = {}


def merge_report(old: str, fresh: dict[int, str]) -> str:
    """Report text with the criteria in ``fresh`` replaced or added and the
    other criterion lines of ``old`` kept, in numeric order."""
    lines = {int(ln.split()[1]): ln for ln in old.splitlines() if ln.startswith("criterion ")}
    lines.update(fresh)
    return "".join(lines[num] + "\n" for num in sorted(lines))


@pytest.fixture(scope="module", autouse=True)
def _update_report():
    _LINES.clear()
    yield
    if _LINES:
        old = REPORT.read_text() if REPORT.exists() else ""
        REPORT.parent.mkdir(exist_ok=True)
        REPORT.write_text(merge_report(old, _LINES))


def record(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    _LINES[num] = line
    assert ok, line


def test_merge_report_replaces_only_the_criteria_that_ran():
    old = "criterion 01 a: PASS (x)\ncriterion 10 c: FAIL (y)\ncriterion 02 b: PASS (z)\n"
    fresh = {10: "criterion 10 c: PASS (new)", 3: "criterion 03 d: FAIL (w)"}
    assert merge_report(old, fresh) == (
        "criterion 01 a: PASS (x)\ncriterion 02 b: PASS (z)\n"
        "criterion 03 d: FAIL (w)\ncriterion 10 c: PASS (new)\n"
    )
    assert merge_report("", {}) == ""


def all_bitstrings(max_len: int) -> list[str]:
    out = [""]
    for length in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product("01", repeat=length))
    return out


def test_criterion_01_edit_distance_oracle():
    g = stream(1001, 0)
    mismatches = 0
    for _ in range(1000):
        la, lb = int(g.integers(0, 201)), int(g.integers(0, 201))
        a, b = random_bits(la, g), random_bits(lb, g)
        if edit_distance(a, b) != la + lb - 2 * lcs_dp_rows(str(a), str(b)):
            mismatches += 1
    # near pairs, a source against its trace with one bit inserted, reach the
    # O(NP) walk; `walked` counts those it scores within its step budget at
    # edit_distance's first cap, 256
    near, walked = 20, 0
    for _ in range(near):
        x = random_bits(1024, g)
        y = str(transmit(x, 0.004, g).trace)
        cut = int(g.integers(0, len(y) + 1))
        b = BitString(y[:cut] + str(int(g.integers(0, 2))) + y[cut:])
        want = len(x) + len(b) - 2 * lcs_dp_rows(str(x), str(b))
        if edit_distance(x, b) != want or edit_distance(b, x) != want:
            mismatches += 1
        walked += _walk(x.tobytes(), b.tobytes(), 256) is not None
    words = [BitString(s) for s in all_bitstrings(8)]
    raw = [str(w) for w in words]
    checked = 0
    memo: dict = {}  # every suffix pair of the words, shared by all pairs
    for i, a in enumerate(words):
        for j in range(i, len(words)):
            b = words[j]
            want = len(raw[i]) + len(raw[j]) - 2 * lcs_suffix(raw[i], raw[j], memo)
            if edit_distance(a, b) != want or edit_distance(b, a) != want:
                mismatches += 1
            checked += 1
    record(
        1,
        "edit distance oracle",
        mismatches == 0,
        f"1000 random pairs + {near} near pairs of 1024 bits ({walked} walked) + {checked} "
        f"exhaustive pairs (len<=8), {mismatches} mismatches",
    )


def test_criterion_02_bma_oracle():
    g = stream(1002, 0)
    mismatches = 0
    for _ in range(1000):
        m = int(g.integers(1, 9))
        rounds = int(g.integers(1, 65))
        delta = float(g.uniform(0, 0.3))
        x = random_bits(int(g.integers(1, 97)), g)
        seqs = [transmit(x, delta, g).trace for _ in range(m)]
        cursors = [int(g.integers(1, len(s) + 3)) for s in seqs]
        got = bma_run(seqs, cursors, rounds)
        want = bma_literal([str(s) for s in seqs], cursors, rounds)
        if got[0] != want[0] or got[1] != want[1]:
            mismatches += 1
    record(2, "BMA oracle", mismatches == 0, f"1000 random instances, {mismatches} mismatches")


def test_criterion_03_desert_scanner():
    mismatches = 0
    checked = 0
    for s in all_bitstrings(16):
        arr = BitString(s)
        for L in (4, 8):
            G = L // 2
            want = desert_scan_naive(s, L, G)
            mask = _desert_starts(arr, L, G)
            starts = {i + 1 for i in range(len(s)) if mask >> i & 1}
            if starts != want or contains_long_desert(arr, L, G) != bool(want):
                mismatches += 1
            checked += 1
    g = stream(1003, 0)
    for _ in range(100):
        s = str(random_bits(200, g))
        for L in (4, 8):
            G = L // 2
            want = desert_scan_naive(s, L, G)
            mask = _desert_starts(BitString(s), L, G)
            starts = {i + 1 for i in range(len(s)) if mask >> i & 1}
            if starts != want:
                mismatches += 1
            checked += 1
    record(3, "desert scanner", mismatches == 0, f"{checked} comparisons, {mismatches} mismatches")


def test_criterion_04_channel_statistics():
    n, delta, trials = 1000, 0.1, 10**4
    g = stream(1004, 0)
    x = random_bits(n, g)
    lengths = np.empty(trials)
    roundtrip_fail = 0
    for t in range(trials):
        rec = transmit(x, delta, g)
        lengths[t] = len(rec.trace)
        if not np.array_equal(x.array[rec.source_map - 1], rec.trace.array):
            roundtrip_fail += 1
    mean = float(lengths.mean())
    se = math.sqrt(n * delta * (1 - delta) / trials)
    ok = abs(mean - 900.0) <= 3 * se and roundtrip_fail == 0
    record(
        4,
        "channel statistics",
        ok,
        f"mean len {mean:.3f} vs 900 +- {3 * se:.3f}, {roundtrip_fail} roundtrip failures",
    )


def test_criterion_05_likelihood_identity():
    from fractions import Fraction

    from .oracles import atomic_pmf

    worst = 0.0
    exact_ok = True
    for m in range(1, 7):
        for delta, frac in ((0.1, Fraction(1, 10)), (0.25, Fraction(1, 4)), (0.5, Fraction(1, 2))):
            p0, p1 = atomic_tables(m, delta)
            lhs = p0[m, m - 1] ** m
            rhs = 2.0**-m * p1[m, m - 1] ** m
            worst = max(worst, abs(lhs - rhs) / rhs)
            q0, q1 = atomic_pmf(m, frac)
            exact_ok &= q0[(m, m - 1)] ** m == Fraction(1, 2**m) * q1[(m, m - 1)] ** m
    record(
        5,
        "likelihood identity",
        worst < 1e-12 and exact_ok,
        f"max float relative error {worst:.2e}, rational identity {'exact' if exact_ok else 'BROKEN'}",
    )


def test_criterion_06_exact_bayes_failure():
    from fractions import Fraction

    frozen_ok = exact_atomic_failure_prob(1, 0.5) == pytest.approx(0.3125, abs=1e-15)
    frozen_ok = frozen_ok and exact_failure_prob_naive(1, Fraction(1, 2)) == Fraction(5, 16)
    g = stream(1006, 0)
    worst_sigma = 0.0
    for m in (1, 2, 3):
        for delta in (0.1, 0.25, 0.5):
            exact = exact_atomic_failure_prob(m, delta)
            p_hat, se = mc_atomic_failure_prob(m, delta, 10**6, g)
            worst_sigma = max(worst_sigma, abs(p_hat - exact) / max(se, 1e-12))
    ok = frozen_ok and worst_sigma <= 4.0
    record(
        6,
        "exact Bayes failure",
        ok,
        f"p(1,0.5)=0.3125 exact, MC worst deviation {worst_sigma:.2f} sigma over 9 points",
    )


def test_criterion_07_exact_match_ceiling():
    g = stream(1007, 0)
    trials = 10**5
    rate = mc_prlp_exact_match(1, 0.5, 8, trials, g)
    ceiling = (1 - 0.3125) ** 8
    se = math.sqrt(ceiling * (1 - ceiling) / trials)
    ok = abs(rate - ceiling) <= 4 * se and rate <= ceiling + 4 * se
    record(
        7,
        "exact-match ceiling",
        ok,
        f"empirical {rate:.5f} vs ceiling {ceiling:.5f} +- {4 * se:.5f}",
    )


def test_criterion_08_bma_desert_free():
    R, M, delta, L, G = 200, 20, 0.01, 40, 20
    thr = math.ceil(0.9 * M)
    g = stream(1008, 0)
    trials = 200
    successes = 0
    exact_accounting = 0
    high_margin_rounds = 0
    for _ in range(trials):
        while True:
            word = random_bits(R, g)
            if not contains_long_desert(word, L, G):
                break
        traces = [transmit(word, delta, g).trace for _ in range(M)]
        out, final, diag = bma_run(list(traces), [1] * M, R)
        if out == word:
            successes += 1
            # while the majority is correct a cursor advances once per
            # surviving bit and stalls once per deletion: every cursor ends
            # just past its trace, and total dissent M*R - sum(margins)
            # equals the total deletion count; see reports/criterion08_margin.md
            lengths = [len(t) for t in traces]
            exact_accounting += (
                final == tuple(n + 1 for n in lengths) and sum(diag.margins) == sum(lengths)
            )
            high_margin_rounds += sum(m >= thr for m in diag.margins)
    rate_ok = successes / trials >= 0.95
    # the clause speaks of successful trials only, so it needs some to hold
    accounting_ok = exact_accounting == successes > 0
    record(
        8,
        "BMA exactness on desert-free words",
        rate_ok and accounting_ok,
        f"success {successes}/{trials}, one stall per deletion in"
        f" {exact_accounting}/{successes} successes, margin>={thr} in"
        f" {high_margin_rounds / max(1, successes * R):.2%} of their rounds",
    )


def test_criterion_09_align_consensus():
    n, delta, M = 2**17, 0.01, 25
    params = derive_params(n, delta, M)
    thr = math.ceil(0.9 * M)
    Hc = math.ceil(params.H)
    g = stream(1009, 0)
    trials = 50
    good = 0
    stage_misses = {}
    for _ in range(trials):
        x = random_bits(n, g)
        records = [transmit(x, delta, g) for _ in range(M)]
        y_star = records[0]
        ell = int(g.integers(params.margin, len(y_star.trace) - params.margin + 1))
        cursors, diag = align(params, ell, [r.trace for r in records])
        ok, loc = consensus_check(cursors, records, thr)
        src = source_of(y_star, ell)
        if ok and loc is not None and src - 2 * Hc <= loc <= src:
            good += 1
        else:
            # stage 0 is the word vote; cursors that fail the check have none
            key = diag.failure_stage if diag.failure_stage is not None else "no consensus"
            stage_misses[key] = stage_misses.get(key, 0) + 1
    # the ladder budget floor(2*gamma*t_s), gamma = 0.01, is below the typical
    # deletion count in a stage window at delta=0.01; see
    # reports/criterion09_10_search.md
    record(
        9,
        "align consensus",
        good / trials >= 0.90,
        f"consensus+location {good}/{trials}, failure stages {stage_misses}",
    )


def test_criterion_10_end_to_end_improvement():
    n, delta, M = 2**17, 0.01, 25
    target = 0.5 * delta * n
    cap = math.ceil(2 * delta * n)
    g = stream(1010, 0)
    seeds = 10
    dists = []
    for _ in range(seeds):
        x = random_bits(n, g)
        traces = [transmit(x, delta, g).trace for _ in range(M)]
        res = reconstruct_with_fallback(n, delta, traces)
        d = edit_distance_bounded(x, res.hypothesis, cap)
        dists.append(cap if d is None else d)
    mean_d = float(np.mean(dists))
    # the documented parameter search found no (K, tau) meeting even the
    # 0.8*delta*n fallback bar at this n; see reports/criterion09_10_search.md
    record(
        10,
        "end-to-end improvement",
        mean_d <= target,
        f"mean d {mean_d:.0f} (distances capped at {cap}) vs target {target:.0f},"
        f" {sum(d >= cap for d in dists)}/{seeds} runs at cap",
    )


def test_criterion_11_embedding_machinery():
    spec = EmbeddingSpec.build(1, 32)
    g = stream(1011, 0)
    hits = 0
    for _ in range(100):
        x = random_bits(spec.n, g)
        occs = find_pattern_occurrences(x, spec)
        hits += len(occs) >= 32
    clean_fail = 0
    for _ in range(1000):
        b_len = int(g.integers(1, 9))
        sp = EmbeddingSpec.build(int(g.integers(1, 4)), b_len)
        length = min(sp.n, 20_000)
        # clean random host with enough marker slots for a full round trip
        while True:
            x_prime = random_bits(length, g)
            if len(find_pattern_occurrences(x_prime, sp)) >= b_len:
                break
        z = random_bits(b_len, g)
        x = embed_instance(z, x_prime, sp)
        if extract_z(x, sp) != z:
            clean_fail += 1
    ok = hits >= 95 and clean_fail == 0
    record(
        11,
        "embedding machinery",
        ok,
        f"{hits}/100 seeds with >=32 occurrences, {clean_fail}/1000 clean round-trip failures",
    )


def test_criterion_12_determinism(tmp_path):
    def run(workers: int, kind: str, grid: list) -> str:
        cfg = ExperimentConfig(kind=kind, grid=[dict(p) for p in grid], trials=5, seed=42, workers=workers)
        results = run_experiment(cfg)
        path = tmp_path / f"{kind}-{workers}.csv"
        emit_report(results, "csv", str(path))
        return "\n".join(
            line for line in path.read_text().splitlines() if ",runtime_ms," not in line
        )

    sweeps = [
        ("channel_stats", [{"n": 400, "delta": 0.1}, {"n": 400, "delta": 0.02}]),
        ("atomic_mc", [{"m_traces": 2, "delta": 0.25, "mc_samples": 10_000}]),
    ]
    identical = all(run(1, k, grid) == run(8, k, grid) for k, grid in sweeps)
    record(12, "determinism", identical, "1 vs 8 workers, byte-identical reports sans runtime")


def test_criterion_13_beats_one_trace():
    # the paper's kind of point (delta*M = 0.016 << 1, M < 1/delta): on
    # every trial the hypothesis must be closer to x than one trace, whose
    # distance is its deletion count, and about as long as x
    n, delta, M, K = 2**15, 1e-3, 16, 4.0
    g = stream(21, 0)
    trials = 5
    ok = True
    dists, baselines = [], []
    for _ in range(trials):
        x = random_bits(n, g)
        traces = [transmit(x, delta, g).trace for _ in range(M)]
        hyp = reconstruct_with_fallback(n, delta, traces, k_const=K).hypothesis
        d, base = edit_distance(x, hyp), n - len(traces[0])
        ok &= d < base and 0.99 <= len(hyp) / n <= 1.01
        dists.append(d)
        baselines.append(base)
    record(
        13,
        "beats one trace",
        ok,
        f"mean d {np.mean(dists):.1f} vs one trace {np.mean(baselines):.1f} over {trials} trials,"
        f" each needing d below one trace and |hyp|/n in [0.99, 1.01]",
    )
