"""Anchoring one source position across traces with the coarse-to-fine ladder.

Align takes a cursor ell* in the reference trace traces[0] and tries to place
a cursor in every other trace on the SAME source bit. It matches nested
reference windows of widths t_1 < t_2 < ... (each 3x the last) under a small
edit budget, then votes on a word of the reference's innermost window that
nearly every trace's innermost window holds, and shifts each trace's cursor
from the word's start by the reference cursor's own offset from it. A trace
whose innermost window lacks that word gets no cursor (None).
"""

import math

from tracerecon import (
    align,
    consensus_check,
    derive_params,
    random_bits,
    source_of,
    transmit,
)
from tracerecon.rng import stream

rng = stream(11, 3)

# Small instance, gentle noise: the regime where the budgets dominate.
n, delta, M = 2**14, 1e-4, 10
params = derive_params(n, delta, M, k_const=2.0)
print(f"n=2^14, delta={delta}, M={M}: H={params.H:.1f}, "
      f"ladder={params.t_ladder}, word length L={params.L}")

x = random_bits(n, rng)
records = [transmit(x, delta, rng) for _ in range(M)]
y_star = records[0]
ell = len(y_star.trace) // 2
truth = source_of(y_star, ell)

cursors, diag = align(params, ell, [r.trace for r in records])
print(f"\nreference cursor {ell} sits on source position {truth}")
print(f"cursors: {cursors}")
if cursors is not None:
    # a trace whose innermost window lacks the common word has no cursor
    positions = [None if c is None else source_of(r, c) for r, c in zip(records, cursors)]
    print(f"their source positions: {positions}")

ok, loc = consensus_check(cursors, records, math.ceil(0.9 * M))
print(f"consensus at >=90%: {ok}, agreed source position {loc} "
      f"(guarantee: within [{truth - 2 * math.ceil(params.H)}, {truth}])")

# The diagnostics expose the nested windows each trace matched, innermost
# first; every inner window sits inside the next wider one. The reference's
# entry holds its own ladder windows, centered on ell*.
for m in (0, 1):
    tw = diag.trace_windows[m]
    print(f"\ntrace {m} windows (stage 1 innermost): "
          f"{[None if w is None else (w.lo, w.hi) for w in tw]}")

# --- success rate over random cursors, and what noise does to it -----------
for d in (1e-4, 1e-3, 1e-2):
    p = derive_params(n, d, M, k_const=2.0)
    wins = 0
    trials = 30
    for _ in range(trials):
        xx = random_bits(n, rng)
        recs = [transmit(xx, d, rng) for _ in range(M)]
        ys = recs[0]
        lo, hi = p.margin, len(ys.trace) - p.margin
        if lo > hi:
            continue
        e = int(rng.integers(lo, hi + 1))
        cur, _ = align(p, e, [r.trace for r in recs])
        good, where = consensus_check(cur, recs, math.ceil(0.9 * M))
        src = source_of(ys, e)
        wins += bool(good and where is not None and src - 2 * math.ceil(p.H) <= where <= src)
    print(f"delta={d}: consensus with valid location in {wins}/{trials} instances")

# The stage budgets floor(2*gamma*t_s) assume the windows differ mostly by
# the budgeted slack; once delta approaches gamma=0.01 the channel itself
# uses up the budget and the ladder starts rejecting true matches. See
# reports/criterion09_10_search.md for the full parameter search.
