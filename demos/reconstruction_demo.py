"""Full pipeline: segment-by-segment reconstruction from a few traces.

The outer loop anchors ell* in the reference trace traces[0] (align), votes
out the next R source bits (BMA), appends them, and restarts the anchor at the
reference walk's end; the reference's own bits before the first anchor and
after the last segment close the two ends. A regime check first decides whether the full machinery can beat
trivial answers at the given (n, delta, M); when it cannot, it falls back to
fewer traces or to echoing one trace.
"""

import math

from tracerecon import (
    check_regime,
    derive_params,
    edit_distance,
    random_bits,
    reconstruct_with_fallback,
    transmit,
)
from tracerecon.rng import stream

rng = stream(13, 0)

# --- routing: what the regime check decides -------------------------------
print("regime decisions (n, delta, M, K):")
for n_, d_, m_, k_ in (
    (2**14, 1e-4, 4, 2.0),   # in regime: run everything
    (2**14, 1e-9, 25, 2.0),  # delta below 1/n^2: one trace is already close
    (2**14, 1e-4, 8, 4.0),   # M below K^2: majority too thin, echo a trace
    (2**10, 1e-2, 16, 2.0),  # target distance < 1: drop traces until it isn't
):
    rep = check_regime(n_, d_, m_, k_)
    flags = [f for f in ("delta_below_inv_n2", "M_below_K2", "M_above_inv_Kdelta",
                         "target_distance_below_one") if getattr(rep, f)]
    print(f"  n=2^{int(math.log2(n_))}, delta={d_}, M={m_}, K={k_}: "
          f"{rep.recommended_action}" + (f"  [{', '.join(flags)}]" if flags else ""))

# --- a full run in regime ---------------------------------------------------
n, delta, M, K = 2**14, 1e-4, 4, 2.0
params = derive_params(n, delta, M, k_const=K)
print(f"\nfull run at n={n}, delta={delta}, M={M}, K={K}: "
      f"H={params.H:.1f}, R={params.R}, segment budget ~n/R={n // params.R}")

x = random_bits(n, rng)
traces = [transmit(x, delta, rng).trace for _ in range(M)]
res = reconstruct_with_fallback(n, delta, traces, k_const=K)
d = edit_distance(x, res.hypothesis)
base = edit_distance(x, traces[0])
print(f"action={res.regime_action}, m_used={res.m_used}, "
      f"segments={len(res.segments)}")

# how much of the hypothesis is literally correct source text; the segments
# follow the reference's own bits before the first cursor
sx, exact = str(x), 0
head = off = res.segments[0][0] - 1 if res.segments else 0
hyp = str(res.hypothesis)
for _, elen in res.segments:
    exact += elen > 0 and hyp[off:off + elen] in sx
    off += elen
print(f"segments that are exact subwords of x: {exact}/{len(res.segments)}")
print(f"edit distance to x: {d} (single-trace baseline: {base}, "
      f"delta*n={delta * n:.1f})")

# Each segment starts on the reference bit right after the previous one's
# last, so the segments tile the source with no overlap and no gap, and the
# reference's own bits cover the stretch before the first cursor and after
# the last segment. What distance remains is the reference's deletions in
# those ends and in any copied (unaligned) segment, plus any bit the vote
# got wrong.
print(f"hypothesis length {len(res.hypothesis)} of n={n}; "
      f"ends copied from the reference: {head} + {len(hyp) - off} bits")
