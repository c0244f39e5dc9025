"""Deletion channel warm-up: traces, source maps, and length statistics."""

import numpy as np

from tracerecon import apply_deletions, image_ceil, random_bits, source_of, transmit
from tracerecon.rng import stream

rng = stream(42, 0)

# --- a tiny hand example ------------------------------------------------
# Deleting positions 2 and 5 of 0110101 keeps bits 1,3,4,6,7.
x = random_bits(7, rng)
deletions = {2, 5}
rec = apply_deletions(x, deletions)
print(f"source  {x}")
print(f"deleted positions {sorted(deletions)} -> trace {rec.trace}")
print(f"trace position -> source position: {rec.source_map.tolist()}")

# source_of answers "which source bit produced trace bit q"; past the end it
# extends by counting the overhang.
for q in (1, len(rec.trace), len(rec.trace) + 2):
    print(f"  source_of(trace position {q}) = {source_of(rec, q)}")

# image_ceil goes the other way: first trace position at or after a source
# position (useful when a cursor must re-enter the trace).
print(f"  image_ceil(source position 2) = {image_ceil(rec, 2)}")

# --- the random channel -------------------------------------------------
# Del_delta deletes each bit independently. Trace length is Binomial(n, 1-d),
# so the mean is (1-d) * n.
n, delta, trials = 1000, 0.1, 2000
x = random_bits(n, rng)
lengths = np.array([len(transmit(x, delta, rng).trace) for _ in range(trials)])
print(f"\nn={n}, delta={delta}: mean trace length {lengths.mean():.1f} "
      f"(expected {(1 - delta) * n:.0f}), std {lengths.std():.1f} "
      f"(expected {np.sqrt(n * delta * (1 - delta)):.1f})")

# Every trace is a subsequence of the source; the source map proves it.
rec = transmit(x, delta, rng)
assert (x.array[rec.source_map - 1] == rec.trace.array).all()
print("source-map round trip holds: trace == source restricted to survivors")
