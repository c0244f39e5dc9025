"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on small shared machines whose speed drifts by 10-25%
between runs half a minute apart, more than any bound a timing could be held
to.  A fixed kernel that does not touch the library is timed after every
trial.  Reported timings are multiplied by ``REFERENCE_S / median kernel
time`` of the same run, so they read as seconds at the machine's reference
speed; the raw wall times are printed alongside.

The kernel mixes what the library's hot paths do: numpy steps on small arrays
inside a Python loop (as in the banded DP and the vote loop), plain Python
arithmetic, ``bytes.find`` over a short haystack, and passes over an array
larger than the cache.
"""

from __future__ import annotations

import time

import numpy as np

# median kernel time on a quiet 2-core x86-64 machine (Intel Xeon)
REFERENCE_S = 0.020


class Kernel:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.template = rng.integers(0, 2, 600, dtype=np.uint8)
        self.window = rng.integers(0, 2, (1, 800), dtype=np.uint8)
        self.hay = rng.integers(0, 2, 20_000, dtype=np.uint8).tobytes()
        self.big = rng.integers(0, 2, 1 << 18, dtype=np.int64)

    def seconds(self) -> float:
        """Wall seconds for one pass of the fixed kernel."""
        t0 = time.perf_counter()
        width = 129
        offs = np.arange(width, dtype=np.int32)
        row = np.zeros((1, width), dtype=np.int32)
        up = np.empty_like(row)
        for i in range(1, self.template.size):
            up[:, :-1] = row[:, 1:]
            up[:, -1] = 1 << 30
            cost = np.where(self.window[:, i : i + width] == self.template[i], 0, 2)
            cand = np.minimum(up + 1, row + cost.astype(np.int32))
            cand -= offs
            np.minimum.accumulate(cand, axis=1, out=cand)
            cand += offs
            row = cand
        acc = 0
        for i in range(30_000):
            acc += i & 7
        for k in range(200):
            self.hay.find(self.hay[k * 50 : k * 50 + 40])
        for _ in range(3):
            int(np.cumsum(self.big)[-1])
        return time.perf_counter() - t0
