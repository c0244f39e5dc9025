"""Detection of periodic stretches ("deserts") where majority alignment
loses track.

A word is a k-desert when it is a prefix of s^infinity for some |s| = k,
i.e. w[i] = w[i+k] wherever both sides exist.  A long desert is a k-desert
of length L with k <= G (G = L/2 in the reconstruction parameters).
"""

from __future__ import annotations

import numpy as np

from .strings import BitString

__all__ = ["contains_long_desert"]


def _desert_starts(a: np.ndarray, L: int, G: int) -> np.ndarray:
    """Boolean mask over 0-based starts i <= len(a)-L: does a length-L
    k-desert with k <= G begin at i?

    For lag k, the self-match mask m[j] = (a[j] == a[j+k]) turns the desert
    condition into "m all-true over a width-(L-k) window", which a cumsum
    answers in O(n) per lag.
    """
    n = a.size
    n_starts = n - L + 1
    if n_starts <= 0:
        return np.zeros(0, dtype=bool)
    out = np.zeros(n_starts, dtype=bool)
    for k in range(1, min(G, L) + 1):
        width = L - k
        if width == 0:
            # every length-L window is trivially L-periodic
            out[:] = True
            break
        m = a[:-k] == a[k:]
        c = np.concatenate(([0], np.cumsum(m, dtype=np.int64)))
        out |= (c[width:] - c[:n_starts]) == width
        if out.all():
            break
    return out


def contains_long_desert(w: BitString, L: int, G: int) -> bool:
    """True iff some length-L subword of w is a k-desert for some k <= G."""
    if not 1 <= G <= L:
        raise ValueError("need 1 <= G <= L")
    return bool(_desert_starts(w.array, L, G).any())
