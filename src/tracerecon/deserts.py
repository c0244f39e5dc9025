"""Detection of periodic stretches ("deserts") where majority alignment
loses track.

A word is a k-desert when it is a prefix of s^infinity for some |s| = k,
i.e. w[i] = w[i+k] wherever both sides exist.  A long desert is a k-desert
of length L with k <= G (G = L/2 in the reconstruction parameters).
"""

from __future__ import annotations

from .strings import _DIGITS, BitString

__all__ = ["contains_long_desert"]


def _desert_starts(w: BitString, L: int, G: int) -> int:
    """Bit mask over 0-based starts: bit i is set when a length-L k-desert
    with k <= G begins at w[i] (0-based).  0 when |w| < L.

    With the bits read as one int x (bit j is w[j]), lag k's self-match
    mask ~(x ^ (x >> k)) has bit j set where w[j] == w[j+k], and a k-desert
    starts at i when the L-k mask bits from i on are all set.  ANDing the
    mask with itself shifted by 1, 2, 4, ... widens each bit's run to L-k
    in O(log L) big-int steps per lag.
    """
    n = len(w)
    if n < L:
        return 0
    every = (1 << (n - L + 1)) - 1
    x = int(w.tobytes()[::-1].translate(_DIGITS), 2)
    out = 0
    for k in range(1, min(G, L) + 1):
        width = L - k
        if width == 0:
            return every  # every length-L window is trivially L-periodic
        run = ~(x ^ (x >> k)) & ((1 << (n - k)) - 1)
        p = 1
        while 2 * p <= width:
            run &= run >> p
            p *= 2
        out |= run & (run >> (width - p))
    return out & every


def contains_long_desert(w: BitString, L: int, G: int) -> bool:
    """True iff some length-L subword of w is a k-desert for some k <= G."""
    if not 1 <= G <= L:
        raise ValueError("need 1 <= G <= L")
    return _desert_starts(w, L, G) != 0
