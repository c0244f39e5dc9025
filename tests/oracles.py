"""Brute-force reference implementations used only by the tests.

Everything here favors definitional transparency over speed: full DP
tables, materialized padding, double loops. The library is checked
against these, never the other way around.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from tracerecon import BitString


def lcs_dp(a: str, b: str) -> int:
    """Textbook quadratic longest-common-subsequence table."""
    la, lb = len(a), len(b)
    prev = [0] * (lb + 1)
    for i in range(1, la + 1):
        cur = [0] * (lb + 1)
        ai = a[i - 1]
        for j in range(1, lb + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[lb]


def edit_distance_dp(a, b) -> int:
    """Exact indel edit distance via the LCS identity, no banding."""
    a, b = str(a), str(b)
    if len(a) * len(b) > 10**8:
        raise ValueError("oversize input for the quadratic oracle")
    return len(a) + len(b) - 2 * lcs_dp(a, b)


def all_matchings_brute(a: str, b: str):
    """Every maximum matching between equal symbols, as sorted pair lists.

    Exponential; keep |a|, |b| small.
    """
    best: list[list[tuple[int, int]]] = [[]]

    def rec(i: int, j: int, acc: list[tuple[int, int]]):
        nonlocal best
        if i > len(a) or j > len(b):
            if len(acc) > len(best[0]):
                best = [list(acc)]
            elif len(acc) == len(best[0]) and list(acc) not in best:
                best.append(list(acc))
            return
        rec(i + 1, j, acc)
        rec(i, j + 1, acc)
        if a[i - 1] == b[j - 1]:
            acc.append((i, j))
            rec(i + 1, j + 1, acc)
            acc.pop()

    rec(1, 1, [])
    return [m for m in best if len(m) == len(best[0])]


def bma_literal(sequences, cursors, rounds):
    """Line-by-line majority alignment with materialized '*' padding.

    Returns (word_or_empty, final_cursors) exactly like bma_run.
    """
    seqs = [str(s) for s in sequences]
    padded = [s + "*" * (rounds + 1) for s in seqs]
    cur = list(cursors)
    out = []
    for _ in range(rounds):
        symbols = [padded[m][cur[m] - 1] for m in range(len(seqs))]
        counts = {"0": 0, "1": 0, "*": 0}
        for s in symbols:
            counts[s] += 1
        # plurality with ties broken 0 > 1 > *
        w = max(("0", "1", "*"), key=lambda c: (counts[c], c == "0", c == "1"))
        out.append(w)
        for m in range(len(seqs)):
            if symbols[m] == w:
                cur[m] += 1
    word = "".join(out)
    if "*" in word:
        word = ""
    return BitString(word), tuple(cur)


def desert_scan_naive(x, window_len: int, max_period: int) -> set[int]:
    """Starts of length-L windows that are k-deserts for some k <= G.

    Double loop over windows and periods; ground truth for the
    vectorized scanner.
    """
    s = str(x)
    hits: set[int] = set()
    for start in range(1, len(s) - window_len + 2):
        w = s[start - 1 : start - 1 + window_len]
        for k in range(1, max_period + 1):
            if all(w[i] == w[i + k] for i in range(len(w) - k)):
                hits.add(start)
                break
    return hits


def find_closest_subword_naive(template, trace, window, max_dist):
    """Exhaustive scan matching the library's deterministic tie order.

    Ascending start, then ascending candidate length in
    [max(1, len(template) - max_dist), len(template) + max_dist]; first
    candidate with distance <= max_dist wins.
    """
    t = len(str(template))
    trace_s = str(trace)
    lo, hi = window.lo, min(window.hi, len(trace_s))
    for start in range(lo, hi + 1):
        for length in range(max(1, t - max_dist), t + max_dist + 1):
            if start + length - 1 > hi:
                continue
            cand = trace_s[start - 1 : start - 1 + length]
            if edit_distance_dp(template, cand) <= max_dist:
                from tracerecon import Interval

                return Interval(start, start + length - 1)
    return None


def prefilter_starts_find(template, hay: bytes, search, max_dist: int, min_len: int):
    """The exact-piece prefilter walked with ``bytes.find``.

    ``template`` is a 0/1 uint8 array and ``hay`` the haystack's bytes.  Every
    occurrence of each of the ``max_dist + 1`` pieces inside ``search`` is
    found by repeated ``bytes.find``, and each adds the window starts within
    ``max_dist`` of its anchor.  Returns the sorted int64 starts, or None
    where the library scans every start instead.
    """
    t = template.size
    pieces = max_dist + 1
    if t // pieces < 12:
        return None
    lo0, hi0 = search.lo - 1, search.hi - 1
    if (hi0 - lo0 + 1) <= 4 * t:
        return None
    starts: set[int] = set()
    bounds = np.linspace(0, t, pieces + 1).astype(int)
    tb = template.tobytes()
    for pi in range(pieces):
        a_off, b_off = int(bounds[pi]), int(bounds[pi + 1])
        piece = tb[a_off:b_off]
        pos = hay.find(piece, lo0, hi0 + 1)
        while pos != -1:
            anchor = pos - a_off
            for q in range(anchor - max_dist, anchor + max_dist + 1):
                if lo0 <= q <= hi0 - min_len + 1:
                    starts.add(q)
            pos = hay.find(piece, pos + 1, hi0 + 1)
    return np.array(sorted(starts), dtype=np.int64)


def atomic_pmf(m_pairs: int, delta: Fraction):
    """Exact rational pmfs of the two paired-binomial distributions."""
    from math import comb

    def binom_row(n: int):
        return [
            comb(n, k) * (1 - delta) ** k * delta ** (n - k) for k in range(n + 1)
        ]

    rm = binom_row(m_pairs)
    rm1 = binom_row(m_pairs + 1)
    p0 = {(a, b): rm[a] * rm1[b] for a in range(m_pairs + 1) for b in range(m_pairs + 2)}
    p1 = {(a, b): rm1[a] * rm[b] for a in range(m_pairs + 2) for b in range(m_pairs + 1)}
    return p0, p1


def exact_failure_prob_naive(m_pairs: int, delta) -> Fraction:
    """Bayes failure probability by brute enumeration of outcome tuples.

    (1/2) * sum over all m-tuples of pairs of min(P0, P1). Exponential in
    m_pairs; usable up to 2 or so.
    """
    delta = Fraction(delta)
    p0, p1 = atomic_pmf(m_pairs, delta)
    support = sorted(set(p0) | set(p1))
    total = Fraction(0)
    for tup in product(support, repeat=m_pairs):
        q0 = Fraction(1)
        q1 = Fraction(1)
        for pair in tup:
            q0 *= p0.get(pair, Fraction(0))
            q1 *= p1.get(pair, Fraction(0))
        total += min(q0, q1)
    return total / 2
