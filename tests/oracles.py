"""Brute-force reference implementations used only by the tests.

Everything here favors definitional transparency over speed: full DP
tables, materialized padding, double loops. The library is checked
against these, never the other way around.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from tracerecon import (
    AlignDiagnostics,
    BitString,
    Interval,
    find_closest_subword,
    find_common_word,
    source_of,
)
from tracerecon.deserts import _desert_starts
from tracerecon.lower_bound import atomic_tables


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


def lcs_dp_rows(a: str, b: str) -> int:
    """The recurrence of :func:`lcs_dp` a whole row at a time, for inputs
    too long for its double loop.  A row is the running maximum of
    ``max(prev[j], prev[j - 1] + match_j)``: where ``a[i - 1] == b[j - 1]``,
    ``prev[j - 1] + 1`` is at least ``prev[j]`` and ``cur[j - 1]``, so
    both recurrences give the same table."""
    cols = np.frombuffer(b.encode("ascii"), np.uint8)
    prev = np.zeros(len(b) + 1, np.int64)
    for ai in a.encode("ascii"):
        cur = np.zeros_like(prev)
        np.maximum(prev[1:], prev[:-1] + (cols == ai), out=cur[1:])
        prev = np.maximum.accumulate(cur)
    return int(prev[-1])


def lcs_suffix(a: str, b: str, memo: dict) -> int:
    """The textbook longest-common-subsequence recurrence on first symbols,
    memoized over suffix pairs in ``memo``.  Its recursion is
    ``len(a) + len(b)`` deep, so it suits short words; a caller scoring
    many pairs of them passes one memo, and the pairs share suffixes."""
    if not a or not b:
        return 0
    key = (a, b)
    if key not in memo:
        if a[0] == b[0]:
            memo[key] = lcs_suffix(a[1:], b[1:], memo) + 1
        else:
            memo[key] = max(lcs_suffix(a[1:], b, memo), lcs_suffix(a, b[1:], memo))
    return memo[key]


def common_prefix_naive(a: bytes, b: bytes) -> int:
    """Length of the common prefix of two byte strings, one byte at a time."""
    n = 0
    while n < len(a) and n < len(b) and a[n] == b[n]:
        n += 1
    return n


def edit_distance_dp(a, b) -> int:
    """Exact indel edit distance via the LCS identity, no banding."""
    a, b = str(a), str(b)
    if len(a) * len(b) > 10**8:
        raise ValueError("oversize input for the quadratic oracle")
    return len(a) + len(b) - 2 * lcs_dp(a, b)


def image_of(record, i: int) -> int | None:
    """Trace position holding source bit i, or None if it was deleted; the
    reference ``channel.image_ceil`` is checked against."""
    if not 1 <= i <= record.source_len:
        raise ValueError(f"source position {i} outside 1..{record.source_len}")
    q = int(np.searchsorted(record.source_map, i, side="left"))
    if q < len(record.source_map) and record.source_map[q] == i:
        return q + 1
    return None


def bma_literal_walk(sequences, cursors, rounds):
    """Line-by-line majority alignment; a cursor past a sequence's end
    reads '*'.

    Returns (word_or_empty, history, symbols, margins): the emitted word as
    bma_run gives it; the cursors before every round and after the last,
    rounds + 1 tuples; the emitted symbols as a string over "01*"; and each
    round's count of cursors reading the winning symbol.
    """
    seqs = [str(s) for s in sequences]
    cur = list(cursors)
    history = [tuple(cur)]
    out = []
    margins = []
    for _ in range(rounds):
        symbols = [s[c - 1] if c <= len(s) else "*" for s, c in zip(seqs, cur)]
        counts = {"0": 0, "1": 0, "*": 0}
        for s in symbols:
            counts[s] += 1
        # plurality with ties broken 0 > 1 > *
        w = max(("0", "1", "*"), key=lambda c: (counts[c], c == "0", c == "1"))
        out.append(w)
        margins.append(counts[w])
        for m in range(len(seqs)):
            if symbols[m] == w:
                cur[m] += 1
        history.append(tuple(cur))
    emitted = "".join(out)
    word = "" if "*" in emitted else emitted
    return BitString(word), history, emitted, tuple(margins)


def bma_literal(sequences, cursors, rounds):
    """Returns (word_or_empty, final_cursors) exactly like bma_run."""
    word, history, _, _ = bma_literal_walk(sequences, cursors, rounds)
    return word, history[-1]


@dataclass(frozen=True)
class Provenance:
    """Per sequence and round (shape (M, rounds+1), round index t-1): the
    source position under the cursor, and the deletions crossed beyond the
    one-bit-per-round schedule."""

    last: np.ndarray
    dist: np.ndarray


def bma_with_provenance(records, start_cursors, rounds):
    """Majority alignment over the records' traces, with last/dist
    bookkeeping.  Returns (word_or_empty, final_cursors, Provenance).

    last[m, t-1] is the source position under cursor m at round t;
    dist[m, t-1] = last - (t-1) - min(last[:, 0]) counts crossed deletions
    net of stalls, from the run's common source start, so a trace that lost
    the first source bit starts one ahead.  It must stay non-negative
    whenever the majority tracks the source word, which is asserted.
    """
    word, history, _, _ = bma_literal_walk([r.trace for r in records], start_cursors, rounds)
    last = np.array(
        [[source_of(rec, h[m]) for h in history] for m, rec in enumerate(records)],
        dtype=np.int64,
    )
    dist = last - np.arange(rounds + 1, dtype=np.int64)[None, :] - last[:, 0].min()
    assert (dist >= 0).all(), "cursor fell behind the one-bit-per-round schedule"
    return word, history[-1], Provenance(last, dist)


def bma_star(y_star, ell_star: int, z) -> int:
    """Single-reference walk: advance the cursor on each match between z and
    the reference trace, then report where the cursor's source position
    lands.  Predicts the reference pointer after a majority segment that
    emitted z."""
    if ell_star < 1:
        raise ValueError("cursor is 1-based")
    trace = y_star.trace
    n_trace = len(trace)
    cursor = ell_star
    for t in range(1, len(z) + 1):
        if cursor <= n_trace and trace.bit(cursor) == z.bit(t):
            cursor += 1
    return source_of(y_star, cursor)


def is_k_desert(w, k: int) -> bool:
    """Period test: w[i] == w[i+k] for all valid i.  Vacuously true when
    |w| <= k."""
    if k < 1:
        raise ValueError("period k must be >= 1")
    a = w.array
    if a.size <= k:
        return True
    return bool((a[:-k] == a[k:]).all())


def count_windows_with_long_desert(x, L: int, G: int, W: int) -> int:
    """Number of 1-based starts i with contains_long_desert(x[i:i+W-1], L, G).

    Sliding formulation: window i qualifies iff a desert starts anywhere in
    [i, i+W-L], i.e. iff the library's start mask has a set bit there.
    """
    if not 1 <= G <= L:
        raise ValueError("need 1 <= G <= L")
    if W < L:
        raise ValueError("window width W must be >= L")
    n = len(x)
    n_win = n - W + 1
    if n_win <= 0:
        return 0
    starts = _desert_starts(x, L, G)
    span = (1 << (W - L + 1)) - 1
    return sum(1 for i in range(n_win) if starts >> i & span)


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
            if w[: len(w) - k] == w[k:]:  # w[i] == w[i + k] for all i; needs k <= L
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
                return Interval(start, start + length - 1)
    return None


def prefilter_starts_find(template, hay: bytes, search, max_dist: int, min_len: int):
    """The exact-piece prefilter walked with ``bytes.find``.

    ``template`` is a 0/1 uint8 array and ``hay`` the haystack's bytes.  Every
    occurrence of each of the ``max_dist + 1`` pieces inside ``search`` is
    found by repeated ``bytes.find``, and each adds the window starts within
    ``max_dist`` of its anchor.  Returns the ascending starts.
    """
    t = template.size
    pieces = max_dist + 1
    lo0, hi0 = search.lo - 1, search.hi - 1
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
    return sorted(starts)


def verbatim_anchor(template, hay: bytes, search, max_dist: int) -> int | None:
    """The 0-based anchor a at which each of the prefilter's ``max_dist + 1``
    pieces first occurs inside ``search`` (a piece at a plus its offset),
    found with ``bytes.find``; None when the pieces' first occurrences give
    more than one anchor, or a piece does not occur.  ``template`` is a 0/1
    uint8 array and ``hay`` the haystack's bytes.
    """
    lo0, hi0 = search.lo - 1, search.hi - 1
    bounds = np.linspace(0, template.size, max_dist + 2).astype(int).tolist()
    tb = template.tobytes()
    firsts = [hay.find(tb[a:b], lo0, hi0 + 1) for a, b in zip(bounds, bounds[1:])]
    if -1 in firsts or len({p - a for p, a in zip(firsts, bounds)}) > 1:
        return None
    return firsts[0]


def align_per_trace(params, ell_star: int, traces):
    """The alignment ladder searched one trace at a time.

    ``traces[0]`` is the reference: its ladder windows at ``ell_star`` are
    the templates and its own stage intervals.  Trace m >= 1 runs every
    stage, widest first, before trace m + 1 starts, and the first miss (or
    an empty trace) ends the search with that trace's stage; later traces
    keep no windows.  Then the common-word vote places the cursors, each at
    its word's start plus the reference cursor's offset from the word in
    the reference window.  Returns ``(cursors, AlignDiagnostics)`` as
    ``align`` does, which batches the traces and must agree with this.
    """
    y_star = traces[0]
    n_star = len(y_star)
    if not 1 <= ell_star <= n_star:
        raise ValueError("reference cursor outside the reference trace")
    windows = [[None] * params.S for _ in traces]
    for s, t_s in enumerate(params.t_ladder):
        half = (t_s - 1) // 2
        windows[0][s] = Interval(max(1, ell_star - half), min(n_star, ell_star + half))

    def diagnostics(stage, trace):
        return AlignDiagnostics(tuple(tuple(per) for per in windows), stage, trace)

    for m, trace in enumerate(traces[1:], start=1):
        if len(trace) == 0:
            return None, diagnostics(params.S, m)
        search = Interval(1, len(trace))
        for s in range(params.S, 0, -1):
            template = y_star.subword(windows[0][s - 1].lo, windows[0][s - 1].hi)
            hit = find_closest_subword(template, trace, search, params.budgets[s - 1])
            if hit is None:
                return None, diagnostics(s, m)
            windows[m][s - 1] = search = hit

    inner = [trace.subword(w[0].lo, w[0].hi) for trace, w in zip(traces, windows)]
    found = find_common_word(inner, math.ceil(0.9 * params.t_ladder[0]), math.ceil(0.95 * len(traces)))
    if found is None:
        return None, diagnostics(0, None)
    word_at = windows[0][0].lo + found[1][0] - 1  # the word's start in the reference
    cursors = tuple(
        None if off is None else w[0].lo + off - 1 + ell_star - word_at
        for w, off in zip(windows, found[1])
    )
    return cursors, diagnostics(None, None)


def common_word_naive(windows, word_len: int, threshold: int):
    """The common-word vote with candidates drawn from every window.

    The subwords of ``windows[0]`` by ascending start, then ``windows[1]``,
    and so on; the first candidate contained in at least ``threshold``
    windows wins, with its leftmost 1-based start in each window (None where
    a window lacks it).  ``find_common_word`` reads candidates from
    ``windows[0]`` alone and must agree with this wherever the winner lies
    in ``windows[0]``.
    """
    if word_len < 1:
        raise ValueError("word_len must be >= 1")
    if not 1 <= threshold <= len(windows):
        raise ValueError("threshold must be in 1..len(windows)")
    wbytes = [w.tobytes() for w in windows]
    seen: set[bytes] = set()
    for src in wbytes:
        for s in range(0, len(src) - word_len + 1):
            cand = src[s : s + word_len]
            if cand in seen:
                continue
            seen.add(cand)
            starts: list[int | None] = []
            count = 0
            for wb in wbytes:
                pos = wb.find(cand)
                if pos >= 0:
                    starts.append(pos + 1)
                    count += 1
                else:
                    starts.append(None)
            if count >= threshold:
                return BitString(cand), starts
    return None


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


def exact_failure_prob_grid(m_pairs: int, delta: float) -> float:
    """Float Bayes failure probability over the full M-fold outcome grid.

    (1/2) * sum of min(P0, P1) over all ((M+2)^2)^M cells, built by M-1
    outer products of the flattened atomic tables.
    """
    p0, p1 = atomic_tables(m_pairs, delta)
    v0, v1 = p0.ravel(), p1.ravel()
    a0, a1 = v0.copy(), v1.copy()
    for _ in range(m_pairs - 1):
        a0 = np.multiply.outer(a0, v0).ravel()
        a1 = np.multiply.outer(a1, v1).ravel()
    return float(0.5 * np.minimum(a0, a1).sum())


def inversion_walk(u: float, n: int, p: float) -> int:
    """numpy's binomial inversion walk on the one uniform ``u``, step by
    step: with p' = min(p, 1-p) and q = 1 - p', px starts at q^n, and while
    u > px the count goes up, u loses px and px steps to
    (n-x+1) p' px / (x q); the draw is the count, or n minus it for p > 1/2.
    numpy redraws a walk that passes its bound; this one stops at n."""
    pp = 1.0 - p if p > 0.5 else p
    q = 1.0 - pp
    x, px = 0, math.exp(n * math.log(q))
    while x < n and u > px:
        x += 1
        u -= px
        px = ((n - x + 1) * pp * px) / (x * q)
    return n - x if p > 0.5 else x


def mc_atomic_failure_prob_whole(m_pairs: int, delta: float, trials: int, rng):
    """The atomic Monte Carlo with every draw in one array per stratum:
    (half, M) int64 draws, one gather and one sum each.

    Its ``.sum(axis=1)`` adds the pairs left to right, as the kernel does,
    only for M < 8: from 8 terms numpy sums a contiguous axis pairwise, so an
    N = D tie may round the other way.  ``TestBlockedMonteCarlo`` uses
    M <= 6."""
    half = trials // 2
    p0, p1 = atomic_tables(m_pairs, delta)
    with np.errstate(divide="ignore"):
        l0 = np.log(p0.ravel())
        l1 = np.log(p1.ravel())
    width = m_pairs + 2
    errors = 0
    for b in (0, 1):
        p = 1.0 - delta
        n1, n2 = (m_pairs, m_pairs + 1) if b == 0 else (m_pairs + 1, m_pairs)
        first = rng.binomial(n1, p, size=(half, m_pairs))
        second = rng.binomial(n2, p, size=(half, m_pairs))
        idx = first * width + second
        s0 = l0[idx].sum(axis=1)
        s1 = l1[idx].sum(axis=1)
        decided = np.where(s0 >= s1, 0, 1)
        errors += int((decided != b).sum())
    total = 2 * half
    p_hat = errors / total
    return p_hat, math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / total)


def mc_prlp_exact_match_whole(m_pairs: int, delta: float, b_len: int, trials: int, rng):
    """The PRLP exact-match rate with all (trials, M, B) draws in one array.
    Its sum over the middle axis adds the pairs left to right at any M."""
    p0, p1 = atomic_tables(m_pairs, delta)
    with np.errstate(divide="ignore"):
        l0 = np.log(p0.ravel())
        l1 = np.log(p1.ravel())
    width = m_pairs + 2
    p = 1.0 - delta
    z = rng.integers(0, 2, size=(trials, b_len), dtype=np.int64)
    n1 = np.broadcast_to((m_pairs + z)[:, None, :], (trials, m_pairs, b_len))
    n2 = np.broadcast_to((m_pairs + 1 - z)[:, None, :], (trials, m_pairs, b_len))
    first = rng.binomial(n1, p)
    second = rng.binomial(n2, p)
    idx = first * width + second
    s0 = l0[idx].sum(axis=1)
    s1 = l1[idx].sum(axis=1)
    z_hat = (s0 < s1).astype(np.int64)
    return float((z_hat == z).all(axis=1).mean())


def pattern_occurrences_naive(x, alpha, beta, limit) -> list:
    """The first `limit` leftmost non-overlapping occurrences of alpha or
    beta (of one common length), as 1-based closed intervals: try every
    start in turn, and jump past each hit."""
    s, a, b = str(x), str(alpha), str(beta)
    out: list = []
    i = 0
    while i + len(a) <= len(s) and len(out) < limit:
        if s[i : i + len(a)] in (a, b):
            out.append(Interval(i + 1, i + len(a)))
            i += len(a)
        else:
            i += 1
    return out
