"""Hardness side: how well can any reconstructor do with few traces?

Three layers, each executable:

1. Atomic problem: distinguish D0 = Bin(M,1-d) x Bin(M+1,1-d) from its
   coordinate swap D1, given M sample pairs.  One pair's likelihood ratio
   P0/P1 = (M+1-a)/(M+1-b) does not depend on d, so the Bayes decision
   compares N = prod(M+1-a_i) with D = prod(M+1-b_i), which are independent
   under D0.  The optimal (Bayes) failure probability is computed exactly
   from the pmfs of N and D for small M and estimated by Monte Carlo
   otherwise.
2. Paired run length problem (PRLP): B independent atomic instances, hidden
   vector z in {0,1}^B.  Product structure makes the coordinatewise Bayes
   decoder optimal for exact recovery, with Pr[z_hat = z] <= (1-p)^B.  An
   atomic instance is a PRLP instance with B = 1: `sample_prlp` draws it
   and `decode_prlp_bayes` decides it.
3. Embedding: the marker words alpha = 0^M 1 0^(M+1) 11 and
   beta = 0^(M+1) 1 0^M 11 encode a PRLP instance inside a uniformly random
   string; composite traces built from PRLP samples are distributed exactly
   like deletion-channel traces of the embedded string, so any trace
   reconstructor induces a PRLP decoder.

Every binomial draw comes from one sampler, `_binomial`, which inverts one
uniform double per draw.  numpy's inversion walk counts a non-decreasing step
function of the uniform, so the sampler finds the walk's cut points once per
distinct n per call and counts the cuts at or below each uniform; it makes
`Generator.binomial`'s draws wherever numpy inverts (n * min(p, 1-p) <= 30).
Every Bayes decider sums its pairs' log-likelihoods left to right, in
`_bayes_ones`.  Wherever N and D differ, the float decision is the exact
comparison; an exact tie N = D (P0 = P1, where either decision is
Bayes-optimal) falls either way with the rounding of the sums.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .strings import BitString, Interval, random_bits

__all__ = [
    "atomic_tables",
    "exact_atomic_failure_prob",
    "mc_atomic_failure_prob",
    "sample_prlp",
    "decode_prlp_bayes",
    "mc_prlp_exact_match",
    "build_alpha_beta",
    "EmbeddingSpec",
    "find_pattern_occurrences",
    "embed_instance",
    "extract_z",
    "compose_traces",
    "simulate_aprlp",
]


def _binom_row(n: int, p: float, kmax: int) -> np.ndarray:
    """pmf of Bin(n, p) over k = 0..kmax (zero beyond the support)."""
    out = np.zeros(kmax + 1)
    for k in range(min(n, kmax) + 1):
        out[k] = math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
    return out


def _walk_passes(u: float, pxs: list[float]) -> bool:
    """Whether numpy's inversion walk from the uniform `u` steps past every
    px in `pxs`: at each step the walk goes on while u > px, then u -= px."""
    for px in pxs:
        if not u > px:
            return False
        u -= px
    return True


def _walk_cuts(n: int, pp: float, q: float) -> list[float]:
    """The inversion walk's cut points for Bin(n, pp), q = 1 - pp, as a list
    whose entry k-1 is the least double from which the walk counts at least
    k, for every such cut below 1.0 (no uniform reaches the rest).

    Each step u -= px is monotone in u, so the walk's count is a
    non-decreasing step function of the uniform and these cuts determine
    it.  A cut is found from the exactly rounded sum of the first k px,
    stepped one double at a time: down while the double below still
    passes, then up while the cut fails."""
    pxs = []
    px = math.exp(n * math.log(q))
    for k in range(n):
        pxs.append(px)
        px = ((n - k) * pp * px) / ((k + 1) * q)
    cuts = []
    for k in range(1, n + 1):
        head = pxs[:k]
        cut = math.fsum(head)
        while _walk_passes(below := math.nextafter(cut, -math.inf), head):
            cut = below
        while not _walk_passes(cut, head):
            cut = math.nextafter(cut, math.inf)
        if cut >= 1.0:
            break
        cuts.append(cut)
    return cuts


def _binomial(
    rng: np.random.Generator, n: int | np.ndarray, p: float, shape: tuple[int, ...]
) -> np.ndarray:
    """Bin(n, p) draws of the given shape, by inversion from one uniform
    double per draw; `n` is an int or an int array that broadcasts to `shape`.

    The draws are numpy's own inversion walk's: with p' = min(p, 1-p) and
    q = 1 - p', px starts at q^n and steps to (n-x+1) p' px / (x q) while the
    uniform exceeds it, the uniform losing px at each step, and a draw for
    p > 1/2 is n minus the walk's count.  That count is a non-decreasing
    step function of the uniform, so it is read off the walk's cut points
    (`_walk_cuts`, found once per distinct n per call): a draw is the number
    of its own n's cuts at or below its uniform, counted in one pass per n
    (one pass in all for an int n).  Wherever `Generator.binomial` inverts
    (n p' <= 30) the draws therefore equal its draws, and the generator is
    left in the same state.  The one exception is numpy's redraw of a walk
    that rounding carries past every outcome (probability below 1e-17 at
    these n); this walk stops at n instead.  Beyond n p' = 30 numpy switches
    to BTPE, so the stream differs there, but this is still an exact
    inverse-CDF sampler.  At p = 0 no double is drawn, as in numpy.
    """
    n_arr = np.asarray(n)
    hi = int(n_arr.max(initial=0))
    lo = int(n_arr.min(initial=hi))
    dtype = np.int8 if hi < 128 else np.int64
    if p == 0.0:
        return np.zeros(shape, dtype=dtype)
    pp = min(p, 1.0 - p)
    q = 1.0 - pp
    u = rng.random(shape)
    act = np.empty(shape, dtype=bool)
    for nj in range(lo, hi + 1):
        xj = np.zeros(shape, dtype=dtype)
        for cut in _walk_cuts(nj, pp, q):
            np.greater_equal(u, cut, out=act)
            if not act.any():
                break
            xj += act
        if p > 0.5:
            np.subtract(nj, xj, out=xj)
        # a masked blend: np.where on int8 with a broadcast mask is ~20x slower
        x = xj if nj == lo else x + (n_arr == nj) * (xj - x)
    return x


def _check_params(m_pairs: int, delta: float) -> None:
    if m_pairs < 1:
        raise ValueError("M must be >= 1")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0, 1]")


def atomic_tables(m_pairs: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """(p0, p1): pmf grids of shape (M+2, M+2) over the union support.

    p0[a, b] = Pr[Bin(M,1-d)=a] * Pr[Bin(M+1,1-d)=b]; p1 swaps the roles.
    Cells outside a distribution's support are exactly 0.
    """
    _check_params(m_pairs, delta)
    p = 1.0 - delta
    kmax = m_pairs + 1
    row_m = _binom_row(m_pairs, p, kmax)
    row_m1 = _binom_row(m_pairs + 1, p, kmax)
    return np.outer(row_m, row_m1), np.outer(row_m1, row_m)


def _validate_pairs(pairs: np.ndarray, m_pairs: int) -> None:
    # union of the two supports: [0:M]x[0:M+1] or [0:M+1]x[0:M]
    a, b = pairs[..., 0], pairs[..., 1]
    bad = (a < 0) | (b < 0) | (a > m_pairs + 1) | (b > m_pairs + 1) | ((a == m_pairs + 1) & (b == m_pairs + 1))
    if bad.any():
        raise ValueError("pair outside the union of the two supports")


EXACT_MAX_M = 4  # largest M whose outcomes exact_atomic_failure_prob enumerates


def exact_atomic_failure_prob(m_pairs: int, delta: float) -> float:
    """Bayes failure probability from the likelihood-ratio factorization.

    p = (1/2) * sum over outcomes of min(P0, P1).  One pair's ratio is
    P0/P1 = (M+1-a)/(M+1-b), free of delta, so over M pairs it is N/D with
    N = prod(M+1-a_i) >= 1 and D = prod(M+1-b_i), independent under D0.
    Hence p = (1/2) * E0[min(1, D/N)], read off the pmfs of N and D: over
    n, sum(d * P_D(d) for d < n) / n plus sum(P_D(d) for d >= n).  The tail
    is its own suffix sum, not the total minus a prefix, which would lose
    the small tails to cancellation.  Kept to 1 <= M <= ``EXACT_MAX_M``.
    """
    if not 1 <= m_pairs <= EXACT_MAX_M:
        raise ValueError(
            f"exact failure supports 1 <= M <= {EXACT_MAX_M}; use the Monte Carlo variant")
    _check_params(m_pairs, delta)
    p = 1.0 - delta
    n_vals, n_pmf = _ratio_pmf(m_pairs, _binom_row(m_pairs, p, m_pairs))
    d_vals, d_pmf = _ratio_pmf(m_pairs, _binom_row(m_pairs + 1, p, m_pairs + 1))
    order = np.argsort(d_vals, kind="stable")
    d_vals, d_pmf = d_vals[order], d_pmf[order]
    below = np.concatenate(([0.0], np.cumsum(d_vals * d_pmf)))
    at_or_above = np.concatenate((np.cumsum(d_pmf[::-1])[::-1], [0.0]))
    cut = np.searchsorted(d_vals, n_vals, side="left")
    return float(0.5 * np.dot(n_pmf, below[cut] / n_vals + at_or_above[cut]))


def _ratio_pmf(m_pairs: int, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, probabilities) of prod(M+1-k_i) over M independent k_i with
    pmf `row` on 0..len(row)-1, one entry per M-tuple."""
    factor = float(m_pairs + 1) - np.arange(row.size)
    vals, pmf = factor, row
    for _ in range(m_pairs - 1):
        vals = np.multiply.outer(vals, factor).ravel()
        pmf = np.multiply.outer(pmf, row).ravel()
    return vals, pmf


# Elements per block of Monte Carlo draws: bounds the int64/float64
# temporaries whatever the trial count.
_BLOCK = 1 << 16


def _log_tables(m_pairs: int, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Log pmfs of D0 and D1, each of shape (M+2, M+2): entry [a, b] is
    log p[a, b], -inf outside the distribution's support."""
    p0, p1 = atomic_tables(m_pairs, delta)
    with np.errstate(divide="ignore"):
        return np.log(p0), np.log(p1)


def _bayes_ones(
    logs: tuple[np.ndarray, np.ndarray], first: np.ndarray, second: np.ndarray, axis: int
) -> np.ndarray:
    """The Bayes decision over the pairs ``(first, second)`` along ``axis``,
    given ``logs = _log_tables(M, delta)``: True (decide 1) where the summed
    float log-likelihood under D0 is below the one under D1.  An exact tie
    N = D (P0 = P1, where either decision is Bayes-optimal) falls either way
    with the rounding of the sums.

    Every decider sums the pairs' log-likelihoods here, left to right along
    ``axis``, one pair at a time into one accumulator per hypothesis, so a
    tie falls the same way whichever decider meets it, whatever the number
    of pairs and the memory layout of the draws."""
    l0, l1 = logs
    idx = first.astype(np.int64) * l0.shape[1] + second
    l0, l1 = l0.ravel(), l1.ravel()
    lead = (slice(None),) * axis
    pair = idx[lead + (0,)]
    s0, s1 = l0[pair], l1[pair]
    for j in range(1, idx.shape[axis]):
        pair = idx[lead + (j,)]
        s0 += l0[pair]
        s1 += l1[pair]
    return s0 < s1


def mc_atomic_failure_prob(
    m_pairs: int, delta: float, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """(estimate, standard error) of the Bayes failure probability.

    Stratified over the hidden bit (half the trials each way; the problem is
    symmetric under the coordinate swap, so this is unbiased).  Draws are
    made in blocks of rows; the Generator fills arrays in C order, so the
    draws and their sums do not depend on the block size.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    half = trials // 2
    p = 1.0 - delta
    logs = _log_tables(m_pairs, delta)
    rows = max(1, _BLOCK // m_pairs)
    first = np.empty((half, m_pairs), dtype=np.min_scalar_type(m_pairs + 1))
    errors = 0
    for b in (0, 1):
        n1, n2 = (m_pairs, m_pairs + 1) if b == 0 else (m_pairs + 1, m_pairs)
        for r in range(0, half, rows):
            block = first[r : r + rows]
            block[...] = _binomial(rng, n1, p, block.shape)
        for r in range(0, half, rows):
            block = first[r : r + rows]
            second = _binomial(rng, n2, p, block.shape)
            # an exact tie may fall either way; there either decision is
            # Bayes-optimal, so the estimate stays unbiased
            errors += int((_bayes_ones(logs, block, second, axis=1) != b).sum())
    total = 2 * half
    p_hat = errors / total
    return p_hat, math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / total)


def sample_prlp(
    z: BitString, m_pairs: int, delta: float, rng: np.random.Generator
) -> np.ndarray:
    """M draws from D_z, as an int array of shape (M, B, 2); coordinate b of
    every draw follows D_{z_b}."""
    _check_params(m_pairs, delta)
    zb = z.array.astype(np.int64)
    b_len = zb.size
    p = 1.0 - delta
    first = _binomial(rng, m_pairs + zb, p, (m_pairs, b_len))
    second = _binomial(rng, m_pairs + 1 - zb, p, (m_pairs, b_len))
    return np.stack([first, second], axis=2).astype(np.int64)


def decode_prlp_bayes(samples: np.ndarray, m_pairs: int, delta: float) -> BitString:
    """Coordinatewise Bayes decoding: bit b is 0 iff the product likelihood
    of the M pairs at coordinate b under D0 is >= the one under D1, as sums
    of float log-likelihoods; samples of shape (M, 1, 2) decide one atomic
    instance.

    Wherever N = prod(M+1-a_i) and D = prod(M+1-b_i) differ, this is the
    exact comparison N >= D.  An exact tie N = D (P0 = P1, where either
    decision is Bayes-optimal) falls either way with the rounding of the sums.
    """
    s = np.asarray(samples, dtype=np.int64)
    if s.ndim != 3 or s.shape[0] != m_pairs or s.shape[2] != 2:
        raise ValueError("samples must have shape (M, B, 2)")
    _validate_pairs(s, m_pairs)
    return BitString(_bayes_ones(_log_tables(m_pairs, delta), s[:, :, 0], s[:, :, 1], axis=0))


def mc_prlp_exact_match(
    m_pairs: int, delta: float, b_len: int, trials: int, rng: np.random.Generator
) -> float:
    """Empirical Pr[z_hat = z] for the coordinatewise Bayes decoder, with z
    uniform per trial.  Vectorized across blocks of trials, drawn in the
    same order as one (trials, M, B) draw."""
    if b_len < 1 or trials < 1:
        raise ValueError("need b_len >= 1 and trials >= 1")
    logs = _log_tables(m_pairs, delta)
    p = 1.0 - delta
    z = rng.integers(0, 2, size=(trials, b_len), dtype=np.int64)
    rows = max(1, _BLOCK // (m_pairs * b_len))
    first = np.empty((trials, m_pairs, b_len), dtype=np.min_scalar_type(m_pairs + 1))
    for r in range(0, trials, rows):
        block = first[r : r + rows]
        block[...] = _binomial(rng, m_pairs + z[r : r + rows, None, :], p, block.shape)
    matches = 0
    for r in range(0, trials, rows):
        zb = z[r : r + rows]
        block = first[r : r + rows]
        second = _binomial(rng, m_pairs + 1 - zb[:, None, :], p, block.shape)
        matches += int((_bayes_ones(logs, block, second, axis=1) == zb).all(axis=1).sum())
    return matches / trials


# --- embedding ---------------------------------------------------------


def build_alpha_beta(m_pairs: int) -> tuple[BitString, BitString]:
    """The two marker words 0^M 1 0^(M+1) 11 and 0^(M+1) 1 0^M 11."""
    if m_pairs < 1:
        raise ValueError("M must be >= 1")
    alpha = BitString("0" * m_pairs + "1" + "0" * (m_pairs + 1) + "11")
    beta = BitString("0" * (m_pairs + 1) + "1" + "0" * m_pairs + "11")
    return alpha, beta


@dataclass(frozen=True)
class EmbeddingSpec:
    """B bits embedded one per marker occurrence in an n-bit carrier; the
    markers ``alpha``/``beta`` have N = 2M + 4 bits, and n = N * 2^N * B."""

    B: int
    n: int
    alpha: BitString
    beta: BitString

    @classmethod
    def build(cls, m_pairs: int, b_len: int) -> "EmbeddingSpec":
        if b_len < 1:
            raise ValueError("B must be >= 1")
        alpha, beta = build_alpha_beta(m_pairs)
        n_word = 2 * m_pairs + 4
        return cls(B=b_len, n=n_word * 2**n_word * b_len, alpha=alpha, beta=beta)


@functools.cache
def _marker_pattern(alpha: bytes, beta: bytes) -> re.Pattern[bytes]:
    """The compiled "alpha or beta" pattern of one marker pair."""
    return re.compile(re.escape(alpha) + b"|" + re.escape(beta))


def find_pattern_occurrences(x: BitString, spec: EmbeddingSpec) -> list[Interval]:
    """x's first min(B, #occurrences) occurrences of alpha or beta, B =
    ``spec.B``, scanned left to right.

    Occurrences of the marker words can never overlap, so the leftmost
    non-overlapping matches of "alpha or beta" are all of them.
    """
    markers = _marker_pattern(spec.alpha.tobytes(), spec.beta.tobytes())
    hits = itertools.islice(markers.finditer(x.tobytes()), spec.B)
    return [Interval(m.start() + 1, m.end()) for m in hits]


def embed_instance(z: BitString, x_prime: BitString, spec: EmbeddingSpec) -> BitString:
    """Rewrite the first min(B, #occurrences) marker occurrences of x_prime
    to spell out z (alpha for 0, beta for 1)."""
    if len(z) != spec.B:
        raise ValueError("z must have length B")
    occ = find_pattern_occurrences(x_prime, spec)
    arr = x_prime.array.copy()
    for k, iv in enumerate(occ):
        arr[iv.lo - 1 : iv.hi] = spec.beta.array if z.bit(k + 1) else spec.alpha.array
    return BitString(arr)


def extract_z(x_hat: BitString, spec: EmbeddingSpec) -> BitString:
    """Read bits back off the first min(B, #occurrences) marker occurrences,
    B = ``spec.B``: alpha reads 0, beta reads 1."""
    occ = find_pattern_occurrences(x_hat, spec)
    bits = [0 if x_hat.subword(iv.lo, iv.hi) == spec.alpha else 1 for iv in occ]
    return BitString(bits)


def _del_bits(bits: np.ndarray, delta: float, rng: np.random.Generator) -> np.ndarray:
    return bits[rng.random(bits.size) >= delta]


def compose_traces(
    samples: np.ndarray, x_prime: BitString, delta: float, rng: np.random.Generator
) -> list[BitString]:
    """Assemble M traces distributed exactly as deletion-channel traces of
    the embedded string, without knowing z; ``samples`` has shape (M, B, 2).

    The markers are x_prime's first min(B, #occurrences) marker
    occurrences, as in :func:`embed_instance`.  Each contributes
    0^(s_b1) Del(1) 0^(s_b2) Del(11) from its PRLP sample pair (the pair IS
    the post-deletion run-length pair); every gap between markers, and the
    head and tail, is deleted literally from x_prime, which the embedding
    leaves untouched.
    """
    s = np.asarray(samples, dtype=np.int64)
    if s.ndim != 3 or s.shape[2] != 2:
        raise ValueError("samples must have shape (M, B, 2)")
    spec = EmbeddingSpec.build(s.shape[0], s.shape[1])
    occs = find_pattern_occurrences(x_prime, spec)
    xarr = x_prime.array
    one = np.ones(1, dtype=np.uint8)
    two = np.ones(2, dtype=np.uint8)
    traces: list[BitString] = []
    for pairs in s:
        parts = []
        gap_lo = 0
        for (lo, hi), (s1, s2) in zip(occs, pairs):
            parts.append(_del_bits(xarr[gap_lo : lo - 1], delta, rng))
            parts.append(np.zeros(s1, dtype=np.uint8))
            parts.append(_del_bits(one, delta, rng))
            parts.append(np.zeros(s2, dtype=np.uint8))
            parts.append(_del_bits(two, delta, rng))
            gap_lo = hi
        parts.append(_del_bits(xarr[gap_lo:], delta, rng))
        traces.append(BitString(np.concatenate(parts)))
    return traces


def simulate_aprlp(
    samples: np.ndarray,
    reconstructor: Callable[[list[BitString]], BitString],
    delta: float,
    b_len: int,
    rng: np.random.Generator,
) -> BitString:
    """Turn a trace reconstructor into a PRLP decoder.

    Draws a fresh uniform carrier string, simulates M traces of the (never
    materialized) embedded string from the PRLP samples with
    ``compose_traces(samples, x_prime, delta, rng)``, reconstructs, and
    reads the decoded bits off the reconstruction's marker occurrences.
    The reconstructor receives the trace list; callers close over n and
    delta as needed.
    """
    s = np.asarray(samples, dtype=np.int64)
    if s.ndim != 3 or s.shape[2] != 2 or s.shape[1] != b_len:
        raise ValueError("samples must have shape (M, B, 2)")
    spec = EmbeddingSpec.build(s.shape[0], b_len)
    x_prime = random_bits(spec.n, rng)
    traces = compose_traces(s, x_prime, delta, rng)
    x_hat = reconstructor(traces)
    return extract_z(x_hat, spec)
