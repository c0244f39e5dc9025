from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracerecon import (
    BitString,
    EmbeddingSpec,
    Interval,
    build_alpha_beta,
    compose_traces,
    decode_prlp_bayes,
    edit_distance,
    embed_instance,
    exact_atomic_failure_prob,
    extract_z,
    find_pattern_occurrences,
    mc_atomic_failure_prob,
    mc_prlp_exact_match,
    random_bits,
    sample_prlp,
    simulate_aprlp,
)
from tracerecon.lower_bound import (
    _BLOCK,
    _bayes_ones,
    _binomial,
    _log_tables,
    _walk_cuts,
    atomic_tables,
)
from tracerecon.rng import stream

from .oracles import (
    exact_failure_prob_grid,
    exact_failure_prob_naive,
    inversion_walk,
    mc_atomic_failure_prob_whole,
    mc_prlp_exact_match_whole,
    pattern_occurrences_naive,
)


class TestAtomicTables:
    def test_supports(self):
        p0, p1 = atomic_tables(2, 0.3)
        assert p0.shape == p1.shape == (4, 4)
        # D0 first coordinate cannot reach M+1; D1 second cannot
        assert p0[3, :].sum() == 0 and p1[:, 3].sum() == 0
        assert p0.sum() == pytest.approx(1.0)
        assert p1.sum() == pytest.approx(1.0)

    def test_swap_symmetry(self):
        p0, p1 = atomic_tables(3, 0.2)
        assert np.allclose(p0, p1.T)

    def test_likelihood_identity(self):
        # the (M, M-1) outcome is exactly 2x likelier per pair under D1, and
        # every cell has P0/P1 = (M+1-a)/(M+1-b), free of delta: the
        # factorization behind exact_atomic_failure_prob
        for m in range(1, 7):
            for delta in (0.1, 0.25, 0.5):
                p0, p1 = atomic_tables(m, delta)
                lhs = p0[m, m - 1] ** m
                rhs = 2.0**-m * p1[m, m - 1] ** m
                assert lhs == pytest.approx(rhs, rel=1e-12)
                for a in range(m + 2):
                    for b in range(m + 2):
                        assert p0[a, b] * (m + 1 - b) == pytest.approx(
                            p1[a, b] * (m + 1 - a), rel=1e-12, abs=0.0
                        )


def atomic_games(b: int, m: int, delta: float, rows: int, rng) -> np.ndarray:
    """`rows` atomic games of M pairs each from D_b, shape (rows, M, 2): one
    PRLP draw at z = b^rows, whose (M, rows) pairs are all iid from D_b."""
    return sample_prlp(BitString([b] * rows), m, delta, rng).reshape(rows, m, 2)


def decide(pairs, m: int, delta: float) -> int:
    """The Bayes decision on one atomic game's M pairs: a PRLP decode at
    one coordinate, samples of shape (M, 1, 2)."""
    return decode_prlp_bayes(np.reshape(pairs, (m, 1, 2)), m, delta).bit(1)


class TestSampleAtomic:
    def test_delta_zero(self, rng):
        assert (atomic_games(0, 3, 0.0, 10, rng) == [3, 4]).all()
        assert (atomic_games(1, 3, 0.0, 10, rng) == [4, 3]).all()

    def test_delta_one(self, rng):
        assert (atomic_games(1, 2, 1.0, 5, rng) == 0).all()

    def test_first_coordinate_mean(self):
        g = stream(31, 0)
        pairs = atomic_games(0, 1, 0.5, 10**5, g)
        mean = pairs[..., 0].mean()
        se = math.sqrt(1 * 0.5 * 0.5 / 10**5)
        assert abs(mean - 0.5) <= 3 * se


class TestBayesDecide:
    def test_impossible_under_d1(self):
        for m in (1, 2, 4):
            assert decide([(m, m + 1)] * m, m, 0.3) == 0

    def test_paper_outcome_decides_one(self):
        for m in (1, 2, 3):
            assert decide([(m, m - 1)] * m, m, 0.25) == 1

    def test_tie_breaks_to_zero(self):
        # M=1, delta=0.5: P0[(1,1)] = P1[(1,1)] = 0.25
        assert decide([(1, 1)], 1, 0.5) == 0

    def test_rejects_outside_support(self):
        with pytest.raises(ValueError):
            decide([(3, 3)], 1, 0.5)

    def test_one_rule_for_every_m(self):
        # the Monte Carlo block (rows, M) and the PRLP decoder (axis 0) sum
        # the pairs in one order, so they agree row for row, N = D ties
        # included; numpy's own sum of 8 or more terms along a contiguous
        # axis takes a pairwise order instead
        rows = 3000
        ties_past_7 = 0
        for m in (1, 4, 7, 8, 9, 12, 16):
            for delta in (0.1, 0.5):
                logs = _log_tables(m, delta)
                for b in (0, 1):
                    g = stream(67, m, b)
                    pairs = atomic_games(b, m, delta, rows, g)
                    ones = _bayes_ones(logs, pairs[..., 0], pairs[..., 1], axis=1)
                    # C order, as sample_prlp draws it
                    prlp = np.ascontiguousarray(pairs.transpose(1, 0, 2))
                    decoded = decode_prlp_bayes(prlp, m, delta)
                    assert np.array_equal(decoded.array, ones)
                    assert decode_prlp_bayes(pairs.transpose(1, 0, 2), m, delta) == decoded
                    n_d = (m + 1 - pairs).astype(object).prod(axis=1)
                    tie = n_d[:, 0] == n_d[:, 1]
                    ties_past_7 += int(tie.sum()) if m >= 8 else 0
        assert ties_past_7 > 0

    @pytest.mark.parametrize("delta", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_float_decision_is_exact_off_ties(self, m, delta):
        # every outcome of M pairs in the union support: wherever
        # N = prod(M+1-a_i) and D = prod(M+1-b_i) differ, the float log sums
        # decide 1 exactly when N < D; exact ties N = D may fall either way
        pairs = [(a, b) for a in range(m + 2) for b in range(m + 2) if (a, b) != (m + 1, m + 1)]
        outcomes = np.array(list(itertools.product(pairs, repeat=m)))  # (T, M, 2)
        n_d = (m + 1 - outcomes).prod(axis=1)
        off_tie = n_d[:, 0] != n_d[:, 1]
        want = n_d[off_tie, 0] < n_d[off_tie, 1]
        decoded = decode_prlp_bayes(outcomes.transpose(1, 0, 2), m, delta).array
        assert np.array_equal(decoded[off_tie], want)


class TestExactFailure:
    def test_frozen_value(self):
        assert exact_atomic_failure_prob(1, 0.5) == 0.3125
        assert exact_failure_prob_naive(1, Fraction(1, 2)) == Fraction(5, 16)

    def test_disjoint_supports_at_delta_zero(self):
        for m in range(1, 5):
            assert exact_atomic_failure_prob(m, 0.0) == 0.0

    def test_coin_flip_at_delta_one(self):
        # every bit deleted: both hypotheses give the all-zero outcome
        for m in range(1, 5):
            assert exact_atomic_failure_prob(m, 1.0) == 0.5

    def test_matches_brute_enumeration(self):
        for m in (1, 2):
            for delta in (Fraction(1, 10), Fraction(3, 10)):
                want = exact_failure_prob_naive(m, delta)
                assert exact_atomic_failure_prob(m, float(delta)) == pytest.approx(
                    float(want), rel=1e-12
                )

    def test_matches_grid_enumeration(self):
        # the small-delta tails are where a total-minus-prefix tail cancels
        for m in range(1, 5):
            for delta in (0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9, 1.0):
                want = exact_failure_prob_grid(m, delta)
                assert exact_atomic_failure_prob(m, delta) == pytest.approx(
                    want, rel=1e-12, abs=0.0
                )

    def test_rejects_bad_delta(self):
        for delta in (-0.1, 1.5):
            with pytest.raises(ValueError):
                exact_atomic_failure_prob(2, delta)

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            exact_atomic_failure_prob(5, 0.1)

    def test_sanity_floor(self):
        # failure probability stays above (delta*M)^(3M) in the small-delta
        # regime; a shape check, not a tight constant
        for m in range(1, 5):
            for delta in (1 / (8 * m), 1 / (4 * m)):
                p = exact_atomic_failure_prob(m, delta)
                assert p >= (delta * m) ** (3 * m)

    def test_monotone_in_delta(self):
        vals = [exact_atomic_failure_prob(2, d) for d in (0.05, 0.1, 0.2, 0.25)]
        assert vals == sorted(vals)

    def test_mc_agrees(self):
        g = stream(32, 0)
        for m, delta in [(1, 0.25), (2, 0.1), (3, 0.5)]:
            exact = exact_atomic_failure_prob(m, delta)
            p_hat, se = mc_atomic_failure_prob(m, delta, 200_000, g)
            assert abs(p_hat - exact) <= 4 * max(se, 1e-9)


class TestPrlp:
    def test_delta_zero_samples(self, rng):
        z = BitString("0110")
        s = sample_prlp(z, 2, 0.0, rng)
        assert s.shape == (2, 4, 2)
        for b, zb in enumerate("0110"):
            want = (2, 3) if zb == "0" else (3, 2)
            assert (s[:, b] == want).all()

    def test_delta_zero_decode(self, rng):
        z = BitString("010011")
        s = sample_prlp(z, 3, 0.0, rng)
        assert decode_prlp_bayes(s, 3, 0.0) == z

    def test_per_coordinate_error_rate(self):
        g = stream(34, 0)
        z = random_bits(10_000, g)
        s = sample_prlp(z, 1, 0.5, g)
        z_hat = decode_prlp_bayes(s, 1, 0.5)
        errs = (z.array != z_hat.array).mean()
        assert abs(errs - 0.3125) <= 0.015

    def test_exact_match_ceiling(self):
        g = stream(35, 0)
        rate = mc_prlp_exact_match(1, 0.5, 8, 100_000, g)
        ceiling = (1 - 0.3125) ** 8
        se = math.sqrt(ceiling * (1 - ceiling) / 100_000)
        assert rate <= ceiling + 4 * se

    @pytest.mark.parametrize("b_len, trials", [(0, 10), (8, 0)])
    def test_exact_match_rejects_an_empty_run(self, b_len, trials):
        with pytest.raises(ValueError, match="b_len >= 1 and trials >= 1"):
            mc_prlp_exact_match(4, 0.1, b_len, trials, stream(37, 0))

    def test_decode_shape_validation(self):
        with pytest.raises(ValueError):
            decode_prlp_bayes(np.zeros((2, 3)), 2, 0.1)


class TestBinomialSampler:
    """`_binomial` makes `Generator.binomial`'s draws, draw for draw, and
    leaves the generator in the same state."""

    PS = [0.0, 1e-3, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0]

    @pytest.mark.parametrize("p", PS)
    def test_scalar_n(self, p):
        for n in range(1, 27):
            g1, g2 = stream(60, n), stream(60, n)
            got = _binomial(g1, n, p, (7, 31))
            assert np.array_equal(got, g2.binomial(n, p, size=(7, 31)))
            assert g1.random() == g2.random()

    @pytest.mark.parametrize("n", [50, 100, 300])
    def test_scalar_n_past_26(self, n):
        # only where numpy still inverts; at n = 300, p = 0.1 the cut search
        # stops early, at the first cut at or above 1.0
        for p in (0.01, 0.05, 0.1, 0.9, 0.95, 0.99):
            if n * min(p, 1 - p) > 30:
                continue
            g1, g2 = stream(64, n), stream(64, n)
            got = _binomial(g1, n, p, (40, 50))
            assert np.array_equal(got, g2.binomial(n, p, size=(40, 50)))
            assert g1.random() == g2.random()
        if n == 300:
            assert len(_walk_cuts(n, 0.1, 1.0 - 0.1)) < n

    @pytest.mark.parametrize(
        "n, p", [(n, p) for n in (1, 5, 26) for p in (1e-3, 0.1, 0.5, 0.9)] + [(300, 0.1)]
    )
    def test_counts_at_every_cut(self, n, p):
        # a uniform lands on a cut with probability ~2^-53, so random draws
        # never tell a cut from its neighbour; feed the sampler each cut of
        # n and n + 1, the double below it, 0 and the largest double below 1
        # (at n = 300, p = 0.1 the cuts stop early, at the first >= 1.0)
        pp = min(p, 1.0 - p)
        cuts = _walk_cuts(n, pp, 1.0 - pp) + _walk_cuts(n + 1, pp, 1.0 - pp)
        us = [0.0, math.nextafter(1.0, 0.0)]
        us += cuts + [math.nextafter(c, 0.0) for c in cuts]
        n_col = np.array([n, n + 1])

        class Uniforms:
            def random(self, shape):
                return np.repeat(us, shape[1]).reshape(shape)

        got = _binomial(Uniforms(), n_col, p, (len(us), 2))
        want = [[inversion_walk(u, nj, p) for nj in n_col] for u in us]
        assert got.tolist() == want

    def test_no_double_drawn_at_p_zero(self):
        g, fresh = stream(61, 0), stream(61, 0)
        assert not _binomial(g, 5, 0.0, (100,)).any()
        assert not _binomial(g, np.array([5, 6]), 0.0, (3, 2)).any()
        assert g.random() == fresh.random()

    @pytest.mark.parametrize("p", PS)
    @pytest.mark.parametrize("m", [1, 4, 25])
    def test_z_indexed_n(self, m, p):
        # n is M or M+1 as z selects, on a (rows, M, B) shape, as in the
        # PRLP kernels
        g1, g2 = stream(62, m), stream(62, m)
        z = stream(63, m).integers(0, 2, size=(13, 1, 17))
        shape = (13, m, 17)
        for n in (m + z, m + 1 - z):
            got = _binomial(g1, n, p, shape)
            assert np.array_equal(got, g2.binomial(np.broadcast_to(n, shape), p))
        assert g1.random() == g2.random()

    @pytest.mark.parametrize("p", PS)
    def test_equal_entries_make_the_int_draws(self, p):
        g1, g2, g3 = stream(65, 0), stream(65, 0), stream(65, 0)
        got = _binomial(g1, np.full((3, 1, 17), 9), p, (3, 5, 17))
        assert np.array_equal(got, _binomial(g2, 9, p, (3, 5, 17)))
        assert np.array_equal(got, g3.binomial(9, p, size=(3, 5, 17)))
        assert g1.random() == g2.random() == g3.random()

    @pytest.mark.parametrize("lo, hi, p", [(3, 5, 0.1), (3, 5, 0.5), (3, 5, 0.9), (200, 201, 0.05)])
    def test_two_n_values(self, lo, hi, p):
        # n drawn from two values, which need not be adjacent; n >= 128
        # takes the int64 counts
        g1, g2 = stream(66, lo), stream(66, lo)
        n = np.array([lo, hi])[stream(67, 0).integers(0, 2, size=(11, 1, 13))]
        shape = (11, 6, 13)
        got = _binomial(g1, n, p, shape)
        want = g2.binomial(np.broadcast_to(n, shape), p)
        assert np.array_equal(got, want)
        assert got.dtype == (np.int64 if hi >= 128 else np.int8)
        assert g1.random() == g2.random()


class TestBlockedMonteCarlo:
    """The block-drawn kernels make the same draws, in the same order, with
    the same float sums as one whole-array draw."""

    @staticmethod
    def _same(run, ref, seed):
        g1, g2 = stream(seed, 0), stream(seed, 0)
        assert run(g1) == ref(g2)
        assert g1.random() == g2.random()

    def test_atomic_matches_whole_draw(self):
        rows = {m: _BLOCK // m for m in (1, 3, 4)}
        cases = [
            (2, 0.25, 101),  # odd trials, far below one block
            (1, 0.5, 3),
            (4, 0.1, 2001),
            (4, 0.1, 4 * rows[4]),  # half is an exact multiple of the block rows
            (3, 0.05, 2 * rows[3] + 1),  # one full block, odd trials
            (1, 0.3, 2 * (rows[1] + 5) + 1),  # one row past a block
            (6, 0.25, 999),
        ]
        for i, (m, delta, trials) in enumerate(cases):
            self._same(
                lambda g: mc_atomic_failure_prob(m, delta, trials, g),
                lambda g: mc_atomic_failure_prob_whole(m, delta, trials, g),
                40 + i,
            )

    def test_prlp_matches_whole_draw(self):
        cases = [
            (4, 0.1, 64, 2 * (_BLOCK // 256)),  # exact multiple of the block rows
            (4, 0.1, 64, 257),
            (2, 0.3, 5, 101),
            (1, 0.5, 8, 9000),
            (1, 0.3, 70_000, 3),  # M*B above one block: one row per block
        ]
        for i, (m, delta, b_len, trials) in enumerate(cases):
            self._same(
                lambda g: mc_prlp_exact_match(m, delta, b_len, trials, g),
                lambda g: mc_prlp_exact_match_whole(m, delta, b_len, trials, g),
                50 + i,
            )

    def test_peak_memory(self):
        # each call builds its own (M+2)^2 likelihood tables, so the peak
        # counts them too; at M=4 they are 36 floats each
        g = stream(36, 0)
        checks = [
            (lambda: exact_atomic_failure_prob(4, 0.1), 1),
            (lambda: mc_atomic_failure_prob(4, 0.1, 10**5, g), 6),
            (lambda: mc_prlp_exact_match(4, 0.1, 64, 4000, g), 12),
        ]
        for run, mib in checks:
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < mib * 2**20


class TestAlphaBeta:
    def test_expansions(self):
        assert tuple(map(str, build_alpha_beta(1))) == ("010011", "001011")
        assert tuple(map(str, build_alpha_beta(2))) == ("00100011", "00010011")

    @given(st.integers(min_value=1, max_value=10))
    def test_structure(self, m):
        a, b = build_alpha_beta(m)
        assert len(a) == len(b) == 2 * m + 4
        assert a != b
        assert b.tobytes() not in a.tobytes() and a.tobytes() not in b.tobytes()

    def test_spec_build(self):
        spec = EmbeddingSpec.build(1, 32)
        assert len(spec.alpha) == 6 and spec.n == 6 * 64 * 32
        assert str(spec.alpha) == "010011"


class TestOccurrences:
    def test_adjacent_markers(self):
        spec = EmbeddingSpec.build(1, 2)
        x = BitString(spec.alpha.tobytes() + spec.beta.tobytes())
        occs = find_pattern_occurrences(x, spec)
        assert occs == [Interval(1, 6), Interval(7, 12)]

    def test_no_occurrence(self):
        spec = EmbeddingSpec.build(1, 2)
        assert find_pattern_occurrences(BitString("1" * 40), spec) == []

    def test_limit(self):
        # the scan stops at spec.B occurrences
        spec = EmbeddingSpec.build(1, 3)
        x = BitString(str(spec.alpha) * 5)
        assert len(find_pattern_occurrences(x, spec)) == 3

    def test_disjoint_on_random(self):
        g = stream(36, 0)
        # B = 8's carrier, scanned for up to 50 markers
        spec = EmbeddingSpec.build(1, 50)
        for _ in range(20):
            x = random_bits(EmbeddingSpec.build(1, 8).n, g)
            occs = find_pattern_occurrences(x, spec)
            for a, b in zip(occs, occs[1:]):
                assert a.hi < b.lo
            for o in occs:
                w = x.subword(o.lo, o.hi)
                assert w in (spec.alpha, spec.beta)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    def test_matches_naive_on_marker_dense_strings(self, m):
        # concatenations of markers and short junk put occurrences next to
        # each other and junk-made ones across the joins
        g = stream(37, m)
        spec = EmbeddingSpec.build(m, 4)
        a, b = str(spec.alpha), str(spec.beta)
        for _ in range(300):
            parts = []
            for _ in range(int(g.integers(0, 12))):
                r = g.random()
                junk = str(random_bits(int(g.integers(0, 5)), g))
                parts.append(a if r < 0.35 else b if r < 0.7 else junk)
            x = BitString("".join(parts))
            # x joins at most 11 parts, none longer than a marker, so B = 12
            # finds every occurrence
            for b_len in (1, 3, 10, 12):
                want = pattern_occurrences_naive(x, spec.alpha, spec.beta, b_len)
                assert find_pattern_occurrences(x, EmbeddingSpec.build(m, b_len)) == want


class TestEmbedExtract:
    def test_frozen_example(self):
        spec = EmbeddingSpec.build(1, 1)
        x_prime = BitString("010011" + "111111")
        out = embed_instance(BitString("1"), x_prime, spec)
        assert str(out) == "001011" + "111111"

    def test_no_occurrences_unchanged(self):
        spec = EmbeddingSpec.build(1, 2)
        x_prime = BitString("1" * 30)
        assert embed_instance(BitString("01"), x_prime, spec) == x_prime

    def test_idempotent_when_matching(self):
        spec = EmbeddingSpec.build(1, 2)
        x_prime = BitString(spec.alpha.tobytes() + spec.beta.tobytes())
        assert embed_instance(BitString("01"), x_prime, spec) == x_prime

    def test_extract_frozen(self):
        spec = EmbeddingSpec.build(1, 2)
        x = BitString(spec.beta.tobytes() + spec.alpha.tobytes())
        assert str(extract_z(x, spec)) == "10"
        assert str(extract_z(BitString("111111111"), spec)) == ""

    def test_extract_inverts_embed_random(self):
        g = stream(37, 0)
        spec = EmbeddingSpec.build(1, 4)
        for _ in range(200):
            x_prime = random_bits(spec.n // 8, g)
            occs = find_pattern_occurrences(x_prime, spec)
            z = random_bits(4, g)
            x = embed_instance(z, x_prime, spec)
            got = extract_z(x, spec)
            want = str(z)[: len(occs)]
            assert str(got) == want

    def test_edit_distance_transfer(self):
        # perturbations outside the marker intervals cannot corrupt more
        # decoded bits than twice the damage, marker flips cost two each way
        g = stream(38, 0)
        spec = EmbeddingSpec.build(1, 6)
        x_prime = random_bits(spec.n // 4, g)
        z = random_bits(6, g)
        x = embed_instance(z, x_prime, spec)
        occs = find_pattern_occurrences(x, spec)
        z_true = extract_z(x, spec)
        # flip one marker: alpha <-> beta at the first occurrence
        if occs:
            o = occs[0]
            flipped = BitString(
                str(x)[: o.lo - 1]
                + str(spec.beta if x.subword(o.lo, o.hi) == spec.alpha else spec.alpha)
                + str(x)[o.hi :]
            )
            d_x = edit_distance(x, flipped)
            z_hat = extract_z(flipped, spec)
            lz = min(len(z_true), len(z_hat))
            d_z = edit_distance(z_true, z_hat)
            assert d_z <= 2 * d_x


def chi2_tail_odd(x: float, dof: int) -> float:
    """P(X > x) for X chi-squared with an odd number ``dof`` of degrees of
    freedom, in closed form: with c = sqrt(x),
    erfc(c / sqrt 2) + sqrt(2 / pi) e^(-x/2) * sum over r = 1 .. (dof - 1) / 2
    of c^(2r - 1) / (1 * 3 * ... * (2r - 1))."""
    if dof % 2 != 1:
        raise ValueError("dof must be odd")
    c = math.sqrt(x)
    term, series = c, 0.0
    for r in range(1, (dof - 1) // 2 + 1):
        series += term
        term *= x / (2 * r + 1)
    return math.erfc(c / math.sqrt(2)) + math.sqrt(2 / math.pi) * math.exp(-x / 2) * series


class TestEmbeddingUniformity:
    @pytest.mark.parametrize("x,want", [(63.0, 0.47630238333813013), (100.0, 0.002077236552784822)])
    def test_chi2_tail_closed_form(self, x, want):
        # scipy.stats.chi2.sf(x, 63); dof 1 is erfc alone, dof 3 adds one term
        assert chi2_tail_odd(x, 63) == pytest.approx(want, rel=1e-12, abs=0)
        assert chi2_tail_odd(x / 40, 1) == pytest.approx(math.erfc(math.sqrt(x / 80)), rel=1e-15)
        c = math.sqrt(x / 40)
        want3 = math.erfc(c / math.sqrt(2)) + math.sqrt(2 / math.pi) * c * math.exp(-x / 80)
        assert chi2_tail_odd(x / 40, 3) == pytest.approx(want3, rel=1e-15)

    def test_embedded_string_is_uniform(self):
        # embedding a uniform z into a uniform carrier leaves the result
        # uniform; check any fixed 6 positions with a chi-squared test
        spec = EmbeddingSpec.build(1, 2)
        g = stream(50, 0)
        trials = 100_000
        positions = np.array([0, 100, 250, 400, 550, 700])
        weights = 1 << np.arange(6)[::-1]
        counts = np.zeros(64, dtype=np.int64)
        # the bits of random_bits(2, g) then random_bits(spec.n, g), drawn
        # ten thousand trials at a time: each call takes whole 32-bit words,
        # so z is the first 2 of a row's 4 leading bytes
        for _ in range(10):
            draws = g.integers(0, 2, size=(trials // 10, 4 + spec.n), dtype=np.uint8)
            for row in draws:
                x = embed_instance(BitString(row[:2].tobytes()), BitString(row[4:].tobytes()), spec)
                counts[int(x.array[positions] @ weights)] += 1
        expected = trials / counts.size
        stat = float(((counts - expected) ** 2 / expected).sum())
        pvalue = chi2_tail_odd(stat, counts.size - 1)
        assert pvalue > 1e-3


class TestComposeTraces:
    def test_delta_zero_reconstructs_embedded_string(self, rng):
        # at delta = 0 each composed trace IS the embedded string
        z = BitString("0110")
        s = sample_prlp(z, 3, 0.0, rng)
        spec = EmbeddingSpec.build(3, 4)
        x_prime = random_bits(spec.n // 16, rng)
        traces = compose_traces(s, x_prime, 0.0, rng)
        want = embed_instance(z, x_prime, spec)
        # only the first min(4, #occurrences) bits of z are embedded
        for t in traces:
            assert t == want

    @pytest.mark.parametrize("z", ["00", "01", "11"])
    def test_delta_zero_more_markers_than_bits(self, rng, z):
        # three markers, B = 2: only the first two take sample runs, and the
        # third comes through with the gaps as x_prime has it
        spec = EmbeddingSpec.build(2, 2)
        a, b = str(spec.alpha), str(spec.beta)
        x_prime = BitString("111" + b + "0110" + a + "1" + b + "11")
        assert len(find_pattern_occurrences(x_prime, EmbeddingSpec.build(2, 3))) == 3
        s = sample_prlp(BitString(z), 2, 0.0, rng)
        want = embed_instance(BitString(z), x_prime, spec)
        assert want != x_prime
        assert compose_traces(s, x_prime, 0.0, rng) == [want, want]

    def test_delta_zero_no_markers(self, rng):
        # no marker occurrence: the whole carrier comes through as-is
        spec = EmbeddingSpec.build(2, 2)
        x_prime = BitString("1" * 30)
        s = sample_prlp(BitString("01"), 2, 0.0, rng)
        assert embed_instance(BitString("01"), x_prime, spec) == x_prime
        assert compose_traces(s, x_prime, 0.0, rng) == [x_prime, x_prime]

    def test_trace_lengths_at_noise(self):
        g = stream(39, 0)
        z = BitString("01")
        s = sample_prlp(z, 2, 0.2, g)
        x_prime = random_bits(1000, g)
        traces = compose_traces(s, x_prime, 0.2, g)
        assert len(traces) == 2
        for t in traces:
            assert len(t) <= 1000

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 3), (2, 3, 2, 1)])
    def test_rejects_samples_not_shaped_m_b_2(self, rng, shape):
        x_prime = random_bits(1000, rng)
        with pytest.raises(ValueError, match="shape"):
            compose_traces(np.zeros(shape, dtype=np.int64), x_prime, 0.1, rng)


class TestSimulateAprlp:
    def test_delta_zero_first_trace_recovers_z(self):
        g = stream(40, 0)
        z = BitString("0110")
        s = sample_prlp(z, 3, 0.0, g)
        got = simulate_aprlp(s, lambda traces: traces[0], 0.0, 4, g)
        assert got == z

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            simulate_aprlp(np.zeros((2, 3)), lambda t: t[0], 0.1, 3, rng)

    def test_noisy_error_monotone_in_delta(self):
        # qualitative: more channel noise, worse recovery of z
        def run(delta, seed):
            g = stream(41, seed)
            total = 0
            for _ in range(10):
                z = random_bits(16, g)
                s = sample_prlp(z, 3, delta, g)
                z_hat = simulate_aprlp(s, lambda tr: tr[0], delta, 16, g)
                total += edit_distance(z, z_hat)
            return total

        assert run(0.0, 1) == 0
        assert run(0.0, 1) <= run(0.02, 2) <= run(0.2, 3)
