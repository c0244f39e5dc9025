from __future__ import annotations

import hashlib
import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from tracerecon import (
    BitString,
    apply_deletions,
    bma_run,
    random_bits,
    source_of,
    transmit,
)
from tracerecon.rng import stream

from .oracles import bma_literal_walk, bma_star, bma_with_provenance


def assert_matches_oracle(seqs, cursors, rounds):
    """bma_run agrees with the literal walk on the word, the final cursors,
    the emitted symbols and the margins."""
    out, final, diag = bma_run(seqs, cursors, rounds)
    word, history, symbols, margins = bma_literal_walk(seqs, cursors, rounds)
    assert out == word
    assert final == history[-1]
    assert diag.symbols == symbols
    assert diag.margins == margins


class TestBmaRun:
    def test_hand_example(self):
        seqs = [BitString("0101"), BitString("0101"), BitString("011")]
        out, final, diag = bma_run(seqs, [1, 1, 1], 4)
        assert str(out) == "0101"
        assert final == (5, 5, 4)
        assert diag.symbols == "0101"

    def test_identical_sequences(self, rng):
        x = random_bits(32, rng)
        out, final, _ = bma_run([x, x, x], [1, 1, 1], 32)
        assert out == x
        assert final == (33, 33, 33)

    def test_padding_yields_empty(self):
        out, final, diag = bma_run([BitString("0")], [1], 2)
        assert len(out) == 0
        assert diag.symbols == "0*"
        assert final == (3,)

    def test_start_cursors_past_end(self):
        # cursor beyond the sequence reads '*' immediately
        out, _, diag = bma_run([BitString("01")], [5], 1)
        assert len(out) == 0 and diag.symbols == "*"

    def test_cursors_far_past_end_against_oracle(self):
        # cursors 3 and 10 past the end read '*' on every round, also once
        # '*' wins the rounds and moves them further on
        seqs = [BitString("0110"), BitString("0110"), BitString("01"), BitString("1")]
        for rounds in (1, 6):
            assert_matches_oracle(seqs, [1, 1, 2 + 3, 1 + 10], rounds)
            assert_matches_oracle(seqs, [4 + 3, 4 + 10, 2 + 10, 1 + 3], rounds)

    def test_margins(self):
        seqs = [BitString("0101"), BitString("0101"), BitString("011")]
        _, _, diag = bma_run(seqs, [1, 1, 1], 4)
        assert len(diag.margins) == 4
        assert all(1 <= m <= 3 for m in diag.margins)
        assert diag.margins[0] == 3  # unanimous first round

    @given(
        st.lists(st.text(alphabet="01", max_size=24), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=32),
        st.data(),
    )
    def test_matches_literal_oracle(self, raw, rounds, data):
        seqs = [BitString(s) for s in raw]
        cursors = [
            data.draw(st.integers(min_value=1, max_value=len(s) + 2)) for s in raw
        ]
        assert_matches_oracle(seqs, cursors, rounds)

    def test_parked_and_short_traces_against_oracle(self):
        # the majority runs in long agreed stretches while two traces
        # dissent: one parked at cursor 1 of the whole source, one cut short
        # so that it votes '*' for the last rounds
        g = stream(21, 0)
        x = random_bits(400, g)
        segment = x.subword(101, 400)
        seqs = [transmit(segment, 0.01, g).trace for _ in range(23)]
        seqs.append(transmit(x, 0.01, g).trace)
        seqs.append(transmit(segment, 0.01, g).trace.subword(1, 150))
        assert_matches_oracle(seqs, [1] * 25, 250)

    def test_even_split_takes_the_tie_rule(self):
        # exactly half of the cursors agree on every round: no strict
        # majority, so each round breaks the tie 0 over 1
        ones, zeros = BitString("1" * 80), BitString("0" * 80)
        assert_matches_oracle([ones, ones, zeros, zeros], [1, 1, 1, 1], 70)
        out, _, diag = bma_run([ones, ones, zeros, zeros], [1, 1, 1, 1], 70)
        assert str(out) == "0" * 70
        assert diag.margins == (2,) * 70

    def test_majority_splits_within_a_run(self):
        # three of five sequences agree for 40 bits, then each goes its own
        # way; rounds span both stretches
        g = stream(22, 0)
        common = str(random_bits(40, g))
        seqs = [BitString(common + str(random_bits(100, g))) for _ in range(3)]
        seqs += [random_bits(140, g) for _ in range(2)]
        assert_matches_oracle(seqs, [1] * 5, 120)
        assert_matches_oracle(seqs, [1, 1, 1, 3, 7], 130)

    def test_short_runs_and_no_majority_against_oracle(self):
        # at delta=0.05 the majority agrees only over a few bits at a time,
        # so the runs shrink to their floor; unrelated sequences never hold
        # a majority, so the attempts back off between ordinary rounds; a
        # shared tail after an unrelated head brings the long runs back
        g = stream(23, 0)
        x = random_bits(300, g)
        assert_matches_oracle([transmit(x, 0.05, g).trace for _ in range(20)], [1] * 20, 250)
        assert_matches_oracle([random_bits(300, g) for _ in range(7)], [1] * 7, 280)
        tail = str(random_bits(300, g))
        seqs = [BitString(str(random_bits(20, g)) + tail) for _ in range(5)]
        assert_matches_oracle(seqs, [1] * 5, 300)

    def test_majority_runs_out_inside_one_step(self):
        # three of five voters end 20 bits in, so in the first 64-round step
        # their star-padded windows agree: a strict majority reads stars and
        # the step jumps, emitting them; the two longer voters dissent
        g = stream(24, 0)
        common = random_bits(20, g)
        seqs = [common] * 3 + [random_bits(100, g) for _ in range(2)]
        for rounds in (64, 100):
            assert_matches_oracle(seqs, [1] * 5, rounds)
            out, _, diag = bma_run(seqs, [1] * 5, rounds)
            assert len(out) == 0
            assert diag.symbols == str(common) + "*" * (rounds - 20)

    @given(
        st.lists(st.text(alphabet="01", min_size=1, max_size=16), min_size=1, max_size=5),
        st.text(alphabet="01", max_size=10),
        st.integers(min_value=1, max_value=20),
    )
    def test_prefix_invariance(self, raw, prefix, rounds):
        # output depends only on the suffixes at the start cursors
        seqs = [BitString(s) for s in raw]
        base = bma_run(seqs, [1] * len(seqs), rounds)
        shifted = bma_run(
            [BitString(prefix + s) for s in raw],
            [1 + len(prefix)] * len(seqs),
            rounds,
        )
        assert base[0] == shifted[0]
        assert tuple(c - len(prefix) for c in shifted[1]) == base[1]

    @given(
        st.lists(st.text(alphabet="01", max_size=20), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=24),
    )
    def test_cursor_budget(self, raw, rounds):
        # at most one advance per round ('*' symbols advance into padding too)
        seqs = [BitString(s) for s in raw]
        _, final, _ = bma_run(seqs, [1] * len(seqs), rounds)
        for c in final:
            assert 1 <= c <= rounds + 1


class TestPinnedVote:
    """One fixed-seed vote pinned across commits: a change meant only to be
    faster must leave the word, the final cursors, the emitted symbols and
    the margins byte-identical (the harness reports ``margin_min``)."""

    def test_fixed_seed_vote(self):
        g = stream(11, 0)
        x = random_bits(3000, g)
        reference = transmit(x, 1e-3, g).trace
        traces = [transmit(x, 1e-3, g).trace for _ in range(25)]
        out, final, diag = bma_run([reference, *traces], [3] + [1] * 25, 2900)
        payload = json.dumps([str(out), list(final), diag.symbols, list(diag.margins)])
        assert (
            hashlib.sha256(payload.encode()).hexdigest()
            == "e8ec3e26b904f1c07a8aaf9db9125e498be1a8a83653ac065a2a9c471b0c2830"
        )


class TestBmaWithProvenance:
    def test_zero_deletions_dist_zero(self, rng):
        x = random_bits(16, rng)
        recs = [apply_deletions(x, set()) for _ in range(3)]
        out, _, diag = bma_with_provenance(recs, [1, 1, 1], 16)
        assert out == x
        assert diag.dist is not None and (diag.dist == 0).all()

    def test_dist_jump_at_deletion(self):
        rec = apply_deletions(BitString("0110"), {2})
        _, _, diag = bma_with_provenance([rec], [1], 3)
        # crossing the deleted position bumps dist by one, then it holds
        assert diag.dist.tolist() == [[0, 1, 1, 1]]
        assert diag.last.tolist() == [[1, 3, 4, 5]]

    def test_dist_nonnegative_when_majority_tracks_source(self):
        # the claim applies when the emitted word follows the source string;
        # pin the majority with clean copies and watch the noisy minority
        g = stream(9, 0)
        for _ in range(25):
            x = random_bits(60, g)
            clean = [apply_deletions(x, set()) for _ in range(7)]
            noisy = []
            while len(noisy) < 3:
                rec = transmit(x, 0.08, g)
                if source_of(rec, 1) == 1:  # start cursor must map to source 1
                    noisy.append(rec)
            recs = clean + noisy
            out, _, diag = bma_with_provenance(recs, [1] * 10, 40)
            assert out == x.subword(1, 40)
            assert (diag.dist >= 0).all()

    def test_trace_missing_first_source_bit(self):
        # dist counts from the run's common source start, so a trace that
        # lost source bit 1 starts one deletion ahead instead of tripping
        # the assertion when it stalls at the end of the first run
        x = BitString("0110100111010010")
        recs = [apply_deletions(x, set()), apply_deletions(x, set()), apply_deletions(x, {1})]
        out, _, diag = bma_with_provenance(recs, [1, 1, 1], 15)
        assert out == x.subword(1, 15)
        assert diag.last[:, 0].tolist() == [1, 1, 2]
        assert diag.dist[2].tolist() == [1, 0] + [0] * 14

    def test_derailed_majority_trips_the_oracle(self):
        # a sequence that never matches the majority falls behind schedule;
        # the oracle is asserted, so it refuses such runs
        import pytest

        a = apply_deletions(BitString("000000"), set())
        b = apply_deletions(BitString("111111"), set())
        with pytest.raises(AssertionError):
            bma_with_provenance([a, a, b], [1, 1, 1], 6)


class TestBmaStar:
    def test_zero_deletion_walk(self, rng):
        x = random_bits(20, rng)
        rec = apply_deletions(x, set())
        z = x.subword(1, 8)
        assert bma_star(rec, 1, z) == 9  # i + R with i = 1, R = 8

    def test_never_matching(self):
        x = BitString("0000")
        rec = apply_deletions(x, set())
        assert bma_star(rec, 2, BitString("111")) == source_of(rec, 2)

    def test_deletion_example(self):
        x = BitString("00110101")
        rec = apply_deletions(x, {3})
        z = x.subword(1, 4)
        out = bma_star(rec, 1, z)
        assert out >= 5  # at least i + R

    @given(st.text(alphabet="01", min_size=4, max_size=30), st.data())
    def test_lower_bound_zero_deletions(self, s, data):
        # with no deletions and z = x[i : i+r-1], the walk ends at i + r
        x = BitString(s)
        rec = apply_deletions(x, set())
        i = data.draw(st.integers(min_value=1, max_value=len(s) - 2))
        r = data.draw(st.integers(min_value=1, max_value=len(s) - i))
        z = x.subword(i, i + r - 1)
        assert bma_star(rec, i, z) == i + r


class TestDesertFreeExactness:
    def test_small_scale(self):
        # shape check at reduced scale: desert-free word, light noise
        from tracerecon import contains_long_desert

        g = stream(12, 0)
        R, M, delta, L, G = 80, 12, 0.01, 24, 12
        successes = 0
        trials = 60
        for _ in range(trials):
            while True:
                word = random_bits(R, g)
                if not contains_long_desert(word, L, G):
                    break
            traces = [transmit(word, delta, g).trace for _ in range(M)]
            out, _, _ = bma_run(list(traces), [1] * M, R)
            successes += out == word
        assert successes / trials >= 0.9
