from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracerecon import (
    BitString,
    Interval,
    apply_deletions,
    edit_distance,
    edit_distance_bounded,
    find_closest_subword,
    find_common_word,
    lcs_matching,
    random_bits,
)

from .oracles import (
    all_matchings_brute,
    edit_distance_dp,
    find_closest_subword_naive,
)
from tracerecon.strings import _prefilter_starts, _window_prefix_distances

bits = st.text(alphabet="01", max_size=64)


class TestBitString:
    def test_basics(self):
        w = BitString("0110")
        assert len(w) == 4
        assert str(w) == "0110"
        assert w.bit(1) == 0 and w.bit(2) == 1
        assert str(w.subword(2, 3)) == "11"
        assert str(w.concat(BitString("01"))) == "011001"

    def test_bounds_checked(self):
        w = BitString("01")
        with pytest.raises(IndexError):
            w.bit(0)
        with pytest.raises(IndexError):
            w.bit(3)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BitString("012")

    def test_find(self):
        w = BitString("010010")
        assert w.find(BitString("01")) == 1
        assert w.find(BitString("01"), start=2) == 4
        assert w.find(BitString("11")) is None
        assert w.find(BitString("")) == 1

    def test_random_bits_deterministic(self, rng):
        a = random_bits(100, rng)
        b = random_bits(100, np.random.Generator(np.random.Philox(20260814)))
        assert str(a) == str(b)

    @given(bits)
    def test_roundtrip(self, s):
        assert str(BitString(s)) == s


class TestEditDistance:
    def test_examples(self):
        assert edit_distance(BitString(""), BitString("")) == 0
        assert edit_distance(BitString("0101"), BitString("0011")) == 2
        assert edit_distance(BitString("0101"), BitString("01")) == 2
        assert edit_distance(BitString("1111"), BitString("0000")) == 8

    @given(bits, bits)
    def test_matches_oracle(self, a, b):
        assert edit_distance(BitString(a), BitString(b)) == edit_distance_dp(a, b)

    @given(bits, bits)
    def test_symmetry_and_triangle_zero(self, a, b):
        wa, wb = BitString(a), BitString(b)
        assert edit_distance(wa, wb) == edit_distance(wb, wa)
        assert edit_distance(wa, wa) == 0

    def test_bounded_cap(self):
        a, b = BitString("1111"), BitString("0000")
        assert edit_distance_bounded(a, b, 8) == 8
        assert edit_distance_bounded(a, b, 7) is None
        assert edit_distance_bounded(a, b, 100) == 8

    @given(bits, bits, st.integers(min_value=0, max_value=40))
    def test_bounded_agrees_with_exact(self, a, b, cap):
        d = edit_distance_dp(a, b)
        got = edit_distance_bounded(BitString(a), BitString(b), cap)
        if d <= cap:
            assert got == d
        else:
            assert got is None

    def test_large_random_pair(self, rng):
        a = random_bits(3000, rng)
        for b in (random_bits(3000, rng), random_bits(2777, rng)):
            assert edit_distance(a, b) == edit_distance_dp(str(a), str(b))
            assert edit_distance(b, a) == edit_distance(a, b)

    def test_long_trace_at_its_cap(self, rng):
        # a trace is a subsequence of its source, so d = n - |trace|; the
        # trace length is no multiple of 8, so the packed masks end mid-byte
        n = 2**13
        x = random_bits(n, rng)
        deleted = {int(p) for p in rng.choice(np.arange(1, n + 1), size=61, replace=False)}
        trace = apply_deletions(x, deleted).trace
        d = n - len(trace)
        assert d == 61 and len(trace) % 8 != 0
        assert edit_distance_bounded(x, trace, d) == d
        assert edit_distance_bounded(trace, x, d) == d
        assert edit_distance_bounded(x, trace, d - 1) is None


class TestLcsMatching:
    def test_example(self):
        m = lcs_matching(BitString("0101"), BitString("0011"))
        assert m.pairs == ((1, 1), (2, 3), (4, 4))

    def test_empty(self):
        assert lcs_matching(BitString(""), BitString("01")).pairs == ()

    @given(st.text(alphabet="01", max_size=9), st.text(alphabet="01", max_size=9))
    def test_maximum_and_smallest(self, a, b):
        got = list(lcs_matching(BitString(a), BitString(b)).pairs)
        best = all_matchings_brute(a, b)
        assert len(got) == len(best[0])
        assert got == min(best)

    @given(bits, bits)
    def test_size_is_lcs(self, a, b):
        m = lcs_matching(BitString(a), BitString(b))
        assert 2 * len(m.pairs) == len(a) + len(b) - edit_distance_dp(a, b)

    @given(bits, bits)
    def test_monotone_and_equal(self, a, b):
        pairs = lcs_matching(BitString(a), BitString(b)).pairs
        for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]):
            assert i1 < i2 and j1 < j2
        for i, j in pairs:
            assert a[i - 1] == b[j - 1]


class TestFindClosestSubword:
    def test_exact_hit(self):
        hit = find_closest_subword(
            BitString("101"), BitString("0010100"), Interval(1, 7), 0
        )
        assert hit == Interval(3, 5)

    def test_prefers_earlier_start(self):
        # both a distance-1 candidate at start 1 and the exact copy later
        hit = find_closest_subword(
            BitString("111"), BitString("1101110"), Interval(1, 7), 1
        )
        assert hit is not None and hit.lo == 1

    def test_no_candidate(self):
        assert (
            find_closest_subword(
                BitString("1111"), BitString("0000000"), Interval(1, 7), 1
            )
            is None
        )

    def test_window_must_fit(self):
        with pytest.raises(ValueError):
            find_closest_subword(BitString("01"), BitString("0001"), Interval(3, 99), 0)
        hit = find_closest_subword(BitString("01"), BitString("0001"), Interval(3, 4), 0)
        assert hit == Interval(3, 4)

    @given(
        st.text(alphabet="01", min_size=1, max_size=10),
        st.text(alphabet="01", min_size=1, max_size=24),
        st.integers(min_value=0, max_value=3),
    )
    def test_matches_naive_scan(self, template, trace, max_dist):
        window = Interval(1, len(trace))
        got = find_closest_subword(
            BitString(template), BitString(trace), window, max_dist
        )
        want = find_closest_subword_naive(
            BitString(template), BitString(trace), window, max_dist
        )
        assert got == want

    @given(
        st.text(alphabet="01", min_size=4, max_size=10),
        st.text(alphabet="01", min_size=8, max_size=24),
        st.integers(min_value=0, max_value=2),
    )
    def test_hit_is_within_window_and_close(self, template, trace, max_dist):
        lo = 1 + len(trace) // 4
        hi = len(trace) - len(trace) // 4
        if lo > hi:
            return
        window = Interval(lo, hi)
        hit = find_closest_subword(BitString(template), BitString(trace), window, max_dist)
        if hit is None:
            return
        assert lo <= hit.lo <= hit.hi <= hi
        cand = trace[hit.lo - 1 : hit.hi]
        assert edit_distance_dp(template, cand) <= max_dist

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_copy_through_prefilter(self, seed):
        # t >= 12 * (max_dist + 1) and a search longer than 4t: the exact-piece
        # prefilter chooses the candidates, and the packed kernel scores them
        rng = np.random.default_rng(seed)
        trace = random_bits(300, rng)
        at = int(rng.integers(100, 240))
        copy = trace.subword(at, at + 39)
        template = apply_deletions(copy, [int(rng.integers(1, 41))]).trace
        window = Interval(1, len(trace))
        assert _prefilter_starts(template.array, trace.tobytes(), window, 1, 38) is not None
        got = find_closest_subword(template, trace, window, 1)
        assert got is not None and got.lo <= at
        assert got == find_closest_subword_naive(template, trace, window, 1)

    @pytest.mark.parametrize("t,max_dist", [(5, 2), (30, 1), (3, 4)])
    def test_all_ones_carry_to_guard_bit(self, t, max_dist):
        # every step of every row carries out of its top bit into the guard
        template = BitString("1" * t)
        windows = np.ones((7, t + max_dist), dtype=np.uint8)
        want = [abs(t - j) for j in range(1, t + max_dist + 1)]
        assert (_window_prefix_distances(template.array, windows) == want).all()
        trace = BitString("1" * 200)
        window = Interval(1, 200)
        got = find_closest_subword(template, trace, window, max_dist)
        assert got == find_closest_subword_naive(template, trace, window, max_dist)
        assert got == Interval(1, max(1, t - max_dist))

    def test_rows_past_search_end_read_pad(self):
        # the haystack continues with exact copies past search.hi; windows
        # that run into the pad may not use them
        template = BitString("110101")
        trace = BitString("0000000011010" + "110101" * 3)
        window = Interval(1, 13)
        got = find_closest_subword(template, trace, window, 2)
        assert got == find_closest_subword_naive(template, trace, window, 2)
        assert got is not None and got.hi <= 13
        assert find_closest_subword(template, trace, Interval(1, 11), 1) is None

    @given(
        st.text(alphabet="01", min_size=1, max_size=12),
        st.lists(st.text(alphabet="01", min_size=1, max_size=16), min_size=1, max_size=5),
    )
    def test_prefix_distances_match_dp(self, template, raw_rows):
        width = max(len(r) for r in raw_rows)
        windows = np.full((len(raw_rows), width), 2, dtype=np.uint8)
        for i, r in enumerate(raw_rows):
            windows[i, : len(r)] = BitString(r).array
        got = _window_prefix_distances(BitString(template).array, windows)
        for i, r in enumerate(raw_rows):
            want = [edit_distance_dp(template, r[:j]) for j in range(1, len(r) + 1)]
            assert got[i, : len(r)].tolist() == want


class TestFindCommonWord:
    def test_shared_word(self):
        windows = [BitString("0011010"), BitString("1101001"), BitString("0110100")]
        word, offsets = find_common_word(windows, 4, 3)
        # "0011" and "0110" miss a window; "1101" is the first hit in all three
        assert str(word) == "1101"
        assert offsets == [3, 1, 2]

    def test_threshold_allows_misses(self):
        windows = [BitString("1111"), BitString("0000"), BitString("1111")]
        word, offsets = find_common_word(windows, 3, 2)
        assert str(word) == "111"
        assert offsets == [1, None, 1]

    def test_no_common_word(self):
        windows = [BitString("1111"), BitString("0000")]
        assert find_common_word(windows, 3, 2) is None

    def test_word_too_long_for_first_window(self):
        # windows[0] has no length-3 subword, so candidates come from windows[1]
        windows = [BitString("01"), BitString("0101")]
        word, offsets = find_common_word(windows, 3, 1)
        assert str(word) == "010"
        assert offsets == [None, 1]

    @given(
        st.lists(st.text(alphabet="01", min_size=1, max_size=12), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=6),
    )
    def test_contract(self, raw_windows, word_len):
        windows = [BitString(w) for w in raw_windows]
        threshold = len(windows)
        res = find_common_word(windows, word_len, threshold)
        if res is None:
            return
        word, offsets = res
        assert len(word) == word_len
        assert len(offsets) == len(windows)
        assert sum(o is not None for o in offsets) >= threshold
        for w, off in zip(raw_windows, offsets):
            if off is not None:
                assert w[off - 1 : off - 1 + word_len] == str(word)
                # leftmost occurrence
                assert w.find(str(word)) == off - 1
