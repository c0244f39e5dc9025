from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracerecon import BitString, contains_long_desert, random_bits
from tracerecon.deserts import _desert_starts
from tracerecon.rng import stream

from .oracles import count_windows_with_long_desert, desert_scan_naive, is_k_desert

bits = st.text(alphabet="01", max_size=24)


class TestIsKDesert:
    def test_examples(self):
        assert is_k_desert(BitString("00000000"), 1)
        assert is_k_desert(BitString("01010101"), 2)
        assert not is_k_desert(BitString("01010101"), 3)
        assert is_k_desert(BitString("0110110"), 3)
        assert not is_k_desert(BitString("00110100"), 4)

    def test_short_word_vacuous(self):
        # |w| <= k: nothing to compare, vacuously periodic
        assert is_k_desert(BitString("01"), 2)
        assert is_k_desert(BitString(""), 1)
        assert is_k_desert(BitString("0"), 5)

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            is_k_desert(BitString("01"), 0)

    @given(bits, st.integers(1, 8))
    def test_definition(self, s, k):
        got = is_k_desert(BitString(s), k)
        want = all(s[i] == s[i + k] for i in range(len(s) - k))
        assert got == want

    @given(bits, st.integers(1, 4), st.integers(1, 3))
    def test_multiples(self, s, k, m):
        # a k-desert is an mk-desert for every multiple mk
        if is_k_desert(BitString(s), k):
            assert is_k_desert(BitString(s), m * k)


class TestContainsLongDesert:
    def test_examples(self):
        assert contains_long_desert(BitString("1010101010"), 8, 4)
        assert not contains_long_desert(BitString("0011010011"), 8, 4)
        assert contains_long_desert(BitString("0" * 8), 8, 4)

    def test_window_longer_than_word(self):
        assert not contains_long_desert(BitString("0000"), 8, 4)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            contains_long_desert(BitString("0000"), 4, 0)
        with pytest.raises(ValueError):
            contains_long_desert(BitString("0000"), 4, 5)

    @given(bits, st.sampled_from([4, 8]))
    def test_matches_naive(self, s, window_len):
        got = contains_long_desert(BitString(s), window_len, window_len // 2)
        assert got == bool(desert_scan_naive(s, window_len, window_len // 2))

    def test_random_long_strings_match_naive(self):
        g = stream(5, 0)
        for _ in range(20):
            s = str(random_bits(200, g))
            for L, G in ((8, 4), (12, 6), (16, 4)):
                got = contains_long_desert(BitString(s), L, G)
                assert got == bool(desert_scan_naive(s, L, G))

    def test_start_mask_exhaustive(self):
        # every word of <= 10 bits and every 1 <= G <= L <= 8, so G == L
        # (lag L, an empty self-match run) and n == L (one start) both occur
        for n in range(11):
            for t in itertools.product("01", repeat=n):
                s = "".join(t)
                w = BitString(s)
                for L in range(1, 9):
                    for G in range(1, L + 1):
                        want = sum(1 << (i - 1) for i in desert_scan_naive(s, L, G))
                        assert _desert_starts(w, L, G) == want, (s, L, G)


class TestCountWindows:
    def test_example(self):
        # every length-4 window of an alternating string is a 2-desert
        x = BitString("10101010")
        assert count_windows_with_long_desert(x, 4, 2, 4) == 5

    def test_no_deserts(self):
        # no length-4 window of (0011)* has period 1 or 2
        x = BitString("0011" * 4)
        assert count_windows_with_long_desert(x, 4, 2, 8) == 0

    @given(st.text(alphabet="01", min_size=8, max_size=24))
    def test_matches_naive(self, s):
        W, L, G = 8, 4, 2
        naive_hits = desert_scan_naive(s, L, G)
        want = sum(
            1
            for w0 in range(1, len(s) - W + 2)
            if any(w0 <= h <= w0 + W - L for h in naive_hits)
        )
        got = count_windows_with_long_desert(BitString(s), L, G, W)
        assert got == want

    def test_longer_deserts_are_rarer(self):
        # frequency of desert-containing windows decays as L grows
        g = stream(6, 0)
        x = random_bits(30000, g)
        counts = [count_windows_with_long_desert(x, L, 8, 64) for L in (12, 16, 20)]
        assert counts[0] > counts[1] > counts[2]
