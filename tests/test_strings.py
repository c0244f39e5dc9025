from __future__ import annotations

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracerecon import (
    BitString,
    Interval,
    apply_deletions,
    edit_distance,
    edit_distance_bounded,
    find_closest_subword,
    find_closest_subwords,
    find_common_word,
    random_bits,
    transmit,
)

from .oracles import (
    common_prefix_naive,
    common_word_naive,
    edit_distance_dp,
    find_closest_subword_naive,
    lcs_dp,
    lcs_dp_rows,
    lcs_suffix,
    prefilter_starts_find,
    verbatim_anchor,
)
import tracerecon.strings as strings_module
from tracerecon.strings import (
    _first_hits,
    _lcs_length,
    _prefilter_starts,
    _snake,
    _walk,
    search_index,
)

bits = st.text(alphabet="01", max_size=64)


@pytest.fixture
def prefilter_calls(monkeypatch):
    """The haystack grams of every prefilter call the window search makes."""
    calls = []
    real = strings_module._prefilter_starts

    def recording(pieces, index, *args):
        calls.append(index.grams)
        return real(pieces, index, *args)

    monkeypatch.setattr(strings_module, "_prefilter_starts", recording)
    return calls


@pytest.fixture
def kept_starts(monkeypatch):
    """The starts each prefilter call of the window search keeps."""
    kept = []
    real = strings_module._prefilter_starts

    def recording(*args):
        kept.append(real(*args))
        return kept[-1]

    monkeypatch.setattr(strings_module, "_prefilter_starts", recording)
    return kept


@pytest.fixture
def first_hits_rows(monkeypatch):
    """The row count of every packed scoring call the window search makes."""
    rows = []
    real = strings_module._first_hits

    def recording(template, windows, *args):
        rows.append(len(windows))
        return real(template, windows, *args)

    monkeypatch.setattr(strings_module, "_first_hits", recording)
    return rows


class TestBitString:
    def test_basics(self):
        w = BitString("0110")
        assert len(w) == 4
        assert str(w) == "0110"
        assert w.bit(1) == 0 and w.bit(2) == 1
        assert str(w.subword(2, 3)) == "11"

    def test_bounds_checked(self):
        w = BitString("01")
        with pytest.raises(IndexError):
            w.bit(0)
        with pytest.raises(IndexError):
            w.bit(3)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BitString("012")

    def test_random_bits_deterministic(self, rng):
        a = random_bits(100, rng)
        b = random_bits(100, np.random.Generator(np.random.Philox(20260814)))
        assert str(a) == str(b)

    @given(bits)
    def test_roundtrip(self, s):
        assert str(BitString(s)) == s

    # the same bits, 0110, in every input form
    FORMS = {
        "str": "0110",
        "bytes": b"\x00\x01\x01\x00",
        "bytearray": bytearray(b"\x00\x01\x01\x00"),
        "ndarray": np.array([0, 1, 1, 0], dtype=np.int64),
        "ndarray_bool": np.array([False, True, True, False]),
        "ndarray_float": np.array([0.0, 1.0, 1.0, 0.0]),
        "list": [0, 1, 1, 0],
    }
    NOT_BITS = {
        "str": ["0120", "01 0", "0\x001"],
        "bytes": [b"\x00\x02", b"01"],
        "bytearray": [bytearray(b"\x01\xff")],
        # a uint8 cast before the check would read 101 and 01 from the 2nd and 3rd
        "ndarray": [np.array([0, 2]), np.array([1, -1]), np.array([1, 256, 257]),
                    np.array([0.5, 1.9]), np.array([-1]), np.array([0.0, np.nan])],
        "list": [[0, 1, 2], [-1]],
    }

    @pytest.mark.parametrize("form", sorted(NOT_BITS))
    def test_every_form_rejects_a_non_bit(self, form):
        for value in self.NOT_BITS[form]:
            with pytest.raises(ValueError):
                BitString(value)

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_every_form_builds_the_same_string(self, form):
        w = BitString(self.FORMS[form])
        want = BitString("0110")
        assert w == want and hash(w) == hash(want)
        assert w.tobytes() == b"\x00\x01\x01\x00" and str(w) == "0110"
        assert BitString(w) == want

    @given(bits)
    def test_array_is_a_read_only_view_of_the_bytes(self, s):
        w = BitString(s)
        arr = w.array
        assert arr.dtype == np.uint8 and not arr.flags.writeable
        assert arr.base is w.tobytes()  # no copy
        assert arr.tobytes() == w.tobytes()
        with pytest.raises(ValueError):
            arr[...] = 1

    @pytest.mark.parametrize("i", [1, 3, 5])
    def test_empty_strings(self, i):
        empty = BitString("0110").subword(i, i - 1)
        assert len(empty) == 0 and empty == BitString("") == BitString()
        assert empty.tobytes() == b"" and str(empty) == ""

    @pytest.mark.parametrize("i, j", [(1, -1), (3, -2), (4, 0), (6, 2), (2, -7)])
    def test_subword_past_its_start_is_empty(self, i, j):
        # a negative end is no position counted from the end of the string
        assert BitString("0110101").subword(i, j) == BitString("")


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

    @pytest.mark.parametrize(
        "other", ["", "0", "1", "0110100", "1" * 300], ids=["empty", "0", "1", "7-bit", "300-ones"]
    )
    def test_empty_on_either_side(self, other):
        # an empty string has no match-mask digits for int(digits, 2) to read
        empty, o = BitString(""), BitString(other)
        for a, b in ((empty, o), (o, empty)):
            assert edit_distance(a, b) == len(other)
            assert edit_distance_bounded(a, b, len(other)) == len(other)
            assert edit_distance_bounded(a, b, len(other) + 5) == len(other)
            if other:
                assert edit_distance_bounded(a, b, len(other) - 1) is None

    def test_bounded_cap(self):
        a, b = BitString("1111"), BitString("0000")
        assert edit_distance_bounded(a, b, 8) == 8
        assert edit_distance_bounded(a, b, 7) is None
        assert edit_distance_bounded(a, b, 100) == 8

    def test_numpy_integer_cap(self, rng):
        # a numpy cap is taken as a Python int: in fixed-width ints the
        # band's shifts would wrap on short pairs and overflow on long ones
        for _ in range(100):
            a, b = (random_bits(int(rng.integers(1, 60)), rng) for _ in range(2))
            for cap in range(len(a) + len(b) + 1):
                want = edit_distance_bounded(a, b, cap)
                assert edit_distance_bounded(a, b, np.int64(cap)) == want
                assert edit_distance_bounded(a, b, np.int32(cap)) == want
        n = 3000
        x = random_bits(n, rng)
        deleted = {int(p) for p in rng.choice(np.arange(1, n + 1), size=120, replace=False)}
        trace = apply_deletions(x, deleted).trace
        for cap, want in ((119, None), (120, 120), (130, 120)):
            for kind in (int, np.int64, np.int32):
                assert edit_distance_bounded(x, trace, kind(cap)) == want
        with pytest.raises(TypeError):
            edit_distance_bounded(x, trace, 130.0)

    @given(bits, bits, st.integers(min_value=0, max_value=40))
    def test_bounded_agrees_with_exact(self, a, b, cap):
        d = edit_distance_dp(a, b)
        got = edit_distance_bounded(BitString(a), BitString(b), cap)
        if d <= cap:
            assert got == d
        else:
            assert got is None

    @given(bits, bits)
    def test_row_oracle_matches_table(self, a, b):
        assert lcs_dp_rows(a, b) == lcs_dp(a, b)

    def test_suffix_oracle_matches_table(self):
        # every ordered pair of words of up to 6 bits, through one shared memo
        words = ["".join(w) for k in range(7) for w in itertools.product("01", repeat=k)]
        memo: dict = {}
        for a in words:
            for b in words:
                assert lcs_suffix(a, b, memo) == lcs_dp(a, b)

    def test_large_random_pair(self, rng):
        a = random_bits(3000, rng)
        for b in (random_bits(3000, rng), random_bits(2777, rng)):
            assert edit_distance(a, b) == len(a) + len(b) - 2 * lcs_dp_rows(str(a), str(b))
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

    @staticmethod
    def _record_caps(monkeypatch) -> list[int]:
        """Caps of the band passes ``edit_distance`` runs."""
        caps: list[int] = []
        real = strings_module._lcs_length

        def recording(a, b, cap):
            caps.append(cap)
            return real(a, b, cap)

        monkeypatch.setattr(strings_module, "_lcs_length", recording)
        return caps

    # the second cap, where there is one, is the first pass's distance
    @pytest.mark.parametrize(
        "k, j, caps_run",
        [
            (127, 1, [256]),
            (128, 0, [256]),
            (128, 1, [256, 259]),
            (255, 1, [256, 767]),
            (256, 0, [256, 768]),
            (256, 1, [256, 771]),
        ],
    )
    def test_distance_around_a_doubling_cap(self, k, j, caps_run, monkeypatch):
        # 1^k 0^400 against 0^400 1^(k+j): only the zeros are common, so
        # d = 2k + j, just below, at or just above the first cap, with every
        # optimal alignment on the band's outermost diagonals.  Past the cap
        # the first pass's distance bounds d from above, so the second pass,
        # at that distance, is exact.
        caps = self._record_caps(monkeypatch)
        a = BitString("1" * k + "0" * 400)
        b = BitString("0" * 400 + "1" * (k + j))
        assert edit_distance(a, b) == 2 * k + j
        assert caps == caps_run
        assert all(cap >= 2 * k + j for cap in caps[1:])
        total = len(a) + len(b)
        assert total - 2 * _lcs_length(a.tobytes(), b.tobytes(), total) == 2 * k + j

    def test_length_gap_past_the_first_cap(self, monkeypatch, rng):
        # a trace is at distance n - |trace| from its source; a gap of 300
        # widens the first cap to 300, within which the distance fits
        caps = self._record_caps(monkeypatch)
        n = 1000
        x = random_bits(n, rng)
        deleted = {int(p) for p in rng.choice(np.arange(1, n + 1), size=300, replace=False)}
        trace = apply_deletions(x, deleted).trace
        assert edit_distance(x, trace) == 300
        assert edit_distance(trace, x) == 300
        assert caps == [300, 300]


class TestBandedDistance:
    """``edit_distance_bounded`` computes only the diagonals its cap allows."""

    # rotations: every optimal alignment runs on the band's outermost
    # diagonal, past the first chunk of rows, with and without a length gap
    @example("1" + "0" * 300, "0" * 300 + "1")
    @example("11" + "0" * 299, "0" * 299 + "11")
    @example("1" + "0" * 300, "0" * 300 + "1111")
    @given(bits, bits)
    def test_every_cap_both_orders(self, a, b):
        d = edit_distance_dp(a, b)
        wa, wb = BitString(a), BitString(b)
        for cap in range(d + 3):
            want = d if d <= cap else None
            assert edit_distance_bounded(wa, wb, cap) == want
            assert edit_distance_bounded(wb, wa, cap) == want

    @given(bits, st.data())
    def test_cap_at_the_length_gap(self, a, data):
        # a subsequence is at distance |delta|, so a cap of exactly |delta|
        # leaves a band of the delta + 1 diagonals between the two corners
        keep = data.draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a)))
        b = "".join(c for c, k in zip(a, keep) if k)
        gap = len(a) - len(b)
        for x, y in ((a, b), (b, a)):
            assert edit_distance_bounded(BitString(x), BitString(y), gap) == gap
            if gap:
                assert edit_distance_bounded(BitString(x), BitString(y), gap - 1) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_band_never_exceeds_lcs(self, seed):
        # unrelated pairs sit far above small caps; the band may undercount
        # the LCS there, but never overcount it, across several chunks
        rng = np.random.default_rng(seed)
        a = random_bits(int(rng.integers(500, 900)), rng).tobytes()
        b = random_bits(int(rng.integers(500, 900)), rng).tobytes()
        lcs = _lcs_length(a, b, len(a) + len(b))
        gap = abs(len(a) - len(b))
        for cap in (gap, gap + 1, gap + 7, gap + 40):
            got = _lcs_length(a, b, cap)
            assert got <= lcs
            assert len(a) + len(b) - 2 * got > cap  # so the cap rejects it

    @pytest.mark.parametrize("n", [2**13, 2**14])
    def test_long_trace_pair_at_its_cap(self, n, rng):
        # two traces of one source: d exceeds their length gap and its walk
        # steps exceed the budget, so every cap from d - 1 up runs the band,
        # over many chunks of rows and with the shorter trace's length no
        # multiple of the chunk height
        x = random_bits(n, rng)
        a, b = transmit(x, 0.01, rng).trace, transmit(x, 0.01, rng).trace
        d = len(a) + len(b) - 2 * _lcs_length(a.tobytes(), b.tobytes(), len(a) + len(b))
        gap = abs(len(a) - len(b))
        assert gap < d - 1
        rows = min(len(a), len(b))
        assert _walk_steps(d, gap) > rows // 64
        for cap in (d - 1, d, d + 1):
            h = max(gap + 2 * ((cap - gap) // 2) + 1, 256)
            assert rows > 4 * h and rows % h != 0
            want = d if d <= cap else None
            assert edit_distance_bounded(a, b, cap) == want
            assert edit_distance_bounded(b, a, cap) == want

    def test_cap_past_both_lengths_runs_full_width(self, monkeypatch, rng):
        widths = []
        real_steps = strings_module._lcs_steps

        def recording_steps(a, peq, v, mask):
            widths.append(mask.bit_length())
            return real_steps(a, peq, v, mask)

        monkeypatch.setattr(strings_module, "_lcs_steps", recording_steps)
        # far apart, so the walk gives way to the band
        a = BitString("0" + str(random_bits(298, rng)) + "0")
        b = BitString("1" + str(random_bits(278, rng)) + "1")
        d = edit_distance_dp(str(a), str(b))
        # a cap past the whole table is clamped to it, 580: the band's 581
        # diagonals cover every cell, and one chunk of all 280 rows steps a
        # window of 581 + 280 columns
        for cap in (580, 581, 10**6):
            widths.clear()
            assert edit_distance_bounded(a, b, cap) == d
            assert widths == [581 + 280]
        widths.clear()
        # one diagonal short of the whole table: the band is 579 columns wide
        # and one chunk of rows covers all 280
        assert edit_distance_bounded(a, b, 579) == d
        assert widths == [579 + 280]


class TestSharedEnds:
    """Pairs with shared ends: the walk's first snake runs along the
    two strings' common prefix and its last along their common suffix, so
    a near pair steps no band row whatever its ends, and a far pair bands
    every row of the shorter string."""

    @staticmethod
    def check_every_cap(a: str, b: str) -> None:
        d = edit_distance_dp(a, b)
        wa, wb = BitString(a), BitString(b)
        assert edit_distance(wa, wb) == d == edit_distance(wb, wa)
        for cap in range(d + 3):
            want = d if d <= cap else None
            assert edit_distance_bounded(wa, wb, cap) == want
            assert edit_distance_bounded(wb, wa, cap) == want

    @given(bits, bits, bits, bits)
    def test_planted_ends(self, prefix, suffix, mid_a, mid_b):
        self.check_every_cap(prefix + mid_a + suffix, prefix + mid_b + suffix)

    # found from the whole strings, the common prefix and the common suffix
    # together would be longer than the shorter string
    @pytest.mark.parametrize(
        "a, b", [("0", "00"), ("010", "0110"), ("0110", "011110"), ("1", "101"), ("01", "0101")]
    )
    def test_ends_that_would_overlap(self, a, b):
        self.check_every_cap(a, b)

    @given(bits, bits)
    def test_identical_or_a_prefix_or_suffix_of_the_other(self, a, b):
        self.check_every_cap(a, a)
        self.check_every_cap(a, a + b)
        self.check_every_cap(b + a, a)

    @staticmethod
    def _record_symbols(monkeypatch) -> list[int]:
        """Number of symbols of each ``_lcs_steps`` call."""
        symbols: list[int] = []
        real = strings_module._lcs_steps

        def recording(a, peq, v, mask):
            symbols.append(len(a))
            return real(a, peq, v, mask)

        monkeypatch.setattr(strings_module, "_lcs_steps", recording)
        return symbols

    @pytest.mark.parametrize("p, s", [(0, 0), (1, 0), (0, 1), (37, 500), (700, 3)])
    def test_band_steps_only_the_middle(self, p, s, monkeypatch, rng):
        # planted ends around a middle that is near (a deletion and an
        # insertion, whose 4 walk steps fit the budget of a 600-bit string)
        # or far (random middles that differ in their first and in their
        # last bit): the near pair steps
        # no band row at a cap of d or more, the far one every row of the
        # shorter string at every cap
        prefix, suffix = str(random_bits(p, rng)), str(random_bits(s, rng))
        x = str(random_bits(600, rng))
        pairs = {
            "near": (prefix + x + suffix, prefix + _edited(x, {100}, [400]) + suffix),
            "far": (prefix + "0" + str(random_bits(600, rng)) + "0" + suffix,
                    prefix + "1" + str(random_bits(590, rng)) + "1" + suffix),
        }
        symbols = self._record_symbols(monkeypatch)
        for kind, (a, b) in pairs.items():
            rows = min(len(a), len(b))
            d = edit_distance_dp(a, b)
            assert _walks(d, abs(len(a) - len(b)), rows, d) == (kind == "near")
            for cap in (d - 1, d, 2 * d, len(a) + len(b)):
                symbols.clear()
                got = _lcs_length(BitString(a).tobytes(), BitString(b).tobytes(), cap)
                walked = kind == "near" and cap >= d
                assert sum(symbols) == (0 if walked else rows)
                if cap >= d:
                    assert len(a) + len(b) - 2 * got == d
            symbols.clear()
            assert edit_distance_bounded(BitString(a), BitString(b), d) == d
            assert sum(symbols) == (0 if kind == "near" else rows)

    @pytest.mark.parametrize("n", [0, 300])
    def test_equal_strings_step_no_symbol(self, n, monkeypatch, rng):
        symbols = self._record_symbols(monkeypatch)
        a = random_bits(n, rng)
        assert edit_distance(a, BitString(a.tobytes())) == 0
        assert edit_distance_bounded(a, BitString(a.tobytes()), 0) == 0
        assert symbols == []

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_trace_at_its_deletion_count(self, seed):
        # a trace is a subsequence of its source, so d = n - |trace|; at
        # this deletion rate most of the pair is shared ends
        rng = np.random.default_rng(seed)
        n = 2**14
        x = random_bits(n, rng)
        trace = transmit(x, 4e-4, rng).trace
        d = n - len(trace)
        for cap in (d, d + 1, max(64, d)):
            assert edit_distance_bounded(x, trace, cap) == d
            assert edit_distance_bounded(trace, x, cap) == d
        if d:
            assert edit_distance_bounded(x, trace, d - 1) is None


def _edited(x: str, deletions=(), insertions=()) -> str:
    """``x`` without the bits at the 0-based ``deletions``, and with one bit
    put in before ``x[i]`` for each ``i`` of ``insertions`` (a list, so an
    ``i`` may repeat; ``i = len(x)`` appends): the complement of ``x[i]``,
    or of the last bit when appending, so that no insertion is a no-op."""
    out = []
    for i in range(len(x) + 1):
        flip = "1" if x[min(i, len(x) - 1)] == "0" else "0"
        out.append(flip * insertions.count(i))
        if i < len(x) and i not in deletions:
            out.append(x[i])
    return "".join(out)


def _walk_steps(d: int, gap: int) -> int:
    """Diagonal steps the O(NP) walk takes to find a distance d = gap + 2P
    between two strings whose lengths differ by gap: rounds 0..P, round p
    stepping gap + 2p + 1 diagonals."""
    p = (d - gap) // 2
    return (p + 1) * (gap + p + 1)


def _walks(d: int, gap: int, rows: int, cap: int) -> bool:
    """Whether the walk finds the distance d of a pair whose lengths differ
    by gap and whose shorter string has ``rows`` bits, at ``cap``: d is
    within the cap and its steps within the budget of rows // 64."""
    return d <= cap and _walk_steps(d, gap) <= rows // 64


# shared bits that pad a pair to a length whose walk budget is set: a
# common prefix or suffix leaves the distance, and the walk's steps, as they are
_PAD = str(random_bits(64 * 65 * 65, np.random.default_rng(2**20)))


# where the walk's snake compares its chunks: one byte, then chunks of 32
# bytes that grow eightfold
_CHUNK_STARTS = (1, 33, 289, 2337, 18721)


class TestSnake:
    """``_snake`` against a byte-at-a-time common prefix, on each side of
    every chunk start and of the 256-byte chunk past which the first
    difference is located with numpy instead of an int XOR."""

    @staticmethod
    def cases(rng) -> list[tuple[bytes, bytes, int, int]]:
        """(a, b, x, y) whose snake from (x, y) ends at a chosen length."""
        bits = rng.integers(0, 2, 2**15, dtype=np.uint8).tobytes()

        def case(length, tail_a, tail_b, x=5, y=3):
            # a common run of ``length`` bytes, then tails whose first bytes
            # differ, so the snake stops at the run's end or a string's end
            run = bits[x : x + length]
            a = bits[:x] + run + bits[x + length : x + length + tail_a]
            b = bits[len(bits) - y :] + run + bytes([1 - bits[x + length]]) + bits
            return a, b[: y + length + tail_b], x, y

        lengths = {0, 1, 2} | {s + e for s in _CHUNK_STARTS for e in (-1, 0, 1)}
        out = [case(length, 100, 100) for length in sorted(lengths)]
        # x or y at the last byte of its string
        out += [case(0, 1, 9, x=0), case(1, 0, 9, y=0), case(0, 9, 1), case(1, 9, 0)]
        # the shorter string ends inside a chunk, in the snake or right after it
        out += [case(100, 0, 50), case(3000, 0, 50), case(3000, 1, 50), case(20000, 0, 9)]
        out += [case(100, 1, 0), case(3000, 1, 0)]  # one byte shorter
        # the last chunk clipped to 256 or 257 bytes, differing at its last
        # byte or inside it
        for end in (289 + 256, 289 + 257):
            out += [case(end - 1, 1, 100), case(end - 60, 60, 100)]
        return out

    def test_matches_byte_loop_at_every_chunk_edge(self, monkeypatch, rng):
        views = []  # lengths of the chunks located with numpy

        def frombuffer(buf, dtype):
            views.append(len(buf))
            return np.frombuffer(buf, dtype)

        numpy = SimpleNamespace(frombuffer=frombuffer, uint8=np.uint8)
        monkeypatch.setattr(strings_module, "np", numpy)
        paths = set()
        for a, b, x, y in self.cases(rng):
            want = common_prefix_naive(a[x:], b[y:])
            end = min(len(a) - x, len(b) - y)
            for args in ((a, b, x, y), (b, a, y, x)):
                views.clear()
                assert _snake(*args) == want, (len(a), len(b), x, y)
                if 0 < want < end:
                    paths.add("numpy" if views else "int")
                assert all(c > 256 for c in views)
        assert paths == {"int", "numpy"}


class TestGreedyWalk:
    """Near pairs are scored by the O(NP) walk over the diagonals, which
    greedily follows the furthest point of each diagonal: a distance
    d = gap + 2P takes (P + 1)(gap + P + 1) steps, up to a budget of the
    shorter string's length // 64; past it, or past the cap, the band runs."""

    @given(bits, bits, st.booleans())
    @example("0" * 30 + "1" * 30, "0" * 29 + "1" * 31, False)
    @example("01" * 32, "10" * 32, True)
    @example("0" * 64, "", False)
    @example("0" * 64, "1" * 64, True)
    @settings(deadline=None)
    def test_walk_at_every_limit(self, a, b, pad_in_front):
        # shared pad bits set the shorter string's length so that the budget
        # is the walk's steps for d, or one short of them
        d = edit_distance_dp(a, b)
        steps = _walk_steps(d, abs(len(a) - len(b)))
        rows = min(len(a), len(b))
        for budget in (steps, steps - 1):
            pad = _PAD[: max(0, 64 * budget - rows)]
            if (len(pad) + rows) // 64 != budget:
                continue  # 64-bit strings at d = 0 cannot have a budget of 0
            pa, pb = (pad + a, pad + b) if pad_in_front else (a + pad, b + pad)
            wa, wb = BitString(pa).tobytes(), BitString(pb).tobytes()
            for cap in [*range(d + 3), 10**6]:
                want = d if d <= cap and budget == steps else None
                assert _walk(wa, wb, cap) == want
                assert _walk(wb, wa, cap) == want

    @staticmethod
    def check(a: str, b: str, monkeypatch) -> tuple[int, int, int]:
        """The oracle's distance, the walk's steps for it and the pair's step
        budget.  At every cap around d the walk alone gives d exactly when
        d is within the cap and its steps within the budget; through the
        public calls every cap gives the oracle's answer in both orders,
        and the band steps a row exactly when the walk does not finish."""
        d = edit_distance_dp(a, b)
        rows, gap = min(len(a), len(b)), abs(len(a) - len(b))
        symbols = TestSharedEnds._record_symbols(monkeypatch)
        wa, wb = BitString(a), BitString(b)
        caps = [c for c in range(d - 2, d + 3) if c >= 0] + [d + 300, 10**6]
        for x, y in ((wa, wb), (wb, wa)):
            for cap in caps:
                walked = _walks(d, gap, rows, cap)
                assert _walk(x.tobytes(), y.tobytes(), cap) == (d if walked else None)
                symbols.clear()
                assert edit_distance_bounded(x, y, cap) == (d if d <= cap else None)
                assert bool(symbols) == (rows > 0 and gap <= cap and not walked), (cap, d)
            symbols.clear()
            assert edit_distance(x, y) == d
            assert bool(symbols) == (rows > 0 and not _walks(d, gap, rows, max(256, gap)))
        return d, _walk_steps(d, gap), rows // 64

    # two edits on each side, far from the other side's, so that they add
    # up; the shorter string has about 1200 bits and its budget is 18 steps
    @pytest.mark.parametrize(
        "deletions, insertions",
        [({0}, [800]), ({1199}, [1200]), ({600, 601}, []), ({0}, [1200]), (set(), [700, 700])],
        ids=["first-bit", "last-bit", "adjacent", "both-ends", "adjacent-insertions"],
    )
    def test_planted_edits_on_both_sides(self, deletions, insertions, monkeypatch, rng):
        x = str(random_bits(1200, rng))
        a = _edited(x, deletions, insertions)
        b = _edited(x, {30}, [1170])
        d, steps, budget = self.check(a, b, monkeypatch)
        assert d == 4 and steps <= budget == 18  # the walk finishes at a cap of d

    @pytest.mark.parametrize("kind", ["blocks", "alternating"])
    def test_run_heavy_strings(self, kind, monkeypatch):
        # snakes are long and many diagonals tie, on 0^k 1^k blocks and on
        # (01)^k, where a shift by two bits costs two edits and no more
        x = ("0" * 40 + "1" * 40) * 15 if kind == "blocks" else "01" * 600
        a = _edited(x, {0, 45, 46, 600}, [1000])
        b = _edited(x, {333, 1199}, [2, 700])
        self.check(a, b, monkeypatch)
        d, steps, budget = self.check(_edited(x, {0, 600}), _edited(x, {1199}), monkeypatch)
        assert steps <= budget

    @pytest.mark.parametrize("extra", [0, 1])
    def test_distance_at_and_past_the_budget(self, extra, monkeypatch, rng):
        # three deletions on each side, far apart, with the first and the
        # last bit among them: d is 6 in 16 steps, and the shorter string's
        # 1024 - extra bits give a budget of 16 (the walk finishes) or 15
        # (the band runs)
        x = str(random_bits(1027 - extra, rng))
        a = _edited(x, {0, 400, 800})
        b = _edited(x, {200, 600, len(x) - 1})
        d, steps, budget = self.check(a, b, monkeypatch)
        assert (d, steps, budget) == (6, 16, 16 - extra)

    def test_long_source_and_trace_step_no_band_row(self, monkeypatch, rng):
        # a trace is a subsequence of its source, so d = n - |trace|; a copy
        # with 20 deletions and 20 insertions, each at least 2,700 random
        # bits from the next, is at d = 40, with snakes of thousands of
        # bytes on the alignment and short ones off it
        symbols = TestSharedEnds._record_symbols(monkeypatch)
        n = 2**17
        x = random_bits(n, rng)
        deleted = {int(p) for p in rng.choice(np.arange(1, n + 1), size=10, replace=False)}
        trace = apply_deletions(x, deleted).trace
        spots = [1000 + 3200 * i + int(r) for i, r in enumerate(rng.integers(0, 500, 40))]
        edited = BitString(_edited(str(x), set(spots[0::2]), spots[1::2]))
        for y, d in ((trace, 10), (edited, 40)):
            for a, b in ((x, y), (y, x)):
                assert edit_distance_bounded(a, b, d) == d
                assert edit_distance_bounded(a, b, 64) == d
                assert edit_distance_bounded(a, b, 10**6) == d
                assert edit_distance(a, b) == d
        assert symbols == []

    @pytest.mark.parametrize("n, gap", [(2**13, 84), (2**17, 1300)])
    def test_deletions_alone_step_no_band_row(self, n, gap, monkeypatch, rng):
        # a trace with gap deletions is at distance gap from its source,
        # found in gap + 1 steps: within the budget, where an O(ND) walk's
        # (d + 1)(d + 2) / 2 steps are far past it
        symbols = TestSharedEnds._record_symbols(monkeypatch)
        x = random_bits(n, rng)
        deleted = {int(p) for p in rng.choice(np.arange(1, n + 1), size=gap, replace=False)}
        trace = apply_deletions(x, deleted).trace
        assert gap + 1 <= len(trace) // 64 < (gap + 1) * (gap + 2) // 2
        for a, b in ((x, trace), (trace, x)):
            for cap in (gap, gap + 1, 10**6):
                assert edit_distance_bounded(a, b, cap) == gap
            assert edit_distance_bounded(a, b, gap - 1) is None
            assert edit_distance(a, b) == gap
        assert symbols == []

    @pytest.mark.parametrize("n, delta", [(2**13, 0.01), (10240, 1e-3), (2**14, 4e-4)])
    def test_trace_pairs_band_only_past_the_budget(self, n, delta, monkeypatch):
        # trace against source and trace against trace: the band runs
        # exactly where the walk cannot finish, and never where an O(ND)
        # walk within the same budget, (d + 1)(d + 2) / 2 <= rows // 64,
        # would have, since (P + 1)(gap + P + 1) is at most that
        symbols = TestSharedEnds._record_symbols(monkeypatch)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = random_bits(n, rng)
            t0, t1 = transmit(x, delta, rng).trace, transmit(x, delta, rng).trace
            for a, b in ((x, t0), (t0, t1)):
                rows, gap = min(len(a), len(b)), abs(len(a) - len(b))
                d = len(a) + len(b) - 2 * _lcs_length(a.tobytes(), b.tobytes(), len(a) + len(b))
                for cap in (d - 1, d, d + 1, max(256, gap)):
                    symbols.clear()
                    assert edit_distance_bounded(a, b, cap) == (d if d <= cap else None)
                    assert bool(symbols) == (gap <= cap and not _walks(d, gap, rows, cap))
                    if d <= cap and (d + 1) * (d + 2) // 2 <= rows // 64:
                        assert not symbols

    def test_gap_past_the_budget_runs_the_band(self, monkeypatch, rng):
        # 300 deletions: the length gap alone, 301 steps, puts the walk past
        # the budget of the 2^14 - 300 bit trace, so the walk is skipped
        # before its first snake and the band steps every row of the trace
        # in each of the two calls
        n = 2**14
        x = random_bits(n, rng)
        deleted = {int(p) for p in rng.choice(np.arange(1, n + 1), size=300, replace=False)}
        trace = apply_deletions(x, deleted).trace
        assert len(trace) // 64 < 301
        symbols = TestSharedEnds._record_symbols(monkeypatch)
        snakes = []
        monkeypatch.setattr(strings_module, "_snake", lambda *args: snakes.append(args))
        assert edit_distance_bounded(x, trace, 400) == 300
        assert edit_distance(trace, x) == 300
        assert sum(symbols) == 2 * len(trace)
        assert snakes == []


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
    def test_planted_copy_through_prefilter(self, seed, prefilter_calls):
        # t >= 12 * (max_dist + 1) and a search longer than 4t: the exact-piece
        # prefilter chooses the candidates, and the packed kernel scores them
        rng = np.random.default_rng(seed)
        trace = random_bits(300, rng)
        at = int(rng.integers(100, 240))
        copy = trace.subword(at, at + 39)
        template = apply_deletions(copy, [int(rng.integers(1, 41))]).trace
        window = Interval(1, len(trace))
        got = find_closest_subword(template, trace, window, 1)
        assert prefilter_calls == [search_index(trace).grams]
        assert got is not None and got.lo <= at
        assert got == find_closest_subword_naive(template, trace, window, 1)

    @pytest.mark.parametrize("t,max_dist", [(5, 2), (30, 1), (3, 4)])
    def test_all_ones_carry_to_guard_bit(self, t, max_dist):
        # every step of every row carries out of its top bit into the guard;
        # the length-j prefix of a row is at distance |t - j|, so its first
        # prefix from min_len on within a budget is max(min_len, t - budget)
        template = BitString("1" * t)
        width = t + max_dist
        windows = [b"\x01" * width] * 7
        for min_len in range(1, width + 1):
            for budget in range(width + 1):
                j = max(min_len, t - budget)
                want = {r: (r, j) for r in range(7)} if j - t <= budget else {}
                assert _first_hits(template.tobytes(), windows, range(7), min_len, budget) == want
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

    @staticmethod
    def _padded_rows(raw_rows: list[str]) -> tuple[list[str], list[bytes]]:
        """The rows padded to one width with "2", which matches nothing, as
        strings for the DP oracle and as the bytes the block scorer reads."""
        width = max(len(r) for r in raw_rows)
        padded = [r.ljust(width, "2") for r in raw_rows]
        return padded, [bytes(map(int, r)) for r in padded]

    @given(
        st.text(alphabet="01", min_size=1, max_size=12),
        st.lists(st.text(alphabet="01", min_size=1, max_size=16), min_size=1, max_size=5),
    )
    def test_prefix_distances_match_dp(self, template, raw_rows):
        # with min_len j and a budget of the DP distance of a row's
        # length-j prefix, that row hits at j exactly; one less and it
        # does not, so every prefix distance of every row is checked
        padded, windows = self._padded_rows(raw_rows)
        tb = BitString(template).tobytes()
        rows = range(len(padded))
        for j in range(1, len(padded[0]) + 1):
            for i, r in enumerate(padded):
                d = edit_distance_dp(template, r[:j])
                assert _first_hits(tb, windows, rows, j, d)[i] == (i, j)
                if d:
                    later = _first_hits(tb, windows, rows, j, d - 1)
                    assert i not in later or later[i][1] > j

    @given(
        st.text(alphabet="01", min_size=1, max_size=12),
        st.lists(st.text(alphabet="01", min_size=1, max_size=16), min_size=1, max_size=6),
        st.data(),
    )
    def test_prefix_distances_from_min_len_match_dp(self, template, raw_rows, data):
        # rows share owners; each owner's first row with a prefix of at
        # least min_len bits within budget, and that row's shortest such
        # prefix; the zeros of the columns before min_len count towards
        # every LCS
        padded, windows = self._padded_rows(raw_rows)
        width = len(padded[0])
        min_len = data.draw(st.integers(min_value=1, max_value=width))
        max_dist = data.draw(st.integers(min_value=0, max_value=width + len(template)))
        owners = data.draw(st.lists(st.integers(0, 2), min_size=len(padded), max_size=len(padded)))
        want: dict[int, tuple[int, int]] = {}
        for i, (r, owner) in enumerate(zip(padded, owners)):
            for j in range(min_len, width + 1):
                if owner not in want and edit_distance_dp(template, r[:j]) <= max_dist:
                    want[owner] = (i, j)
        tb = BitString(template).tobytes()
        assert _first_hits(tb, windows, owners, min_len, max_dist) == want


class TestFindClosestSubwords:
    """The batched search returns, for every haystack, what the exhaustive
    scan returns for that haystack alone."""

    @staticmethod
    def check(template, hays, searches, max_dist):
        got = find_closest_subwords(template, hays, searches, max_dist)
        want = [find_closest_subword_naive(template, h, s, max_dist) for h, s in zip(hays, searches)]
        assert got == want
        return got

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_per_haystack(self, data):
        template = data.draw(st.text(alphabet="01", min_size=1, max_size=26))
        max_dist = data.draw(st.integers(min_value=0, max_value=3))
        hays, searches = [], []
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            hay = data.draw(st.text(alphabet="01", min_size=1, max_size=40))
            if data.draw(st.booleans()):  # plant the template, maybe one bit short
                at = data.draw(st.integers(min_value=0, max_value=len(hay)))
                cut = data.draw(st.integers(min_value=0, max_value=len(template)))
                hay = hay[:at] + template[:cut] + template[cut + 1 :] + hay[at:]
            lo = data.draw(st.integers(min_value=1, max_value=len(hay)))
            hi = data.draw(st.integers(min_value=lo, max_value=len(hay)))
            hays.append(BitString(hay))
            searches.append(Interval(lo, hi))
        self.check(BitString(template), hays, searches, max_dist)

    def test_planted_copies_through_prefilter(self, prefilter_calls):
        # t >= 12 * (max_dist + 1): the prefilter picks every haystack's
        # candidates, one haystack misses and one search is shorter than the
        # shortest window, so it is never searched
        rng = np.random.default_rng(5)
        hays = [random_bits(300, rng) for _ in range(4)]
        template = hays[1].subword(101, 140)
        hays[2] = BitString(np.concatenate([hays[2].array[:50], template.array[1:], hays[2].array[50:]]))
        searches = [Interval(1, 300), Interval(1, 300), Interval(20, 301), Interval(101, 137)]
        got = self.check(template, hays, searches, 1)
        assert prefilter_calls == [search_index(h).grams for h in hays[:3]]
        assert got[0] is None and got[1].lo <= 101 and got[2].lo <= 51 and got[3] is None

    def test_block_boundary_inside_one_haystack(self, prefilter_calls):
        # pieces of 3 bits force every start to be scored; after the first
        # starts, the first haystack's 1494 later misses leave room for only
        # part of the second's in the first 2048-row block, and its hit is
        # in the next
        template = BitString("0110100")
        plant = "0" * 1000 + str(template) + "0" * 1000
        hays = [BitString("0" * 1500), BitString(plant), BitString("1" * 700 + plant),
                BitString("01" * 900)]
        searches = [Interval(1, len(h)) for h in hays]
        assert len(hays[0]) - 6 < strings_module._BLOCK < len(hays[0]) - 6 + 1001
        got = self.check(template, hays, searches, 1)
        assert prefilter_calls == []
        assert got[0] is None and got[1] is not None and got[2] is not None

    def test_first_start_misses_later_start_hits(self, prefilter_calls):
        # a bit inserted before the template's second piece moves that
        # piece's anchor one on, so the first candidate start, max_dist
        # before the first piece's anchor, leaves two edits and misses; a
        # later start hits.  The other haystacks hold the template verbatim
        # and hit on their first start, in the same call
        rng = np.random.default_rng(11)
        template = str(random_bits(40, rng))
        flip = "1" if template[20] == "0" else "0"
        plants = [(150, template[:20] + flip + template[20:]), (150, template), (90, template)]
        hays = [BitString(str(random_bits(at, rng)) + plant + str(random_bits(150, rng)))
                for at, plant in plants]
        searches = [Interval(1, len(h)) for h in hays]
        got = self.check(BitString(template), hays, searches, 1)
        assert len(prefilter_calls) == 3
        first = [prefilter_starts_find(BitString(template).array, h.tobytes(), s, 1, 39)[0]
                 for h, s in zip(hays, searches)]
        assert got[0].lo - 1 > first[0]
        assert [hit.lo - 1 for hit in got[1:]] == first[1:]

    def test_every_start_over_several_blocks(self, prefilter_calls):
        # pieces of 3 bits force every start to be scored: after the first
        # starts, 2620 more over four haystacks fill two 2048-row blocks,
        # and the last haystack's copy, at the end of its starts, is in
        # the second; each haystack with a copy misses up to it
        template = BitString("0110100")
        hays = [BitString("1" * 700), BitString("0" * 600 + "0110100"),
                BitString("0" * 650), BitString("01" * 340 + "0110100")]
        searches = [Interval(1, len(h)) for h in hays]
        # a window is at least 6 bits, so a haystack has len - 6 later starts
        before = sum(len(h) - 6 for h in hays[:3])
        assert before < strings_module._BLOCK < before + 670
        got = self.check(template, hays, searches, 1)
        assert prefilter_calls == []
        assert got[0] is None and got[1].lo > 590 and got[2] is None and got[3].lo > 670

    def test_exact_search_per_haystack(self):
        template = BitString("0110")
        hays = [BitString("1101100110"), BitString("0000"), BitString("0110")]
        got = self.check(template, hays, [Interval(2, 10), Interval(1, 4), Interval(1, 3)], 0)
        assert got == [Interval(3, 6), None, None]

    def test_one_haystack_call_agrees(self):
        template = BitString("10110")
        hays = [BitString("0010100111"), BitString("1111111")]
        searches = [Interval(1, 10), Interval(1, 7)]
        assert find_closest_subwords(template, hays, searches, 1) == [
            find_closest_subword(template, h, s, 1) for h, s in zip(hays, searches)
        ]

    def test_checks_inputs(self):
        hay = BitString("0101")
        with pytest.raises(ValueError):
            find_closest_subwords(BitString("01"), [hay], [Interval(1, 4), Interval(1, 4)], 1)
        with pytest.raises(ValueError):
            find_closest_subwords(BitString("01"), [hay], [Interval(2, 5)], 1)
        with pytest.raises(ValueError):
            find_closest_subwords(BitString("01"), [hay], [Interval(1, 4)], -1)
        assert find_closest_subwords(BitString("01"), [], [], 1) == []
        # Interval checks nothing itself: a span starting at 0, ending
        # before lo - 1 or starting past len + 1 is rejected where it is searched
        for bad in (Interval(0, 3), Interval(3, 1), Interval(6, 5)):
            for max_dist in (0, 1):
                with pytest.raises(ValueError, match="haystack span"):
                    find_closest_subwords(BitString("01"), [hay], [bad], max_dist)

    @pytest.mark.parametrize("max_dist", [0, 1])
    @pytest.mark.parametrize("template", ["01", "0" * 13 + "1" * 13])
    def test_empty_search_interval_misses(self, template, max_dist):
        # hi = lo - 1 is the empty span, at either end or inside: a miss,
        # though the haystack holds the template verbatim.  The 26-bit
        # template cuts into 13-bit pieces at max_dist 1, the prefilter's path
        template = BitString(template)
        hay = BitString("1" + str(template) * 3)
        empties = [Interval(1, 0), Interval(5, 4), Interval(len(hay) + 1, len(hay))]
        assert find_closest_subwords(template, [hay] * 3, empties, max_dist) == [None] * 3
        got = find_closest_subwords(template, [hay, BitString("")], [Interval(1, 0)] * 2, max_dist)
        assert got == [None, None]
        whole = find_closest_subword(template, hay, Interval(1, len(hay)), max_dist)
        assert whole is not None

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_index_list_of_the_wrong_length(self, extra):
        template = BitString("0" * 13 + "1" * 13)  # long enough for the prefilter
        hays = [BitString("01" * 40)] * 3
        indexes = [search_index(hays[0])] * (3 + extra)
        with pytest.raises(ValueError, match="index entry"):
            find_closest_subwords(template, hays, [Interval(1, 80)] * 3, 1, indexes)



def _low_entropy(kind: str, n: int, rng: np.random.Generator) -> BitString:
    if kind == "zeros":
        return BitString("0" * n)
    if kind == "sparse":  # zero runs broken by rare ones
        return BitString((rng.random(n) < 0.03).astype(np.uint8))
    period = {"p2": "01", "p3": "001", "p7": "0010111"}[kind]
    return BitString((period * n)[:n])


def _grams_naive(digits: str) -> bytes:
    """The 8-gram string read off the digits: byte p is bits p..p+7."""
    return bytes(int(digits[p : p + 8], 2) for p in range(len(digits) - 7))


class TestPrefilter:
    """The prefilter keeps exactly the starts the ``bytes.find`` walk in
    ``prefilter_starts_find`` keeps, or the first of them alone when every
    piece first occurs at one anchor (``verbatim_anchor``), whether it scans
    the haystack's grams or looks pieces up in its sorted word groups."""

    @staticmethod
    def check(template: np.ndarray, hay: BitString, search: Interval, max_dist: int):
        # the cut find_closest_subwords makes: max_dist + 1 pieces at
        # np.linspace bounds, each long enough to look up in the groups and
        # carrying its grams
        t = template.size
        assert t // (max_dist + 1) >= strings_module._KMER
        bounds = np.linspace(0, t, max_dist + 2).astype(int).tolist()
        grams = _grams_naive(str(BitString(template)))
        pieces = [(a, grams[a : b - 7]) for a, b in zip(bounds, bounds[1:])]
        min_len = max(1, t - max_dist)
        want = prefilter_starts_find(template, hay.tobytes(), search, max_dist, min_len)
        anchor = verbatim_anchor(template, hay.tobytes(), search, max_dist)
        if anchor is not None:
            # the template occurs there, and the first start, a sure hit, is kept alone
            assert hay.tobytes()[anchor : anchor + t] == template.tobytes()
            assert want[0] == max(anchor - max_dist, search.lo - 1)
            want = want[:1]
        for sort_words in (False, True):
            index = search_index(hay, sort_words)
            got = _prefilter_starts(pieces, index, search, max_dist, min_len)
            assert got == want, f"sort_words={sort_words}"
        return got

    @staticmethod
    def check_index(hay: BitString):
        # the naive index: every 8-gram, and every 12-bit word start, read
        # off the digits
        s = str(hay)
        grams, groups = search_index(hay, sort_words=True)
        assert grams == _grams_naive(s) and search_index(hay) == (grams, None)
        offsets, starts = groups
        assert offsets.dtype == starts.dtype == np.int32
        assert offsets.size == 4097 and offsets[-1] == starts.size == max(len(hay) - 11, 0)
        want: dict[int, list[int]] = {}
        for p in range(len(s) - 11):
            want.setdefault(int(s[p : p + 12], 2), []).append(p)
        for code in range(4096):
            assert starts[offsets[code] : offsets[code + 1]].tolist() == want.get(code, [])

    @pytest.mark.parametrize("seed", range(4))
    def test_kmer_index_lists_every_word(self, seed):
        rng = np.random.default_rng(seed)
        hay = random_bits(int(rng.integers(0, 3000)), rng) if seed else BitString("01" * 6)
        self.check_index(hay)

    def test_kmer_index_of_short_strings(self, rng):
        # the grams are built from the 2- and 4-bit words and the codes from
        # the grams; every length from no gram or word up to a dozen and more
        for n in range(25):
            self.check_index(random_bits(n, rng))
            self.check_index(BitString("1" * n))

    @pytest.mark.parametrize("extra", [11, 12])
    def test_kmer_index_past_a_million_words(self, extra, rng):
        # 2^20 word starts fit the 20 bits a uint32 sort key holds for a
        # start; one more takes 64-bit keys.  Reference: the codes read off
        # 12-bit sliding windows, in a stable argsort
        hay = random_bits((1 << 20) + extra, rng)
        windows = np.lib.stride_tricks.sliding_window_view(hay.array.astype(np.int64), 12)
        codes = windows @ (1 << np.arange(11, -1, -1))
        offsets, starts = search_index(hay, sort_words=True).groups
        assert starts.size == (1 << 20) + extra - 11
        assert np.array_equal(starts, np.argsort(codes, kind="stable"))
        assert np.array_equal(np.diff(offsets), np.bincount(codes, minlength=4096))

    def test_short_haystack_has_no_words(self):
        grams, (offsets, starts) = search_index(BitString("0" * 11), sort_words=True)
        assert grams == bytes(4) and starts.size == 0 and not offsets.any()

    @pytest.mark.parametrize("max_dist", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_sub_span_of_noisy_copy(self, seed, max_dist):
        rng = np.random.default_rng(100 * max_dist + seed)
        hay = random_bits(3000, rng)
        t = 12 * (max_dist + 1) + max_dist + int(rng.integers(0, 12))
        at = int(rng.integers(1, 3000 - t))
        dels = sorted(rng.choice(np.arange(1, t + 1), size=max_dist, replace=False).tolist())
        template = apply_deletions(hay.subword(at, at + t - 1), dels).trace.array
        lo = int(rng.integers(2, max(3, at - 50)))
        hi = int(rng.integers(min(2999, at + t + 50), 3000))
        self.check(template, hay, Interval(lo, hi), max_dist)

    @pytest.mark.parametrize("max_dist", [1, 2, 3, 4])
    @pytest.mark.parametrize("edge", ["first_at_lo", "first_before_lo", "last_at_hi", "last_past_hi"])
    def test_piece_at_search_edge(self, edge, max_dist):
        # only the edge piece is copied from the haystack; the other pieces are
        # long random strings that occur nowhere, so the piece alone decides
        # whether its anchor is a candidate
        rng = np.random.default_rng(max_dist)
        hay = random_bits(2000, rng)
        t = 40 * (max_dist + 1)
        lo, hi = 700, 1500
        template = random_bits(t, rng).array.copy()
        bounds = np.linspace(0, t, max_dist + 2).astype(int)
        if edge.startswith("first"):
            start0 = lo - 1 - (edge == "first_before_lo")
            template[: bounds[1]] = hay.array[start0 : start0 + bounds[1]]
            anchor = start0
        else:
            end0 = hi + (edge == "last_past_hi")  # exclusive 0-based end
            piece_len = t - bounds[-2]
            template[bounds[-2] :] = hay.array[end0 - piece_len : end0]
            anchor = end0 - t
        got = self.check(template, hay, Interval(lo, hi), max_dist)
        inside = edge in ("first_at_lo", "last_at_hi")
        assert (anchor in got) == inside
        assert len(got) == (2 * max_dist + 1 if inside else 0) - (edge == "first_at_lo") * max_dist

    @pytest.mark.parametrize("max_dist", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["zeros", "sparse", "p2", "p3", "p7"])
    def test_low_entropy_haystack(self, kind, max_dist):
        # every piece occurs many times, so the candidate set is large
        rng = np.random.default_rng(max_dist)
        hay = _low_entropy(kind, 2500, rng)
        t = 12 * (max_dist + 1) + 5
        at = int(rng.integers(300, 2000))
        template = hay.subword(at, at + t - 1).array
        got = self.check(template, hay, Interval(211, 2301), max_dist)
        assert got

    @pytest.mark.parametrize("max_dist", [1, 2])
    @pytest.mark.parametrize("kind", ["random", "zeros"])
    def test_haystack_shorter_than_a_gram_or_a_word(self, kind, max_dist, rng):
        # haystacks of 0-20 bits: under 8 bits they have no gram, under 12
        # no word.  The template starts with the haystack's first 12 bits
        # and ends with its last 12 where it has them, so over every span
        # a piece fits, just misses or cannot occur
        t = 12 * (max_dist + 1)
        for n in range(21):
            hay = _low_entropy("zeros", n, rng) if kind == "zeros" else random_bits(n, rng)
            self.check_index(hay)
            head, tail = hay.array[:12], hay.array[max(n - 12, 0) :]
            middle = random_bits(t - head.size - tail.size, rng).array
            template = np.concatenate([head, middle, tail])
            for lo in range(1, n + 1):
                for hi in range(lo, n + 1):
                    self.check(template, hay, Interval(lo, hi), max_dist)

    @pytest.mark.parametrize("span", [170, 4 * 55, 56, 40])
    @pytest.mark.parametrize("seed", range(3))
    def test_span_within_four_templates(self, seed, span):
        # a stage-1 search runs inside the ~170-bit hit of the stage above;
        # the prefilter serves it too, down to spans shorter than a piece
        rng = np.random.default_rng(seed)
        hay = random_bits(3000, rng)
        at = int(rng.integers(1000, 2000))
        copy = hay.subword(at, at + 55)
        template = apply_deletions(copy, [int(rng.integers(1, 57))]).trace
        assert len(template) == 55
        search = Interval(at - int(rng.integers(0, 20)), at - 20 + span)
        got = self.check(template.array, hay, search, 1)
        assert bool(got) == (span >= 170)  # the copy fits in the span
        want = find_closest_subword_naive(template, hay, search, 1)
        for sort_words in (False, True):
            assert find_closest_subword(template, hay, search, 1, search_index(hay, sort_words)) == want

    @pytest.mark.parametrize("kind", ["random", "sparse", "p3"])
    @pytest.mark.parametrize("max_dist", [1, 2])
    def test_find_closest_subword_with_and_without_index(self, kind, max_dist, prefilter_calls):
        rng = np.random.default_rng(7 + max_dist)
        hay = random_bits(400, rng) if kind == "random" else _low_entropy(kind, 400, rng)
        t = 12 * (max_dist + 1) + 3
        copy = hay.subword(150, 150 + t - 1)
        template = apply_deletions(copy, [int(rng.integers(1, t + 1))]).trace
        search = Interval(int(rng.integers(2, 60)), int(rng.integers(340, 400)))
        want = find_closest_subword_naive(template, hay, search, max_dist)
        assert want is not None
        assert find_closest_subword(template, hay, search, max_dist) == want
        for sort_words in (False, True):
            index = search_index(hay, sort_words)
            assert find_closest_subword(template, hay, search, max_dist, index) == want
        assert len(prefilter_calls) == 3


class TestVerbatimFirstStart:
    """When every piece first occurs at one anchor a, the template occurs
    verbatim there and the prefilter keeps the first candidate start alone,
    ``max(a - max_dist, search start)``, which hits; the window search still
    returns what the exhaustive scan returns, with either index kind."""

    @staticmethod
    def check(template, hay, search, max_dist, kept_starts):
        want = find_closest_subword_naive(template, hay, search, max_dist)
        kept_starts.clear()
        for sort_words in (False, True):
            index = search_index(hay, sort_words)
            assert find_closest_subword(template, hay, search, max_dist, index) == want
        assert kept_starts[0] == kept_starts[1]
        return want, kept_starts[0]

    @pytest.mark.parametrize("max_dist", [1, 2])
    def test_copy_at_the_search_start(self, max_dist, kept_starts):
        # from a span start of a - max_dist on, the first start is the span's
        # first bit, s = a - start bits before the copy; the first hit there
        # keeps those bits and drops the template's last max_dist - s bits
        rng = np.random.default_rng(20 + max_dist)
        hay = random_bits(240, rng)
        t = 12 * (max_dist + 1) + 4
        template = hay.subword(101, 100 + t)
        for lo in range(101 - max_dist, 102):
            got, kept = self.check(template, hay, Interval(lo, 240), max_dist, kept_starts)
            assert kept == [lo - 1]
            assert got == Interval(lo, lo - 1 + t - max_dist + 2 * (101 - lo))

    @pytest.mark.parametrize("max_dist", [1, 2])
    def test_copy_ending_at_the_search_end(self, max_dist, kept_starts):
        # the last piece ends on the span's last bit, so it just fits; a
        # span one bit shorter cuts it off, and every start is scored
        rng = np.random.default_rng(30 + max_dist)
        hay = random_bits(240, rng)
        t = 12 * (max_dist + 1) + 4
        template = hay.subword(151 - t, 150)
        got, kept = self.check(template, hay, Interval(60, 150), max_dist, kept_starts)
        assert kept == [150 - t - max_dist]
        assert got.lo == 151 - t - max_dist
        got, kept = self.check(template, hay, Interval(60, 149), max_dist, kept_starts)
        assert len(kept) > 1 and kept[0] == 150 - t - max_dist

    @pytest.mark.parametrize("piece", ["first", "last"])
    @pytest.mark.parametrize("max_dist", [1, 2])
    def test_spurious_earlier_piece_scores_every_start(self, piece, max_dist, kept_starts):
        # one piece also occurs alone before the copy, so the pieces' first
        # occurrences give two anchors: every candidate start is kept, those
        # of the lone piece first, and the copy still decides the hit
        rng = np.random.default_rng(40 + max_dist)
        hay = random_bits(300, rng).array.copy()
        t = 12 * (max_dist + 1) + 4
        template = hay[180 : 180 + t].copy()
        bounds = np.linspace(0, t, max_dist + 2).astype(int).tolist()
        a_off, b_off = bounds[:2] if piece == "first" else bounds[-2:]
        hay[90 : 90 + b_off - a_off] = template[a_off:b_off]
        hay = BitString(hay)
        got, kept = self.check(BitString(template), hay, Interval(1, 300), max_dist, kept_starts)
        assert kept[0] == 90 - a_off - max_dist
        assert 180 - max_dist in kept and got.lo == 181 - max_dist

    def test_missing_first_piece_is_no_anchor(self, kept_starts):
        # the copy lacks a bit of the first piece, which so occurs nowhere and
        # reads -1; the second piece first occurs at its offset less one,
        # which reads -1 as well, but no copy starts there
        rng = np.random.default_rng(70)
        hay = random_bits(150, rng).array.copy()
        template = hay[100:140].copy()
        hay[100:140] = np.append(np.delete(template, 5), hay[140])
        hay[19:39] = template[20:]
        hay = BitString(hay)
        assert verbatim_anchor(template, hay.tobytes(), Interval(1, 150), 1) is None
        got, kept = self.check(BitString(template), hay, Interval(1, 150), 1, kept_starts)
        assert kept[0] == 0 and 99 in kept and got == Interval(101, 139)

    @pytest.mark.parametrize("max_dist", [1, 2])
    @pytest.mark.parametrize("kind", ["p3", "sparse"])
    def test_low_entropy_copy_hits_short(self, kind, max_dist, kept_starts):
        # the copy starts in a low-entropy stretch and ends in a random one,
        # which makes its anchor unique; from the copy's start the hit is
        # max_dist bits shorter than the template, far fewer than the
        # t + max_dist bits of a row.  Earlier span starts are checked too
        rng = np.random.default_rng(50 + max_dist)
        hay = _low_entropy(kind, 300, rng).array.copy()
        t = 12 * (max_dist + 1) + 5
        hay[150 + t // 2 : 230] = random_bits(230 - 150 - t // 2, rng).array
        hay = BitString(hay)
        template = hay.subword(151, 150 + t)
        for lo in range(148 - max_dist, 152):
            got, kept = self.check(template, hay, Interval(lo, 300), max_dist, kept_starts)
            assert got is not None and got.lo >= lo
        assert kept == [150] and got == Interval(151, 150 + t - max_dist)

    def test_one_scoring_pass_with_the_prefilter(self, kept_starts, first_hits_rows):
        # a verbatim copy, a copy with a deletion, a copy behind a lone
        # earlier piece and a haystack without one: their rows fit one
        # 2048-row block, so one _first_hits call scores them all
        rng = np.random.default_rng(60)
        hays = [random_bits(300, rng).array.copy() for _ in range(4)]
        template = hays[0][120:160].copy()
        hays[1][200:239] = np.delete(template, 17)
        hays[2][50:70] = template[20:]
        hays[2][150:190] = template
        hays = [BitString(h) for h in hays]
        searches = [Interval(1, 300)] * 4
        got = TestFindClosestSubwords.check(BitString(template), hays, searches, 1)
        assert len(first_hits_rows) == 1
        assert got[0] == Interval(120, 160) and got[1] is not None and got[3] is None
        assert len(kept_starts[0]) == 1 and len(kept_starts[1]) > 1 and len(kept_starts[2]) > 1

    def test_first_starts_alone_without_the_prefilter(self, first_hits_rows):
        # pieces of 3 bits: every start is scored, each haystack's first
        # start in a pass of its own, and the later starts only of the
        # haystacks whose first start misses
        template = BitString("0110100")
        hays = [BitString("0110100" + "1" * 30), BitString("10110100" + "0" * 30)]
        searches = [Interval(1, 37), Interval(1, 38)]
        got = TestFindClosestSubwords.check(template, hays, searches, 1)
        assert got[0] == Interval(1, 6) and first_hits_rows == [2]
        hays.append(BitString("1" * 40))
        first_hits_rows.clear()
        assert TestFindClosestSubwords.check(template, hays, searches + [Interval(1, 40)], 1)[2] is None
        assert first_hits_rows == [3, 40 - 6]


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

    @given(
        st.lists(st.text(alphabet="01", max_size=40), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=6),
    )
    def test_matches_every_window_scan(self, raw_windows, word_len):
        windows = [BitString(w) for w in raw_windows]
        for threshold in range(1, len(windows) + 1):
            assert find_common_word(windows, word_len, threshold) == (
                common_word_naive(windows, word_len, threshold)
            )

    def test_winner_first_in_the_last_window_read(self):
        # threshold 3 of 5: window 2 is the last one candidates come from,
        # and "000" from windows 0 and 1 is in only two windows
        windows = [BitString(w) for w in ("0000", "0000", "0111", "111", "1110")]
        want = (BitString("111"), [None, None, 2, 1, 1])
        assert find_common_word(windows, 3, 3) == common_word_naive(windows, 3, 3) == want

    def test_threshold_all_reads_window_zero(self):
        # every window holds "110" and "101", but only window 0's order counts
        windows = [BitString(w) for w in ("0001101", "1011100", "1101010")]
        want = (BitString("110"), [4, 4, 1])
        assert find_common_word(windows, 3, 3) == common_word_naive(windows, 3, 3) == want
        assert find_common_word(windows[1:], 3, 2) == (BitString("101"), [1, 2])
