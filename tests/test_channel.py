from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracerecon import (
    BitString,
    TraceRecord,
    apply_deletions,
    image_ceil,
    random_bits,
    source_of,
    transmit,
)
from tracerecon.rng import stream

from .oracles import image_of


class TestApplyDeletions:
    def test_example(self):
        rec = apply_deletions(BitString("0110"), {2})
        assert str(rec.trace) == "010"
        assert list(rec.source_map) == [1, 3, 4]

    def test_delete_all(self):
        rec = apply_deletions(BitString("01"), {1, 2})
        assert len(rec.trace) == 0
        assert list(rec.source_map) == []

    def test_delete_none(self):
        rec = apply_deletions(BitString("0110"), set())
        assert str(rec.trace) == "0110"
        assert list(rec.source_map) == [1, 2, 3, 4]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply_deletions(BitString("01"), {3})

    @given(st.text(alphabet="01", max_size=40), st.sets(st.integers(1, 40)))
    def test_trace_is_subsequence(self, s, dels):
        dels = {d for d in dels if d <= len(s)}
        rec = apply_deletions(BitString(s), dels)
        assert len(rec.trace) == len(rec.source_map) == len(s) - len(dels)
        kept = [i for i in range(1, len(s) + 1) if i not in dels]
        assert list(rec.source_map) == kept
        assert str(rec.trace) == "".join(s[i - 1] for i in kept)


class TestTransmit:
    def test_delta_zero_identity(self, rng):
        x = random_bits(200, rng)
        rec = transmit(x, 0.0, rng)
        assert str(rec.trace) == str(x)
        assert list(rec.source_map) == list(range(1, 201))

    def test_delta_one_empty(self, rng):
        rec = transmit(random_bits(50, rng), 1.0, rng)
        assert len(rec.trace) == 0
        assert rec.source_len - len(rec.trace) == 50

    def test_trace_length_statistics(self):
        # mean |trace| = n(1-delta); check within 3 standard errors
        n, delta, trials = 1000, 0.1, 2000
        g = stream(7, 0)
        x = random_bits(n, g)
        lengths = [len(transmit(x, delta, g).trace) for _ in range(trials)]
        mean = float(np.mean(lengths))
        se = float(np.sqrt(n * delta * (1 - delta) / trials))
        assert abs(mean - n * (1 - delta)) <= 3 * se

    def test_deterministic_given_stream(self):
        x = random_bits(100, stream(3, 1))
        a = transmit(x, 0.3, stream(3, 2))
        b = transmit(x, 0.3, stream(3, 2))
        assert str(a.trace) == str(b.trace)
        assert list(a.source_map) == list(b.source_map)


class TestCoordinateMaps:
    def setup_method(self):
        self.rec = apply_deletions(BitString("0110"), {2})

    def test_source_of(self):
        assert source_of(self.rec, 1) == 1
        assert source_of(self.rec, 2) == 3
        assert source_of(self.rec, 3) == 4

    def test_source_of_padding_extension(self):
        # queries past the trace extend past the source by the same amount
        assert source_of(self.rec, 4) == 5
        assert source_of(self.rec, 10) == 11

    def test_image_of(self):
        assert image_of(self.rec, 1) == 1
        assert image_of(self.rec, 2) is None
        assert image_of(self.rec, 3) == 2
        assert image_of(self.rec, 4) == 3

    def test_image_ceil(self):
        assert image_ceil(self.rec, 1) == 1
        assert image_ceil(self.rec, 2) == 2
        assert image_ceil(self.rec, 4) == 3
        # past every surviving position: |trace| + 1
        rec = apply_deletions(BitString("011"), {3})
        assert image_ceil(rec, 3) == 3

    @given(st.text(alphabet="01", min_size=1, max_size=30), st.sets(st.integers(1, 30)))
    def test_roundtrip(self, s, dels):
        dels = {d for d in dels if d <= len(s)}
        rec = apply_deletions(BitString(s), dels)
        for q in range(1, len(rec.trace) + 1):
            p = source_of(rec, q)
            assert image_of(rec, p) == q
            assert image_ceil(rec, p) == q
        for p in range(1, len(s) + 1):
            j = image_of(rec, p)
            if j is None:
                assert p in dels
            else:
                assert source_of(rec, j) == p

    @given(st.text(alphabet="01", min_size=1, max_size=30), st.sets(st.integers(1, 30)))
    def test_image_ceil_monotone(self, s, dels):
        dels = {d for d in dels if d <= len(s)}
        rec = apply_deletions(BitString(s), dels)
        vals = [image_ceil(rec, p) for p in range(1, len(s) + 1)]
        assert vals == sorted(vals)
        assert all(1 <= v <= len(rec.trace) + 1 for v in vals)


class TestTraceRecord:
    def test_length_invariant_enforced(self):
        # a source map of the wrong length, either way
        for source_map in ([2, 4], [1, 2, 3, 4]):
            with pytest.raises(ValueError):
                TraceRecord(source_len=4, trace=BitString("010"), source_map=np.array(source_map))

    def test_trace_longer_than_its_source(self):
        with pytest.raises(ValueError):
            TraceRecord(source_len=2, trace=BitString("010"), source_map=np.array([1, 2, 3]))
