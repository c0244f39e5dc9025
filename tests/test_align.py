from __future__ import annotations

import importlib
import math

import pytest

from tracerecon import (
    BitString,
    align,
    apply_deletions,
    consensus_check,
    derive_params,
    random_bits,
    source_of,
    transmit,
)
from tracerecon.rng import stream

from .oracles import align_per_trace

align_module = importlib.import_module("tracerecon.align")


def make_instance(n, delta, m, seed, **kw):
    """A source, its parameters and m channel records; records[0] is the
    reference."""
    g = stream(seed, 0)
    x = random_bits(n, g)
    params = derive_params(n, delta, m, **kw)
    records = [transmit(x, delta, g) for _ in range(m)]
    return x, params, records


class TestConfiguration:
    def test_cursors_one_based(self):
        recs = [apply_deletions(BitString("0101"), set()) for _ in range(3)]
        with pytest.raises(ValueError):
            consensus_check((1, 0, 2), recs, 2)


class TestAlignCleanChannel:
    def test_exact_location_no_noise(self):
        x, params, _ = make_instance(2**14, 0.01, 8, seed=21)
        # replace the noisy records with clean ones: every trace equals x
        clean = [apply_deletions(x, set()) for _ in range(8)]
        ell = len(x) // 2
        cursors, diag = align(params, ell, [r.trace for r in clean])
        assert diag.failure_stage is None
        ok, loc = consensus_check(cursors, clean, threshold=len(clean))
        # every cursor sits on the reference cursor's own source bit
        assert ok and loc == ell
        assert cursors == (ell,) * len(clean)

    def test_nested_windows(self):
        x, params, _ = make_instance(2**14, 0.01, 8, seed=22)
        clean = [apply_deletions(x, set()) for _ in range(8)]
        _, diag = align(params, len(x) // 2, [r.trace for r in clean])
        for per_trace in diag.trace_windows:
            stages = [w for w in per_trace if w is not None]
            # index s-1 holds stage s: windows grow going up the ladder
            for inner, outer in zip(stages, stages[1:]):
                assert outer.lo <= inner.lo and inner.hi <= outer.hi

    def test_noisy_consensus_small_delta(self):
        x, params, records = make_instance(2**14, 1e-4, 8, seed=23, k_const=4.0)
        ell = len(records[0].trace) // 2
        cursors, diag = align(params, ell, [r.trace for r in records])
        assert diag.failure_stage is None and cursors[0] == ell
        ok, loc = consensus_check(cursors, records, threshold=math.ceil(0.9 * 8))
        # all 8 cursors agree, the reference's among them: on its source bit
        assert ok and loc == source_of(records[0], ell)


class TestAlignFailure:
    def test_unmatchable_traces(self):
        n = 2**12
        params = derive_params(n, 0.01, 4)
        traces = [BitString("0" * n)] + [BitString("1" * n) for _ in range(3)]
        cursors, diag = align(params, n // 2, traces)
        assert cursors is None
        assert diag.failure_stage == params.S
        assert diag.failure_trace == 1

    def test_empty_trace(self):
        n = 2**12
        params = derive_params(n, 0.01, 3)
        x = random_bits(n, stream(1, 0))
        cursors, diag = align(params, n // 2, [x, BitString(""), x])
        assert cursors is None
        assert diag.failure_stage == params.S
        assert diag.failure_trace == 1

    def test_failure_stage_zero_is_word_stage(self):
        # traces that pass the ladder but share no long word: build traces
        # that contain the coarse windows but scramble the fine structure
        n = 2**12
        params = derive_params(n, 0.01, 2)
        g = stream(2, 0)
        x = random_bits(n, g)
        _, diag = align(params, n // 2, [x, x])
        assert diag.failure_stage is None  # sanity: identical traces succeed


class TestAlignModes:
    def test_desk_mode_clamps(self):
        n = 2**14
        params = derive_params(n, 0.01, 4)
        x = random_bits(n, stream(4, 0))
        # cursors close to either edge: the reference windows would stick
        # out, so they are clamped to the trace and every ladder stage still
        # matches (the innermost window is then too short for the common
        # word, so the word stage is what fails)
        for ell, edge in ((5, "lo"), (n - 4, "hi")):
            _, diag = align(params, ell, [x] * 4)
            assert diag.failure_stage == 0
            for per_trace in diag.trace_windows:
                assert all(1 <= w.lo and w.hi <= n for w in per_trace)
                assert getattr(per_trace[0], edge) == (1 if edge == "lo" else n)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_index_list_of_the_wrong_length(self, extra):
        n = 2**12
        params = derive_params(n, 0.01, 3)
        x = random_bits(n, stream(6, 0))
        with pytest.raises(ValueError, match="index entry"):
            align(params, n // 2, [x] * 3, [None] * (3 + extra))

    def test_single_trace(self):
        n = 2**13
        params = derive_params(n, 0.01, 1)
        x = random_bits(n, stream(5, 0))
        cursors, diag = align(params, n // 2, [x])
        assert diag.failure_stage is None
        # the lone reference keeps its cursor, inside its innermost window
        w = diag.trace_windows[0][0]
        assert cursors == (n // 2,) and w.lo <= n // 2 <= w.hi


class TestConsensusCheck:
    def test_threshold_met(self):
        recs = [apply_deletions(BitString("0101"), set()) for _ in range(3)]
        ok, loc = consensus_check((2, 2, 3), recs, 2)
        assert ok and loc == 2

    def test_threshold_missed(self):
        recs = [apply_deletions(BitString("0101"), set()) for _ in range(3)]
        ok, loc = consensus_check((1, 2, 3), recs, 2)
        assert not ok and loc is None

    def test_ties_take_smallest_source(self):
        recs = [apply_deletions(BitString("0101"), set()) for _ in range(4)]
        ok, loc = consensus_check((3, 3, 1, 1), recs, 2)
        assert ok and loc == 1

    def test_arity_mismatch(self):
        recs = [apply_deletions(BitString("01"), set())]
        with pytest.raises(ValueError):
            consensus_check((1, 1), recs, 1)

    def test_none_cursors_sit_on_no_position(self):
        recs = [apply_deletions(BitString("0101"), set()) for _ in range(4)]
        assert consensus_check((None, 3, None, 3), recs, 2) == (True, 3)
        assert consensus_check((None, 3, None, 2), recs, 2) == (False, None)

    def test_all_none_has_no_consensus(self):
        recs = [apply_deletions(BitString("0101"), set()) for _ in range(3)]
        assert consensus_check((None, None, None), recs, 1) == (False, None)


class TestReference:
    """traces[0] is the reference: its ladder windows are the templates, it
    is never searched, and a successful alignment keeps its cursor."""

    @pytest.mark.parametrize("delta", [1e-4, 1e-3])
    def test_reference_is_never_searched(self, delta, monkeypatch):
        searched = []
        real = align_module.find_closest_subwords

        def recording(template, haystacks, *args):
            searched.extend(haystacks)
            return real(template, haystacks, *args)

        monkeypatch.setattr(align_module, "find_closest_subwords", recording)
        n, m = 4096, 7
        g = stream(33, 0)
        x = random_bits(n, g)
        params = derive_params(n, 0.01, m)
        traces = [transmit(x, delta, g).trace for _ in range(m)]
        aligned = 0
        for ell in range(100, len(traces[0]) - 100, 97):
            searched.clear()
            cursors, diag = align(params, ell, traces)
            assert searched and not any(h is traces[0] for h in searched)
            half = (params.t1 - 1) // 2
            assert diag.trace_windows[0][0] == (ell - half, ell + half)
            if cursors is not None:
                aligned += 1
                assert cursors[0] == ell
        assert aligned > 0


def plant_missing_word(n, m, ell, lacking, seed=31):
    """m copies of a random string, except that each trace in ``lacking``
    (never the reference, trace 0) has the bit under ``ell`` flipped.  With gamma=0.02 the stage budgets
    (2 at stage 1) still let every trace through the ladder, but every
    common-word candidate covers the flipped bit, so those traces' innermost
    windows lack the word.  Returns (params, x, traces)."""
    x = random_bits(n, stream(seed, 0))
    params = derive_params(n, 0.01, m, gamma=0.02)
    flipped = bytearray(x.tobytes())
    flipped[ell - 1] ^= 1
    traces = [BitString(bytes(flipped)) if i in lacking else x for i in range(m)]
    return params, x, traces


class TestWordMembers:
    """A trace whose innermost window lacks the common word gets a None
    cursor; the others still get theirs."""

    @pytest.mark.parametrize("ell", [41, 2048])
    @pytest.mark.parametrize("k", [1, 2, 13, 24])
    def test_lacking_trace_gets_none(self, ell, k):
        params, x, traces = plant_missing_word(4096, 25, ell, {k})
        cursors, diag = got = align(params, ell, traces)
        assert got == align_per_trace(params, ell, traces)
        assert diag.failure_stage is None
        assert cursors[k] is None
        placed = [c for m, c in enumerate(cursors) if m != k]
        assert placed == [ell] * (len(traces) - 1)

    def test_too_many_lacking_traces_fail_the_word_stage(self):
        # 25 traces need the word in ceil(0.95 * 25) = 24 windows
        params, x, traces = plant_missing_word(4096, 25, 2048, {3, 20})
        got = align(params, 2048, traces)
        assert got == align_per_trace(params, 2048, traces)
        assert got[0] is None and got[1].failure_stage == 0


# gamma per trace count so that stage 1 searches exactly (budget 0) and
# stage 2 allows one edit: one deleted bit at the reference cursor then
# fails stage 1 only
_STAGE1_GAMMA = {1: 0.02, 2: 0.02, 3: 0.01, 7: 0.01, 25: 0.005}


def _first_misses(m):
    """Trace indexes on and around the batch boundaries (3, 7, 15); the
    reference, trace 0, is never searched and so never misses."""
    return sorted({i for i in (1, 2, 3, 4, 6, 7, 14, 15, m - 1) if 1 <= i < m})


class TestBatchedLadder:
    """align searches each ladder stage over a batch of traces; it returns
    the cursors and diagnostics of the trace-by-trace oracle."""

    N = 4096

    @staticmethod
    def check(params, ell, traces):
        got = align(params, ell, traces)
        assert got == align_per_trace(params, ell, traces)
        return got[1]

    def clean(self, m, seed=31):
        x = random_bits(self.N, stream(seed, 0))
        params = derive_params(self.N, 0.01, m, gamma=_STAGE1_GAMMA[m])
        assert [int(2 * params.gamma * t) for t in params.t_ladder[:2]] == [0, 1]
        # the unbroken copies align, a lone reference included
        assert self.check(params, self.N // 2, [x] * m).failure_stage is None
        return x, params, [x] * m

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 25])
    def test_miss_at_widest_stage(self, m):
        x, params, traces = self.clean(m)
        for first in _first_misses(m):
            bad = list(traces)
            bad[first] = BitString(1 - x.array)  # the complement holds no window
            diag = self.check(params, self.N // 2, bad)
            assert (diag.failure_stage, diag.failure_trace) == (params.S, first)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 25])
    def test_miss_at_stage_one(self, m):
        x, params, traces = self.clean(m)
        ell = self.N // 2
        cut = apply_deletions(x, {ell}).trace
        for first in _first_misses(m):
            bad = list(traces)
            bad[first] = cut
            diag = self.check(params, ell, bad)
            assert (diag.failure_stage, diag.failure_trace) == (1, first)
            if first + 1 < m:
                # a later trace that misses sooner does not take the failure
                bad[first + 1] = BitString(1 - x.array)
                diag = self.check(params, ell, bad)
                assert (diag.failure_stage, diag.failure_trace) == (1, first)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 25])
    def test_empty_trace_in_a_batch(self, m):
        x, params, traces = self.clean(m)
        cut = apply_deletions(x, {self.N // 2}).trace
        for first in _first_misses(m):
            bad = list(traces)
            bad[first] = BitString("")
            diag = self.check(params, self.N // 2, bad)
            assert (diag.failure_stage, diag.failure_trace) == (params.S, first)
            if first > 1:
                # an earlier trace's stage-1 miss comes first
                bad[first - 1] = cut
                diag = self.check(params, self.N // 2, bad)
                assert (diag.failure_stage, diag.failure_trace) == (1, first - 1)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 25])
    def test_no_search_after_the_batch_is_dead(self, m, monkeypatch):
        # a miss or an empty trace first in a batch leaves no live trace:
        # the later stages of that batch search nothing
        haystack_counts = []
        real = align_module.find_closest_subwords

        def recording(template, haystacks, *args):
            haystack_counts.append(len(haystacks))
            return real(template, haystacks, *args)

        monkeypatch.setattr(align_module, "find_closest_subwords", recording)
        x, params, traces = self.clean(m)
        for first in _first_misses(m):
            for bad_trace in (BitString(1 - x.array), BitString("")):
                bad = list(traces)
                bad[first] = bad_trace
                haystack_counts.clear()
                diag = self.check(params, self.N // 2, bad)
                assert (diag.failure_stage, diag.failure_trace) == (params.S, first)
                assert 0 not in haystack_counts

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 25])
    def test_cursor_at_either_edge_fails_the_word_stage(self, m):
        x, params, traces = self.clean(m)
        for ell in (1, 2, self.N - 1, self.N):
            diag = self.check(params, ell, traces)
            assert diag.failure_stage == 0

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 25])
    @pytest.mark.parametrize("delta", [1e-3, 0.01])
    def test_noisy_traces(self, m, delta):
        # real channel output: successes and misses at whatever stage the
        # noise puts them
        g = stream(32, m)
        x = random_bits(self.N, g)
        params = derive_params(self.N, 0.01, m)
        traces = [transmit(x, delta, g).trace for _ in range(m)]
        n_star = len(traces[0])
        for ell in (1, 5, 700, n_star // 2, n_star - 4, n_star):
            self.check(params, ell, traces)
