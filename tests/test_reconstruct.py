from __future__ import annotations

import hashlib
import importlib
import json
import math

import pytest

from tracerecon import (
    PAPER_DEFAULTS,
    BitString,
    derive_params,
    edit_distance,
    random_bits,
    reconstruct,
    reconstruct_with_fallback,
    transmit,
)
from tracerecon.rng import stream

from .test_align import plant_missing_word

# the package re-exports the function under the module's name
reconstruct_module = importlib.import_module("tracerecon.reconstruct")
align_module = importlib.import_module("tracerecon.align")
strings_module = importlib.import_module("tracerecon.strings")


def record_index_builds(monkeypatch) -> list[tuple[BitString, bool]]:
    """Every search index that align or the window search builds, as
    (haystack, whether its 12-bit words were sorted), in build order."""
    built = []
    real = strings_module.search_index

    def counting(bits, sort_words=False):
        index = real(bits, sort_words)
        built.append((bits, index.groups is not None))
        return index

    monkeypatch.setattr(align_module, "search_index", counting)
    monkeypatch.setattr(strings_module, "search_index", counting)
    return built


class TestReconstructCleanChannel:
    def test_zero_noise_structure(self):
        # clean traces, desk parameters: each segment votes the R source bits
        # from the reference cursor on and the next starts right after them,
        # and the ends are the source's own, so the hypothesis is the source
        for n in (2**13, 2**15):
            params = derive_params(n, 0.01, 25)
            x = random_bits(n, stream(11, 0))
            res = reconstruct(params, [x] * 25)
            assert res.regime_action == "run_full"
            assert res.m_used == 25
            assert len(res.segments) >= 2
            assert res.hypothesis == x
            assert res.segments[0][0] == (params.t1 - 1) // 2 + 1
            cursors = [c for c, _ in res.segments]
            assert all(b - a == params.R for a, b in zip(cursors, cursors[1:]))
            assert all(emitted == params.R for _, emitted in res.segments)

    def test_empty_reference(self):
        params = derive_params(4096, 0.01, 3)
        res = reconstruct(params, [BitString("")] * 3)
        assert len(res.hypothesis) == 0 and res.segments == ()

    def test_trace_count_checked(self):
        params = derive_params(4096, 0.01, 3)
        x = random_bits(4096, stream(12, 0))
        with pytest.raises(ValueError):
            reconstruct(params, [x] * 2)

    def test_paper_mode_falls_back_to_single_trace(self):
        # at paper constants the end margin is wider than the whole trace at
        # this n, so the result is the reference trace itself
        n = 2**14
        params = derive_params(n, 0.01, 25, **PAPER_DEFAULTS)
        g = stream(13, 0)
        x = random_bits(n, g)
        y = transmit(x, 0.01, g).trace
        res = reconstruct(params, [y] * 25)
        assert res.hypothesis == y
        assert res.segments == ()

    def test_no_segment_fits_returns_reference(self):
        # at default constants the end margin ceil(5 * 8 * log2 256) = 320
        # exceeds the whole reference, so no segment fits: the answer is the
        # reference trace, not an empty hypothesis
        n = 256
        params = derive_params(n, 0.01, 3)
        g = stream(16, 0)
        x = random_bits(n, g)
        traces = [transmit(x, 0.01, g).trace for _ in range(3)]
        res = reconstruct(params, traces)
        assert res.regime_action == "output_single_trace"
        assert res.hypothesis == traces[0]
        assert res.segments == ()


class TestReconstructNoisy:
    def test_low_noise_end_to_end(self):
        # gentle regime where the ladder and word search actually hold up
        n = 2**14
        delta = 1e-4
        g = stream(15, 0)
        x = random_bits(n, g)
        traces = [transmit(x, delta, g).trace for _ in range(8)]
        params = derive_params(n, delta, 8, k_const=4.0)
        res = reconstruct(params, traces)
        d = edit_distance(x, res.hypothesis)
        # no worse than one trace, whose distance is its deletion count
        assert len(res.segments) >= 2
        assert d <= n - len(traces[0])


class TestFailedAlignment:
    """Traces unrelated to the reference: no other trace holds the widest
    ladder window within budget, so every alignment fails and each segment
    must come from the reference trace, not from a vote."""

    @pytest.fixture
    def run(self, monkeypatch):
        n = 2**13
        params = derive_params(n, 0.01, 25)
        g = stream(20, 0)
        y_star = random_bits(n, g)
        traces = [y_star] + [random_bits(n, g) for _ in range(24)]
        stages = []
        votes = []
        real_align, real_bma_run = reconstruct_module.align, reconstruct_module.bma_run

        def recording_align(*args):
            cursors, diag = real_align(*args)
            stages.append(diag.failure_stage)
            return cursors, diag

        def recording_bma_run(*args):
            votes.append(args[1])
            return real_bma_run(*args)

        monkeypatch.setattr(reconstruct_module, "align", recording_align)
        monkeypatch.setattr(reconstruct_module, "bma_run", recording_bma_run)
        built = record_index_builds(monkeypatch)
        res = reconstruct(params, traces)
        assert stages and None not in stages
        assert len(stages) == len(res.segments) >= 2
        return params, traces, res, votes, built

    def test_segments_copy_the_reference(self, run):
        # the copied segments and the reference's own ends tile the
        # reference: the hypothesis is the reference trace
        params, traces, res, _, _ = run
        assert all(emitted == params.R for _, emitted in res.segments)
        assert res.segments[0][0] == (params.t1 - 1) // 2 + 1
        assert res.hypothesis == traces[0]

    def test_cursor_advances_by_r(self, run):
        params, _, res, _, _ = run
        cursors = [c for c, _ in res.segments]
        assert all(b - a == params.R for a, b in zip(cursors, cursors[1:]))

    def test_no_vote_reaches_the_hypothesis(self, run):
        _, traces, res, votes, _ = run
        assert votes == [], f"{len(votes)} failed alignments reached bma_run"
        assert res.hypothesis == traces[0]

    def test_only_searched_traces_are_indexed(self, run):
        # the reference is never searched, and every alignment stops at
        # trace 1, the first of the first batch (traces 1 and 2), so traces
        # 3.. are never indexed; about 10 segments are too few to sort a
        # trace's words for
        _, traces, _, _, built = run
        assert [b for b, _ in built] == traces[1:3]
        assert all(b is t for (b, _), t in zip(built, traces[1:3]))
        assert not any(sort for _, sort in built)


class TestVoteMembers:
    def test_trace_without_the_word_sits_out_the_vote(self, monkeypatch):
        # trace 5 lacks the common word at the first segment only, so that
        # vote runs over the other 24 traces, the reference among them, and
        # every later segment's vote has all 25, each trace once
        n, m, k = 4096, 25, 5
        first = (derive_params(n, 0.01, m).t1 - 1) // 2 + 1  # the loop's first cursor
        params, x, traces = plant_missing_word(n, m, first, {k})
        votes = []
        real_bma_run = reconstruct_module.bma_run

        def recording_bma_run(seqs, starts, rounds):
            votes.append((list(seqs), list(starts)))
            return real_bma_run(seqs, starts, rounds)

        monkeypatch.setattr(reconstruct_module, "bma_run", recording_bma_run)
        res = reconstruct(params, traces)
        assert res.segments[0][0] == first and len(votes) == len(res.segments) >= 2
        seqs, starts = votes[0]
        assert len(seqs) == m - 1 and starts == [first] * (m - 1)
        assert traces[k] not in seqs
        assert all(len(seqs) == m for seqs, _ in votes[1:])


class TestTraceIndex:
    def test_one_index_per_trace(self, monkeypatch):
        # the widest ladder stage searches every whole trace but the
        # reference at every segment; each trace's search index is built once
        # per call, on its first search: its 8-gram string alone at a few segments, and its sorted
        # words too once the selection's constant is below the segments
        n, delta, m = 4096, 0.001, 3
        g = stream(21, 0)
        x = random_bits(n, g)
        traces = [transmit(x, delta, g).trace for _ in range(m)]
        params = derive_params(n, delta, m)
        prefiltered = []
        real_prefilter = strings_module._prefilter_starts

        def counting_prefilter(*args):
            starts = real_prefilter(*args)
            prefiltered.append(starts)
            return starts

        monkeypatch.setattr(strings_module, "_prefilter_starts", counting_prefilter)
        built = record_index_builds(monkeypatch)
        res = reconstruct(params, traces)
        assert len(res.segments) >= 2 and len(prefiltered) > len(traces)
        # the reference is never searched, so it has no index
        searched = traces[1:]
        assert [b for b, _ in built] == searched
        assert all(b is t for (b, _), t in zip(built, searched))
        assert not any(sort for _, sort in built)

        built.clear()
        monkeypatch.setattr(align_module, "_SORT_PAST_SEGMENTS", 0)
        assert reconstruct(params, traces) == res
        assert all(b is t and sort for (b, sort), t in zip(built, searched))
        assert len(built) == len(searched)
        # the index lives only as long as the call; strings carry no cache of it
        assert BitString.__slots__ == ("_bytes",)

    def test_same_result_on_both_sides_of_the_selection(self, monkeypatch):
        # n = 2^15, delta = 1e-3, M = 16, K = 4 runs about 45 segments; with
        # the constant at 0 every trace's words are sorted, and with it at
        # the segments the reference holds none are, and the two
        # reconstructions must agree in every field
        n, delta, m = 2**15, 1e-3, 16
        g = stream(21, 0)
        x = random_bits(n, g)
        traces = [transmit(x, delta, g).trace for _ in range(m)]
        params = derive_params(n, delta, m, k_const=4.0)
        built = record_index_builds(monkeypatch)
        runs = []
        for sort_past in (0, math.ceil(len(traces[0]) / params.R)):
            monkeypatch.setattr(align_module, "_SORT_PAST_SEGMENTS", sort_past)
            built.clear()
            runs.append(reconstruct(params, traces))
            assert len(built) == m - 1 and {sort for _, sort in built} == {sort_past == 0}
        assert len(runs[0].segments) >= 40
        assert runs[0] == runs[1]


class TestFallbackRouting:
    @pytest.mark.parametrize("delta", [-1.0, 1.5, float("nan")])
    def test_rejects_delta_outside_unit_interval(self, delta):
        traces = [random_bits(1024, stream(16, 0))] * 4
        with pytest.raises(ValueError, match="^delta must be"):
            reconstruct_with_fallback(1024, delta, traces)

    def test_tiny_delta_returns_first_trace(self):
        g = stream(16, 0)
        x = random_bits(1024, g)
        traces = [transmit(x, 1e-9, g).trace for _ in range(4)]
        res = reconstruct_with_fallback(1024, 1e-9, traces)
        assert res.regime_action == "output_single_trace"
        assert res.hypothesis == traces[0]
        assert res.m_used == 1

    def test_too_few_traces_returns_first_trace(self):
        g = stream(17, 0)
        x = random_bits(4096, g)
        traces = [transmit(x, 0.01, g).trace for _ in range(2)]
        res = reconstruct_with_fallback(4096, 0.01, traces, k_const=4.0)
        assert res.regime_action == "output_single_trace"
        assert res.hypothesis == traces[0]

    def test_reduce_m_recurses(self):
        # too many traces for the noise level: drop to the largest workable M
        n = 2**10
        g = stream(18, 0)
        x = random_bits(n, g)
        traces = [transmit(x, 0.01, g).trace for _ in range(16)]
        res = reconstruct_with_fallback(n, 0.01, traces)
        assert res.regime_action == "reduce_M"
        assert res.m_used == 14

    def test_reduce_m_keeps_a_single_trace_answer(self):
        # reduce_M routes to 9 traces, but no segment fits in n=256: the
        # reference trace comes back labelled as such, not as a reduced run
        n = 256
        g = stream(1, 0)
        x = random_bits(n, g)
        traces = [transmit(x, 0.01, g).trace for _ in range(16)]
        res = reconstruct_with_fallback(n, 0.01, traces)
        assert res.regime_action == "output_single_trace"
        assert res.segments == ()
        assert res.hypothesis == traces[0]
        assert res.m_used == 1

    def test_small_k_with_delta_m_above_one_reduces(self):
        # K=0.5, delta*M = 1.2: check_regime used to say run_full here, and
        # derive_params then refused H <= 0
        g = stream(23, 0)
        x = random_bits(4096, g)
        traces = [transmit(x, 0.3, g).trace for _ in range(4)]
        res = reconstruct_with_fallback(4096, 0.3, traces, k_const=0.5)
        assert res.regime_action == "reduce_M"
        assert res.m_used == 3

    def test_run_full_routing(self):
        n = 2**12
        g = stream(19, 0)
        x = random_bits(n, g)
        traces = [transmit(x, 2e-3, g).trace for _ in range(8)]
        res = reconstruct_with_fallback(n, 2e-3, traces)
        assert res.regime_action == "run_full"
        assert res.m_used == 8
        assert len(res.hypothesis) > 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            reconstruct_with_fallback(16, 0.1, [])

    def test_rejects_mode_other_than_desk(self):
        # the paper constants go in as keywords; mode selects nothing
        x = random_bits(1024, stream(22, 0))
        with pytest.raises(ValueError, match="mode"):
            reconstruct_with_fallback(1024, 0.01, [x] * 4, mode="paper")


class TestPinnedOutputs:
    """Fixed-seed outputs pinned across commits: a change meant only to be
    faster must leave the hypothesis and the segments byte-identical."""

    @pytest.mark.parametrize(
        "n,delta,k_const,voted,digest",
        [
            # working regime: most alignments succeed and are voted
            (10240, 1e-3, 5.0, True,
             "6cafe9df5687933aa75b6c41102c86b3cd659acd0f067a9af22f4bbce0f96c91"),
            # every alignment fails: each segment copies R reference bits
            (2**13, 0.01, 2.0, False,
             "f883d6dd2cfe478ef30475f249c49ca30daa82edda591557eceb8043a4ab3a53"),
        ],
    )
    def test_fixed_seed_reconstruction(self, n, delta, k_const, voted, digest):
        g = stream(1, 0)
        x = random_bits(n, g)
        traces = [transmit(x, delta, g).trace for _ in range(25)]
        res = reconstruct_with_fallback(n, delta, traces, k_const=k_const)
        assert res.regime_action == "run_full"
        copied = [b[0] - a[0] == a[1] for a, b in zip(res.segments, res.segments[1:])]
        assert any(not c for c in copied) == voted
        payload = json.dumps([str(res.hypothesis), [list(s) for s in res.segments]])
        assert hashlib.sha256(payload.encode()).hexdigest() == digest
