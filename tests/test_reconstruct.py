from __future__ import annotations

import importlib
import json
import math

import pytest

from tracerecon import (
    BitString,
    derive_params,
    edit_distance,
    edit_distance_bounded,
    random_bits,
    reconstruct,
    reconstruct_with_fallback,
    transmit,
)
from tracerecon.rng import stream

# the package re-exports the function under the module's name
reconstruct_module = importlib.import_module("tracerecon.reconstruct")
strings_module = importlib.import_module("tracerecon.strings")


class TestReconstructCleanChannel:
    def test_zero_noise_structure(self):
        # clean traces, desk parameters: the hypothesis tiles the source with
        # one R-segment per loop iteration, re-entering ceil(H)-ish bits left
        # of the previous segment's end each time (leftmost-word cursors),
        # so the boundary bound stretches by 2*ceil(H) per segment
        n = 2**13
        params = derive_params(n, 0.01, 25, mode="desk")
        x = random_bits(n, stream(11, 0))
        res = reconstruct(params, x, [x] * 25)
        assert res.regime_action == "run_full"
        assert res.m_used == 25
        assert len(res.segments) >= 2

        Hc = math.ceil(params.H)
        margin = math.ceil(5 * params.tau * math.log2(n))
        bound = margin + params.R + 2 * Hc * len(res.segments)
        d = edit_distance_bounded(x, res.hypothesis, bound)
        assert d is not None and d <= bound

        # every iteration advanced by R minus at most the window re-entry
        cursors = [c for c, _ in res.segments]
        for a, b in zip(cursors, cursors[1:]):
            assert params.R - 2 * Hc <= b - a <= params.R + 1
        assert all(emitted == params.R for _, emitted in res.segments)

    def test_empty_reference(self):
        params = derive_params(4096, 0.01, 3, mode="desk")
        res = reconstruct(params, BitString(""), [BitString("")] * 3)
        assert len(res.hypothesis) == 0 and res.segments == ()

    def test_trace_count_checked(self):
        params = derive_params(4096, 0.01, 3, mode="desk")
        x = random_bits(4096, stream(12, 0))
        with pytest.raises(ValueError):
            reconstruct(params, x, [x] * 2)

    def test_paper_mode_falls_back_to_single_trace(self):
        # paper constants make the initial cursor exceed the loop guard at
        # any desk-size n, so the result is the reference trace itself
        n = 2**14
        params = derive_params(n, 0.01, 25, mode="paper")
        g = stream(13, 0)
        x = random_bits(n, g)
        y = transmit(x, 0.01, g).trace
        res = reconstruct(params, y, [y] * 25)
        assert res.hypothesis == y
        assert res.segments == ()

    def test_result_serializes(self):
        params = derive_params(4096, 0.01, 2, mode="desk")
        x = random_bits(4096, stream(14, 0))
        res = reconstruct(params, x, [x, x])
        blob = json.dumps(res.to_dict())
        back = json.loads(blob)
        assert back["regime_action"] == "run_full"
        assert back["hypothesis"] == str(res.hypothesis)
        assert len(back["segments"]) == len(res.segments)


class TestReconstructNoisy:
    def test_low_noise_end_to_end(self):
        # gentle regime where the ladder and word search actually hold up
        n = 2**14
        delta = 1e-4
        g = stream(15, 0)
        x = random_bits(n, g)
        traces = [transmit(x, delta, g).trace for _ in range(8)]
        params = derive_params(n, delta, 8, mode="desk", k_const=4.0)
        res = reconstruct(params, traces[0], traces)
        d = edit_distance(x, res.hypothesis)
        # beats the all-failed outcome by a wide margin and lands within a
        # few window re-entries of the clean-channel structure
        Hc = math.ceil(params.H)
        margin = math.ceil(5 * params.tau * math.log2(n))
        slack = margin + params.R + 4 * Hc * max(len(res.segments), 1) + int(delta * n * 10)
        assert d <= slack


class TestFailedAlignment:
    """Traces unrelated to the reference: no trace but the reference itself
    holds the widest ladder window within budget, so every alignment fails
    and each segment must come from the reference trace, not from a vote."""

    @pytest.fixture
    def run(self, monkeypatch):
        n = 2**13
        params = derive_params(n, 0.01, 25, mode="desk")
        g = stream(20, 0)
        y_star = random_bits(n, g)
        traces = [y_star] + [random_bits(n, g) for _ in range(24)]
        stages = []
        votes = []
        real_align, real_bma_run = reconstruct_module.align, reconstruct_module.bma_run

        def recording_align(*args):
            config, diag = real_align(*args)
            stages.append(diag.failure_stage)
            return config, diag

        def recording_bma_run(*args):
            votes.append(args[1])
            return real_bma_run(*args)

        monkeypatch.setattr(reconstruct_module, "align", recording_align)
        monkeypatch.setattr(reconstruct_module, "bma_run", recording_bma_run)
        res = reconstruct(params, y_star, traces)
        assert stages and None not in stages
        assert len(stages) == len(res.segments) >= 2
        return params, y_star, res, votes

    def test_segments_copy_the_reference(self, run):
        params, y_star, res, _ = run
        assert all(emitted == params.R for _, emitted in res.segments)
        R = params.R
        for i, (cursor, _) in enumerate(res.segments):
            got = res.hypothesis.subword(i * R + 1, (i + 1) * R)
            assert got == y_star.subword(cursor, cursor + R - 1)
        assert len(res.hypothesis) == R * len(res.segments)

    def test_cursor_advances_by_r(self, run):
        params, _, res, _ = run
        cursors = [c for c, _ in res.segments]
        assert all(b - a == params.R for a, b in zip(cursors, cursors[1:]))

    def test_no_vote_reaches_the_hypothesis(self, run):
        _, y_star, res, votes = run
        assert votes == [], f"{len(votes)} failed alignments reached bma_run"
        first = res.segments[0][0]
        assert res.hypothesis == y_star.subword(first, first + len(res.hypothesis) - 1)


class TestTraceIndex:
    def test_one_index_per_trace(self, monkeypatch):
        # the widest ladder stage searches every whole trace at every segment;
        # each trace's word index is built once per call, not once per search
        n, delta, m = 4096, 0.001, 3
        g = stream(21, 0)
        x = random_bits(n, g)
        traces = [transmit(x, delta, g).trace for _ in range(m)]
        params = derive_params(n, delta, m, mode="desk")
        built = []
        prefiltered = []
        real_index, real_prefilter = strings_module.kmer_index, strings_module._prefilter_starts

        def counting_index(bits):
            built.append(bits)
            return real_index(bits)

        def counting_prefilter(*args):
            starts = real_prefilter(*args)
            prefiltered.append(starts is not None)
            return starts

        monkeypatch.setattr(reconstruct_module, "kmer_index", counting_index)
        monkeypatch.setattr(strings_module, "kmer_index", counting_index)
        monkeypatch.setattr(strings_module, "_prefilter_starts", counting_prefilter)
        res = reconstruct(params, traces[0], traces)
        assert len(res.segments) >= 2 and sum(prefiltered) > len(traces)
        assert len(built) == len(traces)
        assert all(b is t for b, t in zip(built, traces))
        # the index lives only as long as the call; strings carry no cache of it
        assert BitString.__slots__ == ("_data", "_bytes")


class TestFallbackRouting:
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
