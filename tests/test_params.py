from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracerecon import (
    DESK_DEFAULTS,
    PAPER_DEFAULTS,
    ReconParams,
    check_regime,
    derive_params,
    reduce_m_traces,
)
import tracerecon.params as params_module


class TestDeriveParams:
    def test_reference_block(self):
        p = derive_params(2**20, 1 / 32, 8, k_const=2.0, tau=500.0)
        assert p.H == 8
        assert p.t_ladder == (17, 51, 153, 459, 1377, 4131, 12393)
        assert p.S == 7
        assert p.L == 64
        assert p.R == 100  # ceil(64 * 2**0.64)

    def test_second_block(self):
        p = derive_params(2**10, 1 / 64, 16, k_const=4.0, tau=500.0)
        assert p.H == 8
        assert p.L == 64 and p.R == 100

    def test_h_near_zero(self):
        # delta*M just below 1: H -> 0+, so ceil(H) = 1 and t1 = 3
        p = derive_params(2**10, 0.124, 8, k_const=2.0, tau=8.0)
        assert 0 < p.H < 1
        assert p.t1 == 3

    def test_ladder_geometry(self):
        p = derive_params(2**17, 0.01, 25)
        assert p.t1 == 2 * math.ceil(p.H) + 1
        for a, b in zip(p.t_ladder, p.t_ladder[1:]):
            assert b == 3 * a
        assert p.t_ladder[-1] >= p.tau * math.log2(p.n)
        if p.S > 1:
            assert p.t_ladder[-2] < p.tau * math.log2(p.n)

    def test_defaults_by_mode(self):
        desk = derive_params(2**17, 0.01, 25)
        assert (desk.k_const, desk.tau, desk.gamma) == (2.0, 8.0, 0.01)
        assert DESK_DEFAULTS == {"k_const": 2.0, "tau": 8.0, "gamma": 0.01}
        assert PAPER_DEFAULTS == {"k_const": 2.0, "tau": 500.0, "gamma": 0.01}
        paper = derive_params(2**17, 0.01, 25, **PAPER_DEFAULTS)
        assert paper.tau == PAPER_DEFAULTS["tau"] == 500.0
        # paper gamma*tau = 5
        assert paper.gamma * paper.tau == pytest.approx(5.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            derive_params(100, 0.5, 2)  # delta*M = 1
        with pytest.raises(ValueError):
            derive_params(100, 0.0, 4)
        with pytest.raises(ValueError):
            derive_params(100, 1.0, 4)

    @pytest.mark.parametrize("const", ["k_const", "tau", "gamma"])
    def test_rejects_nan_constant(self, const):
        # a NaN fails every comparison, so a `<= 0` check would let it through
        with pytest.raises(ValueError, match="must be positive"):
            derive_params(4096, 0.001, 16, **{const: float("nan")})

    @pytest.mark.parametrize(
        "delta, m, consts, message",
        [
            # K = inf gave H = 0 and R = 0, so reconstruct never advanced
            (0.01, 4, {"k_const": math.inf}, "must be positive and finite"),
            (0.01, 4, {"tau": math.inf}, "must be positive and finite"),
            (0.01, 4, {"gamma": math.inf}, "must be positive and finite"),
            # 5 tau log2 n, and 2^(0.01 L) at a tiny K, overflow a float
            (0.01, 4, {"tau": 1e308}, "too large to represent"),
            (0.01, 4, {"k_const": 1e-6}, "too large to represent"),
            (0.01, 4, {"k_const": 1e-320}, "too large to represent"),
            # a finite K so large that H rounds to 0
            (1 - 2**-53, 1, {"k_const": 1.7e308}, "no window"),
        ],
    )
    def test_rejects_an_unusable_constant(self, delta, m, consts, message):
        with pytest.raises(ValueError, match=message):
            derive_params(4096, delta, m, **consts)

    def test_pure(self):
        a = derive_params(2**15, 0.02, 9)
        b = derive_params(2**15, 0.02, 9)
        assert a == b and isinstance(a, ReconParams)

    @given(
        st.integers(min_value=16, max_value=2**22),
        st.floats(min_value=1e-6, max_value=0.2),
        st.integers(min_value=1, max_value=40),
    )
    def test_invariants_random(self, n, delta, m):
        if delta * m >= 1:
            return
        p = derive_params(n, delta, m)
        Hc = math.ceil(p.H)
        assert p.H == pytest.approx((m / p.k_const) * math.log2(1 / (delta * m)))
        assert p.t1 == 2 * Hc + 1
        assert p.L == 8 * Hc
        assert p.R == math.ceil(p.L * 2 ** (0.01 * p.L))
        assert p.margin == math.ceil(5 * p.tau * math.log2(n))
        # ladder stops within one tripling of the threshold
        if p.t1 < p.tau * math.log2(n):
            assert p.t_ladder[-1] <= 3 * p.tau * math.log2(n)


class TestCheckRegime:
    def test_single_trace_tiny_delta(self):
        rep = check_regime(10**6, 1e-13, 100, 4.0)
        assert rep.recommended_action == "output_single_trace"
        assert rep.delta_below_inv_n2

    def test_single_trace_few_traces(self):
        rep = check_regime(10**6, 0.01, 3, 4.0)
        assert rep.recommended_action == "output_single_trace"
        assert rep.M_below_K2

    def test_run_full(self):
        rep = check_regime(2**20, 1 / 32, 8, 2.0)
        assert rep.recommended_action == "run_full"
        assert not (
            rep.delta_below_inv_n2
            or rep.M_below_K2
            or rep.M_above_inv_Kdelta
            or rep.target_distance_below_one
        )

    def test_reduce_m_target(self):
        # (delta*M)^(M/K) < 1/n^2: too many traces for the noise level
        rep = check_regime(2**10, 0.01, 16, 2.0)
        assert rep.target_distance_below_one
        assert rep.recommended_action == "reduce_M"

    def test_reduce_m_delta_too_large(self):
        # delta >= 1/(K*M) also resolves by dropping traces
        rep = check_regime(2**10, 0.05, 16, 2.0)
        assert rep.M_above_inv_Kdelta
        assert rep.recommended_action == "reduce_M"

    def test_delta_at_inv_km_sets_its_flag(self):
        # delta = 1/(K*M) exactly: run_full needs delta < 1/(K*M), so the
        # flag and the action agree that M is one too many here
        rep = check_regime(10**6, 0.01, 50, 2.0)
        assert rep.M_above_inv_Kdelta
        assert not (rep.delta_below_inv_n2 or rep.M_below_K2 or rep.target_distance_below_one)
        assert rep.recommended_action == "reduce_M"

    def test_desk_defaults_run_full(self):
        rep = check_regime(2**17, 0.01, 25, 2.0)
        assert rep.recommended_action == "run_full"

    @pytest.mark.parametrize("field", ["recommended_action", "M_below_K2"])
    def test_report_is_immutable(self, field):
        rep = check_regime(2**17, 0.01, 25, 2.0)
        with pytest.raises(AttributeError):
            setattr(rep, field, "output_single_trace")
        assert rep.recommended_action == "run_full" and not rep.M_below_K2

    def test_delta_m_at_least_one_reduces_below_unit_k(self):
        # K < 1 lets delta < 1/(K*M) hold with delta*M >= 1, where H <= 0
        # and derive_params refuses the point; fewer traces fix it
        assert check_regime(4096, 0.3, 4, 0.5).recommended_action == "reduce_M"

    @pytest.mark.parametrize(
        "args, name",
        [
            ((100, 0.01, 0, 2.0), "m_traces"),
            ((100, 0.01, -3, 2.0), "m_traces"),
            ((100, 0.01, 4, 0.0), "k_const"),
            ((100, 0.01, 4, -1.0), "k_const"),
            ((0, 0.01, 4, 2.0), "n"),
            ((1000, 1.5, 16, 2.0), "delta"),
            ((1000, -1.0, 16, 2.0), "delta"),
            ((1000, float("nan"), 16, 2.0), "delta"),
            ((4096, 0.001, 16, float("nan")), "k_const"),
        ],
    )
    def test_rejects_bad_inputs_by_name(self, args, name):
        # the error names the bad argument; without the checks these reach
        # the 1/(K*M) and 1/n^2 cuts and the log of delta*M
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            check_regime(*args)


class TestReduceMTraces:
    def test_finds_smaller_m(self):
        m2 = reduce_m_traces(2**10, 0.01, 16, 2.0)
        assert m2 == 14
        assert check_regime(2**10, 0.01, m2, 2.0).recommended_action == "run_full"

    def test_none_when_hopeless(self):
        # delta below 1/n^2: no M' can help
        assert reduce_m_traces(2**10, 1e-9, 16, 2.0) is None

    @given(
        st.sampled_from([64, 256, 1000, 4096, 2**17, 10**6]),
        st.floats(min_value=1e-7, max_value=0.4),
        st.integers(min_value=1, max_value=79),
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0]),
    )
    def test_first_run_full_scanning_down(self, n, delta, m, k):
        m2 = reduce_m_traces(n, delta, m, k)
        if m2 is not None:
            assert 1 <= m2 <= m
            assert check_regime(n, delta, m2, k).recommended_action == "run_full"
        for cand in range((m2 or 0) + 1, m + 1):
            assert check_regime(n, delta, cand, k).recommended_action != "run_full"

    def test_answers_what_check_regime_says(self):
        # reconstruct_with_fallback routes on reduce_m_traces alone: M' = M
        # must mean run_full and None every output_single_trace.  The grid
        # has delta at 0, at 1 and below 1/n^2, and K below and above 1
        deltas = [0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-4, 4e-4, 1e-3, 3e-3, 0.01, 0.05, 0.2, 0.5, 1.0]
        for n in (1, 2, 64, 2**13, 2**17):
            for delta in deltas:
                for k in (0.5, 1.0, 2.0, 4.0, 5.0):
                    for m in range(1, 41):
                        action = check_regime(n, delta, m, k).recommended_action
                        m2 = reduce_m_traces(n, delta, m, k)
                        assert (m2 == m) == (action == "run_full"), (n, delta, m, k)
                        if action == "output_single_trace":
                            assert m2 is None, (n, delta, m, k)

    def test_largest_qualifying(self):
        m2 = reduce_m_traces(2**10, 0.01, 16, 2.0)
        assert m2 is not None
        for cand in range(m2 + 1, 16):
            assert check_regime(2**10, 0.01, cand, 2.0).recommended_action != "run_full"

    # a scan from M down to ceil(K^2) would check no M' at all for K = -2 or
    # -5 (K^2 = 4 or 25 > M = 3), and NaN or 0 has no such floor to stop at
    @pytest.mark.parametrize("k", [float("nan"), 0.0, -2.0, -5.0])
    def test_rejects_bad_k_const_below_k_squared(self, k):
        with pytest.raises(ValueError, match=r"^k_const must be"):
            reduce_m_traces(4096, 0.001, 3, k)

    def test_scan_stops_below_k_squared(self, monkeypatch):
        # n = 2^14, delta = 4e-4, K = 4: M' = 25..16 say reduce_M and
        # M' = 15 < K^2 ends the scan; M' = 14..1 are never checked
        seen = []
        real = params_module.check_regime

        def recording(n, delta, m, k):
            seen.append(m)
            return real(n, delta, m, k)

        monkeypatch.setattr(params_module, "check_regime", recording)
        assert reduce_m_traces(2**14, 4e-4, 25, 4.0) is None
        assert seen == list(range(25, 14, -1))

    def test_scan_stops_at_once_below_inv_n2(self, monkeypatch):
        # delta < 1/n^2 holds at every M', so the first check is the last
        seen = []
        real = params_module.check_regime

        def recording(n, delta, m, k):
            seen.append(m)
            return real(n, delta, m, k)

        monkeypatch.setattr(params_module, "check_regime", recording)
        assert reduce_m_traces(2**10, 1e-9, 16, 0.5) is None
        assert seen == [16]
