"""Parameter derivation and regime classification.

All the window sizes the aligner and the majority voter use come from one
entropy-like quantity H = (M/K) * log2(1/(delta*M)).  The derivations here
are pure formula evaluation; the interesting policy choice is the constant
set (K, tau, gamma).  Every entry point defaults to DESK_DEFAULTS (K=2,
tau=8), which keeps the align/vote loop non-empty at n ~ 2**17.  The
analysis wants the constants "sufficiently large"; PAPER_DEFAULTS (tau=500
in the stated form) is kept as a named set that callers pass explicitly,
``derive_params(n, delta, M, **PAPER_DEFAULTS)``.  At those constants the
loop's end margin, ceil(2500 * log2 n), is wider than any reference trace
shorter than ~38,000 bits, and `reconstruct` returns the trace itself.

Logs are base 2 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "ReconParams",
    "RegimeReport",
    "derive_params",
    "check_regime",
    "reduce_m_traces",
    "DESK_DEFAULTS",
    "PAPER_DEFAULTS",
]

DESK_DEFAULTS = {"k_const": 2.0, "tau": 8.0, "gamma": 0.01}
PAPER_DEFAULTS = {"k_const": 2.0, "tau": 500.0, "gamma": 0.01}


@dataclass(frozen=True)
class ReconParams:
    n: int
    delta: float
    m_traces: int
    k_const: float
    tau: float
    gamma: float
    H: float
    t_ladder: tuple[int, ...]
    S: int
    L: int
    R: int
    # ceil(5 tau log2 n): the loop stops this far before the reference's end
    # and starts at most this far in
    margin: int

    @property
    def t1(self) -> int:
        return self.t_ladder[0]


class RegimeReport(NamedTuple):
    """What `check_regime` found.  A named tuple: immutable like a frozen
    dataclass and built in half its time, which counts because
    `reduce_m_traces` builds one per trace count it scans."""

    delta_below_inv_n2: bool
    M_below_K2: bool
    M_above_inv_Kdelta: bool
    target_distance_below_one: bool
    recommended_action: str  # run_full | output_single_trace | reduce_M


def derive_params(
    n: int,
    delta: float,
    m_traces: int,
    *,
    k_const: float = DESK_DEFAULTS["k_const"],
    tau: float = DESK_DEFAULTS["tau"],
    gamma: float = DESK_DEFAULTS["gamma"],
) -> ReconParams:
    K = float(k_const)
    tau_v = float(tau)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if m_traces < 1:
        raise ValueError("need at least one trace")
    if delta * m_traces >= 1.0:
        raise ValueError("delta * M must be < 1 for H to be positive")
    if not all(0 < c < math.inf for c in (K, tau_v, gamma)):  # also rejects NaN
        raise ValueError("K, tau, gamma must be positive and finite")

    H = (m_traces / K) * math.log2(1.0 / (delta * m_traces))
    # a tiny K or a huge tau overflows a size to inf; the margin does so
    # before the ladder, which an infinite goal would never end
    try:
        Hc = math.ceil(H)
        t1 = 2 * Hc + 1
        goal = tau_v * math.log2(n) if n > 1 else tau_v
        margin = math.ceil(5 * tau_v * math.log2(n)) if n > 1 else 1
        ladder = [t1]
        while ladder[-1] < goal:
            ladder.append(3 * ladder[-1])
        L = 8 * Hc
        R = math.ceil(L * 2.0 ** (0.01 * L))
    except OverflowError:
        raise ValueError(f"K = {K} and tau = {tau_v} give sizes too large to represent") from None
    if R < 1:  # H rounded to 0, and a copied segment would not move the cursor
        raise ValueError(f"K = {K} gives H = {H}, so no window")
    return ReconParams(
        n=n,
        delta=delta,
        m_traces=m_traces,
        k_const=K,
        tau=tau_v,
        gamma=gamma,
        H=H,
        t_ladder=tuple(ladder),
        S=len(ladder),
        L=L,
        R=R,
        margin=margin,
    )


def check_regime(n: int, delta: float, m_traces: int, k_const: float) -> RegimeReport:
    """Classify (n, delta, M, K) against the operating-regime inequalities.

    run_full requires all of: 1/n^2 <= delta, K^2 <= M, delta < 1/(K*M)
    (that is, M < 1/(K*delta)), delta*M < 1, and (delta*M)^(M/K) >= 1/n^2.
    Below the first two cuts a single trace is already within target; past
    the others fewer traces do better.  ``M_above_inv_Kdelta`` is set where
    delta >= 1/(K*M).  For K >= 1, delta < 1/(K*M) implies delta*M < 1; the
    separate cut keeps a K < 1 run out of `derive_params`' H <= 0 error.
    Raises ValueError for n < 1, delta outside [0, 1] (or NaN), M < 1 or
    K <= 0 (or NaN).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0, 1]")
    if m_traces < 1:
        raise ValueError("m_traces must be >= 1")
    if not 0 < k_const:
        raise ValueError("k_const must be > 0")
    K = float(k_const)
    inv_n2 = 1.0 / (n * n)
    delta_below = delta < inv_n2
    m_below = m_traces < K * K
    m_above = delta >= 1.0 / (K * m_traces)
    # (delta*M)^(M/K) < 1/n^2, compared in log2 space
    if delta > 0:
        target_below = (m_traces / K) * math.log2(delta * m_traces) < -2.0 * math.log2(n)
    else:
        target_below = False

    if delta_below or m_below:
        action = "output_single_trace"
    elif target_below or m_above or delta * m_traces >= 1.0:
        action = "reduce_M"
    else:
        action = "run_full"
    return RegimeReport(
        delta_below_inv_n2=delta_below,
        M_below_K2=m_below,
        M_above_inv_Kdelta=m_above,
        target_distance_below_one=target_below,
        recommended_action=action,
    )


def reduce_m_traces(n: int, delta: float, m_traces: int, k_const: float) -> int | None:
    """Largest M' <= M for which `check_regime` says run_full, so the
    reduced run does not bounce straight back here.  None when no such M'
    exists.  The scan stops at the first M' below K^2, since run_full needs
    K^2 <= M', and at once when delta < 1/n^2, which no M' changes; its
    first call checks the inputs, so a bad K raises even when M itself is
    below K^2."""
    for m in range(m_traces, 0, -1):
        report = check_regime(n, delta, m, k_const)
        if report.recommended_action == "run_full":
            return m
        if report.M_below_K2 or report.delta_below_inv_n2:
            return None
    return None
