"""Outer reconstruction loop: alternate alignment and majority voting along
the reference trace, concatenating each R-round majority output.

The loop starts within the first percent of the reference trace (at most
``params.margin`` in) and stops ``params.margin`` before the end; the ends
of the source are simply not reconstructed (their cost is absorbed by the
edit-distance budget).  When no segment fits between the two, the
result is the reference trace, labelled `output_single_trace`.  After
each voted segment the reference cursor jumps to wherever the majority run
left it, plus one; the vote runs over the reference and the traces that
`align` gave a cursor.  A segment whose alignment returns no cursors is not
voted: its R bits are copied from the reference trace at the cursor, which
then advances by R, as `output_single_trace` does for the whole string.

Entry points:
  reconstruct            -- the loop itself, for callers holding ReconParams
  reconstruct_with_fallback -- runs the loop on the largest trace count
    the operating regime admits, or echoes a single trace when none does
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bma import bma_run
from .align import align
from .params import DESK_DEFAULTS, ReconParams, derive_params, reduce_m_traces
from .strings import BitString

__all__ = ["ReconResult", "reconstruct", "reconstruct_with_fallback"]


@dataclass(frozen=True)
class ReconResult:
    hypothesis: BitString
    # one (reference cursor, emitted length) pair per loop iteration;
    # emitted length is R for a voted segment whose output is star-free and
    # for a failed alignment (R bits copied from the reference trace), and
    # 0 for a voted segment that emitted a star
    segments: tuple[tuple[int, int], ...]
    regime_action: str
    m_used: int


def reconstruct(params: ReconParams, y_star: BitString, traces: list[BitString]) -> ReconResult:
    """Run the align/vote loop over the reference trace.

    ``traces`` are the M traces aligned to the reference, conventionally
    with the reference itself as traces[0].
    """
    if len(traces) != params.m_traces:
        raise ValueError("trace count does not match params.m_traces")
    n_star = len(y_star)
    margin = params.margin
    # start within the first percent of the reference, so small-n runs are
    # non-vacuous
    ell_star = min(margin, math.ceil(n_star / 100))

    # every segment's widest ladder stage searches each whole trace; align
    # builds a trace's word index on its first search, kept here until return
    indexes = [None] * len(traces)
    pieces: list[BitString] = []
    segments: list[tuple[int, int]] = []
    while ell_star <= n_star - params.R and ell_star <= n_star - margin:
        cursors, _ = align(params, ell_star, y_star, traces, indexes)
        if cursors is None:
            out = y_star.subword(ell_star, ell_star + params.R - 1)
            next_star = ell_star + params.R
        else:
            voters = [(t, c) for t, c in zip([y_star, *traces], [ell_star, *cursors])
                      if c is not None]
            out, final, _ = bma_run([t for t, _ in voters], [c for _, c in voters], params.R)
            next_star = final[0] + 1
        pieces.append(out)
        segments.append((ell_star, len(out)))
        ell_star = next_star

    if not segments:
        # no segment fits before the end margin (at paper constants, below
        # n ~ 38,000): the reference trace is the answer, not an empty
        # hypothesis
        return ReconResult(y_star, (), "output_single_trace", 1)
    hypothesis = BitString(b"".join(p.tobytes() for p in pieces))
    return ReconResult(hypothesis, tuple(segments), "run_full", params.m_traces)


def reconstruct_with_fallback(
    n: int,
    delta: float,
    traces: list[BitString],
    *,
    k_const: float = DESK_DEFAULTS["k_const"],
    tau: float = DESK_DEFAULTS["tau"],
    gamma: float = DESK_DEFAULTS["gamma"],
    mode: str = "desk",
) -> ReconResult:
    """Regime-aware entry point.  ``traces`` includes the reference at
    index 0, and M is the length of the list.

    The trace count is `reduce_m_traces`' M': the loop runs on
    ``traces[:M']``, labelled run_full when M' = M and reduce_M when
    M' < M, and None returns ``traces[0]`` as output_single_trace.

    ``mode`` selects nothing: only "desk" is accepted, kept because
    ``bench/run.py`` passes it and changes only with a benchmark revision.
    Other constants go in as ``k_const``/``tau``/``gamma``, for example
    ``**PAPER_DEFAULTS``.
    """
    if mode != "desk":
        raise ValueError(f"unknown mode {mode!r}; pass constants as k_const/tau/gamma")
    if not traces:
        raise ValueError("need at least one trace")
    M = reduce_m_traces(n, delta, len(traces), k_const)
    if M is None:
        # below the regime, or no feasible smaller trace count: a single
        # trace is the bound
        return ReconResult(traces[0], (), "output_single_trace", 1)
    params = derive_params(n, delta, M, k_const=k_const, tau=tau, gamma=gamma)
    result = reconstruct(params, traces[0], traces[:M])
    if M < len(traces) and result.regime_action == "run_full":
        # a single-trace answer keeps its own label
        return replace(result, regime_action="reduce_M")
    return result
