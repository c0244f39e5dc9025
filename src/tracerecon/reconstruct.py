"""Outer reconstruction loop: alternate alignment and majority voting along
the reference trace ``traces[0]``, concatenating each R-round majority output.

The loop starts where the innermost ladder window fits unclamped, at
``(t1 - 1) // 2 + 1``, and stops ``params.margin`` before the end; the
reference bits before the first cursor and from the last one on are copied
as they stand, so the hypothesis covers the whole reference.  When no
segment fits between the two, the result is the reference trace, labelled
`output_single_trace`.  After each voted segment the reference cursor moves
to wherever the majority run left it; the vote runs over the traces that
`align` gave a cursor, each once.  A segment whose alignment returns no
cursors is not voted: its R bits are copied from the reference trace at the
cursor, which then advances by R, as `output_single_trace` does for the
whole string.

Entry points:
  reconstruct            -- the loop itself, for callers holding ReconParams
  reconstruct_with_fallback -- runs the loop on the largest trace count
    the operating regime admits, or echoes a single trace when none does
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .bma import bma_run
from .align import align
from .params import DESK_DEFAULTS, ReconParams, fallback_params
from .strings import BitString

__all__ = ["ReconResult", "reconstruct", "reconstruct_with_fallback"]


@dataclass(frozen=True)
class ReconResult:
    hypothesis: BitString
    # one (reference cursor, emitted length) pair per loop iteration;
    # emitted length is R for a voted segment whose output is star-free and
    # for a failed alignment (R bits copied from the reference trace), and
    # 0 for a voted segment that emitted a star (the copied ends are no segment)
    segments: tuple[tuple[int, int], ...]
    regime_action: str
    m_used: int


def reconstruct(params: ReconParams, traces: list[BitString]) -> ReconResult:
    """Run the align/vote loop over the reference trace ``traces[0]``,
    voting the M traces aligned to it."""
    if len(traces) != params.m_traces:
        raise ValueError("trace count does not match params.m_traces")
    y_star = traces[0]
    n_star = len(y_star)
    start = ell_star = (params.t1 - 1) // 2 + 1

    # every segment's widest ladder stage searches each whole trace; align
    # builds a trace's word index on its first search, kept here until return
    indexes = [None] * len(traces)
    pieces: list[BitString] = []
    segments: list[tuple[int, int]] = []
    while ell_star <= n_star - params.R and ell_star <= n_star - params.margin:
        cursors, _ = align(params, ell_star, traces, indexes)
        if cursors is None:
            out = y_star.subword(ell_star, ell_star + params.R - 1)
            next_star = ell_star + params.R
        else:
            # every voter starts on the common word's same bit, so the first
            # round is unanimous and the reference cursor moves on
            voters = [(t, c) for t, c in zip(traces, cursors) if c is not None]
            out, final, _ = bma_run([t for t, _ in voters], [c for _, c in voters], params.R)
            next_star = final[0]
        pieces.append(out)
        segments.append((ell_star, len(out)))
        ell_star = next_star

    if not segments:
        # no segment fits before the end margin (at paper constants, below
        # n ~ 38,000): the reference trace is the answer
        return ReconResult(y_star, (), "output_single_trace", 1)
    ref = y_star.tobytes()
    body = b"".join(p.tobytes() for p in pieces)
    hypothesis = BitString(ref[: start - 1] + body + ref[ell_star - 1 :])
    return ReconResult(hypothesis, tuple(segments), "run_full", params.m_traces)


def reconstruct_with_fallback(
    n: int,
    delta: float,
    traces: list[BitString],
    *,
    k_const: float = DESK_DEFAULTS["k_const"],
    tau: float = DESK_DEFAULTS["tau"],
    gamma: float = 0.01,
    mode: str = "desk",
) -> ReconResult:
    """Regime-aware entry point.  ``traces`` includes the reference at
    index 0, and M is the length of the list.

    The trace count is `reduce_m_traces`' M' (`fallback_params`): the loop
    runs on ``traces[:M']``, labelled run_full when M' = M and reduce_M when
    M' < M, and None returns ``traces[0]`` as output_single_trace.

    ``gamma`` and ``mode`` select nothing: only 0.01 and "desk" are
    accepted, kept because ``bench/run.py`` passes them and changes only
    with a benchmark revision.  Other constants go in as ``k_const``/``tau``,
    for example ``**PAPER_DEFAULTS``.
    """
    if mode != "desk":
        raise ValueError(f"unknown mode {mode!r}; pass constants as k_const/tau")
    if gamma != 0.01:
        raise ValueError(f"gamma is fixed at 0.01, not {gamma!r}")
    if not traces:
        raise ValueError("need at least one trace")
    params = fallback_params(n, delta, len(traces), k_const=k_const, tau=tau)
    if params is None:
        # below the regime, or no feasible smaller trace count: a single
        # trace is the bound
        return ReconResult(traces[0], (), "output_single_trace", 1)
    result = reconstruct(params, traces[: params.m_traces])
    if params.m_traces < len(traces) and result.regime_action == "run_full":
        # a single-trace answer keeps its own label
        return replace(result, regime_action="reduce_M")
    return result
