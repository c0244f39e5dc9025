"""Outer reconstruction loop: alternate alignment and majority voting along
the reference trace, concatenating each R-round majority output.

The loop starts past the first few thousand reference positions and stops
the same distance before the end; the ends of the source are simply not
reconstructed (their cost is absorbed by the edit-distance budget).  After
each voted segment the reference cursor jumps to wherever the majority run
left it, plus one.  A segment whose alignment fails is not voted: its R bits
are copied from the reference trace at the cursor, which then advances by R,
as `output_single_trace` does for the whole string.

Entry points:
  reconstruct            -- the loop itself, for callers holding ReconParams
  reconstruct_with_fallback -- classifies the operating regime first and
    falls back to echoing a single trace / dropping traces when the
    parameters are out of range
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bma import bma_run
from .align import align
from .params import (
    DESK_DEFAULTS,
    PAPER_DEFAULTS,
    ReconParams,
    check_regime,
    derive_params,
    reduce_m_traces,
)
from .strings import BitString, kmer_index

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

    def to_dict(self) -> dict:
        return {
            "hypothesis": str(self.hypothesis),
            "segments": [list(s) for s in self.segments],
            "regime_action": self.regime_action,
            "m_used": self.m_used,
        }


def reconstruct(params: ReconParams, y_star: BitString, traces: list[BitString]) -> ReconResult:
    """Run the align/vote loop over the reference trace.

    ``traces`` are the M traces the voter sees; callers conventionally pass
    the reference as traces[0] as well, so the vote runs over M+1 sequences.
    """
    if len(traces) != params.m_traces:
        raise ValueError("trace count does not match params.m_traces")
    n_star = len(y_star)
    margin = math.ceil(5 * params.tau * math.log2(params.n)) if params.n > 1 else 1
    if params.mode == "desk":
        # keep small-n runs non-vacuous; at paper constants the loop below
        # is empty for every n that fits in memory
        ell_star = min(margin, math.ceil(n_star / 100)) if n_star else 1
    else:
        ell_star = margin
        if ell_star > min(n_star - params.R, n_star - margin):
            return ReconResult(y_star, (), "output_single_trace", params.m_traces)

    # every segment's widest ladder stage searches each whole trace, so each
    # trace's word index is built once here and dropped on return
    indexes = [kmer_index(trace) for trace in traces]
    pieces: list[BitString] = []
    segments: list[tuple[int, int]] = []
    while ell_star <= n_star - params.R and ell_star <= n_star - margin:
        config, diag = align(params, ell_star, y_star, traces, indexes)
        if diag.failure_stage is not None:
            # the all-ones configuration tracks nothing; voting from it would
            # re-emit the start of the source
            pieces.append(y_star.subword(ell_star, ell_star + params.R - 1))
            segments.append((ell_star, params.R))
            ell_star += params.R
            continue
        sequences = [y_star] + list(traces)
        cursors = [ell_star] + list(config.cursors)
        out, final, _ = bma_run(sequences, cursors, params.R)
        if len(out):
            pieces.append(out)
        segments.append((ell_star, len(out)))
        ell_star = final[0] + 1

    if pieces:
        hypothesis = BitString(np.concatenate([p.array for p in pieces]))
    else:
        hypothesis = BitString("")
    return ReconResult(hypothesis, tuple(segments), "run_full", params.m_traces)


def reconstruct_with_fallback(
    n: int,
    delta: float,
    traces: list[BitString],
    *,
    m_traces: int | None = None,
    k_const: float | None = None,
    tau: float | None = None,
    gamma: float = 0.01,
    mode: str = "desk",
) -> ReconResult:
    """Regime-aware entry point.  ``traces`` includes the reference at
    index 0; M defaults to the full list."""
    if not traces:
        raise ValueError("need at least one trace")
    M = len(traces) if m_traces is None else m_traces
    if not 1 <= M <= len(traces):
        raise ValueError("m_traces out of range")
    defaults = DESK_DEFAULTS if mode == "desk" else PAPER_DEFAULTS
    K = float(defaults["k_const"] if k_const is None else k_const)

    report = check_regime(n, delta, M, K)
    if report.recommended_action == "output_single_trace":
        return ReconResult(traces[0], (), "output_single_trace", 1)
    if report.recommended_action == "reduce_M":
        m2 = reduce_m_traces(n, delta, M, K)
        if m2 is None:
            # no feasible smaller trace count; a single trace is the bound
            return ReconResult(traces[0], (), "output_single_trace", 1)
        inner = reconstruct_with_fallback(
            n, delta, traces[:m2], m_traces=m2,
            k_const=k_const, tau=tau, gamma=gamma, mode=mode,
        )
        return replace(inner, regime_action="reduce_M")
    params = derive_params(n, delta, M, k_const=k_const, tau=tau, gamma=gamma, mode=mode)
    return reconstruct(params, traces[0], traces[:M])
