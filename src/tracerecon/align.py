"""Coarse-to-fine alignment of trace cursors to the reference cursor.

The reference trace contributes a ladder of windows centered at its cursor,
widest first.  Each trace is searched for the closest match to the widest
window, then re-searched inside that hit for the next window down, giving a
nested chain of intervals whose innermost member is roughly centered on the
same source region as the reference cursor.  A final vote picks one word
that occurs in nearly all innermost windows; each trace's cursor is placed
at the leftmost occurrence of that word.

Any miss (no window within the stage's distance budget, or no sufficiently
common word) aborts to the all-ones configuration with a failure_stage in
the diagnostics.  That configuration tracks nothing, so the caller must not
vote from it: `reconstruct` copies the segment from the reference trace
instead.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .channel import TraceRecord, source_of
from .params import ReconParams
from .strings import BitString, Interval, find_closest_subword, find_common_word

__all__ = ["Configuration", "AlignDiagnostics", "align", "consensus_check"]


@dataclass(frozen=True)
class Configuration:
    cursors: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 1 for c in self.cursors):
            raise ValueError("cursors are 1-based")

    def __len__(self) -> int:
        return len(self.cursors)


@dataclass(frozen=True)
class AlignDiagnostics:
    """What the aligner looked at, for post-hoc checks.

    ref_windows/templates are indexed by stage-1 (stage s at position s-1).
    trace_windows[m][s-1] is trace m's interval for stage s, present only up
    to the point of failure.  failure_stage is None on success, a stage
    number when the nested search missed, or 0 when no common word was
    found.
    """

    ref_windows: tuple[Interval, ...]
    templates: tuple[BitString, ...]
    trace_windows: tuple[tuple[Interval | None, ...], ...]
    word: BitString | None
    word_offsets: tuple[int | None, ...] | None
    failure_stage: int | None
    failure_trace: int | None
    clamped: bool

    def to_dict(self) -> dict:
        return {
            "ref_windows": [[w.lo, w.hi] for w in self.ref_windows],
            "trace_windows": [
                [None if w is None else [w.lo, w.hi] for w in per_trace]
                for per_trace in self.trace_windows
            ],
            "word": None if self.word is None else str(self.word),
            "word_offsets": None if self.word_offsets is None else list(self.word_offsets),
            "failure_stage": self.failure_stage,
            "failure_trace": self.failure_trace,
            "clamped": self.clamped,
        }


def _all_ones(m_count: int) -> Configuration:
    return Configuration(tuple(1 for _ in range(m_count)))


def align(
    params: ReconParams,
    ell_star: int,
    y_star: BitString,
    traces: list[BitString],
    indexes: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[Configuration, AlignDiagnostics]:
    """Place one cursor per trace near the source position under ell_star.

    ``indexes[m]`` is ``kmer_index(traces[m])``, for callers that align the
    same traces many times; without them each search that prefilters
    builds its own.
    """
    m_count = len(traces)
    n_star = len(y_star)
    if not 1 <= ell_star <= n_star:
        raise ValueError("reference cursor outside the reference trace")
    margin = math.ceil(5 * params.tau * math.log2(params.n)) if params.n > 1 else 1
    if params.mode == "paper" and not margin <= ell_star <= n_star - margin:
        raise ValueError(
            f"reference cursor {ell_star} outside [{margin}, {n_star - margin}]"
        )

    # reference window ladder, widest last; clamped to the trace in desk mode
    ref_windows: list[Interval] = []
    templates: list[BitString] = []
    clamped = False
    for t_s in params.t_ladder:
        half = (t_s - 1) // 2
        lo, hi = ell_star - half, ell_star + half
        if lo < 1 or hi > n_star:
            clamped = True
            lo, hi = max(1, lo), min(n_star, hi)
        ref_windows.append(Interval(lo, hi))
        templates.append(y_star.subword(lo, hi))

    trace_windows: list[list[Interval | None]] = [[None] * params.S for _ in range(m_count)]
    for m, trace in enumerate(traces):
        if len(trace) == 0:
            return _all_ones(m_count), AlignDiagnostics(
                tuple(ref_windows), tuple(templates), _freeze(trace_windows),
                None, None, params.S, m, clamped,
            )
        search = Interval(1, len(trace))
        for s in range(params.S, 0, -1):
            t_s = params.t_ladder[s - 1]
            budget = int(2 * params.gamma * t_s)
            hit = find_closest_subword(
                templates[s - 1], trace, search, budget,
                None if indexes is None else indexes[m],
            )
            if hit is None:
                return _all_ones(m_count), AlignDiagnostics(
                    tuple(ref_windows), tuple(templates), _freeze(trace_windows),
                    None, None, s, m, clamped,
                )
            trace_windows[m][s - 1] = hit
            search = hit

    word_len = math.ceil(0.9 * params.t_ladder[0])
    threshold = math.ceil(0.95 * m_count)
    inner = []
    for m in range(m_count):
        w = trace_windows[m][0]
        assert w is not None
        inner.append(traces[m].subword(w.lo, w.hi))
    found = find_common_word(inner, word_len, threshold)
    if found is None:
        return _all_ones(m_count), AlignDiagnostics(
            tuple(ref_windows), tuple(templates), _freeze(trace_windows),
            None, None, 0, None, clamped,
        )
    word, offsets = found
    cursors = tuple(
        trace_windows[m][0].lo + offsets[m] - 1 if offsets[m] is not None else 1
        for m in range(m_count)
    )
    diags = AlignDiagnostics(
        tuple(ref_windows), tuple(templates), _freeze(trace_windows),
        word, tuple(offsets), None, None, clamped,
    )
    return Configuration(cursors), diags


def _freeze(windows: list[list[Interval | None]]) -> tuple[tuple[Interval | None, ...], ...]:
    return tuple(tuple(per) for per in windows)


def consensus_check(
    config: Configuration, records: list[TraceRecord], threshold: int
) -> tuple[bool, int | None]:
    """Ground-truth test: do >= threshold cursors sit on the same source
    position?  Returns that position when they do.  Needs deletion
    provenance, so it only exists on the experiment side."""
    if len(config) != len(records):
        raise ValueError("one cursor per record required")
    counts = Counter(source_of(rec, c) for rec, c in zip(records, config.cursors))
    best = max(counts.values())
    if best >= threshold:
        return True, min(i for i, c in counts.items() if c == best)
    return False, None
