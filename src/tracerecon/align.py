"""Coarse-to-fine alignment of trace cursors to the reference cursor.

The reference ``traces[0]`` gives a ladder of windows centered at its
cursor, widest first: the templates, and its own stage intervals, since it
is never searched.  Each other trace is searched for the first match within
budget to the widest window, then re-searched inside that hit for the next
window down, giving a nested chain of intervals whose innermost member is
roughly centered on the same source region as the reference cursor.  A
final vote picks a word of the reference's innermost window that occurs in
nearly all innermost windows; a trace whose window holds it gets its cursor
at the word's leftmost occurrence plus the reference cursor's offset from
the word, on the bit that matches the reference cursor, and the other
traces get None and sit out the segment's majority vote.

The other traces are searched in batches of 2, 4, 8, ... traces, in order.
Each stage of a batch is one ``find_closest_subwords`` call over the
batch's traces, which scores all their candidate windows together; every
stage of a batch finishes before the next batch starts.  The earliest trace
that misses decides the failure, so the result is the one a trace-by-trace
search gives, and a miss early in the list stops the search about as soon.

Any miss (no window within the stage's distance budget, or no sufficiently
common word) returns no cursors at all, with a failure_stage in the
diagnostics.  `reconstruct` then copies the segment from the reference
trace instead of voting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import ReconParams
from .strings import (
    BitString,
    Interval,
    SearchIndex,
    find_closest_subwords,
    find_common_word,
    search_index,
)

__all__ = ["AlignDiagnostics", "align"]

_FIRST_BATCH = 2  # traces in the first batch; each later batch is twice as many
# A trace's 12-bit words are sorted for the prefilter only when the reference
# holds more than this many R-bit segments, one whole-trace search each.
# Best of 3 reconstructs on equal outputs, sorted groups vs the gram scan:
# 5.6 vs 3.6 ms at 10 segments (n = 2^13, delta = 0.01, M = 25, K = 2), a
# tie at 40-45 (n = 2^15), and the groups ahead from 82 segments (n = 2^15,
# delta = 3e-3, M = 16, K = 4: 148 vs 160 ms) to 181 (n = 2^17,
# delta = 1e-3: 117 vs 183 ms).
_SORT_PAST_SEGMENTS = 64


@dataclass(frozen=True)
class AlignDiagnostics:
    """Where the aligner stopped, for post-hoc checks.

    trace_windows[m][s-1] is trace m's interval for stage s, present only up
    to the point of failure.  failure_stage is None on success, a stage
    number when the nested search missed (failure_trace is then the trace
    that missed; an empty trace is an ordinary miss at the widest stage S),
    or 0 when no common word was found.
    """

    trace_windows: tuple[tuple[Interval | None, ...], ...]
    failure_stage: int | None
    failure_trace: int | None


def align(
    params: ReconParams,
    ell_star: int,
    traces: list[BitString],
    indexes: list[SearchIndex | None] | None = None,
) -> tuple[tuple[int | None, ...] | None, AlignDiagnostics]:
    """Place 1-based cursors on the source bit under ``traces[0]``'s
    ``ell_star``: ``cursors[0]`` is ``ell_star`` itself, ``cursors[m]`` is
    None where trace m's innermost window lacks the common word, and the
    whole tuple is None when the alignment fails.  An empty trace misses the
    widest stage S like any other trace without a window.

    ``indexes[m]`` is ``search_index(traces[m])`` or None; a None entry is
    filled in the first time trace m is searched, so a caller that aligns
    the same traces many times passes one list to every call and builds
    each index at most once.  Without a list this call makes its own.  The
    indexes sort the traces' 12-bit words only when the reference holds more
    than 64 segments of R bits, where the loop searches each trace often
    enough to pay for the sort.
    """
    m_count = len(traces)
    if indexes is None:
        indexes = [None] * m_count
    if len(indexes) != m_count:
        raise ValueError("one index entry per trace required")
    if not traces or not 1 <= ell_star <= len(traces[0]):
        raise ValueError("reference cursor outside the reference trace")
    y_star = traces[0]
    n_star = len(y_star)
    sort_words = n_star > _SORT_PAST_SEGMENTS * params.R

    # reference window ladder, widest last; clamped to the trace near its ends
    trace_windows: list[list[Interval | None]] = [[None] * params.S for _ in range(m_count)]
    for s, t_s in enumerate(params.t_ladder):
        half = (t_s - 1) // 2
        trace_windows[0][s] = Interval(max(1, ell_star - half), min(n_star, ell_star + half))
    templates = [y_star.subword(*w) for w in trace_windows[0]]

    def diagnostics(stage: int | None, trace: int | None) -> AlignDiagnostics:
        return AlignDiagnostics(tuple(tuple(per) for per in trace_windows), stage, trace)

    lo, size = 1, _FIRST_BATCH
    while lo < m_count:
        batch = range(lo, min(lo + size, m_count))
        lo, size = batch.stop, 2 * size
        # only the traces before the earliest miss so far stay live: that
        # miss fails the alignment whatever the traces after it do
        failed: tuple[int, int] | None = None  # (trace, stage)
        live = list(batch)
        search = {m: Interval(1, len(traces[m])) for m in live}
        for m in live:
            if indexes[m] is None:
                indexes[m] = search_index(traces[m], sort_words)
        for s in range(params.S, 0, -1):
            if not live:  # the batch's first trace missed: no stage can change the result
                break
            budget = int(2 * params.gamma * params.t_ladder[s - 1])
            hits = find_closest_subwords(
                templates[s - 1],
                [traces[m] for m in live],
                [search[m] for m in live],
                budget,
                [indexes[m] for m in live],
            )
            for i, (m, hit) in enumerate(zip(live, hits)):
                if hit is None:
                    failed, live = (m, s), live[:i]
                    break
                trace_windows[m][s - 1] = search[m] = hit
        if failed is not None:
            m, s = failed
            for later in range(m + 1, batch.stop):
                trace_windows[later] = [None] * params.S
            return None, diagnostics(s, m)

    inner = [trace.subword(*w[0]) for trace, w in zip(traces, trace_windows)]
    found = find_common_word(inner, math.ceil(0.9 * params.t_ladder[0]), math.ceil(0.95 * m_count))
    if found is None:
        return None, diagnostics(0, None)
    # the word starts in the reference window at most half a window before
    # ell_star and never after it, so each shifted cursor stays in its copy
    shift = ell_star - (trace_windows[0][0].lo + found[1][0] - 1)
    cursors = tuple(
        None if off is None else w[0].lo + off - 1 + shift for w, off in zip(trace_windows, found[1])
    )
    return cursors, diagnostics(None, None)

