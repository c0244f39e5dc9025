"""Bitwise majority alignment.

Each round takes the plurality of the symbols under the cursors and advances
exactly the cursors that agree with it.  Sequences are virtually padded with
R stars, so a cursor that runs off the end keeps voting '*' instead of
freezing the round count.  Ties break 0 over 1 over '*' (the analysis never
hits a tie in its regime; a fixed order keeps runs reproducible).

The provenance variant tracks, per sequence and round, which source position
the cursor sits on; its dist counter measures how many deletions the walk
has crossed beyond the ideal one-bit-per-round schedule.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .channel import TraceRecord, source_of
from .strings import BitString

__all__ = ["BmaDiagnostics", "bma_run", "bma_star", "bma_with_provenance"]

_STAR = 2  # symbol code for the virtual padding


@dataclass(frozen=True)
class BmaDiagnostics:
    """Round-by-round record: emitted symbols (as a string over "01*"),
    majority margins, and, when provenance is available, last/dist per
    sequence and round (shape (M, R+1), round index t-1)."""

    symbols: str
    margins: tuple[int, ...]
    last: np.ndarray | None = None
    dist: np.ndarray | None = None


def _check_inputs(sequences: list[BitString], start_cursors: list[int], rounds: int) -> None:
    if len(sequences) != len(start_cursors) or not sequences:
        raise ValueError("need equally many sequences and cursors, at least one")
    if rounds < 1:
        raise ValueError("round count must be >= 1")
    for c in start_cursors:
        if c < 1:
            raise ValueError("cursors are 1-based")


def _run_rounds(
    sequences: list[BitString], start_cursors: list[int], rounds: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Core loop.  Returns (emitted symbols, margins, cursor history, final
    cursors); history has shape (M, rounds+1) with column t-1 = cursors at
    round t."""
    m_count = len(sequences)
    data = [s.tobytes() for s in sequences]
    lens = [len(b) for b in data]
    cursors = list(start_cursors)
    history = array("q")  # cursors per round, flat, round-major
    emitted = []
    margins = []
    for _ in range(rounds):
        history.extend(cursors)
        syms = [b[c - 1] if c <= n else _STAR for b, c, n in zip(data, cursors, lens)]
        c0 = syms.count(0)
        c1 = syms.count(1)
        cs = m_count - c0 - c1
        if c0 >= c1 and c0 >= cs:
            w, margin = 0, c0
        elif c1 >= cs:
            w, margin = 1, c1
        else:
            w, margin = _STAR, cs
        emitted.append(w)
        margins.append(margin)
        cursors = [c + (y == w) for c, y in zip(cursors, syms)]
    history.extend(cursors)
    return (
        np.array(emitted, dtype=np.uint8),
        np.array(margins, dtype=np.int64),
        np.frombuffer(history, dtype=np.int64).reshape(rounds + 1, m_count).T,
        np.array(cursors, dtype=np.int64),
    )


_SYMBOL_CHARS = np.array(["0", "1", "*"])


def bma_run(
    sequences: list[BitString], start_cursors: list[int], rounds: int
) -> tuple[BitString, tuple[int, ...], BmaDiagnostics]:
    """Run `rounds` rounds of majority alignment on the sequence suffixes.

    Output is the emitted word when it is star-free, otherwise the empty
    string; final cursors are the positions after the last round either way.
    """
    _check_inputs(sequences, start_cursors, rounds)
    emitted, margins, _, final = _run_rounds(sequences, start_cursors, rounds)
    symbols = "".join(_SYMBOL_CHARS[emitted])
    if (emitted == _STAR).any():
        out = BitString("")
    else:
        out = BitString(emitted)
    diags = BmaDiagnostics(symbols=symbols, margins=tuple(int(v) for v in margins))
    return out, tuple(int(c) for c in final), diags


def bma_with_provenance(
    records: list[TraceRecord], start_cursors: list[int], rounds: int
) -> tuple[BitString, tuple[int, ...], BmaDiagnostics]:
    """bma_run over the records' traces, with last/dist bookkeeping.

    last[m, t-1] is the source position under cursor m at round t;
    dist[m, t-1] = last - (t-1) - min(last[:, 0]) counts crossed deletions
    net of stalls, from the run's common source start, so a trace that lost
    the first source bit starts one ahead.  It must stay non-negative
    whenever the majority tracks the source word, which is asserted (this
    variant is a test oracle, not part of the reconstruction path).
    """
    sequences = [r.trace for r in records]
    _check_inputs(sequences, start_cursors, rounds)
    emitted, margins, history, final = _run_rounds(sequences, start_cursors, rounds)
    m_count = len(records)
    last = np.empty_like(history)
    for m, rec in enumerate(records):
        trace_len = len(rec.trace)
        h = history[m]
        in_trace = h <= trace_len
        last[m] = np.where(
            in_trace,
            rec.source_map[np.minimum(h, trace_len) - 1],
            rec.source_len + (h - trace_len),
        )
    dist = last - np.arange(rounds + 1, dtype=np.int64)[None, :] - last[:, 0].min()
    assert (dist >= 0).all(), "cursor fell behind the one-bit-per-round schedule"
    symbols = "".join(_SYMBOL_CHARS[emitted])
    out = BitString("") if (emitted == _STAR).any() else BitString(emitted)
    diags = BmaDiagnostics(
        symbols=symbols,
        margins=tuple(int(v) for v in margins),
        last=last,
        dist=dist,
    )
    return out, tuple(int(c) for c in final), diags


def bma_star(y_star: TraceRecord, ell_star: int, z: BitString) -> int:
    """Single-reference walk: advance the cursor on each match between z and
    the reference trace, then report where the cursor's source position
    lands.  Predicts the reference pointer after a majority segment that
    emitted z."""
    if ell_star < 1:
        raise ValueError("cursor is 1-based")
    trace = y_star.trace
    n_trace = len(trace)
    cursor = ell_star
    for t in range(1, len(z) + 1):
        if cursor <= n_trace and trace.bit(cursor) == z.bit(t):
            cursor += 1
    return source_of(y_star, cursor)
