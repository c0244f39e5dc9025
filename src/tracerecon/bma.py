"""Bitwise majority alignment.

Each round takes the plurality of the symbols under the cursors and advances
exactly the cursors that agree with it.  Sequences are virtually padded with
R stars, so a cursor that runs off the end keeps voting '*' instead of
freezing the round count.  Ties break 0 over 1 over '*' (the analysis never
hits a tie in its regime; a fixed order keeps runs reproducible).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .strings import BitString

__all__ = ["BmaDiagnostics", "bma_run"]

_STAR = 2  # symbol code for the virtual padding


@dataclass(frozen=True)
class BmaDiagnostics:
    """Round-by-round record: emitted symbols (as a string over "01*") and
    majority margins."""

    symbols: str
    margins: tuple[int, ...]


def _check_inputs(sequences: list[BitString], start_cursors: list[int], rounds: int) -> None:
    if len(sequences) != len(start_cursors) or not sequences:
        raise ValueError("need equally many sequences and cursors, at least one")
    if rounds < 1:
        raise ValueError("round count must be >= 1")
    for c in start_cursors:
        if c < 1:
            raise ValueError("cursors are 1-based")


def _run_rounds(
    sequences: list[BitString],
    start_cursors: list[int],
    rounds: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Core loop.  Returns (emitted symbols, margins, final cursors)."""
    m_count = len(sequences)
    data = [s.tobytes() for s in sequences]
    lens = [len(b) for b in data]
    cursors = list(start_cursors)
    emitted = []
    margins = []
    for _ in range(rounds):
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
    return (
        np.array(emitted, dtype=np.uint8),
        np.array(margins, dtype=np.int64),
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
    emitted, margins, final = _run_rounds(sequences, start_cursors, rounds)
    symbols = "".join(_SYMBOL_CHARS[emitted])
    if (emitted == _STAR).any():
        out = BitString("")
    else:
        out = BitString(emitted)
    diags = BmaDiagnostics(symbols=symbols, margins=tuple(int(v) for v in margins))
    return out, tuple(int(c) for c in final), diags
