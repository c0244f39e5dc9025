"""Bitwise majority alignment.

Each round takes the plurality of the symbols under the cursors and advances
exactly the cursors that agree with it.  Each sequence is read through a
window of the R symbols from its start cursor on, padded with stars past the
sequence's end, so a cursor that runs off the end keeps voting '*' instead of
freezing the round count.  Ties break 0 over 1 over '*' (the analysis never
hits a tie in its regime; a fixed order keeps runs reproducible).

The rounds run a majority run at a time.  Each step reads the next ``span``
symbols under every cursor (at most ``size``, never past the last round).
When one slice ``word`` is under a strict majority of the cursors, those
cursors read ``word[k]`` in round k of the step and all advance, so
``word[k]`` is always held by more than half of the cursors: it is the
unique plurality of the round, whatever the others read, and no tie rule
comes into play.  The step therefore emits ``word`` whole and moves the
majority on by ``span``; each dissenting cursor is walked alone against
``word``, advancing (and adding one to that round's margin) where its next
symbol equals ``word[k]``; a star in ``word`` moves the cursors reading a
star, as an ordinary round won by '*' does.  No window runs out within R
rounds, since a cursor reads at most one symbol a round.  The result is the
same, round for round, as the plain loop, whatever ``size`` is.

A run of ``size`` rounds is likely only while delta * size is well below 1,
so ``size`` adapts: it doubles (up to 64) after a jump and halves (down to
8) after a miss, and the step is retried at once.  A miss at the floor runs
ordinary rounds instead, with the tie rule, and their number before the next
attempt doubles (up to 64) with each further miss, so a stretch with no
majority costs about one attempt per 64 ordinary rounds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .strings import BitString

__all__ = ["BmaDiagnostics", "bma_run"]

_STAR = 2  # symbol code for the padding
_CHUNK = 64  # most rounds one majority-run step covers
_MIN_RUN = 8  # fewest rounds an attempt covers before ordinary rounds run
_SYMBOL_CHARS = bytes.maketrans(b"\x00\x01\x02", b"01*")


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
) -> tuple[bytes, list[int], list[int]]:
    """Core loop.  Returns (emitted symbol codes, margins, final cursors)."""
    m_count = len(sequences)
    pad = bytes([_STAR])
    data = [s.tobytes()[c - 1 : c - 1 + rounds].ljust(rounds, pad)
            for s, c in zip(sequences, start_cursors)]
    read = [0] * m_count  # symbols read so far from each window
    emitted = bytearray()
    margins: list[int] = []
    size = _CHUNK  # rounds the next majority-run attempt covers
    wait = 0  # ordinary rounds to run before the next attempt
    backoff = 1
    while len(emitted) < rounds:
        if not wait:
            span = min(size, rounds - len(emitted))
            slices = [d[r : r + span] for d, r in zip(data, read)]
            word, count = Counter(slices).most_common(1)[0]
            if 2 * count > m_count:
                base = len(margins)
                margins += [count] * span
                for i, s in enumerate(slices):
                    if s == word:
                        read[i] += span
                        continue
                    p = 0
                    for k, w in enumerate(word):
                        if s[p] == w:
                            p += 1
                            margins[base + k] += 1
                    read[i] += p
                emitted += word
                size = min(2 * size, _CHUNK)
                backoff = 1
                continue
            if size > _MIN_RUN:
                size //= 2
                continue
            wait = backoff
            backoff = min(2 * backoff, _CHUNK)
        wait -= 1
        syms = [d[r] for d, r in zip(data, read)]
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
        read = [r + (y == w) for r, y in zip(read, syms)]
    return bytes(emitted), margins, [c + r for c, r in zip(start_cursors, read)]


def bma_run(
    sequences: list[BitString], start_cursors: list[int], rounds: int
) -> tuple[BitString, tuple[int, ...], BmaDiagnostics]:
    """Run `rounds` rounds of majority alignment on the sequence suffixes.

    Output is the emitted word when it is star-free, otherwise the empty
    string; final cursors are the positions after the last round either way.
    """
    _check_inputs(sequences, start_cursors, rounds)
    emitted, margins, final = _run_rounds(sequences, start_cursors, rounds)
    out = BitString("") if _STAR in emitted else BitString(emitted)
    diags = BmaDiagnostics(symbols=emitted.translate(_SYMBOL_CHARS).decode("ascii"),
                           margins=tuple(margins))
    return out, tuple(final), diags
