"""Deletion channel with full provenance.

A transmitted string keeps its source map, whose complement is the
deletion set, so tests and diagnostics can ask "which source position did
trace position q come from" (:func:`source_of`) and "where does source
position i land" (:func:`image_ceil`), and an experiment can check an
alignment against the truth (:func:`consensus_check`).  Positions are
1-based everywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .strings import BitString

__all__ = [
    "TraceRecord",
    "transmit",
    "apply_deletions",
    "source_of",
    "consensus_check",
    "image_ceil",
]


@dataclass(frozen=True, eq=False)
class TraceRecord:
    """One trace together with its deletion provenance.

    ``source_map[q-1]`` is the source index of trace position q; the
    deleted source positions are the ones it leaves out.  Records compare
    and hash by identity.
    """

    source_len: int
    trace: BitString
    source_map: np.ndarray

    def __post_init__(self) -> None:
        if not len(self.source_map) == len(self.trace) <= self.source_len:
            raise ValueError("source map must match the trace, which cannot outrun its source")


def _record(x: BitString, keep: np.ndarray) -> TraceRecord:
    """The record of the trace of ``x`` that keeps the bits where the
    boolean mask ``keep`` is set."""
    source_map = np.flatnonzero(keep).astype(np.int64) + 1
    return TraceRecord(len(x), BitString(x.array[keep]), source_map)


def apply_deletions(x: BitString, deletions: "set[int] | frozenset[int]") -> TraceRecord:
    """Delete the given 1-based source positions from ``x``."""
    n = len(x)
    for d in deletions:
        if not 1 <= d <= n:
            raise ValueError(f"deletion position {d} outside 1..{n}")
    keep = np.ones(n, dtype=bool)
    if deletions:
        keep[np.fromiter(deletions, dtype=np.int64) - 1] = False
    return _record(x, keep)


def transmit(x: BitString, delta: float, rng: np.random.Generator) -> TraceRecord:
    """Send ``x`` through the deletion channel: each bit is deleted
    independently with probability ``delta``.  One uniform draw per source
    bit, in index order, so a given generator state fixes the trace."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0, 1]")
    return _record(x, rng.random(len(x)) >= delta)


def source_of(record: TraceRecord, q: int) -> int:
    """Source index of trace position q.

    Positions past the end of the trace act as virtual padding and map to
    ``source_len + (q - len(trace))``, which keeps the map strictly
    increasing.
    """
    if q < 1:
        raise ValueError("trace position must be >= 1")
    m = len(record.trace)
    if q <= m:
        return int(record.source_map[q - 1])
    return record.source_len + (q - m)


def consensus_check(
    cursors: tuple[int | None, ...] | None, records: list[TraceRecord], threshold: int
) -> tuple[bool, int | None]:
    """Ground-truth test of an alignment: do >= threshold cursors sit on the
    same source position?  Returns that position when they do; a None
    cursor sits on none, and a failed alignment (``cursors`` None) has no
    consensus.  Needs deletion provenance, so only an experiment can run it."""
    if cursors is None:
        return False, None
    if len(cursors) != len(records):
        raise ValueError("one cursor per record required")
    counts = Counter(source_of(rec, c) for rec, c in zip(records, cursors) if c is not None)
    if not counts:
        return False, None
    best = max(counts.values())
    if best >= threshold:
        return True, min(i for i, c in counts.items() if c == best)
    return False, None


def image_ceil(record: TraceRecord, i: int) -> int:
    """Smallest trace position whose source index is >= i.

    Returns ``len(trace) + 1`` when every surviving bit comes from before i.
    Monotone non-decreasing in i.
    """
    if not 1 <= i <= record.source_len + 1:
        raise ValueError(f"source position {i} outside 1..{record.source_len + 1}")
    return int(np.searchsorted(record.source_map, i, side="left")) + 1
