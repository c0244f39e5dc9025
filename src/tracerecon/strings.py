"""Binary strings and subsequence-based distance primitives.

Everything downstream (channel records, alignment, reconstruction) works on
immutable binary strings with the 1-based indexing convention used throughout
the package: ``x[1]`` is the first bit and subwords are closed intervals
``x[i : j]``.  Strings are stored as one byte per bit so that exact substring
search runs at C speed via ``bytes.find``; that search underpins the candidate
prefilter in :func:`find_closest_subword`.

The distance here is edit distance with insertions and deletions only
(no substitutions): ``d(a, b) = |a| + |b| - 2 * lcs(a, b)``.  One exact
kernel computes it, the bit-parallel LCS recurrence on Python ints, at
O(|a| * |b| / w) whatever the distance.  The same recurrence, run once over
many candidate windows packed into one int, serves the window search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "BitString",
    "Interval",
    "Matching",
    "random_bits",
    "edit_distance",
    "edit_distance_bounded",
    "lcs_matching",
    "find_closest_subword",
    "find_common_word",
]

class BitString:
    """Immutable sequence of bits with 1-based accessors."""

    __slots__ = ("_data", "_bytes")

    def __init__(self, bits: "str | bytes | Iterable[int] | np.ndarray" = ()):
        if isinstance(bits, BitString):
            self._data = bits._data
            self._bytes = bits._bytes
            return
        if isinstance(bits, str):
            arr = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
        elif isinstance(bits, (bytes, bytearray)):
            arr = np.frombuffer(bytes(bits), dtype=np.uint8)
        elif isinstance(bits, np.ndarray):
            arr = bits.astype(np.uint8, copy=True)
        else:
            arr = np.fromiter(bits, dtype=np.uint8)
        if arr.size and (arr.max(initial=0) > 1):
            raise ValueError("bits must be 0 or 1")
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        arr.setflags(write=False)
        self._data = arr
        self._bytes: bytes | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "BitString":
        out = cls.__new__(cls)
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        arr.setflags(write=False)
        out._data = arr
        out._bytes = None
        return out

    @property
    def array(self) -> np.ndarray:
        """Read-only uint8 view with values in {0, 1}."""
        return self._data

    def tobytes(self) -> bytes:
        if self._bytes is None:
            self._bytes = self._data.tobytes()
        return self._bytes

    def __len__(self) -> int:
        return int(self._data.size)

    def bit(self, i: int) -> int:
        """Bit at 1-based position ``i``."""
        if not 1 <= i <= self._data.size:
            raise IndexError(f"position {i} out of range 1..{self._data.size}")
        return int(self._data[i - 1])

    def subword(self, i: int, j: int) -> "BitString":
        """Subword at the closed 1-based interval ``[i : j]``; empty if j < i."""
        if i < 1 or j > self._data.size:
            raise IndexError(f"[{i}:{j}] out of range for length {self._data.size}")
        if j < i:
            return BitString._wrap(np.empty(0, dtype=np.uint8))
        return BitString._wrap(self._data[i - 1 : j])

    def concat(self, other: "BitString") -> "BitString":
        return BitString._wrap(np.concatenate([self._data, other._data]))

    def find(self, sub: "BitString", start: int = 1, end: int | None = None) -> int | None:
        """Leftmost 1-based start of ``sub`` inside ``self[start : end]``, or None."""
        hi = self._data.size if end is None else end
        pos = self.tobytes().find(sub.tobytes(), start - 1, hi)
        return None if pos < 0 else pos + 1

    def __iter__(self) -> Iterator[int]:
        return iter(int(b) for b in self._data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self.tobytes() == other.tobytes()

    def __hash__(self) -> int:
        return hash(self.tobytes())

    def __str__(self) -> str:
        return (self._data + ord("0")).tobytes().decode("ascii")

    def __repr__(self) -> str:
        s = str(self)
        if len(s) > 64:
            s = s[:61] + "..."
        return f"BitString({s!r}, len={len(self)})"


def random_bits(n: int, rng: np.random.Generator) -> BitString:
    """Uniformly random bit string of length ``n``."""
    return BitString._wrap(rng.integers(0, 2, size=n, dtype=np.uint8))


@dataclass(frozen=True)
class Interval:
    """Closed 1-based index interval ``[lo : hi]``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 1 or self.hi < self.lo:
            raise ValueError(f"invalid interval [{self.lo}:{self.hi}]")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


@dataclass(frozen=True)
class Matching:
    """Non-crossing index pairs witnessing a common subsequence of two strings."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)


def _pack(bits: np.ndarray) -> int:
    """Python int whose bit i is set where ``bits`` (flattened) is true."""
    return int.from_bytes(np.packbits(bits, axis=None, bitorder="little").tobytes(), "little")


def _lcs_steps(a: np.ndarray, b: np.ndarray, mask: int) -> int:
    """Bit-parallel LCS of ``a`` against the columns of ``b`` under ``mask``.

    Allison & Dix (1986) / Hyyrö (2004): after each symbol of ``a``, bit j of
    ``v`` is 0 exactly where the current LCS table row steps up at column j,
    and one mask step updates every column at once through Python int
    arithmetic.  Symbols of ``b`` outside {0, 1} match nothing.
    """
    peq = (_pack(b == 0), _pack(b == 1))
    v = mask
    for c in a.tolist():
        u = v & peq[c]
        v = ((v + u) | (v - u)) & mask
    return v


def _lcs_length(a: np.ndarray, b: np.ndarray) -> int:
    """Length of a longest common subsequence, looping over the shorter string."""
    if a.size > b.size:
        a, b = b, a
    return b.size - _lcs_steps(a, b, (1 << b.size) - 1).bit_count()


def edit_distance(a: BitString, b: BitString) -> int:
    """Insert/delete edit distance between two bit strings.

    Exact whatever the distance: one bit-parallel LCS pass costs
    O(|a| * |b| / w) for int digit size w, however close the strings are.
    A banded DP costs O(n * d) instead, so from about n = 2^18 with a small
    distance (d ~ 64) the banded DP is faster; the tests and benchmark
    workloads score strings of at most 2^17 bits.
    """
    return len(a) + len(b) - 2 * _lcs_length(a.array, b.array)


def edit_distance_bounded(a: BitString, b: BitString, cap: int) -> int | None:
    """Edit distance if it is <= cap, else None."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if abs(len(a) - len(b)) > cap:
        return None
    d = edit_distance(a, b)
    return d if d <= cap else None


def _lcs_suffix_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Table L[i, j] = lcs(a[i:], b[j:]) for 0-based suffix starts."""
    la, lb = a.size, b.size
    if la * lb > 100_000_000:
        raise ValueError("inputs too large for the quadratic matching table")
    table = np.zeros((la + 1, lb + 1), dtype=np.int32)
    for i in range(la - 1, -1, -1):
        match = b == a[i]
        cand = np.where(match, table[i + 1, 1:] + 1, table[i + 1, :-1])
        table[i, :-1] = np.maximum.accumulate(cand[::-1])[::-1]
    return table


def lcs_matching(a: BitString, b: BitString) -> Matching:
    """A maximum matching between ``a`` and ``b`` (1-based, non-crossing).

    Deterministic: among all maximum matchings, returns the one whose pair
    sequence is lexicographically smallest, built by a greedy forward walk
    over the suffix LCS table.
    """
    aa, bb = a.array, b.array
    table = _lcs_suffix_table(aa, bb)
    pairs: list[tuple[int, int]] = []
    i = j = 0
    la, lb = aa.size, bb.size
    while i < la and j < lb and table[i, j] > 0:
        # match row i at the earliest column that still completes a maximum
        # matching; only if no column works may the row be skipped
        target = table[i, j]
        jj = j
        matched = False
        while jj < lb and table[i, jj] == target:
            if aa[i] == bb[jj] and table[i + 1, jj + 1] + 1 == target:
                pairs.append((i + 1, jj + 1))
                i += 1
                j = jj + 1
                matched = True
                break
            jj += 1
        if not matched:
            i += 1
    return Matching(tuple(pairs))


def _window_prefix_distances(template: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Distance from ``template`` to every prefix of every candidate window.

    ``windows`` has one row per candidate, padded on the right with a value
    outside {0, 1}; column j - 1 of the result is the distance to the
    length-j prefix of that row.

    One ``_lcs_steps`` pass scores all rows: row r holds bits
    r * (L + 1) .. r * (L + 1) + L - 1 of ``v``, with a guard bit above.
    ``v - u`` never borrows because ``u`` is a subset of ``v``, and a carry
    out of a row stops at its guard bit, which the mask clears.  The LCS
    with a length-j prefix is then the number of zero bits among the row's
    first j.
    """
    k, width = windows.shape
    rows = np.full((k, width + 1), 2, dtype=np.uint8)  # last column: guard bits
    rows[:, :width] = windows
    mask = _pack(np.broadcast_to(np.arange(width + 1) < width, rows.shape))
    v = _lcs_steps(template, rows, mask)
    packed = np.frombuffer(v.to_bytes((rows.size + 7) // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(packed, count=rows.size, bitorder="little").reshape(rows.shape)
    dist = np.cumsum(bits[:, :width] == 0, axis=1, dtype=np.int32)  # lcs
    dist *= -2
    dist += np.arange(template.size + 1, template.size + width + 1, dtype=np.int32)
    return dist


def _prefilter_starts(
    template: np.ndarray,
    hay: bytes,
    search: Interval,
    max_dist: int,
    min_len: int,
) -> np.ndarray | None:
    """Candidate window starts via exact-piece matching, or None to scan all.

    Splitting the template into ``max_dist + 1`` contiguous pieces, any window
    within distance ``max_dist`` must contain at least one piece verbatim
    (each edit touches at most one piece), displaced by at most ``max_dist``
    from its template offset.  Exact piece occurrences are found with
    ``bytes.find``, so this prunes long searches to a handful of candidates
    without ever discarding a true match.
    """
    t = template.size
    pieces = max_dist + 1
    if t // pieces < 12:
        return None
    lo0, hi0 = search.lo - 1, search.hi - 1  # 0-based haystack span
    if (hi0 - lo0 + 1) <= 4 * t:
        return None
    starts: set[int] = set()
    first_start = lo0
    last_start = hi0 - min_len + 1
    bounds = np.linspace(0, t, pieces + 1).astype(int)
    tb = template.tobytes()
    for pi in range(pieces):
        a_off, b_off = int(bounds[pi]), int(bounds[pi + 1])
        piece = tb[a_off:b_off]
        pos = hay.find(piece, lo0, hi0 + 1)
        while pos != -1:
            anchor = pos - a_off
            for q in range(anchor - max_dist, anchor + max_dist + 1):
                if first_start <= q <= last_start:
                    starts.add(q)
            pos = hay.find(piece, pos + 1, hi0 + 1)
    return np.array(sorted(starts), dtype=np.int64)


def find_closest_subword(
    template: BitString,
    haystack: BitString,
    search: Interval,
    max_dist: int,
) -> Interval | None:
    """First subword interval of ``haystack`` within ``search`` whose edit
    distance to ``template`` is at most ``max_dist``.

    Deterministic scan order: candidate start ascending, then candidate length
    ascending over ``[|template| - max_dist : |template| + max_dist]``.
    Returns None when no candidate qualifies.
    """
    if max_dist < 0:
        raise ValueError("max_dist must be >= 0")
    n = len(haystack)
    if not (1 <= search.lo and search.hi <= n):
        raise ValueError(f"search interval [{search.lo}:{search.hi}] not inside haystack")
    t = len(template)
    if t == 0:
        raise ValueError("template must be non-empty")
    hay_b = haystack.tobytes()

    if max_dist == 0:
        pos = hay_b.find(template.tobytes(), search.lo - 1, search.hi)
        if pos == -1 or pos + t - 1 > search.hi - 1:
            return None
        return Interval(pos + 1, pos + t)

    min_len = max(1, t - max_dist)
    max_len = t + max_dist
    last_start0 = (search.hi - 1) - min_len + 1
    if last_start0 < search.lo - 1:
        return None

    cand = _prefilter_starts(template.array, hay_b, search, max_dist, min_len)
    if cand is None:
        cand = np.arange(search.lo - 1, last_start0 + 1, dtype=np.int64)
    if cand.size == 0:
        return None

    arr = haystack.array
    ta = template.array
    lens = np.arange(min_len, max_len + 1)  # candidate lengths per column
    block = 2048
    for base in range(0, cand.size, block):
        qs = cand[base : base + block]
        idx = qs[:, None] + np.arange(max_len)[None, :]
        ok = idx <= (search.hi - 1)
        windows = np.where(ok, arr[np.minimum(idx, n - 1)], 2).astype(np.uint8)
        dist = _window_prefix_distances(ta, windows)[:, min_len - 1 :]
        allowed = (search.hi - 1) - qs + 1  # max window length per start
        length_ok = lens[None, :] <= allowed[:, None]
        hit = (dist <= max_dist) & length_ok
        rows = hit.any(axis=1)
        if rows.any():
            r = int(np.argmax(rows))
            c = int(np.argmax(hit[r]))
            q0 = int(qs[r])
            ln = int(lens[c])
            return Interval(q0 + 1, q0 + ln)
    return None


def find_common_word(
    windows: Sequence[BitString],
    word_len: int,
    threshold: int,
) -> tuple[BitString, list[int | None]] | None:
    """First word of length ``word_len`` contained in at least ``threshold``
    of the windows, with the leftmost 1-based start in each containing window.

    Candidates are enumerated from the subwords of ``windows[0]`` by ascending
    start, then ``windows[1]``, and so on; the first qualifying candidate wins.
    """
    if word_len < 1:
        raise ValueError("word_len must be >= 1")
    if not 1 <= threshold <= len(windows):
        raise ValueError("threshold must be in 1..len(windows)")
    wbytes = [w.tobytes() for w in windows]
    seen: set[bytes] = set()
    for src in wbytes:
        for s in range(0, len(src) - word_len + 1):
            cand = src[s : s + word_len]
            if cand in seen:
                continue
            seen.add(cand)
            starts: list[int | None] = []
            count = 0
            for wb in wbytes:
                pos = wb.find(cand)
                if pos >= 0:
                    starts.append(pos + 1)
                    count += 1
                else:
                    starts.append(None)
            if count >= threshold:
                return BitString(np.frombuffer(cand, dtype=np.uint8)), starts
    return None
