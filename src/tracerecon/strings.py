"""Binary strings and subsequence-based distance primitives.

Everything downstream (channel records, alignment, reconstruction) works on
immutable binary strings with the 1-based indexing convention used throughout
the package: ``x[1]`` is the first bit and subwords are closed intervals
``x[i : j]``.  A :class:`BitString` holds one ``bytes`` value, one byte
(0 or 1) per bit: the distance kernel, the vote, the window search and the
common-word search read it as bytes, and the numpy kernels read ``array``,
a read-only view of the same bytes made without a copy.  The window search
:func:`find_closest_subwords` looks for one template in many haystacks at
once: a prefilter finds the exact occurrences of the template's pieces in
each haystack's :class:`SearchIndex` (:func:`search_index`, which a caller
searching one haystack many times builds once and passes in), and the
candidate windows of all haystacks are scored together in one pass.  A
haystack whose pieces all first occur at one anchor holds the template
verbatim there, so its first candidate start is a sure hit and the only
one scored.  The index holds the haystack's 8-gram string, whose byte p
holds bits p..p+7, so ``bytes.find`` on it finds a piece in about 2 us at
8K bits; an index built for many searches also sorts the haystack's 12-bit
words into groups, where a piece is looked up by its first word.
:func:`find_closest_subword` is the one-haystack call.

The distance here is edit distance with insertions and deletions only
(no substitutions): ``d(a, b) = |a| + |b| - 2 * lcs(a, b)``.  One exact
kernel computes it, in two steps.  A pair whose shorter string has m bits
and whose lengths differ by delta is scored first by the O(NP) walk over
the diagonals (Wu, Manber, Myers & Miller 1990): a distance
D = delta + 2P costs (P + 1)(delta + P + 1) Python steps plus O(m) at C
speed, as long as D is within the cap and that step count within a
budget of m / 64 steps.  Past that, the bit-parallel LCS
recurrence on Python ints runs over the band of diagonals the cap
allows, a Python loop of O(m * cap / w): once for the bounded distance,
and at most twice for the exact one, the second pass at the first pass's
distance.  A trace is a subsequence of its source (P = 0), so scoring
it against the source takes delta + 1 steps of the walk, when they fit
the budget.  Each step runs one snake along the matches, comparing byte
chunks that grow eightfold from 32 bytes; a chunk that differs is
searched by an int XOR, or with numpy past 256 bytes, so a 1.2 KB snake
takes three compares, about 4 us.  The bit-parallel recurrence, run once
over up to 2048 candidate windows packed into one int, serves the window
search.  Its match masks are built from the bytes with
``bytes.translate`` and ``int(digits, 2)``, and the window search reads
its result back from the binary digits of the int with ``str.count``.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from itertools import chain
from math import isqrt
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "BitString",
    "Interval",
    "random_bits",
    "edit_distance",
    "edit_distance_bounded",
    "find_closest_subword",
    "find_closest_subwords",
    "find_common_word",
    "search_index",
    "SearchIndex",
]

_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # bit bytes to ASCII digits
# ASCII digits to bit bytes; every other byte becomes 0xff, which is no bit
_FROM_DIGITS = b"\xff" * 48 + b"\x00\x01" + b"\xff" * 206


class BitString:
    """Immutable sequence of bits with 1-based accessors, held as one
    ``bytes`` value with one byte (0 or 1) per bit."""

    __slots__ = ("_bytes",)

    def __init__(self, bits: "str | bytes | Iterable[int] | np.ndarray" = ()):
        if isinstance(bits, BitString):
            data = bits._bytes
        elif isinstance(bits, str):
            data = bits.encode("ascii").translate(_FROM_DIGITS)
        elif isinstance(bits, (bytes, bytearray)):
            data = bytes(bits)
        elif isinstance(bits, np.ndarray):
            # check before the cast, which would wrap 256 to 0 and cut 1.9 to 1
            if bits.dtype not in (np.uint8, np.bool_) and ((bits != 0) & (bits != 1)).any():
                raise ValueError("bits must be 0 or 1")
            data = bits.astype(np.uint8, copy=False).tobytes()
        else:
            data = bytes(iter(bits))  # iter: bytes(n) of an int n would be n zeros
        if data.translate(None, b"\x00\x01"):
            raise ValueError("bits must be 0 or 1")
        self._bytes = data

    @property
    def array(self) -> np.ndarray:
        """Read-only uint8 view of the bytes, with values in {0, 1}."""
        return np.frombuffer(self._bytes, np.uint8)

    def tobytes(self) -> bytes:
        return self._bytes

    def __len__(self) -> int:
        return len(self._bytes)

    def bit(self, i: int) -> int:
        """Bit at 1-based position ``i``."""
        if not 1 <= i <= len(self._bytes):
            raise IndexError(f"position {i} out of range 1..{len(self._bytes)}")
        return self._bytes[i - 1]

    def subword(self, i: int, j: int) -> "BitString":
        """Subword at the closed 1-based interval ``[i : j]``; empty if j < i."""
        if i < 1 or j > len(self._bytes):
            raise IndexError(f"[{i}:{j}] out of range for length {len(self._bytes)}")
        # a negative slice end would count from the end of the bytes
        return BitString(self._bytes[i - 1 : max(j, i - 1)])

    def __iter__(self) -> Iterator[int]:
        return iter(self._bytes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._bytes == other._bytes

    def __hash__(self) -> int:
        return hash(self._bytes)

    def __str__(self) -> str:
        return self._bytes.translate(_DIGITS).decode("ascii")

    def __repr__(self) -> str:
        s = str(self)
        if len(s) > 64:
            s = s[:61] + "..."
        return f"BitString({s!r}, len={len(self)})"


def random_bits(n: int, rng: np.random.Generator) -> BitString:
    """Uniformly random bit string of length ``n``."""
    return BitString(rng.integers(0, 2, size=n, dtype=np.uint8).tobytes())


class Interval(NamedTuple):
    """Closed 1-based index interval ``[lo : hi]``, empty when ``hi = lo - 1``
    (as ``BitString.subword(i, i - 1)``); functions taking one check it."""

    lo: int
    hi: int


# A packed block holds bit bytes (0 or 1), pad bytes (2) that match nothing
# and guard bytes (3) that end each row; these tables turn it into the
# digits of a match mask, or of the mask of its non-guard columns
_MATCHES_0 = bytes.maketrans(b"\x00\x01\x02\x03", b"1000")
_MATCHES_1 = bytes.maketrans(b"\x00\x01\x02\x03", b"0100")
_COLUMNS = bytes.maketrans(b"\x00\x01\x02\x03", b"1110")


def _match_masks(b: bytes) -> tuple[int, int]:
    """Bit j of mask c is set where ``b[j] == c``; other symbols match nothing.

    ``b`` is non-empty; ``int`` reads its first digit as the most
    significant, so the digits are read from the reversed bytes.
    """
    rev = b[::-1]
    return int(rev.translate(_MATCHES_0), 2), int(rev.translate(_MATCHES_1), 2)


def _lcs_steps(a: bytes, peq: tuple[int, int], v: int, mask: int) -> int:
    """Bit-parallel LCS rows of ``a`` against the columns of ``peq``, from ``v``.

    Allison & Dix (1986) / Hyyrö (2004): bit j of ``v`` is 0 exactly where
    the current LCS table row steps up at column j, and one mask step per
    symbol (byte 0 or 1) of ``a`` updates every column under ``mask`` at
    once through Python int arithmetic.  ``peq`` holds the match masks of
    the columns (:func:`_match_masks`); ``v`` is the row before the first
    symbol, all ones for the empty prefix of ``a``.
    """
    for c in a:
        u = v & peq[c]
        v = ((v + u) | (v - u)) & mask
    return v


def _snake(a: bytes, b: bytes, x: int, y: int) -> int:
    """Length of the common prefix of ``a[x:]`` and ``b[y:]``.

    One byte is checked first, since most snakes off the alignment end
    there; then slices are compared at C speed in chunks of 32 bytes that
    grow eightfold (32, 256, 2048, ...), so a 1.2 KB snake takes three
    compares.  A differing chunk of up to 256 bytes is read as two
    big-endian ints, whose XOR's highest set bit is the first difference
    (one byte per bit, so each differing byte sets the low bit of its byte
    of the XOR); a longer one is compared as two uint8 views, and
    ``argmax`` of the mismatch mask is the first difference, about 2 us at
    any size, where the ints cost about 1.5 ns a byte.  Ends are clipped by
    comparisons, not ``min``, whose call costs as much as a slice compare.
    On a 2-core Xeon a snake costs about 1 us up to 32 bytes, 2 us up to
    288 and 4 us from there to 2.3 KB.
    """
    end = len(a) - x
    if len(b) - y < end:
        end = len(b) - y
    if end <= 0 or a[x] != b[y]:
        return 0
    s, step = 1, 32
    while s < end:
        c = end - s
        if c > step:
            c = step
        pa, pb = a[x + s : x + s + c], b[y + s : y + s + c]
        if pa != pb:
            if c > 256:
                differs = np.frombuffer(pa, np.uint8) != np.frombuffer(pb, np.uint8)
                return s + int(differs.argmax())
            diff = int.from_bytes(pa, "big") ^ int.from_bytes(pb, "big")
            return s + c - (diff.bit_length() + 7) // 8
        s += c
        step *= 8
    return end


def _walk(a: bytes, b: bytes, cap: int) -> int | None:
    """Insert/delete distance of ``a`` and ``b`` if it is <= ``cap`` and
    the walk finishes within its step budget, else None: the O(NP) walk of
    Wu, Manber, Myers & Miller (1990) over Ukkonen's diagonals.

    With ``a`` the shorter string and ``delta = |b| - |a|``, the distance
    is ``delta + 2 * P`` for the excess ``P``, the number of symbols of
    ``a`` that a shortest path leaves out.  After round ``p``, ``fp[k]`` is
    the furthest ``y`` (position in ``b``) on diagonal ``y - x = k`` of a
    path that leaves out at most ``p`` symbols of ``a``, counting the
    ``k - delta`` it must still leave out to come back from a diagonal past
    ``delta``.  Round ``p`` steps the diagonals ``-p .. delta + p``, each
    from the better of its two neighbours' points along the snake of
    matches (:func:`_snake`), towards ``delta`` from both sides, and the
    walk ends when diagonal ``delta`` reaches the end of ``b``.  Points
    past either end match nothing, so a path that leaves the table can
    only add edits.  A distance D = delta + 2P costs (P + 1)(delta + P + 1)
    diagonal steps, ``delta + 1`` for a subsequence, each one snake: about
    1 us for a short one off the alignment and 4 us for a 1.2 KB one along
    it, a few compares at C speed.  The walk gives up once that count
    would pass ``|a| // 64`` steps, a few percent of the band's ``|a|``
    rows at about 0.2 us each, so a string of fewer than 64 bits is never
    walked.
    """
    if len(a) > len(b):
        a, b = b, a
    n, delta = len(b), len(b) - len(a)
    budget = len(a) // 64
    if delta > cap or delta + 1 > budget:
        return None
    p_max = min((cap - delta) // 2, isqrt(budget))
    off = p_max + 1  # fp[k + off] is the furthest y on diagonal k
    fp = [-1] * (delta + 2 * p_max + 3)
    steps = 0
    for p in range(p_max + 1):
        steps += delta + 2 * p + 1
        if steps > budget:
            return None
        for k in chain(range(-p, delta), range(delta + p, delta, -1), (delta,)):
            i = k + off
            y = fp[i - 1] + 1  # compared, not max(), as in _snake
            if y < fp[i + 1]:
                y = fp[i + 1]
            fp[i] = y + _snake(a, b, y - k, y)
        if fp[delta + off] >= n:
            return delta + 2 * p
    return None


def _lcs_length(a: bytes, b: bytes, cap: int) -> int:
    """Length of a longest common subsequence of two bit byte strings,
    looping over the shorter one.

    A near pair is scored first by the O(NP) walk (:func:`_walk`): a
    distance D = delta + 2P within ``cap`` costs (P + 1)(delta + P + 1)
    Python steps plus O(|a|) at C speed, for the length gap delta, as long
    as that count stays within ``|a| // 64`` steps, which keeps a walk
    that cannot finish to a few percent of the band behind it.  Its first
    snake runs along the strings' common prefix and its last along their
    common suffix, so shared ends cost byte compares alone.  A gap past
    the cap, or with delta + 1 past the step budget, skips the walk.  A
    walk that finishes returns the exact LCS; otherwise the band below
    runs over every row of ``a``, as if there were no walk.

    Only the diagonals ``e = j - i`` that an alignment of cost <= ``cap``
    can touch are computed, ``|e| + |delta - e| <= cap`` with
    ``delta = |b| - |a| <= cap`` after the swap (Ukkonen 1985).  ``b`` is
    shifted right by ``pad`` columns that match nothing, so that row i's
    band of ``w`` diagonals starts at column i, and the rows run in chunks
    of ``h`` over a window of ``w + h`` columns, one chunk of all the rows
    if they are fewer than ``max(w, 256)``.  Between chunks the ``h``
    columns that leave the window add their step-ups to ``base`` and the
    entering columns start flat.  Every value the band computes belongs to
    a real alignment (entering columns are horizontal moves, the window's
    left edge a vertical one), so the result never exceeds the true LCS,
    and it equals it whenever the distance is at most ``cap``.
    """
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return 0
    d = _walk(a, b, cap)
    if d is not None:
        return (len(a) + len(b) - d) // 2
    peq = _match_masks(b)
    cap = min(cap, len(a) + len(b))  # at this cap the band covers every cell
    pad = (cap - (len(b) - len(a))) // 2
    w = len(b) - len(a) + 2 * pad + 1
    # rows per chunk, so shifting the masks stays a small share; one chunk
    # of fewer rows needs no window columns past them
    h = min(max(w, 256), len(a))
    mask = (1 << (w + h)) - 1
    peq = (peq[0] << pad, peq[1] << pad)
    v, base = mask, 0
    for i0 in range(0, len(a), h):
        if i0:
            base += h - (v & ((1 << h) - 1)).bit_count()
            v = (v >> h) | (mask ^ (mask >> h))
        window = ((peq[0] >> i0) & mask, (peq[1] >> i0) & mask)
        v = _lcs_steps(a[i0 : i0 + h], window, v, mask)
    cols = len(b) + pad - i0  # window columns up to the end of b
    return base + cols - (v & ((1 << cols) - 1)).bit_count()


def edit_distance(a: BitString, b: BitString) -> int:
    """Insert/delete edit distance between two bit strings, exact whatever
    the distance.

    A first pass at cap ``max(256, ||a| - |b||)`` gives a distance
    d1 >= d, since the band never overstates the LCS.  A pass is exact at
    any cap >= d, so d1 is d when it is within that cap; otherwise one
    more pass at cap d1 is exact.  Each pass is one :func:`_lcs_length`:
    a near pair, d = delta + 2P for a length gap delta whose
    (P + 1)(delta + P + 1) walk steps fit the budget of m / 64 for a
    shorter string of m bits, takes one pass in that many Python steps
    plus O(m) at C speed; any other takes at most two band passes, in
    O(m * d1 / w) for int digit size w.
    A cap past the whole table is clamped to it, so neither pass is wider
    than the band that covers every cell.
    """
    total = len(a) + len(b)
    cap = max(256, abs(len(a) - len(b)))
    d = total - 2 * _lcs_length(a.tobytes(), b.tobytes(), cap)
    if d > cap:
        d = total - 2 * _lcs_length(a.tobytes(), b.tobytes(), d)
    return d


def edit_distance_bounded(a: BitString, b: BitString, cap: int) -> int | None:
    """Edit distance if it is <= cap, else None.

    ``cap`` is any integer, a numpy one too: it is taken as a Python int
    (:func:`operator.index`), since the band's shifts would wrap or
    overflow in a fixed-width one; a float raises ``TypeError``.  A
    distance d = delta + 2P within the cap, for a length gap delta, costs
    (P + 1)(delta + P + 1) Python steps plus O(m) at C speed, if that
    count is within the walk's budget of m / 64 steps for a shorter
    string of m bits (:func:`_lcs_length`).  Otherwise the bit-parallel
    LCS recurrence runs over the band of about ``cap + 1`` diagonals that
    an alignment of cost <= cap can use, in O(m * max(cap, 256) / w) for
    int digit size w.
    """
    cap = operator.index(cap)
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if abs(len(a) - len(b)) > cap:
        return None
    d = len(a) + len(b) - 2 * _lcs_length(a.tobytes(), b.tobytes(), cap)
    return d if d <= cap else None


def _first_hits(
    template: bytes,
    windows: Sequence[bytes],
    owners: Sequence[int],
    min_len: int,
    max_dist: int,
) -> dict[int, tuple[int, int]]:
    """Each owner's first row with a prefix of at least ``min_len`` bits
    within distance ``max_dist`` of ``template``, as ``{owner: (row, length)}``
    for the shortest such prefix of that row.

    ``windows`` are the rows, bit bytes padded on the right to one width
    with byte 2, which matches nothing; ``owners[r]`` owns row r, and an
    owner's rows are read in order up to its first hit.

    One ``_lcs_steps`` pass scores all rows: joined with a guard byte 3
    after each, row r holds bits r * (L + 1) .. r * (L + 1) + L - 1 of
    ``v``, with its guard bit above.  ``v - u`` never borrows because ``u``
    is a subset of ``v``, and a carry out of a row stops at its guard bit,
    which the mask clears.  The LCS with a length-j prefix of a row is the
    number of zero bits among its first j, counted in the binary digits of
    ``v`` with ``str.count``.  The distance t + j - 2 * lcs falls by at most
    one per column, so a prefix e over budget is followed by none within it
    until e columns on; there the excess is twice the one bits in between.
    So each row is read in a few counts, from its first ``min_len`` columns
    on.
    """
    t, width = len(template), len(windows[0])
    block = b"\x03".join(windows) + b"\x03"
    total = len(block)
    mask = int(block[::-1].translate(_COLUMNS), 2)
    digits = format(_lcs_steps(template, _match_masks(block), mask, mask), f"0{total}b")
    found: dict[int, tuple[int, int]] = {}
    for r, owner in enumerate(owners):
        if owner in found:
            continue
        end = total - r * (width + 1)  # column j of row r is digits[end - 1 - j]
        j = min_len
        excess = t + j - 2 * digits.count("0", end - j, end) - max_dist
        while 0 < excess <= width - j:
            j += excess
            excess = 2 * digits.count("1", end - j, end - j + excess)
        if excess <= 0:
            found[owner] = (r, j)
    return found


_KMER = 12  # bits of a sorted group's word, and the least piece length

_Groups = tuple[np.ndarray, np.ndarray]  # (offsets, starts), see SearchIndex


class SearchIndex(NamedTuple):
    """A haystack's search structure for the window prefilter, built by
    :func:`search_index`.

    ``grams`` is the haystack's 8-gram string: byte p holds bits p..p+7
    (0-based), the first most significant, for every p up to len - 8.
    ``groups`` is None or ``(offsets, starts)``: ``starts`` (int32) holds
    every 0-based 12-bit word start, grouped by the word's code (its bits
    read most significant first) and ascending within a group; the group of
    code c is ``starts[offsets[c] : offsets[c + 1]]``, with ``offsets``
    (int32) of length 4097.
    """

    grams: bytes
    groups: _Groups | None


# 2^7 + 2^14 + ... + 2^56: times the bit bytes read as one int, it adds bit
# p + i, shifted 7 - i bits up, into byte p for i = 0..7
_GRAM_SPREAD = sum(1 << 7 * (i + 1) for i in range(8))


def _grams(bits: BitString) -> bytes:
    """The 8-gram string of ``bits`` (:class:`SearchIndex`), from one int
    product: each byte sums distinct bits, so nothing carries out of it.
    Of the product's bytes, the first 8 (the overflow) and the last 7
    (grams that would run past the end) are dropped.  About 0.5 us for a
    49-bit template and 17 us at 8K bits."""
    b = bits.tobytes()
    return (int.from_bytes(b, "big") * _GRAM_SPREAD).to_bytes(len(b) + 8, "big")[8 : len(b) + 1]


def _word_groups(grams: bytes) -> _Groups:
    """The sorted 12-bit word groups (:class:`SearchIndex`) of the string
    whose 8-gram string is ``grams``: a word's code is its first gram
    followed by the low 4 bits of the gram 4 on."""
    g = np.frombuffer(grams, np.uint8)
    codes = np.left_shift(g[:-4], 4, dtype=np.uint16) | g[4:] & 15
    # each start sits below its code in one key, so sorting the distinct keys
    # groups the starts by code, ascending within a group; uint32 keys, which
    # hold starts below 2^20, sort 3x faster than a stable argsort at 2^17 bits
    width = 20 if codes.size <= 1 << 20 else 32  # bits of a start in its key
    keys = codes.astype(np.uint32 if width == 20 else np.uint64) << width
    keys |= np.arange(codes.size, dtype=keys.dtype)
    keys.sort()
    starts = (keys & ((1 << width) - 1)).astype(np.int32)
    offsets = np.zeros((1 << _KMER) + 1, dtype=np.int32)
    np.cumsum(np.bincount(codes, minlength=1 << _KMER), out=offsets[1:])
    return offsets, starts


def search_index(bits: BitString, sort_words: bool = False) -> SearchIndex:
    """The prefilter's :class:`SearchIndex` for haystack ``bits``: its 8-gram
    string (about 17 us at 8K bits), and with ``sort_words`` its sorted
    12-bit word groups too (one sort of the word keys and a 4,097-entry
    offsets table, about 50 us at 8K bits and 0.6 ms at 2^17), which find a
    piece in fewer steps than a scan of the grams and so pay only for a
    haystack searched many times.
    """
    grams = _grams(bits)
    return SearchIndex(grams, _word_groups(grams) if sort_words else None)


def _prefilter_starts(
    pieces: Sequence[tuple[int, bytes]],
    index: SearchIndex,
    search: Interval,
    max_dist: int,
    min_len: int,
) -> list[int]:
    """Ascending 0-based window starts that exact-piece matching keeps:
    the first candidate start alone when the template occurs verbatim
    there, else every candidate start.

    ``pieces`` holds ``(offset, grams)`` for the ``max_dist + 1``
    contiguous pieces the template is cut into: any window within distance
    ``max_dist`` contains at least one piece verbatim (each edit touches at
    most one piece), displaced by at most ``max_dist`` from its template
    offset.  Each piece is at least ``_KMER`` bits long and ``grams`` is its
    8-gram string, so the piece occurs at p exactly where the haystack's
    grams from p on start with it.  Its occurrences that fit inside
    ``search`` are found by ``bytes.find`` on the haystack's grams or, when
    ``index`` holds sorted groups, among the group of the piece's first
    12-bit word, each checked with ``startswith``.  Either way that is every
    exact occurrence, so this prunes long searches to a handful of
    candidates without ever discarding a true match.

    Each piece's first occurrence is found first.  When all of them give
    one anchor a, the template occurs verbatim at a, and no occurrence
    gives an earlier anchor, so the first candidate start is
    ``q = max(a - max_dist, search start)``.  The window of ``a - q + t``
    bits from q holds the template as a suffix, at distance
    ``a - q <= max_dist``, inside the span, so q hits and no later start
    can be the first hit: the later occurrences are never looked up.
    """
    lo0, hi0 = search.lo - 1, search.hi - 1  # 0-based haystack span
    # a piece of g grams (g + 7 bits) at p fits inside the span when
    # p + g <= end.  A negative end counts from the end of the grams, but
    # then the span is shorter than min_len and no window start is kept
    end = hi0 - 6
    grams, groups = index
    first_q, last_q = lo0, hi0 - min_len + 1  # where a window may start
    # each piece's first occurrence, or -1; for the groups, the rest of the
    # piece's group inside the span too
    if groups is None:
        firsts = [grams.find(piece, lo0, end) for _, piece in pieces]
    else:
        offsets, starts = groups
        firsts, rests = [], []
        for _, piece in pieces:
            code = piece[0] << 4 | piece[4] & 15
            group = starts[offsets[code] : offsets[code + 1]].tolist()
            i, stop = bisect_left(group, lo0), bisect_right(group, end - len(piece))
            while i < stop and not grams.startswith(piece, group[i]):
                i += 1
            firsts.append(group[i] if i < stop else -1)
            rests.append(group[i + 1 : stop])
    # the first piece's offset is 0, so its first occurrence is the anchor
    # the others must give
    anchor = firsts[0]
    if anchor != -1 and firsts == [anchor + a_off for a_off, _ in pieces]:
        return [max(anchor - max_dist, first_q)]
    # else every occurrence, on from the first; the pieces of one copy share
    # a handful of anchors: expand each once
    anchors: set[int] = set()
    if groups is None:
        for (a_off, piece), p in zip(pieces, firsts):
            while p != -1:
                anchors.add(p - a_off)
                p = grams.find(piece, p + 1, end)
    else:
        for (a_off, piece), p, rest in zip(pieces, firsts, rests):
            if p != -1:
                anchors.add(p - a_off)
            for p in rest:
                if grams.startswith(piece, p):
                    anchors.add(p - a_off)
    found: set[int] = set()
    for anchor in anchors:
        found.update(range(max(anchor - max_dist, first_q), min(anchor + max_dist, last_q) + 1))
    return sorted(found)


_BLOCK = 2048  # candidate rows per packed scoring pass


def find_closest_subwords(
    template: BitString,
    haystacks: Sequence[BitString],
    searches: Sequence[Interval],
    max_dist: int,
    indexes: Sequence[SearchIndex | None] | None = None,
) -> list[Interval | None]:
    """For each haystack, the first subword interval within its search
    interval whose edit distance to ``template`` is at most ``max_dist``.

    Despite the name, an entry is the *first* window within budget in scan
    order, not the closest one: a later window may be nearer to the
    template.  Deterministic scan order per haystack: candidate start
    ascending, then candidate length ascending over ``[|template| - max_dist
    : |template| + max_dist]``.  An entry is None when no candidate
    qualifies, as in an empty search interval.  Each search interval must
    have ``1 <= lo <= hi + 1 <= len(haystack) + 1``, else ValueError.
    When the template cuts into ``max_dist + 1`` pieces of at least 12 bits,
    it is cut once per call and only the starts near an exact piece in a
    haystack are scored (:func:`_prefilter_starts`): when every piece first
    occurs at one anchor, the template occurs verbatim there and the first
    candidate start, a sure hit, is scored alone; else every candidate
    start is.  Otherwise every start is scored.  ``indexes[h]`` is
    ``search_index(haystacks[h])``, with or without sorted groups, or None,
    for callers that search one haystack many times; a missing index is
    built, grams only, when the prefilter needs one.

    The candidate windows are scored in scan order, packed together over
    all haystacks, in one bit-parallel pass per block of up to 2048 rows
    (:func:`_first_hits`, on bytes and Python ints alone); a haystack drops
    out of later blocks once it has a hit.  A ``max_dist`` of 0 is a plain
    ``bytes.find``.
    """
    if max_dist < 0:
        raise ValueError("max_dist must be >= 0")
    if indexes is None:
        indexes = [None] * len(haystacks)
    if len(searches) != len(haystacks) or len(indexes) != len(haystacks):
        raise ValueError("one search interval and one index entry per haystack required")
    for hay, search in zip(haystacks, searches):
        if not 1 <= search.lo <= search.hi + 1 <= len(hay) + 1:
            raise ValueError(f"search interval [{search.lo}:{search.hi}] not a haystack span")
    t = len(template)
    if t == 0:
        raise ValueError("template must be non-empty")
    hits: list[Interval | None] = [None] * len(haystacks)
    tb = template.tobytes()

    if max_dist == 0:
        for h, (hay, search) in enumerate(zip(haystacks, searches)):
            pos = hay.tobytes().find(tb, search.lo - 1, search.hi)
            if pos != -1:
                hits[h] = Interval(pos + 1, pos + t)
        return hits

    min_len = max(1, t - max_dist)
    max_len = t + max_dist
    # The prefilter's template cut, when its pieces are long enough to look up
    pieces: list[tuple[int, bytes]] = []
    if t // (max_dist + 1) >= _KMER:
        step = t / (max_dist + 1)  # the float steps of np.linspace(0, t, max_dist + 2)
        bounds = [int(i * step) for i in range(max_dist + 1)] + [t]
        grams = _grams(template)  # the piece of bits a..b-1 has grams a..b-8
        pieces = [(a, grams[a : b - 7]) for a, b in zip(bounds, bounds[1:])]
    pending: list[tuple[int, Sequence[int]]] = []  # (haystack, 0-based starts to score)
    for h, (hay, search) in enumerate(zip(haystacks, searches)):
        last_start0 = (search.hi - 1) - min_len + 1
        if last_start0 < search.lo - 1:
            continue
        if pieces:
            index = search_index(hay) if indexes[h] is None else indexes[h]
            starts = _prefilter_starts(pieces, index, search, max_dist, min_len)
        else:
            starts = range(search.lo - 1, last_start0 + 1)
        if starts:
            pending.append((h, starts))

    # A window is read up to the search end and padded with 2, which matches
    # nothing.  Every start leaves at least min_len bits before the end, and
    # a window running into the pad is farther than its prefix inside the
    # search by one per pad bit, so the shorter window is found first.
    while pending:
        rows_h: list[int] = []
        rows_q: list[int] = []
        windows: list[bytes] = []
        rest = []
        for h, starts in pending:
            take = starts[: _BLOCK - len(rows_q)]
            hay_b, end = haystacks[h].tobytes(), searches[h].hi
            rows_h += [h] * len(take)
            rows_q += take
            windows += [hay_b[q : min(q + max_len, end)].ljust(max_len, b"\x02") for q in take]
            if len(take) < len(starts):
                rest.append((h, starts[len(take) :]))
        for h, (r, length) in _first_hits(tb, windows, rows_h, min_len, max_dist).items():
            hits[h] = Interval(rows_q[r] + 1, rows_q[r] + length)
        pending = [entry for entry in rest if hits[entry[0]] is None]
    return hits


def find_closest_subword(
    template: BitString,
    haystack: BitString,
    search: Interval,
    max_dist: int,
    index: SearchIndex | None = None,
) -> Interval | None:
    """First subword interval of ``haystack`` within ``search`` whose edit
    distance to ``template`` is at most ``max_dist``, or None: the
    one-haystack call of :func:`find_closest_subwords`.  The first window
    within budget in scan order is returned, not the closest one.
    """
    return find_closest_subwords(template, [haystack], [search], max_dist, [index])[0]


def find_common_word(
    windows: Sequence[BitString],
    word_len: int,
    threshold: int,
) -> tuple[BitString, list[int | None]] | None:
    """First word of length ``word_len`` in ``windows[0]`` contained in at
    least ``threshold`` of the windows, with the leftmost 1-based start in
    each containing window (None where a window lacks the word).

    Candidates are the subwords of ``windows[0]`` by ascending start; the
    first qualifying candidate wins.  A word that ``windows[0]`` lacks is
    never a candidate, so on success ``windows[0]`` always has a start.
    """
    if word_len < 1:
        raise ValueError("word_len must be >= 1")
    if not 1 <= threshold <= len(windows):
        raise ValueError("threshold must be in 1..len(windows)")
    wbytes = [w.tobytes() for w in windows]
    ref = wbytes[0]
    for s in range(len(ref) - word_len + 1):
        cand = ref[s : s + word_len]
        starts = [wb.find(cand) + 1 or None for wb in wbytes]
        if len(starts) - starts.count(None) >= threshold:
            return BitString(cand), starts
    return None
