"""Roaring-style posting lists for keyword search.

Airphant (PAPERS.md) shows that compact posting-list layouts are the
query-side counterpart to batched ingest: once updates arrive in bulk,
the per-document ``set`` intersections on the read path become the next
bottleneck.  :class:`PostingList` stores document ids in 2^16-wide
chunks keyed by the high bits, each chunk either a sorted array (sparse)
or a bitmap (dense) — the classic roaring layout.  Bitmaps are plain
Python ints, so AND/OR/ANDNOT compile down to word-at-a-time bit ops in
the interpreter: one ``&`` touches 64 documents per machine word, which
is the "vectorized" execution the cost model credits.

The container is exact — ``set(PostingList.from_iterable(xs))`` equals
``set(xs)`` for any non-negative ids — and the executor keeps an oracle
test against the old set-based path (``tests/test_postings.py``).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, Iterator, List, Union

# A chunk covers ids [base << 16, (base + 1) << 16).  Sparse chunks are
# sorted lists; once a chunk holds more than ARRAY_MAX ids the bitmap
# (8 KiB worst case) is both smaller and faster, matching roaring's
# 4096-element threshold.
CHUNK_SHIFT = 16
CHUNK_MASK = (1 << CHUNK_SHIFT) - 1
ARRAY_MAX = 4096

# A chunk is either a sorted ``list`` of low-16-bit values (sparse) or
# an ``int`` bitmap (dense).  Python ints are arbitrary precision, so a
# dense chunk is a single 2^16-bit integer.
_Chunk = Union[List[int], int]


def _to_bitmap(arr: List[int]) -> int:
    bits = 0
    for low in arr:
        bits |= 1 << low
    return bits


def _bit_count(bits: int) -> int:
    # int.bit_count() needs 3.10; bin().count works everywhere.
    return bin(bits).count("1")


def _iter_bits(bits: int) -> Iterator[int]:
    while bits:
        low_bit = bits & -bits
        yield low_bit.bit_length() - 1
        bits ^= low_bit


class PostingList:
    """A set of non-negative document ids with vectorized set algebra."""

    __slots__ = ("_chunks", "_len")

    def __init__(self) -> None:
        self._chunks: Dict[int, _Chunk] = {}
        self._len = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_iterable(cls, ids: Iterable[int]) -> "PostingList":
        """Build in bulk: sort the distinct ids once, then cut the run
        at each chunk boundary — the chunks :meth:`add` would have
        built one id at a time."""
        pl = cls()
        ordered = sorted(set(ids))
        if ordered and ordered[0] < 0:
            raise ValueError("posting lists hold non-negative ids")
        start, count = 0, len(ordered)
        while start < count:
            base = ordered[start] >> CHUNK_SHIFT
            stop = bisect_left(ordered, (base + 1) << CHUNK_SHIFT, start)
            lows = ([doc & CHUNK_MASK for doc in ordered[start:stop]]
                    if base else ordered[start:stop])
            pl._chunks[base] = (_to_bitmap(lows) if len(lows) > ARRAY_MAX
                                else lows)
            start = stop
        pl._len = count
        return pl

    # -- point updates ------------------------------------------------------

    def add(self, doc: int) -> None:
        if doc < 0:
            raise ValueError("posting lists hold non-negative ids")
        base, low = doc >> CHUNK_SHIFT, doc & CHUNK_MASK
        chunk = self._chunks.get(base)
        if chunk is None:
            self._chunks[base] = [low]
            self._len += 1
        elif isinstance(chunk, int):
            bit = 1 << low
            if not chunk & bit:
                self._chunks[base] = chunk | bit
                self._len += 1
        else:
            i = bisect_left(chunk, low)
            if i == len(chunk) or chunk[i] != low:
                insort(chunk, low)
                self._len += 1
                if len(chunk) > ARRAY_MAX:
                    self._chunks[base] = _to_bitmap(chunk)

    # -- protocol -----------------------------------------------------------

    def __contains__(self, doc: int) -> bool:
        if doc < 0:
            return False
        chunk = self._chunks.get(doc >> CHUNK_SHIFT)
        if chunk is None:
            return False
        low = doc & CHUNK_MASK
        if isinstance(chunk, int):
            return bool(chunk & (1 << low))
        i = bisect_left(chunk, low)
        return i < len(chunk) and chunk[i] == low

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __iter__(self) -> Iterator[int]:
        for base in sorted(self._chunks):
            chunk = self._chunks[base]
            hi = base << CHUNK_SHIFT
            if isinstance(chunk, int):
                for low in _iter_bits(chunk):
                    yield hi | low
            else:
                for low in chunk:
                    yield hi | low

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PostingList):
            return self._len == other._len and set(self) == set(other)
        if isinstance(other, (set, frozenset)):
            return self._len == len(other) and set(self) == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PostingList({self._len} ids, {len(self._chunks)} chunks)"

    # -- vectorized algebra -------------------------------------------------

    def _chunk_as_bitmap(self, base: int) -> int:
        chunk = self._chunks[base]
        return chunk if isinstance(chunk, int) else _to_bitmap(chunk)

    @staticmethod
    def _store(pl: "PostingList", base: int, bits: int) -> None:
        if not bits:
            return
        n = _bit_count(bits)
        if n <= ARRAY_MAX:
            pl._chunks[base] = list(_iter_bits(bits))
        else:
            pl._chunks[base] = bits
        pl._len += n

    def intersection(self, other: "PostingList") -> "PostingList":
        """Vectorized AND: word-at-a-time over the shared chunks."""
        out = PostingList()
        small, large = (self, other) if len(self._chunks) <= len(other._chunks) else (other, self)
        for base in small._chunks:
            if base in large._chunks:
                self._store(out, base,
                            small._chunk_as_bitmap(base) & large._chunk_as_bitmap(base))
        return out

    def union(self, other: "PostingList") -> "PostingList":
        """Vectorized OR over the union of chunk keys."""
        out = PostingList()
        for base in set(self._chunks) | set(other._chunks):
            bits = 0
            if base in self._chunks:
                bits |= self._chunk_as_bitmap(base)
            if base in other._chunks:
                bits |= other._chunk_as_bitmap(base)
            self._store(out, base, bits)
        return out

    def difference(self, other: "PostingList") -> "PostingList":
        """Vectorized ANDNOT."""
        out = PostingList()
        for base in self._chunks:
            bits = self._chunk_as_bitmap(base)
            if base in other._chunks:
                bits &= ~other._chunk_as_bitmap(base)
            self._store(out, base, bits)
        return out

    def __and__(self, other: "PostingList") -> "PostingList":
        return self.intersection(other)

    def __or__(self, other: "PostingList") -> "PostingList":
        return self.union(other)

    def __sub__(self, other: "PostingList") -> "PostingList":
        return self.difference(other)

    # -- serialization ------------------------------------------------------

    # Chunk payload tags for dump_chunks/from_chunks.
    _ARRAY_TAG = 0
    _BITMAP_TAG = 1

    def dump_chunks(self) -> tuple:
        """Chunk-structured dump: ``((base, kind, payload), ...)``.

        Sparse chunks serialize as 2-byte little-endian low values
        (``kind == 0``), dense chunks as the raw 8 KiB bitmap
        (``kind == 1``) — the on-disk shape frozen segments store, an
        order of magnitude smaller than one int per document.  The dump
        is canonical (chunks sorted by base), so equal sets dump to
        equal bytes.
        """
        out = []
        for base in sorted(self._chunks):
            chunk = self._chunks[base]
            if isinstance(chunk, int):
                payload = chunk.to_bytes((1 << CHUNK_SHIFT) // 8, "little")
                out.append((base, self._BITMAP_TAG, payload))
            else:
                payload = b"".join(low.to_bytes(2, "little") for low in chunk)
                out.append((base, self._ARRAY_TAG, payload))
        return tuple(out)

    @classmethod
    def from_chunks(cls, chunks: Iterable[tuple]) -> "PostingList":
        """Rebuild a posting list from :meth:`dump_chunks` output."""
        pl = cls()
        for base, kind, payload in chunks:
            if kind == cls._BITMAP_TAG:
                bits = int.from_bytes(payload, "little")
                pl._chunks[base] = bits
                pl._len += _bit_count(bits)
            elif kind == cls._ARRAY_TAG:
                arr = [int.from_bytes(payload[i:i + 2], "little")
                       for i in range(0, len(payload), 2)]
                if arr:
                    pl._chunks[base] = arr
                    pl._len += len(arr)
            else:
                raise ValueError(f"unknown posting-chunk kind: {kind!r}")
        return pl

    # -- introspection ------------------------------------------------------

    def estimated_bytes(self) -> int:
        """Rough RAM footprint: 2 bytes per id in an array chunk, the
        full 8 KiB for a bitmap chunk, plus per-chunk and per-list
        overhead — the same order-of-magnitude estimate
        ``AttributeStore.estimated_bytes`` makes for rows."""
        return 64 + sum(
            16 + ((1 << CHUNK_SHIFT) // 8 if isinstance(chunk, int)
                  else 2 * len(chunk))
            for chunk in self._chunks.values())

    def chunk_kinds(self) -> Dict[str, int]:
        """How many chunks are arrays vs bitmaps (for tests/metrics)."""
        kinds = {"array": 0, "bitmap": 0}
        for chunk in self._chunks.values():
            kinds["bitmap" if isinstance(chunk, int) else "array"] += 1
        return kinds


def intersect_all(lists: Iterable[PostingList]) -> PostingList:
    """AND together posting lists, smallest first to shrink work early."""
    ordered = sorted(lists, key=len)
    if not ordered:
        return PostingList()
    acc = ordered[0]
    for pl in ordered[1:]:
        if not acc:
            break
        acc = acc.intersection(pl)
    return acc
