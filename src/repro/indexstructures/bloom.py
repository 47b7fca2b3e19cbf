"""Bloom filter for partition keyword summaries.

A fixed-width bit array with ``k`` derived hash positions per token
(double hashing over the two halves of a BLAKE2b digest — fully
deterministic, so two runs of the same simulation build bit-identical
filters).  The filter is
*add-only*: deletes leave it over-approximate, which is exactly the
safety direction partition pruning needs — a stale bit can only cost a
wasted search leg (false positive), never a missed match.

The bit array is carried as a single Python int (``bits``), which makes
snapshots cheap to ship on heartbeats, hashable for change detection,
and trivially mergeable with ``|``.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

DEFAULT_BITS = 8192
DEFAULT_HASHES = 4


def _positions(token: str, m_bits: int, k: int) -> Iterable[int]:
    """The ``k`` bit positions for one token (Kirsch–Mitzenmacher
    double hashing: h1 + i*h2 mod m).

    The base hashes are the two halves of a BLAKE2b digest: linear
    checksums like CRC32 put tokens from structured families (shared
    filename prefixes/suffixes) on *correlated* positions, which
    inflates the false-positive rate exactly where partition pruning
    meets it."""
    data = token.encode("utf-8", "surrogatepass")
    digest = hashlib.blake2b(data, digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1  # odd: strides cover [0, m)
    for i in range(k):
        yield (h1 + i * h2) % m_bits


def probe_mask(token: str, m_bits: int, k: int) -> int:
    """The token's ``k`` positions as one int with those bits set: a
    filter of that geometry may contain the token iff
    ``bits & mask == mask``.  Computed once, a mask tests any number of
    filters without hashing again."""
    mask = 0
    for pos in _positions(token, m_bits, k):
        mask |= 1 << pos
    return mask


class BloomFilter:
    """Deterministic add-only Bloom filter over string tokens."""

    __slots__ = ("m_bits", "k", "bits")

    def __init__(self, m_bits: int = DEFAULT_BITS, k: int = DEFAULT_HASHES,
                 bits: int = 0) -> None:
        if m_bits <= 0 or k <= 0:
            raise ValueError(f"need positive geometry: m={m_bits}, k={k}")
        self.m_bits = m_bits
        self.k = k
        self.bits = bits

    def add(self, token: str) -> None:
        """Set the token's bits."""
        self.add_all((token,))

    def add_all(self, tokens: Iterable[str]) -> None:
        """Set every token's bits: gathered in one byte mask and OR-ed
        into ``bits`` once, not one full-width int per bit set; a token
        repeated within the call is hashed once."""
        mask = bytearray((self.m_bits + 7) // 8)
        hashed = set()
        for token in tokens:
            if token not in hashed:
                hashed.add(token)
                for pos in _positions(token, self.m_bits, self.k):
                    mask[pos >> 3] |= 1 << (pos & 7)
        self.bits |= int.from_bytes(mask, "little")

    def might_contain(self, token: str) -> bool:
        """False means *definitely absent*; True means "maybe"."""
        mask = probe_mask(token, self.m_bits, self.k)
        return self.bits & mask == mask

    def __contains__(self, token: str) -> bool:
        return self.might_contain(token)

    def merge(self, other: "BloomFilter") -> None:
        """Union another filter into this one (same geometry required)."""
        if (other.m_bits, other.k) != (self.m_bits, self.k):
            raise ValueError("cannot merge Bloom filters of different geometry")
        self.bits |= other.bits

    def copy(self) -> "BloomFilter":
        return BloomFilter(self.m_bits, self.k, bits=self.bits)
