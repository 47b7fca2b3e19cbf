"""Frozen index segments, the node-local segment cache, and the freeze policy.

The cold half of tiered index storage (Airphant's design, PAPERS.md): a
partition that has gone cold is serialized into one compressed,
**immutable** segment file — attribute store, ACG records, index specs,
bitmap posting lists for every path keyword, and a zone-map/Bloom
summary — and parked in the simulated object store.  Searches against a
frozen partition consult the RAM-resident summary first (a provably
empty partition answers without touching the cold tier at all), hydrate
the segment through a byte-budgeted LRU cache on first miss, and run the
ordinary exact residual filter against the hydrated view, so answers are
byte-identical to the live B+tree/hash path.  The first *write* thaws
the partition back to the live path.

The segment is also the *only* serialized form of a partition: the
shared-storage checkpoint (:mod:`repro.cluster.persistence` stores these
bytes), the split / merge / migration payload and the follower bootstrap
are all :func:`encode_segment` output read back by :func:`decode_segment`.

Layout: ``PSEG`` magic, version, acg id and compressed-body length, CRC
over the compressed body, then a zlib-compressed sequence of
length-prefixed :func:`~repro.indexstructures.serialization.dump_value`
sections.
"""

from __future__ import annotations

import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import SegmentCorruption
from repro.indexstructures.base import IndexKind
from repro.indexstructures.postings import PostingList, intersect_all
from repro.indexstructures.serialization import dump_value, load_value
from repro.query.ast import Keyword, Predicate, conjuncts, matches
from repro.query.executor import AttributeStore
from repro.query.planner import IndexSpec
from repro.query.summary import SummarySnapshot

SEGMENT_MAGIC = b"PSEG"
_VERSION = 1
_SECTIONS = 6  # meta, specs, files, acg records, postings, summary


def segment_key(node_name: str, acg_id: int) -> str:
    """Canonical object-store key for one node's frozen partition."""
    return f"segments/{node_name}/acg{acg_id:08d}.seg"


# -- serialization ---------------------------------------------------------------


def encode_segment(replica, node_name: str,
                   file_ids: Optional[Set[int]] = None) -> bytes:
    """Serialize one live replica into an immutable segment (the writer).

    ``file_ids`` restricts the dump to those of the replica's files (a
    split's moving half): their rows, their postings and the induced
    ACG subgraph; ids the replica does not host are left out.  The
    summary section stays the whole replica's — wider than the subset
    needs, which is the safe direction for pruning.

    The dump is canonical — files, keywords and chunks are emitted in
    sorted order — so dumping the same replica state twice yields the
    same bytes (the determinism the chaos replay check leans on).
    """
    watermark = (node_name, replica.incarnation, replica.applied)
    if file_ids is None:
        selected = sorted(replica.store.file_ids())
        acg_records = replica.graph.to_records()
    else:
        selected = sorted(f for f in file_ids if f in replica.store)
        # An induced subgraph lists its vertices in set-iteration order;
        # sorted, equal subsets give equal bytes whatever built the set.
        acg_records = sorted(replica.graph.subgraph(file_ids).to_records())
    sections: List[bytes] = []
    # 1. meta: acg id + commit watermark + file count.
    sections.append(dump_value((replica.acg_id, node_name,
                                replica.incarnation, replica.applied,
                                len(selected))))
    # 2. index specs, so a thaw/install can rebuild live structures.
    specs = tuple((s.name, s.kind.value, tuple(s.attrs))
                  for s in replica.specs.values())
    sections.append(dump_value(specs))
    # 3. attribute store: (file_id, attrs-as-pairs, path), sorted by id.
    files = []
    for file_id in selected:
        attrs = replica.store.attrs(file_id)
        path = attrs.get("path")
        pairs = tuple(sorted((k, v) for k, v in attrs.items() if k != "path"))
        files.append((file_id, pairs, path))
    sections.append(dump_value(tuple(files)))
    # 4. ACG edge/vertex records.
    sections.append(dump_value(tuple(acg_records)))
    # 5. keyword postings: roaring chunk dumps per path keyword.
    postings: Dict[str, PostingList] = {}
    for file_id in selected:
        for term in sorted(replica.store.keywords(file_id)):
            postings.setdefault(term, PostingList()).add(file_id)
    sections.append(dump_value(tuple(
        (term, postings[term].dump_chunks()) for term in sorted(postings))))
    # 6. zone maps + Bloom summary (the RAM-resident pruning sidecar).
    snapshot = replica.summary.snapshot(replica.acg_id, watermark,
                                        dirty=False,
                                        file_count=len(selected))
    bloom_bytes = snapshot.bloom_bits.to_bytes((snapshot.bloom_m + 7) // 8,
                                               "little")
    sections.append(dump_value((tuple(sorted(snapshot.attrs_seen)),
                                snapshot.zones, bloom_bytes,
                                snapshot.bloom_m, snapshot.bloom_k)))
    body = zlib.compress(
        b"".join(struct.pack("<I", len(s)) + s for s in sections), 6)
    header = SEGMENT_MAGIC + struct.pack("<IIQ", _VERSION, replica.acg_id,
                                         len(body)) \
        + struct.pack("<I", zlib.crc32(body))
    return header + body


def dump_segment(replica, node_name: str) -> bytes:
    """Freeze one replica: :func:`encode_segment` under the cold tier's
    own name.  The per-layer ledger (``perf/layertrace.py``) patches this
    and :func:`load_segment`, so it books freezes and hydrations to the
    tier and a live node's snapshots, which call the codec, to the node."""
    return encode_segment(replica, node_name)


def _parse_sections(data: bytes) -> List[Any]:
    if data[:4] != SEGMENT_MAGIC:
        raise SegmentCorruption("not a segment (bad magic)")
    try:
        version, acg_id, body_len = struct.unpack_from("<IIQ", data, 4)
        (crc,) = struct.unpack_from("<I", data, 20)
    except struct.error as exc:
        raise SegmentCorruption(f"truncated segment header: {exc}") from None
    if version != _VERSION:
        raise SegmentCorruption(f"unsupported segment version {version}")
    body = data[24:24 + body_len]
    if len(body) != body_len or zlib.crc32(body) != crc:
        raise SegmentCorruption("segment failed CRC validation (torn read?)")
    try:
        raw = zlib.decompress(body)
    except zlib.error as exc:
        raise SegmentCorruption(f"segment decompression failed: {exc}") from None
    offset = 0
    sections: List[Any] = []
    for _ in range(_SECTIONS):
        (n,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        value, consumed = load_value(raw, offset)
        if consumed - offset != n:
            raise SegmentCorruption("segment section length mismatch")
        offset = consumed
        sections.append(value)
    # The CRC covers the body only; the header's copy of the id is
    # checked against the CRC-covered meta section.
    if sections[0][0] != acg_id:
        raise SegmentCorruption(
            f"segment header names ACG {acg_id}, body ACG {sections[0][0]}")
    return sections


def decode_segment(data: bytes) -> "SegmentView":
    """Parse and validate a segment into a searchable view (the reader).

    Raises :class:`~repro.errors.SegmentCorruption` — and nothing else —
    on any framing, CRC or decompression failure: a hydration falls back
    to its live backing replica, a failover counts the partition lost.
    """
    meta, specs_raw, files_raw, acg_records, postings_raw, summary_raw = \
        _parse_sections(data)
    acg_id, node_name, incarnation, applied, file_count = meta
    specs = [IndexSpec(name, IndexKind(kind), tuple(attrs))
             for name, kind, attrs in specs_raw]
    store = AttributeStore()
    for file_id, pairs, path in files_raw:
        store.put(file_id, dict(pairs), path)
    postings = {term: PostingList.from_chunks(chunks)
                for term, chunks in postings_raw}
    attrs_seen, zones, bloom_bytes, bloom_m, bloom_k = summary_raw
    snapshot = SummarySnapshot(
        acg_id=acg_id,
        watermark=(node_name, incarnation, applied),
        dirty=False,
        file_count=file_count,
        attrs_seen=frozenset(attrs_seen),
        zones=tuple(tuple(z) for z in zones),
        bloom_bits=int.from_bytes(bloom_bytes, "little"),
        bloom_m=bloom_m,
        bloom_k=bloom_k,
    )
    return SegmentView(acg_id=acg_id, specs=specs, store=store,
                       acg_records=list(acg_records), postings=postings,
                       snapshot=snapshot, serialized_bytes=len(data))


def load_segment(data: bytes) -> "SegmentView":
    """Hydrate one frozen segment: :func:`decode_segment` under the cold
    tier's own name (see :func:`dump_segment`)."""
    return decode_segment(data)


# -- the hydrated view -----------------------------------------------------------


@dataclass
class SegmentView:
    """One segment, parsed and searchable.

    Searches run the same exact semantics as the live path: candidates
    come from the segment's bitmap postings (keyword conjuncts) or a
    full scan, then every candidate passes the full predicate as a
    residual filter — so the matching set is identical to what the live
    B+tree/hash indexes would produce for the same data.
    """

    acg_id: int
    specs: List[IndexSpec]
    store: AttributeStore
    acg_records: List[Any]
    postings: Dict[str, PostingList]
    snapshot: SummarySnapshot
    serialized_bytes: int

    def file_count(self) -> int:
        return len(self.store)

    def resident_bytes(self) -> int:
        """Hydrated RAM footprint — the quantity the segment cache
        budgets.  No live index structures exist, so this is roughly 4x
        denser than the live replica's residency charge."""
        return 256 + self.store.estimated_bytes()

    def search(self, predicate: Predicate, now: float) -> Set[int]:
        """Exact matching file ids (same answer as the live path)."""
        terms = [c.term for c in conjuncts(predicate)
                 if isinstance(c, Keyword)]
        if terms:
            candidates = intersect_all(
                self.postings.get(term, PostingList()) for term in terms)
        else:
            candidates = self.store.file_ids()
        result: Set[int] = set()
        for file_id in candidates:
            if file_id in result or file_id not in self.store:
                continue
            if matches(predicate, self.store.attrs(file_id),
                       self.store.keywords(file_id), now):
                result.add(file_id)
        return result


# -- the node-local segment cache ------------------------------------------------


@dataclass
class SegmentCacheStats:
    """Counters a :class:`SegmentCache` accumulates."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rejected: int = 0

    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class SegmentCache:
    """Byte-budgeted LRU of hydrated segment views, with admission.

    Admission control keeps one oversized segment from wiping the whole
    cache: a view bigger than ``admit_fraction`` of the budget is served
    once and not retained (``rejected``), the classic scan-resistance
    guard.  Sits alongside :class:`repro.cluster.cache.IndexCache` in
    the node's memory budget — that one buffers uncommitted *writes*,
    this one caches hydrated *cold reads*.
    """

    def __init__(self, budget_bytes: int, admit_fraction: float = 0.25) -> None:
        if budget_bytes <= 0:
            raise ValueError(f"budget must be positive: {budget_bytes}")
        self.budget_bytes = budget_bytes
        self.admit_fraction = admit_fraction
        self.stats = SegmentCacheStats()
        self._views: "OrderedDict[str, SegmentView]" = OrderedDict()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, key: str) -> bool:
        return key in self._views

    def estimated_bytes(self) -> int:
        """Hydrated bytes currently resident."""
        return self._bytes

    def get(self, key: str) -> Optional[SegmentView]:
        """Look one view up (LRU-touching it); None on miss."""
        view = self._views.get(key)
        if view is None:
            self.stats.misses += 1
            return None
        self._views.move_to_end(key)
        self.stats.hits += 1
        return view

    def put(self, key: str, view: SegmentView) -> bool:
        """Admit a freshly hydrated view; returns whether it was kept."""
        nbytes = view.resident_bytes()
        if nbytes > self.budget_bytes * self.admit_fraction:
            self.stats.rejected += 1
            return False
        old = self._views.pop(key, None)
        if old is not None:
            self._bytes -= old.resident_bytes()
        self._views[key] = view
        self._bytes += nbytes
        while self._bytes > self.budget_bytes and len(self._views) > 1:
            _evicted_key, evicted = self._views.popitem(last=False)
            self._bytes -= evicted.resident_bytes()
            self.stats.evictions += 1
        return True

    def invalidate(self, key: str) -> None:
        """Drop one view (thaw / drop-partition path)."""
        view = self._views.pop(key, None)
        if view is not None:
            self._bytes -= view.resident_bytes()

    def resize(self, budget_bytes: int) -> None:
        """Change the byte budget, evicting LRU-first if shrinking."""
        if budget_bytes <= 0:
            raise ValueError(f"budget must be positive: {budget_bytes}")
        self.budget_bytes = budget_bytes
        while self._bytes > self.budget_bytes and self._views:
            _evicted_key, evicted = self._views.popitem(last=False)
            self._bytes -= evicted.resident_bytes()
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop everything (crash / cold-start measurement)."""
        self._views.clear()
        self._bytes = 0


# -- the freeze policy -----------------------------------------------------------


@dataclass
class TierPolicy:
    """When a partition is cold enough to freeze.

    Driven from the Index Node's tick using its per-ACG last-access
    stats: a partition freezes once it has seen no search *or* update
    for ``freeze_age_s`` and its store is at least ``min_bytes`` (tiny
    partitions are not worth a round trip to the cold tier).
    """

    freeze_age_s: float = 60.0
    min_bytes: int = 4096

    def should_freeze(self, now: float, last_access: float,
                      store_bytes: int) -> bool:
        return (now - last_access >= self.freeze_age_s
                and store_bytes >= self.min_bytes)


@dataclass
class FrozenPartition:
    """Node-side record of one frozen partition (the RAM-resident part)."""

    acg_id: int
    key: str
    serialized_bytes: int
    hydrated_bytes: int
    snapshot: SummarySnapshot
    frozen_at: float
    watermark: Tuple[str, int, int]
