"""Frozen index segments, the node-local segment cache, and the freeze policy.

The cold half of tiered index storage (Airphant's design, PAPERS.md): a
partition that has gone cold is serialized into one compressed,
**immutable** segment file — attribute store, ACG records, index specs,
bitmap posting lists for every path keyword, and a zone-map/Bloom
summary — and parked in the simulated object store.  Searches against a
frozen partition consult the RAM-resident summary first (a provably
empty partition answers without touching the cold tier at all), fetch
the segment through a byte-budgeted LRU cache of **validated segment
bytes** on first miss, and decode from those bytes only what the query
reads — the posting lists of its keyword conjuncts, the rows of the
surviving candidates — before running the ordinary exact residual
filter, so answers are byte-identical to the live B+tree/hash path.  The
first *write* thaws the partition back to the live path.

The segment is also the *only* serialized form of a partition: the
shared-storage checkpoint (:mod:`repro.cluster.persistence` stores these
bytes), the split / merge / migration payload and the follower bootstrap
are all :func:`encode_segment` output read back by :func:`decode_segment`.

Layout (version 2): a 24-byte header — ``PSEG`` magic, version, acg id,
compressed-body length, one CRC over those four fields and the body —
then one zlib body holding six length-prefixed sections, and a seventh
when the writer had uncommitted updates to carry.  Meta, specs, ACG
records, summary and that pending tail are single
:func:`~repro.indexstructures.serialization.dump_value` records.  The
rows and postings sections are *tables*, so one row or one term can be
decoded without its neighbours::

    rows      dump_value(attribute-name tuples)
              <I n>  n x <q file id> (ascending)  n x <I length>  blobs
              blob i = dump_value((names index, path, value, ...))
    postings  <I n>  n x <I length>  entries  (terms ascending)
              entry i = dump_value(term) + dump_value(chunks)
    pending   dump_value(((file id, op, path, attrs), ...))  (optional)

Entry ``i`` starts where the lengths before it sum to, in the bytes after
the length column.  There is no section directory in the header, no
per-section compression and no ranged GET: a 100-file segment is under
4 KB, so a GET is first-byte latency whatever it reads (DESIGN.md §9).
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

from repro.cluster.messages import IndexUpdate, UpdateOp
from repro.errors import SegmentCorruption
from repro.indexstructures.base import IndexKind
from repro.indexstructures.postings import PostingList, intersect_all
from repro.indexstructures.serialization import (dump_tuple_head, dump_value,
                                                 load_value)
from repro.query.ast import Predicate
from repro.query.executor import AttributeStore
from repro.query.planner import IndexSpec
from repro.query.prepared import PreparedQuery, prepare
from repro.query.summary import SummarySnapshot

SEGMENT_MAGIC = b"PSEG"
_VERSION = 2
# magic, version, acg id, compressed-body length, CRC — over the header
# up to ``_CRC_AT`` and the body.
_HEADER = struct.Struct("<4sIIQI")
_CRC_AT = _HEADER.size - 4
_META, _SPECS, _ROWS, _ACG, _POSTINGS, _SUMMARY, _PENDING = range(7)
_TUPLE_HEAD = len(dump_tuple_head(0))


def segment_key(node_name: str, acg_id: int) -> str:
    """Canonical object-store key for one node's frozen partition."""
    return f"segments/{node_name}/acg{acg_id:08d}.seg"


# -- serialization ---------------------------------------------------------------


def _table(entries: Sequence[bytes], keys: bytes = b"") -> bytes:
    """An addressable section: the entry count, an optional fixed-width
    key column, the entries' lengths, then the entries.  Lengths, not
    offsets: near-equal small numbers deflate to almost nothing, and the
    reader's running sum over them is one C call."""
    return (struct.pack("<I", len(entries)) + keys
            + struct.pack(f"<{len(entries)}I", *map(len, entries))
            + b"".join(entries))


def encode_segment(replica, node_name: str,
                   file_ids: Optional[Set[int]] = None,
                   pending: Sequence[IndexUpdate] = ()) -> bytes:
    """Serialize one live replica into an immutable segment (the writer).

    ``file_ids`` restricts the dump to those of the replica's files (a
    split's moving half): their rows, their postings and the induced
    ACG subgraph; ids the replica does not host are left out.  The
    summary section stays the whole replica's — wider than the subset
    needs, which is the safe direction for pruning.

    ``pending`` is a checkpoint's tail: acknowledged updates the node
    has not committed yet, in arrival order.  They ride in a seventh
    section, outside the committed rows and watermark, so a checkpoint
    is durable without making anything search-visible.

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
    # 3. attribute store: the distinct attribute-name tuples once, then
    #    one (names index, path, values...) blob per file under the
    #    sorted id column — a row is one flat record to decode.  What
    #    follows the names index is the store's memo, dumped on a miss.
    store = replica.store
    memo = store.encoded_rows
    rows = []
    for file_id in selected:
        row = memo.get(file_id)
        if row is None:
            attrs = store.attrs(file_id)
            keys = tuple(sorted(k for k in attrs if k != "path"))
            row = memo[file_id] = (keys, dump_value(
                (attrs.get("path"), *(attrs[k] for k in keys)))[_TUPLE_HEAD:])
        rows.append(row)
    schemas = sorted({keys for keys, _ in rows})
    heads = {keys: dump_tuple_head(len(keys) + 2) + dump_value(i)
             for i, keys in enumerate(schemas)}
    sections.append(dump_value(tuple(schemas)) + _table(
        [heads[keys] + tail for keys, tail in rows],
        keys=struct.pack(f"<{len(selected)}q", *selected)))
    # 4. ACG edge/vertex records.
    sections.append(dump_value(tuple(acg_records)))
    # 5. keyword postings: roaring chunk dumps per path keyword.  A whole
    #    dump takes the store's memoised entries (put and drop keep them
    #    to terms some file holds, with their current postings) and
    #    builds the rest; a subset builds all of its own.
    entries = store.encoded_terms if file_ids is None else {}
    missing: Dict[str, List[int]] = {}
    for file_id in selected:
        for term in store.keywords(file_id):
            if term not in entries:
                missing.setdefault(term, []).append(file_id)
    for term, ids in missing.items():
        entries[term] = dump_value(term) + dump_value(
            PostingList.from_iterable(ids).dump_chunks())
    sections.append(_table([entries[term] for term in sorted(entries)]))
    # 6. zone maps + Bloom summary (the RAM-resident pruning sidecar).
    snapshot = replica.summary.snapshot(replica.acg_id, watermark,
                                        dirty=False,
                                        file_count=len(selected))
    bloom_bytes = snapshot.bloom_bits.to_bytes((snapshot.bloom_m + 7) // 8,
                                               "little")
    sections.append(dump_value((tuple(sorted(snapshot.attrs_seen)),
                                snapshot.zones, bloom_bytes,
                                snapshot.bloom_m, snapshot.bloom_k)))
    # 7. the pending tail, only when there is one, so every other segment
    #    (freeze, split, bootstrap) keeps its six sections.
    if pending:
        sections.append(dump_value(tuple(
            (u.file_id, u.op.value, u.path, u.attrs) for u in pending)))
    body = zlib.compress(
        b"".join(struct.pack("<I", len(s)) + s for s in sections), 6)
    covered = _HEADER.pack(SEGMENT_MAGIC, _VERSION, replica.acg_id,
                           len(body), 0)[:_CRC_AT]
    return covered + struct.pack("<I", zlib.crc32(body, zlib.crc32(covered))) \
        + body


def dump_segment(replica, node_name: str) -> bytes:
    """Freeze one replica: :func:`encode_segment` under the cold tier's
    own name.  The per-layer ledger (``perf/layertrace.py``) patches this
    and :func:`load_segment`, so it books freezes and hydrations to the
    tier and a live node's snapshots, which call the codec, to the node."""
    return encode_segment(replica, node_name)


def decode_segment(data: bytes) -> "SegmentView":
    """Validate a segment's framing and wrap it in a lazy view (the reader).

    Checks magic, version, length and CRC — every single-bit flip and
    every truncation fails here — and decodes nothing else: the view
    inflates and parses on demand.  Raises
    :class:`~repro.errors.SegmentCorruption` and nothing else: a
    hydration falls back to its live backing replica, a failover counts
    the partition lost.
    """
    try:
        magic, version, acg_id, body_len, crc = _HEADER.unpack_from(data)
    except struct.error as exc:
        raise SegmentCorruption(f"truncated segment header: {exc}") from None
    if magic != SEGMENT_MAGIC:
        raise SegmentCorruption("not a segment (bad magic)")
    if version != _VERSION:
        raise SegmentCorruption(f"unsupported segment version {version}")
    if (len(data) != _HEADER.size + body_len
            or zlib.crc32(data[_HEADER.size:],
                          zlib.crc32(data[:_CRC_AT])) != crc):
        raise SegmentCorruption("segment failed CRC validation (torn read?)")
    return SegmentView(data, acg_id)


def load_segment(data: bytes) -> "SegmentView":
    """Hydrate one frozen segment: :func:`decode_segment` under the cold
    tier's own name (see :func:`dump_segment`)."""
    return decode_segment(data)


# -- the inflated body -----------------------------------------------------------


def _load_exact(raw: bytes, start: int, end: int) -> Any:
    """The one ``dump_value`` record filling ``raw[start:end]`` exactly."""
    try:
        value, stop = load_value(raw, start)
    except (struct.error, ValueError) as exc:
        raise SegmentCorruption(f"undecodable segment record: {exc}") from None
    if stop != end:
        raise SegmentCorruption("segment record length mismatch")
    return value


class _Body:
    """A segment's inflated body, addressed by section, row and term.

    Everything here is derived from CRC-validated bytes, so a failure
    means a writer wrote an inconsistent segment; each is reported as
    :class:`~repro.errors.SegmentCorruption` where it is found.
    """

    def __init__(self, data: bytes) -> None:
        try:
            raw = self.raw = zlib.decompress(data[_HEADER.size:])
            bounds = []
            offset = 0
            for _ in range(_PENDING + 1):
                if len(bounds) == _PENDING and offset == len(raw):
                    break  # no pending tail
                (n,) = struct.unpack_from("<I", raw, offset)
                bounds.append((offset + 4, offset + 4 + n))
                offset += 4 + n
            start, self._rows_end = bounds[_ROWS]
            self._schemas, start = load_value(raw, start)
            (n,) = struct.unpack_from("<I", raw, start)
            self.ids: Tuple[int, ...] = struct.unpack_from(
                f"<{n}q", raw, start + 4)
            self._row_offsets = (0, *accumulate(struct.unpack_from(
                f"<{n}I", raw, start + 4 + 8 * n)))
            self._rows_base = start + 4 + 12 * n
            start, self._terms_end = bounds[_POSTINGS]
            (n,) = struct.unpack_from("<I", raw, start)
            self._term_offsets = (0, *accumulate(struct.unpack_from(
                f"<{n}I", raw, start + 4)))
            self._terms_base = start + 4 + 4 * n
        except (zlib.error, struct.error, ValueError) as exc:
            raise SegmentCorruption(f"unreadable segment body: {exc}") from None
        if offset != len(raw):
            raise SegmentCorruption("segment sections do not fill the body")
        self._bounds = bounds

    def section(self, index: int) -> Any:
        """One of the single-record sections, decoded."""
        return _load_exact(self.raw, *self._bounds[index])

    @staticmethod
    def _entry(offsets: Tuple[int, ...], i: int, base: int,
               end: int) -> Tuple[int, int]:
        lo, hi = base + offsets[i], base + offsets[i + 1]
        if not base <= lo <= hi <= end:
            raise SegmentCorruption("segment table offset out of range")
        return lo, hi

    def row(self, i: int) -> Tuple[Dict[str, Any], Optional[str]]:
        """Row ``i`` of the id column: (attributes without path, path)."""
        blob = _load_exact(self.raw, *self._entry(
            self._row_offsets, i, self._rows_base, self._rows_end))
        try:
            names = self._schemas[blob[0]]
            if blob[0] >= 0 and len(names) == len(blob) - 2:
                return dict(zip(names, blob[2:])), blob[1]
        except (TypeError, IndexError):
            pass
        raise SegmentCorruption("malformed segment row")

    def _term(self, i: int) -> Tuple[str, int, int]:
        lo, hi = self._entry(self._term_offsets, i, self._terms_base,
                             self._terms_end)
        try:
            term, at = load_value(self.raw, lo)
        except (struct.error, ValueError) as exc:
            raise SegmentCorruption(f"undecodable segment term: {exc}") from None
        if not isinstance(term, str) or at > hi:
            raise SegmentCorruption("malformed segment term")
        return term, at, hi

    def posting(self, term: str) -> PostingList:
        """The term's posting list (empty when the segment lacks it):
        a binary search over the sorted entries, one list decoded."""
        count = len(self._term_offsets) - 1
        i, above = 0, count
        while i < above:
            mid = (i + above) // 2
            if self._term(mid)[0] < term:
                i = mid + 1
            else:
                above = mid
        if i == count:
            return PostingList()
        found, at, hi = self._term(i)
        if found != term:
            return PostingList()
        try:
            return PostingList.from_chunks(_load_exact(self.raw, at, hi))
        except (TypeError, ValueError):
            raise SegmentCorruption("malformed segment posting list") from None


# -- the lazy view ---------------------------------------------------------------


class SegmentView:
    """One segment's validated bytes and a lazy reader over them.

    Searches run the same exact semantics as the live path: candidates
    come from the segment's bitmap postings (keyword conjuncts) or a
    full scan, then every candidate passes the full predicate as a
    residual filter — so the matching set is identical to what the live
    B+tree/hash indexes would produce for the same data.  Only the
    posting lists and rows a search reads are decoded; what has been
    decoded stays memoised until :meth:`shed`.  An inconsistency found
    while decoding raises :class:`~repro.errors.SegmentCorruption`.
    """

    def __init__(self, data: bytes, acg_id: int) -> None:
        self.data = data
        self.acg_id = acg_id
        # Cumulative decode work (never reset: the node charges and
        # counts the difference a search makes).
        self.rows_decoded = 0
        self.postings_decoded = 0
        self._count: Optional[int] = None
        self._body: Optional[_Body] = None
        self._store = AttributeStore()
        self._postings: Dict[str, PostingList] = {}
        self._postings_bytes = 0

    # -- decoded state and its price ---------------------------------------------

    def shed(self) -> int:
        """Drop everything decoded, keep the bytes; returns bytes freed."""
        freed = self.decoded_bytes()
        if freed:
            self._body = None
            self._store = AttributeStore()
            self._postings = {}
            self._postings_bytes = 0
        return freed

    def decoded_bytes(self) -> int:
        """RAM held beyond the segment bytes: the inflated body, decoded
        rows (the live store's own estimator) and decoded postings."""
        inflated = len(self._body.raw) if self._body is not None else 0
        return inflated + self._store.estimated_bytes() + self._postings_bytes

    def resident_bytes(self) -> int:
        """RAM footprint right now — the quantity the segment cache
        budgets: the segment bytes plus whatever is decoded."""
        return 256 + len(self.data) + self.decoded_bytes()

    def _open(self) -> _Body:
        if self._body is None:
            self._body = _Body(self.data)
            self._count = len(self._body.ids)
        return self._body

    # -- what installers read ----------------------------------------------------

    def file_count(self) -> int:
        if self._count is None:
            self._open()
        return self._count

    __len__ = file_count

    @property
    def specs(self) -> List[IndexSpec]:
        return [IndexSpec(name, IndexKind(kind), tuple(attrs))
                for name, kind, attrs in self._open().section(_SPECS)]

    @property
    def acg_records(self) -> List[Any]:
        return list(self._open().section(_ACG))

    @property
    def snapshot(self) -> SummarySnapshot:
        """The pruning summary the segment was frozen with."""
        body = self._open()
        _, node_name, incarnation, applied, file_count = body.section(_META)
        attrs_seen, zones, bloom_bytes, bloom_m, bloom_k = \
            body.section(_SUMMARY)
        return SummarySnapshot(
            acg_id=self.acg_id,
            watermark=(node_name, incarnation, applied),
            dirty=False,
            file_count=file_count,
            attrs_seen=frozenset(attrs_seen),
            zones=tuple(tuple(z) for z in zones),
            bloom_bits=int.from_bytes(bloom_bytes, "little"),
            bloom_m=bloom_m,
            bloom_k=bloom_k,
        )

    def rows(self) -> Iterator[Tuple[int, Dict[str, Any], Optional[str]]]:
        """Every ``(file id, attributes without path, path)``, ascending
        — decoded straight from the body, nothing memoised."""
        body = self._open()
        for i, file_id in enumerate(body.ids):
            yield (file_id, *body.row(i))

    @property
    def pending(self) -> List[IndexUpdate]:
        """The checkpoint's uncommitted tail, in arrival order (empty
        for every other segment)."""
        body = self._open()
        if len(body._bounds) <= _PENDING:
            return []
        try:
            return [IndexUpdate(file_id, UpdateOp(op), attrs, path)
                    for file_id, op, path, attrs in body.section(_PENDING)]
        except (TypeError, ValueError) as exc:
            raise SegmentCorruption(
                f"undecodable pending tail: {exc}") from None

    # -- what searches read ------------------------------------------------------

    def _posting(self, term: str) -> PostingList:
        posting = self._postings.get(term)
        if posting is None:
            posting = self._postings[term] = self._open().posting(term)
            self._postings_bytes += posting.estimated_bytes()
            self.postings_decoded += 1
        return posting

    def _memoise_row(self, body: _Body, i: int) -> None:
        attrs, path = body.row(i)
        self._store.put(body.ids[i], attrs, path)
        self.rows_decoded += 1

    def _has_row(self, file_id: int) -> bool:
        """Whether the segment holds the file — its row memoised if so."""
        if file_id not in self._store:
            body = self._open()
            i = bisect_left(body.ids, file_id)
            if i == len(body.ids) or body.ids[i] != file_id:
                return False
            self._memoise_row(body, i)
        return True

    def attrs(self, file_id: int) -> Dict[str, Any]:
        """The file's attribute dict, path included ({} if unknown)."""
        return self._store.attrs(file_id) if self._has_row(file_id) else {}

    def paths(self, file_ids: Iterable[int]) -> List[str]:
        """The paths of the given files, sorted — rows decoded if needed."""
        return self._store.paths(
            [file_id for file_id in file_ids if self._has_row(file_id)])

    def search(self, predicate: Union[Predicate, PreparedQuery],
               now: float) -> Set[int]:
        """Exact matching file ids (same answer as the live path)."""
        query = prepare(predicate)
        terms = query.keyword_terms
        match = query.matcher(now)
        try:
            if terms:
                candidates = intersect_all(
                    [self._posting(term) for term in terms])
            else:
                if len(self._store) != self._count:
                    body = self._open()
                    for i, file_id in enumerate(body.ids):
                        if file_id not in self._store:
                            self._memoise_row(body, i)
                candidates = self._store.file_ids()
            attrs, keywords = self._store.attrs, self._store.keywords
            result: Set[int] = set()
            for file_id in candidates:
                if not self._has_row(file_id):
                    raise SegmentCorruption(
                        f"segment posting names file {file_id}, no such row")
                if match(attrs(file_id), keywords(file_id)):
                    result.add(file_id)
            return result
        finally:
            # The inflated body is one search's scratch space: inflating
            # again costs microseconds, holding it more than the rows do.
            self._body = None


# -- the node-local segment cache ------------------------------------------------


@dataclass
class SegmentCacheStats:
    """Counters a :class:`SegmentCache` accumulates."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rejected: int = 0
    sheds: int = 0

    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class SegmentCache:
    """Byte-budgeted LRU of segment views, with admission.

    A view is its validated segment bytes plus whatever searches have
    decoded from them.  Under pressure the cache **sheds decoded state
    LRU-first before it evicts any bytes**: re-decoding costs host
    microseconds, re-fetching a cold-tier round trip, so the order is
    fixed by cost.  Nothing is booked by hand — the total is the sum of
    what the views hold, re-measured by :meth:`recharge`.

    Admission control keeps one oversized segment from wiping the whole
    cache: a view bigger than ``admit_fraction`` of the budget is served
    once and not retained (``rejected``), the classic scan-resistance
    guard.  Sits alongside :class:`repro.cluster.cache.IndexCache` in
    the node's memory budget — that one buffers uncommitted *writes*,
    this one caches *cold reads*.
    """

    def __init__(self, budget_bytes: int, admit_fraction: float = 0.25) -> None:
        if budget_bytes <= 0:
            raise ValueError(f"budget must be positive: {budget_bytes}")
        self.budget_bytes = budget_bytes
        self.admit_fraction = admit_fraction
        self.stats = SegmentCacheStats()
        self._views: "OrderedDict[str, SegmentView]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, key: str) -> bool:
        return key in self._views

    def estimated_bytes(self) -> int:
        """Bytes currently resident: segment bytes plus decoded state."""
        return sum(view.resident_bytes() for view in self._views.values())

    def decoded_bytes(self) -> int:
        """The decoded-state share of :meth:`estimated_bytes`."""
        return sum(view.decoded_bytes() for view in self._views.values())

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
        """Admit a freshly fetched view; returns whether it was kept."""
        if view.resident_bytes() > self.budget_bytes * self.admit_fraction:
            self.stats.rejected += 1
            return False
        self._views.pop(key, None)
        self._views[key] = view
        self.recharge()
        return True

    def recharge(self) -> None:
        """Re-measure the views and get back under budget: shed decoded
        state LRU-first, and only when none is left evict bytes
        LRU-first.  Runs after anything that grows a view or shrinks the
        budget — :meth:`put`, :meth:`resize`, and the caller's search."""
        over = self.estimated_bytes() - self.budget_bytes
        for view in self._views.values():
            if over <= 0:
                return
            freed = view.shed()
            if freed:
                self.stats.sheds += 1
                over -= freed
        while over > 0 and self._views:
            _key, evicted = self._views.popitem(last=False)
            over -= evicted.resident_bytes()
            self.stats.evictions += 1

    def invalidate(self, key: str) -> None:
        """Drop one view (thaw / drop-partition path)."""
        self._views.pop(key, None)

    def resize(self, budget_bytes: int) -> None:
        """Change the byte budget, shedding then evicting if shrinking."""
        if budget_bytes <= 0:
            raise ValueError(f"budget must be positive: {budget_bytes}")
        self.budget_bytes = budget_bytes
        self.recharge()

    def clear(self) -> None:
        """Drop everything (crash / cold-start measurement)."""
        self._views.clear()


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
