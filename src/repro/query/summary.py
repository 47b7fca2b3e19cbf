"""Per-partition search summaries and the pruning satisfiability check.

Each ACG replica maintains a :class:`PartitionSummary` — a keyword Bloom
filter plus min/max *zone maps* over the numeric attributes its files
carry — updated incrementally as updates commit.  A frozen
:class:`SummarySnapshot` of it (stamped with the replica's commit
watermark) rides on heartbeats to the Master and from there to clients,
which call :func:`summary_may_match` to decide whether a search leg to
that partition can be skipped.

Safety contract — **false negatives must be impossible**:

* Every structure here is *over-approximate*.  Observation only widens
  (bits are set, zone bounds grow, attribute names accumulate); deletes
  leave the summary wide until an explicit deterministic rebuild.  A
  too-wide summary can only cost a wasted search leg.
* ``summary_may_match`` returns False only when **no file the summary
  covers can possibly satisfy the predicate** under the evaluation
  semantics of :func:`repro.query.ast.matches`.  Anything it cannot
  reason about precisely (negation, string comparisons, ``!=``) fails
  open (returns True → the leg is searched).
* Time-relative bounds get a directional rule.  The client decides at
  virtual time *t0* but the node evaluates at some *t1 ≥ t0*.  A
  resolved ``attr > now-age`` bound (from ``mtime < 1 day``) only
  *shrinks* its allowed set as the clock advances, so pruning on the
  summary's max is sound.  Resolved ``<``/``<=``/``==`` bounds from a
  RelativeAge *grow* or move their allowed set with time and must fail
  open.
* Freshness is enforced elsewhere: the client sends the snapshot's
  watermark with the fan-out, and the node re-validates (exact watermark
  match + no pending uncommitted updates) before honouring a skip — a
  stale snapshot therefore fails open at the node, never silently drops
  results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (Any, Dict, FrozenSet, Iterable, List, Mapping, Tuple,
                    Union)

from repro.indexstructures.bloom import BloomFilter, probe_mask
from repro.query.ast import Predicate, is_numeric
from repro.query.prepared import PreparedQuery, prepare

# A widened summary is rebuilt (shrunk back to ground truth) only after
# deletes have accumulated past max(_REBUILD_MIN_DELETES, live file
# count): rebuilds are deterministic but cost a full store sweep, so they
# must stay rare relative to the deletes that motivate them.
_REBUILD_MIN_DELETES = 32


class PartitionSummary:
    """Live, incrementally-widened summary of one ACG replica's files."""

    __slots__ = ("bloom", "zones", "attrs_seen", "deletes_since_rebuild")

    def __init__(self) -> None:
        self.bloom = BloomFilter()
        # attr name -> [lo, hi] over *numeric* values only (bool counts
        # as numeric; strings are tracked just by name in attrs_seen).
        self.zones: Dict[str, list] = {}
        self.attrs_seen: set = set()
        self.deletes_since_rebuild = 0

    def observe(self, attrs: Mapping[str, Any],
                keywords: Iterable[str]) -> None:
        """Widen the summary to cover one (new or refreshed) file."""
        self.observe_batch(((attrs, keywords),))

    def observe_batch(self, entries: Iterable[Tuple[Mapping[str, Any],
                                                    Iterable[str]]]) -> None:
        """One widening pass for a whole group commit (widening is
        commutative and monotone): the files of a partition share most of
        their path tokens, so the batch's keywords go to the Bloom filter
        together — one mask, each distinct token hashed once."""
        batch_keywords: List[str] = []
        for attrs, keywords in entries:
            batch_keywords.extend(keywords)
            for name, value in attrs.items():
                self.attrs_seen.add(name)
                if is_numeric(value):
                    zone = self.zones.get(name)
                    if zone is None:
                        self.zones[name] = [value, value]
                    else:
                        if value < zone[0]:
                            zone[0] = value
                        if value > zone[1]:
                            zone[1] = value
        self.bloom.add_all(batch_keywords)

    def note_delete(self) -> None:
        self.deletes_since_rebuild += 1

    def needs_rebuild(self, live_files: int) -> bool:
        return self.deletes_since_rebuild > max(_REBUILD_MIN_DELETES,
                                                live_files)

    def rebuild(self, store) -> None:
        """Deterministically reconstruct from the attribute store,
        shedding the slack accumulated by deletes."""
        self.bloom = BloomFilter()
        self.zones = {}
        self.attrs_seen = set()
        self.deletes_since_rebuild = 0
        self.observe_batch((store.attrs(file_id), store.keywords(file_id))
                           for file_id in store.file_ids())

    def snapshot(self, acg_id: int, watermark: Tuple[str, int, int],
                 dirty: bool, file_count: int) -> "SummarySnapshot":
        return SummarySnapshot(
            acg_id=acg_id,
            watermark=watermark,
            dirty=dirty,
            file_count=file_count,
            attrs_seen=frozenset(self.attrs_seen),
            zones=tuple(sorted((name, zone[0], zone[1])
                               for name, zone in self.zones.items())),
            bloom_bits=self.bloom.bits,
            bloom_m=self.bloom.m_bits,
            bloom_k=self.bloom.k,
        )


@dataclass(frozen=True)
class SummarySnapshot:
    """Immutable wire form of a partition summary.

    ``watermark`` is ``(node, replica incarnation, applied count)`` — an
    identity-scoped commit version: a recreated replica gets a fresh
    incarnation, so a snapshot of a *previous life* of the same ACG can
    never validate against the new one.  ``dirty`` marks snapshots taken
    while uncommitted updates were pending; clients must not prune on
    them.
    """

    acg_id: int
    watermark: Tuple[str, int, int]
    dirty: bool
    file_count: int
    attrs_seen: FrozenSet[str]
    zones: Tuple[Tuple[str, float, float], ...]
    bloom_bits: int
    bloom_m: int
    bloom_k: int

    @cached_property
    def zone_map(self) -> Dict[str, Tuple[float, float]]:
        """``zones`` by attribute name (derived; not part of the wire
        form or of equality)."""
        return {name: (lo, hi) for name, lo, hi in self.zones}

    def keyword_may_match(self, term: str) -> bool:
        mask = probe_mask(term, self.bloom_m, self.bloom_k)
        return self.bloom_bits & mask == mask


def summary_may_match(snapshot: SummarySnapshot,
                      predicate: Union[Predicate, PreparedQuery],
                      now: float) -> bool:
    """Could *any* file covered by this snapshot satisfy the predicate?

    False is a proof of emptiness (the leg can be skipped, subject to
    node-side watermark validation); True just means "cannot rule it
    out".  The rules above are compiled once per query
    (:meth:`~repro.query.prepared.PreparedQuery.summary_check`); a
    caller with many snapshots to test prepares the predicate first.
    """
    if snapshot.file_count == 0:
        return False  # an empty committed partition matches nothing
    return prepare(predicate).summary_check(now)(snapshot)
