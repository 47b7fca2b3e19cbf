"""Typed messages exchanged between Propeller components."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple


class UpdateOp(enum.Enum):
    """Whether an update (re)indexes or forgets a file."""
    UPSERT = "upsert"
    DELETE = "delete"


@dataclass(frozen=True)
class IndexUpdate:
    """One file-indexing request: (re)index or forget one file.

    ``attrs`` carries whatever fields the caller wants indexed — inode
    metadata and/or user-defined attributes; ``path`` feeds the keyword
    index.  Serialized size is estimated for network/WAL cost accounting.
    """

    file_id: int
    op: UpdateOp = UpdateOp.UPSERT
    attrs: Tuple[Tuple[str, Any], ...] = ()
    path: Optional[str] = None

    @staticmethod
    def upsert(file_id: int, attrs: Dict[str, Any], path: Optional[str] = None) -> "IndexUpdate":
        """Build an upsert update from an attribute dict."""
        return IndexUpdate(file_id=file_id, op=UpdateOp.UPSERT,
                           attrs=tuple(sorted(attrs.items())), path=path)

    @staticmethod
    def delete(file_id: int) -> "IndexUpdate":
        """Build a delete update for one file id."""
        return IndexUpdate(file_id=file_id, op=UpdateOp.DELETE)

    @property
    def attr_dict(self) -> Dict[str, Any]:
        """The attributes as a plain dict."""
        return dict(self.attrs)

    def wire_bytes(self) -> int:
        """Approximate serialized size for cost models."""
        return 24 + 16 * len(self.attrs) + (len(self.path) if self.path else 0)


@dataclass(frozen=True)
class UpdateBatch:
    """One partition's share of an update envelope: one or more updates,
    one WAL frame, one group commit, one replication record.

    The client coalesces per-file updates (flushing on size/age
    thresholds), groups them per partition, and ships every batch bound
    for one Index Node in a single ``index_update`` RPC (the node's
    *envelope*).  A batch is sequence-shaped, so the Index Node — and
    every forwarding path between client and primary — treats it like
    any ``Sequence[IndexUpdate]``.

    ``epoch`` is the routing epoch of the cached route table the sender
    routed by.  Every batch carries one: a node that does not own
    ``acg_id``, or split it since ``epoch``, NACKs with
    :class:`~repro.errors.StaleRoute`; it never creates the partition.

    ``wire_bytes`` amortizes the per-request framing across the batch:
    one 24-byte header plus the per-update payloads minus their
    now-shared routing preamble.
    """

    acg_id: int
    updates: Tuple[IndexUpdate, ...]
    epoch: int

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self):
        return iter(self.updates)

    def __getitem__(self, i):
        return self.updates[i]

    def wire_bytes(self) -> int:
        """Amortized serialized size: shared batch header, packed updates."""
        per_update = sum(u.wire_bytes() for u in self.updates)
        if len(self.updates) == 1:
            # Nothing is shared: the lone update's own framing is the
            # request header.
            return per_update
        # Each coalesced update sheds 16 bytes of per-request routing
        # preamble (acg id, epoch, auth) that now rides on the batch.
        return 24 + per_update - 16 * (len(self.updates) - 1)


# What each part after the first adds to a multi-part request: its
# partition id and length.  A one-part request is exactly its part.
_PART_HEADER_BYTES = 8


def envelope_wire_bytes(part_bytes: Sequence[int]) -> int:
    """Serialized size of one node envelope from the sizes of its
    per-partition parts — never less than their sum, so merging RPCs
    saves messages, not bytes."""
    return sum(part_bytes) + _PART_HEADER_BYTES * max(0, len(part_bytes) - 1)


class UpdateAck(int):
    """An Index Node's ack for one ``index_update`` batch.

    Subclasses ``int`` (the accepted-update count) so call sites that
    only need the count treat the ack as one; replication-aware clients
    additionally read the partition's committed replication sequence
    (``seq``) to maintain their read-your-writes watermark for hedged
    follower reads.  ``seq == 0`` means the node is not running
    replication for the partition.
    """

    acg_id: int
    seq: int
    repl_epoch: int

    def __new__(cls, n: int, acg_id: int = -1, seq: int = 0,
                repl_epoch: int = 0) -> "UpdateAck":
        ack = super().__new__(cls, n)
        ack.acg_id = acg_id
        ack.seq = seq
        ack.repl_epoch = repl_epoch
        return ack


@dataclass(frozen=True)
class RouteEntry:
    """Master Node's answer for one file: which ACG on which Index Node."""

    file_id: int
    acg_id: int
    node: str


@dataclass(frozen=True)
class RouteTableEntry:
    """One partition's place in a versioned route table.

    ``node`` is None for a partition that currently has no owner (lost in
    a failover and not yet re-placed).  ``size`` is the Master's view of
    the partition's file count; ``size == -1`` marks a partition that was
    *dropped* (merged away) so delta consumers can forget it.
    """

    acg_id: int
    node: Optional[str]
    size: int
    # Follower replicas (RF > 1): alternate nodes a client may hedge a
    # search leg to.  Empty when replication is off — the default keeps
    # the wire format compatible with pre-replication route tables.
    replicas: Tuple[str, ...] = ()


@dataclass(frozen=True)
class RouteTable:
    """A versioned snapshot (or delta) of the cluster's routing state.

    The Master serves this instead of per-batch routing: ``epoch`` is the
    routing epoch the table is current as of, ``full`` says whether
    ``entries`` describe the whole cluster or only the partitions that
    changed since the client's epoch, and ``fresh`` short-circuits the
    common case — the client was already up to date and ``entries`` is
    empty.  ``cluster_target`` ships the placement policy's open-partition
    bound so clients can mirror the Master's placement rule locally.
    """

    epoch: int
    full: bool
    cluster_target: int
    entries: Tuple[RouteTableEntry, ...] = ()
    fresh: bool = False


# A partition's commit watermark: (node, replica incarnation, applied
# updates) — see :meth:`repro.cluster.index_node.IndexNode.watermark`.
Watermark = Tuple[str, int, int]


@dataclass
class SearchResult:
    """One Index Node's (partial) answer to a search."""

    node: str
    acg_id: int
    file_ids: FrozenSet[int] = frozenset()
    paths: Tuple[str, ...] = ()


@dataclass
class SearchReply:
    """An Index Node's answer to an epoch-stamped search leg.

    ``results`` covers the ACGs the node owns; ``not_owned`` names the
    requested ACGs it does *not* own (the search-path equivalent of a
    stale-route NACK — the client refreshes its route table and retries
    just those partitions); ``epoch`` is the node's latest known routing
    epoch, letting a behind-the-times client detect that partitions it
    has never heard of may exist.
    """

    node: str
    epoch: int
    results: List[SearchResult] = field(default_factory=list)
    not_owned: Tuple[int, ...] = ()
    # ACGs the client asked to skip whose skip the node *validated*
    # (summary watermark exact, no pending updates): served-with-empty-
    # answer, proven by the node.  Unvalidated skips are searched anyway
    # and come back in ``results`` instead.
    pruned_ok: Tuple[int, ...] = ()
    # (acg_id, watermark) for each answer in ``results`` that is exact
    # at that watermark: taken after the leg's commit-on-search, none
    # for a time-dependent predicate.  A client may hold the answer and
    # later ask to skip the partition at that watermark.
    stamps: Tuple[Tuple[int, Watermark], ...] = ()
    # The envelope this leg carried (``updates=``): one outcome per
    # batch, in order — exactly what ``index_update`` would have
    # answered.  Empty when the search carried nothing.
    update_outcomes: Tuple[Any, ...] = ()


@dataclass
class ReplicaSearchReply:
    """A follower's answer to a hedged search leg.

    ``results`` covers the requested ACGs the node follows; ``missing``
    names requested ACGs it holds no follower replica for (the hedge is
    unusable for those).  ``applied`` reports the follower's applied
    replication sequence per answered ACG, and ``lagging`` the subset
    that sat *below* the client's read watermark — those answers are
    only usable under the client's opt-in partial-results deadline.
    """

    node: str
    epoch: int
    results: List[SearchResult] = field(default_factory=list)
    applied: Tuple[Tuple[int, int], ...] = ()
    lagging: Tuple[int, ...] = ()
    missing: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Heartbeat:
    """Index Node → Master Node liveness + ACG status report."""

    node: str
    timestamp: float
    acg_sizes: Tuple[Tuple[int, int], ...] = ()   # (acg_id, file count)
    free_bytes: int = 0
    # Partition summary snapshots for the ACGs this node answers for
    # (repro.query.summary.SummarySnapshot) — piggybacked so summary
    # distribution costs zero extra RPCs.
    summaries: Tuple[Any, ...] = ()
    # Replication status records, piggybacked the same way (RF > 1 only):
    #   ("p", acg_id, repl_epoch, last_seq, ((follower, acked_seq), ...))
    # for partitions this node primaries, and
    #   ("f", acg_id, repl_epoch, applied_seq)
    # for partitions it follows.
    replication: Tuple[Any, ...] = ()


@dataclass(frozen=True)
class SummaryTable:
    """A versioned dump of the Master's partition-summary cache.

    Mirrors :class:`RouteTable`'s fresh/full protocol: ``version`` is a
    Master-local counter bumped whenever any stored summary changes;
    ``fresh`` short-circuits the already-up-to-date case with an empty
    payload.  Deleted partitions simply stop appearing — clients replace
    their cache wholesale on a non-fresh response, so no tombstones are
    needed.
    """

    version: int
    entries: Tuple[Any, ...] = ()   # SummarySnapshot tuple
    fresh: bool = False
