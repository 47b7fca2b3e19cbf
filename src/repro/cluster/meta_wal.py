"""Durable Master metadata log: append, checkpoint, deterministic replay.

The Master's partition map, routing epoch, replica-set generations,
membership, and in-flight migration/failover intents used to live only
in process memory — a Master crash reset every epoch and forgot every
durable intent.  :class:`MetaWal` gives the control plane the same
discipline the Index Node WAL gives the data plane: every mutation is
appended as one CRC-framed record *before* it takes effect anywhere
else, a periodic checkpoint folds the log into a snapshot image, and
crash recovery replays snapshot + surviving records into a
:class:`MetaState` that rebuilds byte-identical Master state.  Epochs
and terms therefore continue monotonically across a restart — client
route caches stay valid, and no refresh storm follows recovery.

:meth:`MetaState.apply` is not only the replay path: it is the *only*
code that changes the Master's durable state.  The acting Master, its
standby and crash recovery all fold the same records through it, so
"replay rebuilds the same state" holds by construction.

Records are term-prefixed tuples ``(term, kind, *payload)``.  The log
fences stale terms on append (:class:`~repro.errors.StaleMasterTerm`):
once a record at term *T* is durable, nothing below *T* may append —
the second authority, alongside Index Node fencing, that keeps a
deposed-but-alive Master from mutating state it no longer owns.

The warm standby tails this log: ``entries_since(seq)`` hands it the
decoded records past its applied watermark (or ``None`` when a
checkpoint truncated past the watermark, telling it to re-bootstrap
from the snapshot image via :meth:`MetaWal.install`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.cluster.wal import WriteAheadLog
from repro.core.partition_manager import PartitionManager
from repro.errors import SimulationError, StaleMasterTerm
from repro.indexstructures.base import IndexKind
from repro.query.planner import IndexSpec
from repro.replication.replica_set import ReplicaSetManager

# Snapshot image format version (first payload field of the image tuple).
_SNAP_VERSION = 1


class MetaState:
    """The Master's durable metadata, changed only by :meth:`apply`.

    One object serves every holder of the meta-log: the acting Master
    (append a record, apply it), the warm standby (apply streamed
    records as they arrive) and crash recovery (replay the on-log bytes).
    Everything here is *durable* state; soft state — heartbeats, reported
    sizes, partition summaries, the route-delta log, replica watermarks —
    lives on the Master (or as soft fields beside the durable ones, like
    a replica set's watermarks) and is re-learned from the next heartbeat
    round.  The full record vocabulary is tabulated in
    ``docs/fault-tolerance.md`` ("Meta-log records").
    """

    def __init__(self) -> None:
        self.term = 1
        self.term_owner = ""
        # Partition map, file map, routing epoch and the id counter.
        self.partitions = PartitionManager()
        self.members: List[str] = []
        self.specs: Dict[str, IndexSpec] = {}
        # Repl epoch and followers per partition (RF > 1 only; its
        # watermarks are soft and never touched here).
        self.replica_sets = ReplicaSetManager()
        # acg id -> force flag (pending follower-sync intents)
        self.syncs: Dict[int, bool] = {}
        # (source node, acg id) -> (target node, moved files)
        self.finishes: Dict[Tuple[str, int], Tuple[str, int]] = {}
        self.cancels: Set[Tuple[str, int]] = set()

    # -- record application ---------------------------------------------------

    def apply(self, record: Tuple[Any, ...]) -> None:
        """Fold one ``(term, kind, *payload)`` record into the state.

        An unknown kind raises :class:`SimulationError`: this is the
        Master's write path, so a kind nobody interprets would be a
        mutation that silently never happens."""
        kind = record[1]
        p = record[2:]
        if kind == "term":
            if p[0] >= self.term:
                self.term = p[0]
                self.term_owner = p[1]
        elif kind == "member":
            if p[0] not in self.members:
                self.members.append(p[0])
        elif kind == "unmember":
            if p[0] in self.members:
                self.members.remove(p[0])
        elif kind == "index":
            self.specs[p[0]] = IndexSpec(name=p[0], kind=IndexKind(p[1]),
                                         attrs=tuple(p[2]))
        elif kind == "epoch":
            self.partitions.bump_epoch(p[0])
        elif kind == "newpart":
            if p[0] != self.partitions.next_id:
                raise SimulationError(
                    f"meta record newpart {p[0]} out of order "
                    f"(next id {self.partitions.next_id})")
            self.partitions.new_partition(node=p[1])
        elif kind == "file":
            self.partitions.add_file(p[1], p[0])
        elif kind == "unfile":
            self.partitions.remove_file(p[0])
        elif kind == "place":
            self.partitions.assign_node(p[0], p[1])
        elif kind == "droppart":
            self.partitions.drop_partition(p[0])
        elif kind == "repl":
            self.replica_sets.install(p[0], p[1], tuple(p[2]))
        elif kind == "repldrop":
            self.replica_sets.drop(p[0])
        elif kind == "sync":
            self.syncs[p[0]] = bool(p[1])
        elif kind == "syncclear":
            self.syncs.pop(p[0], None)
        elif kind == "finish":
            self.finishes[(p[0], p[1])] = (p[2], p[3])
        elif kind == "finishclear":
            self.finishes.pop((p[0], p[1]), None)
        elif kind == "cancel":
            self.cancels.add((p[0], p[1]))
        elif kind == "cancelclear":
            self.cancels.discard((p[0], p[1]))
        else:
            raise SimulationError(f"unknown meta record kind {kind!r}")

    # -- snapshot image (nested tuples: WAL-serializable primitives) ----------

    def snapshot(self) -> Tuple[Any, ...]:
        """Encode the state as one WAL-serializable nested tuple."""
        sets = self.replica_sets
        return (
            _SNAP_VERSION,
            self.term,
            self.term_owner,
            self.partitions.epoch,
            tuple(self.members),
            tuple((name, spec.kind.value, tuple(spec.attrs))
                  for name, spec in self.specs.items()),
            tuple(self.partitions.to_records()),
            self.partitions.next_id,
            tuple((acg, sets.get(acg).repl_epoch, sets.get(acg).followers)
                  for acg in sets.partitions()),
            tuple((acg, int(force)) for acg, force in self.syncs.items()),
            tuple((src, acg, tgt, moved)
                  for (src, acg), (tgt, moved) in self.finishes.items()),
            tuple(sorted(self.cancels)),
        )

    @classmethod
    def from_snapshot(cls, image: Tuple[Any, ...]) -> "MetaState":
        """Decode a :meth:`snapshot` image."""
        state = cls()
        (_, state.term, state.term_owner, epoch, members, specs,
         partitions, next_id, repl, syncs, finishes, cancels) = image
        state.partitions = PartitionManager.from_records(
            partitions, epoch=epoch, next_id=next_id)
        state.members = list(members)
        for name, kind, attrs in specs:
            state.specs[name] = IndexSpec(name=name, kind=IndexKind(kind),
                                          attrs=tuple(attrs))
        for acg, repl_epoch, followers in repl:
            state.replica_sets.install(acg, repl_epoch, tuple(followers))
        state.syncs = {acg: bool(force) for acg, force in syncs}
        state.finishes = {(src, acg): (tgt, moved)
                          for src, acg, tgt, moved in finishes}
        state.cancels = {(src, acg) for src, acg in cancels}
        return state


class MetaWal:
    """Append-only, term-fenced, torn-tail-tolerant Master metadata log.

    Wraps :class:`WriteAheadLog` with no attached disk: the simulated
    durability cost of Master metadata already rides the shared-storage
    checkpoint charge (``MasterNode.checkpoint``), which this class must
    not double-count.  ``seq`` is a monotonically increasing record
    count that survives checkpoints (``base`` marks how much of it the
    snapshot image covers) so standby watermarks stay comparable across
    truncations.
    """

    def __init__(self) -> None:
        self.log = WriteAheadLog(disk=None)
        self.snapshot: Optional[Tuple[Any, ...]] = None
        self.base = 0  # records folded into the snapshot image
        self.seq = 0  # records ever appended (never resets)
        self.entries: List[Tuple[Any, ...]] = []  # decoded, since base
        self.highest_term = 0
        self.checkpoints_taken = 0
        self.replay_dropped_total = 0
        self.replay_dropped_bytes_total = 0

    def append(self, term: int, record: Tuple[Any, ...]) -> int:
        """Durably append one ``(kind, *payload)`` record at ``term``.

        Raises :class:`StaleMasterTerm` when ``term`` is below the
        highest term already recorded — the log-level fence that stops a
        deposed Master's mutations at the durability boundary."""
        if term < self.highest_term:
            raise StaleMasterTerm(
                f"meta-wal append at term {term} behind recorded term "
                f"{self.highest_term}", term=self.highest_term)
        self.highest_term = term
        framed = (term,) + tuple(record)
        self.log.append(framed)
        self.entries.append(framed)
        self.seq += 1
        return self.seq

    def entries_since(self, since_seq: int) -> Optional[List[Tuple[Any, ...]]]:
        """Decoded records with sequence > ``since_seq``.

        Returns ``None`` when a checkpoint truncated past ``since_seq``:
        the tail alone can no longer bring the caller current, and it
        must re-bootstrap from the snapshot image."""
        if since_seq < self.base:
            return None
        return self.entries[since_seq - self.base:]

    def checkpoint(self, image: Tuple[Any, ...]) -> None:
        """Fold everything appended so far into ``image``; truncate."""
        self.snapshot = tuple(image)
        self.base = self.seq
        self.entries = []
        self.log.truncate()
        self.checkpoints_taken += 1

    def install(self, image: Tuple[Any, ...], seq: int, term: int) -> None:
        """Adopt a peer's checkpoint image (standby bootstrap).

        Term-fenced like :meth:`append`: a snapshot streamed by a stale
        peer must never roll a newer log back."""
        if term < self.highest_term:
            raise StaleMasterTerm(
                f"meta-wal install at term {term} behind recorded term "
                f"{self.highest_term}", term=self.highest_term)
        self.snapshot = tuple(image)
        self.base = seq
        self.seq = seq
        self.entries = []
        self.log.truncate()
        self.highest_term = term

    def recover(self) -> MetaState:
        """Crash recovery: replay snapshot + surviving log bytes.

        Decodes the *on-log bytes* — not the in-memory decode cache,
        which died with the process — so a torn tail (the record
        mid-write when the Master crashed) is dropped and counted
        exactly as Index Node WAL recovery does.  Realigns ``seq`` and
        ``entries`` to the surviving prefix."""
        state = (MetaState.from_snapshot(self.snapshot)
                 if self.snapshot is not None else MetaState())
        survivors: List[Tuple[Any, ...]] = []
        highest = state.term
        for record in self.log.replay():
            state.apply(record)
            survivors.append(record)
            highest = max(highest, record[0])
        self.replay_dropped_total += self.log.replay_dropped
        self.replay_dropped_bytes_total += self.log.replay_dropped_bytes
        self.entries = survivors
        self.seq = self.base + len(survivors)
        self.highest_term = highest
        return state

    def simulate_torn_tail(self, drop_bytes: int) -> None:
        """Chop bytes off the log tail (crash injection for tests)."""
        self.log.simulate_torn_tail(drop_bytes)
