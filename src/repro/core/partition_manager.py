"""Partition lifecycle bookkeeping.

The Master Node's view of the world: which partition (ACG group) each file
belongs to, how big each partition is, and which Index Node hosts it.  The
heavy lifting (holding indices, storing the ACG, computing splits) happens
on Index Nodes; this class is the metadata side the paper assigns to the
Master Node, periodically checkpointed to shared storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import UnknownAcg


@dataclass
class Partition:
    """Metadata for one ACG group."""

    partition_id: int
    files: Set[int] = field(default_factory=set)
    node: Optional[str] = None

    @property
    def size(self) -> int:
        """Number of files in this partition."""
        return len(self.files)


class PartitionManager:
    """file → partition mapping plus per-partition metadata."""

    def __init__(self) -> None:
        self._next_id = 1
        self._partitions: Dict[int, Partition] = {}
        self._file_to_partition: Dict[int, int] = {}
        # Routing epoch: bumped on every event that changes *where*
        # requests must be sent (split, merge, migrate, rebalance,
        # failover, new-partition placement).  Adding files to an
        # existing partition does not bump — membership changes don't
        # invalidate cached node routes.
        self._epoch = 1

    @property
    def epoch(self) -> int:
        """The current routing epoch (monotonically increasing)."""
        return self._epoch

    @property
    def next_id(self) -> int:
        """The id the next partition will get (never reused, so a
        restored manager must carry it forward — see ``from_records``)."""
        return self._next_id

    def bump_epoch(self, epoch: int) -> None:
        """Advance the routing epoch to ``epoch`` (never backwards)."""
        self._epoch = max(self._epoch, epoch)

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._partitions)

    def partitions(self) -> List[Partition]:
        """All partitions, as a list."""
        return list(self._partitions.values())

    def get(self, partition_id: int) -> Partition:
        """Fetch one partition by id or raise :class:`UnknownAcg`."""
        try:
            return self._partitions[partition_id]
        except KeyError:
            raise UnknownAcg(f"partition {partition_id}") from None

    def partition_of(self, file_id: int) -> Optional[int]:
        """The partition id holding a file (None if unmapped)."""
        return self._file_to_partition.get(file_id)

    def node_load(self, node: str) -> int:
        """Total files hosted by one Index Node."""
        return sum(p.size for p in self._partitions.values() if p.node == node)

    # -- mutation ----------------------------------------------------------------

    def new_partition(self, files: Iterable[int] = (), node: Optional[str] = None) -> Partition:
        """Create a partition, optionally pre-filled and placed."""
        partition = Partition(partition_id=self._next_id, node=node)
        self._next_id += 1
        self._partitions[partition.partition_id] = partition
        for file_id in files:
            self.add_file(partition.partition_id, file_id)
        return partition

    def add_file(self, partition_id: int, file_id: int) -> None:
        """Map a file into a partition, moving it if already mapped."""
        old = self._file_to_partition.get(file_id)
        if old == partition_id:
            return
        target = self.get(partition_id)
        if old is not None:
            self._partitions[old].files.discard(file_id)
        target.files.add(file_id)
        self._file_to_partition[file_id] = partition_id

    def remove_file(self, file_id: int) -> Optional[int]:
        """Forget a deleted file; returns the partition it was in."""
        partition_id = self._file_to_partition.pop(file_id, None)
        if partition_id is not None:
            self._partitions[partition_id].files.discard(file_id)
        return partition_id

    def assign_node(self, partition_id: int, node: Optional[str]) -> None:
        """Place a partition on an Index Node."""
        self.get(partition_id).node = node

    def drop_partition(self, partition_id: int) -> None:
        """Delete an empty partition."""
        partition = self.get(partition_id)
        if partition.files:
            raise ValueError(f"partition {partition_id} still holds files")
        del self._partitions[partition_id]

    # -- checkpointing (MN flushes metadata to shared storage) ---------------------

    def to_records(self) -> List[Tuple[int, Optional[str], Tuple[int, ...]]]:
        """Serializable snapshot of all partitions (for checkpoints)."""
        return [(p.partition_id, p.node, tuple(sorted(p.files)))
                for p in self._partitions.values()]

    @classmethod
    def from_records(cls, records: Iterable[Tuple[int, Optional[str], Tuple[int, ...]]],
                     *, epoch: int, next_id: int) -> "PartitionManager":
        """Rebuild a manager from :meth:`to_records` output plus the
        routing epoch and the id counter, which the records alone cannot
        give back (ids are never reused, and cached routes must stay
        valid)."""
        manager = cls()
        for partition_id, node, files in records:
            partition = Partition(partition_id=partition_id, node=node)
            manager._partitions[partition_id] = partition
            for file_id in files:
                partition.files.add(file_id)
                manager._file_to_partition[file_id] = partition_id
        manager._next_id = next_id
        manager._epoch = epoch
        return manager
