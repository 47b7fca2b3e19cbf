"""Partition replica sets: primary/follower replication and tail-tolerant reads.

Each ACG partition can carry a *replica set* of configurable replication
factor (RF).  The owning Index Node (the primary) keeps a per-partition
:class:`ReplicationLog` of committed updates and streams suffixes of it to
follower nodes; the Master's :class:`ReplicaSetManager` tracks membership
and per-follower applied watermarks from heartbeats, so failover can
*promote* a caught-up follower (an epoch bump, no WAL replay) instead of
replaying a checkpoint on a cold survivor.  On the read path a
:class:`HedgePolicy` arms a p95-derived timer per search leg and hedges
the leg to a follower when the primary dawdles.
"""

from repro.replication.hedging import HedgePolicy
from repro.replication.log import ReplicationLog
from repro.replication.replica_set import ReplicaSetManager, ReplicaSetState

__all__ = [
    "HedgePolicy",
    "ReplicaSetManager",
    "ReplicaSetState",
    "ReplicationLog",
]
