"""The Propeller cluster: Master Node, Index Nodes, client, service façade.

Mirrors Figure 6 of the paper: clients capture ACGs and send batched
file-indexing requests; the Master Node routes by its file→ACG map and
assigns new ACGs to the least-loaded Index Node; Index Nodes append
updates to a write-ahead log and an in-memory cache committed on a
timeout or on the next search; searches fan out to the Index Nodes
hosting ACGs that carry the queried index name and run in parallel.
"""

from repro.cluster.cache import IndexCache
from repro.cluster.client import PropellerClient
from repro.cluster.index_node import AcgReplica, IndexNode
from repro.cluster.master import MasterNode
from repro.cluster.messages import (
    Heartbeat,
    IndexUpdate,
    RouteEntry,
    SearchResult,
    UpdateOp,
)
from repro.cluster.persistence import (
    list_checkpoints,
    read_checkpoint,
    replica_path,
)
from repro.cluster.service import PropellerService
from repro.cluster.wal import WriteAheadLog

__all__ = [
    "IndexCache",
    "PropellerClient",
    "AcgReplica",
    "IndexNode",
    "MasterNode",
    "Heartbeat",
    "IndexUpdate",
    "RouteEntry",
    "SearchResult",
    "UpdateOp",
    "PropellerService",
    "WriteAheadLog",
    "list_checkpoints",
    "read_checkpoint",
    "replica_path",
]
