"""Exception hierarchy shared by every repro subpackage.

Each layer raises a subclass of :class:`ReproError` so callers can catch
library failures without accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class FileSystemError(ReproError):
    """Base class for virtual-file-system failures."""


class FileNotFound(FileSystemError):
    """A path does not resolve to an inode."""


class FileExists(FileSystemError):
    """Create was asked to make a path that already exists."""

class NotADirectory(FileSystemError):
    """A directory operation hit a regular file."""


class IsADirectory(FileSystemError):
    """A file operation hit a directory."""


class BadFileDescriptor(FileSystemError):
    """An I/O call used a closed or unknown file handle."""


class QueryError(ReproError):
    """A file-search query failed to parse or plan."""


class ClusterError(ReproError):
    """Base class for Propeller-cluster failures."""


class UnknownAcg(ClusterError):
    """A request referenced an ACG id the Master Node does not know."""


class UnknownIndexNode(ClusterError):
    """A request referenced an Index Node that is not registered."""


class UnknownIndexName(ClusterError):
    """A search referenced a user-defined index name that was never created."""


class NodeDown(ClusterError):
    """An RPC was sent to a node that is marked failed."""


class StaleRoute(ClusterError):
    """An epoch-stamped request hit an Index Node that no longer (or not
    yet) owns the partition it was routed to.

    This is the routing layer's NACK: it is *not* transient, so the RPC
    retry loop lets it escape immediately — the correct reaction is to
    refresh the cached route table and re-route, not to resend the same
    request to the same node.  ``epoch`` carries the responding node's
    latest known routing epoch so the caller can tell how stale it is.
    """

    def __init__(self, message: str, epoch: int = 0) -> None:
        super().__init__(message)
        self.epoch = epoch


class StaleReplEpoch(ClusterError):
    """A replication message carried an older replication epoch than the
    receiver's state.

    This is the replication layer's fence: a deposed primary (failed
    over while silent) or a pre-generation-restart stream must not
    overwrite state it no longer owns.  Not transient — the correct
    reaction on the sender is to stop acting as primary for the
    partition, not to resend.
    """


class StaleMasterTerm(ClusterError):
    """A master-originated mutating RPC carried an older master term than
    the receiver has already seen.

    This is the control plane's fence: a deposed-but-alive Master
    (partitioned away while the standby promoted) must never mutate
    cluster state.  Not transient — the correct reaction on the sender is
    to stop acting as Master, not to resend.  ``term`` carries the
    receiver's newest known term so the stale sender can tell how far
    behind it is.
    """

    def __init__(self, message: str, term: int = 0) -> None:
        super().__init__(message)
        self.term = term


class NotActingMaster(ClusterError):
    """A client called a Master endpoint that is not (or no longer) the
    acting Master.

    Not transient for the RPC retry loop — resending to the same
    endpoint cannot help; the caller must re-home to the acting Master.
    ``acting`` optionally names the endpoint the receiver believes is
    acting (its promotion peer), as a re-homing hint.
    """

    def __init__(self, message: str, acting: str = "") -> None:
        super().__init__(message)
        self.acting = acting


class RpcTimeout(ClusterError):
    """An RPC request or response was lost and the caller's timer fired.

    Raised after the retry budget (if any) is exhausted; transient
    timeouts inside the retry loop never escape."""


class DiskIOError(ClusterError):
    """An injected storage fault: a device read failed mid-transfer."""


class WalCorruption(ClusterError):
    """The write-ahead log failed checksum validation during replay."""


class ObjectStoreError(DiskIOError):
    """A simulated object-store request failed (injected fault or
    missing key).  Subclasses :class:`DiskIOError` so a search leg that
    trips on a cold-tier read degrades instead of failing the query."""


class SegmentCorruption(ClusterError):
    """A frozen index segment failed magic/CRC validation on read."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulation substrate."""
