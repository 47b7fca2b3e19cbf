"""Shared-storage persistence of Index Node state.

Section IV: "All the indices, as well as the ACGs and their metadata, are
stored as regular files in the underlying shared file system."  One ACG
replica is persisted as one file under ``/.propeller/`` on the shared
VFS holding its segment bytes (:func:`repro.cluster.segments.encode_segment`
— the one serialized form of a partition).  This module knows paths and
bytes, not the format.

Two consumers:

* periodic checkpoints (crash recovery beyond the WAL window);
* failover — when the Master declares an Index Node dead, a surviving
  node adopts its ACGs straight from shared storage.

Everything here runs as the system: an index node's own files must never
look like user files to a client watching the same VFS (an unfiltered
``index_dirty()`` would index them, and take a removed checkpoint for an
application unlink).
"""

from __future__ import annotations

from typing import List

from repro.fs.vfs import SYSTEM_PID, VirtualFileSystem

PROPELLER_ROOT = "/.propeller"


def replica_path(node_name: str, acg_id: int) -> str:
    """Canonical shared-storage location of one ACG's checkpoint."""
    return f"{PROPELLER_ROOT}/{node_name}/acg{acg_id:08d}.ckpt"


def write_checkpoint(vfs: VirtualFileSystem, node_name: str, acg_id: int,
                     data: bytes) -> str:
    """Write one ACG's checkpoint bytes to the shared VFS; returns path."""
    path = replica_path(node_name, acg_id)
    vfs.mkdir(f"{PROPELLER_ROOT}/{node_name}", parents=True)
    vfs.write_bytes(path, data, pid=SYSTEM_PID)
    return path


def read_checkpoint(vfs: VirtualFileSystem, path: str) -> bytes:
    """One checkpoint file's bytes (``FileNotFound`` if never written)."""
    return vfs.read_bytes(path, pid=SYSTEM_PID)


def remove_checkpoint(vfs: VirtualFileSystem, node_name: str, acg_id: int) -> bool:
    """Delete one ACG's checkpoint (after a completed migration the old
    owner's copy is stale and must not be adopted in a later failover).
    Returns whether a file was actually removed."""
    path = replica_path(node_name, acg_id)
    if not vfs.exists(path):
        return False
    vfs.unlink(path, pid=SYSTEM_PID)
    return True


def list_checkpoints(vfs: VirtualFileSystem, node_name: str) -> List[str]:
    """All checkpoint paths a node has written (empty if none)."""
    base = f"{PROPELLER_ROOT}/{node_name}"
    if not vfs.exists(base):
        return []
    return [f"{base}/{name}" for name in vfs.readdir(base)
            if name.endswith(".ckpt")]
