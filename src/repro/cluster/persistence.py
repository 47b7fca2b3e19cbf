"""Shared-storage persistence of Index Node state.

Section IV: "All the indices, as well as the ACGs and their metadata, are
stored as regular files in the underlying shared file system."  This
module serializes one ACG replica — attribute store, path map, the ACG
itself, and the index specs (index *contents* are rebuilt from the store,
which is smaller and always consistent) — to a single file under
``/.propeller/`` on the shared VFS, and restores it on any node.

Two consumers:

* periodic checkpoints (crash recovery beyond the WAL window);
* failover — when the Master declares an Index Node dead, a surviving
  node adopts its ACGs straight from shared storage.
"""

from __future__ import annotations

import struct
import zlib
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import ClusterError
from repro.indexstructures.base import IndexKind
from repro.indexstructures.serialization import dump_value, load_value
from repro.fs.vfs import SYSTEM_PID, VirtualFileSystem
from repro.query.planner import IndexSpec

if TYPE_CHECKING:
    from repro.cluster.index_node import AcgReplica, IndexNode

PROPELLER_ROOT = "/.propeller"
_MAGIC = b"PACG"
_VERSION = 1


def replica_path(node_name: str, acg_id: int) -> str:
    """Canonical shared-storage location of one ACG's checkpoint."""
    return f"{PROPELLER_ROOT}/{node_name}/acg{acg_id:08d}.ckpt"


def dump_replica(replica: "AcgReplica") -> bytes:
    """Serialize one replica to its shared-storage checkpoint format."""
    chunks: List[bytes] = []
    # Index specs (so the restoring node can rebuild index structures).
    specs = [(s.name, s.kind.value, tuple(s.attrs))
             for s in replica.specs.values()]
    chunks.append(dump_value(tuple(specs)))
    # Attribute store: (file_id, attrs-as-pairs, path).
    files = []
    for file_id in replica.store.file_ids():
        attrs = replica.store.attrs(file_id)
        path = attrs.get("path")
        pairs = tuple(sorted((k, v) for k, v in attrs.items() if k != "path"))
        files.append((file_id, pairs, path))
    chunks.append(dump_value(tuple(files)))
    # The ACG edge/vertex records.
    chunks.append(dump_value(tuple(replica.graph.to_records())))
    body = b"".join(struct.pack("<I", len(c)) + c for c in chunks)
    header = _MAGIC + struct.pack("<IIQ", _VERSION, replica.acg_id,
                                  len(body)) + struct.pack("<I", zlib.crc32(body))
    return header + body


def load_replica_payload(data: bytes) -> Dict[str, Any]:
    """Parse a checkpoint; returns {acg_id, specs, files, acg_records}.

    Raises :class:`ClusterError` on a corrupt or mismatched file.
    """
    if data[:4] != _MAGIC:
        raise ClusterError("not a Propeller checkpoint (bad magic)")
    version, acg_id, body_len = struct.unpack_from("<IIQ", data, 4)
    (crc,) = struct.unpack_from("<I", data, 20)
    body = data[24:24 + body_len]
    if version != _VERSION:
        raise ClusterError(f"unsupported checkpoint version {version}")
    if len(body) != body_len or zlib.crc32(body) != crc:
        raise ClusterError("checkpoint failed CRC validation")
    offset = 0
    sections: List[Any] = []
    for _ in range(3):
        (n,) = struct.unpack_from("<I", body, offset)
        offset += 4
        value, consumed = load_value(body, offset)
        if consumed - offset != n:
            raise ClusterError("checkpoint section length mismatch")
        offset = consumed
        sections.append(value)
    specs_raw, files_raw, acg_records = sections
    specs = [IndexSpec(name, IndexKind(kind), tuple(attrs))
             for name, kind, attrs in specs_raw]
    files = [(file_id, dict(pairs), path) for file_id, pairs, path in files_raw]
    return {"acg_id": acg_id, "specs": specs, "files": files,
            "acg_records": list(acg_records)}


def checkpoint_replica(vfs: VirtualFileSystem, node_name: str,
                       replica: "AcgReplica") -> str:
    """Write one replica's checkpoint to the shared VFS; returns path."""
    path = replica_path(node_name, replica.acg_id)
    vfs.mkdir(f"{PROPELLER_ROOT}/{node_name}", parents=True)
    write_checkpoint(vfs, path, dump_replica(replica))
    return path


def write_checkpoint(vfs: VirtualFileSystem, path: str, data: bytes) -> None:
    """Write checkpoint bytes as the system: an index node's own files
    must never look like user files to a client watching the same VFS
    (an unfiltered ``index_dirty()`` would index them)."""
    vfs.write_bytes(path, data, pid=SYSTEM_PID)


def read_checkpoint(vfs: VirtualFileSystem, path: str) -> Dict[str, Any]:
    """Load and validate a checkpoint file from the shared VFS.

    Accepts both frames: the legacy ``PACG`` checkpoint and a frozen
    ``PSEG`` segment (a frozen partition checkpoints as its segment
    bytes — same payload, tiered transfer format)."""
    data = vfs.read_bytes(path, pid=SYSTEM_PID)
    from repro.cluster import segments

    if segments.is_segment(data):
        return segments.load_segment_payload(data)
    return load_replica_payload(data)


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
