"""Per-file-system cost profiles and the pass-through layer (PTFS).

Table VI compares Propeller's raw I/O against native (Ext4, Btrfs) and
FUSE-based (NTFS-3g, ZFS-fuse) file systems plus PTFS — the authors'
pass-through FUSE layer that isolates FUSE's own overhead.  We cannot run
those file systems, so each gets a :class:`FSProfile` whose per-operation
costs are calibrated to the *published* PostMark numbers; the Propeller
row is PTFS's profile plus Propeller's actually-measured inline-indexing
work, so the paper's headline ratio (≈2.37× over PTFS) is reproduced by
the indexing path, not encoded as a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.fs.namespace import Inode
from repro.fs.vfs import OpenMode, VirtualFileSystem


@dataclass(frozen=True)
class FSProfile:
    """Per-operation virtual-time costs for one file system.

    Calibrated so PostMark's 'files created per second' matches Table VI:
    create_cost ≈ 1 / published_creation_rate, minus the shared data-
    transfer term.  ``fuse`` marks user-space file systems (context-switch
    overhead is inside the calibrated constants).
    """

    name: str
    create_cost_s: float
    unlink_cost_s: float
    open_cost_s: float
    close_cost_s: float
    write_byte_cost_s: float
    read_byte_cost_s: float
    fuse: bool = False


# Calibration anchors: Table VI 'Files Created per second' — Ext4 16747,
# Btrfs 5582, PTFS 6289, NTFS-3g 2392, ZFS-fuse 2093.  Per-byte costs are
# set so read/write throughput ratios follow the same table.
PROFILES: Dict[str, FSProfile] = {
    "ext4": FSProfile("ext4", 1 / 16747, 1 / 33000, 2e-6, 1e-6, 1 / 84e6, 1 / 84e6),
    "btrfs": FSProfile("btrfs", 1 / 5582, 1 / 11000, 3e-6, 1.5e-6, 1 / 28.1e6, 1 / 28.1e6),
    "ptfs": FSProfile("ptfs", 1 / 6289, 1 / 12500, 8e-6, 4e-6, 1 / 31.51e6, 1 / 31.51e6, fuse=True),
    "ntfs-3g": FSProfile("ntfs-3g", 1 / 2392, 1 / 4800, 12e-6, 6e-6, 1 / 12e6, 1 / 12e6, fuse=True),
    "zfs-fuse": FSProfile("zfs-fuse", 1 / 2093, 1 / 4200, 14e-6, 7e-6, 1 / 12.61e6, 1 / 12.61e6, fuse=True),
}


class ProfiledFS:
    """A VFS wrapper charging an :class:`FSProfile`'s costs per call.

    ``index_hook(path, inode)`` — when set, runs *inline* after every
    namespace/data change and its virtual-time cost lands on the I/O
    critical path: this is how the Propeller row of Table VI pays for
    real-time indexing.
    """

    def __init__(self, vfs: VirtualFileSystem, profile: FSProfile,
                 index_hook: Optional[Callable[[str, Inode], None]] = None) -> None:
        self.vfs = vfs
        self.profile = profile
        self.index_hook = index_hook
        self.clock = vfs.clock

    def _indexed(self, path: str) -> None:
        if self.index_hook is not None:
            self.index_hook(path, self.vfs.stat(path))

    def create(self, path: str, pid: int = 0, uid: int = 0) -> Inode:
        """Create a file, charging the profile and running the index hook."""
        self.clock.charge(self.profile.create_cost_s)
        inode = self.vfs.create(path, pid=pid, uid=uid)
        self._indexed(path)
        return inode

    def mkdir(self, path: str, uid: int = 0, parents: bool = False) -> Inode:
        """Create a directory, charging the profile's create cost."""
        self.clock.charge(self.profile.create_cost_s)
        return self.vfs.mkdir(path, uid=uid, parents=parents)

    def unlink(self, path: str, pid: int = 0) -> None:
        """Remove a file, charging the profile and de-indexing it."""
        self.clock.charge(self.profile.unlink_cost_s)
        inode = self.vfs.stat(path)
        if self.index_hook is not None:
            # Deletion must reach the index too (remove is an index write).
            self.index_hook(path, inode)
        self.vfs.unlink(path, pid=pid)

    def open(self, path: str, mode: OpenMode = OpenMode.READ, pid: int = 0,
             create: bool = False, uid: int = 0) -> int:
        """Open (optionally create) a file, charging the profile."""
        self.clock.charge(self.profile.open_cost_s)
        if create and not self.vfs.exists(path):
            self.clock.charge(self.profile.create_cost_s)
            fd = self.vfs.open(path, mode, pid=pid, create=True, uid=uid)
            self._indexed(path)
            return fd
        return self.vfs.open(path, mode, pid=pid, create=False, uid=uid)

    def write(self, fd: int, nbytes: int) -> None:
        """Append bytes, charging the profile's per-byte write cost."""
        self.clock.charge(nbytes * self.profile.write_byte_cost_s)
        self.vfs.write(fd, nbytes)

    def read(self, fd: int, nbytes: int) -> int:
        """Read bytes, charging the profile's per-byte read cost."""
        self.clock.charge(nbytes * self.profile.read_byte_cost_s)
        return self.vfs.read(fd, nbytes)

    def close(self, fd: int) -> None:
        """Close the descriptor; a written file is re-indexed inline."""
        self.clock.charge(self.profile.close_cost_s)
        record = self.vfs._lookup_fd(fd)
        path, wrote = record.path, record.writable
        self.vfs.close(fd)
        if wrote:
            self._indexed(path)
