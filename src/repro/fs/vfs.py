"""POSIX-flavoured virtual file system with an observer API.

Every state-changing call notifies registered observers — this is the hook
that FUSE gave the paper's prototype.  Two observers matter:

* :class:`~repro.fs.interceptor.FileAccessManager` builds ACGs from
  open/close pairs (Propeller's client);
* :class:`~repro.fs.notification.NotificationQueue` feeds the
  crawling-based baseline (inotify/FSEvents analog).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Protocol

from repro.errors import (BadFileDescriptor, FileNotFound, IsADirectory,
                          NotADirectory)
from repro.fs.namespace import FileKind, Inode, Namespace, normalize
from repro.sim.clock import SimClock

# The pid the system's own components do their file I/O under (index-node
# checkpoints, pre-existing files a trace replay materializes).  Negative
# pids are never part of application causality: the File Access
# Management module ignores them, so a system file is neither an ACG
# vertex nor a dirty file to index.
SYSTEM_PID = -1


class OpenMode(enum.Flag):
    """Access mode flags for open()."""
    READ = enum.auto()
    WRITE = enum.auto()
    RW = READ | WRITE


class FsObserver(Protocol):
    """Callbacks a VFS observer may implement (all optional)."""

    def on_open(self, pid: int, path: str, inode: Inode, mode: OpenMode, t: float) -> None: ...
    def on_close(self, pid: int, path: str, inode: Inode, mode: OpenMode, t: float) -> None: ...
    def on_create(self, pid: int, path: str, inode: Inode, t: float) -> None: ...
    def on_unlink(self, pid: int, path: str, inode: Inode, t: float) -> None: ...
    def on_rename(self, pid: int, old_path: str, new_path: str, inode: Inode, t: float) -> None: ...
    def on_write(self, pid: int, path: str, inode: Inode, nbytes: int, t: float) -> None: ...
    def on_setattr(self, pid: int, path: str, inode: Inode, name: str, value: Any, t: float) -> None: ...


# ``Flag.__and__`` builds a member per test: the per-event paths test these
# bits of ``mode._value_`` instead, once per open (or per observer hook).
READ_BIT = OpenMode.READ.value
WRITE_BIT = OpenMode.WRITE.value
_EVENTS = ("on_open", "on_close", "on_create", "on_unlink", "on_rename",
           "on_write", "on_setattr")


@dataclass
class _OpenFile:
    """One descriptor: the path (normalized) and inode resolved at open,
    so no later call on the descriptor touches the namespace."""
    pid: int
    path: str
    inode: Inode
    mode: OpenMode
    readable: bool
    writable: bool


class VirtualFileSystem:
    """The shared-storage file system Propeller sits under.

    All mutation paths update inode attributes (size/mtime) so that
    attribute queries have live ground truth, and broadcast to observers.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.namespace = Namespace()
        self._fds = itertools.count(3)
        self._open_files: Dict[int, _OpenFile] = {}
        self._observers: List[FsObserver] = []
        # Event name -> the bound callbacks of the observers implementing
        # it, rebuilt whenever the observer list changes.
        self._hooks: Dict[str, List[Any]] = {event: [] for event in _EVENTS}
        # Dynamic query-directory handler: when set (by a Propeller
        # client), ``readdir("/foo/?size>1m")`` runs the file search
        # instead of listing a real directory (Section IV).
        self._query_handler: Optional[Any] = None

    # -- observers -----------------------------------------------------------

    def add_observer(self, observer: FsObserver) -> None:
        """Register an observer for namespace/I-O events.

        Its callbacks are bound here, once: a callback attached to the
        observer afterwards is not seen."""
        self._observers.append(observer)
        self._bind_hooks()

    def remove_observer(self, observer: FsObserver) -> None:
        """Detach a previously registered observer."""
        self._observers.remove(observer)
        self._bind_hooks()

    def _bind_hooks(self) -> None:
        for event, hooks in self._hooks.items():
            bound = (getattr(o, event, None) for o in self._observers)
            hooks[:] = [callback for callback in bound if callback is not None]

    # -- namespace operations ---------------------------------------------------

    def mkdir(self, path: str, uid: int = 0, parents: bool = False) -> Inode:
        """Create a directory (optionally with parents)."""
        return self.namespace.mkdir(path, now=self.clock.now(), uid=uid, parents=parents)

    def create(self, path: str, pid: int = 0, uid: int = 0) -> Inode:
        """Create a file and notify observers."""
        now = self.clock.now()
        inode = self.namespace.create(path, now=now, uid=uid)
        norm = normalize(path)
        for hook in self._hooks["on_create"]:
            hook(pid, norm, inode, now)
        return inode

    def unlink(self, path: str, pid: int = 0) -> Inode:
        """Remove a file and notify observers."""
        now = self.clock.now()
        inode = self.namespace.unlink(path, now=now)
        norm = normalize(path)
        for hook in self._hooks["on_unlink"]:
            hook(pid, norm, inode, now)
        return inode

    def rename(self, old: str, new: str, pid: int = 0) -> Inode:
        """Move a file or directory; observers get on_rename."""
        now = self.clock.now()
        inode = self.namespace.rename(old, new, now=now)
        old_norm, new_norm = normalize(old), normalize(new)
        for hook in self._hooks["on_rename"]:
            hook(pid, old_norm, new_norm, inode, now)
        return inode

    def set_query_handler(self, handler) -> None:
        """Install the File Query Engine behind query-directories.

        ``handler(query_path)`` receives the full ``/scope/?query`` path
        and returns matching file paths.
        """
        self._query_handler = handler

    def readdir(self, path: str) -> List[str]:
        """List a directory — or, for ``/scope/?query`` paths with a
        query handler installed, run the file search and return the
        matches as directory entries (full paths)."""
        if "?" in path:
            if self._query_handler is None:
                from repro.errors import QueryError

                raise QueryError(
                    f"no query engine attached for query-directory {path!r}")
            return list(self._query_handler(path))
        return self.namespace.readdir(path)

    def stat(self, path: str) -> Inode:
        """Resolve a path to its inode."""
        return self.namespace.resolve(path)

    def exists(self, path: str) -> bool:
        """Whether a path resolves."""
        return self.namespace.exists(path)

    # -- file I/O ------------------------------------------------------------------

    # An open is a real syscall with nonzero duration.  Charging it also
    # guarantees strictly increasing open timestamps, which the
    # access-causality definition (t0 < t1, strict) relies on.
    OPEN_SYSCALL_COST_S = 1e-6

    def open(self, path: str, mode: OpenMode = OpenMode.READ, pid: int = 0,
             create: bool = False, uid: int = 0) -> int:
        """Open a file, optionally creating it; returns a descriptor."""
        self.clock.charge(self.OPEN_SYSCALL_COST_S)
        try:
            norm, inode = self.namespace.lookup(path)
        except (FileNotFound, NotADirectory):
            if not create:
                raise
            self.create(path, pid=pid, uid=uid)
            norm, inode = self.namespace.lookup(path)
        if inode.is_dir:
            raise IsADirectory(norm)
        fd = next(self._fds)
        bits = mode._value_
        self._open_files[fd] = _OpenFile(pid, norm, inode, mode,
                                         bool(bits & READ_BIT),
                                         bool(bits & WRITE_BIT))
        now = self.clock.now()
        for hook in self._hooks["on_open"]:
            hook(pid, norm, inode, mode, now)
        return fd

    def _lookup_fd(self, fd: int) -> _OpenFile:
        try:
            return self._open_files[fd]
        except KeyError:
            raise BadFileDescriptor(str(fd)) from None

    def _written(self, record: _OpenFile, nbytes: int) -> None:
        """Stamp the inode of a write and tell the observers."""
        inode = record.inode
        now = inode.mtime = self.clock.now()
        for hook in self._hooks["on_write"]:
            hook(record.pid, record.path, inode, nbytes, now)

    def _writable(self, fd: int) -> _OpenFile:
        record = self._lookup_fd(fd)
        if not record.writable:
            raise BadFileDescriptor(f"fd {fd} not open for writing")
        return record

    def write(self, fd: int, nbytes: int) -> None:
        """Append ``nbytes`` to the file (sizes matter; contents do not)."""
        record = self._writable(fd)
        record.inode.size += nbytes
        record.inode.data = None  # size-only write invalidates byte content
        self._written(record, nbytes)

    def truncate(self, fd: int, size: int = 0) -> None:
        """Reset a file's size (invalidates byte content)."""
        record = self._writable(fd)
        record.inode.size = size
        record.inode.data = None
        self._written(record, 0)

    def read(self, fd: int, nbytes: int) -> int:
        """Read up to ``nbytes``; returns how many are available."""
        record = self._lookup_fd(fd)
        if not record.readable:
            raise BadFileDescriptor(f"fd {fd} not open for reading")
        return min(nbytes, record.inode.size)

    def close(self, fd: int) -> None:
        """Close a descriptor and notify observers."""
        record = self._open_files.pop(fd, None)
        if record is None:
            raise BadFileDescriptor(str(fd))
        now = self.clock.now()
        for hook in self._hooks["on_close"]:
            hook(record.pid, record.path, record.inode, record.mode, now)

    def setattr(self, path: str, name: str, value: Any, pid: int = 0) -> None:
        """Set a user-defined attribute (the arbitrary fields Propeller
        indexes beyond inode metadata)."""
        norm, inode = self.namespace.lookup(path)
        inode.attributes[name] = value
        now = inode.mtime = self.clock.now()
        for hook in self._hooks["on_setattr"]:
            hook(pid, norm, inode, name, value, now)

    # -- whole-file byte content (shared-storage persistence) ------------------------

    def write_bytes(self, path: str, data: bytes, pid: int = 0, uid: int = 0) -> Inode:
        """Replace a file's contents with real bytes (creating it if
        needed).  Used by components that persist state to the shared
        file system — checkpointed indices, ACGs, Master metadata."""
        fd = self.open(path, OpenMode.WRITE, pid=pid, create=True, uid=uid)
        record = self._open_files[fd]
        try:
            record.inode.data = bytes(data)
            record.inode.size = len(data)
            self._written(record, len(data))
        finally:
            self.close(fd)
        return record.inode

    def read_bytes(self, path: str, pid: int = 0) -> bytes:
        """Read a file's full byte content (b'' for size-only files)."""
        fd = self.open(path, OpenMode.READ, pid=pid)
        try:
            record = self._lookup_fd(fd)
            return bytes(record.inode.data) if record.inode.data is not None else b""
        finally:
            self.close(fd)

    # -- convenience -----------------------------------------------------------------

    def write_file(self, path: str, nbytes: int, pid: int = 0, uid: int = 0) -> Inode:
        """create+open+write+close in one call (used by workload generators)."""
        fd = self.open(path, OpenMode.WRITE, pid=pid, create=True, uid=uid)
        inode = self._open_files[fd].inode
        try:
            self.write(fd, nbytes)
        finally:
            self.close(fd)
        return inode
