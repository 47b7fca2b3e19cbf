"""File Access Management — the client-side FUSE shim.

Observes a :class:`~repro.fs.vfs.VirtualFileSystem`, feeding each open to
a :class:`~repro.core.trace.TraceRecorder` and building a per-client ACG
in RAM exactly as the paper's client does (Section IV).  Create/unlink are
surfaced through callbacks so the Propeller client can keep the Master
Node's file→ACG mapping current.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.core.acg import AccessCausalityGraph
from repro.core.trace import TraceRecorder
from repro.fs.namespace import Inode
from repro.fs.vfs import WRITE_BIT, OpenMode
from repro.obs.freshness import NULL_FRESHNESS


class FileAccessManager:
    """Intercepts open/close/create/unlink and maintains an in-RAM ACG.

    ``on_create(path, inode)`` / ``on_unlink(path, inode)`` callbacks fire
    on namespace changes; :meth:`drain` hands over the accumulated ACG (the
    client flushes it to Index Nodes when the I/O process finishes, with
    *weak* consistency — losing a drained ACG is tolerable by design).
    """

    def __init__(self,
                 on_create: Optional[Callable[[str, Inode], None]] = None,
                 on_unlink: Optional[Callable[[str, Inode], None]] = None,
                 on_rename: Optional[Callable[[str, str, Inode], None]] = None,
                 pid_filter: Optional[set] = None) -> None:
        self._recorder = TraceRecorder()
        self._acg = AccessCausalityGraph()
        self._create_cb = on_create
        self._unlink_cb = on_unlink
        self._rename_cb = on_rename
        self._pid_filter = pid_filter
        self.events_seen = 0
        # Freshness instrumentation (wired by the client / service): a
        # close-after-write is the instant a file's content changed, so
        # it is where the staleness stopwatch starts.
        self.freshness = NULL_FRESHNESS
        # Dirty-file coalescing buffer for the batched update path:
        # every close-after-write marks the file dirty, keyed by inode
        # so a rewrite burst collapses to one entry (the latest path
        # wins — a rename between writes must index the new name).
        # ``drain_dirty`` hands the set to the client's group-commit
        # feed; an unlink drops the entry so a dead file is never
        # re-indexed from stale dirt.
        self._dirty: "dict[int, str]" = {}

    def _watches(self, pid: int) -> bool:
        # Negative pids are system components (checkpoint writers, the
        # service itself); their I/O is never part of application
        # causality.
        if pid < 0:
            return False
        return self._pid_filter is None or pid in self._pid_filter

    # -- VFS observer callbacks ---------------------------------------------

    def on_open(self, pid: int, path: str, inode: Inode, mode: OpenMode, t: float) -> None:
        """VFS observer hook: record an open as an access event."""
        if not self._watches(pid):
            return
        self.events_seen += 1
        ino = inode.ino
        acg = self._acg
        acg.add_file(ino)
        for producer in self._recorder.record(
                pid, ino, mode._value_ & WRITE_BIT != 0, t):
            acg.add_causality(producer, ino)

    def on_close(self, pid: int, path: str, inode: Inode, mode: OpenMode, t: float) -> None:
        # Close marks the end of the access; causality is keyed on opens,
        # so nothing to extract — but a close-after-write is the moment
        # the file's content changed, which starts the staleness clock.
        if not self._watches(pid):
            return
        if mode._value_ & WRITE_BIT:
            self.freshness.stamp(inode.ino, t)
            self._dirty[inode.ino] = path

    def on_create(self, pid: int, path: str, inode: Inode, t: float) -> None:
        """VFS observer hook: register the new file as an ACG vertex."""
        if not self._watches(pid):
            return
        self._acg.add_file(inode.ino)
        self.freshness.stamp(inode.ino, t)
        if self._create_cb is not None:
            self._create_cb(path, inode)

    def on_unlink(self, pid: int, path: str, inode: Inode, t: float) -> None:
        """VFS observer hook: drop the file's vertex and notify the client."""
        if not self._watches(pid):
            return
        self._acg.remove_file(inode.ino)
        self._dirty.pop(inode.ino, None)
        if self._unlink_cb is not None:
            self._unlink_cb(path, inode)

    def on_rename(self, pid: int, old_path: str, new_path: str,
                  inode: Inode, t: float) -> None:
        # Causality is keyed on inodes, so the ACG is untouched; but the
        # client needs to refresh the path-derived index entries.
        if not self._watches(pid):
            return
        if inode.ino in self._dirty:
            self._dirty[inode.ino] = new_path
        if self._rename_cb is not None:
            self._rename_cb(old_path, new_path, inode)

    # -- client-side API -------------------------------------------------------

    def last_file(self, pid: int, exclude: Optional[int] = None) -> Optional[int]:
        """The file this process touched most recently (placement hint)."""
        return self._recorder.last_file(pid, exclude=exclude)

    def process_finished(self, pid: int) -> None:
        """Forget a process's open history once it exits."""
        self._recorder.finish_process(pid)

    def peek(self) -> AccessCausalityGraph:
        """The ACG accumulated so far (not cleared)."""
        return self._acg

    def dirty_count(self) -> int:
        """How many distinct files are waiting in the dirty buffer."""
        return len(self._dirty)

    def discard_dirty(self, file_id: int) -> None:
        """The client has just read this file's current state to index
        it: its dirt is spent (a later write marks it again)."""
        self._dirty.pop(file_id, None)

    def drain_dirty(self) -> List[Tuple[int, str]]:
        """Hand over the coalesced dirty set (insertion order) and reset.

        Each entry is one distinct written file — however many times it
        was rewritten — under its most recent path.
        """
        dirty, self._dirty = self._dirty, {}
        return list(dirty.items())

    def drain(self) -> AccessCausalityGraph:
        """Hand over the cached ACG and start a fresh one (client flush)."""
        acg, self._acg = self._acg, AccessCausalityGraph()
        return acg
