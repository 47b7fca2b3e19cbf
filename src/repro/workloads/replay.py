"""Replay an access trace against a live Propeller deployment.

Takes the event stream a :class:`~repro.core.trace.AccessEvent` source
produces (a :class:`~repro.workloads.apps.CompileApplication`, a parsed
trace file from :mod:`repro.core.traceio`, or anything else) and acts it
out on the service's VFS: files are created on first touch, reads open
and close them, writes append and trigger inline indexing.  The client's
File Access Management sees exactly the open/close pattern the original
application produced, so ACGs and placement come out the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Set

from repro.cluster.client import PropellerClient
from repro.cluster.service import PropellerService
from repro.core.trace import AccessEvent
from repro.fs.vfs import SYSTEM_PID, OpenMode


@dataclass
class ReplayStats:
    """What a replay did."""

    events: int = 0
    files_created: int = 0
    reads: int = 0
    writes: int = 0
    index_updates: int = 0
    processes: int = 0


def replay_trace(service: PropellerService, client: PropellerClient,
                 events: Iterable[AccessEvent],
                 path_of: Callable[[int], str],
                 write_bytes: int = 2048,
                 index_on_write: bool = True,
                 finish_processes: bool = True) -> ReplayStats:
    """Act out ``events`` on the service's VFS; returns statistics.

    ``path_of`` maps trace file ids to namespace paths (directories are
    created as needed).  With ``index_on_write`` every write also issues
    an inline file-indexing request — the Propeller deployment pattern.
    Events must arrive in nondecreasing time order per process (what all
    generators in this package produce).
    """
    vfs = service.vfs
    stats = ReplayStats()
    seen_pids: Set[int] = set()
    made_dirs: Set[str] = set()
    paths: Dict[int, str] = {}
    for event in events:
        stats.events += 1
        seen_pids.add(event.pid)
        path = paths.get(event.file_id)
        if path is None:
            # This replay's first touch of the file: name it, and find
            # out — once, not before every open — whether it exists yet.
            path = paths[event.file_id] = path_of(event.file_id)
            parent = path.rsplit("/", 1)[0] or "/"
            if parent not in made_dirs:
                vfs.mkdir(parent, parents=True)
                made_dirs.add(parent)
            if not vfs.exists(path):
                stats.files_created += 1
                if event.write:
                    # The process genuinely creates this file: its
                    # write-open is the trace event itself.
                    vfs.write_file(path, write_bytes, pid=event.pid)
                else:
                    # A read of a file that predates the trace:
                    # materialize it as pre-existing (system pid,
                    # invisible to causality) and replay the read.
                    vfs.write_file(path, write_bytes, pid=SYSTEM_PID)
                    fd = vfs.open(path, OpenMode.READ, pid=event.pid)
                    vfs.close(fd)
                    stats.reads += 1
                if index_on_write:
                    client.index_path(path, pid=event.pid)
                    stats.index_updates += 1
                continue
        if event.write:
            fd = vfs.open(path, OpenMode.WRITE, pid=event.pid)
            vfs.write(fd, write_bytes)
            vfs.close(fd)
            stats.writes += 1
            if index_on_write:
                client.index_path(path, pid=event.pid)
                stats.index_updates += 1
        else:
            fd = vfs.open(path, OpenMode.READ, pid=event.pid)
            vfs.close(fd)
            stats.reads += 1
    client.flush_updates()
    if finish_processes:
        for pid in sorted(seen_pids):
            client.access_manager.process_finished(pid)
        client.flush_acg()
    stats.processes = len(seen_pids)
    return stats
