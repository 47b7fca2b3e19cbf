"""Crawling-based desktop search engine (the Spotlight analog).

Captures the two properties the paper's Figures 1 and 11 hinge on:

* **Limited file-type coverage** — Spotlight indexes only file types it
  has importer plug-ins for, capping recall below 100% (60.6% on the
  paper's Dataset 1, 13.86% on Dataset 2) even when fully caught up;
* **Asynchronous re-indexing** — change notifications only mark files
  dirty; a background pass (rate-limited, like ``mdworker``) folds them
  into the queryable snapshot later.  While a pass is running the index
  is being rebuilt and queries return heavily degraded results — the
  paper observed recall dropping to 0 during re-indexing under ≥10
  file-copies-per-second of background load.

Queries hit the *snapshot*, never the live namespace, so results are
exactly as stale as the crawler is behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Set

from repro.fs.namespace import Inode
from repro.fs.notification import FsEvent, FsEventKind, NotificationQueue
from repro.fs.vfs import VirtualFileSystem
from repro.obs.freshness import NULL_FRESHNESS
from repro.query.ast import Predicate, matches
from repro.query.executor import tokenize_path
from repro.query.parser import parse_query
from repro.sim.events import EventLoop

# Extensions a default plug-in set understands (documents and media —
# the kinds of files desktop importers ship for).  Everything else is
# invisible to the engine, exactly like Spotlight skipping unknown types.
DEFAULT_SUPPORTED_EXTENSIONS = frozenset({
    "txt", "md", "pdf", "doc", "docx", "xls", "xlsx", "ppt", "pptx",
    "html", "htm", "xml", "plist", "rtf",
    "c", "h", "py", "js", "java",
    "jpg", "jpeg", "png", "gif", "tiff",
    "mp3", "m4a", "mov", "mp4",
})


def default_type_filter(path: str, inode: Inode) -> bool:
    """True when some importer plug-in covers this file."""
    _, _, ext = path.rpartition(".")
    return ext.lower() in DEFAULT_SUPPORTED_EXTENSIONS


@dataclass(frozen=True)
class CrawlerConfig:
    """Tunables for the crawling engine.

    ``reindex_rate_fps`` — how many dirty files one background pass folds
    in per second (mdworker-style throttling).
    ``pass_trigger_dirty`` — a pass starts once this many files are dirty
    (or on the periodic timer).
    ``pass_period_s`` — maximum time between passes.
    ``query_cost_s`` — fixed per-query service cost (IPC + index probe;
    Spotlight answered in ~20–30 ms on the paper's Mac Mini).
    ``degraded_recall_during_pass`` — fraction of the snapshot visible
    while the index is being rebuilt (the paper observed ~0).
    """

    reindex_rate_fps: float = 200.0
    pass_trigger_dirty: int = 64
    pass_period_s: float = 30.0
    query_cost_s: float = 0.025
    per_result_cost_s: float = 10e-6
    degraded_recall_during_pass: float = 0.0
    type_filter: Callable[[str, Inode], bool] = default_type_filter


@dataclass
class _SnapshotEntry:
    path: str
    attrs: Dict[str, Any]
    keywords: FrozenSet[str]


class CrawlerSearchEngine:
    """Notification-driven asynchronous indexer + snapshot query engine."""

    def __init__(self, vfs: VirtualFileSystem, loop: EventLoop,
                 config: CrawlerConfig = CrawlerConfig(),
                 freshness=NULL_FRESHNESS,
                 freshness_node: str = "crawler") -> None:
        self.vfs = vfs
        self.loop = loop
        self.config = config
        # The staleness probe equivalent to Propeller's: a change event
        # stamps at its notification timestamp and resolves when the file
        # is folded into the queryable snapshot — so Fig. 1's recall gap
        # can be retold as a staleness CDF against the same instrument.
        self.freshness = freshness
        self.freshness_node = freshness_node
        self.notifications = NotificationQueue()
        vfs.add_observer(self.notifications)
        self._snapshot: Dict[int, _SnapshotEntry] = {}
        self._dirty: Set[int] = set()
        self._dirty_paths: Dict[int, str] = {}
        self._deleted: Set[int] = set()
        self._reindexing_until: float = 0.0
        self.passes_run = 0
        self.files_indexed = 0
        self._schedule_next_pass()

    # -- indexing machinery ------------------------------------------------------

    def _schedule_next_pass(self) -> None:
        self.loop.schedule_after(self.config.pass_period_s, self._periodic_pass)

    def _periodic_pass(self) -> None:
        # The periodic pass must look at the notification queue itself —
        # a quiet engine (no queries arriving) still has to index.
        self._drain_to_dirty()
        self._run_pass()
        self._schedule_next_pass()

    def _drain_to_dirty(self) -> None:
        for event in self.notifications.drain():
            if event.kind is FsEventKind.DELETED:
                self._dirty.discard(event.ino)
                self._dirty_paths.pop(event.ino, None)
                self._deleted.add(event.ino)
            else:
                self.freshness.stamp(event.ino, event.timestamp)
                self._deleted.discard(event.ino)
                self._dirty.add(event.ino)
                self._dirty_paths[event.ino] = event.path

    def _ingest_notifications(self) -> None:
        self._drain_to_dirty()
        if len(self._dirty) >= self.config.pass_trigger_dirty:
            self._run_pass()

    def _run_pass(self) -> None:
        """One background re-index pass over the dirty set."""
        self._ingest_pending_deletes()
        if not self._dirty:
            return
        dirty, self._dirty = self._dirty, set()
        duration = len(dirty) / self.config.reindex_rate_fps
        now = self.vfs.clock.now()
        self._reindexing_until = max(self._reindexing_until, now) + duration
        for ino in dirty:
            path = self._dirty_paths.pop(ino, None)
            if path is None or not self.vfs.exists(path):
                self._snapshot.pop(ino, None)
                self.freshness.visible(self.freshness_node, ino,
                                       self._reindexing_until)
                continue
            inode = self.vfs.stat(path)
            if not self.config.type_filter(path, inode):
                # No importer plug-in: the change never becomes visible
                # (infinite staleness), so it leaves no sample.
                self.freshness.forget(ino)
                continue
            attrs = {"size": inode.size, "mtime": inode.mtime,
                     "ctime": inode.ctime, "uid": inode.uid}
            attrs.update(inode.attributes)
            self._snapshot[ino] = _SnapshotEntry(
                path=path, attrs=attrs, keywords=tokenize_path(path))
            self.files_indexed += 1
            # Queryable only once the (rate-limited) pass finishes.
            self.freshness.visible(self.freshness_node, ino,
                                   self._reindexing_until)
        self.passes_run += 1

    def _ingest_pending_deletes(self) -> None:
        now = self.vfs.clock.now()
        for ino in self._deleted:
            self._snapshot.pop(ino, None)
            self.freshness.visible(self.freshness_node, ino, now)
        self._deleted.clear()

    def full_rebuild(self) -> int:
        """Crawl the whole namespace from scratch (Spotlight's ``mdutil -E``).

        Charges crawl time for every file and replaces the snapshot.
        """
        self.notifications.drain()
        self._dirty.clear()
        self._dirty_paths.clear()
        self._deleted.clear()
        self._snapshot.clear()
        count = 0
        for path, inode in self.vfs.namespace.files():
            count += 1
            if not self.config.type_filter(path, inode):
                continue
            attrs = {"size": inode.size, "mtime": inode.mtime,
                     "ctime": inode.ctime, "uid": inode.uid}
            attrs.update(inode.attributes)
            self._snapshot[inode.ino] = _SnapshotEntry(
                path=path, attrs=attrs, keywords=tokenize_path(path))
        self.vfs.clock.charge(count / self.config.reindex_rate_fps)
        now = self.vfs.clock.now()
        for ino in self._snapshot:
            self.freshness.visible(self.freshness_node, ino, now)
        self.files_indexed += len(self._snapshot)
        self.passes_run += 1
        return len(self._snapshot)

    # -- queries --------------------------------------------------------------------

    @property
    def reindex_in_progress(self) -> bool:
        """True while a re-index pass is still running (recall degrades)."""
        return self.vfs.clock.now() < self._reindexing_until

    def query(self, text: str) -> List[str]:
        """Query the snapshot; returns paths (possibly stale/partial)."""
        return self.query_predicate(parse_query(text))

    def query_predicate(self, predicate: Predicate) -> List[str]:
        """Query the snapshot with a pre-parsed predicate."""
        self._ingest_notifications()
        now = self.vfs.clock.now()
        self.vfs.clock.charge(self.config.query_cost_s)
        matching = [entry for entry in self._snapshot.values()
                    if matches(predicate, entry.attrs, entry.keywords, now)]
        if self.reindex_in_progress:
            keep = int(len(matching) * self.config.degraded_recall_during_pass)
            matching = matching[:keep]
        self.vfs.clock.charge(self.config.per_result_cost_s * len(matching))
        return sorted(entry.path for entry in matching)

    @property
    def dirty_backlog(self) -> int:
        """Changes known but not yet folded into the snapshot."""
        return len(self._dirty) + len(self.notifications)

