"""The lazy file-indexing cache.

Section IV: an Index Node appends each file-indexing request to the WAL
and parks it in an in-memory cache.  Cached requests are committed to the
real indices on whichever comes first —

* a timeout (default 5 s), or
* the arrival of the next file-search request (searches must see every
  acknowledged update, so they force a commit).

Because searches are rare relative to updates in file-system workloads,
almost all commits are timeout-batched, which is why the re-index latency
in Figure 10 is microseconds, not milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.cluster.messages import IndexUpdate
from repro.obs.tracing import NULL_TRACER

DEFAULT_TIMEOUT_S = 5.0

CommitFn = Callable[[int, List[IndexUpdate]], None]


@dataclass
class CacheStats:
    """Counters the cache accumulates (commit reasons, volumes)."""
    updates_cached: int = 0
    timeout_commits: int = 0
    search_commits: int = 0
    flush_commits: int = 0
    updates_committed: int = 0


class IndexCache:
    """Per-Index-Node buffer of uncommitted updates, bucketed by ACG."""

    def __init__(self, commit_fn: CommitFn, timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
        if timeout_s <= 0:
            raise ValueError(f"timeout must be positive: {timeout_s}")
        self._commit_fn = commit_fn
        self.timeout_s = timeout_s
        self._pending: Dict[int, List[IndexUpdate]] = {}
        self._oldest: Dict[int, float] = {}
        self.stats = CacheStats()
        # Commits open a span so searches show the index-cache commit
        # they forced (zero simulated cost; no-op until tracing is wired).
        self.tracer = NULL_TRACER

    def __len__(self) -> int:
        return sum(len(v) for v in self._pending.values())

    def pending_acgs(self) -> List[int]:
        """ACG ids that currently have uncommitted updates."""
        return list(self._pending)

    def pending_ops(self, acg_id: int) -> tuple:
        """The uncommitted updates parked for one ACG (empty if none).

        Public read-only view — callers (locate probes, heartbeat
        builders, prune validation) must not reach into ``_pending``.
        """
        return tuple(self._pending.get(acg_id, ()))

    def add(self, acg_id: int, update: IndexUpdate, now: float) -> None:
        """Park one update; records arrival time for the timeout."""
        bucket = self._pending.setdefault(acg_id, [])
        if not bucket:
            self._oldest[acg_id] = now
        bucket.append(update)
        self.stats.updates_cached += 1

    def _commit(self, acg_id: int, reason: str) -> int:
        updates = self._pending.pop(acg_id, [])
        self._oldest.pop(acg_id, None)
        if not updates:
            return 0
        self._commit_fn(acg_id, updates)
        self.stats.updates_committed += len(updates)
        if reason == "timeout":
            self.stats.timeout_commits += 1
        elif reason == "flush":
            self.stats.flush_commits += 1
        else:
            self.stats.search_commits += 1
        return len(updates)

    def commit_due(self, now: float) -> int:
        """Timeout path: commit every bucket older than ``timeout_s``."""
        due = [acg for acg, t0 in self._oldest.items() if now - t0 >= self.timeout_s]
        return sum(self._commit(acg, "timeout") for acg in due)

    def commit_for_search(self, acg_id: int) -> int:
        """Search path: commit one ACG's pending updates right now.

        Always a traced stage — a search forces the commit check even
        when nothing is pending, and profiles should show that.
        """
        with self.tracer.span("cache_commit", acg=acg_id, reason="search") as span:
            committed = self._commit(acg_id, "search")
            span.set_attribute("updates", committed)
        return committed

    def commit_all(self) -> int:
        """Flush everything (``PropellerService.commit_all``, the chaos
        audit, tests).

        A flush is its own commit reason, so flushes never skew the
        timeout-vs-search batching ratio — exactly the figure-10 signal
        the stats exist to explain.  A checkpoint does not flush: it
        carries the pending updates as its tail.
        """
        return sum(self._commit(acg, "flush") for acg in list(self._pending))

    def estimated_bytes(self) -> int:
        """Approximate RAM held by parked updates (per-tier accounting).

        Per update: the serialized payload (``wire_bytes``) plus ~48
        bytes of list/object overhead — the same order the WAL charges,
        so the hot tier's gauge is comparable to the log's.
        """
        return sum(48 + u.wire_bytes()
                   for bucket in self._pending.values() for u in bucket)
