"""File-access traces and causality extraction.

The unit of observation is one *open* of a file by a process: who (pid),
what (file id), how (read/write), when (open time).  Causality
(Section III): fA → fB iff the same process opened fA with any mode at t0
and opened fB *for writing* at t1 > t0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (Deque, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)


@dataclass(frozen=True)
class AccessEvent:
    """One file open by one process."""

    pid: int
    file_id: int
    read: bool
    write: bool
    t_open: float

    def __post_init__(self) -> None:
        if not (self.read or self.write):
            raise ValueError("an access must read or write (or both)")


def causal_pairs(events: Iterable[AccessEvent]) -> Iterator[Tuple[int, int]]:
    """Yield (producer_file, consumer_file) pairs from an event stream.

    For each *write* access to fB at t1, every file the same process
    touched earlier (read or write) is a producer: fA → fB.  Self-loops
    are skipped; repeated producer accesses to the same file yield one
    pair per (earlier file, write) combination, so edge weights count
    co-access frequency the way Figure 4 increments them.
    """
    history: Dict[int, List[Tuple[float, int]]] = {}
    ordered = sorted(events, key=lambda e: (e.t_open, e.file_id))
    for event in ordered:
        seen = history.setdefault(event.pid, [])
        if event.write:
            producers = {fid for t, fid in seen if t < event.t_open and fid != event.file_id}
            for producer in sorted(producers):
                yield producer, event.file_id
        seen.append((event.t_open, event.file_id))


class TraceRecorder:
    """Accumulates events per process and emits causal pairs incrementally.

    Unlike :func:`causal_pairs` (batch, exact), the recorder is the online
    form the client runs, once per intercepted open — so it takes the
    access as plain values, not as an :class:`AccessEvent`: accesses must
    arrive in nondecreasing time order per process, and producers are
    reported as writes happen.

    ``window`` bounds how many recent accesses per process count as
    producers.  Without a bound, a process that writes N files makes the
    client-side ACG quadratic (every new file consumes *all* earlier
    ones) — hundreds of megabytes for a few thousand files.  Real
    application working sets are small (Table I), and ACGs are weakly
    consistent anyway, so truncating ancient history costs placement
    quality only, never correctness.
    """

    def __init__(self, window: int = 256) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1: {window}")
        self.window = window
        self._history: Dict[int, Deque[Tuple[float, int]]] = {}

    def record(self, pid: int, file_id: int, write: bool,
               t_open: float) -> Sequence[int]:
        """Ingest one access; return its producers in ascending order —
        each is a new (producer, ``file_id``) causal pair."""
        seen = self._history.get(pid)
        if seen is None:
            seen = self._history[pid] = deque(maxlen=self.window)
        producers: Sequence[int] = ()
        if write:
            producers = sorted({fid for t, fid in seen
                                if t < t_open and fid != file_id})
        seen.append((t_open, file_id))
        return producers

    def last_file(self, pid: int, exclude: Optional[int] = None) -> Optional[int]:
        """Most recent file this process touched (None if unseen) — used
        as the placement hint for files the process creates next.

        ``exclude`` skips one file id, so the hint for a freshly-created
        file is its causal *producer*, not the file itself.
        """
        seen = self._history.get(pid)
        if not seen:
            return None
        for _, file_id in reversed(seen):
            if file_id != exclude:
                return file_id
        return None

    def finish_process(self, pid: int) -> None:
        """Drop a process's history once it exits (bounds client memory)."""
        self._history.pop(pid, None)

    def clear(self) -> None:
        """Forget all recorded history."""
        self._history.clear()
