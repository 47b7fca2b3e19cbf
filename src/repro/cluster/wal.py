"""Write-ahead log.

Every file-indexing request an Index Node acknowledges is first appended
here (Section IV), so a crash between acknowledgement and index commit
loses nothing: replay reconstructs the pending updates.  Records are
CRC-framed; a torn or corrupt *tail* (partial or garbled final record
after a crash — the bytes that were mid-write when power died) is
detected, dropped, and **counted** (``replay_dropped`` /
``replay_dropped_bytes``, surfaced as the ``wal.replay_dropped`` node
metric) so recovery can account for every acknowledged record it could
not replay.  Corruption anywhere before the final record means the log
itself is damaged, not torn, and still raises
:class:`~repro.errors.WalCorruption`.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.errors import WalCorruption
from repro.indexstructures.serialization import dump_value, load_value
from repro.sim.disk import DiskDevice

_HEADER = struct.Struct("<II")  # length, crc32


class WriteAheadLog:
    """Append-only CRC-framed log, optionally charging a simulated disk."""

    #: First element of a group-commit record
    #: ``(BATCH_TAG, acg_id, (update, ...))`` — the only record shape an
    #: Index Node writes or recovers.
    BATCH_TAG = "batch"

    def __init__(self, disk: Optional[DiskDevice] = None) -> None:
        self._buffer = bytearray()
        self._disk = disk
        self.records_appended = 0
        # One simulated fsync per frame — or per run of frames whose
        # writer deferred it (an update envelope: one frame per
        # partition, one fsync for the node).  bytes_written / fsyncs
        # gives the amortized fsync payload (``wal.bytes_per_fsync``).
        self.fsyncs = 0
        self.bytes_written = 0
        # What the most recent replay() had to drop at a torn or corrupt
        # tail (a replay over a healthy log resets both to zero).
        # Recovery paths accumulate these into longer-lived counters.
        self.replay_dropped = 0
        self.replay_dropped_bytes = 0
        # Intact records the most recent replay() deliberately skipped
        # via its ``keep`` predicate (e.g. records for partitions the
        # node handed off in a migration before the crash).
        self.replay_skipped = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def append(self, record: Tuple[Any, ...], sync: bool = True) -> None:
        """Append one record (a tuple of primitive values) as one frame.

        ``sync=False`` leaves the frame to a later :meth:`sync` — the
        writer of several frames that are acknowledged together pays one
        simulated fsync for the lot.  The frame's bytes are charged to
        the log device either way.
        """
        body = dump_value(record)
        frame = _HEADER.pack(len(body), zlib.crc32(body)) + body
        self._buffer.extend(frame)
        self.records_appended += 1
        self.bytes_written += len(frame)
        if self._disk is not None:
            self._disk.append(len(frame))
        if sync:
            self.sync()

    def sync(self) -> None:
        """Make every frame appended so far durable: one simulated fsync.

        Nothing may be acknowledged on the strength of a frame appended
        with ``sync=False`` until this has run."""
        self.fsyncs += 1

    def append_batch(self, acg_id: int, records: Tuple[Tuple[Any, ...], ...],
                     sync: bool = True) -> None:
        """Group-commit append: one frame, N records, one simulated fsync
        (or none yet, with ``sync=False`` — see :meth:`append`).

        The whole batch lives inside a single CRC frame, so the torn-tail
        rule in :meth:`replay` applies to the batch as a unit: a crash
        mid-write drops the entire torn batch record and nothing before
        it — exactly the atomicity group commit promises.  Replay yields
        the batch as ``(BATCH_TAG, acg_id, records)``; recovery expands
        it against the per-ACG commit watermark.
        """
        self.append((self.BATCH_TAG, acg_id, tuple(records)), sync=sync)
        # ``append`` counted the frame as one record; count its riders.
        self.records_appended += len(records) - 1

    def replay(self, keep: Optional[Callable[[Tuple[Any, ...]], bool]] = None
               ) -> Iterator[Tuple[Any, ...]]:
        """Yield every intact record in append order.

        A torn tail (partial header or body) and a *final* record that
        fails its CRC — the record that was mid-write at the crash — end
        iteration and are counted in :attr:`replay_dropped` /
        :attr:`replay_dropped_bytes` instead of vanishing silently.
        Corruption that is not at the tail means the log is damaged, not
        torn, and raises :class:`WalCorruption`.

        ``keep`` (optional) filters intact records: records it rejects
        are counted in :attr:`replay_skipped` instead of being yielded.
        Recovery uses this to skip records for partitions the node no
        longer owns (a completed migration must not resurrect its data
        on the old owner).
        """
        self.replay_dropped = 0
        self.replay_dropped_bytes = 0
        self.replay_skipped = 0
        data = bytes(self._buffer)
        offset = 0
        while offset < len(data):
            if offset + _HEADER.size > len(data):
                self._drop_tail(len(data) - offset)
                return  # torn header at tail
            length, crc = _HEADER.unpack_from(data, offset)
            body_start = offset + _HEADER.size
            body_end = body_start + length
            if body_end > len(data):
                self._drop_tail(len(data) - offset)
                return  # torn body at tail
            body = data[body_start:body_end]
            if zlib.crc32(body) != crc:
                if body_end == len(data):
                    # The final record garbled in flight: a corrupt tail,
                    # recoverable by dropping it.
                    self._drop_tail(len(data) - offset)
                    return
                raise WalCorruption(f"bad CRC at offset {offset}")
            value, consumed = load_value(body, 0)
            if consumed != length:
                raise WalCorruption(f"bad record length at offset {offset}")
            if keep is not None and not keep(value):
                self.replay_skipped += 1
            else:
                yield value
            offset = body_end

    def _drop_tail(self, nbytes: int) -> None:
        self.replay_dropped += 1
        self.replay_dropped_bytes += nbytes

    def truncate(self) -> None:
        """Discard the log after a successful checkpoint/commit."""
        self._buffer.clear()

    def simulate_torn_tail(self, drop_bytes: int) -> None:
        """Chop bytes off the end (crash injection for tests)."""
        if drop_bytes > 0:
            del self._buffer[-drop_bytes:]

    def corrupt_byte(self, offset: int) -> None:
        """Flip one byte (corruption injection for tests)."""
        self._buffer[offset] ^= 0xFF
