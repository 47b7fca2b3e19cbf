"""Master-side replica-set membership and watermark bookkeeping.

One :class:`ReplicaSetState` per partition records who the followers are,
the replication epoch (bumped on every membership change, promotion, or
log-generation restart, so a deposed primary's late stream is rejected),
and the applied/acked sequence watermarks the heartbeat loop reports.
The :class:`ReplicaSetManager` owns the map and the promotion-candidate
logic: a follower is *viable* for promotion exactly when it is in the
current replication epoch and its applied sequence has caught up to the
last sequence the dead primary was known to have committed.

Sequence numbers are only comparable **within one epoch**: a split,
merge, adoption, or install restarts the primary's replication log at
zero, so every epoch bump zeroes ``primary_seq`` and the per-follower
watermark maps instead of carrying stale-generation maxima forward.
(Promotion is the one exception — the promoted primary continues the
old sequence from its applied watermark — so its bump fences without
zeroing.)  The epoch and followers are the Master's durable state: its
meta-log sets them (:meth:`ReplicaSetManager.install`), and the one
other writer is a heartbeat reporting a newer epoch than recorded
(:meth:`ReplicaSetManager._enter_epoch`).  The watermarks are soft.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class ReplicaSetState:
    """Replication status of one partition, as the Master last heard it."""

    acg_id: int
    followers: Tuple[str, ...] = ()
    repl_epoch: int = 1
    # Last committed sequence the primary reported (its log's last_seq).
    primary_seq: int = 0
    # follower node -> applied sequence, from follower heartbeats.
    applied: Dict[str, int] = field(default_factory=dict)
    # follower node -> acked sequence, from the primary's heartbeat (what
    # the primary believes it has successfully streamed).
    acked: Dict[str, int] = field(default_factory=dict)


class ReplicaSetManager:
    """Tracks replica sets for every partition when RF > 1."""

    def __init__(self) -> None:
        self._sets: Dict[int, ReplicaSetState] = {}

    def state(self, acg_id: int) -> ReplicaSetState:
        """Get or create the partition's replica-set state."""
        st = self._sets.get(acg_id)
        if st is None:
            st = self._sets[acg_id] = ReplicaSetState(acg_id)
        return st

    def get(self, acg_id: int) -> Optional[ReplicaSetState]:
        return self._sets.get(acg_id)

    def drop(self, acg_id: int) -> None:
        """Forget a partition (merged away)."""
        self._sets.pop(acg_id, None)

    def set_followers(self, acg_id: int, followers: Tuple[str, ...],
                      force: bool = False) -> int:
        """The repl epoch an assignment of ``followers`` must record.

        A no-op (same followers) keeps the current epoch so steady-state
        reassignment retries do not churn epochs — unless ``force`` is
        set, which callers use after a content change outside the
        replication stream (split, merge, adoption, install): the
        primary's log restarted, so the old epoch's watermarks are no
        longer comparable and a bump is mandatory even with unchanged
        membership.  Every bump zeroes the watermark state: sequences
        from the previous epoch must never gate (or satisfy) promotion
        in the new one.  Membership and epoch themselves change only
        when the Master's ``repl`` meta record lands (:meth:`install`).
        """
        st = self.state(acg_id)
        if not force and st.followers == followers:
            return st.repl_epoch
        st.primary_seq = 0
        st.applied = {f: 0 for f in followers}
        st.acked = {f: 0 for f in followers}
        return st.repl_epoch + 1

    def _enter_epoch(self, st: ReplicaSetState, repl_epoch: int) -> None:
        """Adopt a newer epoch reported by a node.

        A report from a higher epoch than recorded means the primary
        restarted its log generation (``_reset_repl`` self-bumps) before
        this Master's own bump landed, or a bump raced a heartbeat.
        Old-generation watermarks are not comparable to the new log's
        sequences, so they are dropped rather than kept as maxima —
        keeping them would both unsoundly qualify stale replicas for
        promotion and permanently over-raise the viability bar.
        """
        if repl_epoch > st.repl_epoch:
            st.repl_epoch = repl_epoch
            st.primary_seq = 0
            st.applied = {f: 0 for f in st.followers}
            st.acked = {f: 0 for f in st.followers}

    def record_primary(self, acg_id: int, repl_epoch: int, last_seq: int,
                       acked: Tuple[Tuple[str, int], ...]) -> None:
        """Fold a primary's heartbeat report into the state."""
        st = self._sets.get(acg_id)
        if st is None or repl_epoch < st.repl_epoch:
            return  # unrecorded, or a stale primary (pre-promotion)
        self._enter_epoch(st, repl_epoch)
        st.primary_seq = max(st.primary_seq, last_seq)
        for follower, seq in acked:
            if seq > st.acked.get(follower, 0):
                st.acked[follower] = seq

    def record_follower(self, acg_id: int, node: str, repl_epoch: int,
                        applied_seq: int) -> None:
        """Fold a follower's heartbeat report into the state."""
        st = self._sets.get(acg_id)
        if st is None or repl_epoch < st.repl_epoch:
            return
        self._enter_epoch(st, repl_epoch)
        if applied_seq > st.applied.get(node, 0):
            st.applied[node] = applied_seq

    def promotion_candidates(self, acg_id: int) -> List[Tuple[str, int]]:
        """Followers ordered most-caught-up first as (node, applied_seq)."""
        st = self._sets.get(acg_id)
        if st is None:
            return []
        return sorted(((f, st.applied.get(f, 0)) for f in st.followers),
                      key=lambda pair: (-pair[1], pair[0]))

    def install(self, acg_id: int, repl_epoch: int,
                followers: Tuple[str, ...]) -> None:
        """Record one partition's durable epoch and membership (the
        Master meta-log's ``repl`` record).  Watermarks are soft and left
        to the caller: a generation restart zeroes them first
        (:meth:`set_followers`), a promotion carries them over."""
        st = self.state(acg_id)
        st.followers = followers
        st.repl_epoch = repl_epoch

    def partitions(self) -> List[int]:
        """Every tracked partition id, sorted."""
        return sorted(self._sets)
