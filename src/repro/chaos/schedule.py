"""Seeded fault-program generation.

A chaos *schedule* is a list of :class:`ChaosStep` records drawn from one
seeded RNG: workload steps (create / delete / query / advance) mixed with
fault steps (crashes, restarts with torn WAL tails, message-fault phases,
stragglers, disk errors).  Generation is pure — the same seed and length
always produce the same program — and runtime-safety decisions (never
crash the last live node, only recover a down node) are made by the
runner from equally deterministic state, so a schedule never needs to
predict cluster liveness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List

# Step kinds, with generation weights.  Workload dominates; faults are
# frequent enough that a 50-step program exercises every kind.
_WEIGHTED_OPS = [
    ("create_files", 22),
    ("delete_file", 8),
    ("query", 16),
    ("advance", 16),
    ("crash_node", 7),
    ("crash_restart_wal", 5),
    ("recover_node", 9),
    ("set_message_faults", 5),
    ("clear_faults", 4),
    ("slow_node", 3),
    ("disk_errors", 3),
    ("migrate_partition", 4),
    ("flush", 2),
]

# Extra ops mixed in only when a schedule opts into master faults
# (``build_schedule(..., master_faults=True)``).  Kept out of the
# baseline list so every pre-existing seeded schedule keeps drawing the
# byte-identical program it always did.
_MASTER_FAULT_OPS = [
    ("master_crash", 4),
    ("master_isolation", 3),
]

# Extra ops mixed in only when a schedule opts into tiered storage
# (``build_schedule(..., tiering=True)``).  Same opt-in rule as the
# master-fault pool: the baseline op list keeps drawing the
# byte-identical program it always did.
_TIERING_OPS = [
    ("object_store_errors", 4),
    ("slow_hydration", 3),
    # Memory pressure evicts the node-local segment cache,
    # so the next frozen-partition search must revisit the cold tier —
    # without it, settle-point hydrations would leave every segment
    # cached and the two fault ops above would never fire mid-schedule.
    ("cache_pressure", 4),
]


@dataclass(frozen=True)
class ChaosStep:
    """One step of a fault program: an op name plus its parameters."""

    index: int
    op: str
    params: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"[{self.index}] {self.op}({inner})"


def build_schedule(seed: int, steps: int, nodes: int,
                   master_faults: bool = False,
                   tiering: bool = False) -> List[ChaosStep]:
    """Generate a deterministic ``steps``-long fault program.

    ``nodes`` is the Index Node count; node-targeted steps carry a node
    *ordinal* (the runner maps it onto the node list) so the same program
    is meaningful for any cluster of that size.  ``master_faults`` mixes
    control-plane faults (crash the acting Master, isolate it off the
    network) into the op pool; ``tiering`` mixes in cold-tier faults
    (object-store read errors, slow hydration).  With both off (the
    default), the generated program is byte-identical to what this
    function always produced.
    """
    if steps < 1:
        raise ValueError(f"steps must be positive: {steps}")
    if nodes < 1:
        raise ValueError(f"nodes must be positive: {nodes}")
    rng = random.Random(seed)
    weighted = (_WEIGHTED_OPS
                + (_MASTER_FAULT_OPS if master_faults else [])
                + (_TIERING_OPS if tiering else []))
    ops = [op for op, weight in weighted for _ in range(weight)]
    program: List[ChaosStep] = []
    for i in range(steps):
        if i == 0:
            # Every program opens with data so early faults have stakes.
            program.append(ChaosStep(i, "create_files",
                                     {"count": 8 + rng.randrange(8)}))
            continue
        op = rng.choice(ops)
        params: Dict[str, Any] = {}
        if op == "create_files":
            params["count"] = 1 + rng.randrange(12)
        elif op == "delete_file":
            params["pick"] = rng.randrange(1 << 30)
        elif op == "advance":
            params["seconds"] = round(0.5 + 19.5 * rng.random(), 3)
        elif op in ("crash_node", "recover_node", "slow_node"):
            params["node"] = rng.randrange(nodes)
            if op == "crash_node":
                params["torn_tail_bytes"] = (
                    rng.choice([0, 0, 7, 16, 40]))
            if op == "slow_node":
                params["extra_s"] = round(0.02 + 0.2 * rng.random(), 4)
        elif op == "crash_restart_wal":
            params["node"] = rng.randrange(nodes)
            params["torn_tail_bytes"] = rng.choice([0, 5, 11, 23, 64])
        elif op == "set_message_faults":
            params["drop"] = round(rng.choice([0.05, 0.1, 0.2]), 3)
            params["duplicate"] = round(rng.choice([0.05, 0.1, 0.2]), 3)
            params["delay"] = round(rng.choice([0.0, 0.1, 0.3]), 3)
            params["delay_s"] = round(0.01 + 0.09 * rng.random(), 4)
        elif op == "disk_errors":
            params["rate"] = round(rng.choice([0.01, 0.05, 0.1]), 3)
        elif op == "migrate_partition":
            params["pick"] = rng.randrange(1 << 30)
            params["target"] = rng.randrange(nodes)
        elif op == "master_crash":
            # Long enough that the standby's lease expires mid-outage
            # (3 missed 2s ticks against a 10s lease) on most draws.
            params["down_s"] = round(6.0 + 20.0 * rng.random(), 3)
        elif op == "master_isolation":
            params["duration_s"] = round(6.0 + 14.0 * rng.random(), 3)
        elif op == "object_store_errors":
            params["rate"] = round(rng.choice([0.05, 0.1, 0.25]), 3)
        elif op == "slow_hydration":
            params["extra_s"] = round(0.05 + 0.45 * rng.random(), 4)
            params["probability"] = round(rng.choice([0.25, 0.5, 1.0]), 3)
        program.append(ChaosStep(i, op, params))
    return program
