"""Model-based testing of cluster *operations*.

Where ``test_stateful_service`` interleaves data-path operations, this
machine interleaves the control plane — splits, migrations, merges,
rebalancing, checkpoints, node failovers and Master restarts — with live
updates and searches, asserting that no maintenance operation can ever
change what a search returns, and that the Master's state is always what
its meta-log replays to.
"""

import copy
import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.cluster import PropellerService
from repro.core.partitioner import PartitioningPolicy
from repro.indexstructures import IndexKind

from tests.conftest import machine_examples


class OperationsMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.service = PropellerService(
            num_index_nodes=4,
            policy=PartitioningPolicy(split_threshold=25, cluster_target=8))
        self.client = self.service.make_client(batch_size=4)
        self.client.create_index("by_size", IndexKind.BTREE, ["size"])
        self.service.vfs.mkdir("/d")
        self.model = {}
        self.counter = 0
        self.rng = random.Random(0)

    # -- data plane ---------------------------------------------------------

    @rule(count=st.integers(1, 12), size=st.integers(1, 10_000),
          chained=st.booleans())
    def add_files(self, count, size, chained):
        # One producer chains its files into one partition, which grows
        # past the split threshold; spread producers rarely split it.
        pid = 1 if chained else 1 + self.counter // 10
        for _ in range(count):
            path = f"/d/f{self.counter:05d}"
            self.counter += 1
            self.service.vfs.write_file(path, size + self.counter, pid=pid)
            self.client.index_path(path, pid=pid)
            self.model[path] = size + self.counter

    @rule(size=st.integers(1, 10_000))
    def rewrite_one(self, size):
        if not self.model:
            return
        path = sorted(self.model)[self.rng.randrange(len(self.model))]
        self.service.vfs.write_file(path, size, pid=1)    # appends
        self.client.index_path(path, pid=1)
        self.model[path] = self.service.vfs.stat(path).size

    @rule()
    def delete_one(self):
        if not self.model:
            return
        path = sorted(self.model)[self.rng.randrange(len(self.model))]
        self.service.vfs.unlink(path, pid=1)
        del self.model[path]

    # -- control plane ----------------------------------------------------------

    @rule()
    def heartbeats_and_splits(self):
        self.service.master.poll_heartbeats()

    @rule()
    def split_then_rewrite(self):
        """Every file rewritten right after a heartbeat round that may
        split, by a client that has not seen the split: with no search
        in between, each rewrite goes by a pre-split route."""
        self.service.commit_all()
        self.service.master.poll_heartbeats()   # sizes reported
        self.service.master.poll_heartbeats()   # then split
        for path in sorted(self.model):
            self.service.vfs.write_file(path, 1, pid=1)    # appends
            self.client.index_path(path, pid=1)
            self.model[path] = self.service.vfs.stat(path).size
        self.client.flush_updates()
        self.service.commit_all()

    @rule()
    def rebalance(self):
        self.service.master.rebalance(tolerance=0.3)

    @rule()
    def migrate_random_partition(self):
        master = self.service.master
        # Clients place files without telling the Master: ask the owner.
        nodes = self.service.index_nodes
        placed = [p for p in master.partitions.partitions()
                  if p.node and p.partition_id in nodes[p.node].replicas
                  and nodes[p.node].replicas[p.partition_id].file_count]
        if not placed:
            return
        partition = placed[self.rng.randrange(len(placed))]
        target = master.index_nodes[self.rng.randrange(len(master.index_nodes))]
        if target != partition.node:
            master.migrate_partition(partition.partition_id, target)

    @rule()
    def merge_smalls(self):
        self.service.master.merge_small_partitions(min_size=4)

    @rule()
    def checkpoint(self):
        self.service._checkpoint_all()

    @rule()
    def fail_and_recover_a_node(self):
        master = self.service.master
        if len(master.index_nodes) <= 2:
            return
        # Checkpoint first so failover is lossless in this machine.
        self.service.commit_all()
        self.service._checkpoint_all()
        victim = master.index_nodes[self.rng.randrange(len(master.index_nodes))]
        self.service.fail_node(victim)
        self.service.failover(victim)

    @rule()
    def master_restart(self):
        self.service.crash_master()
        self.service.restart_master()

    @rule()
    def pass_time(self):
        self.service.advance(6.0)

    # -- the one property that matters ----------------------------------------------

    @rule(threshold=st.integers(0, 30_000))
    def search_matches_model(self, threshold):
        got = set(self.client.search(f"size>{threshold}"))
        want = {p for p, size in self.model.items() if size > threshold}
        assert got == want, sorted(got ^ want)[:5]

    @invariant()
    def every_file_has_one_home(self):
        """No modelled file is held by two owned replicas — the stale
        copy a second placement leaves behind — and one with nothing
        in flight is held by exactly one."""
        if not hasattr(self, "service"):
            return
        nodes = [self.service.index_nodes[name]
                 for name in self.service.master.index_nodes]
        in_flight = set(self.client._pending_slot)
        for node in nodes:
            for acg_id in node.cache.pending_acgs():
                in_flight.update(u.file_id
                                 for u in node.cache.pending_ops(acg_id))
        for path in self.model:
            ino = self.service.vfs.stat(path).ino
            homes = [(node.name, acg_id) for node in nodes
                     for acg_id, replica in node.replicas.items()
                     if node.owns(acg_id) and ino in replica.store]
            assert len(homes) <= 1, (path, homes)
            assert homes or ino in in_flight, path

    @invariant()
    def replay_equals_live(self):
        """The Master's durable state is exactly what its meta-log
        replays to: ``apply`` is the only writer."""
        if not hasattr(self, "service"):
            return
        master = self.service.master
        replayed = copy.deepcopy(master.meta_wal).recover()
        assert replayed.snapshot() == master.state.snapshot()

    @invariant()
    def loads_account_for_every_file(self):
        if not hasattr(self, "service"):
            return
        master = self.service.master
        total = sum(master.partitions.node_load(n) for n in master.index_nodes)
        mapped = sum(p.size for p in master.partitions.partitions())
        assert total == mapped


TestOperations = OperationsMachine.TestCase
TestOperations.settings = settings(max_examples=machine_examples(10),
                                   stateful_step_count=30, deadline=None)
