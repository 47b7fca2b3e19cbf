"""Model-based stateful testing of the whole Propeller service.

Hypothesis drives random interleavings of create/update/delete/search/
background-time against a live deployment and a trivial oracle (a dict of
indexed files).  The core guarantee under test: **every search reflects
every acknowledged update**, regardless of batching, cache timeouts,
splits, or how operations interleave.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    rule,
)

from repro.cluster import PropellerService
from repro.core.partitioner import PartitioningPolicy
from repro.fs.vfs import OpenMode
from repro.indexstructures import IndexKind

from tests.conftest import machine_examples


class PropellerMachine(RuleBasedStateMachine):
    paths = Bundle("paths")

    @initialize()
    def setup(self) -> None:
        self.service = PropellerService(
            num_index_nodes=2,
            policy=PartitioningPolicy(split_threshold=40, cluster_target=10))
        self.client = self.service.make_client(batch_size=4)
        self.client.create_index("by_size", IndexKind.BTREE, ["size"])
        self.service.vfs.mkdir("/d")
        self.model = {}          # path -> last indexed size
        self.counter = 0

    @rule(target=paths, size=st.integers(1, 1_000_000))
    def create_and_index(self, size):
        path = f"/d/f{self.counter:04d}"
        self.counter += 1
        self.service.vfs.write_file(path, size, pid=1)
        self.client.index_path(path, pid=1)
        self.model[path] = size
        return path

    @rule(path=paths, extra=st.integers(1, 1_000_000))
    def grow_and_reindex(self, path, extra):
        if path not in self.model:
            return
        fd = self.service.vfs.open(path, OpenMode.WRITE, pid=1)
        self.service.vfs.write(fd, extra)
        self.service.vfs.close(fd)
        self.client.index_path(path, pid=1)
        self.model[path] = self.service.vfs.stat(path).size

    @rule(path=consumes(paths))
    def unlink(self, path):
        if path not in self.model:
            return
        self.service.vfs.unlink(path, pid=1)
        del self.model[path]

    @rule(seconds=st.sampled_from([0.5, 3.0, 6.0, 31.0]))
    def pass_time(self, seconds):
        self.service.advance(seconds)

    @rule()
    def maintenance(self):
        self.service.master.poll_heartbeats()

    @rule(threshold=st.integers(0, 1_000_000))
    def search_matches_model(self, threshold):
        got = set(self.client.search(f"size>{threshold}"))
        want = {p for p, size in self.model.items() if size > threshold}
        assert got == want, (sorted(got ^ want), threshold)

    @invariant()
    def partition_mapping_is_consistent(self):
        if not hasattr(self, "service"):
            return
        manager = self.service.master.partitions
        for partition in manager.partitions():
            for file_id in partition.files:
                assert manager.partition_of(file_id) == partition.partition_id


TestPropellerStateful = PropellerMachine.TestCase
TestPropellerStateful.settings = settings(
    max_examples=machine_examples(12), stateful_step_count=25, deadline=None)
