"""Shared fixtures for the repro test suite."""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import settings

from repro.cluster import PropellerService
from repro.cluster.index_node import IndexNode
from repro.core.partitioner import PartitioningPolicy
from repro.fs.vfs import VirtualFileSystem
from repro.indexstructures import IndexKind
from repro.obs.journal import NULL_JOURNAL
from repro.obs.metrics import MetricsRegistry
from repro.sim.clock import SimClock
from repro.sim.machine import Machine
from repro.sim.network import NetworkModel
from repro.sim.objectstore import SimObjectStore
from repro.sim.rpc import RpcNetwork

# ``--hypothesis-profile deep``: the budget CI's chaos-smoke job gives the
# two cluster state machines — derandomized, so a failure there is the
# same failure on every run.  500 examples is what it took the operations
# machine to find the twice-indexed rewrite at the commit that had it.
settings.register_profile("deep", max_examples=500, derandomize=True,
                          deadline=None)


def machine_examples(tier1: int) -> int:
    """``max_examples`` for a cluster state machine: the ``deep``
    profile's when it is the active one, else tier-1's small budget."""
    deep = settings.get_profile("deep")
    return deep.max_examples if settings.default is deep else tier1


def whole_node(name: str = "in1", machine: Optional[Machine] = None,
               rpc: Optional[RpcNetwork] = None,
               journal=NULL_JOURNAL) -> IndexNode:
    """An Index Node built whole, as a deployment builds one, and
    registered on ``rpc``: a network of its own unless one is given
    (nodes built on one network reach each other), and shared storage,
    an object store and a registry of its own."""
    if machine is None:
        machine = Machine(rpc.network.clock if rpc is not None else SimClock())
    clock = machine.clock
    if rpc is None:
        rpc = RpcNetwork(NetworkModel(clock))
    node = IndexNode(name, machine, rpc, VirtualFileSystem(clock),
                     SimObjectStore(clock), MetricsRegistry(), journal=journal)
    rpc.add_endpoint(node.endpoint)
    return node


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def machine(clock: SimClock) -> Machine:
    return Machine(clock)


@pytest.fixture
def vfs(clock: SimClock) -> VirtualFileSystem:
    return VirtualFileSystem(clock)


@pytest.fixture
def service() -> PropellerService:
    """A 4-Index-Node Propeller deployment with a small split threshold
    so partitioning behaviour is observable at test scale."""
    return PropellerService(
        num_index_nodes=4,
        policy=PartitioningPolicy(split_threshold=500, cluster_target=100),
    )


@pytest.fixture
def indexed_service(service: PropellerService):
    """(service, client) with the three standard indices created."""
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    client.create_index("by_kw", IndexKind.HASH, ["keyword"])
    client.create_index("inode_kd", IndexKind.KDTREE, ["size", "mtime"])
    return service, client
