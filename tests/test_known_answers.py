"""Known answers: a search asks to skip every partition whose answer the
client already holds, and the owning node validates the stamp.

A client keeps the last stamped answer of each partition per query and
sends the stamp in its skip map; the node's watermark fence (exact
watermark, nothing pending) decides whether the held answer still is the
answer.  A derandomised hypothesis run drives a small deployment (RF 1
or 2) through random interleavings of two clients' repeated queries with
writes (flushed, or carried by the writer's own next search), deletes,
renames, a split, a migration, a node failure (a promotion at RF 2),
freezing and thawing, a straggling primary, ``drop_caches`` and
time-dependent predicates.  Every answer must equal a fresh unpruned
search (a third client with ``prune_searches`` off) and a brute-force
oracle over an independent model of what was indexed.  Two structural
checks ride along: a held answer is always a primary's answer under that
primary's stamp, and a repeat with nothing in between runs the query on
no node.
"""

import random
from typing import Any, Dict, FrozenSet, Optional, Set, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos.faults import FaultInjector
from repro.cluster import PropellerService
from repro.core.partitioner import PartitioningPolicy
from repro.indexstructures import IndexKind
from repro.query.ast import matches, tokenize_path
from repro.query.parser import parse_query
from repro.query.prepared import PreparedQuery

from tests.conftest import machine_examples

PATHS = [f"/d/src/f{i}.c" for i in range(5)] + \
        [f"/d/doc/g{i}.txt" for i in range(5)]
QUERIES = ["size>3000", "size<=2500", "size>=1", "keyword:src",
           "keyword:doc & size>2000", "size>5000 | keyword:txt",
           "mtime<20s", "mtime<20s & size>2000"]
FILE = st.integers(0, len(PATHS) - 1)
QUERY = st.integers(0, len(QUERIES) - 1)
WHO = st.sampled_from("AB")
OPS = st.one_of(
    st.tuples(st.just("write"), FILE, st.integers(1, 4000)),
    st.tuples(st.just("carry"), FILE, st.integers(1, 4000), QUERY),
    st.tuples(st.just("delete"), FILE),
    st.tuples(st.just("rename"), FILE),
    st.tuples(st.just("search"), QUERY, WHO),
    st.tuples(st.just("repeat"), QUERY, WHO),
    st.just(("split",)),
    st.just(("migrate",)),
    st.just(("fail_node",)),
    st.just(("freeze",)),
    st.just(("thaw",)),
    st.just(("straggle",)),
    st.just(("drop_caches",)),
    st.just(("advance",)),
)

# file id -> (attributes, path keywords) as the index was last told.
Model = Dict[int, Tuple[Dict[str, Any], FrozenSet[str]]]


def owner(i: int) -> str:
    """The client that indexes file slot ``i``: a file is placed by the
    client that indexes it, so each file keeps one writer."""
    return "AB"[i % 2]


class World:
    """One deployment, its three clients and the oracle's model."""

    def __init__(self, rf: int) -> None:
        self.service = PropellerService(
            num_index_nodes=3, replication_factor=rf,
            policy=PartitioningPolicy(split_threshold=6, cluster_target=3))
        self.clients = {who: self.service.make_client() for who in "ABC"}
        self.clients["C"].prune_searches = False   # the fresh unpruned run
        self.clients["A"].create_index("by_size", IndexKind.BTREE, ["size"])
        self.clients["A"].create_index("by_kw", IndexKind.HASH, ["keyword"])
        self.model: Model = {}
        self.rng = random.Random(0)
        self.faults = FaultInjector(seed=1, registry=self.service.registry)
        self.service.rpc.faults = self.faults
        vfs = self.service.vfs
        for directory in ("/d", "/d/src", "/d/doc"):
            vfs.mkdir(directory)
        for i, path in enumerate(PATHS):
            vfs.write_file(path, 1000 * (i % 6) + 10, pid=1 + i // 5)
            self.index(path, owner(i), pid=1 + i // 5)
        self.flush()
        self.service.advance(6.0)

    # -- the model ---------------------------------------------------------------

    def index(self, path: str, who: str, pid: int = 1) -> None:
        """Index ``path`` through one client and record what it sent."""
        self.clients[who].index_path(path, pid=pid)
        self.remember(path)

    def remember(self, path: str) -> None:
        inode = self.service.vfs.stat(path)
        attrs = {name: getattr(inode, name)
                 for name in ("size", "mtime", "ctime", "uid")}
        self.model[inode.ino] = (dict(attrs, path=path), tokenize_path(path))

    def oracle(self, query: str, now: float) -> Set[str]:
        predicate = parse_query(query)
        return {attrs["path"] for attrs, keywords in self.model.values()
                if matches(predicate, attrs, keywords, now)}

    def live(self, i: int) -> Optional[str]:
        """The current path of file slot ``i`` (renames move it between
        ``name`` and ``name.r``), or None once it was deleted."""
        for path in (PATHS[i], PATHS[i] + ".r"):
            if self.service.vfs.exists(path):
                return path
        return None

    def flush(self) -> None:
        for client in self.clients.values():
            client.flush_updates()

    # -- checks ----------------------------------------------------------------------

    def search(self, query: str, who: str) -> int:
        """One client's search, checked; returns how many partitions it
        ran the query on."""
        clock, registry = self.service.clock, self.service.registry
        start = clock.now()
        counter = registry.counter("search.partitions_searched")
        searched = counter.value
        got = self.clients[who].search(query)
        searched = counter.value - searched
        held_are_primary_answers(self.clients[who])
        fresh = self.clients["C"].search(query)
        end = clock.now()
        if PreparedQuery(parse_query(query)).time_dependent:
            # The bound moves with the clock: a file whose age crossed it
            # during the two searches may fall either way.
            both = self.oracle(query, start) & self.oracle(query, end)
            either = self.oracle(query, start) | self.oracle(query, end)
            for answer in (got, fresh):
                assert both <= set(answer) <= either, (query, who)
            return searched
        want = sorted(self.oracle(query, start))
        assert fresh == want, (query, "fresh")
        assert got == want, (query, who)
        return searched

    def repeat(self, query: str, who: str) -> None:
        """Search twice back to back: with every part of the first answer
        stamped by its partition's owner and no watermark or route moving
        in between, the second runs the query on no node."""
        self.search(query, who)
        client = self.clients[who]
        outcome = client.last_outcome
        stamped = {r.acg_id for r in outcome.results} <= outcome.stamps.keys()
        marks, routes = watermarks(self.service), dict(client._route_nodes)
        searched = self.search(query, who)
        if (stamped and not outcome.degraded and not outcome.stale
                and not PreparedQuery(parse_query(query)).time_dependent
                and client._route_nodes == routes
                and watermarks(self.service) == marks):
            assert searched == 0, query


def watermarks(service) -> Dict[Tuple[str, int], Tuple]:
    return {(name, acg_id): node.watermark(acg_id)
            for name, node in service.index_nodes.items()
            for acg_id in node.replicas}


def held_are_primary_answers(client) -> None:
    """A held answer is a primary's, under that primary's own stamp."""
    for held in client._held.values():
        for acg_id, (stamp, result) in held.parts.items():
            assert result.acg_id == acg_id and result.node == stamp[0], \
                (acg_id, stamp, result.node)


def run(rf: int, ops) -> None:
    world = World(rf)
    service, vfs = world.service, world.service.vfs
    for op in ops:
        kind = op[0]
        if kind in ("write", "carry"):
            path = world.live(op[1])
            if path is None:
                continue
            who = owner(op[1])
            vfs.write_file(path, op[2], pid=1 + op[1] // 5)
            world.index(path, who, pid=1 + op[1] // 5)
            if kind == "carry":
                # Left pending: the writer's own search carries it.
                world.search(QUERIES[op[3]], who)
            world.flush()
        elif kind == "delete":
            path = world.live(op[1])
            if path is None:
                continue
            ino = vfs.stat(path).ino
            vfs.unlink(path, pid=1)
            world.model.pop(ino, None)
            world.flush()
        elif kind == "rename":
            path = world.live(op[1])
            if path is None:
                continue
            new = path[:-2] if path.endswith(".r") else path + ".r"
            vfs.rename(path, new)
            world.remember(new)
            world.flush()
        elif kind == "search":
            world.search(QUERIES[op[1]], op[2])
        elif kind == "repeat":
            world.repeat(QUERIES[op[1]], op[2])
        elif kind == "split":
            service.commit_all()
            service.master.poll_heartbeats()
            service.master.poll_heartbeats()
        elif kind == "migrate":
            master = service.master
            placed = [p for p in master.partitions.partitions()
                      if p.node and p.node in master.index_nodes
                      and service.index_nodes[p.node].endpoint.up]
            if placed:
                partition = placed[world.rng.randrange(len(placed))]
                targets = [n for n in master.index_nodes
                           if n != partition.node
                           and service.index_nodes[n].endpoint.up]
                if targets:
                    master.migrate_partition(partition.partition_id,
                                             targets[0])
        elif kind == "fail_node":
            # Lossless: everything committed and checkpointed first, then
            # the node fails over (a promotion at RF 2) and rejoins.
            service.commit_all()
            service._checkpoint_all()
            victim = sorted(service.master.index_nodes)[
                world.rng.randrange(len(service.master.index_nodes))]
            service.fail_node(victim)
            service.failover(victim)
            service.recover_node(victim)
        elif kind == "freeze":
            service.set_tiering(True, freeze_age_s=1.0, min_bytes=1)
            service.advance(6.0)
        elif kind == "thaw":
            service.set_tiering(False)
        elif kind == "straggle":
            if world.faults.slow_nodes:
                world.faults.slow_nodes.clear()
            else:
                world.faults.slow_node(
                    sorted(service.index_nodes)[world.rng.randrange(3)], 1.0)
        elif kind == "drop_caches":
            service.drop_caches()
        elif kind == "advance":
            service.advance(6.0)


@settings(max_examples=machine_examples(25), derandomize=True, deadline=None)
# Another client's flushed update is parked, not committed, when the
# held answer's watermark is checked.
@example(1, [("search", 0, "A"), ("write", 1, 3500),
             ("search", 0, "A")])
# A parked update commits in the search that stamps the answer; the
# repeat finds the partition where that stamp left it.
@example(1, [("search", 0, "A"), ("write", 1, 3500),
             ("repeat", 0, "A")])
# A time-dependent answer changes with the clock alone.
@example(1, [("search", 6, "A"), ("advance",), ("search", 6, "A"),
             ("advance",), ("advance",), ("advance",), ("search", 6, "A")])
# One part changes under an unchanged merged list.
@example(1, [("search", 2, "A"), ("search", 2, "A"),
             ("write", 2, 100), ("search", 2, "A")])
# A follower wins the race while the primary straggles.
@example(2, [("search", 2, "A"), ("straggle",), ("write", 1, 100),
             ("search", 2, "A"), ("straggle",), ("search", 2, "A")])
@given(st.sampled_from([1, 2]), st.lists(OPS, min_size=1, max_size=20))
def test_every_answer_matches_a_fresh_unpruned_search_and_the_oracle(rf, ops):
    run(rf, ops)


def test_a_repeat_is_answered_from_held_answers():
    """The plain case the property generalises: nothing changed, so the
    repeat searches nothing, reuses every partition it holds an answer
    for, and still answers the same."""
    world = World(1)
    client, registry = world.clients["A"], world.service.registry
    first = client.search("size>=1")
    assert first == sorted(world.oracle("size>=1", world.service.clock.now()))
    held = sum(len(h.parts) for h in client._held.values())
    assert held > 0
    searched = registry.value("search.partitions_searched")
    reused = registry.value("search.partitions_reused")
    assert client.search("size>=1") == first
    assert registry.value("search.partitions_searched") == searched
    assert registry.value("search.partitions_reused") == reused + held


def test_pruning_off_holds_nothing_and_drop_caches_forgets():
    world = World(1)
    client = world.clients["A"]
    client.search("size>=1")
    assert any(h.parts for h in client._held.values())
    world.service.drop_caches()
    assert not client._held
    client.prune_searches = False
    client.search("size>=1")
    assert not client._held
