"""Tiered index storage: frozen segments, the segment cache, the
simulated object store, and the freeze/thaw/hydrate lifecycle.

The load-bearing property throughout is *byte-identical answers*: a
frozen partition must return exactly what the live B+tree/hash path
would, whether the answer came from the summary sidecar (provably
empty), the segment cache, a fresh hydration, or the
degrade-to-live-replica fallback.
"""

import itertools

import pytest

from repro.chaos.faults import FaultInjector
from repro.cluster import PropellerService
from repro.cluster.index_node import AcgReplica
from repro.cluster.messages import IndexUpdate
from repro.cluster.segments import (
    SegmentCache,
    TierPolicy,
    dump_segment,
    encode_segment,
    load_segment,
    segment_key,
)
from repro.core.partitioner import PartitioningPolicy
from repro.errors import SegmentCorruption
from repro.fs.vfs import OpenMode
from repro.indexstructures import IndexKind
from repro.query import parse_query
from repro.query.ast import matches
from repro.sim.clock import SimClock
from repro.sim.machine import Machine
from repro.sim.objectstore import ObjectStoreModel, SimObjectStore


def build(tiering=False, **tier_kwargs):
    service = PropellerService(
        num_index_nodes=3,
        policy=PartitioningPolicy(split_threshold=500, cluster_target=24),
    )
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    if tiering:
        service.set_tiering(True, **tier_kwargs)
    return service, client


def populate(service, client, n=120, pid=9):
    vfs = service.vfs
    vfs.mkdir("/data")
    paths = []
    for i in range(n):
        size = 64 * 1024**2 if i % 10 == 0 else 1024 + 7 * i
        path = f"/data/file{i:05d}.bin"
        vfs.write_file(path, size, pid=pid)
        paths.append(path)
    client.index_paths(paths, pid=pid)
    client.flush_updates()
    service.commit_all()
    return paths


def freeze_all(service):
    """Advance past the freeze age so every cold partition freezes."""
    service.advance(30.0)
    return sum(len(n.frozen) for n in service.index_nodes.values())


# -- segment round-trip -----------------------------------------------------------


class TestSegmentRoundTrip:
    def test_dump_load_preserves_search_answers(self):
        service, client = build()
        populate(service, client)
        node = next(n for n in service.index_nodes.values() if n.replicas)
        now = service.clock.now()
        predicate = parse_query("size>16m")
        for acg_id, replica in sorted(node.replicas.items()):
            view = load_segment(dump_segment(replica, node.name))
            assert view.acg_id == acg_id
            assert view.file_count() == replica.file_count
            oracle = {fid for fid in replica.store.file_ids()
                      if replica.store.attrs(fid)["size"] > 16 * 1024**2}
            assert view.search(predicate, now) == oracle
            # The postings-assisted answer equals the reference scan.
            kw = parse_query("keyword:file00010")
            assert view.search(kw, now) == {
                fid for fid in replica.store.file_ids()
                if matches(kw, replica.store.attrs(fid),
                           replica.store.keywords(fid), now)}

    def test_dump_is_canonical(self):
        service, client = build()
        populate(service, client, n=40)
        node = next(n for n in service.index_nodes.values() if n.replicas)
        replica = node.replicas[min(node.replicas)]
        ids = sorted(replica.store.file_ids())
        for file_id in ids:
            replica.graph.add_file(file_id)
        assert encode_segment(replica, node.name) \
            == encode_segment(replica, node.name)
        # Freezing is the same writer under the cold tier's name.
        assert dump_segment(replica, node.name) \
            == encode_segment(replica, node.name)
        # The subset form (a split's moving half) too — for equal sets
        # that iterate in different orders, as an induced subgraph's
        # vertices would otherwise follow.
        one, other = next(
            (set(pair), set(reversed(pair)))
            for pair in itertools.combinations(ids, 2)
            if list(set(pair)) != list(set(reversed(pair))))
        assert one == other
        assert replica.graph.subgraph(one).to_records() \
            != replica.graph.subgraph(other).to_records()
        assert encode_segment(replica, node.name, file_ids=one) \
            == encode_segment(replica, node.name, file_ids=other)
        # ... and it is not the full dump under another name.
        half = set(ids[::2])
        view = load_segment(encode_segment(replica, node.name, file_ids=half))
        assert view.file_count() == len(half) < replica.file_count
        assert {v for v, _, _ in view.acg_records} == half

    def test_payload_shape_matches_checkpoint(self):
        service, client = build()
        populate(service, client, n=40)
        node = next(n for n in service.index_nodes.values() if n.replicas)
        replica = node.replicas[min(node.replicas)]
        view = load_segment(dump_segment(replica, node.name))
        assert view.acg_id == replica.acg_id
        assert view.file_count() == replica.file_count
        assert [fid for fid, _, _ in view.rows()] \
            == sorted(replica.store.file_ids())
        for fid, attrs, path in view.rows():
            assert dict(attrs, path=path) == replica.store.attrs(fid)
            assert view.attrs(fid) == replica.store.attrs(fid)
            assert path.startswith("/data/")
        assert view.snapshot == replica.summary.snapshot(
            replica.acg_id, (node.name, replica.incarnation, replica.applied),
            dirty=False, file_count=replica.file_count)

    def test_corruption_detected(self):
        service, client = build()
        populate(service, client, n=40)
        node = next(n for n in service.index_nodes.values() if n.replicas)
        replica = node.replicas[min(node.replicas)]
        data = dump_segment(replica, node.name)
        with pytest.raises(SegmentCorruption):
            load_segment(b"JUNK" + data[4:])
        with pytest.raises(SegmentCorruption):
            load_segment(data[:-3])  # torn tail fails the CRC
        flipped = bytearray(data)
        flipped[40] ^= 0xFF
        with pytest.raises(SegmentCorruption):
            load_segment(bytes(flipped))

    def test_every_bit_flip_and_truncation_is_rejected(self):
        """Exhaustive, not sampled: the one serialized form of a
        partition rejects every single-bit flip and every proper prefix
        with SegmentCorruption — no other exception type, never a view,
        and at validation time: the lazy reader is never reached.  The
        CRC covers the header too (magic, version, acg id, body length),
        so a flipped acg id is not another partition's segment, and a
        segment with anything appended is as torn as a truncated one."""
        service, client = build()
        populate(service, client, n=6)
        node = next(n for n in service.index_nodes.values() if n.replicas)
        replica = node.replicas[min(node.replicas)]
        data = dump_segment(replica, node.name)
        assert load_segment(data).file_count() == replica.file_count
        assert len(data) < 2048  # keeps the sweep well under a second
        for cut in range(len(data)):
            with pytest.raises(SegmentCorruption):
                load_segment(data[:cut])
        for bit in range(8 * len(data)):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(SegmentCorruption):
                load_segment(bytes(flipped))
        with pytest.raises(SegmentCorruption):
            load_segment(data + b"\x00")


# -- freeze / search equivalence --------------------------------------------------


class TestFreezeSearchEquivalence:
    def test_frozen_answers_byte_identical_to_live(self):
        cold_service, cold_client = build(tiering=True, freeze_age_s=3.0,
                                          min_bytes=1)
        live_service, live_client = build()
        populate(cold_service, cold_client)
        populate(live_service, live_client)
        assert freeze_all(cold_service) > 0
        live_service.advance(30.0)
        for query in ("size>16m", "size<=2000", "keyword:file00013"):
            assert cold_client.search(query) == live_client.search(query)

    def test_pruned_equals_unpruned_on_frozen(self):
        service, client = build(tiering=True, freeze_age_s=3.0, min_bytes=1)
        populate(service, client)
        assert freeze_all(service) > 0
        client.prune_searches = False
        unpruned = client.search("size>16m")
        client.prune_searches = True
        assert client.search("size>16m") == unpruned

    def test_summary_prunes_provably_empty_frozen_partition(self):
        service, client = build(tiering=True, freeze_age_s=3.0, min_bytes=1)
        populate(service, client)
        assert freeze_all(service) > 0
        client.prune_searches = False  # force fan-out to the frozen nodes
        assert client.search("size>900g") == []
        prunes = sum(n.tier_summary_prunes
                     for n in service.index_nodes.values())
        hydrations = sum(n.tier_hydrations
                         for n in service.index_nodes.values())
        assert prunes > 0
        assert hydrations == 0  # the cold tier was never touched

    def test_repeat_search_hits_segment_or_result_cache(self):
        service, client = build(tiering=True, freeze_age_s=3.0, min_bytes=1)
        populate(service, client)
        assert freeze_all(service) > 0
        first = client.search("size>16m")
        store_gets = service.object_store.stats.gets
        assert client.search("size>16m") == first
        assert service.object_store.stats.gets == store_gets


# -- thaw -------------------------------------------------------------------------


class TestThaw:
    def test_write_thaws_and_search_sees_it(self):
        service, client = build(tiering=True, freeze_age_s=3.0, min_bytes=1)
        populate(service, client)
        assert freeze_all(service) > 0
        vfs = service.vfs
        fd = vfs.open("/data/file00001.bin", OpenMode.WRITE, pid=9)
        vfs.write(fd, 128 * 1024**2)
        vfs.close(fd)
        client.index_path("/data/file00001.bin", pid=9)
        client.flush_updates()
        assert "/data/file00001.bin" in client.search("size>100m")
        assert sum(n.tier_thaws for n in service.index_nodes.values()) >= 1

    def test_thaw_deletes_cold_object(self):
        service, client = build(tiering=True, freeze_age_s=3.0, min_bytes=1)
        populate(service, client)
        assert freeze_all(service) > 0
        frozen_keys = {f.key for n in service.index_nodes.values()
                       for f in n.frozen.values()}
        assert frozen_keys <= set(service.object_store.keys())
        service.set_tiering(False)
        assert all(not n.frozen for n in service.index_nodes.values())
        for key in frozen_keys:
            assert not service.object_store.exists(key)

    def test_refreeze_after_thaw(self):
        service, client = build(tiering=True, freeze_age_s=3.0, min_bytes=1)
        populate(service, client)
        assert freeze_all(service) > 0
        vfs = service.vfs
        fd = vfs.open("/data/file00002.bin", OpenMode.WRITE, pid=9)
        vfs.write(fd, 4096)
        vfs.close(fd)
        client.index_path("/data/file00002.bin", pid=9)
        client.flush_updates()
        before = sum(len(n.frozen) for n in service.index_nodes.values())
        service.advance(30.0)
        after = sum(len(n.frozen) for n in service.index_nodes.values())
        assert after > before
        assert client.search("keyword:file00002") == ["/data/file00002.bin"]


# -- fault paths ------------------------------------------------------------------


class TestColdTierFaults:
    def _frozen_node(self, service):
        return next(n for n in service.index_nodes.values() if n.frozen)

    def test_object_errors_degrade_to_live_replica(self):
        service, client = build(tiering=True, freeze_age_s=3.0, min_bytes=1)
        populate(service, client)
        assert freeze_all(service) > 0
        oracle = client.search("size>16m")
        faults = FaultInjector(3, journal=service.journal)
        faults.set_object_error_rate(1.0)
        service.object_store.faults = faults
        for node in service.index_nodes.values():
            node.drop_caches()
        assert client.search("size>16m") == oracle
        assert sum(n.tier_fallbacks
                   for n in service.index_nodes.values()) >= 1
        # Partitions stay frozen: availability degraded, tiering intact.
        assert sum(len(n.frozen) for n in service.index_nodes.values()) > 0
        faults.clear_object_faults()
        for node in service.index_nodes.values():
            node.drop_caches()
        assert client.search("size>16m") == oracle

    def test_corrupt_segment_repairs_from_live_replica(self):
        service, client = build(tiering=True, freeze_age_s=3.0, min_bytes=1)
        populate(service, client)
        assert freeze_all(service) > 0
        oracle = client.search("size>16m")
        store = service.object_store
        for key in store.keys():
            good = store._objects[key]
            store._objects[key] = good[:-4] + b"\x00\x00\x00\x00"
        for node in service.index_nodes.values():
            node.drop_caches()
        assert client.search("size>16m") == oracle
        repaired = sum(n.tier_repairs for n in service.index_nodes.values())
        assert repaired >= 1
        # The re-dumped segments are valid again: a cold re-read hydrates.
        for node in service.index_nodes.values():
            node.drop_caches()
        hydrations = sum(n.tier_hydrations
                         for n in service.index_nodes.values())
        assert client.search("size>16m") == oracle
        assert sum(n.tier_hydrations
                   for n in service.index_nodes.values()) > hydrations

    def test_slow_hydration_charges_time_but_answers(self):
        service, client = build(tiering=True, freeze_age_s=3.0, min_bytes=1)
        populate(service, client)
        assert freeze_all(service) > 0
        oracle = client.search("size>16m")
        faults = FaultInjector(3, journal=service.journal)
        faults.set_hydration_delay(0.5, probability=1.0)
        service.object_store.faults = faults
        for node in service.index_nodes.values():
            node.drop_caches()
        before = service.clock.now()
        assert client.search("size>16m") == oracle
        assert service.clock.now() - before >= 0.5


# -- segment cache ----------------------------------------------------------------


def _view(acg_id, files=8):
    """A view over a real segment of ``files`` rows (nothing decoded)."""
    replica = AcgReplica(acg_id, Machine(SimClock()))
    replica.apply_batch([
        IndexUpdate.upsert(acg_id * 10000 + i, {"size": i},
                           path=f"/d{acg_id}/f{i}")
        for i in range(files)])
    return load_segment(dump_segment(replica, "n1"))


class TestSegmentCache:
    def test_lru_eviction_under_byte_budget(self):
        a, b, c = _view(1), _view(2), _view(3)
        budget = sum(v.resident_bytes() for v in (a, b, c)) - 1
        cache = SegmentCache(budget_bytes=budget, admit_fraction=1.0)
        cache.put("a", a)
        cache.put("b", b)
        assert cache.get("a") is a  # touch: b is now LRU
        cache.put("c", c)
        assert "b" not in cache
        assert cache.get("a") is a and cache.get("c") is c
        assert cache.stats.evictions == 1
        assert cache.estimated_bytes() <= budget

    def test_admission_rejects_oversized(self):
        small, huge = _view(1, files=2), _view(2, files=200)
        cache = SegmentCache(budget_bytes=4 * small.resident_bytes(),
                             admit_fraction=0.25)
        assert cache.put("small", small)
        assert not cache.put("huge", huge)
        assert cache.stats.rejected == 1
        assert "small" in cache and "huge" not in cache

    def test_resize_shrink_evicts(self):
        views = [_view(i) for i in range(4)]
        cache = SegmentCache(budget_bytes=1 << 20, admit_fraction=1.0)
        for i, view in enumerate(views):
            cache.put(f"k{i}", view)
        budget = 2 * views[0].resident_bytes()
        cache.resize(budget)
        assert cache.estimated_bytes() <= budget
        assert 0 < len(cache) < 4
        with pytest.raises(ValueError):
            cache.resize(0)
        # The budget binds the last view as it binds the others.
        cache.resize(1)
        assert len(cache) == 0 and cache.estimated_bytes() == 0

    def test_hit_rate(self):
        cache = SegmentCache(budget_bytes=4096, admit_fraction=1.0)
        cache.put("a", _view(1))
        cache.get("a")
        cache.get("missing")
        assert cache.stats.hit_rate() == 0.5

    def test_decoded_state_is_shed_before_any_bytes_are_evicted(self):
        views = [_view(i) for i in range(3)]
        held = sum(v.resident_bytes() for v in views)
        cache = SegmentCache(budget_bytes=1 << 20, admit_fraction=1.0)
        for i, view in enumerate(views):
            cache.put(f"k{i}", view)
            assert view.search(parse_query("size>=0"), 0.0)
        assert cache.decoded_bytes() > 0
        assert cache.estimated_bytes() == held + cache.decoded_bytes()
        # Room for every segment's bytes and one view's decoded state:
        # the two least recently used views give theirs up, nobody goes.
        cache.resize(held + views[2].decoded_bytes())
        assert len(cache) == 3 and cache.stats.evictions == 0
        assert cache.stats.sheds == 2
        assert [v.decoded_bytes() > 0 for v in views] == [False, False, True]
        # A shed view answers the same, by decoding again.
        decoded = views[0].rows_decoded
        assert len(views[0].search(parse_query("size>=0"), 0.0)) == 8
        assert views[0].rows_decoded == 2 * decoded


# -- tier policy ------------------------------------------------------------------


def test_tier_policy():
    policy = TierPolicy(freeze_age_s=60.0, min_bytes=4096)
    assert policy.should_freeze(100.0, 40.0, 5000)
    assert not policy.should_freeze(100.0, 50.0, 5000)  # too recent
    assert not policy.should_freeze(100.0, 40.0, 100)   # too small


# -- simulated object store -------------------------------------------------------


class TestSimObjectStore:
    def test_request_latency_lands_on_the_clock(self):
        clock = SimClock()
        store = SimObjectStore(clock)
        store.put("k", b"x" * 1000)
        put_t = clock.now()
        assert put_t >= store.model.put_cost_s(1000)
        assert store.get("k") == b"x" * 1000
        assert clock.now() - put_t >= store.model.get_cost_s(1000)

    def test_missing_key_raises_after_paying(self):
        from repro.errors import ObjectStoreError

        clock = SimClock()
        store = SimObjectStore(clock)
        with pytest.raises(ObjectStoreError):
            store.get("nope")
        assert clock.now() > 0.0
        assert store.stats.errors == 1

    def test_storage_cost_accrues_over_virtual_time(self):
        clock = SimClock()
        store = SimObjectStore(clock)
        store.put("k", b"x" * 1024**2)
        base = store.simulated_cost_usd()
        clock.advance_to(clock.now() + 3600.0)
        assert store.simulated_cost_usd() > base

    def test_deterministic_costs(self):
        def run():
            clock = SimClock()
            store = SimObjectStore(clock)
            for i in range(5):
                store.put(f"k{i}", bytes(100 * (i + 1)))
            for i in range(5):
                store.get(f"k{i}")
            store.delete("k0")
            return (clock.now(), store.simulated_cost_usd(),
                    store.stored_bytes(), store.keys())

        assert run() == run()

    def test_overwrite_and_delete_track_bytes(self):
        store = SimObjectStore(SimClock())
        store.put("k", b"a" * 100)
        store.put("k", b"b" * 40)
        assert store.stored_bytes() == 40
        assert store.delete("k")
        assert not store.delete("k")
        assert store.stored_bytes() == 0


# -- index cache accounting (satellite) -------------------------------------------


class TestIndexCacheAccounting:
    def test_flush_commits_counted_separately(self):
        service, client = build()
        vfs = service.vfs
        vfs.mkdir("/data")
        vfs.write_file("/data/a.bin", 1024, pid=9)
        client.index_path("/data/a.bin", pid=9)
        client.flush_updates()
        node = next(n for n in service.index_nodes.values()
                    if n.cache.pending_acgs())
        assert node.cache.estimated_bytes() > 0
        before = node.cache.stats.search_commits
        node.cache.commit_all()
        assert node.cache.stats.flush_commits >= 1
        assert node.cache.stats.search_commits == before
        assert node.cache.estimated_bytes() == 0


# -- residency reporting ----------------------------------------------------------


class TestResidencyReporting:
    def test_heartbeats_report_tier_residency_to_master(self):
        service, client = build(tiering=True, freeze_age_s=3.0, min_bytes=1)
        populate(service, client)
        assert freeze_all(service) > 0
        residency = service.master.tier_residency()
        want = {name: tuple(sorted(node.frozen))
                for name, node in service.index_nodes.items()}
        assert residency == want
        assert any(residency.values())

    def test_memory_tiers_table(self):
        service, client = build(tiering=True, freeze_age_s=3.0, min_bytes=1)
        populate(service, client)
        assert freeze_all(service) > 0
        client.search("size>16m")  # hydrate something
        rows = service.memory_tiers()
        assert [r["node"] for r in rows] == sorted(service.index_nodes)
        frozen_rows = [r for r in rows if r["frozen_acgs"]]
        assert frozen_rows
        assert any(r["frozen"] > 0 for r in frozen_rows)
        assert all(r["ram_budget"] > 0 for r in rows)
        assert "tiers" in service.status()

    def test_tier_gauges_registered(self):
        service, client = build(tiering=True, freeze_age_s=3.0, min_bytes=1)
        populate(service, client)
        assert freeze_all(service) > 0
        client.search("size>16m")
        registry = service.registry
        assert registry.value("tier.frozen_partitions") > 0
        assert registry.value("tier.object_store.bytes") > 0
        assert registry.value("tier.object_store.cost_usd") > 0
        pending = sum(
            registry.value(f"cluster.{name}.cache.pending_bytes")
            for name in service.index_nodes)
        assert pending == 0  # everything committed after the searches


# -- segments as the transfer format ----------------------------------------------


class TestSegmentTransferFormat:
    def test_checkpoint_of_frozen_partition_is_a_segment(self):
        service, client = build(tiering=True, freeze_age_s=3.0, min_bytes=1)
        populate(service, client)
        assert freeze_all(service) > 0
        node = next(n for n in service.index_nodes.values() if n.frozen)
        node.checkpoint_to_shared()
        from repro.cluster.persistence import replica_path

        acg_id = min(node.frozen)
        data = service.vfs.read_bytes(replica_path(node.name, acg_id))
        assert load_segment(data).acg_id == acg_id

    def test_crash_restart_recovers_from_segment_checkpoint(self):
        service, client = build(tiering=True, freeze_age_s=3.0, min_bytes=1)
        populate(service, client)
        assert freeze_all(service) > 0
        oracle = client.search("size>16m")
        node = next(n for n in service.index_nodes.values() if n.frozen)
        node.checkpoint_to_shared()
        node.crash()
        node.restart()
        assert not node.frozen  # tier state is volatile
        assert client.search("size>16m") == oracle

    @pytest.mark.parametrize("tiering", [False, True])
    def test_transfer_out_ships_the_checkpoint_it_wrote(self, tiering):
        """Dumped once: the migration payload is byte-for-byte the shared
        checkpoint transfer_out has just written, whatever ``tiering``
        says (it gates the freeze driver, not the wire shape)."""
        from repro.cluster.persistence import read_checkpoint, replica_path

        service, client = build(tiering=tiering, freeze_age_s=3.0,
                                min_bytes=1)
        populate(service, client)
        node = next(n for n in service.index_nodes.values() if n.replicas)
        acg_id = min(node.replicas)
        target = next(name for name in sorted(service.index_nodes)
                      if name != node.name)
        payload = node.handle_transfer_out(acg_id, target)
        assert payload == read_checkpoint(
            service.vfs, replica_path(node.name, acg_id))
        assert load_segment(payload).file_count() \
            == node.replicas[acg_id].file_count

    def test_migration_ships_segment_when_tiering_on(self):
        service, client = build(tiering=True, freeze_age_s=3.0, min_bytes=1)
        populate(service, client)
        oracle = client.search("size>16m")
        placed = [p for p in service.master.partitions.partitions() if p.node]
        victim = placed[0]
        target = next(name for name in sorted(service.index_nodes)
                      if name != victim.node)
        service.master.migrate_partition(victim.partition_id, target)
        assert client.search("size>16m") == oracle


# -- determinism ------------------------------------------------------------------


class TestTieringDeterminism:
    def test_tiered_run_is_deterministic(self):
        def run():
            service, client = build(tiering=True, freeze_age_s=3.0,
                                    min_bytes=1)
            populate(service, client, n=80)
            freeze_all(service)
            got = client.search("size>16m")
            return (got, service.clock.now(),
                    service.object_store.simulated_cost_usd(),
                    sorted(service.object_store.keys()))

        assert run() == run()

    def test_segment_key_shape(self):
        assert segment_key("in1", 7) == "segments/in1/acg00000007.seg"
