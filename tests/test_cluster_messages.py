"""Message types: construction helpers, wire-size estimates, immutability."""

import pytest

from repro.cluster.messages import (
    Heartbeat,
    IndexUpdate,
    RouteEntry,
    SearchResult,
    UpdateOp,
)


def test_upsert_helper_sorts_attrs():
    update = IndexUpdate.upsert(7, {"size": 10, "mtime": 2.0}, path="/f")
    assert update.op is UpdateOp.UPSERT
    assert update.attrs == (("mtime", 2.0), ("size", 10))
    assert update.attr_dict == {"size": 10, "mtime": 2.0}
    assert update.path == "/f"


def test_delete_helper():
    update = IndexUpdate.delete(9)
    assert update.op is UpdateOp.DELETE
    assert update.file_id == 9
    assert update.attrs == ()
    assert update.path is None


def test_updates_are_hashable_and_comparable():
    a = IndexUpdate.upsert(1, {"size": 5})
    b = IndexUpdate.upsert(1, {"size": 5})
    c = IndexUpdate.upsert(1, {"size": 6})
    assert a == b
    assert a != c
    assert len({a, b, c}) == 2


def test_updates_are_immutable():
    update = IndexUpdate.upsert(1, {"size": 5})
    with pytest.raises(AttributeError):
        update.file_id = 2


def test_wire_bytes_scales_with_content():
    small = IndexUpdate.upsert(1, {"size": 5})
    big = IndexUpdate.upsert(1, {"size": 5, "mtime": 1.0, "uid": 0},
                             path="/a/very/long/path/name.bin")
    assert big.wire_bytes() > small.wire_bytes()
    assert small.wire_bytes() > 0


def test_route_entry_fields():
    route = RouteEntry(file_id=1, acg_id=2, node="in1")
    assert (route.file_id, route.acg_id, route.node) == (1, 2, "in1")


def test_search_result_defaults():
    result = SearchResult(node="in1", acg_id=3)
    assert result.file_ids == frozenset()
    assert result.paths == ()


def test_heartbeat_acg_sizes_tuple():
    heartbeat = Heartbeat(node="in1", timestamp=1.5,
                          acg_sizes=((1, 10), (2, 20)))
    assert dict(heartbeat.acg_sizes) == {1: 10, 2: 20}
