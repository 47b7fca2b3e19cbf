"""The attribute store's encode memos against an encode from nothing.

``AttributeStore`` keeps, for the segment encoder, each row's encoded
bytes and each keyword's postings entry; ``put`` and ``drop`` drop what
they change.  A derandomised hypothesis run drives one ``AcgReplica``
through upserts, attribute-only rewrites, renames, deletes and ACG
merges, and after every step compares a whole, a subset and a
pending-tail encode with the memos as the run left them against the
same encode with both memos cleared, byte for byte.  The guard below
pins what a write drops.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.index_node import AcgReplica
from repro.cluster.messages import IndexUpdate
from repro.cluster.segments import encode_segment
from repro.indexstructures import IndexKind
from repro.query.executor import AttributeStore
from repro.query.planner import IndexSpec
from repro.sim.clock import SimClock
from repro.sim.machine import Machine

from tests.conftest import machine_examples

# Ids in three posting chunks, so a term's entry can span several.
FILES = st.sampled_from([0, 1, 2, 3, 4, 5, 70_000, 70_001, 200_000])
PATHS = st.sampled_from(["/src/a/x.c", "/src/b/y.c", "/src/a/y.c",
                         "/doc/x.txt", "/doc/notes.txt"])
ATTRS = st.fixed_dictionaries({}, optional={
    "size": st.sampled_from([1, 2.5, 7]),
    "mtime": st.sampled_from([0.5, 3]),
    "owner": st.sampled_from(["ann", "bob"])})
UPDATES = st.lists(st.one_of(
    st.builds(IndexUpdate.upsert, FILES, ATTRS, PATHS),        # upsert, rename
    st.builds(IndexUpdate.upsert, FILES, ATTRS),               # attributes only
    st.builds(IndexUpdate.delete, FILES)), min_size=1, max_size=4)
RECORDS = st.lists(st.one_of(
    st.tuples(FILES, FILES, st.integers(1, 3)).filter(lambda r: r[0] != r[1]),
    st.tuples(FILES, st.just(-1), st.just(0))), min_size=1, max_size=4)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("apply"), UPDATES),
    st.tuples(st.just("merge"), RECORDS)), min_size=1, max_size=12)


def from_nothing(replica: AcgReplica, **kwargs) -> bytes:
    """``encode_segment`` with both memos empty; the run's memos are put
    back untouched afterwards."""
    store = replica.store
    kept = store.encoded_rows, store.encoded_terms
    store.encoded_rows, store.encoded_terms = {}, {}
    try:
        return encode_segment(replica, "n1", **kwargs)
    finally:
        store.encoded_rows, store.encoded_terms = kept


@settings(max_examples=machine_examples(60), derandomize=True, deadline=None)
@given(STEPS, st.sets(FILES), UPDATES)
def test_warm_memos_encode_what_empty_ones_do(steps, subset, pending):
    replica = AcgReplica(7, Machine(SimClock()))
    replica.ensure_index(IndexSpec("by_size", IndexKind.BTREE, ("size",)))
    for kind, arg in steps:
        if kind == "apply":
            replica.apply_batch(arg)
        else:
            replica.merge_graph(arg)
        for kwargs in ({}, {"file_ids": subset}, {"pending": pending}):
            assert encode_segment(replica, "n1", **kwargs) \
                == from_nothing(replica, **kwargs), (kind, arg, kwargs)


def encoded(store: AttributeStore) -> None:
    """Fill ``store``'s memos the way a whole encode does."""
    replica = AcgReplica(1, Machine(SimClock()))
    replica.store = store
    encode_segment(replica, "n1")


def test_a_write_drops_its_row_and_only_the_terms_it_changes():
    store = AttributeStore()
    store.put(1, {"size": 1}, path="/src/a/x.c")
    store.put(2, {"size": 2}, path="/src/b/y.c")
    encoded(store)
    assert set(store.encoded_rows) == {1, 2}
    assert set(store.encoded_terms) == {"src", "a", "b", "x", "y", "c"}
    store.put(1, {"size": 3})                     # attributes only
    assert set(store.encoded_rows) == {2}
    assert len(store.encoded_terms) == 6
    encoded(store)
    store.put(1, {}, path="/src/a/y.c")           # rename: x out, y in
    assert set(store.encoded_rows) == {2}
    assert set(store.encoded_terms) == {"src", "a", "b", "c"}
    encoded(store)
    store.drop(2)
    assert set(store.encoded_rows) == {1}
    assert set(store.encoded_terms) == {"a"}

