"""The delta group commit against the full re-index it replaced.

``AcgReplica.apply_batch`` moves only the index keys a batch changed: a
rewrite under the same path keeps its path tokens and every key that is
equal and of the same type.  The commit it replaced — clear every key of
each touched file, re-insert every key of each surviving one — is kept
verbatim below as the reference.  A derandomised hypothesis run feeds
both the same batches (and a follower, through ``replicate_apply``) and
compares, after each batch, everything a search, a summary or a
watermark can see.
"""

from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.query.summary as summary_module
from repro.cluster.index_node import (_COMMIT_BATCH_BASE_OPS,
                                      _COMMIT_BATCHED_UPDATE_OPS,
                                      _REBUILD_OPS_PER_FILE, AcgReplica,
                                      _SpecGroups)
from repro.cluster.messages import IndexUpdate, UpdateOp
from repro.cluster.segments import encode_segment
from repro.indexstructures import IndexKind
from repro.query.executor import execute_plans
from repro.query.parser import parse_query
from repro.query.planner import IndexSpec, plan_query_set
from repro.sim.clock import SimClock
from repro.sim.machine import Machine

from tests.conftest import machine_examples, whole_node


class ReindexReplica(AcgReplica):
    """The group commit ``apply_batch`` replaced, verbatim."""

    def _deindex(self, file_id: int, groups: _SpecGroups) -> None:
        if file_id not in self.store:
            return  # first index of a new file: nothing to clear
        old_attrs = self.store.attrs(file_id)
        old_keywords = self.store.keywords(file_id)
        keyword, keyed = groups
        for index in keyword:
            for token in old_keywords:
                index.remove(token, file_id)
        for index, key_of, _ in keyed:
            key = key_of(old_attrs)
            if key is not None:
                index.remove(key, file_id)

    def apply_batch(self, updates: Sequence[IndexUpdate]) -> None:
        """Apply one group commit: amortized charge, bulk index insert.

        Final index/store/summary state is what applying the updates
        one by one in order would leave (upserts carry complete attribute
        snapshots, so last-write-wins composes), but the work is batched:
        store mutations run in order, index insertions for upserted files
        are deferred, grouped per index, and merged in one sorted pass
        (``bulk_insert``), and the summary widens once per batch over the
        surviving files.  The CPU charge amortizes accordingly: full
        setup once, a marginal cost per update.
        """
        if not updates:
            return
        nspecs = max(1, len(self.specs))
        self.machine.compute(_COMMIT_BATCH_BASE_OPS * nspecs
                             + _COMMIT_BATCHED_UPDATE_OPS * nspecs * len(updates))
        groups = self._spec_groups()
        store = self.store
        # Files upserted in this batch whose index entries are deferred
        # (dict preserves first-upsert order for deterministic inserts).
        pending: Dict[int, None] = {}
        for update in updates:
            self.applied += 1
            file_id = update.file_id
            if update.op is UpdateOp.DELETE:
                pending.pop(file_id, None)
                self._deindex(file_id, groups)
                store.drop(file_id)
                self.graph.remove_file(file_id)
                self.summary.note_delete()
                if self.summary.needs_rebuild(len(store)):
                    self.machine.compute(
                        _REBUILD_OPS_PER_FILE * max(1, len(store)))
                    self.summary.rebuild(store)
                continue
            if file_id not in pending:
                # First touch this batch: clear the file's live index
                # entries once; re-upserts below only refresh the store.
                self._deindex(file_id, groups)
                pending[file_id] = None
            store.put(file_id, update.attr_dict, path=update.path)
        keyword, keyed = groups
        entries: List[Tuple[Dict[str, Any], Sequence[str]]] = []
        tokens: List[Tuple[str, int]] = []
        for file_id in pending:
            if file_id not in store:
                continue
            attrs = store.attrs(file_id)
            keywords = store.keywords(file_id)
            entries.append((attrs, keywords))
            if keyword:
                tokens.extend((token, file_id) for token in keywords)
            for _, key_of, pairs in keyed:
                key = key_of(attrs)
                if key is not None:
                    pairs.append((key, file_id))
        self.summary.observe_batch(entries)
        batches = [(index, tokens) for index in keyword]
        batches += [(index, pairs) for index, _, pairs in keyed]
        for index, pairs in batches:
            if not pairs:
                continue
            bulk = getattr(index, "bulk_insert", None)
            if bulk is not None:
                bulk(pairs)
            else:
                for key, file_id in pairs:
                    index.insert(key, file_id)


ACG = 7
SPECS = (IndexSpec("by_size", IndexKind.BTREE, ("size",)),
         IndexSpec("by_kw", IndexKind.HASH, ("keyword",)),
         IndexSpec("by_owner", IndexKind.HASH, ("owner",)),
         IndexSpec("kd", IndexKind.KDTREE, ("size", "mtime")))
# Each predicate is served by the index named beside it, so a stale or
# missing key shows up as a wrong answer, not only as a content diff.
QUERIES = {
    "size>=2": "btree_range", "size<=1": "btree_range",
    "size==7.5": "btree_range",
    "keyword:x": "keyword", "keyword:src & keyword:a": "keyword",
    "keyword:txt": "keyword",
    "owner==ann": "hash_eq", "owner==1": "hash_eq",
    "size>=1 & mtime<=3 & mtime>=0": "kdtree_range",
}
# Two NaNs that are not one object: a K-D point holding one is found only
# through that object, so a rewrite that swaps them must still move it.
NANS = (float("nan"), float("nan"))
ATTRS = st.fixed_dictionaries({}, optional={
    "size": st.sampled_from([1, 1.0, 2, 7, 7.5]),
    "mtime": st.sampled_from([0.5, 3, 3.0, *NANS]),
    "owner": st.sampled_from(["ann", "bob", 1, 1.0]),
})
FILES = st.integers(0, 5)
PATHS = st.sampled_from(["/src/a/x.c", "/src/a/y.c", "/src/b/x.c",
                         "/doc/x.txt", None])
OPS = st.one_of(
    # Re-upsert under the path the file has at that point of the batch.
    st.tuples(st.just("rewrite"), FILES, ATTRS),
    st.tuples(st.just("rename"), FILES, ATTRS, PATHS),
    st.tuples(st.just("delete"), FILES),
)


def to_updates(ops, paths: Dict[int, str]) -> List[IndexUpdate]:
    """One batch's updates; ``paths`` tracks each file's current path."""
    updates = []
    for op, file_id, *rest in ops:
        if op == "delete":
            paths.pop(file_id, None)
            updates.append(IndexUpdate.delete(file_id))
            continue
        attrs, path = rest[0], (rest[1] if op == "rename"
                                else paths.get(file_id, "/src/a/x.c"))
        if path is not None:
            paths[file_id] = path
        updates.append(IndexUpdate.upsert(file_id, attrs, path=path))
    return updates


def visible(replica: AcgReplica):
    """Everything a search, a summary or a watermark sees of a replica;
    an index is compared by its logical content, key → values."""
    store = replica.store
    summary = replica.summary
    return {
        "indexes": {name: Counter(index.items())
                    for name, index in replica.indexes.items()},
        "store": {file_id: (repr(sorted(store.attrs(file_id).items())),
                            sorted(store.keywords(file_id)))
                  for file_id in store.file_ids()},
        "store_bytes": store.estimated_bytes(),
        "applied": replica.applied,
        "summary": (summary.bloom.bits, repr(summary.zones),
                    summary.attrs_seen, summary.deletes_since_rebuild),
        "answers": {query: sorted(execute_plans(
            plan_query_set(parse_query(query), list(replica.specs.values()),
                           0.0),
            parse_query(query), replica.indexes, store, 0.0))
            for query in QUERIES},
    }


def new_replica(cls=AcgReplica) -> AcgReplica:
    replica = cls(ACG, Machine(SimClock()))
    for spec in SPECS:
        replica.ensure_index(spec)
    return replica


def test_every_query_runs_through_its_index():
    specs = list(new_replica().specs.values())
    for query, access in QUERIES.items():
        assert [plan.access for plan in plan_query_set(
            parse_query(query), specs, 0.0)] == [access], query


def test_a_key_that_changes_type_moves():
    """``1`` → ``1.0`` is equal but not the same key: the indexes give up
    the ``int`` for the ``float`` the store now holds, as a full
    re-index would."""
    replica = new_replica()
    for value in (1, 1.0):
        replica.apply_batch([IndexUpdate.upsert(
            0, {"size": value, "owner": value}, path="/a")])
    for name in ("by_size", "by_owner"):
        assert [type(key) for key, _ in replica.indexes[name].items()] \
            == [float], name


@settings(max_examples=machine_examples(40), derandomize=True, deadline=None)
# A rebuild mid-batch resets the Bloom filter to the store of that
# moment, so a file deleted before it and re-upserted after it must give
# the filter every token again, not only those it did not hold before.
@example(0, [[("rewrite", 0, {})], [("delete", 0), ("rewrite", 0, {})]])
@given(st.sampled_from([0, 2, 32]),
       st.lists(st.lists(OPS, min_size=1, max_size=8), min_size=1,
                max_size=12))
def test_delta_commit_matches_the_full_reindex(rebuild_after, batches):
    ref, delta = new_replica(ReindexReplica), new_replica()
    follower = whole_node("follower")
    follower.handle_install_follower(ACG, "primary", 1, 0,
                                     encode_segment(new_replica(), "primary"))
    paths: Dict[int, str] = {}
    with mock.patch.object(summary_module, "_REBUILD_MIN_DELETES",
                           rebuild_after):
        for seq, ops in enumerate(batches, start=1):
            updates = to_updates(ops, paths)
            ref.apply_batch(updates)
            delta.apply_batch(updates)
            (outcome,) = follower.handle_replicate_apply(
                [(ACG, 1, [(seq, tuple(updates))])])
            assert outcome.value == seq
            expected = visible(ref)
            assert visible(delta) == expected
            assert visible(follower.followers[ACG].replica) == expected
            assert delta.machine.clock.now() == ref.machine.clock.now()
            # The invariant that lets a commit add only new tokens to
            # the Bloom filter: it holds every token of every stored file.
            for file_id in delta.store.file_ids():
                for token in delta.store.keywords(file_id):
                    assert delta.summary.bloom.might_contain(token), token
