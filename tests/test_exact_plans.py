"""Exact plans skip the residual filter and still answer exactly.

A plan whose candidates already are the matches (a B+tree range that is
the whole predicate, an intersection of every keyword's postings) skips
the residual filter.  A derandomised hypothesis run drives one node
through random commit streams — upserts, deletes, renames, ``1`` →
``1.0``, NaN values, attributes left out, indexes created mid-stream,
extractions, a replica re-created under the same id — interleaved with
random parsed queries, and checks every answer against a fresh
``execute_plans``, the residual-filter path and a brute-force oracle
over an independent model of the store.
"""

from typing import Any, Dict, FrozenSet, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.index_node import IndexNode
from repro.cluster.messages import IndexUpdate
from repro.indexstructures import IndexKind
from repro.query.ast import matches, tokenize_path
from repro.query.executor import execute_plans
from repro.query.parser import parse_query
from repro.query.planner import IndexSpec
from repro.query.prepared import PreparedQuery
from repro.sim.clock import SimClock
from repro.sim.machine import Machine

from tests.conftest import machine_examples

ACG = 3
SPECS = (IndexSpec("by_size", IndexKind.BTREE, ("size",)),
         IndexSpec("by_kw", IndexKind.HASH, ("keyword",)),
         IndexSpec("by_mtime", IndexKind.BTREE, ("mtime",)),
         IndexSpec("by_owner", IndexKind.HASH, ("owner",)),
         IndexSpec("kd", IndexKind.KDTREE, ("size", "mtime")))
NAN = float("nan")
ATTRS = st.fixed_dictionaries({}, optional={
    "size": st.sampled_from([1, 1.0, 2, 3.5, 7, NAN]),
    "mtime": st.sampled_from([0.5, 3, 3.0, NAN]),
    "owner": st.sampled_from(["ann", "bob", 1, 1.0]),
})
FILES = st.integers(0, 7)
# None keeps the file's path (and its keywords); any other is a rename.
PATHS = st.sampled_from(["/src/a/x.c", "/src/b/y.c", "/doc/x.txt",
                         "/a/src.h", None])
UPDATES = st.lists(st.one_of(st.tuples(st.just("upsert"), FILES, ATTRS, PATHS),
                             st.tuples(st.just("delete"), FILES)),
                   min_size=1, max_size=6)
ATOMS = ("size<4", "size>=2", "size==1", "size>1.5", "size<=3.5",
         "size!=2", "mtime<3", "mtime>=0.5", "keyword:a", "keyword:src",
         "keyword:x", "keyword:doc", "owner==ann", "owner==1",
         "!keyword:a", "!size<2")
QUERIES = st.builds(lambda atoms, joint: joint.join(atoms),
                    st.lists(st.sampled_from(ATOMS), min_size=1, max_size=3),
                    st.sampled_from([" & ", " | "]))
# Which indexes an example's searches name: all of the replica's, or one.
NAMES = st.sampled_from([None, ("by_size",), ("by_kw",), ("by_mtime",)])
# Rewrites of one file in one commit: the batch's last write wins.
CHURN = 129
OPS = st.one_of(
    st.tuples(st.just("commit"), UPDATES),
    st.just(("search",)),
    st.tuples(st.just("create_index"), st.integers(0, len(SPECS) - 1)),
    st.tuples(st.just("extract"), st.frozensets(FILES, max_size=3)),
    st.tuples(st.just("churn"), FILES),
    st.tuples(st.just("fill"), ATTRS),
    st.just(("reincarnate",)),
)

Model = Dict[int, Tuple[Dict[str, Any], FrozenSet[str]]]


def upsert(model: Model, file_id: int, attrs: Dict[str, Any],
           path: Any) -> IndexUpdate:
    """What the attribute store does with an upsert: merge the
    attributes, and take the path and its keywords when one is given."""
    old, keywords = model.get(file_id, ({}, frozenset()))
    new = dict(old, **attrs)
    if path is not None:
        new["path"] = path
        keywords = tokenize_path(path)
    model[file_id] = (new, keywords)
    return IndexUpdate.upsert(file_id, attrs, path=path)


def to_update(model: Model, kind: str, file_id: int, *rest) -> IndexUpdate:
    if kind == "upsert":
        return upsert(model, file_id, *rest)
    model.pop(file_id, None)
    return IndexUpdate.delete(file_id)


def new_node(specs) -> IndexNode:
    node = IndexNode("in1", Machine(SimClock()))
    node.handle_own_partition(ACG, 1)
    for index in specs:
        node.handle_create_index(SPECS[index])
    return node


def search_and_check(node: IndexNode, model: Model, text: str,
                     names) -> None:
    predicate = parse_query(text)
    (result,) = node.handle_search([ACG], predicate, index_names=names).results
    now = node.machine.clock.now()
    replica = node.replicas[ACG]
    query = PreparedQuery(predicate)
    plans = node._plans(replica, query, names, now)
    fresh = execute_plans(plans, query, replica.indexes, replica.store, now)
    residual_only = PreparedQuery(predicate)
    residual_only.exact_access = None
    residual = execute_plans(plans, residual_only, replica.indexes,
                             replica.store, now)
    oracle = {file_id for file_id, (attrs, keywords) in model.items()
              if matches(predicate, attrs, keywords, now)}
    assert residual == oracle, (text, names, [p.describe() for p in plans])
    assert fresh == oracle, (text, names, [p.describe() for p in plans])
    assert result.file_ids == oracle, (text, names)
    assert list(result.paths) == sorted(
        model[file_id][0]["path"] for file_id in oracle
        if "path" in model[file_id][0])


@settings(max_examples=machine_examples(60), derandomize=True, deadline=None)
# A delete of a file an earlier answer held.
@example((0,), ("size<4",), None, [
    ("commit", [("upsert", 0, {"size": 1}, "/a/x"),
                ("upsert", 1, {"size": 1}, "/a/y")]),
    ("search",), ("commit", [("delete", 0)]), ("search",)])
# A NaN key inside the range an exact B+tree plan scans.
@example((0,), ("size<4",), None, [
    ("commit", [("upsert", 0, {"size": 1}, "/a/x")]),
    ("commit", [("upsert", 1, {"size": NAN}, "/a/y")])])
# A replica re-created under the same id reaches its old applied count
# with other content.
@example((0,), ("size<4",), None, [
    ("commit", [("upsert", 0, {"size": 1}, "/a/x")]),
    ("search",), ("reincarnate",),
    ("commit", [("upsert", 1, {"size": 2}, "/a/y")])])
@given(st.sets(st.integers(0, len(SPECS) - 1)),
       st.lists(QUERIES, min_size=3, max_size=3), NAMES,
       st.lists(OPS, min_size=1, max_size=24))
def test_every_answer_matches_a_fresh_run_and_the_oracle(specs, queries,
                                                         names, ops):
    node = new_node(sorted(specs))
    model: Model = {}
    for op, *args in ops:
        if op == "commit":
            node._commit_updates(ACG, [to_update(model, *update)
                                       for update in args[0]])
        elif op == "churn":
            node._commit_updates(ACG, [upsert(model, args[0], {"size": 2},
                                              None)
                                       for _ in range(CHURN)])
        elif op == "fill":
            # Every file in one commit, in id order.
            node._commit_updates(ACG, [upsert(model, file_id, args[0],
                                              f"/f/{file_id}.c")
                                       for file_id in range(8)])
        elif op == "search":
            for text in queries:
                search_and_check(node, model, text, names)
        elif op == "create_index":
            node.handle_create_index(SPECS[args[0]])
        elif op == "extract":
            node.handle_extract_partition(ACG, sorted(args[0]))
            for file_id in args[0]:
                model.pop(file_id, None)
        else:
            # The replica is re-created under the same id, empty.
            node.replicas.pop(ACG)
            node.handle_own_partition(ACG, 1)
            model.clear()
    for text in queries:
        search_and_check(node, model, text, names)

