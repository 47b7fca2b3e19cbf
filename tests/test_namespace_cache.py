"""The namespace's dentry cache: always the tree's answer, and the work
an open saves is pinned as a count of tree walks, not as a timing."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PropellerService
from repro.errors import FileSystemError
from repro.fs.namespace import Namespace, normalize
from repro.indexstructures import IndexKind
from repro.workloads.apps import THRIFT_SPEC, CompileApplication, scaled_spec
from repro.workloads.replay import replay_trace

NAMES = ("a", "b", "c")
canonical = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3).map(
    lambda parts: "/" + "/".join(parts))
SPELLINGS = (
    lambda p: p,
    lambda p: p[1:],                                  # a/b
    lambda p: p + "/",                                # trailing slash
    lambda p: "/" + p.replace("/", "/./") + "/",      # //a/./b/
    lambda p: p + "/../" + p.rsplit("/", 1)[1],       # /a/b/../b
)
spelled = st.builds(lambda p, spell: spell(p), canonical,
                    st.sampled_from(SPELLINGS))
ops = st.one_of(
    st.tuples(st.sampled_from(("mkdir", "create", "unlink")), spelled),
    st.tuples(st.just("rename"), spelled, spelled),
)


def outcome(thunk):
    try:
        norm, inode = thunk()
        return norm, inode.ino
    except FileSystemError as exc:
        return type(exc), str(exc)


def assert_coherent(ns, paths):
    """Every path answers as a walk from the root with no cache would."""
    for path in paths:
        cached = outcome(lambda: ns.lookup(path))
        walked = outcome(lambda: (normalize(path), ns._walk(normalize(path))))
        assert cached == walked, path


@settings(max_examples=200, deadline=None)
@given(st.lists(ops, max_size=30))
def test_cache_agrees_with_an_uncached_walk_after_every_step(steps):
    ns = Namespace()
    used = {"/", "", "//"}
    for op, *args in steps:
        used.update(args)
        try:
            getattr(ns, op)(*args)
        except FileSystemError:
            pass  # a refused operation must leave the cache right too
        assert_coherent(ns, used)


def test_directory_rename_moves_cached_descendants():
    ns = Namespace()
    ns.mkdir("/a/sub", parents=True)
    inner = ns.create("/a/sub/f")
    assert ns.resolve("/a/sub/f") is inner and ns.resolve("//a/./sub/f/") is inner
    ns.rename("/a", "/b")
    assert not ns.exists("/a/sub/f") and not ns.exists("/a/sub")
    assert ns.resolve("/b/sub/f") is inner
    assert_coherent(ns, ["/a", "/a/sub", "/a/sub/f", "/b", "/b/sub/f"])


def test_unlink_then_recreate_resolves_to_the_new_inode():
    ns = Namespace()
    old = ns.create("/f")
    assert ns.resolve("f") is old
    ns.unlink("/f")
    assert not ns.exists("/f") and not ns.exists("f/")
    new = ns.create("/f")
    assert new.ino != old.ino
    assert ns.resolve("/f") is new and ns.resolve("//f") is new


def test_a_file_in_the_middle_of_a_path_is_not_a_directory():
    ns = Namespace()
    ns.mkdir("/d")
    ns.create("/d/f")
    assert ns.resolve("/d/f")
    assert outcome(lambda: ns.lookup("/d/f/x")) == \
        outcome(lambda: ("", ns._walk("/d/f/x")))
    # The directory gives way to a file of the same name: what was cached
    # beneath it is gone with it.
    ns.unlink("/d/f")
    ns.unlink("/d")
    ns.create("/d")
    assert_coherent(ns, ["/d", "/d/f", "/d/f/x"])


def test_replay_walks_the_tree_per_distinct_path_not_per_open(monkeypatch):
    """The claim the ingest speed-up rests on, as a count: N opens over F
    distinct files in D directories cost at most 2 F + D + (depth of the
    root directory) walks — a first touch asks twice, ``exists`` and then
    ``open(create=True)``, because a miss is never cached — and replaying
    the same opens again costs none."""
    walks = []
    walk = Namespace._walk

    def counted(self, norm):
        walks.append(norm)
        return walk(self, norm)
    monkeypatch.setattr(Namespace, "_walk", counted)
    service = PropellerService(num_index_nodes=2)
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    app = CompileApplication(scaled_spec(replace(THRIFT_SPEC, rebuilds=3), 0.1))
    events = app.trace()
    files = {app.path_of(event.file_id) for event in events}
    directories = {path.rsplit("/", 1)[0] for path in files}
    assert len(events) > 6 * len(files)
    replay_trace(service, client, events, app.path_of)
    depth = min(d.count("/") for d in directories)
    assert len(walks) <= 2 * len(files) + len(directories) + depth
    assert max(walks.count(path) for path in set(walks)) <= 2
    del walks[:]
    replay_trace(service, client, events, app.path_of)
    assert walks == []
