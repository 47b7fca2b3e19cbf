"""VFS rename end-to-end."""

import pytest

from repro.cluster import PropellerService
from repro.errors import FileExists, FileNotFound, FileSystemError
from repro.fs.notification import FsEventKind, NotificationQueue
from repro.fs.vfs import VirtualFileSystem
from repro.indexstructures import IndexKind
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop


# -- namespace-level rename -----------------------------------------------------

@pytest.fixture
def vfs():
    return VirtualFileSystem(SimClock())


def test_rename_file_moves_inode(vfs):
    vfs.mkdir("/a")
    vfs.mkdir("/b")
    inode = vfs.write_file("/a/f", 100)
    moved = vfs.rename("/a/f", "/b/g")
    assert moved.ino == inode.ino
    assert not vfs.exists("/a/f")
    assert vfs.stat("/b/g").size == 100


def test_rename_directory_moves_subtree(vfs):
    vfs.mkdir("/a/sub", parents=True)
    vfs.write_file("/a/sub/f", 10)
    vfs.rename("/a/sub", "/moved")
    assert vfs.stat("/moved/f").size == 10
    assert not vfs.exists("/a/sub")


def test_rename_missing_source(vfs):
    with pytest.raises(FileNotFound):
        vfs.rename("/nope", "/x")


def test_rename_existing_target_rejected(vfs):
    vfs.write_file("/a", 1)
    vfs.write_file("/b", 1)
    with pytest.raises(FileExists):
        vfs.rename("/a", "/b")


def test_rename_into_itself_rejected(vfs):
    vfs.mkdir("/d")
    with pytest.raises(FileSystemError):
        vfs.rename("/d", "/d/inner")
    with pytest.raises(FileSystemError):
        vfs.rename("/", "/x")


def test_rename_updates_parent_mtimes(vfs):
    vfs.mkdir("/a")
    vfs.mkdir("/b")
    vfs.write_file("/a/f", 1)
    vfs.clock.charge(5.0)
    vfs.rename("/a/f", "/b/f")
    assert vfs.stat("/a").mtime == pytest.approx(5.0, abs=1e-5)
    assert vfs.stat("/b").mtime == pytest.approx(5.0, abs=1e-5)


def test_rename_emits_moved_notification(vfs):
    queue = NotificationQueue()
    vfs.add_observer(queue)
    vfs.write_file("/old", 1)
    queue.drain()
    vfs.rename("/old", "/new")
    events = queue.drain()
    assert len(events) == 1
    assert events[0].kind is FsEventKind.MOVED
    assert events[0].path == "/new"


# -- rename through the Propeller service -----------------------------------------

def make_service():
    service = PropellerService(num_index_nodes=2)
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    client.create_index("by_kw", IndexKind.HASH, ["keyword"])
    vfs = service.vfs
    vfs.mkdir("/proj")
    vfs.write_file("/proj/report.txt", 5000, pid=1)
    client.index_path("/proj/report.txt", pid=1)
    client.flush_updates()
    return service, client


def test_rename_reindexes_keywords():
    service, client = make_service()
    service.vfs.mkdir("/archive")
    service.vfs.rename("/proj/report.txt", "/archive/final.txt", pid=1)
    client.flush_updates()
    assert client.search("keyword:final") == ["/archive/final.txt"]
    assert client.search("keyword:report") == []
    # Attribute search returns the new path too.
    assert client.search("size==5000") == ["/archive/final.txt"]


def test_rename_of_unindexed_file_is_ignored():
    service, client = make_service()
    service.vfs.write_file("/proj/scratch", 10, pid=1)   # never indexed
    service.vfs.rename("/proj/scratch", "/proj/scratch2", pid=1)
    client.flush_updates()
    assert client.search("keyword:scratch2") == []
    assert service.total_indexed_files() == 1


def test_rename_of_pending_update_lands_under_new_path():
    service, client = make_service()
    vfs = service.vfs
    vfs.write_file("/proj/tmp.dat", 77, pid=1)
    client.index_path("/proj/tmp.dat", pid=1)     # batched, unsent
    vfs.rename("/proj/tmp.dat", "/proj/kept.dat", pid=1)
    client.flush_updates()
    assert client.search("size==77") == ["/proj/kept.dat"]
    assert client.search("keyword:tmp") == []


def test_crawler_sees_rename_after_pass():
    from repro.baselines.crawler import CrawlerConfig, CrawlerSearchEngine

    clock = SimClock()
    vfs = VirtualFileSystem(clock)
    loop = EventLoop(clock)
    crawler = CrawlerSearchEngine(vfs, loop, CrawlerConfig(
        pass_trigger_dirty=1, reindex_rate_fps=1000.0))
    vfs.mkdir("/d")
    vfs.write_file("/d/old.txt", 20 * 1024**2)
    crawler.full_rebuild()
    vfs.rename("/d/old.txt", "/d/new.txt")
    crawler._ingest_notifications()
    loop.run_until(clock.now() + 10)
    assert crawler.query("size>1m") == ["/d/new.txt"]
