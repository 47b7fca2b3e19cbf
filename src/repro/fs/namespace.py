"""Inode table and hierarchical namespace.

Inodes carry the attributes the paper's queries touch (size, mtime, uid,
file type) plus an open dict of user-defined attributes — Propeller is a
*general-purpose* search service indexing arbitrary user-defined fields.
"""

from __future__ import annotations

import enum
import itertools
import posixpath
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    FileExists,
    FileNotFound,
    FileSystemError,
    IsADirectory,
    NotADirectory,
)


class FileKind(enum.Enum):
    """Regular file or directory."""
    FILE = "file"
    DIRECTORY = "dir"


@dataclass
class Inode:
    """One file-system object."""

    ino: int
    kind: FileKind
    size: int = 0
    mtime: float = 0.0
    ctime: float = 0.0
    uid: int = 0
    attributes: Dict[str, Any] = field(default_factory=dict)
    # Directory children: name -> ino.  Empty for regular files.
    children: Dict[str, int] = field(default_factory=dict)
    # Optional real content.  Most workloads only track sizes (data stays
    # None); shared-storage persistence (checkpointed indices, ACGs,
    # Master metadata) stores actual bytes.
    data: Optional[bytes] = None

    @property
    def is_dir(self) -> bool:
        """Whether this inode is a directory."""
        return self.kind is FileKind.DIRECTORY


def normalize(path: str) -> str:
    """Canonicalize a path to the '/a/b/c' form used as namespace keys."""
    if (path[:1] == "/" and "//" not in path and "/." not in path
            and (path[-1] != "/" or path == "/")):
        return path  # already canonical: no empty, '.' or '..' component
    # One leading slash: normpath alone would keep exactly two.
    return posixpath.normpath("/" + path.lstrip("/"))


def split(path: str) -> Tuple[str, str]:
    """(parent_path, basename) of a normalized path."""
    norm = normalize(path)
    parent, name = posixpath.split(norm)
    return parent, name


class Namespace:
    """The inode table plus the directory tree rooted at '/'."""

    def __init__(self) -> None:
        self._ids = itertools.count(2)
        self.root = Inode(ino=1, kind=FileKind.DIRECTORY)
        self._inodes: Dict[int, Inode] = {1: self.root}
        # Positive dentry cache: normalized path -> inode, so a path seen
        # before resolves with one probe instead of a walk from the root.
        # Misses are never cached (a create after a miss needs no
        # invalidation).  Unlinking an object or renaming a file drops
        # its own key; renaming a directory re-homes every descendant, so
        # it clears the lot.
        self._dentries: Dict[str, Inode] = {}

    def __len__(self) -> int:
        """Total number of inodes (including the root directory)."""
        return len(self._inodes)

    @property
    def file_count(self) -> int:
        """Number of regular files."""
        return sum(1 for i in self._inodes.values() if not i.is_dir)

    def inode(self, ino: int) -> Inode:
        """Fetch an inode by number or raise :class:`FileNotFound`."""
        try:
            return self._inodes[ino]
        except KeyError:
            raise FileNotFound(f"inode {ino}") from None

    # -- path resolution -------------------------------------------------

    def lookup(self, path: str) -> Tuple[str, Inode]:
        """(normalized path, inode) at ``path``, or raise
        :class:`FileNotFound` / :class:`NotADirectory`."""
        node = self._dentries.get(path)
        if node is not None:
            return path, node  # only normalized paths are keys
        norm = normalize(path)
        node = self._dentries.get(norm)
        if node is None:
            node = self._dentries[norm] = self._walk(norm)
        return norm, node

    def resolve(self, path: str) -> Inode:
        """Return the inode at ``path`` or raise :class:`FileNotFound`."""
        return self.lookup(path)[1]

    def _walk(self, norm: str) -> Inode:
        """The dentry cache's miss path: walk ``norm`` down from the root."""
        node = self.root
        if norm == "/":
            return node
        for part in norm.strip("/").split("/"):
            if not node.is_dir:
                raise NotADirectory(norm)
            try:
                node = self._inodes[node.children[part]]
            except KeyError:
                raise FileNotFound(norm) from None
        return node

    def exists(self, path: str) -> bool:
        """Whether a path resolves to an inode."""
        try:
            self.lookup(path)
            return True
        except (FileNotFound, NotADirectory):
            return False

    def path_of(self, ino: int) -> Optional[str]:
        """Reverse lookup: slow, intended for tests and reporting."""
        for path, node in self.walk():
            if node.ino == ino:
                return path
        return None

    # -- mutation ----------------------------------------------------------

    def _new_inode(self, kind: FileKind, now: float, uid: int) -> Inode:
        node = Inode(ino=next(self._ids), kind=kind, mtime=now, ctime=now, uid=uid)
        self._inodes[node.ino] = node
        return node

    def mkdir(self, path: str, now: float = 0.0, uid: int = 0,
              parents: bool = False) -> Inode:
        """Create a directory (optionally with parents)."""
        norm = normalize(path)
        if norm == "/":
            return self.root
        parent_path, name = split(norm)
        if parents and not self.exists(parent_path):
            self.mkdir(parent_path, now=now, uid=uid, parents=True)
        parent = self.resolve(parent_path)
        if not parent.is_dir:
            raise NotADirectory(parent_path)
        if name in parent.children:
            existing = self._inodes[parent.children[name]]
            if parents and existing.is_dir:
                return existing
            raise FileExists(norm)
        node = self._dentries[norm] = self._new_inode(FileKind.DIRECTORY, now, uid)
        parent.children[name] = node.ino
        parent.mtime = now
        return node

    def create(self, path: str, now: float = 0.0, uid: int = 0) -> Inode:
        """Create a regular file under an existing directory."""
        norm = normalize(path)
        parent_path, name = split(norm)
        parent = self.resolve(parent_path)
        if not parent.is_dir:
            raise NotADirectory(parent_path)
        if name in parent.children:
            raise FileExists(norm)
        node = self._dentries[norm] = self._new_inode(FileKind.FILE, now, uid)
        parent.children[name] = node.ino
        parent.mtime = now
        return node

    def unlink(self, path: str, now: float = 0.0) -> Inode:
        """Remove a file (or an empty directory)."""
        norm = normalize(path)
        parent_path, name = split(norm)
        parent = self.resolve(parent_path)
        if name not in parent.children:
            raise FileNotFound(norm)
        node = self._inodes[parent.children[name]]
        if node.is_dir:
            if node.children:
                raise IsADirectory(f"directory not empty: {norm}")
        del parent.children[name]
        del self._inodes[node.ino]
        self._dentries.pop(norm, None)  # a removable directory is empty
        parent.mtime = now
        return node

    def rename(self, old: str, new: str, now: float = 0.0) -> Inode:
        """Move a file or directory to a new path (no overwrite)."""
        old_norm, new_norm = normalize(old), normalize(new)
        if old_norm == "/":
            raise FileSystemError("cannot rename the root directory")
        if new_norm == old_norm or new_norm.startswith(old_norm + "/"):
            raise FileSystemError(
                f"cannot rename {old_norm!r} into itself ({new_norm!r})")
        node = self.resolve(old_norm)
        if self.exists(new_norm):
            raise FileExists(new_norm)
        new_parent_path, new_name = split(new_norm)
        new_parent = self.resolve(new_parent_path)
        if not new_parent.is_dir:
            raise NotADirectory(new_parent_path)
        old_parent_path, old_name = split(old_norm)
        old_parent = self.resolve(old_parent_path)
        del old_parent.children[old_name]
        new_parent.children[new_name] = node.ino
        if node.is_dir:
            self._dentries.clear()
        else:
            self._dentries.pop(old_norm, None)
        old_parent.mtime = now
        new_parent.mtime = now
        return node

    def readdir(self, path: str) -> List[str]:
        """Sorted child names of a directory."""
        node = self.resolve(path)
        if not node.is_dir:
            raise NotADirectory(normalize(path))
        return sorted(node.children)

    # -- iteration -------------------------------------------------------------

    def walk(self, start: str = "/") -> Iterator[Tuple[str, Inode]]:
        """Depth-first (path, inode) pairs under ``start``, excluding it."""
        base = self.resolve(start)
        prefix = normalize(start).rstrip("/")
        stack: List[Tuple[str, Inode]] = [(prefix, base)]
        while stack:
            path, node = stack.pop()
            for name in sorted(node.children, reverse=True):
                child = self._inodes[node.children[name]]
                child_path = f"{path}/{name}"
                yield child_path, child
                if child.is_dir:
                    stack.append((child_path, child))

    def files(self, start: str = "/") -> Iterator[Tuple[str, Inode]]:
        """(path, inode) pairs for regular files only."""
        for path, node in self.walk(start):
            if not node.is_dir:
                yield path, node
