"""MiniSQL — the centralized relational baseline.

Models the paper's MySQL setup (Section V.B): one machine, two tables —
``files`` (full path + inode attributes) and ``keywords`` (keyword → file,
keywords extracted from the path) — with *global* B+tree indices over the
attributes, an InnoDB-style buffer pool (default 2 GB), a redo log with
group commit per batch (batch size 128 in the paper), and per-statement
parse/transaction CPU overhead.

The contrast with Propeller is structural, not a constant: every MiniSQL
update descends a B+tree spanning the whole dataset, so index pages stop
fitting in the buffer pool as the dataset scales and updates start paying
random HDD reads — while Propeller's per-ACG indices stay small and hot.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.messages import IndexUpdate, UpdateOp
from repro.indexstructures.base import IndexKind
from repro.indexstructures.btree import BPlusTree
from repro.obs.tracing import NULL_TRACER
from repro.query.ast import Predicate
from repro.query.executor import AttributeStore, execute_plans
from repro.query.parser import parse_query
from repro.query.planner import KEYWORD_ATTR, IndexSpec, plan_query_set
from repro.sim.machine import Machine
from repro.sim.memory import PageCache

DEFAULT_BUFFER_POOL_BYTES = 2 * 1024**3
DEFAULT_BATCH_SIZE = 128

_STATEMENT_OPS = 40_000        # SQL parse + plan + txn bookkeeping per row
_REDO_RECORD_BYTES = 256


class _PagedStore(AttributeStore):
    """Attribute store whose row reads touch buffer-pool pages.

    Examining a candidate row during query evaluation costs a page access
    — a random disk read when the row page is not in the pool.  This is
    what makes keyword-candidate verification expensive on a big table.
    """

    ROWS_PER_PAGE = 32

    def __init__(self, buffer_pool: PageCache) -> None:
        super().__init__()
        self._pool = buffer_pool

    def attrs(self, file_id: int):
        self._pool.touch("rows", file_id // self.ROWS_PER_PAGE)
        return super().attrs(file_id)

    def select(self, candidates, match):
        """Row at a time: every candidate examined is a row read."""
        result = set()
        for file_id in candidates:
            if file_id in result or file_id not in self:
                continue
            if match(self.attrs(file_id), self.keywords(file_id)):
                result.add(file_id)
        return result


class MiniSQL:
    """A centralized two-table store with global B+tree indices.

    The default schema follows the paper's MySQL setup (Section V.B): one
    table with the full path and inode attributes, one keyword→path
    table.  Only the primary key and the keyword column are indexed —
    pass ``indexed_attrs`` to add secondary B+tree indices (the Figure 8
    experiments use one on size/mtime; Table III's attribute queries run
    without one and scan, as the paper's schema implies).
    """

    def __init__(self, machine: Machine,
                 indexed_attrs: Sequence[str] = ("size", "mtime"),
                 buffer_pool_bytes: int = DEFAULT_BUFFER_POOL_BYTES,
                 batch_size: int = DEFAULT_BATCH_SIZE,
                 btree_order: int = 64,
                 tracer=NULL_TRACER) -> None:
        self.machine = machine
        self.batch_size = batch_size
        self.tracer = tracer
        self.buffer_pool = PageCache(machine.disk, buffer_pool_bytes)
        self.buffer_pool.tracer = tracer
        machine.disk.tracer = tracer
        self.store: AttributeStore = _PagedStore(self.buffer_pool)
        self.indexed_attrs = tuple(indexed_attrs)
        self._indexes: Dict[str, BPlusTree] = {
            attr: BPlusTree(order=btree_order, page_hook=self._hook(f"idx:{attr}"))
            for attr in self.indexed_attrs
        }
        self._keyword_index = BPlusTree(order=btree_order,
                                        page_hook=self._hook("idx:keyword"))
        self._specs = [IndexSpec(f"files_{attr}", IndexKind.BTREE, (attr,))
                       for attr in self.indexed_attrs]
        self._pending: List[IndexUpdate] = []
        self.rows_written = 0
        self.queries_served = 0

    def _hook(self, namespace: str):
        cache = self.buffer_pool

        def touch(node_id: int, write: bool) -> None:
            cache.touch(namespace, node_id, write=write)

        return touch

    # -- DML ------------------------------------------------------------------

    def insert_file(self, file_id: int, attrs: Dict[str, Any],
                    path: Optional[str] = None) -> None:
        """Queue an INSERT/REPLACE; executes when the batch fills."""
        self._pending.append(IndexUpdate.upsert(file_id, attrs, path=path))
        if len(self._pending) >= self.batch_size:
            self.flush()

    def delete_file(self, file_id: int) -> None:
        """Queue a DELETE; executes when the batch fills."""
        self._pending.append(IndexUpdate.delete(file_id))
        if len(self._pending) >= self.batch_size:
            self.flush()

    def flush(self) -> int:
        """Group commit: apply the batch and force one redo-log write."""
        if not self._pending:
            return 0
        batch, self._pending = self._pending, []
        with self.tracer.span("sql_group_commit", rows=len(batch)):
            for update in batch:
                self._apply(update)
            self.machine.disk.append(_REDO_RECORD_BYTES * len(batch))
        return len(batch)

    def _deindex(self, file_id: int) -> None:
        old = self.store.attrs(file_id)
        for attr, index in self._indexes.items():
            if attr in old:
                index.remove(old[attr], file_id)
        for token in self.store.keywords(file_id):
            self._keyword_index.remove(token, file_id)

    def _apply(self, update: IndexUpdate) -> None:
        self.machine.compute(_STATEMENT_OPS)
        # Row-store page touch (clustered primary key).
        self.buffer_pool.touch("rows", update.file_id // 32, write=True)
        if update.op is UpdateOp.DELETE:
            self._deindex(update.file_id)
            self.store.drop(update.file_id)
            self.rows_written += 1
            return
        self._deindex(update.file_id)
        self.store.put(update.file_id, update.attr_dict, path=update.path)
        attrs = self.store.attrs(update.file_id)
        for attr, index in self._indexes.items():
            if attr in attrs:
                index.insert(attrs[attr], update.file_id)
        for token in self.store.keywords(update.file_id):
            self._keyword_index.insert(token, update.file_id)
        self.rows_written += 1

    # -- queries -------------------------------------------------------------------

    def query(self, text: str) -> Set[int]:
        """SELECT matching file ids (WHERE clause in the shared grammar)."""
        return self.query_predicate(parse_query(text))

    def query_predicate(self, predicate: Predicate) -> Set[int]:
        """SELECT matching file ids for a pre-parsed predicate."""
        with self.tracer.span("sql_query") as root:
            self.flush()  # a query sees every acknowledged write
            self.queries_served += 1
            now = self.machine.clock.now()
            self.machine.compute(_STATEMENT_OPS)
            with self.tracer.span("plan") as span:
                specs = list(self._specs)
                specs.append(IndexSpec("files_kw", IndexKind.HASH, (KEYWORD_ATTR,)))
                plans = plan_query_set(predicate, specs, now)
                span.set_attribute(
                    "access_path", "; ".join(p.describe() for p in plans))
            indexes: Dict[str, Any] = {f"files_{attr}": idx
                                       for attr, idx in self._indexes.items()}
            # The keyword table serves 'keyword:' terms; MiniSQL keeps it as a
            # B+tree, which answers exact-match gets just as well.
            indexes["files_kw"] = self._keyword_index
            with self.tracer.span("index_scan") as span:
                result = execute_plans(plans, predicate, indexes, self.store, now)
                self.machine.compute(500 * max(1, len(result)))
                span.set_attribute("matches", len(result))
            root.set_attribute("matches", len(result))
        return result

    def query_paths(self, text: str) -> List[str]:
        """SELECT matching paths, sorted."""
        ids = self.query(text)
        return sorted(p for p in (self.store.attrs(f).get("path") for f in ids)
                      if p is not None)

    def __len__(self) -> int:
        return len(self.store)
