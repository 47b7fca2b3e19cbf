"""Plan execution against one ACG's indices — and the cluster-side
scatter-gather that stitches per-node answers into one result.

The per-ACG executor runs on an Index Node: it walks the chosen access
path to get candidate file ids, then applies the full predicate as a
residual filter against the ACG's attribute store.  Results are therefore
always exact — an over-approximate index never yields false positives.
Where the access path is itself exact (a B+tree range that is the whole
predicate, an intersection of every keyword's postings) the filter only
drops ids the store does not hold.

The scatter-gather runs on the client: search legs fan out to every Index
Node in parallel and, when a leg fails transiently (node down, RPC
timeout, injected disk error), the query **degrades** instead of dying —
the surviving legs' results come back in a :class:`FanoutOutcome` whose
``degraded`` flag is set and whose ``unreachable`` map names exactly
which partitions on which nodes the answer is missing (the tail-tolerant
partial-results semantic partition-parallel search needs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Mapping, Optional, Sequence, Set, Tuple, Union)

from repro.errors import DiskIOError, NodeDown, QueryError, RpcTimeout, UnknownIndexName
from repro.indexstructures.base import Index
from repro.indexstructures.postings import PostingList, intersect_all
from repro.query.ast import Predicate, tokenize_path
from repro.query.planner import Plan
from repro.query.prepared import Matcher, PreparedQuery, prepare
from repro.sim.rpc import scatter

# Failures that degrade a search leg instead of failing the whole query.
# Anything else (parse errors, unknown index names, handler bugs) is a
# caller mistake and still propagates.
DEGRADABLE_ERRORS = (NodeDown, RpcTimeout, DiskIOError)

_NO_KEYWORDS: FrozenSet[str] = frozenset()


class AttributeStore:
    """Per-ACG ground truth: file id → attributes + path keywords."""

    def __init__(self) -> None:
        self._attrs: Dict[int, Dict[str, Any]] = {}
        self._keywords: Dict[int, FrozenSet[str]] = {}
        # The path each file's keywords were tokenized from (an attribute
        # named "path" can set the entry's path without them).
        self._keyword_paths: Dict[int, str] = {}
        self._bytes = 0  # running estimated_bytes: 64/entry + 16/attr
        # What the segment encoder last wrote, kept for its next encode:
        # per file, the attribute names without path and the records of
        # (path, *values); per keyword, its postings entry.  put and drop
        # are the store's only writers, so each drops what it changes.
        self.encoded_rows: Dict[int, Tuple[Tuple[str, ...], bytes]] = {}
        self.encoded_terms: Dict[str, bytes] = {}

    def __len__(self) -> int:
        return len(self._attrs)

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._attrs

    def put(self, file_id: int, attrs: Mapping[str, Any], path: Optional[str] = None) -> None:
        """Insert/refresh one file's attributes (and path keywords — the
        file's own set, not re-tokenized, when they already come from
        this path)."""
        entry = self._attrs.get(file_id)
        if entry is None:
            entry = self._attrs[file_id] = {}
            self._bytes += 64
        before = len(entry)
        entry.update(attrs)
        self.encoded_rows.pop(file_id, None)
        if path is not None:
            entry["path"] = path
            if self._keyword_paths.get(file_id) != path:
                keywords = tokenize_path(path)
                for term in keywords ^ self._keywords.get(file_id,
                                                          _NO_KEYWORDS):
                    self.encoded_terms.pop(term, None)
                self._keywords[file_id] = keywords
                self._keyword_paths[file_id] = path
        self._bytes += 16 * (len(entry) - before)

    def drop(self, file_id: int) -> None:
        """Forget one file entirely."""
        entry = self._attrs.pop(file_id, None)
        if entry is not None:
            self._bytes -= 64 + 16 * len(entry)
        self.encoded_rows.pop(file_id, None)
        for term in self._keywords.pop(file_id, _NO_KEYWORDS):
            self.encoded_terms.pop(term, None)
        self._keyword_paths.pop(file_id, None)

    def attrs(self, file_id: int) -> Dict[str, Any]:
        """The file's attribute dict ({} if unknown)."""
        return self._attrs.get(file_id, {})

    def keywords(self, file_id: int) -> FrozenSet[str]:
        """The file's path keywords (empty set if unknown)."""
        return self._keywords.get(file_id, _NO_KEYWORDS)

    def file_ids(self) -> Iterator[int]:
        """Iterate every known file id."""
        return iter(self._attrs)

    def select(self, candidates: Iterable[int], match: Matcher,
               exact: bool = False) -> Set[int]:
        """The candidates this store holds whose row passes ``match``
        (a compiled :meth:`~repro.query.prepared.PreparedQuery.matcher`)
        — evaluated in bulk, one pass over the store's own dicts.
        ``exact`` says every candidate the store holds passes (an exact
        access path): ``match`` is then not called.  A store whose row
        reads cost something overrides this."""
        rows, keywords = self._attrs, self._keywords
        if exact:
            return {file_id for file_id in candidates if file_id in rows}
        return {file_id for file_id in candidates
                if (attrs := rows.get(file_id)) is not None
                and match(attrs, keywords.get(file_id, _NO_KEYWORDS))}

    def paths(self, file_ids: Iterable[int]) -> List[str]:
        """The paths of the given files, sorted (a file with no path, or
        unknown, contributes none)."""
        rows = self._attrs
        found = [rows[file_id].get("path") for file_id in file_ids
                 if file_id in rows]
        return sorted([path for path in found if path is not None])

    def estimated_bytes(self) -> int:
        """Rough serialized size, used by the page-cache cost model.

        O(1): a running counter maintained by put/drop — this runs
        inside every residency check, so a per-call sweep over every
        entry would dominate large partitions.
        """
        return self._bytes


def _candidates(plan: Plan, indexes: Mapping[str, Index],
                store: AttributeStore) -> Iterable[int]:
    if plan.access == "scan":
        return list(store.file_ids())
    if plan.index_name is None or plan.index_name not in indexes:
        raise UnknownIndexName(str(plan.index_name))
    index = indexes[plan.index_name]
    if plan.access in ("hash_eq", "keyword"):
        return index.get(plan.key)
    if plan.access == "btree_range":
        return index.range_values(  # type: ignore[attr-defined]
            plan.low, plan.high,
            include_low=plan.include_low, include_high=plan.include_high)
    if plan.access == "kdtree_range":
        return [value for _, value in index.range(plan.lows, plan.highs)]  # type: ignore[attr-defined]
    raise QueryError(f"unknown access path: {plan.access!r}")


def _keyword_posting_candidates(plan: Plan, query: PreparedQuery,
                                indexes: Mapping[str, Index]
                                ) -> Optional[PostingList]:
    """AND the posting lists of every top-level keyword conjunct.

    Every keyword that is a mandatory conjunct narrows the candidate
    set up front with a vectorized bitmap AND, instead of leaving all
    but the planned term to a per-doc membership test in the residual
    filter.  Returns None when the predicate has no top-level keyword
    conjuncts (e.g. a disjunctive branch plan) — the caller probes the
    plan's own term.  When every conjunct is a keyword the intersection
    is the answer; otherwise the candidates still run through the full
    residual filter.
    """
    terms = query.keyword_terms
    if not terms:
        return None
    index = indexes[plan.index_name]
    return intersect_all(
        PostingList.from_iterable(index.get(term)) for term in terms)


def execute(plan: Plan, predicate: Union[Predicate, PreparedQuery],
            indexes: Mapping[str, Index], store: AttributeStore,
            now: float) -> Set[int]:
    """Run one plan; return the exact set of matching file ids.

    Every candidate of every access path passes the query's compiled
    matcher — the whole predicate, not what the access path left over —
    except where the plan is the query's exact access path
    (:attr:`~repro.query.prepared.PreparedQuery.exact_access`): its
    candidates already are the matches, so only the ones the store
    holds are kept."""
    query = prepare(predicate)
    candidates: Optional[Iterable[int]] = None
    if (plan.access == "keyword"
            and plan.index_name is not None and plan.index_name in indexes):
        candidates = _keyword_posting_candidates(plan, query, indexes)
    if candidates is None:
        candidates = _candidates(plan, indexes, store)
    return store.select(candidates, query.matcher(now),
                        exact=plan.access == query.exact_access)


def execute_plans(plans: Iterable[Plan],
                  predicate: Union[Predicate, PreparedQuery],
                  indexes: Mapping[str, Index], store: AttributeStore,
                  now: float) -> Set[int]:
    """Union of several plans (disjunctive queries), still exact: every
    candidate is re-checked against the full predicate."""
    query = prepare(predicate)
    result: Set[int] = set()
    for plan in plans:
        result |= execute(plan, query, indexes, store, now)
    return result


# -- degraded scatter-gather ---------------------------------------------------


@dataclass
class FanoutOutcome:
    """What a partition-parallel search fan-out actually achieved.

    ``results`` holds every per-node answer that arrived; ``unreachable``
    maps each failed node to the partition (ACG) ids its leg was asked to
    search, and ``errors`` keeps the error text per failed node.  A query
    is ``degraded`` exactly when at least one leg failed — the caller got
    a correct but possibly incomplete answer and can name what is
    missing.

    Epoch-stamped legs add two routing-health signals: ``stale`` maps a
    node to the ACGs it declined because it no longer owns them (the
    client should refresh its route table and retry those partitions),
    and ``node_epochs`` records each answering node's routing epoch so a
    behind-the-times client can notice the cluster has moved on.
    """

    results: List[Any] = field(default_factory=list)
    unreachable: Dict[str, List[int]] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    stale: Dict[str, List[int]] = field(default_factory=dict)
    node_epochs: Dict[str, int] = field(default_factory=dict)
    # Partitions the owning node *validated* as skippable (summary
    # watermark matched, nothing pending) — these count as served even
    # though no SearchResult came back for them.
    pruned_ok: Set[int] = field(default_factory=set)
    # acg_id → the commit watermark its answer in ``results`` is exact
    # at, for every answer a primary stamped (a follower's, or one to a
    # time-dependent predicate, has none).
    stamps: Dict[int, Tuple[str, int, int]] = field(default_factory=dict)
    # node → the per-batch outcomes of the update envelope its leg
    # carried (a leg that carried none, or was answered by a follower,
    # has no entry).
    update_outcomes: Dict[str, Sequence[Any]] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return bool(self.unreachable)

    @property
    def unreachable_partitions(self) -> List[int]:
        """Every partition id the answer is missing, sorted."""
        return sorted(acg for acgs in self.unreachable.values() for acg in acgs)

    def max_node_epoch(self) -> int:
        """The highest routing epoch any answering node reported."""
        return max(self.node_epochs.values(), default=0)


def scatter_gather(clock, routing: Mapping[str, Sequence[int]],
                   call: Callable[[str], Any]) -> FanoutOutcome:
    """Fan one search out to every node in ``routing``, tolerating legs.

    ``call(node)`` performs one node's search RPC (retries included — the
    RPC layer owns those); legs run as logically concurrent work on the
    virtual clock, so the caller waits for the slowest leg, including a
    failed leg's timeout burn.  Legs that still fail with a transient
    error after retries are recorded against the partitions they covered
    instead of aborting the fan-out.
    """
    outcome = FanoutOutcome()
    for node, leg in scatter(clock, routing, call).items():
        batch = leg.value
        if not leg.ok:
            if not isinstance(leg.error, DEGRADABLE_ERRORS):
                raise leg.error
            if not routing[node]:
                continue  # nothing was asked of it: nothing is missing
            outcome.unreachable[node] = sorted(routing[node])
            outcome.errors[node] = f"{type(leg.error).__name__}: {leg.error}"
        elif hasattr(batch, "results") and hasattr(batch, "not_owned"):
            # An epoch-stamped SearchReply: unpack results and record the
            # routing-health signals the client's retry round consumes.
            outcome.results.extend(batch.results)
            outcome.node_epochs[node] = batch.epoch
            if batch.not_owned:
                outcome.stale[node] = sorted(batch.not_owned)
            outcome.pruned_ok.update(getattr(batch, "pruned_ok", ()))
            outcome.stamps.update(getattr(batch, "stamps", ()))
            if getattr(batch, "update_outcomes", ()):
                outcome.update_outcomes[node] = batch.update_outcomes
        else:
            outcome.results.extend(batch)
    return outcome
