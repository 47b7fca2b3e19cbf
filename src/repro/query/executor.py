"""Plan execution against one ACG's indices.

The per-ACG executor runs on an Index Node: it walks the chosen access
path to get candidate file ids, then applies the full predicate as a
residual filter against the ACG's attribute store.  Results are therefore
always exact — an over-approximate index never yields false positives.
Where the access path is itself exact (a B+tree range that is the whole
predicate, an intersection of every keyword's postings) the filter only
drops ids the store does not hold.
"""

from __future__ import annotations

from typing import (Any, Dict, FrozenSet, Iterable, Iterator, List, Mapping,
                    Optional, Set, Tuple, Union)

from repro.errors import DiskIOError, NodeDown, QueryError, RpcTimeout, UnknownIndexName
from repro.indexstructures.base import Index
from repro.indexstructures.postings import PostingList, intersect_all
from repro.query.ast import Predicate, tokenize_path
from repro.query.planner import Plan
from repro.query.prepared import Matcher, PreparedQuery, prepare

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
    buckets = [index.get(term) for term in terms]
    if not all(buckets):
        return PostingList()   # an absent term: the conjunction is empty
    return intersect_all(PostingList.from_iterable(b) for b in buckets)


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
