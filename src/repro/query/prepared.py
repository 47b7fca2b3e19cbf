"""The prepared form of a predicate: everything about a query that does
not depend on which partition or which candidate it meets.

A search meets its predicate many times — once per partition summary on
the client, once per result-cache lookup and once per candidate row on
every Index Node.  :class:`PreparedQuery` computes the parts of that
work that are the same every time, once:

* the canonical form and the ``time_dependent`` flag (together the
  result-cache key);
* the top-level keyword conjuncts (what posting lists to intersect);
* the access path, if any, whose candidates already are the answer
  (``exact_access``: the executor then skips the matcher);
* a **matcher** — the predicate compiled to a closure over one row,
  bounds resolved against one ``now``; the same answers as the reference
  interpreter :func:`repro.query.ast.matches`, missing attributes and
  ``TypeError`` comparisons included;
* a **summary check** — the pruning test of
  :func:`repro.query.summary.summary_may_match` compiled the same way,
  each keyword carrying its Bloom probe mask per filter geometry, so a
  token is hashed once per query instead of once per partition;
* the access plans, per set of index specs.

A static predicate compiles once; a time-dependent one (symbolic
:class:`~repro.query.ast.RelativeAge` bounds) compiles once per ``now``
it is evaluated at.  Nothing here crosses the RPC boundary: the wire
carries the plain predicate, and client and Index Node each prepare for
themselves (:class:`PreparedCache`).
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from typing import (Any, Callable, Dict, FrozenSet, Hashable, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from repro.errors import QueryError
from repro.indexstructures.bloom import probe_mask
from repro.query.ast import (_OPS, And, Compare, Keyword, Not, Or, Predicate,
                             RelativeAge, conjuncts, is_numeric)
from repro.query.canonical import canonicalize, is_time_dependent
from repro.query.planner import IndexSpec, Plan, plan_query_set

Matcher = Callable[[Mapping[str, Any], FrozenSet[str]], bool]
# Takes a SummarySnapshot (repro.query.summary imports this module).
SummaryCheck = Callable[[Any], bool]

# Which end of a zone map a resolved numeric bound is tested against.
_ZONE_TESTS = {">": (1, operator.gt), ">=": (1, operator.ge),
               "<": (0, operator.lt), "<=": (0, operator.le)}


def _compile_matcher(predicate: Predicate, now: float) -> Matcher:
    if isinstance(predicate, Compare):
        resolved = predicate.resolved(now)
        attr, test, bound = resolved.attr, _OPS[resolved.op], resolved.value

        def compare(attrs, keywords):
            value = attrs.get(attr)
            if value is None:
                return False
            try:
                return test(value, bound)
            except TypeError:
                return False
        return compare
    if isinstance(predicate, Keyword):
        term = predicate.term
        return lambda attrs, keywords: term in keywords
    if isinstance(predicate, Not):
        child = _compile_matcher(predicate.child, now)
        return lambda attrs, keywords: not child(attrs, keywords)
    if isinstance(predicate, (And, Or)):
        children = tuple(_compile_matcher(c, now) for c in predicate.children)
        if isinstance(predicate, Or):
            def either(attrs, keywords):
                for child in children:
                    if child(attrs, keywords):
                        return True
                return False
            return either

        def every(attrs, keywords):
            for child in children:
                if not child(attrs, keywords):
                    return False
            return True
        return every
    raise QueryError(f"unknown predicate node: {predicate!r}")


def _compile_check(predicate: Predicate, now: float,
                   masks: Dict[Tuple[str, int, int], int]) -> SummaryCheck:
    """The rules of ``repro.query.summary`` (module docstring there),
    decided per node at compile time instead of per snapshot."""
    if isinstance(predicate, Compare):
        attr = predicate.attr
        time_derived = isinstance(predicate.value, RelativeAge)
        resolved = predicate.resolved(now)
        op, value = resolved.op, resolved.value
        # A missing attribute satisfies no comparison, so an attribute
        # never seen is prunable whatever the operator.  Beyond that,
        # only a numeric bound meets the zone maps, and a resolved
        # <, <= or == from a RelativeAge grows or moves its allowed set
        # as the node's clock passes the client's: those fail open.  So
        # does an attribute seen but never with a numeric value (no
        # zone): such rows cannot match, but failing open is simpler
        # than proving a mixed attribute was never numeric.
        zone_bound = (is_numeric(value) and op != "!="
                      and not (time_derived and op in ("<", "<=", "==")))
        if not zone_bound:
            return lambda snapshot: attr in snapshot.attrs_seen
        if op == "==":
            def equals(snapshot):
                if attr not in snapshot.attrs_seen:
                    return False
                zone = snapshot.zone_map.get(attr)
                return zone is None or zone[0] <= value <= zone[1]
            return equals
        end, test = _ZONE_TESTS[op]

        def bounded(snapshot):
            if attr not in snapshot.attrs_seen:
                return False
            zone = snapshot.zone_map.get(attr)
            return zone is None or test(zone[end], value)
        return bounded
    if isinstance(predicate, Keyword):
        term = predicate.term

        def keyword(snapshot):
            geometry = (term, snapshot.bloom_m, snapshot.bloom_k)
            mask = masks.get(geometry)
            if mask is None:
                mask = masks[geometry] = probe_mask(*geometry)
            return snapshot.bloom_bits & mask == mask
        return keyword
    if isinstance(predicate, Not):
        return lambda snapshot: True   # over an over-approximation: open
    if isinstance(predicate, (And, Or)):
        children = tuple(_compile_check(c, now, masks)
                         for c in predicate.children)
        if isinstance(predicate, Or):
            def either(snapshot):
                for child in children:
                    if child(snapshot):
                        return True
                return False
            return either

        def every(snapshot):
            for child in children:
                if not child(snapshot):
                    return False
            return True
        return every
    raise QueryError(f"unknown predicate node: {predicate!r}")


_RANGE_OPS = frozenset(("<", "<=", ">", ">=", "=="))


def _exact_access(terms: Sequence[Predicate]) -> Optional[str]:
    """The access path whose candidates are exactly the matches of a
    conjunction of ``terms``, if there is one.

    * ``keyword``: every conjunct is a keyword — the executor intersects
      the posting lists of all of them.
    * ``btree_range``: every conjunct compares one attribute with
      ``<``, ``<=``, ``>``, ``>=`` or ``==`` and a numeric, non-NaN bound
      (an age resolves to one) — the one range the planner then builds is
      their intersection, on that attribute's B+tree, and the tree holds
      no NaN key (NaN satisfies none of these comparisons).
    """
    if all(isinstance(term, Keyword) for term in terms):
        return "keyword"
    attrs = set()
    for term in terms:
        if not (isinstance(term, Compare) and term.op in _RANGE_OPS):
            return None
        value = term.value
        if not (isinstance(value, RelativeAge)
                or (is_numeric(value) and value == value)):
            return None
        attrs.add(term.attr)
    return "btree_range" if len(attrs) == 1 else None


class PreparedQuery:
    """One predicate, prepared once for one process (module docstring)."""

    __slots__ = ("predicate", "canonical", "time_dependent", "keyword_terms",
                 "exact_access", "_masks", "_matcher", "_check", "_plans")

    def __init__(self, predicate: Predicate) -> None:
        self.predicate = predicate
        self.canonical = canonicalize(predicate)
        self.time_dependent = is_time_dependent(predicate)
        # Mandatory keyword conjuncts (``conjuncts`` flattens top-level
        # Ands only, so each is required of every match).
        terms = tuple(conjuncts(predicate))
        self.keyword_terms: Tuple[str, ...] = tuple(
            c.term for c in terms if isinstance(c, Keyword))
        self.exact_access = _exact_access(terms)
        self._masks: Dict[Tuple[str, int, int], int] = {}
        # (now compiled for, closure); a static predicate's never expires.
        self._matcher: Optional[Tuple[float, Matcher]] = None
        self._check: Optional[Tuple[float, SummaryCheck]] = None
        self._plans: Dict[Tuple[IndexSpec, ...], List[Plan]] = {}

    def matcher(self, now: float) -> Matcher:
        """``match(attrs, keywords)`` ≡ ``ast.matches(predicate, attrs,
        keywords, now)``."""
        memo = self._matcher
        if memo is None or (self.time_dependent and memo[0] != now):
            memo = self._matcher = (now, _compile_matcher(self.predicate, now))
        return memo[1]

    def summary_check(self, now: float) -> SummaryCheck:
        """``check(snapshot)``: could a file the (non-empty) snapshot
        covers satisfy the predicate at ``now``?"""
        memo = self._check
        if memo is None or (self.time_dependent and memo[0] != now):
            memo = self._check = (
                now, _compile_check(self.predicate, now, self._masks))
        return memo[1]

    def plans(self, specs: Sequence[IndexSpec], now: float) -> List[Plan]:
        """``plan_query_set`` over ``specs``; a static predicate's plans
        do not depend on ``now`` and are kept per spec set."""
        if self.time_dependent:
            return plan_query_set(self.predicate, specs, now)
        key = tuple(specs)
        plans = self._plans.get(key)
        if plans is None:
            plans = self._plans[key] = plan_query_set(self.predicate, specs,
                                                      now)
        return plans


def prepare(query: Union[Predicate, PreparedQuery]) -> PreparedQuery:
    """The prepared form of ``query`` (itself, if it already is one)."""
    if isinstance(query, PreparedQuery):
        return query
    return PreparedQuery(query)


class PreparedCache:
    """A bounded LRU of prepared queries, one per client or Index Node."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, PreparedQuery]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable,
            parse: Optional[Callable[[Any], Predicate]] = None
            ) -> PreparedQuery:
        """The query prepared under ``key``: the predicate itself, or
        whatever ``parse(key)`` makes of it on a miss (a ``parse`` that
        raises caches nothing)."""
        entries = self._entries
        query = entries.get(key)
        if query is None:
            query = PreparedQuery(key if parse is None else parse(key))
            entries[key] = query
            if len(entries) > self.capacity:
                entries.popitem(last=False)
        else:
            entries.move_to_end(key)
        return query
