"""Query planning: pick the best index for a predicate.

Per ACG, the Index Node holds a table of named indices, each described by
an :class:`IndexSpec` (which attributes it covers and with which
structure).  The planner inspects the query's top-level conjuncts and
chooses one access path — hash for equality, B+tree for a 1-D range,
K-D tree for multi-attribute ranges, keyword-hash for keyword terms — and
leaves the full predicate as a residual filter.  Anything it cannot serve
from an index falls back to a scan of the ACG's file list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.indexstructures.base import IndexKind
from repro.query.ast import Compare, Keyword, Predicate, conjuncts

KEYWORD_ATTR = "keyword"


@dataclass(frozen=True)
class IndexSpec:
    """Declares one named index: which attributes it covers, and how.

    B+tree and hash indices cover exactly one attribute; a K-D tree covers
    ``len(attrs)`` numeric attributes.  A hash index over ``keyword``
    serves :class:`Keyword` predicates (one entry per path token).
    """

    name: str
    kind: IndexKind
    attrs: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind in (IndexKind.BTREE, IndexKind.HASH) and len(self.attrs) != 1:
            raise QueryError(f"{self.kind.value} index must cover exactly one attribute")
        if self.kind is IndexKind.KDTREE and len(self.attrs) < 1:
            raise QueryError("kdtree index must cover at least one attribute")


@dataclass(frozen=True)
class Plan:
    """One access path plus bookkeeping for the executor.

    ``access`` is one of: ``scan``, ``hash_eq``, ``keyword``,
    ``btree_range``, ``kdtree_range``.
    """

    access: str
    index_name: Optional[str] = None
    key: object = None                      # hash_eq / keyword
    low: object = None                      # btree_range
    high: object = None
    include_low: bool = True
    include_high: bool = True
    lows: Tuple[Optional[float], ...] = ()  # kdtree_range
    highs: Tuple[Optional[float], ...] = ()

    def describe(self) -> str:
        """EXPLAIN-style one-liner for operators and tests."""
        if self.access == "scan":
            return "SCAN all files (residual filter only)"
        if self.access == "hash_eq":
            return f"HASH EQ {self.index_name}[{self.key!r}]"
        if self.access == "keyword":
            return f"KEYWORD {self.index_name}[{self.key!r}]"
        if self.access == "btree_range":
            lo = "-inf" if self.low is None else repr(self.low)
            hi = "+inf" if self.high is None else repr(self.high)
            lob = "[" if self.include_low else "("
            hib = "]" if self.include_high else ")"
            return f"BTREE RANGE {self.index_name} {lob}{lo}, {hi}{hib}"
        if self.access == "kdtree_range":
            parts = []
            for lo, hi in zip(self.lows, self.highs):
                if lo is None and hi is None:
                    parts.append("*")
                else:
                    lo_s = "-inf" if lo is None else f"{lo:g}"
                    hi_s = "+inf" if hi is None else f"{hi:g}"
                    parts.append(f"{lo_s}..{hi_s}")
            return f"KDTREE RANGE {self.index_name} ({', '.join(parts)})"
        return f"UNKNOWN ACCESS {self.access!r}"


_Bound = Tuple[Optional[object], bool, Optional[object], bool]  # low, incl, high, incl


def _merge_bounds(existing: _Bound, compare: Compare) -> _Bound:
    low, include_low, high, include_high = existing
    op, value = compare.op, compare.value
    if op == "==":
        candidates = [(value, True, value, True)]
    elif op in (">", ">="):
        candidates = [(value, op == ">=", None, True)]
    elif op in ("<", "<="):
        candidates = [(None, True, value, op == "<=")]
    else:  # '!=' is not index-servable as a range
        return existing
    new_low, new_incl_low, new_high, new_incl_high = candidates[0]
    if new_low is not None and (low is None or new_low > low):
        low, include_low = new_low, new_incl_low
    elif new_low is not None and new_low == low:
        include_low = include_low and new_incl_low
    if new_high is not None and (high is None or new_high < high):
        high, include_high = new_high, new_incl_high
    elif new_high is not None and new_high == high:
        include_high = include_high and new_incl_high
    return low, include_low, high, include_high


def plan_query(predicate: Predicate, specs: Sequence[IndexSpec], now: float) -> Plan:
    """Choose the best single access path for ``predicate``.

    Only top-level conjuncts are index-servable (Or/Not subtrees always go
    to the residual filter).  Preference order: hash equality > keyword >
    K-D tree multi-range > B+tree single range > scan.
    """
    equality: Dict[str, object] = {}
    bounds: Dict[str, _Bound] = {}
    compared_attrs: set = set()
    keywords: List[str] = []
    for term in conjuncts(predicate):
        if isinstance(term, Compare):
            resolved = term.resolved(now)
            compared_attrs.add(resolved.attr)
            if resolved.op == "==":
                equality.setdefault(resolved.attr, resolved.value)
            if resolved.op in ("<", "<=", ">", ">=", "=="):
                current = bounds.get(resolved.attr, (None, True, None, True))
                try:
                    bounds[resolved.attr] = _merge_bounds(current, resolved)
                except TypeError:
                    # Bounds that do not order with each other
                    # (``owner == ann & owner == 1``): the range keeps
                    # the earlier ones and the residual filter decides.
                    pass
        elif isinstance(term, Keyword):
            keywords.append(term.term)

    hash_specs = {s.attrs[0]: s for s in specs
                  if s.kind is IndexKind.HASH and s.attrs[0] != KEYWORD_ATTR}
    keyword_spec = next((s for s in specs
                         if s.kind is IndexKind.HASH and s.attrs[0] == KEYWORD_ATTR), None)
    btree_specs = {s.attrs[0]: s for s in specs if s.kind is IndexKind.BTREE}
    kdtree_specs = [s for s in specs if s.kind is IndexKind.KDTREE]

    for attr, value in equality.items():
        if attr in hash_specs:
            return Plan("hash_eq", index_name=hash_specs[attr].name, key=value)
    if keywords and keyword_spec is not None:
        return Plan("keyword", index_name=keyword_spec.name, key=keywords[0])

    # A K-D index is *partial*: files missing any covered attribute are
    # not in it.  It is only a sound access path when the query has a
    # conjunct on every covered attribute (a file missing one of them
    # cannot match the predicate anyway).
    best_kd: Optional[Tuple[int, IndexSpec]] = None
    for spec in kdtree_specs:
        if not all(attr in compared_attrs for attr in spec.attrs):
            continue
        covered = sum(1 for attr in spec.attrs if attr in bounds)
        if covered and (best_kd is None or covered > best_kd[0]):
            best_kd = (covered, spec)
    if best_kd is not None and best_kd[0] >= 1:
        spec = best_kd[1]
        lows = tuple(
            None if attr not in bounds or bounds[attr][0] is None
            else float(bounds[attr][0])  # type: ignore[arg-type]
            for attr in spec.attrs
        )
        highs = tuple(
            None if attr not in bounds or bounds[attr][2] is None
            else float(bounds[attr][2])  # type: ignore[arg-type]
            for attr in spec.attrs
        )
        if any(b is not None for b in lows + highs):
            return Plan("kdtree_range", index_name=spec.name, lows=lows, highs=highs)

    for attr, (low, incl_low, high, incl_high) in bounds.items():
        if attr in btree_specs and (low is not None or high is not None):
            return Plan("btree_range", index_name=btree_specs[attr].name,
                        low=low, high=high,
                        include_low=incl_low, include_high=incl_high)

    return Plan("scan")


def plan_query_set(predicate: Predicate, specs: Sequence[IndexSpec],
                   now: float) -> List[Plan]:
    """Plan a query as a *set* of access paths whose union covers it.

    A top-level disjunction whose every branch is individually indexable
    becomes one plan per branch (executed as a union, each filtered by
    the full predicate, so exactness is preserved); anything else falls
    back to the single best plan from :func:`plan_query`.
    """
    from repro.query.ast import Or

    if isinstance(predicate, Or):
        plans = [plan_query(child, specs, now) for child in predicate.children]
        if all(plan.access != "scan" for plan in plans):
            return plans
    return [plan_query(predicate, specs, now)]
