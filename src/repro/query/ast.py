"""Predicate AST for file-search queries.

Leaves compare a file attribute against a constant (:class:`Compare`) or
test a path keyword (:class:`Keyword`); interior nodes combine with
And/Or/Not.  Time-relative constants ("mtime < 1 day") are kept symbolic
as :class:`RelativeAge` and resolved against *now* at evaluation/planning
time, because an index lookup at t0 and at t1 must see different absolute
bounds.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import (Any, Callable, Dict, FrozenSet, Iterator, List, Sequence,
                    Set, Tuple, Union)

from repro.errors import QueryError

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}


_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


def path_tokens(text: str) -> List[str]:
    """The lower-cased alphanumeric runs of ``text``, in order — what a
    path is indexed under, and so what a keyword term is looked up as."""
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


def tokenize_path(path: str) -> FrozenSet[str]:
    """Keywords of a path: lower-cased alphanumeric runs, plus stem splits.

    ``/home/john/.mozilla/prefs.js`` → {home, john, mozilla, prefs, js}.
    This mirrors the paper's MySQL schema, which extracts keywords from
    the full file path.
    """
    return frozenset(path_tokens(path))


def is_numeric(value: Any) -> bool:
    """Whether a value orders with numbers (bool counts; complex does not)."""
    return isinstance(value, (int, float))


@dataclass(frozen=True)
class RelativeAge:
    """An age in seconds, resolved to an absolute mtime bound at runtime.

    ``mtime < RelativeAge(86400)`` reads "modified within the last day":
    the *age* (now − mtime) is under 86 400 s, i.e. mtime > now − 86 400.
    """

    seconds: float

    def cutoff(self, now: float) -> float:
        """The absolute mtime bound this age means at time ``now``."""
        return now - self.seconds


class Predicate:
    """Base class; use the concrete subclasses below."""

    def __and__(self, other: "Predicate") -> "And":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class Compare(Predicate):
    """attribute <op> constant."""

    attr: str
    op: str
    value: Union[int, float, str, RelativeAge]

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise QueryError(f"unknown comparison operator: {self.op!r}")

    def resolved(self, now: float) -> "Compare":
        """Translate a RelativeAge bound into an absolute comparison."""
        if not isinstance(self.value, RelativeAge):
            return self
        cutoff = self.value.cutoff(now)
        flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
                   "==": "==", "!=": "!="}[self.op]
        return Compare(self.attr, flipped, cutoff)


@dataclass(frozen=True)
class Keyword(Predicate):
    """True when the term appears among the file's path keywords."""

    term: str


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction: every child must match."""
    children: Tuple[Predicate, ...]


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction: any child may match."""
    children: Tuple[Predicate, ...]


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of the child predicate."""
    child: Predicate


def matches(predicate: Predicate, attrs: Dict[str, Any],
            keywords: FrozenSet[str], now: float) -> bool:
    """Evaluate a predicate against one file's attributes + keywords.

    Missing attributes never match a comparison (matching SQL NULL
    semantics under conjunction).

    This is the *reference interpreter*: the oracles (brute-force scan,
    crawler baseline, chaos checker) evaluate with it, and the serving
    path's compiled matcher
    (:meth:`repro.query.prepared.PreparedQuery.matcher`) is pinned to it
    by differential tests.
    """
    if isinstance(predicate, Compare):
        resolved = predicate.resolved(now)
        value = attrs.get(resolved.attr)
        if value is None:
            return False
        try:
            return _OPS[resolved.op](value, resolved.value)
        except TypeError:
            return False
    if isinstance(predicate, Keyword):
        return predicate.term in keywords
    if isinstance(predicate, And):
        return all(matches(c, attrs, keywords, now) for c in predicate.children)
    if isinstance(predicate, Or):
        return any(matches(c, attrs, keywords, now) for c in predicate.children)
    if isinstance(predicate, Not):
        return not matches(predicate.child, attrs, keywords, now)
    raise QueryError(f"unknown predicate node: {predicate!r}")


def attributes_referenced(predicate: Predicate) -> Set[str]:
    """All attribute names a predicate touches (keywords excluded)."""
    if isinstance(predicate, Compare):
        return {predicate.attr}
    if isinstance(predicate, Keyword):
        return set()
    if isinstance(predicate, (And, Or)):
        out: Set[str] = set()
        for child in predicate.children:
            out |= attributes_referenced(child)
        return out
    if isinstance(predicate, Not):
        return attributes_referenced(predicate.child)
    raise QueryError(f"unknown predicate node: {predicate!r}")


def conjuncts(predicate: Predicate) -> Iterator[Predicate]:
    """Flatten nested Ands into their top-level conjuncts."""
    if isinstance(predicate, And):
        for child in predicate.children:
            yield from conjuncts(child)
    else:
        yield predicate
