"""Predicate canonicalization.

Two predicates that mean the same thing — ``a & b`` vs ``b & a``, nested
vs flat conjunctions, duplicated terms — should produce the same cache
key, so a client's held answers serve syntactic variants too.
:func:`canonicalize` rewrites a predicate into a normal form (flattened,
sorted, deduplicated And/Or); since every AST node is a frozen dataclass
the canonical predicate is itself hashable and serves directly as the
cache key.

:func:`is_time_dependent` spots predicates whose meaning shifts with the
evaluation clock (``mtime < 1 day`` keeps a symbolic
:class:`~repro.query.ast.RelativeAge` bound): their results cannot be
held under a commit watermark alone, because the *same* quiescent
partition can legitimately answer differently at a later time.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import QueryError
from repro.query.ast import And, Compare, Keyword, Not, Or, Predicate


def _sort_key(predicate: Predicate) -> Tuple:
    """A deterministic total order over canonical predicates."""
    if isinstance(predicate, Compare):
        return ("compare", predicate.attr, predicate.op, repr(predicate.value))
    if isinstance(predicate, Keyword):
        return ("keyword", predicate.term)
    if isinstance(predicate, Not):
        return ("not",) + _sort_key(predicate.child)
    children = tuple(_sort_key(c) for c in predicate.children)  # type: ignore[union-attr]
    kind = "and" if isinstance(predicate, And) else "or"
    return (kind, children)


def canonicalize(predicate: Predicate) -> Predicate:
    """Normal form: flatten nested And/Or of the same kind, sort the
    children deterministically, drop duplicates, and collapse
    single-child combinators.  Semantics are preserved exactly."""
    if isinstance(predicate, (Compare, Keyword)):
        return predicate
    if isinstance(predicate, Not):
        return Not(canonicalize(predicate.child))
    if isinstance(predicate, (And, Or)):
        kind = type(predicate)
        flat = []
        for child in predicate.children:
            canon = canonicalize(child)
            if isinstance(canon, kind):
                flat.extend(canon.children)
            else:
                flat.append(canon)
        unique = []
        seen = set()
        for child in sorted(flat, key=_sort_key):
            key = _sort_key(child)
            if key not in seen:
                seen.add(key)
                unique.append(child)
        if len(unique) == 1:
            return unique[0]
        return kind(tuple(unique))
    raise QueryError(f"unknown predicate node: {predicate!r}")


def is_time_dependent(predicate: Predicate) -> bool:
    """Whether any comparison keeps a symbolic RelativeAge bound (and so
    resolves differently as the clock advances)."""
    from repro.query.ast import RelativeAge

    if isinstance(predicate, Compare):
        return isinstance(predicate.value, RelativeAge)
    if isinstance(predicate, Keyword):
        return False
    if isinstance(predicate, Not):
        return is_time_dependent(predicate.child)
    if isinstance(predicate, (And, Or)):
        return any(is_time_dependent(c) for c in predicate.children)
    raise QueryError(f"unknown predicate node: {predicate!r}")
