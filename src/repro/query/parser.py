"""Query text parsing.

Grammar (both the API form and the query-directory form use it)::

    query    := disjunct
    disjunct := conjunct ('|' conjunct)*
    conjunct := term ('&' term)*
    term     := '!' term | '(' disjunct ')' | keyword | compare
    keyword  := 'keyword' ':' TERM      (a TERM of several alphanumeric
                                         runs, ``prefs.js``, is their AND)
    compare  := ATTR OP literal
    OP       := < <= == != >= >
    literal  := NUMBER [size-unit | time-unit] | STRING

Size units: k/kb, m/mb, g/gb, t/tb (powers of 1024).  Time units turn the
number into a :class:`~repro.query.ast.RelativeAge`: s/sec, min, h/hour,
day, week.  Examples from the paper: ``size>1g & mtime<1day``,
``keyword:firefox & mtime<1week``, ``size>16mb``.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import QueryError
from repro.query.ast import (And, Compare, Keyword, Not, Or, Predicate,
                             RelativeAge, path_tokens)

_SIZE_UNITS = {
    "b": 1,
    "k": 1024, "kb": 1024,
    "m": 1024**2, "mb": 1024**2,
    "g": 1024**3, "gb": 1024**3,
    "t": 1024**4, "tb": 1024**4,
}
_TIME_UNITS = {
    "s": 1.0, "sec": 1.0, "second": 1.0, "seconds": 1.0,
    "min": 60.0, "minute": 60.0, "minutes": 60.0,
    "h": 3600.0, "hour": 3600.0, "hours": 3600.0,
    "day": 86400.0, "days": 86400.0,
    "week": 604800.0, "weeks": 604800.0,
}

_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<op><=|>=|==|!=|<|>)
    | (?P<punct>[()&|!:])
    | (?P<number>-?\d+(?:\.\d+)?)(?P<unit>[a-zA-Z]*)
    | (?P<word>[A-Za-z_][A-Za-z0-9_.\-]*)
    | (?P<string>"[^"]*"|'[^']*')
    )""", re.VERBOSE)


def _tokenize(text: str) -> List[Tuple[str, object]]:
    tokens: List[Tuple[str, object]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise QueryError(f"cannot tokenize query at: {text[pos:]!r}")
        pos = match.end()
        if match.group("op"):
            tokens.append(("op", match.group("op")))
        elif match.group("punct"):
            tokens.append(("punct", match.group("punct")))
        elif match.group("number"):
            tokens.append(("number", (float(match.group("number")),
                                      match.group("unit").lower())))
        elif match.group("word"):
            tokens.append(("word", match.group("word")))
        else:
            tokens.append(("string", match.group("string")[1:-1]))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Tuple[str, object]], source: str) -> None:
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> Optional[Tuple[str, object]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> Tuple[str, object]:
        token = self.peek()
        if token is None:
            raise QueryError(f"unexpected end of query: {self.source!r}")
        self.pos += 1
        return token

    def expect(self, kind: str, value: object = None) -> object:
        token_kind, token_value = self.take()
        if token_kind != kind or (value is not None and token_value != value):
            raise QueryError(
                f"expected {value or kind} in {self.source!r}, got {token_value!r}"
            )
        return token_value

    def parse(self) -> Predicate:
        predicate = self.disjunct()
        if self.peek() is not None:
            raise QueryError(f"trailing tokens in query: {self.source!r}")
        return predicate

    def disjunct(self) -> Predicate:
        terms = [self.conjunct()]
        while self.peek() == ("punct", "|"):
            self.take()
            terms.append(self.conjunct())
        return terms[0] if len(terms) == 1 else Or(tuple(terms))

    def conjunct(self) -> Predicate:
        terms = [self.term()]
        while self.peek() == ("punct", "&"):
            self.take()
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else And(tuple(terms))

    def term(self) -> Predicate:
        token = self.peek()
        if token == ("punct", "!"):
            self.take()
            return Not(self.term())
        if token == ("punct", "("):
            self.take()
            inner = self.disjunct()
            self.expect("punct", ")")
            return inner
        kind, value = self.take()
        if kind != "word":
            raise QueryError(f"expected attribute or keyword in {self.source!r}")
        if self.peek() == ("punct", ":"):
            if value != "keyword":
                raise QueryError(f"only 'keyword:' terms use ':' ({self.source!r})")
            self.take()
            term_kind, term_value = self.take()
            if term_kind not in ("word", "string", "number"):
                raise QueryError(f"bad keyword term in {self.source!r}")
            if term_kind == "number":
                number, unit = term_value  # type: ignore[misc]
                term_value = f"{number:g}{unit}"
            # A term is looked up the way paths are indexed: by its
            # alphanumeric runs, all of which the path must carry.
            tokens = path_tokens(str(term_value))
            if not tokens:
                raise QueryError(
                    f"keyword term {term_value!r} has no letters or digits "
                    f"({self.source!r})")
            if len(tokens) == 1:
                return Keyword(tokens[0])
            return And(tuple(Keyword(token) for token in tokens))
        op = self.expect("op")
        literal = self._literal(str(value))
        return Compare(str(value), str(op), literal)

    def _literal(self, attr: str):
        kind, value = self.take()
        if kind == "string":
            return value
        if kind == "word":
            return value
        if kind == "number":
            number, unit = value  # type: ignore[misc]
            if not unit:
                return number if number != int(number) else int(number)
            if unit in _SIZE_UNITS:
                return int(number * _SIZE_UNITS[unit])
            if unit in _TIME_UNITS:
                return RelativeAge(number * _TIME_UNITS[unit])
            raise QueryError(f"unknown unit {unit!r} on attribute {attr!r}")
        raise QueryError(f"bad literal for attribute {attr!r}")


def parse_query(text: str) -> Predicate:
    """Parse the API query form, e.g. ``"size>1g & mtime<1day"``."""
    if not text or not text.strip():
        raise QueryError("empty query")
    return _Parser(_tokenize(text), text).parse()


def parse_query_directory(path: str) -> Tuple[str, Predicate]:
    """Parse a dynamic query-directory path like ``/foo/bar/?size>1m``.

    Returns (scope_directory, predicate); the scope is the path prefix the
    search is restricted to.
    """
    if "?" not in path:
        raise QueryError(f"not a query directory (no '?'): {path!r}")
    prefix, _, query = path.partition("?")
    scope = prefix.rstrip("/") or "/"
    return scope, parse_query(query)
