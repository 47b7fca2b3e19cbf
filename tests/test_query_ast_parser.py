"""Query AST evaluation and the query-language parser."""

import pytest

from repro.errors import QueryError
from repro.query.ast import (
    And,
    Compare,
    Keyword,
    Not,
    Or,
    RelativeAge,
    attributes_referenced,
    conjuncts,
    matches,
)
from repro.query.parser import parse_query, parse_query_directory


def m(pred, attrs, keywords=frozenset(), now=1000.0):
    return matches(pred, attrs, frozenset(keywords), now)


# -- AST evaluation -------------------------------------------------------------

def test_compare_ops():
    attrs = {"size": 10}
    assert m(Compare("size", ">", 5), attrs)
    assert not m(Compare("size", ">", 10), attrs)
    assert m(Compare("size", ">=", 10), attrs)
    assert m(Compare("size", "==", 10), attrs)
    assert m(Compare("size", "!=", 11), attrs)
    assert m(Compare("size", "<", 11), attrs)
    assert m(Compare("size", "<=", 10), attrs)


def test_unknown_op_rejected():
    with pytest.raises(QueryError):
        Compare("size", "~", 5)


def test_missing_attribute_never_matches():
    assert not m(Compare("size", ">", 0), {})
    assert not m(Compare("size", "!=", 5), {})


def test_type_mismatch_never_matches():
    assert not m(Compare("size", ">", 5), {"size": "a-string"})


def test_relative_age_resolution():
    # mtime < 1 day == modified within the last day == mtime > now - 86400.
    pred = Compare("mtime", "<", RelativeAge(86400))
    assert m(pred, {"mtime": 999_000}, now=1_000_000)
    assert not m(pred, {"mtime": 100}, now=1_000_000)


def test_relative_age_flips_all_ops():
    assert Compare("mtime", "<", RelativeAge(10)).resolved(100).op == ">"
    assert Compare("mtime", ">", RelativeAge(10)).resolved(100).op == "<"
    assert Compare("mtime", "<=", RelativeAge(10)).resolved(100).op == ">="
    assert Compare("mtime", ">=", RelativeAge(10)).resolved(100).op == "<="
    assert Compare("mtime", "<", RelativeAge(10)).resolved(100).value == 90


def test_keyword_match():
    assert m(Keyword("firefox"), {}, {"firefox", "bin"})
    assert not m(Keyword("chrome"), {}, {"firefox"})


def test_boolean_combinators():
    attrs = {"size": 10}
    big = Compare("size", ">", 5)
    small = Compare("size", "<", 5)
    assert m(And((big, Compare("size", "<", 20))), attrs)
    assert not m(And((big, small)), attrs)
    assert m(Or((small, big)), attrs)
    assert not m(Not(big), attrs)
    assert m(Not(small), attrs)


def test_operator_sugar():
    a, b = Compare("size", ">", 1), Compare("size", "<", 9)
    assert isinstance(a & b, And)
    assert isinstance(a | b, Or)
    assert isinstance(~a, Not)


def test_attributes_referenced():
    pred = And((Compare("size", ">", 1),
                Or((Compare("mtime", "<", 2), Keyword("x")))))
    assert attributes_referenced(pred) == {"size", "mtime"}


def test_conjuncts_flattening():
    a, b, c = (Compare("x", ">", i) for i in range(3))
    assert list(conjuncts(And((a, And((b, c)))))) == [a, b, c]
    assert list(conjuncts(a)) == [a]


# -- parser ------------------------------------------------------------------------

def test_parse_simple_compare():
    assert parse_query("size > 100") == Compare("size", ">", 100)


def test_parse_size_units():
    assert parse_query("size>1m").value == 1024**2
    assert parse_query("size>1g").value == 1024**3
    assert parse_query("size>16mb").value == 16 * 1024**2
    assert parse_query("size>2k").value == 2048


def test_parse_time_units():
    assert parse_query("mtime<1day").value == RelativeAge(86400.0)
    assert parse_query("mtime<1week").value == RelativeAge(604800.0)
    assert parse_query("mtime<2h").value == RelativeAge(7200.0)


def test_parse_float_literal():
    assert parse_query("score>2.5").value == 2.5


def test_parse_negative_literals():
    assert parse_query("energy<-8").value == -8
    assert parse_query("score>=-2.5").value == -2.5


def test_parse_string_literal():
    assert parse_query("owner == 'john'").value == "john"
    assert parse_query('owner == "john"').value == "john"


def test_parse_bareword_literal():
    assert parse_query("owner == john").value == "john"


def test_parse_keyword_term():
    assert parse_query("keyword:firefox") == Keyword("firefox")
    assert parse_query("keyword:FireFox") == Keyword("firefox")


def test_parse_keyword_term_is_tokenised_like_a_path():
    """A path is indexed under its alphanumeric runs, so that is what a
    term is looked up as: ``prefs.js`` is ``prefs`` AND ``js`` — as one
    token it could equal no keyword of any file."""
    assert parse_query("keyword:prefs.js") \
        == parse_query("keyword:prefs & keyword:js") \
        == And((Keyword("prefs"), Keyword("js")))
    assert parse_query("keyword:'My-File_v2'") \
        == And((Keyword("my"), Keyword("file"), Keyword("v2")))
    assert parse_query("keyword:'.bashrc'") == Keyword("bashrc")
    assert parse_query("keyword:1.5") == And((Keyword("1"), Keyword("5")))
    negated = parse_query("size>1 & !keyword:a-b")
    assert negated.children[1] == Not(And((Keyword("a"), Keyword("b"))))
    for bad in ("keyword:'...'", "keyword:_", "keyword:''"):
        with pytest.raises(QueryError):
            parse_query(bad)


def test_parse_paper_queries():
    q1 = parse_query("size > 1g & mtime < 1day")
    assert isinstance(q1, And) and len(q1.children) == 2
    q2 = parse_query("keyword:firefox & mtime < 1week")
    assert isinstance(q2.children[0], Keyword)


def test_parse_or_and_precedence():
    # a & b | c & d  parses as (a&b) | (c&d)
    pred = parse_query("size>1 & size<5 | mtime>2 & mtime<9")
    assert isinstance(pred, Or)
    assert all(isinstance(c, And) for c in pred.children)


def test_parse_parentheses_and_not():
    pred = parse_query("!(size>1 | size<0)")
    assert isinstance(pred, Not)
    assert isinstance(pred.child, Or)


def test_parse_errors():
    for bad in ("", "   ", "size >", "size ~ 3", "keyword:", "(size>1",
                "size>1 size<2", "size>1 &", "badunit>3qq"):
        with pytest.raises(QueryError):
            parse_query(bad)


def test_parse_colon_only_for_keyword():
    with pytest.raises(QueryError):
        parse_query("size:100")


def test_parse_query_directory():
    scope, pred = parse_query_directory("/foo/bar/?size>1m")
    assert scope == "/foo/bar"
    assert pred == Compare("size", ">", 1024**2)


def test_parse_query_directory_root():
    scope, _ = parse_query_directory("/?size>1")
    assert scope == "/"


def test_parse_query_directory_requires_question_mark():
    with pytest.raises(QueryError):
        parse_query_directory("/foo/bar")
