"""File-search query engine.

Propeller's File Query Engine accepts searches either through a file-search
API or through dynamic query-directories in the namespace — e.g. listing
``/foo/bar/?size>1m`` runs the query (Section IV).  This subpackage parses
both forms into a predicate AST (:mod:`ast`), prepares it once per process
(:mod:`prepared`: canonical form, compiled matcher and summary check),
plans which per-ACG index to use (:mod:`planner`), and executes plans
against an Index Node's index table (:mod:`executor`).
"""

from repro.query.ast import (
    And,
    Compare,
    Keyword,
    Not,
    Or,
    Predicate,
    RelativeAge,
    attributes_referenced,
    matches,
)
from repro.query.canonical import canonicalize, is_time_dependent
from repro.query.executor import AttributeStore, execute, tokenize_path
from repro.query.parser import parse_query, parse_query_directory
from repro.query.planner import IndexSpec, Plan, plan_query
from repro.query.prepared import PreparedQuery, prepare
from repro.query.summary import (PartitionSummary, SummarySnapshot,
                                 summary_may_match)

__all__ = [
    "And",
    "Compare",
    "Keyword",
    "Not",
    "Or",
    "Predicate",
    "RelativeAge",
    "attributes_referenced",
    "matches",
    "AttributeStore",
    "execute",
    "tokenize_path",
    "parse_query",
    "parse_query_directory",
    "IndexSpec",
    "Plan",
    "plan_query",
    "PreparedQuery",
    "prepare",
    "canonicalize",
    "is_time_dependent",
    "PartitionSummary",
    "SummarySnapshot",
    "summary_may_match",
]
