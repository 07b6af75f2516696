"""The paper's primary contribution: XAMs, containment, rewriting, ULoad."""

from .xam import (
    CHILD,
    DESCENDANT,
    EDGE_SEMANTICS,
    JOIN,
    NEST,
    NEST_OUTER,
    OUTER,
    SEMI,
    Pattern,
    PatternEdge,
    PatternNode,
)
from .xam_parser import XAMParseError, parse_pattern, pattern_from_path
from .embedding import evaluate_pattern, return_tuples
from .semantics import (
    binding_signature,
    evaluate_algebraic,
    evaluate_with_bindings,
    tag_derived_collection,
    tuple_intersection,
)
from .canonical import (
    CanonicalTree,
    CanonNode,
    canonical_model,
    is_satisfiable,
    path_annotations,
    summary_embeddings,
)
from .containment import ContainmentError, is_contained, is_equivalent
from .minimize import (
    contractions,
    minimize_by_contraction,
    minimize_under_summary,
)
from .plan_pattern import GlueCondition, expand_view, merged_patterns
from .rewrite import (
    DeepRename,
    Regroup,
    Rewriting,
    SatisfiesFormula,
    SearchStats,
    rewrite_pattern,
)
from .uload import (
    Database,
    PatternResolution,
    PreparedQuery,
    QueryCancelled,
    QueryResult,
)
from .service import QueryService, QuerySession, QueryTimeout
from .replay import (
    ReplayDiff,
    ReplayReport,
    load_records,
    replay_file,
    replay_records,
)

__all__ = [
    "CHILD",
    "DESCENDANT",
    "EDGE_SEMANTICS",
    "JOIN",
    "NEST",
    "NEST_OUTER",
    "OUTER",
    "SEMI",
    "Pattern",
    "PatternEdge",
    "PatternNode",
    "XAMParseError",
    "parse_pattern",
    "pattern_from_path",
    "evaluate_pattern",
    "return_tuples",
    "binding_signature",
    "evaluate_algebraic",
    "evaluate_with_bindings",
    "tag_derived_collection",
    "tuple_intersection",
    "CanonicalTree",
    "CanonNode",
    "canonical_model",
    "is_satisfiable",
    "path_annotations",
    "summary_embeddings",
    "ContainmentError",
    "is_contained",
    "is_equivalent",
    "contractions",
    "minimize_by_contraction",
    "minimize_under_summary",
    "GlueCondition",
    "expand_view",
    "merged_patterns",
    "DeepRename",
    "Regroup",
    "Rewriting",
    "SatisfiesFormula",
    "rewrite_pattern",
    "SearchStats",
    "Database",
    "PatternResolution",
    "PreparedQuery",
    "QueryCancelled",
    "QueryResult",
    "QueryService",
    "QuerySession",
    "QueryTimeout",
    "ReplayDiff",
    "ReplayReport",
    "load_records",
    "replay_file",
    "replay_records",
]
