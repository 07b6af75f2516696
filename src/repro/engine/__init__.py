"""Execution engine: physical operators, B+ tree, stores."""

from .breaker import BreakerBoard, CircuitBreaker
from .btree import BPlusTree
from .context import (
    CostModel,
    EmptyStatistics,
    ExecutionContext,
    OperatorMetrics,
    PlanMetrics,
    StatisticsProvider,
    Tunables,
)
from .faults import FAULT_POINTS, FaultInjector, FaultSpec, parse_fault_specs
from .orderdesc import satisfies, sort_key_for
from .plan_cache import CacheStats, PlanCache, normalize_query
from .qlog import (
    QueryLog,
    build_record,
    fingerprint_plan,
    iter_ok_records,
    result_checksum,
)
from .sentinel import PlanRegressionSentinel, RegressionFinding, SentinelConfig
from .physical import (
    PBase,
    PConcat,
    PDifference,
    PFilter,
    PHashGroupBy,
    PHashJoin,
    PLogicalFallback,
    PNestedLoopsJoin,
    PProject,
    PScan,
    PSort,
    PStackTreeAnc,
    PStackTreeDesc,
    PhysicalOperator,
    compile_plan,
)
from .storage import Store, StoredRelation

__all__ = [
    "BreakerBoard",
    "CircuitBreaker",
    "BPlusTree",
    "CostModel",
    "FAULT_POINTS",
    "FaultInjector",
    "FaultSpec",
    "parse_fault_specs",
    "EmptyStatistics",
    "ExecutionContext",
    "OperatorMetrics",
    "PlanMetrics",
    "StatisticsProvider",
    "Tunables",
    "satisfies",
    "sort_key_for",
    "CacheStats",
    "PlanCache",
    "normalize_query",
    "QueryLog",
    "build_record",
    "fingerprint_plan",
    "iter_ok_records",
    "result_checksum",
    "PlanRegressionSentinel",
    "RegressionFinding",
    "SentinelConfig",
    "PBase",
    "PConcat",
    "PDifference",
    "PFilter",
    "PHashGroupBy",
    "PHashJoin",
    "PLogicalFallback",
    "PNestedLoopsJoin",
    "PProject",
    "PScan",
    "PSort",
    "PStackTreeAnc",
    "PStackTreeDesc",
    "PhysicalOperator",
    "compile_plan",
    "Store",
    "StoredRelation",
]
