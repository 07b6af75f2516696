"""Physical plan nodes and the logical→physical compiler (thesis §1.2.3).

A physical plan is a tree of operator *descriptions*: each node names
the algorithm the engine runs, its parameters, the order descriptor of
its output and the compiler's cardinality estimate.  The node library
mirrors the thesis engine:

* ``Scan``/``Filter``/``Project``/``Union`` — straightforward streaming;
* ``Sort`` — the thesis' B+-tree Sort_φ;
* ``HashGroupBy`` — memory-resident hash table, for γ and for the
  rewriter's re-nesting γⁿ (:class:`~repro.algebra.operators.Regroup`);
* ``Rename`` / ``XMLize`` — a :class:`~repro.algebra.operators.DeepRename`
  that could not be folded into a scan, and template construction;
* value joins — nested loops and hash join;
* structural joins — the **StackTreeDesc** and **StackTreeAnc** algorithms
  of Al-Khalifa et al., requiring both inputs sorted by structural ID;
  ``StackTreeDesc`` emits in descendant order, ``StackTreeAnc`` in
  ancestor order.  Outer/semi/nest variants derive from the
  ancestor-grouped formulation, as the thesis implements them.

Execution lives in :mod:`repro.engine.batch`, which compiles a plan into
one block-at-a-time closure per node.

:func:`compile_plan` lowers a logical plan to a physical one, consulting
order descriptors (:mod:`repro.engine.orderdesc`) and inserting ``Sort``
operators so that structural joins are correctly piped — the exact
bookkeeping §1.2.3 motivates.  Renames fold into the scans below them, so
they neither cost a pass of their own nor hide a scan's order.  The
remaining logical operators — ``Select`` with a reduce path, a
``StructuralJoin`` on a nested ancestor attribute (map-extended),
``Unnest``, ``NestAll``, ``DerivedColumn`` and ``Navigate`` — fall back to
a materializing wrapper around the logical operator, keeping the compiler
total.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator, Mapping, Optional, Sequence

from ..algebra.model import NestedTuple
from ..algebra.operators import (
    BaseTuples,
    DeepRename,
    Difference,
    GroupBy,
    Operator,
    Product,
    Project,
    Regroup,
    Scan,
    Select,
    StructuralJoin,
    Union,
    ValueJoin,
    XMLize,
    rename_attribute,
)
from ..algebra.predicates import Attr, Compare
from .context import ExecutionContext, OperatorMetrics
from .orderdesc import project_order, satisfies

__all__ = [
    "PhysicalOperator",
    "PScan",
    "PBase",
    "PFilter",
    "PProject",
    "PConcat",
    "PDifference",
    "PNestedLoopsJoin",
    "PHashJoin",
    "PSort",
    "PHashGroupBy",
    "PRename",
    "PXMLize",
    "PStackTreeDesc",
    "PStackTreeAnc",
    "PLogicalFallback",
    "compile_plan",
]


class PhysicalOperator:
    """Base class: children plus an order descriptor.

    ``estimated_rows`` is stamped by the compiler from the logical plan's
    cardinality walk, so EXPLAIN can print estimates and actuals side by
    side; ``metrics`` is the node :meth:`ExecutionContext.instrument`
    attaches for the batch closures to record actual rows and time into.
    """

    children: tuple["PhysicalOperator", ...] = ()
    output_order: Optional[str] = None
    #: compiler-estimated output cardinality (None = unknown)
    estimated_rows: Optional[float] = None
    #: runtime metrics node attached by ExecutionContext.instrument
    metrics: Optional[OperatorMetrics] = None
    #: attributed-profiling flag, stamped by ExecutionContext.instrument
    #: alongside ``metrics``; only consulted when a metrics node exists,
    #: so the unobserved fast path stays a single ``is None`` check
    profiled: bool = False

    def label(self) -> str:
        return type(self).__name__

    def shape(self) -> str:
        """Stable one-line structural signature of the plan subtree:
        operator labels (which carry the chosen algorithm — hash vs
        nested loops, StackTree variant, sort placement — and scanned
        relation names) over the child structure.  Plan fingerprints
        (:mod:`repro.engine.qlog`) hash this, so equal shapes mean "the
        engine would execute the same plan"."""
        if not self.children:
            return self.label()
        inner = ",".join(child.shape() for child in self.children)
        return f"{self.label()}({inner})"

    def walk(self) -> Iterator["PhysicalOperator"]:
        """Pre-order traversal (uniform with ``Operator.walk``)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def operator_count(self) -> int:
        return 1 + sum(child.operator_count() for child in self.children)

    def __repr__(self) -> str:
        return self.pretty()


class PScan(PhysicalOperator):
    """Read a named base relation from the execution context, advertising
    the order the store maintains it in (``scan_orders``).

    ``renames`` is a :class:`~repro.algebra.operators.DeepRename` mapping
    folded into the scan: each stored tuple is renamed as it is copied
    out, and the order descriptor is renamed with it.  ``flat`` records
    that every column is an atomic ``node.X`` attribute, so the rename
    need not look for collections to recurse into."""

    def __init__(
        self,
        name: str,
        order: Optional[str] = None,
        missing_ok: bool = False,
        renames: Optional[Mapping[str, str]] = None,
        flat: bool = False,
    ):
        self.name = name
        self.missing_ok = missing_ok
        self.renames = dict(renames) if renames else {}
        self.flat = flat
        self.output_order = _rename_path(self.renames, order)

    def label(self) -> str:
        if self.renames:
            return f"PScan({self.name} ρ[{_mapping_label(self.renames)}])"
        return f"PScan({self.name})"


class PBase(PhysicalOperator):
    """A literal tuple source (index-lookup results, test fixtures)."""

    def __init__(self, tuples: Sequence[NestedTuple], order: Optional[str] = None):
        self.tuples = list(tuples)
        self.output_order = order


class PFilter(PhysicalOperator):
    """Pipelined selection; preserves the child's order descriptor."""

    def __init__(self, child: PhysicalOperator, predicate: Callable[[NestedTuple], bool]):
        self.children = (child,)
        self.predicate = predicate
        self.output_order = child.output_order


class PProject(PhysicalOperator):
    def __init__(
        self,
        child: PhysicalOperator,
        columns: Sequence[str],
        dedup: bool = False,
        sources: Optional[Mapping[str, str]] = None,
    ):
        self.children = (child,)
        self.columns = list(columns)
        self.dedup = dedup
        self.sources = dict(sources) if sources else {}
        # projection streams in input order: the descriptor survives when
        # its attribute does (dedup keeps first occurrences, also in order)
        self.output_order = project_order(child.output_order, self.columns, self.sources)


class PConcat(PhysicalOperator):
    """Bag union of its inputs, in argument order (ordered only in the
    degenerate single-input case)."""

    def __init__(self, *parts: PhysicalOperator):
        self.children = tuple(parts)
        if len(parts) == 1:
            self.output_order = parts[0].output_order


class PDifference(PhysicalOperator):
    """Bag difference: left tuples minus right multiplicities (blocks on
    the right input to build the count table)."""

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator):
        self.children = (left, right)


class PSort(PhysicalOperator):
    """The thesis' B+-tree Sort_φ, executed as the stable sort that
    reproduces its order (equal keys keep input order)."""

    def __init__(self, child: PhysicalOperator, path: str):
        self.children = (child,)
        self.path = path
        self.output_order = path

    def label(self) -> str:
        return f"PSort[{self.path}]"


class PHashGroupBy(PhysicalOperator):
    """Hash grouping: one output tuple per key combination; groups emit in
    first-seen order.

    Without ``collections`` it is γ (:class:`GroupBy`): the group's
    members, keys dropped, nest under ``nest_as``.  With them it is γⁿ
    (:class:`Regroup`): one collection per ``(name, member_attrs,
    identity_attrs)`` spec, all-⊥ members (outer-join padding) skipped,
    and — with several collections — members deduplicated by identity."""

    def __init__(
        self,
        child: PhysicalOperator,
        keys: Sequence[str],
        nest_as: str = "group",
        collections: Sequence[tuple[str, Sequence[str], Sequence[str]]] = (),
    ):
        self.children = (child,)
        self.keys = list(keys)
        self.nest_as = nest_as
        self.collections = [
            (name, list(attrs), list(identity))
            for name, attrs, identity in collections
        ]
        # groups emit in first-seen order, so a child ordered by a grouping
        # key yields groups in that key's order
        if child.output_order in self.keys:
            self.output_order = child.output_order

    def label(self) -> str:
        if not self.collections:
            return "PHashGroupBy"
        built = ", ".join(name for name, _a, _i in self.collections)
        return f"PHashGroupBy[{', '.join(self.keys)} → {built}]"


class PRename(PhysicalOperator):
    """A :class:`~repro.algebra.operators.DeepRename` the compiler could
    not fold into a scan: renames every tuple (collection members
    included), carrying the order descriptor through."""

    def __init__(self, child: PhysicalOperator, mapping: Mapping[str, str]):
        self.children = (child,)
        self.mapping = dict(mapping)
        self.output_order = _rename_path(self.mapping, child.output_order)

    def label(self) -> str:
        return f"PRename[{_mapping_label(self.mapping)}]"


class PXMLize(PhysicalOperator):
    """Template construction (:class:`XMLize`): one ``xml`` tuple per
    input tuple, in input order."""

    def __init__(self, child: PhysicalOperator, template):
        self.children = (child,)
        self.template = template

    def label(self) -> str:
        return f"PXMLize[{self.template!r}]"


class PStackTreeDesc(PhysicalOperator):
    """Stack-based structural join emitting in **descendant** order.

    Requires both inputs sorted by their structural-ID attribute in
    document (pre) order.  Only the plain-join variant is meaningful in
    descendant order (per-ancestor variants group naturally in ancestor
    order — see :class:`PStackTreeAnc`).
    """

    def __init__(
        self,
        ancestors: PhysicalOperator,
        descendants: PhysicalOperator,
        anc_attr: str,
        desc_attr: str,
        axis: str = "descendant",
    ):
        self.children = (ancestors, descendants)
        self.anc_attr = anc_attr
        self.desc_attr = desc_attr
        self.axis = axis
        self.output_order = desc_attr

    def label(self) -> str:
        return f"PStackTreeDesc[{self.anc_attr} {self.axis} {self.desc_attr}]"


class PStackTreeAnc(PhysicalOperator):
    """Stack-based structural join emitting in **ancestor** order, with the
    join/semi/outer/nest/nest-outer variants (the thesis implements outer
    and semi joins "as variations of the StackTree algorithms").

    Output lists per popped ancestor are produced via inherit lists, the
    standard StackTreeAnc bookkeeping.
    """

    def __init__(
        self,
        ancestors: PhysicalOperator,
        descendants: PhysicalOperator,
        anc_attr: str,
        desc_attr: str,
        axis: str = "descendant",
        kind: str = "j",
        nest_as: str = "s",
        right_columns: Sequence[str] = (),
    ):
        self.children = (ancestors, descendants)
        self.anc_attr = anc_attr
        self.desc_attr = desc_attr
        self.axis = axis
        self.kind = kind
        self.nest_as = nest_as
        self.right_columns = list(right_columns)
        self.output_order = anc_attr

    def label(self) -> str:
        return (
            f"PStackTreeAnc[{self.anc_attr} {self.axis} {self.desc_attr}, "
            f"{self.kind}]"
        )


class PNestedLoopsJoin(PhysicalOperator):
    """Fallback join for arbitrary match functions; supports the same
    j/o/s/nj/no semantics as the logical joins.  Blocks on the right
    input."""

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        match: Callable[[NestedTuple, NestedTuple], bool],
        kind: str = "j",
        nest_as: str = "s",
        right_columns: Sequence[str] = (),
        description: str = "pred",
    ):
        self.children = (left, right)
        self.match = match
        self.kind = kind
        self.nest_as = nest_as
        self.right_columns = list(right_columns)
        self.description = description
        self.output_order = left.output_order if kind in ("s", "nj", "no") else None

    def label(self) -> str:
        return f"PNestedLoopsJoin[{self.description}, {self.kind}]"


class PHashJoin(PhysicalOperator):
    """Equality join backed by a memory-resident hash table on the right
    input."""

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_attr: str,
        right_attr: str,
        kind: str = "j",
        nest_as: str = "s",
        right_columns: Sequence[str] = (),
    ):
        self.children = (left, right)
        self.left_attr = left_attr
        self.right_attr = right_attr
        self.kind = kind
        self.nest_as = nest_as
        self.right_columns = list(right_columns)
        self.output_order = left.output_order if kind in ("s", "nj", "no") else None

    def label(self) -> str:
        return f"PHashJoin[{self.left_attr} = {self.right_attr}, {self.kind}]"


class PLogicalFallback(PhysicalOperator):
    """Materializing wrapper for the logical operators without a batch
    counterpart: ``Select`` with a reduce path, ``StructuralJoin`` on a
    nested ancestor attribute, ``Unnest``, ``NestAll``, ``DerivedColumn``
    and ``Navigate`` (plus any operator type the compiler does not know).
    Physical children are materialized, substituted as base inputs, and
    the logical operator evaluates over them."""

    def __init__(self, logical: Operator, children: Sequence[PhysicalOperator]):
        self.logical = logical
        self.children = tuple(children)

    def label(self) -> str:
        return f"PLogicalFallback[{self.logical.label()}]"


# ---------------------------------------------------------------------------
# Renames: composition, push-down and order descriptors
# ---------------------------------------------------------------------------

def _mapping_label(mapping: Mapping[str, str]) -> str:
    return ", ".join(f"{old}→{new}" for old, new in mapping.items())


def _rename_path(mapping: Mapping[str, str], path: Optional[str]) -> Optional[str]:
    """A ``/``-separated attribute path (an order descriptor, a nested
    join attribute) under a :class:`DeepRename`: the rename applies at
    every nesting level, so it applies to every step."""
    if path is None or not mapping:
        return path
    return "/".join(rename_attribute(mapping, step) for step in path.split("/"))


def _compose(inner: Mapping[str, str], outer: Mapping[str, str]) -> dict[str, str]:
    """The one mapping that renames as ``inner`` then ``outer`` do."""
    composed = {}
    for name in {**inner, **outer}:
        once = inner.get(name, name)
        twice = outer.get(once, once)
        if twice != name:
            composed[name] = twice
    return composed


def _flat(columns: Sequence[str]) -> bool:
    """Whether every column is an atomic ``node.X`` attribute (collection
    attributes carry the bare node name)."""
    return all("." in c and "/" not in c for c in columns)


def _renamed_compare(predicate: Compare, mapping: Mapping[str, str]) -> Compare:
    """An ``A θ B`` comparison with its attribute paths renamed (other
    predicates' attribute reads are opaque, so only these are renamed)."""

    def operand(value):
        if isinstance(value, Attr):
            return replace(value, path=_rename_path(mapping, value.path))
        return value

    return replace(
        predicate, left=operand(predicate.left), right=operand(predicate.right)
    )


# ---------------------------------------------------------------------------
# Logical → physical compilation
# ---------------------------------------------------------------------------

def compile_plan(
    logical: Operator,
    scan_orders: Optional[Mapping[str, str]] = None,
    context: Optional[ExecutionContext] = None,
) -> PhysicalOperator:
    """Lower a logical plan, picking StackTree algorithms for flat
    structural joins (inserting B+-tree Sorts only when order descriptors
    do not line up), cost-chosen hash/nested-loops joins for equality
    predicates, and the materializing fallback elsewhere.

    Renames never run as operators of their own when they can be
    avoided: adjacent ``DeepRename`` operators compose into one mapping, which
    is pushed through flat ``j``-kind structural and value joins (their
    join attributes renamed) and folded into the scans below — or into
    the ``PProject`` above a flat scan — so each stored tuple is renamed
    at most once, and the scans' order descriptors survive the rename
    (no ``PSort`` re-sorts an input the store already keeps sorted).

    ``scan_orders`` declares the physical order of base relations (e.g.
    path-partitioned stores keep IDs in document order), letting the
    compiler skip redundant sorts.  ``context`` supplies statistics, the
    cost model, and lowering-rule overrides (its registry is consulted
    before the built-in rules); without one, a default context with empty
    statistics is used and unknown inputs are assumed large, preserving
    the scalable algorithm choices.  Every lowered operator is stamped
    with the logical estimate (``estimated_rows``) for EXPLAIN.
    """
    scan_orders = dict(scan_orders or {})
    ctx = context or ExecutionContext()
    registry = ctx.registry

    def lower(op: Operator) -> PhysicalOperator:
        phys = lower_raw(op)
        if phys.estimated_rows is None:
            phys.estimated_rows = ctx.estimate(op)
        return phys

    def peel(op: Operator, mapping: dict[str, str]):
        """Compose the renames directly below ``ρ_mapping``: the operator
        under them and the one mapping that replaces the chain.  A rename
        into dotted names is not composed (it would change how the next
        rename splits a name)."""
        while (
            isinstance(op, DeepRename)
            and type(op) not in registry
            and not any("." in name for name in op.mapping.values())
        ):
            mapping = _compose(op.mapping, mapping)
            op = op.children[0]
        return op, mapping

    def pushable(op: Operator, mapping: dict[str, str]) -> bool:
        """Whether ``ρ(L ⋈ R) = ρ(L) ⋈ ρ(R)``: a plain join, with no two
        output attributes renamed onto one name."""
        if op.kind != "j" or type(op) in registry:
            return False
        names = [
            rename_attribute(mapping, name)
            for child in op.children
            for name in child.schema()
        ]
        return len(set(names)) == len(names)

    def lower_renamed(op: Operator, mapping: dict[str, str]) -> PhysicalOperator:
        """The physical plan of ``ρ_mapping(op)``."""
        op, mapping = peel(op, mapping)
        if not mapping:
            return lower(op)
        if isinstance(op, Scan) and type(op) not in registry:
            flat = _flat(op.columns)
            if flat:  # the columns name every node: drop the other entries
                nodes = {column.rpartition(".")[0] for column in op.columns}
                mapping = {k: v for k, v in mapping.items() if k in nodes}
            phys: PhysicalOperator = PScan(
                op.name,
                order=scan_orders.get(op.name),
                missing_ok=op.missing_ok,
                renames=mapping,
                flat=flat,
            )
        elif (
            isinstance(op, StructuralJoin)
            and "/" not in op.left_attr
            and "/" not in op.right_attr
            and pushable(op, mapping)
        ):
            phys = _structural_join(
                lower_renamed(op.children[0], mapping),
                lower_renamed(op.children[1], mapping),
                rename_attribute(mapping, op.left_attr),
                rename_attribute(mapping, op.right_attr),
                op.axis,
            )
        elif (
            isinstance(op, ValueJoin)
            and type(op.predicate) is Compare
            and pushable(op, mapping)
        ):
            phys = _value_join(
                op,
                lower_renamed(op.children[0], mapping),
                lower_renamed(op.children[1], mapping),
                _renamed_compare(op.predicate, mapping),
                ctx,
            )
        else:
            phys = PRename(lower(op), mapping)
        phys.estimated_rows = ctx.estimate(op)  # renaming is cardinality-neutral
        return phys

    def project_over_flat_scan(op: Project) -> Optional[PhysicalOperator]:
        """π over renames of a flat scan: project the stored names and
        rename the projected columns only (v05/v08-style plans)."""
        child = op.children[0]
        if not isinstance(child, DeepRename) or type(child) in registry:
            return None
        scan, mapping = peel(child.children[0], child.mapping)
        if not isinstance(scan, Scan) or type(scan) in registry:
            return None
        if not _flat(scan.columns) or not _flat(op.columns):
            return None
        stored = {rename_attribute(mapping, c): c for c in scan.columns}
        reads = {c: op.sources.get(c, c) for c in op.columns}
        if len(stored) != len(scan.columns) or any(
            read not in stored for read in reads.values()
        ):
            return None
        leaf = PScan(scan.name, scan_orders.get(scan.name), scan.missing_ok)
        leaf.estimated_rows = ctx.estimate(scan)
        return PProject(
            leaf, op.columns, op.dedup, {c: stored[read] for c, read in reads.items()}
        )

    def lower_raw(op: Operator) -> PhysicalOperator:
        registered = registry.get(type(op))
        if registered is not None:
            return registered(op, lower, ctx)
        if isinstance(op, Scan):
            return PScan(op.name, order=scan_orders.get(op.name), missing_ok=op.missing_ok)
        if isinstance(op, BaseTuples):
            return PBase(op.tuples)
        if isinstance(op, DeepRename):
            return lower_renamed(op.children[0], op.mapping)
        if isinstance(op, Select) and op.reduce_path is None:
            predicate = op.predicate
            return PFilter(lower(op.children[0]), lambda t: predicate.holds(t))
        if isinstance(op, Project):
            folded = project_over_flat_scan(op)
            if folded is not None:
                return folded
            return PProject(
                lower(op.children[0]), op.columns, op.dedup, op.sources
            )
        if isinstance(op, Union):
            return PConcat(*(lower(c) for c in op.children))
        if isinstance(op, Difference):
            return PDifference(lower(op.children[0]), lower(op.children[1]))
        if isinstance(op, Product):
            return PNestedLoopsJoin(
                lower(op.children[0]),
                lower(op.children[1]),
                lambda a, b: True,
                kind="j",
                right_columns=op.children[1].schema(),
                description="×",
            )
        if isinstance(op, GroupBy):
            return PHashGroupBy(lower(op.children[0]), op.keys, op.nest_as)
        if isinstance(op, Regroup) and op.collections:
            return PHashGroupBy(
                lower(op.children[0]), op.keys, collections=op.collections
            )
        if isinstance(op, XMLize):
            return PXMLize(lower(op.children[0]), op.template)
        if isinstance(op, ValueJoin):
            return _value_join(
                op,
                lower(op.children[0]),
                lower(op.children[1]),
                op.predicate,
                ctx,
            )
        if isinstance(op, StructuralJoin) and "/" not in op.left_attr:
            return _structural_join(
                lower(op.children[0]),
                lower(op.children[1]),
                op.left_attr,
                op.right_attr,
                op.axis,
                op.kind,
                op.nest_as,
                op.children[1].schema(),
            )
        # everything else: materializing fallback over lowered children
        return PLogicalFallback(op, [lower(c) for c in op.children])

    return lower(logical)


def _value_join(
    op: ValueJoin,
    left: PhysicalOperator,
    right: PhysicalOperator,
    predicate,
    ctx: ExecutionContext,
) -> PhysicalOperator:
    """Lower ``op`` over already lowered inputs; ``predicate`` is its
    join predicate, possibly renamed by a pushed-down rename."""
    right_columns = op.children[1].schema()
    if (
        isinstance(predicate, Compare)
        and predicate.op == "="
        and isinstance(predicate.left, Attr)
        and isinstance(predicate.right, Attr)
        and predicate.left.side != predicate.right.side
    ):
        choice = ctx.cost_model.choose_join(
            ctx.estimate(op.children[0]), ctx.estimate(op.children[1])
        )
        # the cost-based decision is exactly the evidence the metrics
        # layer exists to surface: count which algorithm won
        ctx.bump(f"compile.join.{choice}")
        if choice == "hash":
            left_attr = predicate.left if predicate.left.side == 0 else predicate.right
            right_attr = predicate.right if predicate.right.side == 1 else predicate.left
            return PHashJoin(
                left,
                right,
                left_attr.path,
                right_attr.path,
                kind=op.kind,
                nest_as=op.nest_as,
                right_columns=right_columns,
            )
    return PNestedLoopsJoin(
        left,
        right,
        lambda a, b: predicate.holds(a, b),
        kind=op.kind,
        nest_as=op.nest_as,
        right_columns=right_columns,
        description=repr(predicate),
    )


def _sorted_on(child: PhysicalOperator, attr: str) -> PhysicalOperator:
    if satisfies(child.output_order, attr):
        return child
    sort = PSort(child, attr)
    sort.estimated_rows = child.estimated_rows  # sorting is cardinality-neutral
    return sort


def _structural_join(
    left: PhysicalOperator,
    right: PhysicalOperator,
    left_attr: str,
    right_attr: str,
    axis: str,
    kind: str = "j",
    nest_as: str = "s",
    right_columns: Sequence[str] = (),
) -> PhysicalOperator:
    left = _sorted_on(left, left_attr)
    right = _sorted_on(right, right_attr)
    if kind == "j":
        return PStackTreeDesc(left, right, left_attr, right_attr, axis)
    return PStackTreeAnc(
        left,
        right,
        left_attr,
        right_attr,
        axis,
        kind=kind,
        nest_as=nest_as,
        right_columns=right_columns,
    )
