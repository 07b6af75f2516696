"""Logical algebra operators (thesis §1.2.2).

Every operator is a node of a logical plan tree exposing:

* ``children`` — sub-plans;
* ``schema()`` — the top-level attribute names of its output tuples;
* ``evaluate(context)`` — reference (naive, always-correct) evaluation,
  returning a list of :class:`~repro.algebra.model.NestedTuple`.

``context`` maps base-relation names to tuple lists; :class:`Scan` reads
from it, so the same plan can run over different stores (exactly how the
thesis decouples plans from storage).

The physical engine (:mod:`repro.engine.physical`) implements the
performance-oriented counterparts (StackTree structural joins, hash joins);
the logical evaluation here is the specification they are tested against.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from ..xmldata.ids import is_ancestor_id, is_parent_id
from .model import NULL, NestedTuple, concat
from .predicates import Predicate

__all__ = [
    "Operator",
    "Scan",
    "BaseTuples",
    "Select",
    "Project",
    "Product",
    "Union",
    "Difference",
    "ValueJoin",
    "StructuralJoin",
    "GroupBy",
    "DeepRename",
    "rename_attribute",
    "Regroup",
    "Unnest",
    "NestAll",
    "DerivedColumn",
    "Navigate",
    "XMLize",
    "TemplateElement",
    "TemplateAttr",
    "compile_template",
    "CHILD",
    "DESCENDANT",
    "JOIN",
    "OUTER",
    "SEMI",
    "NEST",
    "NEST_OUTER",
]

CHILD = "child"  # the / axis, ≺
DESCENDANT = "descendant"  # the // axis, ≺≺

JOIN = "j"
OUTER = "o"
SEMI = "s"
NEST = "nj"
NEST_OUTER = "no"

_JOIN_KINDS = (JOIN, OUTER, SEMI, NEST, NEST_OUTER)

Context = Mapping[str, Sequence[NestedTuple]]


class Operator:
    """Base logical operator."""

    children: tuple["Operator", ...] = ()

    def schema(self) -> list[str]:
        raise NotImplementedError

    def evaluate(self, context: Optional[Context] = None) -> list[NestedTuple]:
        raise NotImplementedError

    # -- cardinality estimation (consumed by the cost-based compiler) ---------

    def estimated_cardinality(self, ctx) -> Optional[float]:
        """Expected output tuple count given an
        :class:`~repro.engine.context.ExecutionContext` (its statistics
        provider and tunables).  ``None`` means "unknown" — the cost model
        substitutes a pessimistic default.  Estimates of shared subtrees
        are cached by the context (:meth:`ExecutionContext.estimate`), so
        operators should recurse through ``ctx.estimate(child)``.
        """
        if len(self.children) == 1:
            return ctx.estimate(self.children[0])
        return None

    # -- plan inspection (used by the QEP-shape benchmarks) -------------------

    def walk(self) -> "Iterator[Operator]":
        """Pre-order traversal of the plan tree (uniform across the
        logical and physical layers)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def operator_count(self) -> int:
        return 1 + sum(child.operator_count() for child in self.children)

    def join_count(self) -> int:
        own = 1 if isinstance(self, (ValueJoin, StructuralJoin, Product)) else 0
        return own + sum(child.join_count() for child in self.children)

    def leaves(self) -> list["Operator"]:
        if not self.children:
            return [self]
        found: list[Operator] = []
        for child in self.children:
            found.extend(child.leaves())
        return found

    def label(self) -> str:
        return type(self).__name__

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return self.pretty()


class Scan(Operator):
    """Scan a named base relation out of the evaluation context.

    ``missing_ok`` makes an absent relation read as empty — used for
    tag-derived collections of labels the document happens not to contain
    (``R_year`` when no ``year`` element exists).
    """

    def __init__(self, name: str, columns: Sequence[str], missing_ok: bool = False):
        self.name = name
        self.columns = list(columns)
        self.missing_ok = missing_ok

    def schema(self) -> list[str]:
        return list(self.columns)

    def evaluate(self, context: Optional[Context] = None) -> list[NestedTuple]:
        if context is None or self.name not in context:
            if self.missing_ok:
                return []
            raise KeyError(f"base relation {self.name!r} missing from context")
        return list(context[self.name])

    def estimated_cardinality(self, ctx) -> Optional[float]:
        return ctx.statistics.relation_size(self.name)

    def label(self) -> str:
        return f"Scan({self.name})"


class BaseTuples(Operator):
    """A literal tuple list embedded in the plan (bindings, test fixtures)."""

    def __init__(self, tuples: Sequence[NestedTuple], columns: Optional[Sequence[str]] = None):
        self.tuples = list(tuples)
        if columns is None:
            columns = self.tuples[0].names() if self.tuples else []
        self.columns = list(columns)

    def schema(self) -> list[str]:
        return list(self.columns)

    def evaluate(self, context: Optional[Context] = None) -> list[NestedTuple]:
        return list(self.tuples)

    def estimated_cardinality(self, ctx) -> Optional[float]:
        return float(len(self.tuples))

    def label(self) -> str:
        return f"BaseTuples[{len(self.tuples)}]"


class Select(Operator):
    """σ with optional nested-collection *reduction* (the map extension).

    With ``reduce_path`` set to a dotted collection path, member tuples
    failing ``member_predicate`` are filtered out of the collection and
    tuples whose collection becomes empty are eliminated — Example 1.2.2.
    """

    def __init__(
        self,
        child: Operator,
        predicate: Optional[Predicate] = None,
        reduce_path: Optional[str] = None,
        member_predicate: Optional[Predicate] = None,
    ):
        if predicate is None and member_predicate is None:
            raise ValueError("Select needs a predicate")
        self.children = (child,)
        self.predicate = predicate
        self.reduce_path = reduce_path
        self.member_predicate = member_predicate

    def schema(self) -> list[str]:
        return self.children[0].schema()

    def evaluate(self, context: Optional[Context] = None) -> list[NestedTuple]:
        tuples = self.children[0].evaluate(context)
        if self.predicate is not None:
            tuples = [t for t in tuples if self.predicate.holds(t)]
        if self.reduce_path is not None and self.member_predicate is not None:
            parts = self.reduce_path.split("/")
            reduced = []
            for t in tuples:
                new_t = _reduce_collection(t, parts, self.member_predicate)
                if new_t is not None:
                    reduced.append(new_t)
            tuples = reduced
        return tuples

    def estimated_cardinality(self, ctx) -> Optional[float]:
        child = ctx.estimate(self.children[0])
        if child is None:
            return None
        return child * ctx.tunables.predicate_selectivity

    def label(self) -> str:
        if self.predicate is not None:
            return f"σ[{self.predicate!r}]"
        return f"σ[{self.reduce_path} where {self.member_predicate!r}]"


def _reduce_collection(
    t: NestedTuple, parts: list[str], predicate: Predicate
) -> Optional[NestedTuple]:
    head, rest = parts[0], parts[1:]
    value = t.get(head)
    if not isinstance(value, list):
        # The map definition only descends through collections.
        return t if predicate.holds(t) else None
    if rest:
        new_members = []
        for member in value:
            new_member = _reduce_collection(member, rest, predicate)
            if new_member is not None:
                new_members.append(new_member)
    else:
        new_members = [member for member in value if predicate.holds(member)]
    if not new_members:
        return None
    return t.with_attrs(**{head: new_members})


class Project(Operator):
    """π — duplicate-preserving by default, duplicate-eliminating (π⁰)
    with ``dedup=True``.  ``sources`` maps an output column to the input
    attribute it reads (by default, the one of the same name); several
    columns may read one attribute."""

    def __init__(
        self,
        child: Operator,
        columns: Sequence[str],
        dedup: bool = False,
        sources: Optional[Mapping[str, str]] = None,
    ):
        self.children = (child,)
        self.columns = list(columns)
        self.dedup = dedup
        self.sources = dict(sources) if sources else {}

    def schema(self) -> list[str]:
        return list(self.columns)

    def evaluate(self, context: Optional[Context] = None) -> list[NestedTuple]:
        out = []
        seen = set()
        pairs = [(c, self.sources.get(c, c)) for c in self.columns]
        for t in self.children[0].evaluate(context):
            projected = NestedTuple.adopt({c: t.get(source) for c, source in pairs})
            if self.dedup:
                key = projected.freeze()
                if key in seen:
                    continue
                seen.add(key)
            out.append(projected)
        return out

    def estimated_cardinality(self, ctx) -> Optional[float]:
        child = ctx.estimate(self.children[0])
        if child is None:
            return None
        return child * ctx.tunables.dedup_factor if self.dedup else child

    def label(self) -> str:
        mark = "π⁰" if self.dedup else "π"
        read = [(self.sources.get(c, c), c) for c in self.columns]
        return f"{mark}[{', '.join(c if s == c else f'{s}→{c}' for s, c in read)}]"


class Product(Operator):
    """Cartesian product ×."""

    def __init__(self, left: Operator, right: Operator):
        self.children = (left, right)

    def schema(self) -> list[str]:
        return self.children[0].schema() + self.children[1].schema()

    def evaluate(self, context: Optional[Context] = None) -> list[NestedTuple]:
        left = self.children[0].evaluate(context)
        right = self.children[1].evaluate(context)
        return [concat(a, b) for a in left for b in right]

    def estimated_cardinality(self, ctx) -> Optional[float]:
        left = ctx.estimate(self.children[0])
        right = ctx.estimate(self.children[1])
        if left is None or right is None:
            return None
        return left * right

    def label(self) -> str:
        return "×"


class Union(Operator):
    """Duplicate-preserving union (list concatenation, keeping input
    order — which is also query concatenation, §3.3.2)."""

    def __init__(self, *parts: Operator):
        if not parts:
            raise ValueError("Union needs at least one input")
        self.children = tuple(parts)

    def schema(self) -> list[str]:
        return self.children[0].schema()

    def evaluate(self, context: Optional[Context] = None) -> list[NestedTuple]:
        out: list[NestedTuple] = []
        for child in self.children:
            out.extend(child.evaluate(context))
        return out

    def estimated_cardinality(self, ctx) -> Optional[float]:
        total = 0.0
        for child in self.children:
            estimate = ctx.estimate(child)
            if estimate is None:
                return None
            total += estimate
        return total

    def label(self) -> str:
        return "∪"


class Difference(Operator):
    """Set difference \\ (bag semantics: removes one occurrence per match)."""

    def __init__(self, left: Operator, right: Operator):
        self.children = (left, right)

    def schema(self) -> list[str]:
        return self.children[0].schema()

    def evaluate(self, context: Optional[Context] = None) -> list[NestedTuple]:
        right_counts: dict[tuple, int] = {}
        for t in self.children[1].evaluate(context):
            key = t.freeze()
            right_counts[key] = right_counts.get(key, 0) + 1
        out = []
        for t in self.children[0].evaluate(context):
            key = t.freeze()
            remaining = right_counts.get(key, 0)
            if remaining:
                right_counts[key] = remaining - 1
            else:
                out.append(t)
        return out

    def estimated_cardinality(self, ctx) -> Optional[float]:
        # upper bound: nothing subtracted
        return ctx.estimate(self.children[0])

    def label(self) -> str:
        return "\\"


def _null_tuple(columns: Sequence[str]) -> NestedTuple:
    return NestedTuple({c: NULL for c in columns})


def _join_kind_estimate(
    kind: str,
    left: Optional[float],
    right: Optional[float],
    pair_selectivity: float,
) -> Optional[float]:
    """Output estimate shared by value and structural joins: ``j`` fans
    out, ``o`` never drops a left tuple, ``s``/``nj`` keep a subset of the
    left side, ``no`` keeps exactly the left side."""
    if left is None or right is None:
        return None
    matches_per_left = right * pair_selectivity
    if kind == JOIN:
        return left * matches_per_left
    if kind == OUTER:
        return max(left, left * matches_per_left)
    if kind in (SEMI, NEST):
        return left * min(1.0, matches_per_left)
    return left  # NEST_OUTER


class ValueJoin(Operator):
    """Join on a value predicate, with all thesis variants.

    ``kind`` ∈ {``j`` join, ``o`` left outerjoin, ``s`` left semijoin,
    ``nj`` nest join, ``no`` nest outerjoin}.  Nest variants append a
    collection attribute named ``nest_as`` holding the matching right
    tuples (Definition 1.2.2 transposed to value predicates)."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicate: Predicate,
        kind: str = JOIN,
        nest_as: str = "s",
    ):
        if kind not in _JOIN_KINDS:
            raise ValueError(f"unknown join kind {kind!r}")
        self.children = (left, right)
        self.predicate = predicate
        self.kind = kind
        self.nest_as = nest_as

    def schema(self) -> list[str]:
        left = self.children[0].schema()
        if self.kind == SEMI:
            return left
        if self.kind in (NEST, NEST_OUTER):
            return left + [self.nest_as]
        return left + self.children[1].schema()

    def evaluate(self, context: Optional[Context] = None) -> list[NestedTuple]:
        left = self.children[0].evaluate(context)
        right = self.children[1].evaluate(context)
        right_columns = self.children[1].schema()
        return _combine(
            left,
            right,
            self.predicate.join_test(left, right),
            self.kind,
            self.nest_as,
            right_columns,
        )

    def estimated_cardinality(self, ctx) -> Optional[float]:
        return _join_kind_estimate(
            self.kind,
            ctx.estimate(self.children[0]),
            ctx.estimate(self.children[1]),
            ctx.tunables.equality_join_selectivity,
        )

    def label(self) -> str:
        symbol = {JOIN: "⨝", OUTER: "⟕", SEMI: "⋉", NEST: "⨝ⁿ", NEST_OUTER: "⟕ⁿ"}[
            self.kind
        ]
        return f"{symbol}[{self.predicate!r}]"


class StructuralJoin(Operator):
    """Structural join ⨝≺ / ⨝≺≺ and variants (Definitions 1.2.1–1.2.2).

    ``left_attr``/``right_attr`` name identifier attributes; ``left_attr``
    may be a ``/``-separated path into nested collections, in which case the join is
    applied through ``map`` (Example 1.2.3): right tuples nest inside the
    innermost collection members and members without matches are dropped
    (or kept, for outer variants).
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_attr: str,
        right_attr: str,
        axis: str = CHILD,
        kind: str = JOIN,
        nest_as: str = "s",
    ):
        if axis not in (CHILD, DESCENDANT):
            raise ValueError(f"unknown axis {axis!r}")
        if kind not in _JOIN_KINDS:
            raise ValueError(f"unknown join kind {kind!r}")
        self.children = (left, right)
        self.left_attr = left_attr
        self.right_attr = right_attr
        self.axis = axis
        self.kind = kind
        self.nest_as = nest_as

    def schema(self) -> list[str]:
        left = self.children[0].schema()
        if self.kind == SEMI:
            return left
        if self.kind in (NEST, NEST_OUTER) or "/" in self.left_attr:
            return left if "/" in self.left_attr else left + [self.nest_as]
        return left + self.children[1].schema()

    def _matches(self, left_id: Any, right_id: Any) -> bool:
        if left_id is None or right_id is None:
            return False
        if self.axis == CHILD:
            return is_parent_id(left_id, right_id)
        return is_ancestor_id(left_id, right_id)

    def evaluate(self, context: Optional[Context] = None) -> list[NestedTuple]:
        left = self.children[0].evaluate(context)
        right = self.children[1].evaluate(context)
        right_columns = self.children[1].schema()
        parts = self.left_attr.split("/")
        if len(parts) == 1:
            return _combine(
                left,
                right,
                lambda a, b: self._matches(a.get(self.left_attr), b.get(self.right_attr)),
                self.kind,
                self.nest_as,
                right_columns,
            )
        # map-extended structural join: apply inside the nested collection.
        out = []
        for t in left:
            new_t = self._map_into(t, parts, right, right_columns)
            if new_t is not None:
                out.append(new_t)
        return out

    def _map_into(
        self,
        t: NestedTuple,
        parts: list[str],
        right: list[NestedTuple],
        right_columns: list[str],
    ) -> Optional[NestedTuple]:
        head, rest = parts[0], parts[1:]
        value = t.get(head)
        if not isinstance(value, list):
            if rest:
                return None
            combined = _combine(
                [t],
                right,
                lambda a, b: self._matches(a.get(head), b.get(self.right_attr)),
                self.kind,
                self.nest_as,
                right_columns,
            )
            return combined[0] if combined else None
        if rest:
            new_members = []
            for member in value:
                new_member = self._map_into(member, rest, right, right_columns)
                if new_member is not None:
                    new_members.append(new_member)
        else:
            new_members = _combine(
                value,
                right,
                lambda a, b: self._matches(a.get(parts[-1]), b.get(self.right_attr)),
                self.kind,
                self.nest_as,
                right_columns,
            )
        if not new_members and self.kind not in (OUTER, NEST_OUTER):
            return None
        return t.with_attrs(**{head: new_members})

    def estimated_cardinality(self, ctx) -> Optional[float]:
        left = ctx.estimate(self.children[0])
        right = ctx.estimate(self.children[1])
        if left is None or right is None:
            return None
        # A structural join pairs each right node with its (few) matching
        # ancestors, so the plain join scales with the larger input rather
        # than the product.
        if self.kind == JOIN:
            return max(left, right) * ctx.tunables.structural_selectivity
        return _join_kind_estimate(
            self.kind, left, right, ctx.tunables.structural_selectivity / max(right, 1.0)
        )

    def label(self) -> str:
        axis = "≺" if self.axis == CHILD else "≺≺"
        symbol = {JOIN: "⨝", OUTER: "⟕", SEMI: "⋉", NEST: "⨝ⁿ", NEST_OUTER: "⟕ⁿ"}[
            self.kind
        ]
        return f"{symbol}[{self.left_attr} {axis} {self.right_attr}]"


def _combine(
    left: Sequence[NestedTuple],
    right: Sequence[NestedTuple],
    match: Callable[[NestedTuple, NestedTuple], bool],
    kind: str,
    nest_as: str,
    right_columns: Sequence[str],
) -> list[NestedTuple]:
    """Shared join-variant machinery for value and structural joins."""
    out: list[NestedTuple] = []
    for a in left:
        matches = [b for b in right if match(a, b)]
        if kind == JOIN:
            out.extend(concat(a, b) for b in matches)
        elif kind == OUTER:
            if matches:
                out.extend(concat(a, b) for b in matches)
            else:
                out.append(concat(a, _null_tuple(right_columns)))
        elif kind == SEMI:
            if matches:
                out.append(a)
        elif kind == NEST:
            if matches:
                out.append(a.with_attrs(**{nest_as: matches}))
        elif kind == NEST_OUTER:
            out.append(a.with_attrs(**{nest_as: matches}))
    return out


class GroupBy(Operator):
    """γ — group by atomic key attributes, nesting the remaining attributes
    under ``nest_as``.  Output order follows first occurrence of each key."""

    def __init__(self, child: Operator, keys: Sequence[str], nest_as: str = "group"):
        self.children = (child,)
        self.keys = list(keys)
        self.nest_as = nest_as

    def schema(self) -> list[str]:
        return self.keys + [self.nest_as]

    def evaluate(self, context: Optional[Context] = None) -> list[NestedTuple]:
        groups: dict[tuple, list[NestedTuple]] = {}
        order: list[tuple] = []
        key_tuples: dict[tuple, NestedTuple] = {}
        for t in self.children[0].evaluate(context):
            key_tuple = t.project(self.keys)
            key = key_tuple.freeze()
            if key not in groups:
                groups[key] = []
                order.append(key)
                key_tuples[key] = key_tuple
            groups[key].append(t.drop(self.keys))
        return [
            key_tuples[key].with_attrs(**{self.nest_as: groups[key]}) for key in order
        ]

    def estimated_cardinality(self, ctx) -> Optional[float]:
        child = ctx.estimate(self.children[0])
        if child is None:
            return None
        return child * ctx.tunables.dedup_factor

    def label(self) -> str:
        return f"γ[{', '.join(self.keys)}]"


def rename_attribute(mapping: Mapping[str, str], name: str) -> str:
    """The name an attribute takes under a :class:`DeepRename` by
    ``mapping``: ``old.X`` becomes ``new.X`` (the node name is everything
    before the last dot) and a collection attribute ``old`` becomes
    ``new``."""
    if "." in name:
        prefix, _, suffix = name.rpartition(".")
        if prefix in mapping:
            return f"{mapping[prefix]}.{suffix}"
        return name
    return mapping.get(name, name)


class DeepRename(Operator):
    """Recursive attribute renaming by pattern-node name.

    ``mapping`` sends node names to node names; attributes ``old.X``
    become ``new.X`` and collection attributes ``old`` become ``new``,
    at every nesting level.
    """

    def __init__(self, child: Operator, mapping: dict[str, str]):
        self.children = (child,)
        self.mapping = dict(mapping)

    def schema(self) -> list[str]:
        return [self._rename(name) for name in self.children[0].schema()]

    def _rename(self, name: str) -> str:
        return rename_attribute(self.mapping, name)

    def _rename_tuple(self, t: NestedTuple) -> NestedTuple:
        attrs: dict[str, Any] = {}
        for name, value in t.attrs.items():
            new_name = self._rename(name)
            if isinstance(value, list):
                attrs[new_name] = [self._rename_tuple(member) for member in value]
            else:
                attrs[new_name] = value
        return NestedTuple(attrs)

    def evaluate(self, context=None) -> list[NestedTuple]:
        return [self._rename_tuple(t) for t in self.children[0].evaluate(context)]

    def label(self) -> str:
        return f"ρ[{self.mapping}]"


class Regroup(Operator):
    """Re-nest flat view tuples into the query's nesting (the γ / nest-join
    correspondence): group by the flat part (keys may include pre-nested
    collection attributes), building one collection per entry of
    ``collections``.  Outer-join padding (all-⊥ members) becomes an empty
    collection — nest-outerjoin semantics.

    Each collection entry is ``(name, member_attrs, identity_attrs)``.
    With a single rebuilt collection, flat rows map one-to-one to members
    and no deduplication happens (duplicate-*valued* members are
    preserved, as nest joins do).  With several rebuilt collections the
    flat input is their cross product; members then deduplicate by their
    ``identity_attrs`` (which the planner extends with the serving view
    IDs precisely so that equal-valued members stay distinguishable).
    """

    def __init__(
        self,
        child: Operator,
        keys: Sequence[str],
        collections: Sequence[tuple[str, Sequence[str], Sequence[str]]],
    ):
        self.children = (child,)
        self.keys = list(keys)
        self.collections = [
            (name, list(attrs), list(identity))
            for name, attrs, identity in collections
        ]

    def schema(self) -> list[str]:
        return self.keys + [name for name, _attrs, _identity in self.collections]

    def evaluate(self, context=None) -> list[NestedTuple]:
        dedup = len(self.collections) > 1
        groups: dict[tuple, dict[str, list[NestedTuple]]] = {}
        seen: dict[tuple, dict[str, set]] = {}
        heads: dict[tuple, NestedTuple] = {}
        order: list[tuple] = []
        for t in self.children[0].evaluate(context):
            head = t.project(self.keys)
            key = head.freeze()
            if key not in groups:
                groups[key] = {name: [] for name, _a, _i in self.collections}
                seen[key] = {name: set() for name, _a, _i in self.collections}
                heads[key] = head
                order.append(key)
            for name, attrs, identity in self.collections:
                member = t.project(attrs)
                if all(value is None for value in member.attrs.values()):
                    continue  # outer-join padding
                if dedup:
                    marker = t.project(identity).freeze()
                    if marker in seen[key][name]:
                        continue
                    seen[key][name].add(marker)
                groups[key][name].append(member)
        return [
            heads[key].with_attrs(**groups[key]) for key in order
        ]

    def label(self) -> str:
        built = ", ".join(name for name, _a, _i in self.collections)
        return f"γⁿ[{', '.join(self.keys)} → {built}]"


class Unnest(Operator):
    """u — flatten a collection attribute: one output tuple per member,
    member attributes spliced next to the outer ones.  Tuples whose
    collection is empty are dropped (use an outer variant upstream to keep
    them)."""

    def __init__(self, child: Operator, attr: str):
        self.children = (child,)
        self.attr = attr

    def schema(self) -> list[str]:
        outer = [c for c in self.children[0].schema() if c != self.attr]
        return outer + ["…"]

    def evaluate(self, context: Optional[Context] = None) -> list[NestedTuple]:
        out = []
        for t in self.children[0].evaluate(context):
            value = t.get(self.attr)
            rest = t.drop([self.attr])
            if isinstance(value, list):
                for member in value:
                    out.append(concat(rest, member))
        return out

    def estimated_cardinality(self, ctx) -> Optional[float]:
        child = ctx.estimate(self.children[0])
        if child is None:
            return None
        return child * ctx.tunables.collection_fanout

    def label(self) -> str:
        return f"u[{self.attr}]"


class NestAll(Operator):
    """The nest operator *n* of §3.3.2: pack the whole input into a single
    tuple with one collection attribute."""

    def __init__(self, child: Operator, nest_as: str = "A1"):
        self.children = (child,)
        self.nest_as = nest_as

    def schema(self) -> list[str]:
        return [self.nest_as]

    def evaluate(self, context: Optional[Context] = None) -> list[NestedTuple]:
        return [NestedTuple({self.nest_as: self.children[0].evaluate(context)})]

    def estimated_cardinality(self, ctx) -> Optional[float]:
        return 1.0

    def label(self) -> str:
        return f"n[{self.nest_as}]"


class DerivedColumn(Operator):
    """Append a computed attribute (e.g. the parent ID derived from a
    navigational child ID — the §5.2 rewriting enabler)."""

    def __init__(
        self,
        child: Operator,
        name: str,
        function: Callable[[NestedTuple], Any],
        description: str = "f",
    ):
        self.children = (child,)
        self.name = name
        self.function = function
        self.description = description

    def schema(self) -> list[str]:
        return self.children[0].schema() + [self.name]

    def evaluate(self, context: Optional[Context] = None) -> list[NestedTuple]:
        return [
            t.with_attrs(**{self.name: self.function(t)})
            for t in self.children[0].evaluate(context)
        ]

    def label(self) -> str:
        return f"derive[{self.name} := {self.description}]"


class Navigate(Operator):
    """Navigation inside a stored ``Cont`` attribute (§5.2).

    Re-parses the serialized content carried by ``content_attr`` and
    evaluates a downward path of ``(axis, label)`` steps inside it.
    Structural identifiers cannot be recovered from serialized content, so
    no ID attribute is produced — exactly the limitation the thesis notes.

    Two output shapes:

    * flat (``nest_out=False``, flat ``content_attr``): one output tuple
      per reached node, with ``{out}.V`` / ``{out}.C`` attributes; with
      ``keep_unmatched`` an unmatched input survives with ⊥s (outerjoin
      semantics), otherwise it is dropped;
    * nested (``nest_out=True``): reached nodes are collected into a
      collection attribute named ``out`` (nest-join semantics; with
      ``keep_unmatched`` the collection may be empty — nest-outerjoin).
      When ``content_attr`` crosses nested collections (``/`` in the
      path), the operator applies *inside* the innermost collection
      members (the ``map`` extension), preserving the nesting.
    """

    def __init__(
        self,
        child: Operator,
        content_attr: str,
        steps: Sequence[tuple[str, str]],
        out: str,
        keep_unmatched: bool = False,
        nest_out: bool = False,
    ):
        self.children = (child,)
        self.content_attr = content_attr
        self.steps = list(steps)
        self.out = out
        self.keep_unmatched = keep_unmatched
        self.nest_out = nest_out

    def schema(self) -> list[str]:
        base = self.children[0].schema()
        if "/" in self.content_attr:
            return base
        if self.nest_out:
            return base + [self.out]
        return base + [f"{self.out}.V", f"{self.out}.C"]

    def _matches_of(self, content) -> list:
        from ..xmldata.parser import parse_fragment

        if isinstance(content, str) and content.strip().startswith("<"):
            return _navigate([parse_fragment(content)], self.steps)
        return []

    def _apply_flat(self, t: NestedTuple, attr: str) -> list[NestedTuple]:
        matches = self._matches_of(t.get(attr))
        if matches:
            return [
                t.with_attrs(
                    **{f"{self.out}.V": node.value, f"{self.out}.C": node.content}
                )
                for node in matches
            ]
        if self.keep_unmatched:
            return [t.with_attrs(**{f"{self.out}.V": NULL, f"{self.out}.C": NULL})]
        return []

    def _apply_nested(self, t: NestedTuple, attr: str) -> list[NestedTuple]:
        matches = self._matches_of(t.get(attr))
        members = [
            NestedTuple({f"{self.out}.V": node.value, f"{self.out}.C": node.content})
            for node in matches
        ]
        if not members and not self.keep_unmatched:
            return []
        return [t.with_attrs(**{self.out: members})]

    def _apply_into(self, t: NestedTuple, parts: list[str]) -> list[NestedTuple]:
        head, rest = parts[0], parts[1:]
        if not rest:
            if self.nest_out:
                return self._apply_nested(t, head)
            return self._apply_flat(t, head)
        value = t.get(head)
        if not isinstance(value, list):
            return [t] if self.keep_unmatched else []
        new_members = []
        for member in value:
            new_members.extend(self._apply_into(member, rest))
        if not new_members and not self.keep_unmatched:
            return []
        return [t.with_attrs(**{head: new_members})]

    def evaluate(self, context: Optional[Context] = None) -> list[NestedTuple]:
        parts = self.content_attr.split("/")
        out: list[NestedTuple] = []
        for t in self.children[0].evaluate(context):
            out.extend(self._apply_into(t, parts))
        return out

    def label(self) -> str:
        trail = "".join(
            ("/" if axis == CHILD else "//") + label for axis, label in self.steps
        )
        mode = "ⁿ" if self.nest_out else ""
        return f"nav{mode}[{self.content_attr} {trail}]"


def _navigate(context_nodes, steps):
    nodes = list(context_nodes)
    for axis, label in steps:
        next_nodes = []
        for node in nodes:
            if axis == CHILD:
                candidates = node.children
            else:
                candidates = [d for c in node.children for d in c.iter_subtree()]
            for candidate in candidates:
                if label == "*" or candidate.label == label:
                    next_nodes.append(candidate)
        nodes = next_nodes
    return nodes


class TemplateElement:
    """A node of a tagging template (Example 1.2.4): a tag plus children
    that are nested templates, attribute references or literal text.

    ``repeat_over`` names the collection the element iterates over (a
    nested FLWR block's binding collection): one element is constructed
    per collection member, with references into that collection resolved
    against the member.  Attribute paths are always written relative to
    the top-level input tuple; the renderer keeps an environment of
    entered collections.
    """

    def __init__(
        self,
        tag: str,
        children: Sequence[Any] = (),
        repeat_over: Optional[str] = None,
    ):
        self.tag = tag
        self.children = list(children)
        self.repeat_over = repeat_over

    def __repr__(self) -> str:
        inner = "".join(map(repr, self.children))
        repeat = f" ∀{self.repeat_over}" if self.repeat_over else ""
        return f"<{self.tag}{repeat}>{inner}</{self.tag}>"


class TemplateAttr:
    """Reference to a (possibly nested) attribute whose values are spliced
    into the constructed element."""

    def __init__(self, path: str):
        self.path = path

    def __repr__(self) -> str:
        return "{" + self.path + "}"


class XMLize(Operator):
    """The ``xml_templ`` construction operator: serialize each (nested)
    input tuple through a tagging template.  Output tuples carry a single
    ``xml`` attribute with the serialized element."""

    def __init__(self, child: Operator, template: TemplateElement):
        self.children = (child,)
        self.template = template

    def schema(self) -> list[str]:
        return ["xml"]

    def evaluate(self, context: Optional[Context] = None) -> list[NestedTuple]:
        render = compile_template(self.template)
        return [
            NestedTuple({"xml": render(t)}) for t in self.children[0].evaluate(context)
        ]

    def label(self) -> str:
        return f"xml[{self.template!r}]"


def compile_template(template: TemplateElement) -> Callable[[NestedTuple], str]:
    """The tagging template as one function from an input tuple to its
    serialized element.  The collections entered around each attribute
    reference are known statically, so each reference is bound once to
    the deepest entered collection prefixing its path (or to the input
    tuple) with a pre-split path reader."""
    render = _compile_element(template, ())

    def fn(t: NestedTuple) -> str:
        parts: list[str] = []
        render([t], parts)
        return "".join(parts)

    return fn


#: A compiled template piece appends its text to ``parts``; ``env`` holds
#: the input tuple, then the current member of each entered collection.
_Piece = Callable[[list, list], None]


def _compile_element(template: TemplateElement, entered: tuple[str, ...]) -> _Piece:
    repeat = template.repeat_over
    if repeat is not None:
        members = _bound(repeat, entered, _collection_members)
        entered += (repeat,)
    pieces: list[Any] = [f"<{template.tag}>"]
    for child in template.children:
        if isinstance(child, TemplateAttr):
            pieces.append(_bound(child.path, entered, _non_null_atom))
        elif isinstance(child, TemplateElement):
            pieces.append(_compile_element(child, entered))
        else:
            pieces.append(str(child))
    pieces.append(f"</{template.tag}>")

    def one(env: list, parts: list) -> None:
        for piece in pieces:
            if type(piece) is str:
                parts.append(piece)
            else:
                piece(env, parts)

    if repeat is None:
        return one

    def each(env: list, parts: list) -> None:
        found: list = []
        members(env, found)
        for member in found:
            env.append(member)
            one(env, parts)
            env.pop()

    return each


def _bound(path: str, entered: tuple[str, ...], leaf) -> _Piece:
    """``leaf`` over the values at the path's remainder below the deepest
    entered collection prefixing it, else below the input tuple.  A path
    naming an entered collection itself reads collections, which
    ``_non_null_atom`` skips (collections are homogeneous, §1.2.2)."""
    depth, rest = 0, path
    for level in range(len(entered), 0, -1):
        prefix = entered[level - 1]
        if path.startswith(prefix + "/"):
            depth, rest = level, path[len(prefix) + 1 :]
            break
    read = _path_reader(rest.split("/"), leaf)
    return lambda env, parts: read(env[depth], parts)


def _path_reader(names: list[str], leaf):
    """``leaf`` over each value at the pre-split path, through every
    member of each collection on the way (:meth:`NestedTuple.iter_path`)."""
    head = names[0]
    if len(names) == 1:
        return lambda t, parts: leaf(t.get(head), parts)
    below = _path_reader(names[1:], leaf)

    def read(t: NestedTuple, parts: list) -> None:
        value = t.get(head)
        if isinstance(value, list):
            for member in value:
                below(member, parts)
        elif isinstance(value, NestedTuple):
            below(value, parts)

    return read


def _non_null_atom(value: Any, parts: list) -> None:
    if value is not None and not isinstance(value, (list, NestedTuple)):
        parts.append(str(value))


def _collection_members(value: Any, parts: list) -> None:
    if isinstance(value, list):
        parts.extend(value)
