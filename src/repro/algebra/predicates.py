"""Predicates over nested tuples for selections and joins (§1.2.2).

Predicates have the form ``A_i θ c`` or ``A_i θ A_j`` where θ ranges over
``=, !=, <, <=, >, >=`` plus the structural comparators ``≺`` (parent) and
``≺≺`` (ancestor), the latter two applying only to identifier values.

Attribute references are dotted paths; when a path crosses a nested
collection the predicate takes the *existential* semantics of the ``map``
meta-operator (Example 1.2.2): it holds when some reachable value pair
satisfies the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..xmldata.ids import is_ancestor_id, is_parent_id
from .model import NestedTuple

__all__ = [
    "Predicate",
    "Compare",
    "Const",
    "Attr",
    "And",
    "Or",
    "Not",
    "IsNull",
    "NotNull",
    "PARENT",
    "ANCESTOR",
]

PARENT = "parent"  # ≺
ANCESTOR = "ancestor"  # ≺≺

_VALUE_OPS = {"=", "!=", "<", "<=", ">", ">="}


@dataclass(frozen=True)
class Const:
    """A constant operand."""

    value: Any


@dataclass(frozen=True)
class Attr:
    """An attribute operand: a dotted path, optionally into the right-hand
    input of a join (``side`` is 0 for left/unary input, 1 for right)."""

    path: str
    side: int = 0


class Predicate:
    """Base class; subclasses implement :meth:`holds`."""

    def holds(
        self, left: NestedTuple, right: Optional[NestedTuple] = None
    ) -> bool:
        raise NotImplementedError

    def __call__(
        self, left: NestedTuple, right: Optional[NestedTuple] = None
    ) -> bool:
        return self.holds(left, right)

    def join_test(self, left_rows, right_rows) -> Callable[..., bool]:
        """:meth:`holds` as the pair test of a join over these inputs."""
        return self.holds


def _operand_values(operand, left: NestedTuple, right: Optional[NestedTuple]):
    if isinstance(operand, Const):
        yield operand.value
        return
    source = left if operand.side == 0 else right
    if source is None:
        raise ValueError("predicate references the right input of a unary operator")
    yield from source.iter_path(operand.path)


def _coerce_pair(a: Any, b: Any) -> tuple[Any, Any]:
    """XQuery-style dynamic casting: when a string meets a number, try the
    string as a number."""
    if isinstance(a, str) and isinstance(b, (int, float)):
        try:
            return float(a.strip()), float(b)
        except ValueError:
            return a, b
    if isinstance(b, str) and isinstance(a, (int, float)):
        try:
            return float(a), float(b.strip())
        except ValueError:
            return a, b
    return a, b


def _compare_values(op: str, a: Any, b: Any) -> bool:
    if op == PARENT:
        return a is not None and b is not None and is_parent_id(a, b)
    if op == ANCESTOR:
        return a is not None and b is not None and is_ancestor_id(a, b)
    if a is None or b is None:
        # ⊥ compares like SQL NULL: no value comparison holds.
        return False
    a, b = _coerce_pair(a, b)
    try:
        if op == "=":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
    except TypeError:
        return False
    raise ValueError(f"unknown comparison operator {op!r}")


@dataclass(frozen=True)
class Compare(Predicate):
    left: Attr
    op: str
    right: Any  # Attr or Const

    def __post_init__(self) -> None:
        if self.op not in _VALUE_OPS and self.op not in (PARENT, ANCESTOR):
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def holds(self, left: NestedTuple, right: Optional[NestedTuple] = None) -> bool:
        for a in _operand_values(self.left, left, right):
            for b in _operand_values(self.right, left, right):
                if _compare_values(self.op, a, b):
                    return True
        return False

    def join_test(self, left_rows, right_rows) -> Callable[..., bool]:
        # ``A θ right.B``: each row's values are read once, not once per pair
        if (getattr(self.left, "side", 1), getattr(self.right, "side", 0)) != (0, 1):
            return self.holds
        op = self.op
        mine = {id(t): list(t.iter_path(self.left.path)) for t in left_rows}
        theirs = {id(t): list(t.iter_path(self.right.path)) for t in right_rows}
        return lambda a, b: any(
            _compare_values(op, x, y) for x in mine[id(a)] for y in theirs[id(b)]
        )

    def __repr__(self) -> str:
        def show(operand):
            if isinstance(operand, Const):
                return repr(operand.value)
            prefix = "" if operand.side == 0 else "right."
            return prefix + operand.path

        symbol = {"parent": "≺", "ancestor": "≺≺"}.get(self.op, self.op)
        return f"{show(self.left)} {symbol} {show(self.right)}"


@dataclass(frozen=True)
class And(Predicate):
    parts: tuple[Predicate, ...]

    def holds(self, left: NestedTuple, right: Optional[NestedTuple] = None) -> bool:
        return all(part.holds(left, right) for part in self.parts)

    def __repr__(self) -> str:
        return "(" + " ∧ ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class Or(Predicate):
    parts: tuple[Predicate, ...]

    def holds(self, left: NestedTuple, right: Optional[NestedTuple] = None) -> bool:
        return any(part.holds(left, right) for part in self.parts)

    def __repr__(self) -> str:
        return "(" + " ∨ ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class Not(Predicate):
    part: Predicate

    def holds(self, left: NestedTuple, right: Optional[NestedTuple] = None) -> bool:
        return not self.part.holds(left, right)

    def __repr__(self) -> str:
        return f"¬{self.part!r}"


@dataclass(frozen=True)
class IsNull(Predicate):
    """``A = ⊥`` — the attribute has no non-null reachable value (used by
    the compensating selections of §3.1)."""

    attr: Attr

    def holds(self, left: NestedTuple, right: Optional[NestedTuple] = None) -> bool:
        return all(
            value is None for value in _operand_values(self.attr, left, right)
        ) or not any(True for _ in _operand_values(self.attr, left, right))

    def __repr__(self) -> str:
        return f"{self.attr.path} = ⊥"


@dataclass(frozen=True)
class NotNull(Predicate):
    attr: Attr

    def holds(self, left: NestedTuple, right: Optional[NestedTuple] = None) -> bool:
        return any(
            value is not None for value in _operand_values(self.attr, left, right)
        )

    def __repr__(self) -> str:
        return f"{self.attr.path} ≠ ⊥"
