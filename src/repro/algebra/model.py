"""Nested-relational data model (thesis §1.2.2).

The algebra manipulates *nested tuples*: attribute values are either atomic
(strings, numbers, node identifiers), null (⊥, represented by ``None``), or
homogeneous collections of nested tuples — tuples and collections strictly
alternate, matching the hierarchical structure of XML data.

:class:`NestedTuple` is immutable-by-convention; operators always build new
tuples.  Dotted paths such as ``"A1.A21"`` address attributes nested inside
collections; :meth:`NestedTuple.iter_path` traverses them with the
existential semantics used by the ``map``-extended operators.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Optional

__all__ = ["NULL", "NestedTuple", "concat", "is_atomic"]

#: The null constant ⊥.
NULL = None


def is_atomic(value: Any) -> bool:
    """Atomic values are anything except nested-tuple collections."""
    return not isinstance(value, list)


class NestedTuple:
    """An ordered mapping of attribute names to values.

    Values are atoms, ``None`` (⊥), or ``list[NestedTuple]``.
    """

    __slots__ = ("_attrs",)

    def __init__(self, attrs: Optional[Mapping[str, Any]] = None, **kwargs: Any):
        merged: dict[str, Any] = dict(attrs) if attrs else {}
        merged.update(kwargs)
        self._attrs = merged

    @classmethod
    def adopt(cls, attrs: dict[str, Any]) -> "NestedTuple":
        """Wrap a freshly built dict without copying it — the per-row
        fast path of operators that build each output dict themselves.
        The caller hands the dict over and must not mutate it again."""
        t = object.__new__(cls)
        t._attrs = attrs
        return t

    # -- access -----------------------------------------------------------

    @property
    def attrs(self) -> dict[str, Any]:
        return self._attrs

    def names(self) -> list[str]:
        return list(self._attrs)

    def __contains__(self, name: str) -> bool:
        return name in self._attrs

    def __getitem__(self, name: str) -> Any:
        return self._attrs[name]

    def get(self, name: str, default: Any = NULL) -> Any:
        return self._attrs.get(name, default)

    def iter_path(self, path: str) -> Iterator[Any]:
        """Yield every value reachable along a nesting path.

        Path segments are separated by ``/`` (attribute names themselves
        contain dots, e.g. ``e1.ID``): ``"e2/e2.V"`` descends into the
        collection attribute ``e2`` and reads each member's ``e2.V``.  At
        each collection step all member tuples are traversed (existential
        semantics: a selection on the path succeeds when *some* reachable
        value satisfies the predicate, per Example 1.2.2).
        """
        parts = path.split("/")
        yield from self._iter_parts(parts)

    def _iter_parts(self, parts: list[str]) -> Iterator[Any]:
        head, rest = parts[0], parts[1:]
        if head not in self._attrs:
            return
        value = self._attrs[head]
        if not rest:
            yield value
            return
        if isinstance(value, list):
            for member in value:
                yield from member._iter_parts(rest)
        elif isinstance(value, NestedTuple):  # pragma: no cover - defensive
            yield from value._iter_parts(rest)
        # atomic value with leftover path: nothing reachable

    def first(self, path: str, default: Any = NULL) -> Any:
        for value in self.iter_path(path):
            return value
        return default

    # -- construction -----------------------------------------------------

    def with_attrs(self, **kwargs: Any) -> "NestedTuple":
        merged = dict(self._attrs)
        merged.update(kwargs)
        return NestedTuple.adopt(merged)

    def project(self, names: Iterable[str]) -> "NestedTuple":
        attrs = self._attrs
        return NestedTuple.adopt({name: attrs.get(name, NULL) for name in names})

    def drop(self, names: Iterable[str]) -> "NestedTuple":
        dropped = set(names)
        return NestedTuple.adopt(
            {name: v for name, v in self._attrs.items() if name not in dropped}
        )

    def rename(self, mapping: Mapping[str, str]) -> "NestedTuple":
        return NestedTuple.adopt(
            {mapping.get(name, name): v for name, v in self._attrs.items()}
        )

    # -- equality / hashing --------------------------------------------------

    def freeze(self) -> tuple:
        """A hashable snapshot (used by duplicate-eliminating projection,
        set difference and group-by)."""
        items = []
        for name, value in sorted(self._attrs.items()):
            if isinstance(value, list):
                items.append((name, tuple(member.freeze() for member in value)))
            else:
                items.append((name, value))
        return tuple(items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NestedTuple):
            return NotImplemented
        return self.freeze() == other.freeze()

    def __hash__(self) -> int:
        return hash(self.freeze())

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._attrs.items())
        return f"({inner})"


def concat(left: NestedTuple, right: NestedTuple) -> NestedTuple:
    """Tuple concatenation ``t_R || t_S``.

    Attribute names must not collide; operators qualify attribute names
    with their pattern-node or relation names to guarantee this.
    """
    left_attrs, right_attrs = left.attrs, right.attrs
    if not left_attrs.keys().isdisjoint(right_attrs):
        overlap = set(left_attrs) & set(right_attrs)
        raise ValueError(f"attribute collision on concat: {sorted(overlap)}")
    return NestedTuple.adopt({**left_attrs, **right_attrs})
