"""Order descriptors (thesis §1.2.3).

Every physical operator advertises the attribute its output is ordered on
(``None`` when unordered).  The compiler uses descriptors to decide where
``Sort`` operators must be inserted so that structural joins — which
require both inputs ordered by their join identifiers — are correctly
piped into each other.

A descriptor is simply the ``/``-separated nesting path of the ordering
attribute, e.g. ``"e1.SID"`` or ``"e2/e2.SID"`` (ordering of members
inside the ``e2`` collection).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from ..algebra.model import NestedTuple

__all__ = ["sort_key_for", "satisfies", "project_order"]


def sort_key_for(path: str):
    """A sort key function over nested tuples for an order descriptor.

    ``None`` values sort first; heterogeneous atoms order by type name so
    sorting never raises.
    """

    def key(t: NestedTuple) -> Any:
        value = t.first(path)
        if value is None:
            return (0, "")
        return (1, type(value).__name__, value)

    return key


def satisfies(current: Optional[str], required: Optional[str]) -> bool:
    """Whether an operator ordered by ``current`` satisfies ``required``."""
    if required is None:
        return True
    return current == required


def project_order(
    order: Optional[str],
    columns: Sequence[str],
    sources: Optional[Mapping[str, str]] = None,
) -> Optional[str]:
    """The order descriptor surviving a projection.

    A projection keeps input order; the descriptor survives iff some
    projected column reads the ordering attribute's top-level column
    (``sources`` maps a column to the input it reads).  Order-preserving
    operators used to drop descriptors wholesale, forcing the compiler to
    insert redundant ``Sort``s below structural joins.
    """
    if order is None:
        return None
    head, sep, rest = order.partition("/")
    sources = sources or {}
    for column in columns:
        if sources.get(column, column) == head:
            # the column names the first path step; the nested remainder
            # (if any) is untouched by Project's top-level renames
            return column + sep + rest
    return None
