"""The storage catalog: the optimizer's only view of physical layout.

The thesis' central engineering claim is that *all* persistent structures
— base storage, indexes, materialized views — are described to the
optimizer uniformly, as XAMs.  Adding or dropping a structure is a catalog
update; no optimizer code changes (§2.1.4, "Putting it all together").

A :class:`CatalogEntry` ties together the XAM description, the name of the
base relation holding the data, and optional access metadata (the declared
physical order and index-key attributes for restricted XAMs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from ..core.xam import Pattern
from ..core.xam_parser import parse_pattern

__all__ = ["CatalogEntry", "Catalog"]


@dataclass
class CatalogEntry:
    """One persistent storage structure, as the optimizer sees it."""

    name: str
    pattern: Pattern
    #: base relation name in the store (defaults to ``name``)
    relation: str = ""
    #: order descriptor of the stored tuples, if maintained
    order: Optional[str] = None
    #: free-form tag: "storage", "index", "view" — informational only;
    #: the optimizer treats all uniformly, which is the whole point
    kind: str = "view"
    metadata: dict = field(default_factory=dict)
    #: what the rewriting search has worked out about this XAM under the
    #: current summary (:func:`repro.core.rewrite.rewrite_pattern` fills and
    #: checks it); lives and dies with the entry
    search_memo: Any = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.relation:
            self.relation = self.name

    @property
    def is_index(self) -> bool:
        """Restricted XAMs (``R`` markers) model index structures."""
        return self.pattern.has_required_attrs


class Catalog:
    """The set of XAMs describing the storage.

    A change to the storage is communicated to the optimizer simply by
    updating this set (§2.2's "simply by updating the XAM set").

    :attr:`version` counts mutations (register / unregister); cached
    query plans are stamped with the version they were prepared against,
    so any catalog change invalidates them without further coordination
    (see :mod:`repro.engine.plan_cache`).
    """

    def __init__(self) -> None:
        self._entries: dict[str, CatalogEntry] = {}
        #: monotonically increasing mutation counter
        self.version: int = 0

    def register(
        self,
        name: str,
        pattern: Pattern | str,
        relation: str = "",
        order: Optional[str] = None,
        kind: str = "view",
        **metadata,
    ) -> CatalogEntry:
        if isinstance(pattern, str):
            pattern = parse_pattern(pattern)
        entry = CatalogEntry(
            name=name,
            pattern=pattern,
            relation=relation,
            order=order,
            kind=kind,
            metadata=metadata,
        )
        # copy-on-write, as Store.add: a search iterating views() on
        # another thread keeps a consistent dict while a writer registers
        updated = dict(self._entries)
        updated[name] = entry
        self._entries = updated
        self.version += 1
        return entry

    def unregister(self, name: str) -> None:
        updated = dict(self._entries)
        del updated[name]
        self._entries = updated
        self.version += 1

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> CatalogEntry:
        return self._entries[name]

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[CatalogEntry]:
        return list(self._entries.values())

    def __iter__(self) -> Iterator[CatalogEntry]:
        return iter(self._entries.values())

    def views(self) -> list[CatalogEntry]:
        """Entries usable as rewriting inputs (unrestricted XAMs; indexes
        need bindings and are exploited through dedicated access paths)."""
        return [entry for entry in self._entries.values() if not entry.is_index]

    def indexes(self) -> list[CatalogEntry]:
        return [entry for entry in self._entries.values() if entry.is_index]
