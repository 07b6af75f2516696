"""A versioned, thread-safe LRU cache of prepared query plans.

The thesis' economics (§1.2.3–§1.2.4) are that many logical queries share
a few physical access paths; what makes that *pay* at runtime is not
re-deriving the access-path choice on every call.  The full pipeline —
parse → translate → extract maximal patterns → rewriting search over the
XAM catalog → rank → assemble → compile — is pure with respect to the
database state, so its output can be reused until that state changes.

:class:`PlanCache` keys entries on ``(normalized query text, flags)`` and
stamps each entry with the **catalog version** current when the plan was
prepared.  Any XAM / document / statistics mutation bumps the version
(see :attr:`repro.storage.catalog.Catalog.version` and
``Database.catalog_version``), so a later lookup finds a version mismatch
and drops the stale plan automatically — the cache never needs to know
*what* changed, only *that* something did.  This is the invalidation
protocol: versions only grow, entries carry the version they were built
against, and equality is the sole staleness test.

All operations take a single internal lock; the cache is safe to share
across the :class:`~repro.core.service.QueryService` worker threads.
Counters (hits / misses / evictions / invalidations) are maintained under
the same lock and exposed as an immutable :class:`CacheStats` snapshot.
"""

from __future__ import annotations

import json
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Hashable, Iterator, Optional

__all__ = [
    "CacheStats",
    "CompiledPlanArtifact",
    "CompiledSlot",
    "PinStats",
    "PinnedChoice",
    "PinnedPlan",
    "PlanCache",
    "PlanPinStore",
    "normalize_query",
]


def normalize_query(text: str) -> str:
    """Whitespace-insensitive form of a query: the cache key treats
    ``//a/b`` and ``  //a/b  `` (and internal run-of-space differences)
    as the same query."""
    return " ".join(text.split())


@dataclass(frozen=True)
class CacheStats:
    """An immutable snapshot of the cache counters.

    ``invalidations`` counts entries dropped because the catalog version
    moved past them (on lookup or an explicit stale purge); ``evictions``
    counts capacity-driven LRU drops only.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": self.hit_rate,
        }

    def render(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions} invalidations={self.invalidations} "
            f"size={self.size}/{self.capacity} hit_rate={self.hit_rate:.0%}"
        )


class _Entry:
    __slots__ = ("value", "version")

    def __init__(self, value: Any, version: int):
        self.value = value
        self.version = version


class CompiledSlot:
    """One compiled batch closure of a plan artifact.

    ``plan`` is the physical operator tree the closure records metrics
    into (instrumentation attaches nodes to *this* tree, not whatever
    copy a later preparation produced); ``fn`` is the specialized
    closure; ``lock`` serializes executions — one artifact may be shared
    by every prepared query carrying the same fingerprint, and metrics
    instrumentation is per-plan-object state.
    """

    __slots__ = ("name", "plan", "fn", "lock")

    def __init__(self, name: str, plan: Any, fn: Any):
        self.name = name
        self.plan = plan
        self.fn = fn
        self.lock = threading.Lock()


class CompiledPlanArtifact:
    """The compiled batch artifact cached under one plan fingerprint.

    A prepared query compiles to several physical plans — one per
    extraction unit (``unit:<n>``) plus one per chosen rewriting
    (``pattern:<unit>:<index>``); the artifact holds one
    :class:`CompiledSlot` per such plan, filled lazily as execution
    reaches it.  PR 5's fingerprint is the key: identical catalog state
    re-prepares to an identical fingerprint, so the closures are exactly
    reusable; any catalog-version bump makes the enclosing cache entry
    stale and the whole artifact is recompiled.
    """

    __slots__ = ("fingerprint", "version", "_slots", "_lock")

    def __init__(self, fingerprint: str, version: int = 0):
        self.fingerprint = fingerprint
        self.version = version
        self._slots: dict[str, CompiledSlot] = {}
        self._lock = threading.Lock()

    def slot(
        self, name: str, plan: Any, compiler: Any
    ) -> tuple[CompiledSlot, bool]:
        """The compiled slot for ``name``, compiling ``plan`` through
        ``compiler`` on first request.  Returns ``(slot, fresh)`` —
        ``fresh`` is True when this call did the compilation (a
        ``plan_compile.miss``), False on reuse (a ``plan_compile.hit``).
        """
        with self._lock:
            found = self._slots.get(name)
            if found is not None:
                return found, False
            compiled = CompiledSlot(name, plan, compiler(plan))
            self._slots[name] = compiled
            return compiled, True

    def slots(self) -> list[str]:
        with self._lock:
            return list(self._slots)

    def __len__(self) -> int:
        with self._lock:
            return len(self._slots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CompiledPlanArtifact {self.fingerprint} "
            f"slots={len(self)} v{self.version}>"
        )


class PlanCache:
    """LRU map from query keys to prepared plans, with version stamps."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    # -- lookups ------------------------------------------------------------

    def get(self, key: Hashable, version: int = 0) -> Optional[Any]:
        """The cached value, or None.  A key present at an older catalog
        version counts as an invalidation *and* a miss, and the stale
        entry is dropped."""
        return self.lookup(key, version)[0]

    def lookup(self, key: Hashable, version: int = 0) -> tuple[Optional[Any], str]:
        """Like :meth:`get`, but also reports the per-lookup outcome:
        ``"hit"``, ``"miss"``, or ``"stale"`` (version mismatch — counted
        as an invalidation and a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None, "miss"
            if entry.version != version:
                del self._entries[key]
                self._invalidations += 1
                self._misses += 1
                return None, "stale"
            self._entries.move_to_end(key)
            self._hits += 1
            return entry.value, "hit"

    def put(self, key: Hashable, value: Any, version: int = 0) -> None:
        with self._lock:
            self._entries[key] = _Entry(value, version)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    # -- invalidation -------------------------------------------------------

    def remove(self, key: Hashable) -> bool:
        """Drop one entry by key (counted as an invalidation when
        present).  The query service uses this after a degraded execution:
        the cached plan's top-ranked rewriting just failed, so the next
        preparation should re-rank with the circuit breakers in view."""
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self._invalidations += 1
            return True

    def purge_stale(self, version: int) -> int:
        """Drop every entry not built at ``version`` (the eager half of
        the protocol — lazy lookup-time drops happen regardless).
        Returns the number of entries dropped."""
        with self._lock:
            stale = [k for k, e in self._entries.items() if e.version != version]
            for key in stale:
                del self._entries[key]
            self._invalidations += len(stale)
            return len(stale)

    def clear(self) -> int:
        """Drop everything (counted as invalidations)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._invalidations += dropped
            return dropped

    # -- introspection ------------------------------------------------------

    def register_metrics(self, registry, prefix: str = "plan_cache") -> None:
        """Publish this cache into a
        :class:`~repro.engine.metrics.MetricsRegistry`: a scrape-time
        collector mirrors the lifetime counters (hits / misses /
        evictions / invalidations are maintained under the cache lock
        anyway — no reason to double-count them on the hot path) and
        refreshes the size / capacity gauges.  ``prefix`` names the
        metric family, so several caches (the prepared-plan cache, the
        compiled-artifact cache) coexist on one registry."""
        registry.counter(f"{prefix}.hits", f"{prefix} hits (lifetime)")
        registry.counter(f"{prefix}.misses", f"{prefix} misses (lifetime)")
        registry.counter(f"{prefix}.evictions", "capacity-driven LRU drops")
        registry.counter(
            f"{prefix}.invalidations", "version/staleness-driven drops"
        )
        registry.gauge(f"{prefix}.size", "cached plans right now")
        registry.gauge(f"{prefix}.capacity", f"{prefix} capacity")

        self_ref = weakref.ref(self)

        def collect(reg) -> None:
            cache = self_ref()
            if cache is None:  # don't pin dead caches to the registry
                reg.unregister_collector(collect)
                return
            stats = cache.stats()
            reg.counter(f"{prefix}.hits").set_total(stats.hits)
            reg.counter(f"{prefix}.misses").set_total(stats.misses)
            reg.counter(f"{prefix}.evictions").set_total(stats.evictions)
            reg.counter(f"{prefix}.invalidations").set_total(stats.invalidations)
            reg.set_gauge(f"{prefix}.size", stats.size)
            reg.set_gauge(f"{prefix}.capacity", stats.capacity)

        registry.register_collector(collect)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                size=len(self._entries),
                capacity=self.capacity,
            )

    def keys(self) -> list[Hashable]:
        """Current keys, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.keys())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PlanCache {self.stats().render()}>"


# ---------------------------------------------------------------------------
# Pinned plans — the tournament's promotion layer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PinnedChoice:
    """One pinned access-path decision: pattern ``pattern`` of unit
    ``unit`` is served by the base store (``access="base"``) or by the
    rewriting whose :func:`~repro.engine.qlog.rewriting_signature` equals
    ``signature`` (``access="rewriting"``).  ``views`` is carried for
    audit readability only — matching is by signature."""

    unit: int
    pattern: int
    access: str  # "base" | "rewriting"
    signature: str = ""
    views: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "unit": self.unit,
            "pattern": self.pattern,
            "access": self.access,
            "signature": self.signature,
            "views": list(self.views),
        }

    @staticmethod
    def from_dict(data: dict) -> "PinnedChoice":
        return PinnedChoice(
            unit=int(data["unit"]),
            pattern=int(data["pattern"]),
            access=str(data["access"]),
            signature=str(data.get("signature", "")),
            views=tuple(data.get("views", ())),
        )


@dataclass(frozen=True)
class PinnedPlan:
    """A tournament-promoted plan for one normalized query.

    Pins bypass cost-model ranking at prepare time: the database re-finds
    each choice's rewriting by signature instead of calling
    ``rank_rewritings``.  They are stamped with the catalog version they
    were validated against and dropped (``plan_pin.invalidate``) the
    moment any view/document/statistics mutation bumps it — a stale pin
    must never outlive the state its benchmark evidence came from.
    ``fingerprint`` is the plan fingerprint the pinned preparation is
    expected to reproduce; ``margin`` records how much the winner beat the
    cost model's default pick by (fractional latency improvement);
    ``source`` names the audit trail that justifies the promotion.
    """

    query: str  # normalized query text
    catalog_version: int
    choices: tuple[PinnedChoice, ...]
    fingerprint: str = ""
    margin: float = 0.0
    source: str = ""

    def choice(self, unit: int, pattern: int) -> Optional[PinnedChoice]:
        for entry in self.choices:
            if entry.unit == unit and entry.pattern == pattern:
                return entry
        return None

    def as_dict(self) -> dict:
        return {
            "query": self.query,
            "catalog_version": self.catalog_version,
            "choices": [choice.as_dict() for choice in self.choices],
            "fingerprint": self.fingerprint,
            "margin": self.margin,
            "source": self.source,
        }

    @staticmethod
    def from_dict(data: dict) -> "PinnedPlan":
        return PinnedPlan(
            query=str(data["query"]),
            catalog_version=int(data["catalog_version"]),
            choices=tuple(
                PinnedChoice.from_dict(choice)
                for choice in data.get("choices", ())
            ),
            fingerprint=str(data.get("fingerprint", "")),
            margin=float(data.get("margin", 0.0)),
            source=str(data.get("source", "")),
        )

    def restamped(self, catalog_version: int) -> "PinnedPlan":
        """The same pin stamped for a different catalog version — what a
        loader applies after rebuilding identical state in a new process
        (version numbering is process-local; the signatures are not)."""
        return replace(self, catalog_version=catalog_version)


@dataclass(frozen=True)
class PinStats:
    """Immutable snapshot of the pin-store counters."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    size: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "size": self.size,
        }


class PlanPinStore:
    """Versioned map from normalized query text to its pinned plan.

    Deliberately *not* an LRU: pins are few (one per tournament-promoted
    query), explicitly installed, and must survive any amount of plan
    cache pressure — eviction economics apply to derived plans, not to
    benchmark-validated decisions.  The only automatic removal is the
    staleness drop: a lookup or purge at a newer catalog version
    invalidates the pin (counted, surfaced as ``plan_pin.invalidations``).
    Same locking discipline as :class:`PlanCache`.
    """

    def __init__(self) -> None:
        self._pins: dict[str, PinnedPlan] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0

    # -- mutation -----------------------------------------------------------

    def pin(self, plan: PinnedPlan) -> None:
        with self._lock:
            self._pins[plan.query] = plan

    def drop(self, query: str) -> bool:
        with self._lock:
            return self._pins.pop(query, None) is not None

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._pins)
            self._pins.clear()
            return dropped

    def purge_stale(self, version: int) -> int:
        """Drop every pin not stamped at ``version`` (the eager half of
        the invalidation protocol; lazy lookup-time drops happen
        regardless).  Returns the number dropped."""
        with self._lock:
            stale = [
                query
                for query, pin in self._pins.items()
                if pin.catalog_version != version
            ]
            for query in stale:
                del self._pins[query]
            self._invalidations += len(stale)
            return len(stale)

    # -- lookups ------------------------------------------------------------

    def lookup(
        self, query: str, version: int
    ) -> tuple[Optional[PinnedPlan], str]:
        """``(pin, outcome)`` where outcome is ``"hit"``, ``"miss"`` or
        ``"stale"`` (version mismatch — the pin is dropped and counted as
        an invalidation and a miss)."""
        with self._lock:
            pin = self._pins.get(query)
            if pin is None:
                self._misses += 1
                return None, "miss"
            if pin.catalog_version != version:
                del self._pins[query]
                self._invalidations += 1
                self._misses += 1
                return None, "stale"
            self._hits += 1
            return pin, "hit"

    def get(self, query: str, version: int) -> Optional[PinnedPlan]:
        return self.lookup(query, version)[0]

    def entries(self) -> list[PinnedPlan]:
        with self._lock:
            return list(self._pins.values())

    def stats(self) -> PinStats:
        with self._lock:
            return PinStats(
                hits=self._hits,
                misses=self._misses,
                invalidations=self._invalidations,
                size=len(self._pins),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._pins)

    def __contains__(self, query: str) -> bool:
        with self._lock:
            return query in self._pins

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> int:
        """Write every pin as JSON (the ``pins.json`` artifact of the
        tournament's audit directory).  Returns the number written."""
        pins = self.entries()
        payload = {"pins": [pin.as_dict() for pin in pins]}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        return len(pins)

    @staticmethod
    def load(path: str) -> list[PinnedPlan]:
        """Parse a pins file back into :class:`PinnedPlan` objects.  The
        caller decides how to re-stamp the catalog version (see
        :meth:`PinnedPlan.restamped`) — version numbering is process
        local, so the recorded stamps only mean something to the process
        that wrote them."""
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        return [PinnedPlan.from_dict(entry) for entry in payload.get("pins", ())]

    # -- introspection -------------------------------------------------------

    def register_metrics(self, registry, prefix: str = "plan_pin") -> None:
        """Mirror the pin counters into a metrics registry (the weakly
        referenced scrape-time collector idiom of :class:`PlanCache`)."""
        registry.counter(f"{prefix}.hits", "pinned-plan lookups that applied")
        registry.counter(f"{prefix}.misses", "pin lookups with nothing pinned")
        registry.counter(
            f"{prefix}.invalidations",
            "pins dropped on catalog-version bumps",
        )
        registry.gauge(f"{prefix}.size", "pinned plans currently installed")

        self_ref = weakref.ref(self)

        def collect(reg) -> None:
            store = self_ref()
            if store is None:  # don't pin dead stores to the registry
                reg.unregister_collector(collect)
                return
            stats = store.stats()
            reg.counter(f"{prefix}.hits").set_total(stats.hits)
            reg.counter(f"{prefix}.misses").set_total(stats.misses)
            reg.counter(f"{prefix}.invalidations").set_total(
                stats.invalidations
            )
            reg.set_gauge(f"{prefix}.size", stats.size)

        registry.register_collector(collect)

    def render(self) -> str:
        pins = self.entries()
        if not pins:
            return "no pinned plans"
        lines = []
        for pin in sorted(pins, key=lambda p: p.query):
            views = sorted(
                {name for choice in pin.choices for name in choice.views}
            )
            lines.append(
                f"{pin.fingerprint or '-'} v{pin.catalog_version} "
                f"margin={pin.margin:.1%} views={views} {pin.query}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"<PlanPinStore size={stats.size} hits={stats.hits} "
            f"invalidations={stats.invalidations}>"
        )
