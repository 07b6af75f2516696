"""The typed error hierarchy of the engine.

Physical data independence has an availability corollary: when a storage
model or index fails, the engine knows *which* access module failed (the
XAM catalog names them) and can route around it — retry a transient I/O
error, or re-rank the S-equivalent rewritings excluding the broken module
(see ``Database.execute_prepared``).  Routing decisions need typed
failures: :class:`TransientStorageFault` is retryable, while
:class:`AccessModuleUnavailable` means the module should be circuit-broken
and the query degraded onto another access path.

The module is import-light on purpose (no engine imports), so every layer
— storage, indexes, engine, service, CLI — can raise and catch these
without cycles.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "StorageFault",
    "TransientStorageFault",
    "AccessModuleUnavailable",
    "PlanExecutionError",
    "NoUsableAccessPath",
    "DuplicateViewError",
    "QueryRejected",
]


class ReproError(Exception):
    """Base of every error the engine raises deliberately.

    Catching this (and nothing broader) separates "the engine reporting a
    typed failure" from genuine bugs — the CLI and the chaos suite rely on
    that distinction ("never a silent wrong answer, never an untyped
    crash")."""


class StorageFault(ReproError):
    """A failure at a storage-model boundary.

    ``point`` names the fault point that fired (e.g. ``relation.scan``,
    ``btree.lookup``); ``xam`` names the access module (catalog entry /
    base relation) being read when the fault hit, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        point: Optional[str] = None,
        xam: Optional[str] = None,
    ):
        super().__init__(message)
        self.point = point
        self.xam = xam


class TransientStorageFault(StorageFault):
    """A storage failure expected to clear on retry (lost page read, I/O
    timeout).  The query service absorbs these with exponential backoff,
    bounded by the per-query deadline."""


class AccessModuleUnavailable(StorageFault):
    """A storage structure that is persistently unreadable (corrupt pages,
    missing relation).  The executor records it in the module's circuit
    breaker and degrades onto the next-best S-equivalent rewriting.

    ``corrupt`` distinguishes detected corruption from plain
    unavailability; both are handled identically (never serve data from a
    structure that failed a read)."""

    def __init__(
        self,
        message: str,
        *,
        point: Optional[str] = None,
        xam: Optional[str] = None,
        corrupt: bool = False,
    ):
        super().__init__(message, point=point, xam=xam)
        self.corrupt = corrupt


class PlanExecutionError(ReproError):
    """An unexpected failure while executing a plan, wrapped with the
    failing operator's label and, when the plan was reading a view, the
    XAM name — so operators surface *where* a plan died, not just why."""

    def __init__(
        self,
        message: str,
        *,
        operator: Optional[str] = None,
        xam: Optional[str] = None,
    ):
        super().__init__(message)
        self.operator = operator
        self.xam = xam


class NoUsableAccessPath(ReproError):
    """Every access path for a pattern is circuit-broken or failed and no
    base-store fallback exists.  (With in-memory documents the base store
    always exists, so this is reserved for configurations that drop it.)"""


class QueryRejected(ReproError):
    """The admission controller shed this query instead of running it.

    Raised *before* any work happens: the queue (or, for ``background``
    work, its smaller share of it) is full, the query's remaining deadline
    cannot cover the observed queue wait (running it would only burn a
    worker slot to produce a timeout), or the deadline expired while the
    query sat queued.  Distinct from
    :class:`~repro.core.service.QueryTimeout` — a rejected query consumed
    no capacity and is immediately safe to retry elsewhere or after
    :attr:`retry_after` seconds.

    ``reason`` is a stable machine-readable tag (``queue_full``,
    ``deadline``, ``queued_deadline``); ``priority`` names the admission
    class the query was submitted under.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "queue_full",
        priority: str = "interactive",
        retry_after: Optional[float] = None,
    ):
        super().__init__(message)
        self.reason = reason
        self.priority = priority
        self.retry_after = retry_after


class DuplicateViewError(ReproError, ValueError):
    """Registering a view under a name the catalog already holds.  Keeps
    :class:`ValueError` as a base so pre-existing callers catching that
    still work, while joining the typed hierarchy the CLI's narrowed
    handlers rely on."""
