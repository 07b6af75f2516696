"""Workload capture: plan fingerprints, result checksums, a query log.

PR 4 made the engine observable in the aggregate (counters, histograms,
span trees); what it cannot answer is the *regression* question a
production deployment actually asks: "did the optimizer silently change
its mind about this query, and did the answer change with it?"  The
paper's whole premise (§4) is that the optimizer picks among XAM-based
rewritings — so the plan choice is state worth recording, per query,
durably, in a form a later process can diff.

Three pieces live here:

* :func:`fingerprint_plan` — a stable hash of one prepared query's
  **physical plan shape**: per unit, the compiled operator tree (which
  bakes in the chosen join algorithms — ``PHashJoin`` vs
  ``PNestedLoopsJoin`` — and sort placements) plus, per pattern, the
  chosen access path (rewriting kind + the XAM views it reads, or the
  base store).  Two preparations that would execute differently get
  different fingerprints; re-preparing against unchanged state is
  guaranteed to reproduce the same one (compilation is deterministic
  given the catalog, summary statistics and store orders).
* :func:`result_checksum` — a stable hash of a query's observable output
  (XML fragments, scalar values, result tuples), the ground truth a
  replay diffs against.
* :class:`QueryLog` — a structured, size-rotated JSONL log recording
  every executed query: normalized text, fingerprint, checksum, latency,
  per-pattern est-vs-actual cardinalities, per-operator metrics (when the
  run was instrumented), counters, degradation flags and the trace id.
  A bounded in-memory ring of the newest records backs the ``/qlog``
  HTTP route; the file (when a path is given) is what ``repro replay``
  re-runs.  ``REPRO_QLOG=<path>`` turns capture on from the environment
  — the hook the CI chaos lane uses to keep a workload artifact around
  for failed runs.

Everything is standard library and engine-layer only: the core imports
this module, never the other way around.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import deque
from typing import Any, Iterable, Optional

__all__ = [
    "QueryLog",
    "build_record",
    "fingerprint_plan",
    "iter_ok_records",
    "result_checksum",
    "rewriting_signature",
    "QLOG_ENV_VAR",
]

#: environment variable naming the JSONL path of an ambient query log
#: (picked up by :meth:`QueryLog.from_env`, used by the CI chaos lane to
#: capture a debuggable workload artifact from test runs)
QLOG_ENV_VAR = "REPRO_QLOG"

#: fingerprints and checksums are truncated SHA-256 — 16 hex chars is
#: plenty to make collisions between a handful of plan shapes implausible
#: while keeping log lines and diffs readable
_DIGEST_CHARS = 16


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:_DIGEST_CHARS]


# ---------------------------------------------------------------------------
# Plan fingerprints
# ---------------------------------------------------------------------------

def fingerprint_plan(units, ctx, scan_orders=None) -> tuple[str, str]:
    """``(fingerprint, shape description)`` of a prepared query.

    ``units`` are the prepared units of a
    :class:`~repro.core.uload.PreparedQuery` (duck-typed: ``logical``,
    ``resolutions``, ``compiled_plan``, ``compiled_patterns``).  Units
    whose plans are not yet compiled are compiled here — and the compiled
    artifacts are stored back onto the unit, so fingerprinting at prepare
    time *prepays* the compilation that executions would otherwise do
    lazily.

    The description (second element) is the human-readable text the hash
    is computed over — ``repro replay`` and the sentinel surface it when
    explaining why two fingerprints differ.
    """
    lines: list[str] = []
    for unit_index, unit in enumerate(units):
        if unit.compiled_plan is None:
            unit.compiled_plan = ctx.compile(unit.logical, scan_orders)
        lines.append(f"unit {unit_index}: {unit.compiled_plan.shape()}")
        for index, resolution in enumerate(unit.resolutions):
            rewriting = resolution.rewriting
            if rewriting is None:
                lines.append(f"  pattern {index}: base")
                continue
            compiled = unit.compiled_patterns.get(index)
            if compiled is None:
                compiled = ctx.compile(rewriting.plan, scan_orders)
                unit.compiled_patterns[index] = compiled
            views = ",".join(rewriting.views)
            lines.append(
                f"  pattern {index}: {rewriting.kind}[{views}] "
                f"{compiled.shape()}"
            )
    shape = "\n".join(lines)
    return _digest(shape), shape


def rewriting_signature(rewriting) -> str:
    """Stable identity of one S-equivalent rewriting (duck-typed:
    ``kind``, ``views``, ``plan``).

    The digest covers the rewriting kind, the views it reads and the full
    logical plan text, so two rewritings over the same views but with
    different compensations (selections, navigations, regroupings) get
    different signatures.  Enumeration is deterministic given the catalog
    and summary, which is what lets a **pinned plan** name its chosen
    rewriting by signature and re-find it at prepare time — and what makes
    a signature from a *different* catalog state simply fail to match
    (the safe outcome: the pin falls back to normal ranking).
    """
    plan = rewriting.plan
    text = plan.pretty() if hasattr(plan, "pretty") else repr(plan)
    return _digest(f"{rewriting.kind}|{','.join(rewriting.views)}|{text}")


# ---------------------------------------------------------------------------
# Result checksums
# ---------------------------------------------------------------------------

def result_checksum(result) -> str:
    """Stable hash of a query's observable output.

    Covers the XML fragments and scalar values; raw tuples participate
    only when they *are* the output (no xml, no values) — the same rule
    the CLI uses to print a result.  Hashing the internal tuple channel
    unconditionally would double the capture cost for XML-returning
    queries (tuple reprs dominate that profile) without adding ground
    truth.  Node and tuple reprs are deterministic (kind, label,
    pre-order rank), so the same database state always reproduces the
    same checksum — which is exactly what makes it diffable across a
    record/replay pair.
    """
    hasher = hashlib.sha256()
    for xml in result.xml:
        hasher.update(b"x\x00")
        hasher.update(str(xml).encode("utf-8"))
    for value in result.values:
        hasher.update(b"v\x00")
        hasher.update(repr(value).encode("utf-8"))
    if not result.xml and not result.values:
        for t in result.tuples:
            hasher.update(b"t\x00")
            hasher.update(repr(t).encode("utf-8"))
    return hasher.hexdigest()[:_DIGEST_CHARS]


# ---------------------------------------------------------------------------
# Record construction
# ---------------------------------------------------------------------------

def build_record(
    query: str,
    result,
    seconds: float,
    outcome: str,
    error: Optional[str] = None,
    flags: Optional[dict] = None,
    admission: Optional[dict] = None,
) -> dict[str, Any]:
    """One query-log record (a JSON-able dict).

    ``result`` is None for failed / cancelled queries — the record still
    captures the query text, outcome, error type and latency, so the log
    is a complete workload trace, not just the happy path.  ``admission``
    stamps the admission-control outcome (priority class, measured queue
    wait, or the shed reason for ``outcome="rejected"`` records), so a
    log of an overloaded serve distinguishes "shed at the door" from
    "executed after queuing".
    """
    record: dict[str, Any] = {
        "ts": time.time(),
        "query": query,
        "outcome": outcome,
        "seconds": seconds,
    }
    if flags:
        record["flags"] = dict(flags)
    if admission:
        record["admission"] = dict(admission)
    if error is not None:
        record["error"] = error
    if result is None:
        return record
    record["fingerprint"] = result.plan_fingerprint
    record["checksum"] = result_checksum(result)
    # stamp the physical layout: replaying the same workload across
    # different shard counts must diff clean (physical data independence)
    shard_count = getattr(result, "shard_count", None)
    if shard_count is not None:
        record["shards"] = shard_count
    record["rows"] = {
        "xml": len(result.xml),
        "values": len(result.values),
        "tuples": len(result.tuples),
    }
    record["patterns"] = [
        {
            "pattern": resolution.pattern.to_text(),
            "access": resolution.access_path,
            "views": (
                list(resolution.rewriting.views)
                if resolution.rewriting is not None
                else []
            ),
            "est": resolution.estimated_cardinality,
            "actual": resolution.actual_cardinality,
        }
        for resolution in result.resolutions
    ]
    operators: list[dict] = []
    # was this execution profiled?  attributed CPU/memory fields are only
    # written when so — replay and old readers tolerate their absence,
    # and calibration keys off their presence
    profiled = any(
        node.cpu_ns or node.peak_mem_bytes
        for metrics in result.metrics
        for node in metrics.walk()
    )

    def _operator_rows(node, depth: int) -> None:
        row = {
            "label": node.label,
            "depth": depth,
            "est": node.estimated_rows,
            "actual": node.rows_out,
            "ms": round(node.elapsed * 1000, 4),
        }
        if profiled:
            row["cpu_ms"] = round(node.cpu_ns / 1e6, 4)
            row["peak_mem_kb"] = round(node.peak_mem_bytes / 1024, 2)
        operators.append(row)
        for child in node.children:
            _operator_rows(child, depth + 1)

    for metrics in result.metrics:
        _operator_rows(metrics.root, 0)
    if operators:
        record["operators"] = operators
    if result.counters:
        record["counters"] = dict(result.counters)
    if getattr(result, "pinned", False):
        record["pinned"] = True
    if result.degraded:
        record["degraded"] = True
        record["events"] = list(result.degradation_events)
    if result.trace_id:
        record["trace_id"] = result.trace_id
    return record


# ---------------------------------------------------------------------------
# The query log
# ---------------------------------------------------------------------------

class QueryLog:
    """A thread-safe, size-rotated JSONL query log with a memory ring.

    ``path=None`` keeps records in memory only (the newest ``capacity``,
    for the ``/qlog`` route); with a path, every record is also appended
    as one JSON line.  When the file grows past ``max_bytes`` it rotates
    (``workload.jsonl`` → ``workload.jsonl.1`` → … up to ``max_files``
    rotated generations), so a sustained workload cannot fill the disk.

    Writes are buffered by the underlying text stream; :meth:`flush`
    forces them out and :meth:`close` is the clean-shutdown contract the
    CLI's signal handlers rely on — a SIGTERM'd ``repro serve`` must not
    lose the tail of its workload capture.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        capacity: int = 256,
        max_bytes: int = 10 * 1024 * 1024,
        max_files: int = 3,
        registry=None,
    ) -> None:
        if capacity < 1:
            raise ValueError("query log ring capacity must be >= 1")
        if max_files < 1:
            raise ValueError("query log must keep at least one rotated file")
        self.path = path
        self.max_bytes = max_bytes
        self.max_files = max_files
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._written = 0
        self._rotations = 0
        self._registry = registry
        self._file = open(path, "a", encoding="utf-8") if path else None

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_env(cls, environ=None) -> Optional["QueryLog"]:
        """A file-backed log at ``$REPRO_QLOG``, or None when unset."""
        env = os.environ if environ is None else environ
        path = env.get(QLOG_ENV_VAR)
        return cls(path) if path else None

    def bind_registry(self, registry) -> None:
        """Attach a :class:`~repro.engine.metrics.MetricsRegistry` so
        record/rotation counts surface on ``/metrics``."""
        self._registry = registry
        registry.counter("qlog.records", "query-log records written")
        registry.counter("qlog.rotations", "query-log file rotations")

    # -- recording ----------------------------------------------------------

    def record(self, record: dict) -> None:
        with self._lock:
            self._ring.append(record)
            self._written += 1
            if self._file is not None:
                if self._file.tell() > self.max_bytes:
                    self._rotate_locked()
                json.dump(record, self._file, default=str)
                self._file.write("\n")
        if self._registry is not None:
            self._registry.inc("qlog.records")

    def _rotate_locked(self) -> None:
        """Shift ``path.N`` → ``path.N+1`` (oldest dropped), current →
        ``path.1``, and reopen fresh.  Caller holds the lock."""
        self._file.close()
        oldest = f"{self.path}.{self.max_files}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for number in range(self.max_files - 1, 0, -1):
            source = f"{self.path}.{number}"
            if os.path.exists(source):
                os.replace(source, f"{self.path}.{number + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._file = open(self.path, "a", encoding="utf-8")
        self._rotations += 1
        if self._registry is not None:
            self._registry.inc("qlog.rotations")

    # -- reading ------------------------------------------------------------

    def tail(self, count: Optional[int] = None) -> list[dict]:
        """The newest retained records, oldest first."""
        with self._lock:
            records = list(self._ring)
        return records if count is None else records[-count:]

    @staticmethod
    def read(path: str) -> list[dict]:
        """Parse a JSONL log file back into records (blank lines are
        skipped; a torn final line — a crashed writer — is tolerated)."""
        records: list[dict] = []
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        for number, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if number == len(lines) - 1:
                    continue  # torn tail from an unclean shutdown
                raise
        return records

    @staticmethod
    def read_all(path: str, max_files: int = 3) -> list[dict]:
        """Like :meth:`read`, but including rotated generations (oldest
        first), so a rotated capture replays in recording order."""
        records: list[dict] = []
        for number in range(max_files, 0, -1):
            rotated = f"{path}.{number}"
            if os.path.exists(rotated):
                records.extend(QueryLog.read(rotated))
        records.extend(QueryLog.read(path))
        return records

    # -- introspection -------------------------------------------------------

    @property
    def written(self) -> int:
        with self._lock:
            return self._written

    @property
    def rotations(self) -> int:
        with self._lock:
            return self._rotations

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def render(self, count: int = 20) -> str:
        records = self.tail(count)
        if not records:
            return "no queries logged"
        lines = []
        for record in records:
            fingerprint = record.get("fingerprint", "-")
            marker = " DEGRADED" if record.get("degraded") else ""
            lines.append(
                f"{record.get('seconds', 0.0) * 1000:8.2f}ms "
                f"[{record.get('outcome', '?')}] plan={fingerprint}{marker} "
                f"{record.get('query', '')}"
            )
        return "\n".join(lines)

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.flush()

    def close(self) -> None:
        """Flush and close the backing file (idempotent); the memory ring
        stays readable."""
        with self._lock:
            if self._file is not None:
                self._file.flush()
                self._file.close()
                self._file = None

    @property
    def closed(self) -> bool:
        with self._lock:
            return self.path is not None and self._file is None

    def __enter__(self) -> "QueryLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        target = self.path or "memory"
        return f"<QueryLog {target} written={self.written}>"


def iter_ok_records(records: Iterable[dict]) -> Iterable[dict]:
    """The replayable subset of a log: successful executions that carry a
    fingerprint and checksum."""
    for record in records:
        if record.get("outcome") == "ok" and "checksum" in record:
            yield record
