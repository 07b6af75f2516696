"""Deterministic workload replay: re-run a captured query log and diff.

The query log (:mod:`repro.engine.qlog`) gives every executed query a
plan fingerprint and a result checksum.  This module closes the loop: it
re-runs a captured log against a :class:`~repro.core.uload.Database` and
reports, per query,

* **fingerprint diffs** — the optimizer now picks a different physical
  plan than it did at record time.  Against unchanged state this must
  never happen (preparation is deterministic); when it does, either the
  catalog/statistics changed or a planner change shipped — exactly the
  regression class the CI replay lane exists to catch before merge;
* **checksum diffs** — the *answer* changed.  A plan flip with a stable
  checksum is a performance event; a checksum diff is a correctness bug,
  full stop;
* **latency drift** — recorded vs replayed wall time, reported in the
  aggregate (environments differ; latency is advisory, never a failure).

Failed/cancelled records are skipped (they carry no ground truth), but
counted, so a replay of a chaos-lane capture states its coverage
honestly.  The CLI front-ends are ``repro record`` (run a workload file
with capture on) and ``repro replay`` (re-run the capture and exit
non-zero on any diff).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..engine.qlog import QueryLog, result_checksum
from .uload import Database

__all__ = [
    "ReplayDiff",
    "ReplayReport",
    "load_records",
    "replay_records",
    "replay_file",
]


def load_records(
    path: str, include_rotated: bool = True, max_files: int = 3
) -> list[dict]:
    """Records of a captured log, oldest first (rotated generations
    included by default, so a long capture replays in recording order)."""
    if include_rotated:
        return QueryLog.read_all(path, max_files=max_files)
    return QueryLog.read(path)


@dataclass(frozen=True)
class ReplayDiff:
    """One divergence between a recorded and a replayed execution."""

    kind: str  # "fingerprint" | "checksum" | "error"
    query: str
    recorded: Optional[str]
    replayed: Optional[str]

    def summary(self) -> str:
        return (
            f"[{self.kind}] {self.query}: "
            f"recorded {self.recorded or '-'} != replayed {self.replayed or '-'}"
        )

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "query": self.query,
            "recorded": self.recorded,
            "replayed": self.replayed,
        }


@dataclass
class ReplayReport:
    """The outcome of one replay run."""

    total: int = 0  #: records in the capture
    replayed: int = 0  #: successful recorded executions re-run
    skipped: int = 0  #: failed/cancelled records without ground truth
    matches: int = 0  #: replays with identical fingerprint and checksum
    diffs: list[ReplayDiff] = field(default_factory=list)
    recorded_seconds: float = 0.0
    replayed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.diffs

    @property
    def latency_ratio(self) -> Optional[float]:
        """Replayed / recorded total wall time (None without a baseline)."""
        if self.recorded_seconds <= 0.0:
            return None
        return self.replayed_seconds / self.recorded_seconds

    def as_dict(self) -> dict:
        out = {
            "total": self.total,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "matches": self.matches,
            "diffs": [diff.as_dict() for diff in self.diffs],
            "recorded_seconds": round(self.recorded_seconds, 6),
            "replayed_seconds": round(self.replayed_seconds, 6),
        }
        if self.latency_ratio is not None:
            out["latency_ratio"] = round(self.latency_ratio, 3)
        return out

    def render(self) -> str:
        lines = [
            f"replayed {self.replayed}/{self.total} records "
            f"({self.skipped} skipped): {self.matches} match, "
            f"{len(self.diffs)} diff"
        ]
        if self.latency_ratio is not None:
            lines.append(
                f"latency: recorded {self.recorded_seconds * 1000:.2f}ms, "
                f"replayed {self.replayed_seconds * 1000:.2f}ms "
                f"({self.latency_ratio:.2f}x)"
            )
        lines.extend(diff.summary() for diff in self.diffs)
        return "\n".join(lines)


def replay_records(db: Database, records: Sequence[dict]) -> ReplayReport:
    """Re-run every replayable record against ``db`` and diff.

    Replays go straight through :meth:`Database.query` with the flags the
    record was captured under (a ``physical`` flag from older captures
    is ignored: every plan runs compiled) — deliberately *not* through a
    :class:`~repro.core.service.QueryService`, so the replay process
    neither pollutes a live service's plan cache nor depends on its cache
    state: every fingerprint is re-derived from a fresh preparation.
    """
    report = ReplayReport(total=len(records))
    for record in records:
        if record.get("outcome") != "ok" or "checksum" not in record:
            report.skipped += 1
            continue
        flags = record.get("flags", {})
        query = record["query"]
        started = time.perf_counter()
        try:
            # a flag the record does not carry replays at its default
            result = db.query(
                query,
                **{
                    name: flags[name]
                    for name in ("prefer_views", "stats")
                    if name in flags
                },
            )
        except Exception as exc:
            report.replayed += 1
            report.diffs.append(
                ReplayDiff(
                    kind="error",
                    query=query,
                    recorded="ok",
                    replayed=type(exc).__name__,
                )
            )
            continue
        elapsed = time.perf_counter() - started
        report.replayed += 1
        report.recorded_seconds += float(record.get("seconds", 0.0))
        report.replayed_seconds += elapsed
        clean = True
        recorded_fingerprint = record.get("fingerprint")
        if recorded_fingerprint and result.plan_fingerprint != recorded_fingerprint:
            clean = False
            report.diffs.append(
                ReplayDiff(
                    kind="fingerprint",
                    query=query,
                    recorded=recorded_fingerprint,
                    replayed=result.plan_fingerprint,
                )
            )
        checksum = result_checksum(result)
        if checksum != record["checksum"]:
            clean = False
            report.diffs.append(
                ReplayDiff(
                    kind="checksum",
                    query=query,
                    recorded=record["checksum"],
                    replayed=checksum,
                )
            )
        if clean:
            report.matches += 1
    return report


def replay_file(
    db: Database, path: str, include_rotated: bool = True
) -> ReplayReport:
    """Convenience wrapper: load a capture and replay it."""
    return replay_records(db, load_records(path, include_rotated))
