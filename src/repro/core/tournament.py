"""Offline plan tournament: enumerate → validate → benchmark → pin.

The cost model (:func:`~repro.core.statistics.rank_rewritings`) makes a
single pick per pattern from summary estimates.  This module is the
offline second opinion the ROADMAP calls for: given a *recorded* workload
(a qlog JSONL capture from ``repro record``), it re-derives, for every
distinct normalized query, the **complete** space of S-equivalent access
paths — every rewriting the Chapter 5 search can produce, plus the base
store — and runs a tournament over it:

1. **Enumerate.**  Each pattern's options are the base store and every
   rewriting (``max_results=None`` — no enumeration cap offline), each
   named by its :func:`~repro.engine.qlog.rewriting_signature`.  A
   whole-query candidate is one choice per pattern, expressed as the
   exact :class:`~repro.engine.plan_cache.PinnedPlan` that would replay
   it; the cost model's own pick is always candidate 0.

2. **Validate.**  Every candidate executes under the recorded flags *and*
   instrumented (``stats=True``), and every result checksum must equal
   the recorded one.  S-equivalence says they must agree — a divergence
   is a rewriting/engine bug, never a tie-breaking detail, so it is
   reported loudly and fails the run.  This makes the tournament a
   standing differential-correctness harness over the whole rewriting
   framework, independent of whether anything gets promoted.

3. **Benchmark.**  Validated candidates run timed laps through the
   compiled engine (one warmup, then ``runs`` measured executions); the
   score is the trimmed mean (min and max dropped once there are ≥ 3
   samples).

4. **Promote.**  A non-default winner beating the default pick by at
   least ``min_margin`` becomes a pinned plan in the database's
   :class:`~repro.engine.plan_cache.PlanPinStore` — stamped with the
   catalog version the evidence was gathered against, and therefore dead
   the moment a mutation bumps it.

Every step lands in a per-query **audit directory** (candidates with
fingerprints, per-run validation verdicts, raw timings, the chosen
winner and the losers' margins), so a promotion is reproducible and two
tournament runs are diffable.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from itertools import islice, product
from typing import Optional, Sequence

from ..engine.plan_cache import PinnedChoice, PinnedPlan, normalize_query
from ..engine.qlog import (
    iter_ok_records,
    result_checksum,
    rewriting_signature,
)
from .rewrite import rewrite_pattern
from .uload import Database

__all__ = [
    "CandidateOutcome",
    "QueryOutcome",
    "TournamentReport",
    "run_tournament",
    "trimmed_mean",
]

def trimmed_mean(samples: Sequence[float]) -> float:
    """Mean with the single smallest and largest samples dropped (once
    there are at least three) — the benchmark score.  Computed by hand:
    the obvious helper module would shadow :mod:`repro.core.statistics`
    in this package's namespace."""
    ordered = sorted(samples)
    if len(ordered) >= 3:
        ordered = ordered[1:-1]
    return sum(ordered) / len(ordered)


@dataclass
class CandidateOutcome:
    """One candidate plan's tournament record."""

    index: int
    #: per-pattern access choices, as the pin would persist them
    choices: list[dict]
    #: plan fingerprint of the candidate preparation (identity)
    fingerprint: str = ""
    #: True for the cost model's own pick (always candidate 0)
    default: bool = False
    #: validation verdicts: run label → "ok" or the divergence detail
    verdicts: dict = field(default_factory=dict)
    valid: bool = True
    #: raw benchmark laps in seconds (empty when validation failed)
    timings: list[float] = field(default_factory=list)
    #: trimmed-mean score in seconds (None when not benchmarked)
    score: Optional[float] = None
    #: fractional latency vs the default pick (negative = faster);
    #: None for the default itself or when either score is missing
    margin_vs_default: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "choices": self.choices,
            "fingerprint": self.fingerprint,
            "default": self.default,
            "verdicts": self.verdicts,
            "valid": self.valid,
            "timings": [round(t, 9) for t in self.timings],
            "score": None if self.score is None else round(self.score, 9),
            "margin_vs_default": (
                None
                if self.margin_vs_default is None
                else round(self.margin_vs_default, 6)
            ),
        }


@dataclass
class QueryOutcome:
    """The tournament outcome of one distinct workload query."""

    query: str
    normalized: str
    slug: str
    recorded_checksum: str
    recorded_fingerprint: Optional[str]
    flags: dict
    candidates: list[CandidateOutcome] = field(default_factory=list)
    #: total candidate space size before the ``max_candidates`` cap
    candidate_space: int = 0
    #: index of the fastest validated candidate (None = none validated)
    winner: Optional[int] = None
    #: fractional improvement of the winner over the default pick
    margin: float = 0.0
    promoted: bool = False
    error: Optional[str] = None

    @property
    def divergences(self) -> list[str]:
        out = []
        for candidate in self.candidates:
            for run, verdict in candidate.verdicts.items():
                if verdict != "ok":
                    out.append(
                        f"{self.query} candidate {candidate.index} "
                        f"[{run}]: {verdict}"
                    )
        if self.error:
            out.append(f"{self.query}: {self.error}")
        return out

    def as_dict(self) -> dict:
        return {
            "query": self.query,
            "normalized": self.normalized,
            "slug": self.slug,
            "recorded_checksum": self.recorded_checksum,
            "recorded_fingerprint": self.recorded_fingerprint,
            "flags": self.flags,
            "candidate_space": self.candidate_space,
            "candidates": [c.as_dict() for c in self.candidates],
            "winner": self.winner,
            "margin": round(self.margin, 6),
            "promoted": self.promoted,
            "error": self.error,
        }


@dataclass
class TournamentReport:
    """The outcome of one ``repro optimize`` run."""

    queries: list[QueryOutcome] = field(default_factory=list)
    #: ok-records in the capture (before dedup by normalized text)
    records: int = 0
    skipped: int = 0

    @property
    def divergences(self) -> list[str]:
        out: list[str] = []
        for outcome in self.queries:
            out.extend(outcome.divergences)
        return out

    @property
    def promotions(self) -> list[QueryOutcome]:
        return [q for q in self.queries if q.promoted]

    @property
    def ok(self) -> bool:
        """Zero divergences: every candidate of every query reproduced
        the recorded checksum in every validation run."""
        return not self.divergences

    def as_dict(self) -> dict:
        return {
            "records": self.records,
            "skipped": self.skipped,
            "queries": [q.as_dict() for q in self.queries],
            "divergences": self.divergences,
            "promotions": [q.normalized for q in self.promotions],
            "ok": self.ok,
        }

    def render(self) -> str:
        candidates = sum(len(q.candidates) for q in self.queries)
        lines = [
            f"tournament over {len(self.queries)} quer"
            f"{'y' if len(self.queries) == 1 else 'ies'} "
            f"({self.records} ok records, {self.skipped} skipped): "
            f"{candidates} candidates validated, "
            f"{len(self.divergences)} divergence(s), "
            f"{len(self.promotions)} promotion(s)"
        ]
        for outcome in self.queries:
            if outcome.winner is None:
                lines.append(f"  {outcome.query}: no validated candidate")
                continue
            winner = outcome.candidates[outcome.winner]
            verdict = (
                f"PROMOTED ({outcome.margin:.1%} faster)"
                if outcome.promoted
                else ("default wins" if winner.default else
                      f"winner within margin ({outcome.margin:.1%})")
            )
            lines.append(
                f"  {outcome.query}: {len(outcome.candidates)} candidates, "
                f"{verdict}"
            )
        lines.extend(f"  DIVERGENCE {detail}" for detail in self.divergences)
        return "\n".join(lines)


def _pattern_options(db: Database, pattern, prefer_views: bool) -> list[PinnedChoice]:
    """Every access path for one pattern, as unplaced pinned choices
    (unit/pattern indexes are stamped by the caller): the base store plus
    each enumerated rewriting, breaker-unavailable views excluded just as
    prepare-time planning excludes them."""
    options = [PinnedChoice(unit=0, pattern=0, access="base")]
    if not prefer_views:
        return options
    unavailable = db.breakers.unavailable_names()
    for rewriting in rewrite_pattern(
        pattern, db.catalog, db.summary, max_results=None
    ):
        if unavailable & set(rewriting.views):
            continue
        options.append(
            PinnedChoice(
                unit=0,
                pattern=0,
                access="rewriting",
                signature=rewriting_signature(rewriting),
                views=tuple(rewriting.views),
            )
        )
    return options


def _default_choice(resolution) -> PinnedChoice:
    """The cost model's prepare-time pick, as a pinned choice."""
    if resolution.rewriting is None:
        return PinnedChoice(unit=0, pattern=0, access="base")
    return PinnedChoice(
        unit=0,
        pattern=0,
        access="rewriting",
        signature=rewriting_signature(resolution.rewriting),
        views=tuple(resolution.rewriting.views),
    )


def _enumerate_candidates(
    db: Database,
    prepared,
    prefer_views: bool,
    max_candidates: int,
) -> tuple[list[tuple[PinnedChoice, ...]], int]:
    """All whole-query candidates (one access choice per pattern, stamped
    with unit/pattern positions), default combination first, capped at
    ``max_candidates``.  Returns ``(candidates, full_space_size)``."""
    per_pattern: list[list[PinnedChoice]] = []
    for unit in prepared.units:
        for pattern_index, pattern in enumerate(unit.unit.patterns):
            default = _default_choice(unit.resolutions[pattern_index])
            options = _pattern_options(db, pattern, prefer_views)
            # default pick first so the cross product leads with the cost
            # model's own combination (candidate 0 = the baseline)
            options.sort(
                key=lambda option: (
                    option.access != default.access
                    or option.signature != default.signature
                )
            )
            per_pattern.append(
                [
                    PinnedChoice(
                        unit=unit.index,
                        pattern=pattern_index,
                        access=option.access,
                        signature=option.signature,
                        views=option.views,
                    )
                    for option in options
                ]
            )
    space = 1
    for options in per_pattern:
        space *= len(options)
    combos = list(islice(product(*per_pattern), max_candidates))
    return combos, space


def _validation_runs(flags: dict) -> list[tuple[str, dict]]:
    """The executions every candidate must survive checksum-identical:
    the recorded flags (a recorded ``physical`` flag is ignored), then an
    instrumented run unless the recorded one already was."""
    recorded = {"stats": flags.get("stats", False)}
    runs = [("recorded", recorded)]
    if not recorded["stats"]:
        runs.append(("stats", {"stats": True}))
    return runs


def _benchmark_candidate(
    db: Database, prepared, runs: int
) -> list[float]:
    """Timed laps through the compiled engine: one unrecorded warmup,
    then ``runs`` measured executions."""
    db.execute_prepared(prepared)  # warmup
    laps = []
    for _ in range(max(1, runs)):
        started = time.perf_counter()
        db.execute_prepared(prepared)
        laps.append(time.perf_counter() - started)
    return laps


def _slug(ordinal: int, normalized: str) -> str:
    digest = hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:8]
    return f"{ordinal:03d}-{digest}"


def _write_audit(audit_dir: str, report: TournamentReport, db: Database) -> None:
    os.makedirs(audit_dir, exist_ok=True)
    for outcome in report.queries:
        query_dir = os.path.join(audit_dir, outcome.slug)
        os.makedirs(query_dir, exist_ok=True)
        with open(
            os.path.join(query_dir, "query.json"), "w", encoding="utf-8"
        ) as handle:
            json.dump(
                {
                    "query": outcome.query,
                    "normalized": outcome.normalized,
                    "recorded_checksum": outcome.recorded_checksum,
                    "recorded_fingerprint": outcome.recorded_fingerprint,
                    "flags": outcome.flags,
                    "candidate_space": outcome.candidate_space,
                    "error": outcome.error,
                },
                handle,
                indent=2,
            )
            handle.write("\n")
        with open(
            os.path.join(query_dir, "candidates.jsonl"), "w", encoding="utf-8"
        ) as handle:
            for candidate in outcome.candidates:
                handle.write(json.dumps(candidate.as_dict()) + "\n")
        if outcome.winner is not None:
            winner = outcome.candidates[outcome.winner]
            losers = [
                {
                    "index": c.index,
                    "fingerprint": c.fingerprint,
                    "margin_vs_default": c.margin_vs_default,
                    "score": c.as_dict()["score"],
                }
                for c in outcome.candidates
                if c.valid and c.index != outcome.winner
            ]
            with open(
                os.path.join(query_dir, "winner.json"), "w", encoding="utf-8"
            ) as handle:
                json.dump(
                    {
                        "winner": winner.as_dict(),
                        "margin_over_default": round(outcome.margin, 6),
                        "promoted": outcome.promoted,
                        "losers": losers,
                    },
                    handle,
                    indent=2,
                )
                handle.write("\n")
    with open(
        os.path.join(audit_dir, "summary.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(report.as_dict(), handle, indent=2)
        handle.write("\n")
    db.plan_pins.save(os.path.join(audit_dir, "pins.json"))


def run_tournament(
    db: Database,
    records: Sequence[dict],
    runs: int = 5,
    min_margin: float = 0.05,
    max_candidates: int = 32,
    audit_dir: Optional[str] = None,
    pin: bool = True,
) -> TournamentReport:
    """Tournament over a recorded workload's distinct queries.

    ``records`` is a loaded qlog capture (see
    :func:`~repro.core.replay.load_records`); only successful records
    carry ground truth, and each normalized query enters once (first
    occurrence wins — re-recordings of the same text carry the same
    checksum against unchanged state or the capture itself is suspect).
    Promotion installs pins into ``db.plan_pins`` unless ``pin=False``
    (validation-only mode); the audit directory is written either way
    when requested.
    """
    report = TournamentReport()
    seen: set[str] = set()
    workload: list[dict] = []
    for record in iter_ok_records(records):
        report.records += 1
        normalized = normalize_query(record["query"])
        if normalized in seen:
            report.skipped += 1
            continue
        seen.add(normalized)
        workload.append(record)

    for ordinal, record in enumerate(workload):
        query = record["query"]
        normalized = normalize_query(query)
        flags = record.get("flags", {})
        prefer_views = flags.get("prefer_views", True)
        outcome = QueryOutcome(
            query=query,
            normalized=normalized,
            slug=_slug(ordinal, normalized),
            recorded_checksum=record["checksum"],
            recorded_fingerprint=record.get("fingerprint"),
            flags=dict(flags),
        )
        report.queries.append(outcome)
        try:
            baseline = db.prepare(
                query, prefer_views=prefer_views, consult_pins=False
            )
            combos, outcome.candidate_space = _enumerate_candidates(
                db, baseline, prefer_views, max_candidates
            )
        except Exception as exc:  # enumeration must never take down a run
            outcome.error = f"{type(exc).__name__}: {exc}"
            continue

        validation = _validation_runs(flags)
        for index, choices in enumerate(combos):
            candidate = CandidateOutcome(
                index=index,
                choices=[choice.as_dict() for choice in choices],
                default=(index == 0),
            )
            outcome.candidates.append(candidate)
            candidate_pin = PinnedPlan(
                query=normalized,
                catalog_version=db.catalog_version,
                choices=choices,
            )
            try:
                if index == 0:
                    prepared = baseline
                else:
                    prepared = db.prepare(
                        query, prefer_views=prefer_views, pin=candidate_pin
                    )
                    if not prepared.pinned:
                        raise RuntimeError(
                            "candidate pin did not apply "
                            "(signature matched nothing)"
                        )
                candidate.fingerprint = prepared.fingerprint
            except Exception as exc:
                candidate.valid = False
                candidate.verdicts["prepare"] = (
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            for run_name, run_flags in validation:
                try:
                    result = db.execute_prepared(prepared, **run_flags)
                    checksum = result_checksum(result)
                except Exception as exc:
                    candidate.valid = False
                    candidate.verdicts[run_name] = (
                        f"{type(exc).__name__}: {exc}"
                    )
                    continue
                if checksum == record["checksum"]:
                    candidate.verdicts[run_name] = "ok"
                else:
                    candidate.valid = False
                    candidate.verdicts[run_name] = (
                        f"checksum {checksum} != recorded "
                        f"{record['checksum']}"
                    )
            if candidate.valid:
                candidate.timings = _benchmark_candidate(db, prepared, runs)
                candidate.score = trimmed_mean(candidate.timings)

        valid = [c for c in outcome.candidates if c.valid and c.score is not None]
        if not valid:
            continue
        default = outcome.candidates[0]
        if default.score is not None:
            for candidate in valid:
                if not candidate.default:
                    candidate.margin_vs_default = (
                        (candidate.score - default.score) / default.score
                    )
        winner = min(valid, key=lambda c: c.score)
        outcome.winner = winner.index
        if (
            not winner.default
            and default.score is not None
            and default.score > 0.0
        ):
            outcome.margin = (default.score - winner.score) / default.score
            if pin and outcome.margin >= min_margin:
                db.plan_pins.pin(
                    PinnedPlan(
                        query=normalized,
                        catalog_version=db.catalog_version,
                        choices=tuple(
                            PinnedChoice.from_dict(choice)
                            for choice in winner.choices
                        ),
                        fingerprint=winner.fingerprint,
                        margin=outcome.margin,
                        source=(
                            os.path.join(audit_dir, outcome.slug)
                            if audit_dir
                            else "tournament"
                        ),
                    )
                )
                outcome.promoted = True

    if audit_dir is not None:
        _write_audit(audit_dir, report, db)
    return report
