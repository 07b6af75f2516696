"""Tests for the offline plan tournament (``repro optimize``) and the
pinned-plan layer it promotes into.

Three concerns share this file because they share machinery:

* the tournament itself — full candidate enumeration, checksum
  validation against the recording in both execution modes, benchmark
  scoring, promotion, and the per-query audit trail;
* the pinned-plan lifecycle — a pin bypasses cost-model ranking at
  prepare time, survives LRU cache pressure, is invalidated by every
  kind of catalog mutation, replays diff-free, and a stale pin can
  degrade plan *choice* but never answer correctness;
* the standing differential sweep — every XMark and DBLP workload query
  has *all* of its S-equivalent candidates validated checksum-identical
  in both execution modes — the recorded flags and an instrumented
  stats run (the satellite bug hunt; currently clean, and
  this test keeps it that way).
"""

import json
import os

import pytest

from repro import Database
from repro.core.service import QueryService
from repro.core.tournament import _validation_runs, run_tournament, trimmed_mean
from repro.engine.metrics import MetricsRegistry
from repro.engine.plan_cache import PinnedChoice, PinnedPlan, PlanPinStore
from repro.engine.qlog import (
    QueryLog,
    result_checksum,
    rewriting_signature,
)
from repro.workloads import DBLP_QUERIES, XMARK_QUERIES, generate_dblp, generate_xmark

PERSON_QUERY = "for $p in //people/person return $p/name/text()"


def make_db(xmark_doc):
    """XMark database whose catalog supports both a single-view and a
    join access path for the person pattern: ``v_person`` answers it
    alone; ``v_person_ids`` ⨝ ``v_person_names`` reconstructs it."""
    db = Database(metrics=MetricsRegistry())
    db.add_document(xmark_doc)
    db.add_view("v_person", "//people/person[id:s]{/name[id:s, val]}")
    db.add_view("v_person_ids", "//people/person[id:s]")
    db.add_view("v_person_names", "//people/person/name[id:s, val]")
    return db


def make_join_heavy_db(doc):
    """:func:`make_db`, except that ``v_person_names`` stores every
    ``name`` element of the document — items' and categories' as well as
    persons' — so the two-view join reads and matches about four times
    the tuples the single-view plan reads.  The join stays S-equivalent
    (its structural join keeps only persons' names), but it is clearly
    slower whatever the host load: on a scale-16 document about 1.9 ms
    against 0.9 ms.  A larger document alone does not open that gap."""
    db = Database(metrics=MetricsRegistry())
    db.add_document(doc)
    db.add_view("v_person", "//people/person[id:s]{/name[id:s, val]}")
    db.add_view("v_person_ids", "//people/person[id:s]")
    db.add_view("v_person_names", "//name[id:s, val]")
    return db


@pytest.fixture(scope="module")
def large_xmark_doc():
    return generate_xmark(scale=16, seed=0)


def record_workload(db, queries, tmp_path, name="capture.jsonl"):
    path = str(tmp_path / name)
    qlog = QueryLog(path)
    with QueryService(db, qlog=qlog) as service:
        for query in queries:
            service.query(query)
    qlog.close()
    return QueryLog.read_all(path)


class TestTrimmedMean:
    def test_drops_min_and_max(self):
        assert trimmed_mean([1.0, 100.0, 2.0, 3.0, 0.5]) == pytest.approx(2.0)

    def test_small_samples_plain_mean(self):
        assert trimmed_mean([4.0]) == pytest.approx(4.0)
        assert trimmed_mean([2.0, 4.0]) == pytest.approx(3.0)


class TestValidationRuns:
    def test_recorded_flags_then_one_stats_run(self):
        assert _validation_runs({"prefer_views": True, "stats": False}) == [
            ("recorded", {"stats": False}),
            ("stats", {"stats": True}),
        ]

    def test_instrumented_recording_runs_once(self):
        assert _validation_runs({"stats": True}) == [
            ("recorded", {"stats": True})
        ]

    def test_recorded_physical_flag_is_ignored(self):
        for physical in (False, True):
            assert _validation_runs({"physical": physical}) == _validation_runs({})


class TestTournament:
    def test_validates_all_candidates_and_audits(self, xmark_doc, tmp_path):
        db = make_db(xmark_doc)
        records = record_workload(db, [PERSON_QUERY], tmp_path)
        audit = str(tmp_path / "audit")
        report = run_tournament(
            db, records, runs=2, min_margin=0.0, audit_dir=audit, pin=False
        )
        assert report.ok, report.divergences
        assert len(report.queries) == 1
        outcome = report.queries[0]
        # base + single(v_person) + several joins: a real candidate space
        assert len(outcome.candidates) >= 4
        assert outcome.candidates[0].default
        for candidate in outcome.candidates:
            assert candidate.valid
            assert candidate.fingerprint
            # recorded flags + one instrumented run
            assert set(candidate.verdicts) == {"recorded", "stats"}
            assert all(v == "ok" for v in candidate.verdicts.values())
            assert candidate.score is not None
        # audit trail: per-query directory + run-level summary and pins
        query_dir = os.path.join(audit, outcome.slug)
        with open(os.path.join(query_dir, "query.json")) as handle:
            meta = json.load(handle)
        assert meta["recorded_checksum"] == outcome.recorded_checksum
        with open(os.path.join(query_dir, "candidates.jsonl")) as handle:
            lines = [json.loads(line) for line in handle]
        assert len(lines) == len(outcome.candidates)
        with open(os.path.join(query_dir, "winner.json")) as handle:
            winner = json.load(handle)
        assert winner["winner"]["index"] == outcome.winner
        # losers carry their margins — the audit names the price of every
        # alternative, not just the victor
        assert len(winner["losers"]) == len(
            [c for c in outcome.candidates if c.valid]
        ) - 1
        with open(os.path.join(audit, "summary.json")) as handle:
            summary = json.load(handle)
        assert summary["ok"] is True
        assert os.path.exists(os.path.join(audit, "pins.json"))

    def test_promotes_over_misranked_default(self, large_xmark_doc, tmp_path):
        """The deterministic promotion scenario: record against honest
        statistics, then poison ``v_person``'s size so the cost model's
        default pick becomes the two-view join — genuinely slower than
        the single-view plan the tournament rediscovers (see
        :func:`make_join_heavy_db` for the size of the lead)."""
        db = make_join_heavy_db(large_xmark_doc)
        records = record_workload(db, [PERSON_QUERY], tmp_path)
        optimizer = make_join_heavy_db(large_xmark_doc)
        optimizer.override_statistic("v_person", 1e9)
        default = optimizer.prepare(PERSON_QUERY, consult_pins=False)
        assert default.units[0].resolutions[0].rewriting.views == (
            "v_person_ids", "v_person_names",
        )
        report = run_tournament(
            optimizer, records, runs=3, min_margin=0.0,
            audit_dir=str(tmp_path / "audit"),
        )
        assert report.ok, report.divergences
        assert len(report.promotions) == 1
        outcome = report.promotions[0]
        assert outcome.margin > 0.0
        pin = optimizer.plan_pins.get(
            outcome.normalized, optimizer.catalog_version
        )
        assert pin is not None
        assert pin.margin == pytest.approx(outcome.margin)
        winner = outcome.candidates[outcome.winner]
        assert pin.fingerprint == winner.fingerprint
        # the pinned preparation reproduces the winner's exact plan —
        # and beats what ranking alone would pick
        pinned = optimizer.prepare(PERSON_QUERY)
        assert pinned.pinned
        assert pinned.fingerprint == winner.fingerprint
        assert pinned.fingerprint != default.fingerprint
        result = optimizer.execute_prepared(pinned)
        assert result.pinned
        assert result_checksum(result) == outcome.recorded_checksum

    def test_detects_divergence_loudly(self, xmark_doc, tmp_path):
        """Non-vacuity of validation: a capture whose checksum does not
        match what the engine produces must fail the run with a verdict
        naming the divergence."""
        db = make_db(xmark_doc)
        records = record_workload(db, [PERSON_QUERY], tmp_path)
        records[0]["checksum"] = "0" * 16
        report = run_tournament(db, records, runs=1, pin=False)
        assert not report.ok
        assert report.divergences
        outcome = report.queries[0]
        assert all(not c.valid for c in outcome.candidates)
        # invalid candidates are never benchmarked or promoted
        assert all(not c.timings for c in outcome.candidates)
        assert not report.promotions

    def test_dedups_repeated_queries(self, xmark_doc, tmp_path):
        db = make_db(xmark_doc)
        records = record_workload(
            db, [PERSON_QUERY, PERSON_QUERY, "  " + PERSON_QUERY], tmp_path
        )
        report = run_tournament(db, records, runs=1, pin=False)
        assert report.records == 3
        assert report.skipped == 2
        assert len(report.queries) == 1

    def test_candidate_cap_keeps_default(self, xmark_doc, tmp_path):
        db = make_db(xmark_doc)
        records = record_workload(db, [PERSON_QUERY], tmp_path)
        report = run_tournament(
            db, records, runs=1, max_candidates=2, pin=False
        )
        outcome = report.queries[0]
        assert len(outcome.candidates) == 2
        assert outcome.candidates[0].default
        assert outcome.candidate_space > 2  # the cap was real, and logged


class TestPinLifecycle:
    def pin_for(self, db, query=PERSON_QUERY):
        """A pin selecting the single-view plan for the person pattern."""
        prepared = db.prepare(query, consult_pins=False)
        resolution = prepared.units[0].resolutions[0]
        assert resolution.rewriting is not None
        return PinnedPlan(
            query=" ".join(query.split()),
            catalog_version=db.catalog_version,
            choices=(
                PinnedChoice(
                    unit=0,
                    pattern=0,
                    access="rewriting",
                    signature=rewriting_signature(resolution.rewriting),
                    views=tuple(resolution.rewriting.views),
                ),
            ),
            fingerprint=prepared.fingerprint,
        )

    def test_pin_survives_lru_pressure(self, xmark_doc):
        db = make_db(xmark_doc)
        pin = self.pin_for(db)
        with QueryService(db, cache_capacity=2) as service:
            service.pin_plan(pin)
            # evict every cached plan several times over
            for query in (
                "//regions//item/name/text()",
                "//people/person/name/text()",
                "//open_auctions/open_auction/reserve/text()",
                "//closed_auctions/closed_auction/price/text()",
            ):
                service.query(query)
            assert len(db.plan_pins) == 1
            result = service.query(PERSON_QUERY)
            assert result.pinned
            assert service.pins()[0].query == pin.query

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.add_view("v_extra", "//regions//item[id:s]"),
            lambda s: s.drop_view("v_person_ids"),
            lambda s: s.add_document_xml("<site><extra>1</extra></site>", "extra.xml"),
            lambda s: s.refresh_statistics(),
            lambda s: s.db.override_statistic("v_person", 123.0),
        ],
        ids=["add_view", "drop_view", "add_document", "refresh_stats", "override_stat"],
    )
    def test_pin_invalidated_by_mutations(self, xmark_doc, mutate):
        db = make_db(xmark_doc)
        # an override no plan reads: without one pinned, a refresh has
        # nothing to do and bumps no version
        db.override_statistic("unread", 1.0)
        with QueryService(db) as service:
            service.pin_plan(self.pin_for(db))
            assert service.query(PERSON_QUERY).pinned
            before = db.plan_pins.stats().invalidations
            mutate(service)
            # eager purge on service mutations; the direct database
            # mutation is caught lazily on the next lookup instead
            result = service.query(PERSON_QUERY)
            assert not result.pinned
            assert len(db.plan_pins) == 0
            assert db.plan_pins.stats().invalidations > before

    def test_pinned_replay_is_diff_free(self, xmark_doc, tmp_path):
        """A workload recorded under pins replays clean — same
        fingerprints, same checksums — when the replay database loads the
        same pins; and the pinned fingerprint genuinely differs from the
        unpinned one, so the equivalence is not vacuous."""
        from repro.core.replay import replay_records

        recorder = make_db(xmark_doc)
        pin = self.pin_for(recorder)
        # pin the JOIN plan instead of the ranked pick so pinned and
        # unpinned preparations demonstrably differ
        join_sig = None
        for rewriting in recorder.rewrite(
            recorder.prepare(PERSON_QUERY, consult_pins=False)
            .units[0].unit.patterns[0],
            max_results=None,
        ):
            if rewriting.views == ("v_person_ids", "v_person_names"):
                join_sig = rewriting_signature(rewriting)
        assert join_sig
        pin = PinnedPlan(
            query=pin.query,
            catalog_version=recorder.catalog_version,
            choices=(
                PinnedChoice(
                    unit=0, pattern=0, access="rewriting",
                    signature=join_sig,
                    views=("v_person_ids", "v_person_names"),
                ),
            ),
        )
        records = []
        path = str(tmp_path / "pinned.jsonl")
        qlog = QueryLog(path)
        with QueryService(recorder, qlog=qlog) as service:
            unpinned_fp = service.query(PERSON_QUERY).plan_fingerprint
            service.pin_plan(pin)
            pinned = service.query(PERSON_QUERY)
            assert pinned.pinned
            assert pinned.plan_fingerprint != unpinned_fp
        qlog.close()
        records = [
            r for r in QueryLog.read_all(path) if r.get("pinned")
        ]
        assert len(records) == 1

        replayer = make_db(xmark_doc)
        replayer.plan_pins.pin(
            pin.restamped(replayer.catalog_version)
        )
        report = replay_records(replayer, records)
        assert report.ok, [d.summary() for d in report.diffs]

        # without the pin the same replay flags a fingerprint diff (and
        # only a fingerprint diff — answers agree across access paths)
        bare = make_db(xmark_doc)
        bare_report = replay_records(bare, records)
        assert not bare_report.ok
        assert {d.kind for d in bare_report.diffs} == {"fingerprint"}

    def test_stale_pin_never_serves_wrong_answer(self, xmark_doc):
        """Two staleness shapes: a version-stale pin is dropped before it
        influences planning, and a pin whose signature matches nothing at
        the current catalog state falls back to ranking — in both cases
        the answer equals the unpinned one."""
        db = make_db(xmark_doc)
        expected = result_checksum(db.query(PERSON_QUERY))

        # version staleness: install, then mutate the catalog under it
        db.plan_pins.pin(self.pin_for(db))
        db.override_statistic("v_person_names", 7.0)  # bumps the version
        result = db.query(PERSON_QUERY)
        assert not result.pinned
        assert result_checksum(result) == expected
        assert len(db.plan_pins) == 0

        # signature staleness: right version, dangling signature (the
        # rewriting it names does not exist at this catalog state)
        db.plan_pins.pin(
            PinnedPlan(
                query=" ".join(PERSON_QUERY.split()),
                catalog_version=db.catalog_version,
                choices=(
                    PinnedChoice(
                        unit=0, pattern=0, access="rewriting",
                        signature="feedfacefeedface",
                        views=("v_gone",),
                    ),
                ),
            )
        )
        result = db.query(PERSON_QUERY)
        assert not result.pinned  # the unmatched choice was not applied
        assert result_checksum(result) == expected
        ctx_counters = result.counters
        assert ctx_counters.get("plan_pin.unmatched", 0) >= 1

    def test_unmatched_pin_enumerates_each_pattern_once(
        self, xmark_doc, monkeypatch
    ):
        """A pin miss hands the rewritings it enumerated to the ranker
        instead of enumerating the same pattern a second time."""
        from repro.core import uload

        searched = []
        enumerate_rewritings = uload.rewrite_pattern

        def counting(pattern, *args, **kwargs):
            searched.append(pattern.to_text())
            return enumerate_rewritings(pattern, *args, **kwargs)

        monkeypatch.setattr(uload, "rewrite_pattern", counting)
        db = make_db(xmark_doc)
        db.query(PERSON_QUERY)
        unpinned, searched[:] = list(searched), []
        db.plan_pins.pin(
            PinnedPlan(
                query=" ".join(PERSON_QUERY.split()),
                catalog_version=db.catalog_version,
                choices=(
                    PinnedChoice(
                        unit=0, pattern=0, access="rewriting",
                        signature="feedfacefeedface",
                        views=("v_gone",),
                    ),
                ),
            )
        )
        result = db.query(PERSON_QUERY)
        assert result.counters["plan_pin.unmatched"] == 1
        assert searched == unpinned

    def test_pin_store_persistence_round_trip(self, xmark_doc, tmp_path):
        db = make_db(xmark_doc)
        pin = self.pin_for(db)
        db.plan_pins.pin(pin)
        path = str(tmp_path / "pins.json")
        assert db.plan_pins.save(path) == 1
        loaded = PlanPinStore.load(path)
        assert loaded == [pin]

        fresh = make_db(xmark_doc)
        with QueryService(fresh) as service:
            assert service.load_pins(path) == 1
            result = service.query(PERSON_QUERY)
            assert result.pinned

    def test_sharded_database_honours_pins(self, xmark_doc):
        from repro.core.coordinator import ShardedDatabase

        db = make_db(xmark_doc)
        expected = result_checksum(db.query(PERSON_QUERY))
        sharded = ShardedDatabase(2, metrics=MetricsRegistry())
        sharded.add_document(xmark_doc)
        sharded.add_view("v_person", "//people/person[id:s]{/name[id:s, val]}")
        sharded.add_view("v_person_ids", "//people/person[id:s]")
        sharded.add_view("v_person_names", "//people/person/name[id:s, val]")
        pin = self.pin_for(db)
        sharded.plan_pins.pin(pin.restamped(sharded.catalog_version))
        result = sharded.query(PERSON_QUERY)
        assert result.pinned
        assert result_checksum(result) == expected


class TestDifferentialSweep:
    """Satellite bug hunt, kept standing: every workload query's *entire*
    candidate set must validate checksum-identical to a recording in
    both execution modes.  The sweep over the full XMark + DBLP workloads (plus
    random patterns and enriched catalogs) found zero divergences when
    the tournament landed; these compact versions keep the property."""

    def _sweep(self, build, queries, tmp_path):
        records = record_workload(build(), queries, tmp_path)
        report = run_tournament(
            build(), records, runs=1, max_candidates=64, pin=False
        )
        assert report.ok, report.divergences
        assert len(report.queries) == len(queries)
        return report

    def test_xmark_candidates_agree_under_both_executors(
        self, xmark_doc, tmp_path
    ):
        queries = [XMARK_QUERIES[q] for q in ("q01", "q07", "q08", "q09", "q11")]
        report = self._sweep(
            lambda: make_db(xmark_doc), queries, tmp_path
        )
        # non-vacuity: the sweep must actually exercise multi-candidate
        # queries, not just validate one plan per query
        assert sum(len(q.candidates) for q in report.queries) > len(queries)

    def test_dblp_candidates_agree_under_both_executors(
        self, dblp_doc, tmp_path
    ):
        def build():
            db = Database(metrics=MetricsRegistry())
            db.add_document(dblp_doc)
            db.add_view("v_article", "//dblp/article[id:s]{/title[id:s, val]}")
            db.add_view("v_article_ids", "//dblp/article[id:s]")
            db.add_view("v_titles", "//dblp/article/title[id:s, val]")
            db.add_view("v_author", "//dblp//author[id:s, val]")
            return db

        queries = list(DBLP_QUERIES.values())[:5]
        report = self._sweep(build, queries, tmp_path)
        assert sum(len(q.candidates) for q in report.queries) > len(queries)
