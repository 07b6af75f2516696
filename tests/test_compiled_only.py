"""The serving path never enters the logical algebra.

Every query runs as compiled batch plans; the logical operators'
``evaluate`` is the test-only reference (:mod:`tests.reference`).  This
guard makes ``evaluate`` raise on every :class:`Operator` subclass and
then answers three batteries through :meth:`QueryService.query` and
:meth:`Database.explain`, each answer checked against the logical
reference's checksum taken before the patch:

* the XMark queries on the base store;
* the DBLP queries on the base store;
* the view battery v01–v10 over the 14-view catalog."""

import pytest

from repro import Database, QueryService
from repro.algebra.operators import Operator
from repro.engine.metrics import MetricsRegistry
from repro.engine.qlog import result_checksum
from repro.workloads import DBLP_QUERIES, XMARK_QUERIES, generate_dblp, generate_xmark
from tests.reference import reference_query
from tests.rewrite_golden import CATALOG_14, VIEW_QUERIES


def xmark_base():
    db = Database(metrics=MetricsRegistry())
    db.add_document(generate_xmark(scale=1, seed=0))
    return db, XMARK_QUERIES


def dblp_base():
    db = Database(metrics=MetricsRegistry())
    db.add_document(generate_dblp(scale=2, seed=1))
    return db, DBLP_QUERIES


def view_catalog():
    db = Database(metrics=MetricsRegistry())
    db.add_document(generate_xmark(scale=1, seed=0))
    for name, text in CATALOG_14:
        db.add_view(name, text)
    return db, VIEW_QUERIES


def operator_classes(root=Operator):
    """``root`` and every class below it, however deep."""
    found = [root]
    for sub in root.__subclasses__():
        found.extend(operator_classes(sub))
    return found


def forbid_logical_evaluation(monkeypatch):
    def evaluate(self, *args, **kwargs):
        raise AssertionError(f"logical {type(self).__name__}.evaluate on the serving path")

    patched = 0
    for cls in operator_classes():
        # patching each class that defines ``evaluate`` reaches every
        # subclass, and keeps inherited lookups intact after undo
        if "evaluate" in vars(cls):
            monkeypatch.setattr(cls, "evaluate", evaluate)
            patched += 1
    assert patched > 10  # the algebra really was fenced off


@pytest.mark.parametrize(
    "battery", [xmark_base, dblp_base, view_catalog], ids=["xmark", "dblp", "views"]
)
def test_serving_path_never_evaluates_logically(battery, monkeypatch):
    db, queries = battery()
    expected = {
        name: result_checksum(reference_query(db, query))
        for name, query in queries.items()
    }
    forbid_logical_evaluation(monkeypatch)
    with pytest.raises(AssertionError, match="on the serving path"):
        reference_query(db, next(iter(queries.values())))  # not vacuous
    with QueryService(db, max_workers=1) as service:
        for name, query in sorted(queries.items()):
            for _lap in range(2):  # cold, then from the plan cache
                result = service.query(query)
                assert result_checksum(result) == expected[name], name
                assert not result.degraded, name
    for name, query in sorted(queries.items()):
        report = db.explain(query)
        answered = sum(unit.metrics.root.rows_out for unit in report.units)
        assert answered == len(db.query(query).tuples), name


def test_physical_false_is_refused():
    """``physical`` survives on the three public entry points for callers
    that pass ``physical=True``; asking for the logical path is an error."""
    db, _queries = xmark_base()
    query = XMARK_QUERIES["q01"]
    prepared = db.prepare(query)
    expected = result_checksum(db.execute_prepared(prepared))
    assert result_checksum(db.query(query, physical=True)) == expected
    assert result_checksum(db.execute_prepared(prepared, physical=True)) == expected
    with pytest.raises(ValueError, match="physical=False"):
        db.query(query, physical=False)
    with pytest.raises(ValueError, match="physical=False"):
        db.execute_prepared(prepared, physical=False)
    with QueryService(db, max_workers=1) as service:
        assert result_checksum(service.query(query, physical=True)) == expected
        with pytest.raises(ValueError, match="physical=False"):
            service.query(query, physical=False)
