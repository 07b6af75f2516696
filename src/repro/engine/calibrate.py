"""Cost-model calibration: fitted coefficients from profiled query logs.

The cost model (:class:`repro.engine.context.CostModel`) prices operators
in abstract work units — only the *ratios* matter, because they decide
algorithm choices (hash vs nested loops, sort placement) and rewriting
rank.  Those ratios had never been validated against observed resource
usage.  This module closes the loop: given a qlog recording captured with
attributed profiling on (``cpu_ms`` per operator — see
:mod:`repro.engine.profiler`), it

1. reconstructs each record's operator tree from the flat pre-order
   ``operators`` list (the ``depth`` field), and computes every
   operator's **exclusive** CPU (inclusive minus children);
2. maps operator labels to **operator classes** (scan, filter,
   hash-join, nested-loops, stacktree-desc/anc, sort, group-by, …) and
   prices each operator in the cost model's own unit system from the
   *estimated* cardinalities the planner saw (sort pays ``n·log₂n``,
   nested loops pay the pair product, hash joins pay build+probe, the
   streaming operators pay linear);
3. fits, per class, a least-squares-through-origin coefficient
   ``cpu_ms ≈ coef · cost_units`` (``coef = Σxy / Σx²``);
4. flags classes whose coefficient is more than ``ratio_limit`` (default
   3×) away from the workload-wide coefficient — if the cost model were
   honest, "work units per CPU millisecond" would be one constant across
   classes, so a 3× outlier means that class's cost formula misprices
   real work by 3× relative to its peers.

The report is the evidence feed for the view advisor (ROADMAP) and a
standing honesty check on the numbers ``rank_rewritings`` runs on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = [
    "OPERATOR_CLASSES",
    "classify",
    "ClassFit",
    "CalibrationReport",
    "calibrate_records",
]

#: label prefix → operator class, longest prefix wins
OPERATOR_CLASSES: tuple[tuple[str, str], ...] = (
    ("PScan", "scan"),
    ("PBase", "scan"),
    ("PFilter", "filter"),
    ("PProject", "project"),
    ("PConcat", "concat"),
    ("PDifference", "difference"),
    ("PHashJoin", "hash-join"),
    ("PNestedLoopsJoin", "nested-loops"),
    ("PStackTreeDesc", "stacktree-desc"),
    ("PStackTreeAnc", "stacktree-anc"),
    ("PSort", "sort"),
    ("PHashGroupBy", "group-by"),
    ("PLogicalFallback", "fallback"),
    ("BaseEval", "base-eval"),
)


def classify(label: str) -> str:
    for prefix, cls in OPERATOR_CLASSES:
        if label.startswith(prefix):
            return cls
    return "other"


# ---------------------------------------------------------------------------
# Tree reconstruction & cost units
# ---------------------------------------------------------------------------

@dataclass
class _OpNode:
    label: str
    est: Optional[float]
    actual: int
    cpu_ms: float
    children: list["_OpNode"] = field(default_factory=list)

    @property
    def self_cpu_ms(self) -> float:
        return max(0.0, self.cpu_ms - sum(c.cpu_ms for c in self.children))

    def rows(self) -> Optional[float]:
        """The cardinality the planner believed; None when unknown."""
        return None if self.est is None else float(self.est)


def _rebuild(operators: list[dict]) -> list[_OpNode]:
    """Flat pre-order rows with ``depth`` → forest of roots."""
    roots: list[_OpNode] = []
    stack: list[tuple[int, _OpNode]] = []
    for row in operators:
        node = _OpNode(
            label=row.get("label", "?"),
            est=row.get("est"),
            actual=int(row.get("actual", 0)),
            cpu_ms=float(row.get("cpu_ms", 0.0)),
        )
        depth = int(row.get("depth", 0))
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if stack:
            stack[-1][1].children.append(node)
        else:
            roots.append(node)
        stack.append((depth, node))
    return roots


def _cost_units(node: _OpNode, cls: str) -> Optional[float]:
    """Price one operator in the cost model's unit system from the
    *estimated* cardinalities.  None = the planner had no estimate to
    calibrate against (the point is skipped and counted)."""
    child_rows = [c.rows() for c in node.children]
    if cls == "sort":
        n = node.rows()
        if n is None:
            return None
        return n * math.log2(n + 2)
    if cls == "nested-loops":
        if len(child_rows) < 2 or any(r is None for r in child_rows[:2]):
            return None
        return child_rows[0] * child_rows[1]
    if cls == "hash-join":
        if len(child_rows) < 2 or any(r is None for r in child_rows[:2]):
            return None
        # build the right side, probe once per left tuple
        return 2.0 * child_rows[1] + child_rows[0]
    if cls in ("stacktree-desc", "stacktree-anc", "group-by"):
        known = [r for r in child_rows if r is not None]
        if not known:
            return None
        return float(sum(known))
    # streaming operators: linear in their estimated output
    return node.rows()


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

@dataclass
class ClassFit:
    """Least-squares fit of one operator class."""

    operator_class: str
    points: int = 0
    skipped: int = 0  # operators without a usable estimate
    sum_units: float = 0.0
    sum_cpu_ms: float = 0.0
    _sxy: float = 0.0
    _sxx: float = 0.0

    def add(self, units: float, cpu_ms: float) -> None:
        self.points += 1
        self.sum_units += units
        self.sum_cpu_ms += cpu_ms
        self._sxy += units * cpu_ms
        self._sxx += units * units

    @property
    def coefficient(self) -> Optional[float]:
        """Fitted cpu_ms per cost unit (through the origin)."""
        if self._sxx <= 0.0:
            return None
        return self._sxy / self._sxx

    def as_dict(self) -> dict:
        return {
            "class": self.operator_class,
            "points": self.points,
            "skipped": self.skipped,
            "cost_units": round(self.sum_units, 2),
            "cpu_ms": round(self.sum_cpu_ms, 4),
            "coefficient": self.coefficient,
        }


@dataclass
class CalibrationReport:
    """Per-class coefficients plus the cross-class honesty verdict."""

    fits: dict[str, ClassFit]
    records: int
    profiled_records: int
    ratio_limit: float = 3.0

    @property
    def global_coefficient(self) -> Optional[float]:
        sxy = sum(f._sxy for f in self.fits.values())
        sxx = sum(f._sxx for f in self.fits.values())
        if sxx <= 0.0:
            return None
        return sxy / sxx

    def ratio(self, cls: str) -> Optional[float]:
        """Class coefficient relative to the workload-wide one: >1 means
        the class burns more CPU per estimated work unit than its peers
        (its cost formula *under*prices it)."""
        fit = self.fits.get(cls)
        overall = self.global_coefficient
        if fit is None or fit.coefficient is None or not overall:
            return None
        return fit.coefficient / overall

    def flagged(self) -> list[str]:
        out = []
        for cls in sorted(self.fits):
            ratio = self.ratio(cls)
            if ratio is not None and (
                ratio > self.ratio_limit or ratio < 1.0 / self.ratio_limit
            ):
                out.append(cls)
        return out

    @property
    def empty(self) -> bool:
        return all(fit.points == 0 for fit in self.fits.values())

    def as_dict(self) -> dict:
        flagged = set(self.flagged())
        classes = []
        for cls in sorted(self.fits):
            entry = self.fits[cls].as_dict()
            entry["ratio"] = self.ratio(cls)
            entry["flagged"] = cls in flagged
            classes.append(entry)
        return {
            "records": self.records,
            "profiled_records": self.profiled_records,
            "global_coefficient": self.global_coefficient,
            "ratio_limit": self.ratio_limit,
            "classes": classes,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        """Human table: one row per exercised operator class."""
        if self.empty:
            return (
                "no profiled operators found — record the workload with "
                "profiling enabled (repro profile / $REPRO_PROFILE=1)"
            )
        header = (
            f"{'class':<16} {'points':>6} {'cost units':>12} "
            f"{'cpu ms':>10} {'coef':>12} {'ratio':>7}  verdict"
        )
        lines = [
            f"calibration over {self.profiled_records}/{self.records} "
            "profiled records",
            header,
            "-" * len(header),
        ]
        flagged = set(self.flagged())
        for cls in sorted(self.fits):
            fit = self.fits[cls]
            if fit.points == 0:
                continue
            coef = fit.coefficient
            ratio = self.ratio(cls)
            verdict = "MISPRICED >3x" if cls in flagged else "ok"
            lines.append(
                f"{cls:<16} {fit.points:>6} {fit.sum_units:>12.1f} "
                f"{fit.sum_cpu_ms:>10.2f} "
                f"{(f'{coef:.6f}' if coef is not None else '?'):>12} "
                f"{(f'{ratio:.2f}' if ratio is not None else '?'):>7}  "
                f"{verdict}"
            )
        overall = self.global_coefficient
        lines.append(
            "workload-wide coefficient: "
            + (f"{overall:.6f} cpu-ms/unit" if overall else "?")
        )
        if flagged:
            lines.append(
                "flagged classes (cost formula off by >"
                f"{self.ratio_limit:g}x vs peers): "
                + ", ".join(sorted(flagged))
            )
        else:
            lines.append("no class off by more than "
                         f"{self.ratio_limit:g}x — cost model consistent")
        return "\n".join(lines)


def calibrate_records(
    records: Iterable[dict], ratio_limit: float = 3.0
) -> CalibrationReport:
    """Fit per-class cost coefficients from qlog records.

    Only ``outcome == "ok"`` records whose operators carry ``cpu_ms``
    (i.e. captured under attributed profiling) contribute points; a
    recording without profiling yields an ``empty`` report rather than an
    error, so callers can give a targeted hint.
    """
    fits: dict[str, ClassFit] = {}
    total = 0
    profiled = 0
    for record in records:
        total += 1
        operators = record.get("operators") or []
        if record.get("outcome", "ok") != "ok":
            continue
        if not any("cpu_ms" in op for op in operators):
            continue
        profiled += 1
        for root in _rebuild(operators):
            stack = [root]
            while stack:
                node = stack.pop()
                stack.extend(node.children)
                cls = classify(node.label)
                fit = fits.setdefault(cls, ClassFit(cls))
                units = _cost_units(node, cls)
                if units is None or units <= 0.0:
                    fit.skipped += 1
                    continue
                fit.add(units, node.self_cpu_ms)
    return CalibrationReport(
        fits=fits,
        records=total,
        profiled_records=profiled,
        ratio_limit=ratio_limit,
    )
