"""Reconstruct time breakdowns from the event stream — and audit them.

:class:`PhaseTimeline` rebuilds per-node, per-category time totals from
the ``cpu`` trace events alone.  Because the instrumentation emits one
``cpu`` slice for exactly every ``TimeBreakdown.charge`` call, the
reconstruction must agree with the aggregate counters **exactly** (the
same float additions in the same order); :meth:`verify_against` is
therefore a built-in consistency audit of the accounting — any drift
means a charge path forgot its trace hook (or vice versa).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.metrics.counters import Category
from repro.trace.tracer import TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.report import RunReport

__all__ = ["PhaseTimeline"]

_CATEGORY_BY_VALUE = {category.value: category for category in Category}


class PhaseTimeline:
    """Per-node/per-category time totals rebuilt from trace events."""

    def __init__(self) -> None:
        #: node -> category -> charged microseconds.
        self.per_node: dict[int, dict[Category, float]] = {}

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "PhaseTimeline":
        timeline = cls()
        for event in events:
            if event.cat == "cpu" and event.ph == "X":
                category = _CATEGORY_BY_VALUE.get(event.name)
                if category is None:
                    continue
                node_times = timeline.per_node.setdefault(
                    event.node, {c: 0.0 for c in Category}
                )
                # Accumulate in stream order: this replays the exact
                # sequence of float additions TimeBreakdown.charge made,
                # so agreement is bit-exact, not merely within epsilon.
                node_times[category] += event.dur
        return timeline

    def node_total(self, node: int) -> dict[Category, float]:
        return self.per_node.get(node, {category: 0.0 for category in Category})

    def verify_against(self, report: "RunReport") -> list[str]:
        """Cross-check the reconstruction against a RunReport.

        Returns a list of human-readable mismatches (empty = the event
        stream and the aggregate accounting agree exactly, per node and
        per category).
        """
        mismatches: list[str] = []
        for node, breakdown in enumerate(report.node_breakdowns):
            rebuilt = self.node_total(node)
            for category in Category:
                expected = breakdown.times[category]
                got = rebuilt[category]
                if got != expected:
                    mismatches.append(
                        f"node {node} {category.value}: trace={got:.6f}us "
                        f"report={expected:.6f}us (delta {got - expected:+.6f}us)"
                    )
        return mismatches
