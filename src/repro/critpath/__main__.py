"""Offline critical-path analysis of a saved trace.

Usage::

    python -m repro.critpath TRACE [--json OUT]

``TRACE`` is either a flat JSONL trace (``repro.trace.export.write_jsonl``,
one event per line) or a Chrome trace_event JSON file (the ``--trace``
output of ``repro.apps``).  Prints the epoch blame table, what-if
projections, and per-node slack; exits 1 when the exact path identity
(path length == wall clock, bit for bit) does not hold, 2 on usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from repro.critpath.analyze import analyze_events
from repro.critpath.format import format_critpath
from repro.trace.tracer import TraceEvent

__all__ = ["main", "load_trace"]


def load_trace(path: str) -> tuple[list[TraceEvent], int]:
    """Read a trace file; returns (its events, events_dropped).

    Each row becomes a :class:`~repro.trace.TraceEvent` here, once.  A
    Chrome row names its node ``pid`` (its ``tid`` is a track, not a
    thread), and the metadata (``ph == "M"``) rows are skipped.  The
    Chrome exporter sorts by timestamp with a stable sort, which
    preserves the equal-timestamp emission order the PAG builder relies
    on.
    """
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline()
        rest = handle.read()
    try:
        head = json.loads(first)
        is_jsonl = isinstance(head, dict) and "ph" in head
    except json.JSONDecodeError:
        # A pretty-printed Chrome file splits its object across lines.
        is_jsonl = False
    if is_jsonl:
        lines = [first, *rest.splitlines()]
        return [TraceEvent.from_row(json.loads(line)) for line in lines if line.strip()], 0
    doc = json.loads(first + rest)
    events = [
        TraceEvent.from_row(dict(row, node=row.get("pid", 0), tid=None))
        for row in doc.get("traceEvents", [])
        if row.get("ph") != "M"
    ]
    return events, int((doc.get("otherData") or {}).get("events_dropped", 0))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.critpath",
        description="Rebuild the program-activity graph from a trace and "
        "print the critical-path epoch table and what-if projections.",
    )
    parser.add_argument("trace", help="trace file (JSONL or Chrome JSON)")
    parser.add_argument(
        "--json", metavar="OUT", help="also write the full report section as JSON"
    )
    args = parser.parse_args(argv)

    try:
        events, dropped = load_trace(args.trace)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"error: {args.trace!r} contains no trace events", file=sys.stderr)
        return 2

    result = analyze_events(events, events_dropped=dropped)
    section = result.to_dict()
    print(format_critpath(section, label=args.trace))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(section, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nreport written to {args.json}")
    return 0 if section["identity_exact"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
